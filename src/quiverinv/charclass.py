"""Chern class calculus for tautological bundles on quiver moduli.

The cohomology of the stack of all representations of class d is the free
polynomial ring on generators c[v, i], one for each vertex v and each
1 <= i <= d(v), where c[v, i] has weight i (cohomological degree 2i) and
stands for the i-th Chern class of the rank-d(v) tautological bundle at v.
Two-point operations work on a product of two such stacks, so a generator
carries a factor index: (factor, vertex, index).

A polynomial in these generators is a plain dict mapping monomials to
exact coefficients, ints (as in chern_atom's classes) or Fractions, with
no zero values; weight_part, mul_trunc, power_trunc and series_inverse are
its arithmetic.  A dict carries no ring: what takes one in a ring checks
its generators there (ChernRing.check_poly).  At the API a monomial is a
sorted tuple of (generator, exponent) pairs; inside the kernels
(whitney_transpose, vertexalg) it is one int with a _FIELD_BITS-bit field
per generator, in the ring's generator order (ChernRing.pack).

K-theory classes entering the calculus are integer combinations of tensor
products of tautological bundles and their duals:

    kclass = ((mult, atom), ...),   atom = ((factor, vertex, dual), ...).

chern_atom computes the total Chern class of one atom up to a weight
bound from the ranks and dualities of its factors alone.
Tensor products are handled through the power sums of the Chern roots
(Newton's identities), which multiply as the Chern character does but in
integers (_tensor_chern), so no splitting-principle variables and no
fractions ever materialize.
Duals flip the sign of odd Chern classes; rank-zero factors give the unit
series.  The two-point operations cap with a kclass one atom at a time
(vertexalg), so they never expand its total class.  chern_kclass does
expand it, inverting the series of negative multiplicities: it is the
reference those caps are tested against.

Twisting every tautological bundle by a line bundle acts on this ring
through the translation derivation D; the operations that use it work on
homology, where vertexalg._raise states D and its transpose.
"""

from __future__ import annotations

import re
from itertools import product
from math import comb, factorial, prod
from typing import Callable, Iterable, Mapping

from .quiver import DimVector, Quiver, QuiverMorphism

Generator = tuple[int, str, int]
Monomial = tuple[tuple[Generator, int], ...]
Atom = tuple[tuple[int, str, bool], ...]
KClass = tuple[tuple[int, Atom], ...]

# bits per generator in a packed monomial; exponents stay below the top one,
# the guard, so no carry or borrow crosses a field (vertexalg._cap_into)
_FIELD_BITS = 8
_FIELD = (1 << _FIELD_BITS) - 1
_GUARD = 1 << (_FIELD_BITS - 1)


_RING_MEMO: dict[tuple, "ChernRing"] = {}  # tuple of DimVectors -> its ring


class ChernRing:
    """Descriptor of a polynomial ring of tautological Chern classes.  The
    sorted generators fix the layout of packed monomials: factor 0's come
    first, and each (factor, vertex) owns a contiguous run of fields.

    A ring is never changed after it is made, so ChernRing(dims) returns
    the one ring of its tuple of vectors in _RING_MEMO, made on the first
    request.  Rings are equal by their vectors: the shared object is only
    a fast path, and a ring made outside the table compares equal."""

    __slots__ = ("dims", "_key", "_gens", "_ranks", "_shift", "_raising")

    def __new__(cls, dims: Iterable[DimVector]):
        dims = tuple(DimVector(d) for d in dims)
        self = _RING_MEMO.get(dims)
        if self is not None:
            return self
        for d in dims:
            if not (d.is_zero() or d.is_effective()):
                raise ValueError(f"ring needs effective dimension vectors, got {d!r}")
        self = object.__new__(cls)
        self.dims = dims
        self._key = tuple(d.items() for d in dims)
        self._ranks = {(f, v): n for f, d in enumerate(dims) for v, n in d.items()}
        self._gens = tuple(sorted((*fv, i + 1) for fv, n in self._ranks.items() for i in range(n)))
        self._shift = {g: _FIELD_BITS * k for k, g in enumerate(self._gens)}
        # per c[0, v, i]: the delta from c[0, v, i - 1], that one's field (0 for i = 1), shift, d(v) - i + 1
        self._raising = tuple(
            ((1 << k) - (1 << k - _FIELD_BITS if i > 1 else 0),
             _FIELD << k - _FIELD_BITS if i > 1 else 0, k, self._ranks[(0, v)] - i + 1)
            for (f, v, i), k in self._shift.items() if f == 0
        )
        _RING_MEMO[dims] = self
        return self

    def __reduce__(self):
        # copies and unpickled classes share the ring of their vectors
        return ChernRing, (self.dims,)

    def pack(self, m: Monomial) -> int:
        """One int, g's exponent at bit _shift[g]; one reaching the guard bit would alias, and is refused."""
        s = 0
        for g, x in m:
            s += x << self._shift[g]
            if not 0 <= x < _GUARD or s >> self._shift[g] & _GUARD:
                raise ValueError(f"exponent of {g!r} does not fit in a {_FIELD_BITS}-bit field")
        return s

    def unpack(self, s: int) -> Monomial:
        return tuple((g, s >> k & _FIELD) for g, k in self._shift.items() if s >> k & _FIELD)

    def guard(self) -> int:
        """The guard bits of every field (vertexalg._cap_into)."""
        return sum(_GUARD << k for k in self._shift.values())

    def factors(self) -> int:
        return len(self.dims)

    def generators(self) -> tuple[Generator, ...]:
        return self._gens

    def rank(self, factor: int, vertex: str) -> int:
        if not 0 <= factor < len(self.dims):
            raise ValueError(f"no factor {factor} in this ring")
        return self._ranks.get((factor, vertex), 0)

    def check_gen(self, g: Generator) -> Generator:
        f, v, i = g
        if not 1 <= i <= self.rank(f, v):
            raise ValueError(f"generator {g!r} out of range for this ring")
        return g

    def check_poly(self, p: Mapping[Monomial, object]) -> None:
        """Refuse a polynomial with a generator outside this ring."""
        for m in p:
            for g, _ in m:
                self.check_gen(g)

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, ChernRing) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"ChernRing({[dict(items) for items in self._key]!r})"


def monomial_weight(m: Monomial) -> int:
    return sum(g[2] * e for g, e in m)


def mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    acc = dict(a)
    for g, e in b:
        acc[g] = acc.get(g, 0) + e
    return tuple(sorted(acc.items()))


def monomial_basis(ring: ChernRing, weight: int) -> tuple[Monomial, ...]:
    """All monomials of the given weight, in a fixed graded order."""
    out: list[Monomial] = []
    if weight == 0:
        out.append(())
    elif weight > 0:
        gens = ring.generators()

        def rec(idx: int, remaining: int, current: list) -> None:
            if remaining == 0:
                out.append(tuple(current))
                return
            if idx == len(gens):
                return
            rec(idx + 1, remaining, current)
            g = gens[idx]
            for e in range(1, remaining // g[2] + 1):
                current.append((g, e))
                rec(idx + 1, remaining - g[2] * e, current)
                current.pop()

        rec(0, weight, [])
        out.sort()
    return tuple(out)


def weight_part(p: Mapping[Monomial, object], w: int) -> dict[Monomial, object]:
    return {m: c for m, c in p.items() if monomial_weight(m) == w}


def mul_trunc(a: Mapping[Monomial, object], b: Mapping[Monomial, object], bound: int | None = None) -> dict:
    """Product, dropping all parts of weight above bound if one is given."""
    acc: dict[Monomial, object] = {}
    _add_product(acc, a, b, 1, bound)
    return {m: c for m, c in acc.items() if c}


def power_trunc(a: Mapping[Monomial, object], e: int, bound: int | None = None) -> dict:
    if e < 0:
        raise ValueError("negative power")
    out = {(): 1}
    for _ in range(e):
        out = mul_trunc(out, a, bound)
    return out


def series_inverse(p: Mapping[Monomial, object], bound: int) -> dict:
    """Inverse of a series with constant term 1, up to the weight bound."""
    if p.get((), 0) != 1:
        raise ValueError("series inverse needs constant term 1")
    parts = [weight_part(p, w) for w in range(bound + 1)]
    inv = [{(): 1}]
    for k in range(1, bound + 1):
        acc: dict[Monomial, object] = {}
        for j in range(1, k + 1):
            _add_product(acc, parts[j], inv[k - j], -1)
        inv.append(acc)
    return {m: c for part in inv for m, c in part.items() if c}


def _add_product(acc: dict, a: Mapping, b: Mapping, c, bound: int | None = None) -> None:
    """acc += c a b, dropping the parts of weight above bound if one is given."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mul_monomials(m1, m2)
            if bound is None or monomial_weight(m) <= bound:
                acc[m] = acc.get(m, 0) + c * c1 * c2


def _power_sums(elem: list[dict], rank: int) -> list[dict]:
    """Power sums p_0 = rank, p_1, ... of the Chern roots from the weight
    parts e_0 = 1, e_1, ... of the total Chern class (Newton's identities)."""
    p = [{(): rank}]
    for k in range(1, len(elem)):
        acc = {m: (-1) ** (k - 1) * k * c for m, c in elem[k].items()}
        for j in range(1, k):
            _add_product(acc, elem[j], p[k - j], (-1) ** (j - 1))
        p.append(acc)
    return p


def _tensor_chern(eA: list[dict], rA: int, eB: list[dict], rB: int) -> list[dict]:
    """Weight parts of the total Chern class of a tensor product from the
    factors' weight parts and ranks, up to the same weight bound.

    The Chern character ch_k = p_k / k! is multiplicative, so the power
    sums are p_k(A x B) = sum_i C(k, i) p_i(A) p_(k-i)(B), in integers.
    Newton's identities k e_k = sum_(1<=j<=k) (-1)^(j-1) e_(k-j) p_j turn
    them back, dividing exactly by k: a remainder raises ArithmeticError.
    """
    pA, pB = _power_sums(eA, rA), _power_sums(eB, rB)
    pC, elem = [{}], [{(): 1}]
    for k in range(1, len(eA)):
        pC.append({})
        for i in range(k + 1):
            _add_product(pC[k], pA[i], pB[k - i], comb(k, i))
        acc: dict[Monomial, int] = {}
        for j in range(1, k + 1):
            _add_product(acc, elem[k - j], pC[j], (-1) ** (j - 1))
        elem.append({})
        for m, c in acc.items():
            e, r = divmod(c, k)
            if r:
                raise ArithmeticError(f"Newton's identity: {c} is not divisible by {k}")
            if e:
                elem[k][m] = e
    return elem


def atom_rank(atom: Atom, ring: ChernRing) -> int:
    r = 1
    for f, v, _ in atom:
        r *= ring.rank(f, v)
    return r


def _atom_class(atom: Atom, ring: ChernRing, bound: int) -> dict:
    """Total Chern class of a tensor product of tautological bundles, up to
    the weight bound, with int coefficients (_tensor_chern).

    Every step is graded, so the class to a smaller bound is the weight
    truncation of the class to a larger one; parts above the atom's rank
    vanish and are not computed.  The class reads the ring only through
    the ranks and dualities of the factors, in local generators (j, i) for
    c_i of the j-th factor.  chern_atom renames them to the factors'
    generators; bracket plans, made once per quiver, pair and weight,
    shift them to their fields (vertexalg).
    """
    if not atom:
        raise ValueError("empty atom")
    factors = tuple((ring.rank(f, v), dual) for f, v, dual in atom)
    bound = min(bound, prod(r for r, _ in factors))
    if bound <= 0:
        return {(): 1}
    parts, rank = None, 1
    for j, (r, dual) in enumerate(factors):
        single = [{(): 1}] + [
            {(((j, i), 1),): -1 if dual and i % 2 else 1} if i <= r else {}
            for i in range(1, bound + 1)
        ]
        parts = single if parts is None else _tensor_chern(parts, rank, single, r)
        rank *= r
    return {m: c for part in parts for m, c in part.items()}


def chern_atom(atom: Atom, ring: ChernRing, bound: int) -> dict[Monomial, int]:
    """_atom_class on the ring's generators (a repeated factor adds its exponents)."""
    terms: dict[Monomial, int] = {}
    for m, c in _atom_class(atom, ring, bound).items():
        m = mul_monomials((), [((atom[j][0], atom[j][1], i), e) for (j, i), e in m])
        terms[m] = terms.get(m, 0) + c
    return {m: c for m, c in terms.items() if c}


def chern_kclass(kclass: KClass, ring: ChernRing, bound: int) -> dict[Monomial, int]:
    """Total Chern class of an integer combination of atoms, truncated."""
    result = {(): 1}
    for mult, atom in kclass:
        if mult == 0:
            continue
        c = chern_atom(tuple(atom), ring, bound)
        if mult < 0:
            c = series_inverse(c, bound)
        result = mul_trunc(result, power_trunc(c, abs(mult), bound), bound)
    return result


def ext_pairing_kexpr(q: Quiver) -> KClass:
    """K-theory class controlling the two-point homology operations.

    On the product of the stacks for classes (d, e) this is the dual of the
    Hom-minus-Ext complex plus its factor swap; its virtual rank is
    sym_euler_form(q, d, e) and its Chern classes are the kernels all
    pairing operations cap with.  The dual-plus-swap combination is forced:
    pulling back along the factor swap must agree with taking duals, or the
    bracket the field operator induces loses skew symmetry.
    """
    out: list[tuple[int, Atom]] = []
    for v in q.vertices:
        out.append((2, ((0, v, False), (1, v, True))))
    for a in q.edges:
        out.append((-1, ((0, a.source, False), (1, a.target, True))))
        out.append((-1, ((0, a.target, False), (1, a.source, True))))
    return tuple(out)


def apply_ring_map(poly: Mapping[Monomial, object], gen_image: Callable[[Generator], Mapping]) -> dict:
    """Push a polynomial through a ring homomorphism given on generators."""
    out: dict[Monomial, object] = {}
    for m, c in poly.items():
        term = {(): c}
        for g, e in m:
            term = mul_trunc(term, power_trunc(gen_image(g), e))
        for t, x in term.items():
            out[t] = out.get(t, 0) + x
    return {m: c for m, c in out.items() if c}


def _sum_slots(d: DimVector) -> dict[str, tuple]:
    """Whitney slots of the direct-sum map onto d: (0, v) and (1, v) at v."""
    return {v: ((0, v), (1, v)) for v in d.support()}


def _merge_slots(m: QuiverMorphism, d: DimVector) -> dict[str, tuple]:
    """Whitney slots of the merge map onto d: (0, v) for each preimage v of w."""
    return {w: tuple((0, v) for v in m.preimages(w)) for w in d.support()}


def _whitney_pullback(poly: Mapping, source: ChernRing, ring: ChernRing, slots: dict[str, tuple]) -> dict:
    """c[0, w, k] of source goes to the weight-k part of the product of the
    total classes of the slots of w in ring."""
    source.check_poly(poly)
    totals = {w: {(): 1} for w in slots}
    for w, group in slots.items():
        for f, v in group:
            gens = range(1, ring.rank(f, v) + 1)
            totals[w] = mul_trunc(totals[w], {(): 1, **{(((f, v, i), 1),): 1 for i in gens}})
    return apply_ring_map(poly, lambda g: weight_part(totals[g[1]], g[2]))


_EXPANSION_MEMO: dict[tuple, dict] = {}  # (part, n) -> _expand(part, n)


def _expand(part: tuple[int, ...], n: int) -> dict[int, int]:
    """whitney_transpose of one part onto a rank-n vertex; reads only (part,
    n).  A part with at most one nonzero slot has no tuple to enumerate
    and comes out as itself, with coefficient 1."""
    used = [[ex >> k & _FIELD for k in range(0, ex.bit_length(), _FIELD_BITS)] for ex in part if ex]
    flat = [(t, i) for t, ex in enumerate(used) for i, e in enumerate(ex, 1) if e]
    left = [used[t][i - 1] for t, i in flat]
    choices = ([0] + [i for s, i in flat if s == t] for t in range(len(used)))
    mixed = [  # (positions in flat, index sum) per tuple to enumerate
        ([flat.index(ti) for ti in enumerate(tau) if ti[1]], sum(tau))
        for tau in product(*choices) if len(tau) - tau.count(0) > 1
    ]
    mk, out = [0] * (n + 1), {}  # mk: tuples chosen so far, by index sum

    def rec(p: int, denom: int) -> None:
        if p == len(mixed):
            m = mk[:]
            for (_, i), e in zip(flat, left):
                m[i] += e
            coeff = prod(map(factorial, m)) // (denom * prod(map(factorial, left)))
            s = sum(e << _FIELD_BITS * k for k, e in enumerate(m[1:]))
            out[s] = out.get(s, 0) + coeff
            return
        positions, k = mixed[p]
        for count in range(min(left[u] for u in positions) + 1):
            rec(p + 1, denom * factorial(count))
            mk[k] += 1
            for u in positions:
                left[u] -= 1
        mk[k] -= count + 1
        for u in positions:
            left[u] += count + 1

    rec(0, 1)
    return out


def whitney_transpose(
    func: Mapping[int, object], source: ChernRing, target: ChernRing, slots: dict[str, tuple],
) -> dict[int, object]:
    """Transpose of _whitney_pullback from the one-factor ring target to
    source, from and to functionals keyed by packed monomials.

    A support monomial splits into one part per target vertex w, its slots'
    fields, an int each.  A multiset of index tuples tau (one index per slot, not
    all zero) that uses up a part exactly, with n_tau copies of tau and m_k
    tuples of sum k, adds prod_k m_k! / prod_tau n_tau! to prod_k
    c[0, w, k]^m_k.  Only the counts of tuples with two or more nonzero
    indices are enumerated, in place on the exponents left; a one-index
    tuple takes what is left, so a part with one nonzero slot is its own
    expansion.  The parts' expansions multiply, that is add, shifted.
    Each distinct (part, rank of w) is expanded once per process into
    _EXPANSION_MEMO, which every pushforward shares.
    """
    shift, rank = source._shift, source.rank
    blocks = [  # per target vertex: its shift and rank, the (shift, mask) of each slot in source
        (target._shift[(0, w, 1)], n, [(shift[(f, v, 1)], (1 << _FIELD_BITS * rank(f, v)) - 1)
                                       for f, v in slots[w] if rank(f, v)])
        for w, n in target.dims[0].items()
    ]
    memo, result = _EXPANSION_MEMO, {}
    for s, x in func.items():
        terms = [(0, x)]
        for at, n, cuts in blocks:
            key = (tuple([s >> k & mask for k, mask in cuts]), n)
            part = memo.get(key)
            if part is None:
                part = memo[key] = _expand(*key)
            terms = [(m + (mw << at), c * y) for m, c in terms for mw, y in part.items()]
        for m, c in terms:
            result[m] = result.get(m, 0) + c
    return result


def direct_sum_pullback(poly: Mapping[Monomial, object], pair_ring: ChernRing) -> dict:
    """Pull back along the direct-sum map: classes on the (d + e)-stack to
    classes on the product of the d-stack and the e-stack.  A generator
    outside the ring of d + e is refused.

    Whitney formula on generators: c_i of the rank d(v) + e(v) bundle goes
    to the weight-i part of the product of the two factors' total classes.
    """
    if pair_ring.factors() != 2:
        raise ValueError("pullback target must be a two-factor ring")
    d, e = pair_ring.dims
    return _whitney_pullback(poly, ChernRing((d + e,)), pair_ring, _sum_slots(d + e))


def merge_pullback(m: QuiverMorphism, poly: Mapping[Monomial, object], source_ring: ChernRing) -> dict:
    """Pull back along the induced map of moduli for a quiver morphism.
    A generator outside the ring of the pushforward class is refused.

    The tautological bundle at a target vertex pulls back to the direct sum
    of the tautological bundles at its preimages, so generators map to
    weight parts of the product of preimage total classes.
    """
    if source_ring.factors() != 1:
        raise ValueError("merge pullback works on one-factor rings")
    target = ChernRing((m.pushforward(source_ring.dims[0]),))
    return _whitney_pullback(poly, target, source_ring, _merge_slots(m, target.dims[0]))


def correction_top_class(m: QuiverMorphism, source_ring: ChernRing) -> dict[Monomial, int]:
    """Euler class of the correction bundle of a quiver morphism.

    Product of top Chern classes of Hom bundles between tautological
    bundles: one factor dual(V_v) tensor V_w for every merged ordered pair
    (v, w), and one factor dual(V_source) tensor V_target for every
    unmatched edge.  Its weight is the correction form of m at (d, d),
    euler_form(target, m(d), m(d)) - euler_form(source, d, d).
    """
    if source_ring.factors() != 1:
        raise ValueError("correction class lives on a one-factor ring")
    d = source_ring.dims[0]
    result = {(): 1}
    edges = [m.source.edge(eid) for eid in m.unmatched_edge_ids]
    blocks = list(m.merged_pairs()) + [(a.source, a.target) for a in edges]
    for v, w in blocks:
        r = d[v] * d[w]
        if r == 0:
            continue
        c = chern_atom(((0, v, True), (0, w, False)), source_ring, r)
        result = mul_trunc(result, weight_part(c, r))
    return result


_MONO_RE = re.compile(r"^c\[([^,\]]+),(\d+)\](?:\^(\d+))?$")


def monomial_string(m: Monomial) -> str:
    """Canonical text form of a one-factor monomial, e.g. 'c[v,2]^3*c[w,1]'."""
    if not m:
        return "1"
    bits = []
    for (f, v, i), e in m:
        if f != 0:
            raise ValueError("canonical strings are for one-factor monomials")
        bits.append(f"c[{v},{i}]" + (f"^{e}" if e > 1 else ""))
    return "*".join(bits)


def parse_monomial_string(s: str, ring: ChernRing) -> Monomial:
    if s == "1":
        return ()
    out: dict[Generator, int] = {}
    for bit in s.split("*"):
        match = _MONO_RE.match(bit)
        if not match:
            raise ValueError(f"bad monomial component {bit!r}")
        v, i, e = match.group(1), int(match.group(2)), match.group(3)
        g = ring.check_gen((0, v, i))
        out[g] = out.get(g, 0) + (int(e) if e else 1)
    return tuple(sorted(out.items()))
