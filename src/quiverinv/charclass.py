"""Chern class calculus for tautological bundles on quiver moduli.

The cohomology of the stack of all representations of class d is the free
polynomial ring on generators c[v, i], one for each vertex v and each
1 <= i <= d(v), where c[v, i] has weight i (cohomological degree 2i) and
stands for the i-th Chern class of the rank-d(v) tautological bundle at v.
Two-point operations work on a product of two such stacks, so a generator
carries a factor index: (factor, vertex, index).

Poly is a sparse exact-rational polynomial in these generators: a dict
mapping monomials to Fractions, a monomial being a sorted tuple of
(generator, exponent) pairs.

K-theory classes entering the calculus are integer combinations of tensor
products of tautological bundles and their duals:

    kclass = ((mult, atom), ...),   atom = ((factor, vertex, dual), ...).

chern_kclass computes the total Chern class of such a virtual bundle up to
a weight bound.  Tensor products are handled through the Chern character:
power sums of Chern roots via Newton's identities, multiplied degreewise,
then converted back, so no splitting-principle variables ever materialize.
Duals flip the sign of odd Chern classes; negative multiplicities invert
the Chern series; rank-zero factors give the unit series.

scaling_coaction expands the effect of twisting every tautological bundle
by a varying line bundle with first Chern class z.  That twist is exp(zD)
for the derivation

    D(c[v, i]) = (d(v) - i + 1) c[v, i - 1],   c[v, 0] = 1,

(weight_zero_component), so its z^j component is D^j / j!.  The kernel of
D is the weight-zero subring, and the transposes of the D^j / j! are the
divided translation operators on homology.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Mapping

from .quiver import DimVector, Quiver, QuiverMorphism

Generator = tuple[int, str, int]
Monomial = tuple[tuple[Generator, int], ...]
Atom = tuple[tuple[int, str, bool], ...]
KClass = tuple[tuple[int, Atom], ...]


class ChernRing:
    """Descriptor of a polynomial ring of tautological Chern classes."""

    __slots__ = ("dims", "_key", "_gens", "_ranks")

    def __init__(self, dims: Iterable[DimVector]):
        dims = tuple(DimVector(d) for d in dims)
        for d in dims:
            if not (d.is_zero() or d.is_effective()):
                raise ValueError(f"ring needs effective dimension vectors, got {d!r}")
        self.dims = dims
        self._key = tuple(d.items() for d in dims)
        self._ranks = {(f, v): n for f, d in enumerate(dims) for v, n in d.items()}
        gens: list[Generator] = []
        for f, d in enumerate(dims):
            for v, n in d.items():
                for i in range(1, n + 1):
                    gens.append((f, v, i))
        self._gens = tuple(sorted(gens))

    def key(self) -> tuple:
        return self._key

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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChernRing) and self._key == other._key

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


def divide_monomial(m: Monomial, by: Monomial) -> Monomial | None:
    """m / by, or None when not divisible."""
    acc = dict(m)
    for g, e in by:
        left = acc.get(g, 0) - e
        if left < 0:
            return None
        if left:
            acc[g] = left
        else:
            acc.pop(g, None)
    return tuple(sorted(acc.items()))


_BASIS_MEMO: dict[tuple, tuple[Monomial, ...]] = {}


def monomial_basis(ring: ChernRing, weight: int) -> tuple[Monomial, ...]:
    """All monomials of the given weight, in a fixed graded order."""
    key = (ring.key(), weight)
    if key in _BASIS_MEMO:
        return _BASIS_MEMO[key]
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
            w = g[2]
            e = 1
            while w * e <= remaining:
                current.append((g, e))
                rec(idx + 1, remaining - w * e, current)
                current.pop()
                e += 1

        rec(0, weight, [])
        out.sort()
    result = tuple(out)
    _BASIS_MEMO[key] = result
    return result


class Poly:
    """Sparse polynomial over Q in tautological Chern class generators."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ChernRing, terms: Mapping[Monomial, Fraction]):
        self.ring = ring
        self.terms: dict[Monomial, Fraction] = {
            m: Fraction(c) for m, c in terms.items() if c
        }

    @classmethod
    def zero(cls, ring: ChernRing) -> "Poly":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: ChernRing, c) -> "Poly":
        return cls(ring, {(): Fraction(c)})

    @classmethod
    def one(cls, ring: ChernRing) -> "Poly":
        return cls.constant(ring, 1)

    @classmethod
    def generator(cls, ring: ChernRing, g: Generator) -> "Poly":
        ring.check_gen(g)
        return cls(ring, {((g, 1),): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _same_ring(self, other: "Poly") -> None:
        if self.ring.key() != other.ring.key():
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return Poly(self.ring, acc)

    def __sub__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, Fraction(0)) - c
        return Poly(self.ring, acc)

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.ring, {m: c * x for m, x in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._same_ring(other)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mul_monomials(m1, m2)
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return Poly(self.ring, acc)

    def power(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power")
        out = Poly.one(self.ring)
        for _ in range(e):
            out = out * self
        return out

    def weight_part(self, w: int) -> "Poly":
        return Poly(
            self.ring, {m: c for m, c in self.terms.items() if monomial_weight(m) == w}
        )

    def weights(self) -> set[int]:
        return {monomial_weight(m) for m in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

    def weight(self) -> int:
        ws = self.weights()
        if len(ws) != 1:
            raise ValueError("polynomial is zero or not homogeneous")
        return ws.pop()

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring.key() == other.ring.key()
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(
                f"c[{f},{v},{i}]" + (f"^{e}" if e > 1 else "") for (f, v, i), e in m
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


def mul_trunc(a: Poly, b: Poly, bound: int) -> Poly:
    """Product dropping all parts of weight above bound."""
    a._same_ring(b)
    acc: dict[Monomial, Fraction] = {}
    for m1, c1 in a.terms.items():
        w1 = monomial_weight(m1)
        if w1 > bound:
            continue
        for m2, c2 in b.terms.items():
            if w1 + monomial_weight(m2) > bound:
                continue
            m = mul_monomials(m1, m2)
            acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return Poly(a.ring, acc)


def power_trunc(a: Poly, e: int, bound: int) -> Poly:
    out = Poly.one(a.ring)
    for _ in range(e):
        out = mul_trunc(out, a, bound)
    return out


def series_inverse(p: Poly, bound: int) -> Poly:
    """Inverse of a series with constant term 1, up to the weight bound."""
    if p.constant_term() != 1:
        raise ValueError("series inverse needs constant term 1")
    parts = [p.weight_part(w) for w in range(bound + 1)]
    inv = [Poly.one(p.ring)]
    for k in range(1, bound + 1):
        acc = Poly.zero(p.ring)
        for j in range(1, k + 1):
            acc = acc + parts[j] * inv[k - j]
        inv.append(-acc)
    total = Poly.zero(p.ring)
    for q in inv:
        total = total + q
    return total


def _newton_power_sums(elem: list[Poly], bound: int, ring: ChernRing) -> list[Poly]:
    """Power sums p_1..p_bound from elementary symmetric parts e_1..e_bound."""
    p: list[Poly] = [Poly.zero(ring)]
    for k in range(1, bound + 1):
        acc = elem[k].scale((-1) ** (k - 1) * k)
        for j in range(1, k):
            acc = acc + (elem[j] * p[k - j]).scale((-1) ** (j - 1))
        p.append(acc)
    return p


def _elementary_from_power_sums(p: list[Poly], bound: int, ring: ChernRing) -> list[Poly]:
    elem: list[Poly] = [Poly.one(ring)]
    for k in range(1, bound + 1):
        acc = Poly.zero(ring)
        for j in range(1, k + 1):
            acc = acc + (elem[k - j] * p[j]).scale((-1) ** (j - 1))
        elem.append(acc.scale(Fraction(1, k)))
    return elem


def _tensor_chern(cA: Poly, rA: int, cB: Poly, rB: int, bound: int) -> Poly:
    """Total Chern class of a tensor product from the factors' classes."""
    ring = cA.ring
    eA = [cA.weight_part(w) for w in range(bound + 1)]
    eB = [cB.weight_part(w) for w in range(bound + 1)]
    pA = _newton_power_sums(eA, bound, ring)
    pB = _newton_power_sums(eB, bound, ring)
    chA = [Poly.constant(ring, rA)] + [
        pA[k].scale(Fraction(1, factorial(k))) for k in range(1, bound + 1)
    ]
    chB = [Poly.constant(ring, rB)] + [
        pB[k].scale(Fraction(1, factorial(k))) for k in range(1, bound + 1)
    ]
    chC = []
    for k in range(bound + 1):
        acc = Poly.zero(ring)
        for i in range(k + 1):
            acc = acc + mul_trunc(chA[i], chB[k - i], bound)
        chC.append(acc)
    pC = [Poly.zero(ring)] + [
        chC[k].scale(factorial(k)) for k in range(1, bound + 1)
    ]
    eC = _elementary_from_power_sums(pC, bound, ring)
    total = Poly.zero(ring)
    for q in eC:
        total = total + q
    return total


_ATOM_MEMO: dict[tuple, Poly] = {}


def atom_rank(atom: Atom, ring: ChernRing) -> int:
    r = 1
    for f, v, _ in atom:
        r *= ring.rank(f, v)
    return r


def chern_atom(atom: Atom, ring: ChernRing, bound: int) -> Poly:
    """Total Chern class of a tensor product of tautological bundles."""
    if not atom:
        raise ValueError("empty atom")
    key = (atom, ring.key(), bound)
    if key in _ATOM_MEMO:
        return _ATOM_MEMO[key]
    if atom_rank(atom, ring) == 0:
        result = Poly.one(ring)
        _ATOM_MEMO[key] = result
        return result

    def single(f: int, v: str, dual: bool) -> Poly:
        r = ring.rank(f, v)
        terms: dict[Monomial, Fraction] = {(): Fraction(1)}
        for i in range(1, min(r, bound) + 1):
            sign = -1 if (dual and i % 2) else 1
            terms[(((f, v, i), 1),)] = Fraction(sign)
        return Poly(ring, terms)

    f0, v0, dual0 = atom[0]
    total = single(f0, v0, dual0)
    rank = ring.rank(f0, v0)
    for f, v, dual in atom[1:]:
        total = _tensor_chern(total, rank, single(f, v, dual), ring.rank(f, v), bound)
        rank *= ring.rank(f, v)
    _ATOM_MEMO[key] = total
    return total


def kclass_rank(kclass: KClass, ring: ChernRing) -> int:
    return sum(mult * atom_rank(atom, ring) for mult, atom in kclass)


_KCLASS_MEMO: dict[tuple, Poly] = {}


def chern_kclass(kclass: KClass, ring: ChernRing, bound: int) -> Poly:
    """Total Chern class of an integer combination of atoms, truncated."""
    kclass = tuple((int(m), tuple(a)) for m, a in kclass)
    key = (tuple(sorted(kclass)), ring.key(), bound)
    if key in _KCLASS_MEMO:
        return _KCLASS_MEMO[key]
    result = Poly.one(ring)
    for mult, atom in kclass:
        if mult == 0:
            continue
        c = chern_atom(atom, ring, bound)
        if mult < 0:
            c = series_inverse(c, bound)
        result = mul_trunc(result, power_trunc(c, abs(mult), bound), bound)
    _KCLASS_MEMO[key] = result
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


def apply_ring_map(
    poly: Poly, target_ring: ChernRing, gen_image: Callable[[Generator], Poly]
) -> Poly:
    """Push a polynomial through a ring homomorphism given on generators."""
    out = Poly.zero(target_ring)
    for m, c in poly.terms.items():
        term = Poly.one(target_ring)
        for g, e in m:
            img = gen_image(g)
            if img.is_zero():
                term = Poly.zero(target_ring)
                break
            term = term * img.power(e)
        if not term.is_zero():
            out = out + term.scale(c)
    return out


def direct_sum_pullback(poly: Poly, pair_ring: ChernRing) -> Poly:
    """Pull back along the direct-sum map: classes on the (d + e)-stack to
    classes on the product of the d-stack and the e-stack.

    Whitney formula on generators: c_i of the rank d(v) + e(v) bundle goes
    to the weight-i part of the product of the two factors' total classes.
    """
    if pair_ring.factors() != 2:
        raise ValueError("pullback target must be a two-factor ring")
    if poly.ring.factors() != 1:
        raise ValueError("pullback source must be a one-factor ring")
    d, e = pair_ring.dims
    if poly.ring.dims[0] != d + e:
        raise ValueError("ring dimensions do not match a direct sum")

    totals: dict[str, Poly] = {}

    def total_class(v: str) -> Poly:
        if v not in totals:
            acc = Poly.one(pair_ring)
            for f in (0, 1):
                c = Poly.one(pair_ring)
                for i in range(1, pair_ring.rank(f, v) + 1):
                    c = c + Poly.generator(pair_ring, (f, v, i))
                acc = acc * c
            totals[v] = acc
        return totals[v]

    def image(g: Generator) -> Poly:
        _, v, i = g
        return total_class(v).weight_part(i)

    return apply_ring_map(poly, pair_ring, image)


def merge_pullback(m: QuiverMorphism, poly: Poly, source_ring: ChernRing) -> Poly:
    """Pull back along the induced map of moduli for a quiver morphism.

    The tautological bundle at a target vertex pulls back to the direct sum
    of the tautological bundles at its preimages, so generators map to
    weight parts of the product of preimage total classes.
    """
    if source_ring.factors() != 1 or poly.ring.factors() != 1:
        raise ValueError("merge pullback works on one-factor rings")
    d = source_ring.dims[0]
    if poly.ring.dims[0] != m.pushforward(d):
        raise ValueError("target ring does not match the pushforward class")

    totals: dict[str, Poly] = {}

    def total_class(w: str) -> Poly:
        if w not in totals:
            acc = Poly.one(source_ring)
            for v in m.preimages(w):
                c = Poly.one(source_ring)
                for i in range(1, source_ring.rank(0, v) + 1):
                    c = c + Poly.generator(source_ring, (0, v, i))
                acc = acc * c
            totals[w] = acc
        return totals[w]

    def image(g: Generator) -> Poly:
        _, w, i = g
        return total_class(w).weight_part(i)

    return apply_ring_map(poly, source_ring, image)


def correction_top_class(m: QuiverMorphism, source_ring: ChernRing) -> Poly:
    """Euler class of the correction bundle of a quiver morphism.

    Product of top Chern classes of Hom bundles between tautological
    bundles: one factor dual(V_v) tensor V_w for every merged ordered pair
    (v, w), and one factor dual(V_source) tensor V_target for every
    unmatched edge.  Its weight is correction_form(m, d, d).
    """
    if source_ring.factors() != 1:
        raise ValueError("correction class lives on a one-factor ring")
    d = source_ring.dims[0]
    result = Poly.one(source_ring)
    blocks: list[tuple[str, str]] = list(m.merged_pairs())
    for eid in m.unmatched_edge_ids:
        a = m.source.edge(eid)
        blocks.append((a.source, a.target))
    for v, w in blocks:
        r = d[v] * d[w]
        if r == 0:
            continue
        c = chern_atom(((0, v, True), (0, w, False)), source_ring, r)
        result = result * c.weight_part(r)
    return result


def weight_zero_component(poly: Poly) -> Poly:
    """The translation derivation D; a class is weight zero when D kills it.

    D(c[0, v, i]) = (d(v) - i + 1) c[0, v, i - 1] with c[0, v, 0] = 1, and
    D vanishes on the generators of every other factor.
    """
    ring = poly.ring
    acc: dict[Monomial, Fraction] = {}
    for m, c in poly.terms.items():
        for g, e in m:
            f, v, i = g
            if f != 0:
                continue
            lowered = divide_monomial(m, ((g, 1),))
            if i > 1:
                lowered = mul_monomials(lowered, (((f, v, i - 1), 1),))
            acc[lowered] = acc.get(lowered, 0) + c * (e * (ring.rank(f, v) - i + 1))
    return Poly(ring, acc)


def scaling_coaction(poly: Poly) -> dict[int, Poly]:
    """Coaction exp(zD) of the scaling line bundle on ring factor 0.

    Returns the finite z-expansion {j: D^j(poly) / j!}; the j = 0 part is
    the input and the weight of the z^j part drops by j.
    """
    out: dict[int, Poly] = {}
    j = 0
    while not poly.is_zero():
        out[j] = poly.scale(Fraction(1, factorial(j)))
        j += 1
        poly = weight_zero_component(poly)
    return out


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
