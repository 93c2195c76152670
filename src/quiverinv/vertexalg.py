"""Homology of representation stacks and the graded operations on it.

A degree-n homology class of the stack of representations of class d is a
finitely supported Q-linear functional on the weight n/2 monomial basis of
the Chern class ring of d (homology is the graded dual of cohomology, and
odd degrees vanish).  HClass stores the quiver, the ring descriptor, the
degree, and the functional; two-point classes live on two-factor rings.

The operations:

  * kunneth(u, v): product class on the two-factor ring;
  * cap(u, p): lower the degree by pairing against multiplication by p;
  * divided_translation(u, j): the j-th divided power of the translation
    operator, the transpose of D^j / j! for the translation derivation D
    of the Chern class ring (_raise);
  * direct_sum_pushforward(w): along the map classifying direct sums;
  * merge_pushforward(m, u): along the map induced by a quiver morphism;
    both, as state_field, apply charclass.whitney_transpose (one memo of
    expansions for all three) to a support, so none enumerates the basis;
  * state_field(u, v, powers): the two-point expansion sum_p z^p (class on
    the sum stack), the coefficient at p collecting, over i >= 0 with
    j = p - chi + i >= 0 (chi the symmetrized Euler form), epsilon times
    the pushforward of the j-th divided translation of (u x v) capped with
    the i-th Chern class of the symmetrized Hom-minus-Ext complex;
  * lie_bracket(x, y): the coefficient at p = -1, which descends to the
    quotient below and makes it a graded Lie algebra.
HClass stores a class packed and fraction free, so each runs on int
numerators of monomials packed in ints; what a bracket needs of the two
dimension vectors at its weight is made once and never changed (_bracket_plan).
A right factor of degree 0 is x 1_b, and then the expansion runs on the
ring of a alone: pairing with 1_b sets every c[1, w, i] to 0, so the total
class of the complex becomes prod_v c(V_v)^n_v with n_v = chi(e_v, b) +
chi(b, e_v), and the pushforward keeps each monomial, now one of the ring
of a + b, with coefficient 1 (_UnitPlan).  Every bracket of an invariant
is of that kind: its right factor is a unit class.

Classes of the projective linear (rigidified) moduli stack in shifted
degree are represented by classes of the full stack modulo translations:
PlClass wraps a representative.  A class is a translation image exactly
when it vanishes on the kernel of D, and with cbar = sum_v c[0, v, 1] / |d|
(so D(cbar) = 1) the map P(f) = sum_j (-cbar)^j D^j(f) / j! projects onto
that kernel; pl_equal therefore tests whether the transpose of P kills the
difference.  cbar is linear, so the caps with its powers are repeated caps
with L = sum_v c[0, v, 1], one lowered index each: the zero test runs by
linear caps on ints and needs no linear algebra.  canonical_coordinates
gives the pairings with the row reduced basis of the kernel of D
(weight_zero_basis) without building it: the translation images pair to
zero with that kernel, so reducing the representative by an echelon form
of them, the images of single packed monomials under _raise, leaves its
coordinates at the free columns.  The two zero tests agree by duality
and are cross-checked in the tests, and weight_zero_basis stays as the
reference the reduction is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Iterable, Mapping

from .charclass import (
    _FIELD,
    _FIELD_BITS,
    _GUARD,
    ChernRing,
    Monomial,
    _atom_class,
    _merge_slots,
    _sum_slots,
    ext_pairing_kexpr,
    monomial_basis,
    monomial_weight,
    whitney_transpose,
)
from .quiver import (
    DimVector,
    Quiver,
    QuiverMorphism,
    euler_form,
)


class HClass:
    """Finitely supported functional on a monomial basis, with a degree.

    Stored packed and fraction free: num maps packed monomials (ChernRing.
    pack, ints) to int numerators over one int den > 0, in canonical form
    (no zeros, gcd(den, values) = 1), so equal classes are equal structures.
    functional is the {Monomial: Fraction} view, for JSON and tests.  A
    weight of _GUARD or more is refused: an exponent could reach the guard."""

    __slots__ = ("quiver", "ring", "degree", "num", "den")

    def __init__(
        self,
        quiver: Quiver,
        ring: ChernRing,
        degree: int,
        functional: Mapping[Monomial, Fraction],
    ):
        degree = int(degree)
        packed: dict[int, Fraction] = {}
        if degree >= 0 and degree % 2 == 0:
            w = degree // 2
            for m, c in functional.items():
                c = Fraction(c)
                if not c:
                    continue
                for g, _ in m:
                    ring.check_gen(g)
                if monomial_weight(m) != w:
                    raise ValueError(
                        f"monomial {m!r} has weight {monomial_weight(m)}, class degree {degree}"
                    )
                s = ring.pack(m)
                packed[s] = packed.get(s, 0) + c
        elif functional and any(functional.values()):
            raise ValueError(f"no nonzero classes in degree {degree}")
        den = lcm(*(c.denominator for c in packed.values()))
        self._set(quiver, ring, degree, {s: int(c * den) for s, c in packed.items()}, den)

    @classmethod
    def _trusted(cls, quiver, ring, degree, num: Mapping[int, int], den: int = 1) -> "HClass":
        """An internal result num / den (den > 0, int values), valid as it
        stands: only brought to canonical form."""
        self = object.__new__(cls)
        self._set(quiver, ring, degree, num, den)
        return self

    def _set(self, quiver, ring, degree, num, den) -> None:
        if degree >= 2 * _GUARD:
            raise ValueError(f"degree {degree}: an exponent could overflow its field")
        self.quiver, self.ring, self.degree, g = quiver, ring, degree, gcd(den, *num.values())
        self.num, self.den = {m: x // g for m, x in num.items() if x}, den // g

    @property
    def functional(self) -> dict[Monomial, Fraction]:
        return {self.ring.unpack(m): Fraction(x, self.den) for m, x in self.num.items()}

    @property
    def dims(self) -> tuple[DimVector, ...]:
        return self.ring.dims

    def is_zero(self) -> bool:
        return not self.num

    def _compatible(self, other: "HClass") -> None:
        if self.quiver != other.quiver or self.ring.key() != other.ring.key():
            raise ValueError("classes live on different stacks")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other: "HClass") -> "HClass":
        self._compatible(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        acc = {m: a * x for m, x in self.num.items()}
        for m, y in other.num.items():
            acc[m] = acc.get(m, 0) + b * y
        return HClass._trusted(self.quiver, self.ring, self.degree, acc, den)

    def __sub__(self, other: "HClass") -> "HClass":
        return self + other.scale(-1)

    def scale(self, c) -> "HClass":
        c = Fraction(c)
        return HClass._trusted(
            self.quiver, self.ring, self.degree,
            {m: c.numerator * x for m, x in self.num.items()}, self.den * c.denominator,
        )

    def pair(self, poly: Mapping[Monomial, object]) -> Fraction:
        """Evaluate the functional on a polynomial, a {Monomial: int or
        Fraction} dict in the class's ring (off-degree parts give 0, and
        are not packed); a generator outside the ring is refused."""
        self.ring.check_poly(poly)
        pack, num, deg = self.ring.pack, self.num, self.degree
        on = (c * num.get(pack(m), 0) for m, c in poly.items() if 2 * monomial_weight(m) == deg)
        return sum(on, Fraction(0)) / self.den

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HClass)
            and self.quiver == other.quiver
            and self.ring.key() == other.ring.key()
            and self.degree == other.degree
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self) -> str:
        dims = [d.to_json() for d in self.ring.dims]
        return f"HClass(dims={dims!r}, degree={self.degree}, support={len(self.num)})"


def zero_class(quiver: Quiver, dims: Iterable[DimVector], degree: int) -> HClass:
    return HClass(quiver, ChernRing(tuple(dims)), degree, {})


def unit_class(quiver: Quiver, d: DimVector) -> HClass:
    """The class of the whole stack for d, i.e. the functional 1 at degree 0."""
    quiver.check_dimvec(d)
    if not (d.is_zero() or d.is_effective()):
        raise ValueError(f"unit class needs an effective vector, got {d!r}")
    return HClass(quiver, ChernRing((d,)), 0, {(): Fraction(1)})


def vacuum(quiver: Quiver) -> HClass:
    return unit_class(quiver, DimVector())


def kunneth(u: HClass, v: HClass) -> HClass:
    """Product class on the two-factor ring of the pair of stacks."""
    if u.quiver != v.quiver:
        raise ValueError("classes on different quivers")
    if u.ring.factors() != 1 or v.ring.factors() != 1:
        raise ValueError("kunneth needs one-factor classes")
    ring, pv = ChernRing((u.ring.dims[0], v.ring.dims[0])), v.num.items()
    shift = _FIELD_BITS * len(u.ring.generators())
    out = {s + (t << shift): x * y for s, x in u.num.items() for t, y in pv}
    return HClass._trusted(u.quiver, ring, u.degree + v.degree, out, u.den * v.den)


def _cap_into(acc: dict, func: Mapping, terms: list, sign: int = 1) -> None:
    """acc += sign (func cap p) for the terms (g, guard, x) of p, g packed and
    guard the guard bits of g's fields or more.  Exponents stay below the
    guards, so s | guard minus g keeps them all exactly when g divides s."""
    for s, y in func.items():
        for g, guard, x in terms:
            if ((s | guard) - g) & guard == guard:
                m = s - g
                acc[m] = acc.get(m, 0) + sign * x * y


def cap(u: HClass, poly: Mapping[Monomial, object]) -> HClass:
    """Cap with a homogeneous polynomial, a {Monomial: int or Fraction} dict
    in u's ring: (u cap p)(m) = u(p * m), on ints.  A generator outside the
    ring, or terms of two weights, are refused."""
    u.ring.check_poly(poly)
    terms = {m: c for m, c in poly.items() if c}
    weights = {monomial_weight(m) for m in terms}
    if len(weights) > 1:
        raise ValueError("cap needs a homogeneous polynomial")
    if not terms:
        return HClass(u.quiver, u.ring, u.degree, {})
    den, guard = lcm(*(c.denominator for c in terms.values())), u.ring.guard()
    out: dict[int, int] = {}
    _cap_into(out, u.num, [(u.ring.pack(m), guard, int(c * den)) for m, c in terms.items()])
    return HClass._trusted(u.quiver, u.ring, u.degree - 2 * weights.pop(), out, u.den * den)


def _raise(ring: ChernRing, func: Mapping[int, object], j: int) -> dict:
    """The transpose of D^j, undivided (ints stay ints), on packed monomials.

    D is the translation derivation of the Chern class ring, the package's
    one statement of it:

        D(c[0, v, i]) = (d(v) - i + 1) c[0, v, i - 1],   c[0, v, 0] = 1,

    and D vanishes on the generators of every other factor.  Twisting every
    tautological bundle of factor 0 by a line bundle with first Chern class
    z acts as exp(zD), and the kernel of D is the weight-zero subring.  So
    each step raises one index of a support monomial, c[0, v, i - 1] ->
    c[0, v, i], with coefficient (d(v) - i + 1) times the new exponent of
    c[0, v, i], here one added delta and one field read (ChernRing._raising)."""
    for _ in range(j):
        out: dict[int, object] = {}
        for s, x in func.items():
            for delta, lower, shift, k in ring._raising:
                if not lower or s & lower:
                    m = s + delta
                    out[m] = out.get(m, 0) + x * (k * (m >> shift & _FIELD))
        func = out
    return func


def _horner(ring: ChernRing, terms: list[tuple[int, dict]]) -> dict:
    """sum_j Dt^j (c_j f_j) over terms [(c_0, f_0), (c_1, f_1), ...], Dt the
    transpose of D (_raise), summed Horner fashion from the last term."""
    acc: dict = {}
    for c, f in reversed(terms):
        acc = _raise(ring, acc, 1)
        for m, x in f.items():
            acc[m] = acc.get(m, 0) + c * x
    return acc


def divided_translation(u: HClass, j: int) -> HClass:
    """Transpose of D^j / j! on ring factor 0; raises the degree by 2j:
    _raise on the numerators, and j! joins the denominator."""
    if j < 0:
        raise ValueError("translation exponent must be >= 0")
    if j == 0:
        return u
    raised = _raise(u.ring, u.num, j)
    return HClass._trusted(u.quiver, u.ring, u.degree + 2 * j, raised, u.den * factorial(j))


def direct_sum_pushforward(w: HClass) -> HClass:
    """Push a two-factor class along the direct-sum map to the sum stack:
    the transposed Whitney map on the support of w."""
    if w.ring.factors() != 2:
        raise ValueError("pushforward input must be a two-factor class")
    total = w.ring.dims[0] + w.ring.dims[1]
    ring = ChernRing((total,))
    out = whitney_transpose(w.num, w.ring, ring, _sum_slots(total))
    return HClass._trusted(w.quiver, ring, w.degree, out, w.den)


def merge_pushforward(mor: QuiverMorphism, u: HClass) -> HClass:
    """Push a one-factor class along the map induced by a quiver morphism:
    the transposed Whitney map over preimages, on the support of u."""
    if u.ring.factors() != 1:
        raise ValueError("pushforward input must be a one-factor class")
    if u.quiver != mor.source:
        raise ValueError("class does not live on the morphism source")
    image = mor.pushforward(u.ring.dims[0])
    ring = ChernRing((image,))
    out = whitney_transpose(u.num, u.ring, ring, _merge_slots(mor, image))
    return HClass._trusted(mor.target, ring, u.degree, out, u.den)


class _BracketPlan:
    """What state_field needs of classes of dimension vectors a, b on q at
    weight imax, made once and never changed: the pair and target rings,
    chi, epsilon, the direct-sum pushforward (push, by the sum's Whitney
    slots), and the Ext atoms, multiplicities summed, as _cap_into terms to
    weight imax without 1, by weight, shifted from _atom_class (imax, as a
    weight, stays below _GUARD)."""

    __slots__ = ("ring", "target", "chi", "eps", "slots", "caps")

    def __init__(self, q: Quiver, a: DimVector, b: DimVector, imax: int):
        if imax >= _GUARD:
            raise ValueError(f"weight {imax}: an exponent could overflow its field")
        self._common(q, a, b, ChernRing((a, b)))
        self.slots, atoms = _sum_slots(a + b), {}
        for mult, atom in ext_pairing_kexpr(q):  # parallel edges repeat an atom
            atoms[atom] = atoms.get(atom, 0) + mult
        guard = self.ring.guard()
        for atom, mult in atoms.items():  # its factors are the ring's two; c_i of factor j is at at[j] + _FIELD_BITS i
            at, terms = [self.ring._shift.get((f, v, 1), 0) - _FIELD_BITS for f, v, _ in atom], {}
            for m, c in _atom_class(atom, self.ring, imax).items():
                g = sum(e << at[j] + _FIELD_BITS * i for (j, i), e in m)
                terms.setdefault(sum(i * e for (_, i), e in m), []).append((g, guard, c))
            terms.pop(0, None)  # the constant term 1
            if terms and mult:
                self.caps.append((mult, terms))

    def _common(self, q: Quiver, a: DimVector, b: DimVector, ring: ChernRing) -> None:
        """ring, target, chi, eps and an empty caps: what both plan kinds set alike."""
        self.ring, self.target, self.caps = ring, ChernRing((a + b,)), []
        # the sign (-1)^(deg u * chi(b, b)) of the general formula is 1: chi(b, b) is even
        ab = euler_form(q, a, b)  # chi = sym_euler_form, eps = sign_epsilon
        self.chi, self.eps = ab + euler_form(q, b, a), -1 if ab % 2 else 1

    def push(self, func: dict) -> dict:
        """The direct-sum pushforward of a functional on ring to target."""
        return whitney_transpose(func, self.ring, self.target, self.slots)


class _UnitPlan(_BracketPlan):
    """The plan of a right factor x 1_b, for every weight, on ring = ring(a):
    an atom V_x (x) dual(V_y) of ext_pairing_kexpr meets 1_b as c(V_x)^b(y),
    so the caps are c(V_v) = sum_(i <= a(v)) c[0, v, i] with multiplicity
    n_v = chi(e_v, b) + chi(b, e_v), and push moves the fields of each
    vertex from ring(a) to target (moves: from shift, mask, to shift)."""

    __slots__ = ("moves",)

    def __init__(self, q: Quiver, a: DimVector, b: DimVector):
        self._common(q, a, b, ChernRing((a,)))
        n, at, guard = {}, self.ring._shift, self.ring.guard()
        for mult, ((_, x, _), (_, y, _)) in ext_pairing_kexpr(q):
            n[x] = n.get(x, 0) + mult * b[y]
        for v, r in a.items():
            if n[v]:
                self.caps.append((n[v], {i: [(1 << at[0, v, i], guard, 1)] for i in range(1, r + 1)}))
        to = self.target._shift
        self.moves = [(at[0, v, 1], (1 << _FIELD_BITS * r) - 1, to[0, v, 1]) for v, r in a.items()]

    def push(self, func: dict) -> dict:
        moves = self.moves
        return {sum((s >> k & mask) << t for k, mask, t in moves): x for s, x in func.items()}


_PLAN_MEMO: dict[tuple, _BracketPlan] = {}  # (q, a, b, imax), or (q, a, b) for a unit plan -> plan


def _bracket_plan(q: Quiver, a: DimVector, b: DimVector, imax: int | None) -> _BracketPlan:
    """The plan of (q, a, b) at weight imax; for imax None, its unit plan."""
    key = (q, a, b) if imax is None else (q, a, b, imax)
    plan = _PLAN_MEMO.get(key)
    if plan is None:
        plan = _PLAN_MEMO[key] = _UnitPlan(q, a, b) if imax is None else _BracketPlan(q, a, b, imax)
    return plan


def _ext_cap_levels(caps: list, func: dict, imax: int) -> list[dict]:
    """The functional m -> func(c m) on packed monomials of weight up to
    imax (func's weight), c the total Chern class of ext_pairing_kexpr(q),
    split by weight: entry w, on weight-w monomials, is func cap c_(imax - w).
    caps holds each atom class a and its multiplicity (_bracket_plan; a
    unit plan's a are the c(V_v), whose product is that class against 1_b).

    Cap is a module action, so c is applied one atom at a time, all weights
    at once.  An atom of multiplicity m > 0 is capped m times.  For m < 0
    the functional z with z(a m') = y(m') is solved -m times from the top
    weight down: z(m') = y(m') - sum_{g != 1} a_g z(g m'), as a has
    constant term 1 and g m' lies above m'.
    """
    levels = [{} for _ in range(imax)] + [func]
    for mult, terms in caps:
        for _ in range(abs(mult)):
            out = [dict(level) for level in levels]
            # capping reads the input; solving reads the finished upper levels
            src, sign = (levels, 1) if mult > 0 else (out, -1)
            for w in range(imax, 0, -1):
                for gw, gs in terms.items() if src[w] else ():
                    if gw <= w:
                        _cap_into(out[w - gw], src[w], gs, sign)
            levels = out
    return levels


def state_field(u: HClass, v: HClass, powers: Iterable[int]) -> dict[int, HClass]:
    """Coefficients of the two-point expansion Y(u, z) v at the given powers.

    Both inputs must be one-factor classes on the same quiver.  The result
    maps each requested power p to a class of degree

        deg u + deg v + 2 p - 2 chi(a, b)

    on the stack of the sum; classes for powers that receive no
    contribution are zero classes of that degree.
    With caps[i] = (u x v) cap c_i, k = p - chi, i0 = max(0, -k) and
    n = k + i0, the coefficient at p is epsilon times the pushforward of the
    n-th divided translation of sum_{i >= i0} Dt^(i - i0) caps[i] n!/(k + i)!
    (Dt the transpose of D), that is of Dt^n applied to
    sum_{i >= i0} Dt^(i - i0) caps[i] (k + imax)!/(k + i)! (_horner), over
    (k + imax)!.  The caps come from _ext_cap_levels, atom by atom.  It all
    runs on int numerators, epsilon in the Horner coefficients, over the
    denominator den(u) den(v) (k + imax)!; what depends on the dimension
    vectors and imax alone comes from the plan of (q, a, b, imax).

    When v = x 1_b has degree 0 the same sum runs on the ring of a alone,
    from the unit plan of (q, a, b), one for every weight: u x v is x u, c
    is prod_v c(V_v)^n_v with n_v = chi(e_v, b) + chi(b, e_v), and the
    pushforward keeps each monomial, read in the ring of a + b.
    """
    if u.quiver != v.quiver:
        raise ValueError("classes on different quivers")
    if u.ring.factors() != 1 or v.ring.factors() != 1:
        raise ValueError("state_field needs one-factor classes")
    powers = sorted(set(int(p) for p in powers))
    q, imax = u.quiver, (u.degree + v.degree) // 2
    plan = _bracket_plan(q, u.ring.dims[0], v.ring.dims[0], None if v.degree == 0 else imax)
    ring, target, chi = plan.ring, plan.target, plan.chi
    out = {p: HClass._trusted(q, target, u.degree + v.degree + 2 * p - 2 * chi, {}) for p in powers}
    if u.is_zero() or v.is_zero():
        return out

    shift, pv = _FIELD_BITS * len(u.ring.generators()), v.num.items()
    uv = {s + (t << shift): x * y for s, x in u.num.items() for t, y in pv}
    levels = _ext_cap_levels(plan.caps, uv, imax)
    for p in powers:
        k = p - chi
        i0 = max(0, -k)
        if i0 > imax:
            continue
        top, eps = factorial(k + imax), plan.eps
        terms = [(eps * top // factorial(k + i), levels[imax - i]) for i in range(i0, imax + 1)]
        raised = _raise(ring, _horner(ring, terms), k + i0)
        out[p] = HClass._trusted(q, target, out[p].degree, plan.push(raised), u.den * v.den * top)
    return out


class PlClass:
    """Class on the rigidified moduli stack, stored as a representative.

    The representative is a class of the full stack; two representatives
    give the same rigidified class when their difference is a translation
    image.  Invariant classes of dimension vector d live in representative
    degree 2 - 2 euler_form(q, d, d).  A class is not changed after it is
    made, so canonical_coordinates stores its coordinates on it the first
    time they are asked for, and they live and die with the class.
    """

    __slots__ = ("rep", "_coordinates")

    def __init__(self, rep: HClass):
        if rep.ring.factors() != 1:
            raise ValueError("rigidified classes come from one-factor classes")
        self.rep = rep
        self._coordinates: tuple[Fraction, ...] | None = None

    @property
    def quiver(self) -> Quiver:
        return self.rep.quiver

    @property
    def dimvec(self) -> DimVector:
        return self.rep.ring.dims[0]

    @property
    def degree(self) -> int:
        return self.rep.degree

    def shifted_degree(self) -> int:
        d = self.dimvec
        return self.rep.degree - 2 + 2 * euler_form(self.rep.quiver, d, d)

    def scale(self, c) -> "PlClass":
        return PlClass(self.rep.scale(c))

    def __add__(self, other: "PlClass") -> "PlClass":
        return PlClass(self.rep + other.rep)

    def __sub__(self, other: "PlClass") -> "PlClass":
        return PlClass(self.rep - other.rep)

    def __repr__(self) -> str:
        return f"PlClass({self.rep!r})"


def zero_pl(quiver: Quiver, d: DimVector, degree: int) -> PlClass:
    return PlClass(zero_class(quiver, (d,), degree))


def unit_pl(quiver: Quiver, d: DimVector) -> PlClass:
    return PlClass(unit_class(quiver, d))


def is_translation_image(w: HClass) -> bool:
    """Whether w = divided_translation(x, 1) has a solution x, i.e. whether
    w o P = sum_j Dt^j (w cap (-cbar)^j / j!) vanishes (P from the module
    docstring, Dt the transpose of D).

    With L = sum_v c[0, v, 1] = |d| cbar, J = deg(w) / 2, C_0 the int
    numerators of w and C_j = C_(j-1) cap L, that sum times
    |d|^J J! is sum_j a_j Dt^j C_j with a_j = (-1)^j |d|^(J - j) J! / j!,
    all ints, summed Horner fashion and tested for emptiness.
    """
    if w.ring.factors() != 1:
        raise ValueError("translation image test works on one-factor classes")
    ring, top, n = w.ring, max(0, w.degree // 2), w.ring.dims[0].total()
    linear = [(delta, delta << _FIELD_BITS - 1, 1) for delta, lower, _, _ in ring._raising if not lower]  # L
    levels = [w.num]
    for _ in range(top):
        levels.append({})
        _cap_into(levels[-1], levels[-2], linear)
    acc = _horner(ring, [
        ((-1) ** j * n ** (top - j) * factorial(top) // factorial(j), level)
        for j, level in enumerate(levels)
    ])
    return not any(acc.values())


def pl_is_zero(x: PlClass) -> bool:
    return is_translation_image(x.rep)


def pl_equal(x: PlClass, y: PlClass) -> bool:
    """Equality in the rigidified homology: difference is a translation image."""
    if x.quiver != y.quiver or x.dimvec != y.dimvec:
        raise ValueError("rigidified classes on different stacks are not comparable")
    if x.degree != y.degree:
        return pl_is_zero(x) and pl_is_zero(y)
    return is_translation_image(x.rep - y.rep)


def _translation_rows(ring: ChernRing, weight: int) -> tuple[dict[int, int], list[dict]]:
    """(index, rows): the column (position in monomial_basis) of each packed
    monomial of the weight basis, and the rows of the matrix of D from it
    to the weight - 1 basis, keyed by column.  The row of each monomial m'
    of weight - 1 is its translation image _raise(ring, {m': 1}, 1); D has
    integer entries, so the rows hold ints, all of them positive."""
    index = {ring.pack(m): c for c, m in enumerate(monomial_basis(ring, weight))}
    return index, [
        {index[s]: x for s, x in _raise(ring, {ring.pack(m): 1}, 1).items()}
        for m in monomial_basis(ring, weight - 1)
    ]


def _translation_echelon(ring: ChernRing, weight: int) -> tuple:
    """Echelon form of the translation images at the given weight.

    Returns (index, steps, free): the column of each packed monomial of the
    weight basis, the pivot rows as (pivot column, {column: value}) in descending
    pivot order, each a primitive integer row supported at and below its
    pivot, and the free columns in ascending order.  The rows come from
    _translation_rows, and elimination is fraction free: a row meeting a
    pivot row is cross-multiplied with it.  The pivot of a row is its last
    column, the rule of weight_zero_basis, so the pivot set is the same;
    there is no back-substitution and no kernel basis.
    """
    index, rows = _translation_rows(ring, weight)
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            p = max(row)
            prow = pivots.get(p)
            if prow is None:
                g = gcd(*row.values())
                pivots[p] = {c: y // g for c, y in row.items()}
                break
            a, x = prow[p], row[p]
            g = gcd(a, x)
            a, x = a // g, x // g
            if a != 1:
                row = {c: a * y for c, y in row.items()}
            for c, y in prow.items():
                z = row.get(c, 0) - x * y
                if z:
                    row[c] = z
                else:
                    del row[c]
    free = [c for c in range(len(index)) if c not in pivots]
    return index, sorted(pivots.items(), reverse=True), free


def weight_zero_basis(ring: ChernRing, weight: int) -> tuple[dict[Monomial, Fraction], ...]:
    """Canonical basis of the weight-zero subspace in the given weight, each
    vector a {Monomial: Fraction} dict.

    Kernel of the translation derivation D on cohomology, presented in row
    reduced echelon form over the graded monomial order ('weight0-rref-
    gradedlex-v1').  Pairing with it gives the canonical coordinates on the
    rigidified homology: translation images pair to zero, and the pairing
    is perfect on the quotient.  canonical_coordinates reaches the same
    pairings by reduction, without this dense basis; the basis is kept as
    the reference the reduction is tested against, and nothing in the
    package calls it.

    One exact Gauss-Jordan elimination on the matrix of D (_translation_rows,
    shared with canonical_coordinates) taken with the columns in
    reverse graded order gives the basis directly: the kernel vector at a
    free column c is 1 at c and nonzero only at later pivot columns, so
    these vectors, sorted by c, are the graded-order rref of the kernel.
    """
    if ring.factors() != 1:
        raise ValueError("weight-zero basis is for one-factor rings")
    basis = monomial_basis(ring, weight)
    # Gauss-Jordan with the last column of each row as its pivot
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in _translation_rows(ring, weight)[1]:
        for p, prow in pivots.items():
            x = row.get(p)
            if x:
                for c, y in prow.items():
                    row[c] = row.get(c, 0) - x * y
        row = {c: x for c, x in row.items() if x}
        if not row:
            continue
        p = max(row)
        lead = row[p]
        row = {c: Fraction(x, lead) for c, x in row.items()}
        for prow in pivots.values():
            x = prow.get(p)
            if x:
                for c, y in row.items():
                    prow[c] = prow.get(c, 0) - x * y
                del prow[p]
        pivots[p] = row
    kernel: dict[int, dict[Monomial, Fraction]] = {
        c: {m: Fraction(1)} for c, m in enumerate(basis) if c not in pivots
    }
    for p, prow in pivots.items():
        for c, x in prow.items():
            if c != p and x:
                kernel[c][basis[p]] = -x
    return tuple(kernel[c] for c in sorted(kernel))


def canonical_coordinates(x: PlClass) -> list[Fraction]:
    """Pairings of the representative with the weight-zero basis, by reduction.

    The rows of D's matrix span the translation images, which pair to zero
    with the kernel of D; so subtracting them changes no pairing.  Reducing
    the representative by the echelon of _translation_echelon, pivots in
    descending order, leaves it supported on the free columns F_1 < F_2 < ...,
    and the weight_zero_basis vector at F_k is 1 there and 0 at the other
    free columns: the value at F_k is the k-th pairing.  The reduction
    holds one Fraction per entry and subtracts vec[p] / prow[p] times prow.

    The coordinates are computed on the first request and stored on x
    (classes of odd or negative degree have none); every call returns a
    fresh list.
    """
    if x._coordinates is None and x.degree >= 0 and x.degree % 2 == 0:
        index, steps, free = _translation_echelon(x.rep.ring, x.degree // 2)
        vec = {index[m]: Fraction(y, x.rep.den) for m, y in x.rep.num.items()}
        for p, prow in steps:
            y = vec.get(p)
            if y:
                y = y / prow[p]
                for c, r in prow.items():
                    vec[c] = vec.get(c, 0) - y * r
        x._coordinates = tuple(Fraction(vec.get(c, 0)) for c in free)
    return list(x._coordinates or ())


def lie_bracket(x: PlClass | HClass, y: PlClass | HClass) -> PlClass:
    """Bracket of rigidified classes: the p = -1 state-field coefficient."""
    u = x.rep if isinstance(x, PlClass) else x
    v = y.rep if isinstance(y, PlClass) else y
    return PlClass(state_field(u, v, (-1,))[-1])

