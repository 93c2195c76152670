"""Weak stability conditions on dimension vectors.

A weak stability condition assigns to every nonzero effective dimension
vector a value in some totally ordered set; only values of the same
condition are ever compared.  Two realizations are provided:

  * slope_stability: value(d) = sum_v mu_v d(v) / sum_v d(v), exact: the
    weights are stored once as ints over one common denominator, so a
    value is one Fraction of two int sums;
  * trivial_stability: all values equal (every vector semistable).

Conditions carry no key of their own: what is computed from a condition
depends only on the order of its values, and the invariants module reads
that order off the condition wherever it reuses a result.

framed_slope builds the perturbed slope on a framed quiver: the framing
vertex gets slope(d) +- epsilon, with epsilon half the least gap between the
unperturbed values, small enough that the perturbation orders framed
classes strictly whenever the base classes are ordered or tied.  The
property is checked exactly over all two-part decompositions of d.  This
makes the framed class (d, 1) generic: no strictly semistable objects, so
the framed moduli space is a projective scheme and its class is computable
by wall-crossing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Callable, Mapping

from .quiver import (
    DimVector,
    Quiver,
    QuiverMorphism,
    StructureError,
    shown,
    subvectors,
    unit_vector,
)


def parse_fraction(x: object) -> Fraction:
    """Exact rational from int, Fraction, or a string like '3/2' or '-1'
    (only what fraction_str writes, so no short string is a huge int)."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", x):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
            pass
    raise ValueError(f"not a rational number: {shown(x)}")


def fraction_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class WeakStability:
    """Total preorder on nonzero effective dimension vectors, given by
    value_fn; name only labels the condition in its repr."""

    def __init__(self, value_fn: Callable[[DimVector], object], name: str = ""):
        self._value_fn = value_fn
        self.name = name

    def value(self, d: DimVector):
        if d.is_zero():
            raise ValueError("stability value undefined on the zero vector")
        if not d.is_effective():
            raise ValueError(f"stability value needs an effective vector, got {shown(d)}")
        return self._value_fn(d)

    def lt(self, d: DimVector, e: DimVector) -> bool:
        return self.value(d) < self.value(e)

    def __repr__(self) -> str:
        return f"WeakStability({self.name!r})"


class SlopeStability(WeakStability):
    """Slope from per-vertex weights; value(d) = <mu, d> / |d| = <m, d> / (L |d|), mu = m / L."""

    def __init__(self, mu: Mapping[str, Fraction], epsilon: Fraction | None = None):
        self.mu: dict[str, Fraction] = {v: parse_fraction(x) for v, x in mu.items()}
        self.epsilon = epsilon  # set by framed_slope, None otherwise
        self._den = lcm(*(x.denominator for x in self.mu.values()))
        self._num = {v: x.numerator * (self._den // x.denominator) for v, x in self.mu.items()}
        super().__init__(self._slope, name="slope")

    def _slope(self, d: DimVector) -> Fraction:
        try:  # value() has validated d
            num = sum(self._num[v] * n for v, n in d.items())
        except KeyError as exc:
            raise ValueError(f"slope has no weight for vertex {shown(exc.args[0])}") from None
        return Fraction(num, self._den * d.total())

    def to_json(self) -> dict[str, str]:
        return {v: fraction_str(x) for v, x in sorted(self.mu.items())}

    def __repr__(self) -> str:
        return f"SlopeStability({self.to_json()!r})"


def slope_stability(q: Quiver, mu: Mapping[str, object]) -> SlopeStability:
    """Slope condition on q; mu must give a rational weight to every vertex."""
    weights = {}
    for v, x in mu.items():
        if not q.has_vertex(v):
            raise ValueError(f"slope mentions unknown vertex {shown(v)}")
        weights[v] = parse_fraction(x)
    missing = [v for v in q.vertices if v not in weights]
    if missing:
        raise ValueError(f"slope missing weights for vertices {shown(missing)}")
    return SlopeStability(weights)


def trivial_stability() -> WeakStability:
    """All nonzero vectors have equal value."""
    return WeakStability(lambda d: 0, name="trivial")


def reference_increasing_slope(q: Quiver) -> SlopeStability:
    """Canonical increasing slope: position in topological order.

    Raises StructureError when the quiver has an oriented cycle, since no
    increasing slope exists then.
    """
    order = q.topological_order()
    return SlopeStability({v: Fraction(i) for i, v in enumerate(order)})


def is_increasing(q: Quiver, stab: WeakStability) -> bool:
    """Whether values on unit vectors strictly increase along every edge."""
    for e in q.edges:
        if e.source == e.target:
            return False
        if not stab.lt(unit_vector(e.source), unit_vector(e.target)):
            return False
    return True


def pullback_stability(m: QuiverMorphism, stab: WeakStability) -> WeakStability:
    """Stability on the source with value(d) = stab(pushforward(d))."""
    if isinstance(stab, SlopeStability):
        return SlopeStability({v: stab.mu[m.vertex_map[v]] for v in m.source.vertices})
    return WeakStability(lambda d: stab.value(m.pushforward(d)), name=f"pullback of {stab.name}")


def framed_slope(
    framed: Quiver,
    base_mu: Mapping[str, object],
    d: DimVector,
    sign: int,
    frame_vertex: str = "inf",
) -> SlopeStability:
    """Perturbed slope on a framed quiver for the base class d.

    The framing vertex gets weight slope(d) + sign * epsilon with epsilon a
    positive rational small enough that for every two-part decomposition
    d = e + f the framed comparisons stay strict:

      * slope(e) < slope(f) forces (e,0) < (f,1) and (e,1) < (f,0);
      * slope(e) = slope(f) forces (e,0) < (f,1) for sign +1 and
        (e,1) < (f,0) for sign -1;
      * the purely framed class sits on the chosen side of slope(d).

    The chosen epsilon is exposed as .epsilon on the result.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not framed.has_vertex(frame_vertex):
        raise ValueError(f"no frame vertex {shown(frame_vertex)} in the quiver")
    if d.is_zero() or not d.is_effective():
        raise ValueError("framed slope needs a nonzero effective base class")
    if d[frame_vertex] != 0:
        raise ValueError("base class must not touch the frame vertex")
    base_vertices = [v for v in framed.vertices if v != frame_vertex]
    missing = [v for v in base_vertices if v not in base_mu]
    if missing:
        raise ValueError(f"slope missing weights for vertices {shown(missing)}")
    base = SlopeStability({v: base_mu[v] for v in base_vertices})
    mu_d = base.value(d)
    parts = [e for e in subvectors(d) if e != d]
    point = unit_vector(frame_vertex)

    def perturbed(eps: Fraction) -> SlopeStability:
        return SlopeStability({**base.mu, frame_vertex: mu_d + sign * eps}, epsilon=eps)

    # epsilon is half the least gap between distinct unperturbed values.  Each
    # comparison below sets an unframed value against a framed one, and both
    # come from that set; the framed one moves by sign * epsilon / (|g| + 1),
    # at most epsilon / 2, so a strict comparison stays strict, and a tie
    # (both values at slope(d)) goes the way of the sign.  The first epsilon
    # is therefore admissible, and the check is a certificate.
    flat = perturbed(Fraction(0))
    values = sorted({mu_d, *map(flat.value, parts), *(flat.value(g + point) for g in parts)})
    gaps = [b - a for a, b in zip(values, values[1:])]
    stab = perturbed(min(gaps) / 2 if gaps else Fraction(1, 2))

    def admissible(e: DimVector) -> bool:
        f = d - e
        se, sf = base.value(e), base.value(f)
        if se > sf:
            return True
        framed_f_above = se < stab.value(f + point)  # (e,0) < (f,1)
        framed_e_below = stab.value(e + point) < sf  # (e,1) < (f,0)
        if se < sf:
            return framed_f_above and framed_e_below
        return framed_f_above if sign > 0 else framed_e_below

    if sign * (stab.value(point) - mu_d) <= 0 or not all(map(admissible, parts)):
        raise StructureError("no admissible framed perturbation found")
    return stab
