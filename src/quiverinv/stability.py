"""Weak stability conditions on dimension vectors.

A weak stability condition assigns to every nonzero effective dimension
vector a value in some totally ordered set; only values of the same
condition are ever compared.  Three realizations are provided:

  * slope_stability: value(d) = sum_v mu_v d(v) / sum_v d(v), exact Fraction
    arithmetic throughout; each instance memoizes its values by vector,
    storing only vectors that value() has accepted;
  * trivial_stability: all values equal (every vector semistable);
  * pair_lex_stability: lexicographic pairs with formal +-infinity endpoints
    on a framed quiver, used to compare framed-vector orderings against
    honest perturbed slopes.

Each condition carries a hashable token.  Only the tokens of
SlopeStability and trivial_stability() are bound to follow from the
condition's data, so equal tokens there mean equal conditions
(token_is_faithful), and the u_coeff memo and the invariant disk cache key
on those alone.  A token passed to WeakStability is the caller's choice:
two conditions with different value functions may share one, and
conditions with equal value functions may have different ones.

framed_slope builds the perturbed slope on a framed quiver: the framing
vertex gets slope(d) +- epsilon with epsilon > 0 small enough that the
perturbation orders framed classes strictly whenever the base classes are
ordered or tied, property checked exactly over all two-part decompositions
of d.  This makes the framed class (d, 1) generic: no strictly semistable
objects, so the framed moduli space is a projective scheme and its class
is computable by wall-crossing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .quiver import (
    DimVector,
    Quiver,
    QuiverMorphism,
    StructureError,
    subvectors,
    unit_vector,
)


def parse_fraction(x: object) -> Fraction:
    """Exact rational from int, Fraction, or a string like '3/2' or '-1'."""
    if isinstance(x, bool):
        raise ValueError(f"not a rational number: {x!r}")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational number: {x!r}") from exc
    raise ValueError(f"not a rational number: {x!r}")


def fraction_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class WeakStability:
    """Total preorder on nonzero effective dimension vectors."""

    def __init__(self, value_fn: Callable[[DimVector], object], token: tuple, name: str = ""):
        self._value_fn = value_fn
        self.token = token
        self.name = name

    def value(self, d: DimVector):
        if d.is_zero():
            raise ValueError("stability value undefined on the zero vector")
        if not d.is_effective():
            raise ValueError(f"stability value needs an effective vector, got {d!r}")
        return self._value_fn(d)

    def leq(self, d: DimVector, e: DimVector) -> bool:
        return self.value(d) <= self.value(e)

    def lt(self, d: DimVector, e: DimVector) -> bool:
        return self.value(d) < self.value(e)

    def same_value(self, d: DimVector, e: DimVector) -> bool:
        return self.value(d) == self.value(e)

    def __repr__(self) -> str:
        return f"WeakStability({self.name or self.token!r})"


class SlopeStability(WeakStability):
    """Slope from per-vertex weights; value(d) = <mu, d> / |d|."""

    def __init__(self, mu: Mapping[str, Fraction], epsilon: Fraction | None = None):
        self.mu: dict[str, Fraction] = {v: parse_fraction(x) for v, x in mu.items()}
        self.epsilon = epsilon  # set by framed_slope, None otherwise
        self._memo: dict[DimVector, Fraction] = {}
        token = ("slope",) + tuple(sorted((v, fraction_str(x)) for v, x in self.mu.items()))
        super().__init__(self._slope, token, name="slope")

    def _slope(self, d: DimVector) -> Fraction:
        # value() has validated d; mu is never changed after construction
        s = self._memo.get(d)
        if s is None:
            num = Fraction(0)
            for v, n in d.items():
                if v not in self.mu:
                    raise ValueError(f"slope has no weight for vertex {v!r}")
                num += self.mu[v] * n
            s = self._memo[d] = num / d.total()
        return s

    def to_json(self) -> dict[str, str]:
        return {v: fraction_str(x) for v, x in sorted(self.mu.items())}


def slope_stability(q: Quiver, mu: Mapping[str, object]) -> SlopeStability:
    """Slope condition on q; mu must give a rational weight to every vertex."""
    weights = {}
    for v, x in mu.items():
        if not q.has_vertex(v):
            raise ValueError(f"slope mentions unknown vertex {v!r}")
        weights[v] = parse_fraction(x)
    missing = [v for v in q.vertices if v not in weights]
    if missing:
        raise ValueError(f"slope missing weights for vertices {missing}")
    return SlopeStability(weights)


_TRIVIAL = WeakStability(lambda d: 0, ("trivial",), name="trivial")


def trivial_stability() -> WeakStability:
    """All nonzero vectors have equal value."""
    return _TRIVIAL


def token_is_faithful(stab: WeakStability) -> bool:
    """Whether equal tokens imply equal conditions, so results may be
    stored under the token."""
    return isinstance(stab, SlopeStability) or stab is _TRIVIAL


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


def is_generic_pair(stab: WeakStability, d: DimVector) -> bool:
    """No two-part decomposition of d into vectors of equal value."""
    if d.is_zero() or not d.is_effective():
        raise ValueError("genericity check needs a nonzero effective vector")
    for e in subvectors(d):
        f = d - e
        if f.is_zero():
            continue
        if stab.same_value(e, f):
            return False
    return True


def dominates(
    coarse: WeakStability, fine: WeakStability, classes: Iterable[DimVector]
) -> bool:
    """Whether fine(a) <= fine(b) implies coarse(a) <= coarse(b) on all pairs
    from the finite set of classes."""
    cs = list(classes)
    for a in cs:
        for b in cs:
            if fine.leq(a, b) and not coarse.leq(a, b):
                return False
    return True


def pullback_stability(m: QuiverMorphism, stab: WeakStability) -> WeakStability:
    """Stability on the source with value(d) = stab(pushforward(d))."""
    if isinstance(stab, SlopeStability):
        return SlopeStability({v: stab.mu[m.vertex_map[v]] for v in m.source.vertices})
    return WeakStability(
        lambda d: stab.value(m.pushforward(d)),
        ("pullback", stab.token, m.key()),
        name=f"pullback of {stab.name}",
    )


def pair_lex_stability(
    framed: Quiver,
    base_mu: Mapping[str, object],
    sign: int,
    frame_vertex: str = "inf",
) -> WeakStability:
    """Lexicographic framed stability with formal infinity endpoints.

    A framed class splits as (base part, n) with n the framing multiplicity.
    Values order as rank-tagged tuples: (0, slope(base), s) with the tie
    breaker s = 0 for n = 0 and s = sign for n > 0, and purely framed
    classes get the absolute endpoint (sign,), i.e. plus or minus infinity.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not framed.has_vertex(frame_vertex):
        raise ValueError(f"no frame vertex {frame_vertex!r} in the quiver")
    base_vertices = [v for v in framed.vertices if v != frame_vertex]
    missing = [v for v in base_vertices if v not in base_mu]
    if missing:
        raise ValueError(f"slope missing weights for vertices {missing}")
    weights = {v: parse_fraction(base_mu[v]) for v in base_vertices}

    def value(d: DimVector):
        n = d[frame_vertex]
        base = d.restrict(base_vertices)
        if base.is_zero():
            return (sign,)
        s = sum((weights[v] * k for v, k in base.items()), Fraction(0)) / base.total()
        return (0, s, 0 if n == 0 else sign)

    token = ("pairlex", sign, frame_vertex) + tuple(
        sorted((v, fraction_str(x)) for v, x in weights.items())
    )
    return WeakStability(value, token, name=f"pairlex{'+' if sign > 0 else '-'}")


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
        raise ValueError(f"no frame vertex {frame_vertex!r} in the quiver")
    if d.is_zero() or not d.is_effective():
        raise ValueError("framed slope needs a nonzero effective base class")
    if d[frame_vertex] != 0:
        raise ValueError("base class must not touch the frame vertex")
    base_vertices = [v for v in framed.vertices if v != frame_vertex]
    missing = [v for v in base_vertices if v not in base_mu]
    if missing:
        raise ValueError(f"slope missing weights for vertices {missing}")
    weights = {v: parse_fraction(base_mu[v]) for v in base_vertices}

    def base_slope(e: DimVector) -> Fraction:
        return sum((weights[v] * k for v, k in e.items()), Fraction(0)) / e.total()

    mu_d = base_slope(d)
    pairs = []
    for e in subvectors(d):
        f = d - e
        if f.is_zero():
            continue
        pairs.append((e, f))

    def framed_value(e: DimVector, n: int, eps: Fraction) -> Fraction:
        num = sum((weights[v] * k for v, k in e.items()), Fraction(0))
        num += n * (mu_d + sign * eps)
        return num / (e.total() + n)

    # initial scale: half the least positive gap among the unperturbed
    # comparison values; any positive start works, this one rarely halves
    values = {mu_d}
    for e, f in pairs:
        for g in (e, f):
            values.add(base_slope(g))
            values.add(framed_value(g, 1, Fraction(0)))
    ordered = sorted(values)
    gaps = [b - a for a, b in zip(ordered, ordered[1:]) if b > a]
    eps = min(gaps) / 2 if gaps else Fraction(1, 2)

    def ok(eps: Fraction) -> bool:
        if sign * (framed_value(DimVector(), 1, eps) - mu_d) <= 0:
            return False
        for e, f in pairs:
            se, sf = base_slope(e), base_slope(f)
            if se < sf:
                if not (
                    framed_value(e, 0, eps) < framed_value(f, 1, eps)
                    and framed_value(e, 1, eps) < framed_value(f, 0, eps)
                ):
                    return False
            elif se == sf:
                if sign > 0 and not framed_value(e, 0, eps) < framed_value(f, 1, eps):
                    return False
                if sign < 0 and not framed_value(e, 1, eps) < framed_value(f, 0, eps):
                    return False
        return True

    for _ in range(200):
        if ok(eps):
            break
        eps /= 2
    else:
        raise StructureError("no admissible framed perturbation found")

    weights[frame_vertex] = mu_d + sign * eps
    return SlopeStability(weights, epsilon=eps)
