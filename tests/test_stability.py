from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quiverinv.quiver import CycleError, DimVector, Quiver, unit_vector
from quiverinv.stability import (
    fraction_str,
    framed_slope,
    is_increasing,
    parse_fraction,
    pullback_stability,
    reference_increasing_slope,
    slope_stability,
    trivial_stability,
)
from quiverinv.quiver import binarize_quiver, edge_deletion_morphism, frame_quiver, subvectors

from . import oracles

A2 = Quiver.from_json(oracles.a2_json())
K2 = Quiver.from_json(oracles.kronecker_json(2))
K3 = Quiver.from_json(oracles.kronecker_json(3))
T4 = Quiver.from_json(oracles.tree4_json())
C3 = Quiver.from_json(oracles.cyclic3_json())


def test_fraction_parsing():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-2") == Fraction(-2)
    assert parse_fraction(5) == Fraction(5)
    assert fraction_str(Fraction(-1, 3)) == "-1/3"
    assert fraction_str(Fraction(4, 2)) == "2"
    with pytest.raises(ValueError):
        parse_fraction("0.5 apples")
    with pytest.raises(ValueError):
        parse_fraction(0.5)  # floats are not exact input
    # only the forms fraction_str writes: no exponent (a short string would
    # stand for a huge integer), sign '+', spaces, '_' or decimal point
    for text in ("1e1000000", "1E3", "+1", " 2 ", "2\n", "1_000", "0.5", "1/-2", "", "/2", "1/"):
        with pytest.raises(ValueError):
            parse_fraction(text)
    with pytest.raises(ValueError):
        parse_fraction("1/0")
    assert parse_fraction("-6/4") == Fraction(-3, 2)


@given(st.fractions())
def test_fraction_strings_round_trip(x):
    assert parse_fraction(fraction_str(x)) == x


def test_slope_values():
    mu = slope_stability(A2, {"v": 1, "w": 0})
    assert mu.value(DimVector({"v": 1, "w": 1})) == Fraction(1, 2)
    assert mu.value(DimVector({"v": 2, "w": 1})) == Fraction(2, 3)
    with pytest.raises(ValueError):
        mu.value(DimVector({}))
    with pytest.raises(ValueError):
        slope_stability(A2, {"v": 1})  # missing vertex


small = st.integers(min_value=0, max_value=4)
vecs = st.fixed_dictionaries({"v": small, "w": small}).map(DimVector).filter(
    lambda d: not d.is_zero())


@given(vecs, vecs)
def test_slope_seesaw(d, e):
    # the value of a sum always lies weakly between the values of the parts
    mu = slope_stability(A2, {"v": 2, "w": -3})
    lo, hi = sorted([mu.value(d), mu.value(e)])
    assert lo <= mu.value(d + e) <= hi


def test_slope_repr_names_its_weights():
    # failure reports record repr(tau), so two slopes must print apart
    hi = slope_stability(A2, {"v": 1, "w": 0})
    lo = slope_stability(A2, {"v": 0, "w": "1/2"})
    assert repr(hi) == "SlopeStability({'v': '1', 'w': '0'})"
    assert repr(hi) != repr(lo)
    assert repr(trivial_stability()) == "WeakStability('trivial')"


def test_comparisons_and_same_value():
    mu = slope_stability(A2, {"v": 0, "w": 1})
    dv, dw = unit_vector("v"), unit_vector("w")
    assert mu.lt(dv, dw) and not mu.lt(dw, dv) and not mu.lt(dv, 3 * dv)
    assert oracles.leq(mu, dv, dw) and not oracles.leq(mu, dw, dv)
    assert oracles.same_value(mu, dv, 3 * dv)
    triv = trivial_stability()
    assert oracles.same_value(triv, dv, dw) and not triv.lt(dw, dv)
    assert oracles.leq(triv, dw, dv)


def test_is_increasing():
    assert is_increasing(A2, slope_stability(A2, {"v": 0, "w": 1}))
    assert not is_increasing(A2, slope_stability(A2, {"v": 1, "w": 0}))
    assert not is_increasing(A2, slope_stability(A2, {"v": 1, "w": 1}))
    loop = Quiver(["v"], [("e", "v", "v")])
    assert not is_increasing(loop, slope_stability(loop, {"v": 0}))


def test_reference_increasing_slope():
    for q in (A2, K2, T4):
        ref = reference_increasing_slope(q)
        assert is_increasing(q, ref)
    with pytest.raises(CycleError):
        reference_increasing_slope(C3)


def test_is_generic_pair():
    mu = slope_stability(K2, {"v": 1, "w": 0})
    assert oracles.is_generic_pair(mu, DimVector({"v": 1, "w": 1}))
    assert not oracles.is_generic_pair(mu, DimVector({"v": 2, "w": 0}))
    flat = slope_stability(K2, {"v": 1, "w": 1})
    assert not oracles.is_generic_pair(flat, DimVector({"v": 1, "w": 1}))


def test_dominates():
    classes = [DimVector({"v": a, "w": b}) for a in range(3) for b in range(3)
               if a + b > 0]
    fine = slope_stability(A2, {"v": 0, "w": 1})
    assert oracles.dominates(trivial_stability(), fine, classes)
    assert not oracles.dominates(slope_stability(A2, {"v": 1, "w": 0}), fine, classes)
    assert oracles.dominates(fine, fine, classes)


def test_pullback_stability():
    m = edge_deletion_morphism(K2, ["a0"])
    mu = slope_stability(m.target, {"v": 1, "w": 4})
    back = pullback_stability(m, mu)
    for d in (DimVector({"v": 1}), DimVector({"v": 2, "w": 1})):
        assert back.value(d) == mu.value(m.pushforward(d))


def test_pair_lex_ordering():
    framed, _ = frame_quiver(A2, {"v": 1, "w": 1})
    base = {"v": Fraction(0), "w": Fraction(1)}
    plus = oracles.pair_lex_stability(framed, base, +1)
    minus = oracles.pair_lex_stability(framed, base, -1)
    inf = unit_vector("inf")
    dv = unit_vector("v")
    mixed = dv + inf
    # the pure framing class is the extreme value in each direction
    assert plus.lt(dv, inf) and plus.lt(mixed, inf)
    assert minus.lt(inf, dv) and minus.lt(inf, mixed)
    # framed classes sit just above (below) unframed ones of the same slope
    assert plus.lt(dv, mixed)
    assert minus.lt(mixed, dv)
    # base ordering still decides across different slopes
    assert plus.lt(dv + inf, unit_vector("w") + inf)


def test_framed_slope_properties():
    d = DimVector({"v": 1, "w": 1})
    framed, _ = frame_quiver(A2, {"v": 1, "w": 1})
    mu = {"v": Fraction(1), "w": Fraction(0)}
    stab = framed_slope(framed, mu, d, +1)
    assert stab.epsilon > 0
    dtil = d + unit_vector("inf")
    # perturbed slope stays on the base for unframed classes
    base = slope_stability(A2, mu)
    assert stab.value(DimVector({"v": 1})) == base.value(DimVector({"v": 1}))
    # the framed total is strictly generic: no equal-slope split
    assert oracles.is_generic_pair(stab, dtil)
    # positive perturbation pushes the framed class above the base slope
    assert stab.value(dtil) > base.value(d)
    neg = framed_slope(framed, mu, d, -1)
    assert neg.value(d + unit_vector("inf")) < base.value(d)


def test_slope_values_match_the_oracle_and_refuse_bad_vectors():
    d = DimVector({"v": 3, "w": 3})
    mu_a = {"v": Fraction(2, 3), "w": -5}
    mu_b = {"v": 1, "w": Fraction(7, 2)}
    a, b = slope_stability(A2, mu_a), slope_stability(A2, mu_b)
    bad = [DimVector({}), DimVector({"v": -1, "w": 2}), DimVector({"w": -1})]
    for e in subvectors(d):
        assert a.value(e) == oracles.slope_value(mu_a, e)
        assert b.value(e) == oracles.slope_value(mu_b, e)
    for e in bad:
        for stab in (a, b):
            with pytest.raises(ValueError):
                stab.value(e)
    with pytest.raises(ValueError, match="no weight for vertex"):
        a.value(DimVector({"v": 1, "x": 1}))


def test_derived_slopes_match_the_oracle_and_frozen_epsilons():
    m = edge_deletion_morphism(K2, ["a0"])
    target_mu = {"v": Fraction(1, 3), "w": 4}
    back = pullback_stability(m, slope_stability(m.target, target_mu))
    for e in subvectors(DimVector({"v": 3, "w": 3})):
        assert back.value(e) == oracles.slope_value(target_mu, m.pushforward(e))
    F = Fraction
    # (quiver, framing, base slope, d, epsilon, frame weights for sign +1, -1)
    frozen = [
        (A2, {"v": 1, "w": 1}, {"v": 1, "w": 0}, (2, 1), F(1, 36), (F(25, 36), F(23, 36))),
        (K2, {"v": 1, "w": 2}, {"v": F(2, 3), "w": -1}, (2, 1), F(5, 108),
         (F(17, 108), F(7, 108))),
        (K2, {"v": 1, "w": 2}, {"v": 1, "w": 0}, (2, 2), F(1, 48), (F(25, 48), F(23, 48))),
        (K3, {"v": 1, "w": 1}, {"v": F(1, 2), "w": F(-3, 4)}, (3, 2), F(1, 120),
         (F(1, 120), F(-1, 120))),
        (K3, {"v": 1, "w": 2}, {"v": 0, "w": 1}, (1, 2), F(1, 36), (F(25, 36), F(23, 36))),
    ]
    for quiver, framing, mu, (a, b), eps, frame_weights in frozen:
        framed, _ = frame_quiver(quiver, framing)
        d = DimVector({"v": a, "w": b})
        for sign, frame_weight in zip((1, -1), frame_weights):
            stab = framed_slope(framed, mu, d, sign)
            assert stab.epsilon == eps
            assert stab.mu == {**mu, "inf": frame_weight}
            for e in subvectors(d + unit_vector("inf")):
                assert stab.value(e) == oracles.slope_value(stab.mu, e)


@pytest.mark.parametrize(
    "q, mu",
    [
        (K3, {"v": -3, "w": 5}),  # negative ints
        (K3, {"v": Fraction(-2, 3), "w": Fraction(5, 3)}),  # one denominator
        (T4, {"a": Fraction(7, 6), "b": -2, "c": Fraction(-3, 4), "d": Fraction(1, 10)}),  # mixed
        (T4, {"a": 1, "b": Fraction(1, 2), "c": 0, "d": Fraction(-1, 3)}),
    ],
)
def test_integer_slopes_match_the_fraction_oracle(q, mu):
    # the weights are stored as ints over one denominator; every value, and
    # the order ranks on the subvectors of d, must be those of the Fraction
    # formula, also for the slopes derived from the condition
    from quiverinv.invariants import _order_condition

    top = DimVector({v: 2 for v in q.vertices})
    framed, _ = frame_quiver(q, {v: 1 for v in q.vertices})
    _, collapse, ones = binarize_quiver(q, top)
    derived = [
        (slope_stability(q, mu), top, mu),
        *((framed_slope(framed, mu, top, s), top + unit_vector("inf"), None) for s in (1, -1)),
        (pullback_stability(collapse, slope_stability(q, mu)), ones, None),
    ]
    tied = 0
    for stab, d, weights in derived:
        weights = weights or stab.mu
        values = [oracles.slope_value(weights, e) for e in subvectors(d)]
        assert [stab.value(e) for e in subvectors(d)] == values
        assert _order_condition(stab, d) == oracles.order_ranks(values)
        tied += len(set(values)) < len(values)
    back = derived[-1][0]
    assert all(back.value(e) == oracles.slope_value(mu, collapse.pushforward(e)) for e in subvectors(ones))
    assert tied
