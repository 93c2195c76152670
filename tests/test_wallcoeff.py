import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from quiverinv.quiver import DimVector, Quiver, frame_quiver, unit_vector
from quiverinv.stability import (
    WeakStability,
    dominates,
    pair_lex_stability,
    slope_stability,
    trivial_stability,
)
from quiverinv.wallcoeff import (
    LieElementError,
    dynkin_word,
    is_lie_element,
    lie_normalize,
    s_coeff,
    theta,
    u_coeff,
    word_sum,
)

from . import oracles

A2 = Quiver.from_json(oracles.a2_json())
K3 = Quiver.from_json(oracles.kronecker_json(3))
DV, DW = unit_vector("v"), unit_vector("w")

LO = slope_stability(A2, {"v": 0, "w": 1})  # increasing along the arrow
HI = slope_stability(A2, {"v": 1, "w": 0})


def _units(key):
    return tuple(unit_vector(v) for v in key)


def test_s_frozen_values():
    for key, val in oracles.S_LO_TO_HI.items():
        assert s_coeff(_units(key), LO, HI) == val
    assert s_coeff((DV,), LO, HI) == 1
    assert s_coeff((DV,), HI, LO) == 1
    # same ordering on both sides: neither descent nor strict ascent applies
    assert s_coeff((DV, DW), LO, LO) == 0
    with pytest.raises(ValueError):
        s_coeff((), LO, HI)


def test_u_frozen_values():
    for key, val in oracles.U_LO_TO_HI.items():
        assert u_coeff(_units(key), LO, HI) == val
    for key, val in oracles.U_HI_TO_LO.items():
        assert u_coeff(_units(key), HI, LO) == val


def _small_tuples(q, max_len, max_total):
    units = [unit_vector(v) for v in q.vertices]
    pool = units + [a + b for a in units for b in units]
    for n in range(1, max_len + 1):
        for tup in itertools.product(pool, repeat=n):
            if sum(x.total() for x in tup) <= max_total:
                yield tup


def test_u_normalization_same_condition():
    # single letter keeps coefficient 1, longer tuples drop to 0
    for stab in (LO, HI, trivial_stability()):
        for tup in _small_tuples(A2, 3, 5):
            want = Fraction(1 if len(tup) == 1 else 0)
            assert u_coeff(tup, stab, stab) == want


def _blocks(n, m):
    for inner in itertools.combinations(range(1, n), m - 1):
        yield (0,) + inner + (n,)


def composed_u(alphas, tau, tauhat, tautilde):
    """Composition of transforms through an intermediate condition."""
    alphas = tuple(alphas)
    n = len(alphas)
    total = Fraction(0)
    for m in range(1, n + 1):
        for a in _blocks(n, m):
            sums = []
            inner = Fraction(1)
            for i in range(m):
                block = alphas[a[i] : a[i + 1]]
                inner *= u_coeff(block, tau, tauhat)
                if not inner:
                    break
                s = block[0]
                for x in block[1:]:
                    s = s + x
                sums.append(s)
            if not inner:
                continue
            total += inner * u_coeff(tuple(sums), tauhat, tautilde)
    return total


def test_u_composition_through_middle_condition():
    mid = slope_stability(A2, {"v": 1, "w": 1})
    for tup in _small_tuples(A2, 3, 4):
        assert composed_u(tup, LO, mid, HI) == u_coeff(tup, LO, HI)
        assert composed_u(tup, HI, mid, LO) == u_coeff(tup, HI, LO)


def test_u_composition_three_vertex():
    # random-ish slope triples on a three-vertex quiver, tuples of units
    t4 = Quiver.from_json(oracles.tree4_json())
    mus = [
        {"a": 0, "b": 1, "c": 2, "d": 3},
        {"a": 3, "b": 1, "c": 0, "d": 2},
        {"a": 1, "b": 1, "c": 2, "d": 0},
    ]
    stabs = [slope_stability(t4, mu) for mu in mus]
    units = [unit_vector(v) for v in ("a", "b", "c")]
    for tup in itertools.product(units, repeat=3):
        assert composed_u(tup, stabs[0], stabs[1], stabs[2]) == u_coeff(
            tup, stabs[0], stabs[2]
        )


def test_u_vanishing_under_domination():
    # coarse condition only separates the maximal-slope classes
    coarse = WeakStability(
        lambda d: 0 if LO.value(d) < 1 else 1, ("test-coarse",), name="coarse"
    )
    for tup in _small_tuples(A2, 3, 4):
        sums = set()
        for n in range(1, len(tup) + 1):
            for comb in itertools.combinations(range(len(tup)), n):
                s = tup[comb[0]]
                for i in comb[1:]:
                    s = s + tup[i]
                sums.add(s)
        assert dominates(coarse, LO, sums)
        values = {coarse.value(x) for x in tup}
        if len(values) > 1:
            assert u_coeff(tup, LO, coarse) == 0
            assert u_coeff(tup, coarse, LO) == 0


def test_u_memo_not_shared_through_caller_tokens():
    # two conditions with one caller-chosen token but different values
    a = WeakStability(HI.value, ("mine",))
    b = WeakStability(trivial_stability().value, ("mine",))
    tup = (DV, DW)
    assert u_coeff(tup, LO, a) == u_coeff(tup, LO, HI) == -1
    assert u_coeff(tup, LO, b) == u_coeff(tup, LO, trivial_stability()) == Fraction(-1, 2)


def test_order_isomorphic_conditions_agree():
    # doubling every weight rescales all values monotonically
    lo2 = slope_stability(A2, {"v": 0, "w": 2})
    hi2 = slope_stability(A2, {"v": 2, "w": 0})
    for tup in _small_tuples(A2, 3, 4):
        assert s_coeff(tup, LO, HI) == s_coeff(tup, lo2, hi2)
        assert u_coeff(tup, LO, HI) == u_coeff(tup, lo2, hi2)


def test_dynkin_word_small():
    assert dynkin_word(("x",)) == {("x",): 1}
    assert dynkin_word(("x", "y")) == {("x", "y"): 1, ("y", "x"): -1}
    xyz = dynkin_word(("x", "y", "z"))
    assert xyz == {
        ("x", "y", "z"): 1,
        ("y", "x", "z"): -1,
        ("z", "x", "y"): -1,
        ("z", "y", "x"): 1,
    }


letters = st.sampled_from(["x", "y", "z"])
words = st.lists(letters, min_size=1, max_size=4).map(tuple)


@given(words)
def test_dynkin_words_are_lie_elements(w):
    ws = dynkin_word(w)
    assert is_lie_element(ws)
    assert theta(ws) == {k: len(w) * c for k, c in ws.items()}


def test_plain_word_is_not_lie():
    assert not is_lie_element({("x", "y"): Fraction(1)})
    with pytest.raises(LieElementError):
        lie_normalize({("x", "y"): Fraction(1)})


def test_lie_normalize_round_trip():
    ws = word_sum(
        list(dynkin_word(("x", "y", "z")).items())
        + [(w, 2 * c) for w, c in dynkin_word(("y", "x")).items()]
    )
    out = lie_normalize(ws)
    expanded: dict = {}
    for lw in out:
        for w2, c2 in dynkin_word(lw.letters).items():
            expanded[w2] = expanded.get(w2, Fraction(0)) + lw.coefficient * c2
    expanded = {w: c for w, c in expanded.items() if c}
    assert expanded == ws
    # mixed lengths are normalized per length component
    assert {len(lw.letters) for lw in out} == {2, 3}


def test_framed_crossing_coefficients():
    framed, _ = frame_quiver(A2, {"v": 1})
    mu = {"v": 0, "w": 1}
    below = pair_lex_stability(framed, mu, -1)
    above = pair_lex_stability(framed, mu, +1)
    dinf = unit_vector("inf")
    for base_letter in (DV, 2 * DV, DW):
        for n in range(1, 5):
            for k in range(1, n + 2):
                tup = (base_letter,) * (k - 1) + (dinf,) + (base_letter,) * (n + 1 - k)
                assert u_coeff(tup, below, above) == oracles.framed_u_oracle(n, k)
    # mixed letters of one slope still follow the closed form
    assert u_coeff((2 * DV, dinf, DV), below, above) == oracles.framed_u_oracle(2, 2)
    # letters of different slopes kill the coefficient
    for tup in [(DV, dinf, DW), (dinf, DV, DW), (DW, dinf, DV), (DW, DV, dinf)]:
        assert u_coeff(tup, below, above) == 0


def test_framed_crossing_matches_bracket_expansion():
    # the u-weighted word sum over framing positions equals the expansion
    # of (-1)^n/n! times the left-nested bracket led by the framing unit
    framed, _ = frame_quiver(A2, {"v": 1})
    below = pair_lex_stability(framed, {"v": 0, "w": 1}, -1)
    above = pair_lex_stability(framed, {"v": 0, "w": 1}, +1)
    dinf = unit_vector("inf")
    for n in range(1, 6):
        want = {
            w: Fraction((-1) ** n, factorial(n)) * c
            for w, c in dynkin_word(("I",) + ("x",) * n).items()
        }
        got: dict = {}
        for k in range(1, n + 2):
            tup = (DV,) * (k - 1) + (dinf,) + (DV,) * (n + 1 - k)
            c = u_coeff(tup, below, above)
            if c:
                word = tuple("I" if x == dinf else "x" for x in tup)
                got[word] = got.get(word, Fraction(0)) + c
        assert got == {w: c for w, c in want.items() if c}
        assert is_lie_element(got)
