import itertools
import math
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from quiverinv.quiver import DimVector, Quiver, frame_quiver, unit_vector
from quiverinv.stability import (
    WeakStability,
    slope_stability,
    trivial_stability,
)
from quiverinv import wallcoeff
from quiverinv.wallcoeff import (
    LieElementError,
    dynkin_word,
    lie_normalize,
    s_coeff,
    u_coeff,
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
    coarse = WeakStability(lambda d: 0 if LO.value(d) < 1 else 1, name="coarse")
    for tup in _small_tuples(A2, 3, 4):
        sums = set()
        for n in range(1, len(tup) + 1):
            for comb in itertools.combinations(range(len(tup)), n):
                s = tup[comb[0]]
                for i in comb[1:]:
                    s = s + tup[i]
                sums.add(s)
        assert oracles.dominates(coarse, LO, sums)
        values = {coarse.value(x) for x in tup}
        if len(values) > 1:
            assert u_coeff(tup, LO, coarse) == 0
            assert u_coeff(tup, coarse, LO) == 0


def test_u_memo_not_shared_through_caller_tokens():
    # two conditions with one name but different values
    a = WeakStability(HI.value, name="mine")
    b = WeakStability(trivial_stability().value, name="mine")
    tup = (DV, DW)
    assert u_coeff(tup, LO, a) == u_coeff(tup, LO, HI) == -1
    assert u_coeff(tup, LO, b) == u_coeff(tup, LO, trivial_stability()) == Fraction(-1, 2)


A3 = Quiver.from_json({"vertices": ["a", "b", "c"], "edges": [
    {"id": "e1", "from": "a", "to": "b"},
    {"id": "e2", "from": "a", "to": "b"},
    {"id": "e3", "from": "b", "to": "c"},
]})


def _letter_pool(q):
    units = [unit_vector(v) for v in q.vertices]
    return units + [2 * x for x in units] + [a + b for a, b in itertools.combinations(units, 2)]


def _oracle_cases():
    """(label, from, to, letter pool) covering slope ties, the trivial
    condition, tuple values and hand-built conditions."""
    rng = random.Random(20201)
    for name, q in (("A2", A2), ("K3", K3), ("A3", A3)):
        pool = _letter_pool(q)
        for k in range(4):
            # weights in -1..1 make equal values among letters and sums common
            lo, hi = (slope_stability(q, {v: rng.randint(-1, 1) for v in q.vertices})
                      for _ in range(2))
            yield f"{name} slopes {k}", lo, hi, pool
            yield f"{name} slope to trivial {k}", lo, trivial_stability(), pool
            yield f"{name} trivial to slope {k}", trivial_stability(), hi, pool
        coarse = WeakStability(lambda d, s=hi: 2 * s.value(d) // 1, name="mine")
        by_size = WeakStability(lambda d: d.total() % 3, name="mine")
        yield f"{name} hand-built", coarse, by_size, pool
        yield f"{name} hand-built to slope", by_size, hi, pool
    framed, _ = frame_quiver(A2, {"v": 1, "w": 1})
    pool = _letter_pool(framed)
    for sign in (1, -1):
        yield (f"pairlex {sign}", oracles.pair_lex_stability(framed, {"v": 0, "w": 1}, sign),
               oracles.pair_lex_stability(framed, {"v": 0, "w": 1}, -sign), pool)


def test_coefficients_match_enumeration_oracle():
    rng = random.Random(77)
    seen_u, seen_s = set(), set()
    for label, frm, to, pool in _oracle_cases():
        for _ in range(30):
            tup = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
            want_u = oracles.u_coeff_oracle(tup, frm, to)
            assert u_coeff(tup, frm, to) == want_u, (label, tup)
            want_s = oracles.s_coeff_oracle(tup, frm, to)
            assert s_coeff(tup, frm, to) == want_s, (label, tup)
            seen_u.add(want_u != 0)
            seen_s.add(want_s)
    assert seen_u == {True, False} and seen_s == {-1, 0, 1}


class _CountingStability(WeakStability):
    """Condition that counts its value() calls."""

    def __init__(self, value_fn):
        super().__init__(value_fn, name="counting")
        self.calls = 0

    def value(self, d):
        self.calls += 1
        return super().value(d)


def test_each_interval_value_computed_once():
    # u_coeff keeps no memo: every call builds its tables
    rng = random.Random(5)
    pool = _letter_pool(K3)
    for n in range(1, 7):
        for _ in range(5):
            tup = tuple(rng.choice(pool) for _ in range(n))
            frm = _CountingStability(LO.value)
            to = _CountingStability(trivial_stability().value)
            u_coeff(tup, frm, to)
            assert frm.calls <= n * (n + 1) // 2
            assert to.calls <= n * (n + 1) // 2


def test_zero_and_non_effective_letters_rejected():
    for tup in [(DimVector(),), (DV, DimVector()), (DimVector(), DW, DV), (DV, DW - DV)]:
        with pytest.raises(ValueError):
            u_coeff(tup, LO, HI)
        with pytest.raises(ValueError):
            s_coeff(tup, LO, HI)


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
    assert oracles.is_lie_element(ws)
    assert oracles.theta(ws) == {k: len(w) * c for k, c in ws.items()}


def test_plain_word_is_not_lie():
    assert not oracles.is_lie_element({("x", "y"): Fraction(1)})
    with pytest.raises(LieElementError):
        lie_normalize({("x", "y"): Fraction(1)})


def _moebius(n):
    result, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return result


def _witt_dimension(mults):
    """Dimension of the part of the free Lie algebra with these letter
    multiplicities: (1/n) sum over d | gcd of mu(d) (n/d)! / prod (m/d)!."""
    n = sum(mults)
    total = 0
    for d in range(1, math.gcd(*mults) + 1):
        if all(m % d == 0 for m in mults):
            mu = _moebius(d)
            multinomial = factorial(n // d)
            for m in mults:
                multinomial //= factorial(m // d)
            total += mu * multinomial
    assert total % n == 0
    return total // n


def test_left_nested_basis_has_witt_dimension():
    sizes = {}
    for a in range(9):
        for b in range(9 - a):
            if a + b:
                kept = oracles.left_nested_basis((DV,) * a + (DW,) * b)
                sizes[(a, b)] = len(kept)
                assert len(kept) == _witt_dimension([m for m in (a, b) if m]), (a, b)
    assert sizes[(4, 4)] == 8 and sizes[(3, 3)] == 3 and sizes[(2, 0)] == 0
    for n in range(1, 6):
        letters = [unit_vector(v) + DV for v in "abcde"[:n]]
        assert len(oracles.left_nested_basis(letters)) == factorial(n - 1)


def _writes(lie_words, ws):
    """The bracket words expand to ws, as the Fraction solve's do."""
    solved = oracles.lie_normalize_oracle(ws)
    return oracles.expand_lie_words(lie_words) == ws == oracles.expand_lie_words(solved)


def test_lie_normalize_keeps_the_words_led_by_the_largest_letter():
    # a combination of all 10 left-nested brackets of (v, v, w, w, w) comes
    # back as its words that begin with w but not with w, w, each divided
    # by the 3 w's, where the elimination keeps Witt's 2 basis brackets
    perms = sorted(set(itertools.permutations("vvwww")))
    ws = oracles.theta({perm: Fraction(k + 1) for k, perm in enumerate(perms)})
    out = lie_normalize(ws)
    assert out == [
        wallcoeff.LieWord(w, ws[w] / 3) for w in sorted(ws) if w[0] == "w" and w[1] == "v"
    ]
    assert len(out) > len(oracles.left_nested_basis("vvwww")) == 2
    assert _writes(out, ws)


@pytest.mark.parametrize("ws", [
    {("x", "y"): Fraction(1)},
    {("x", "y"): Fraction(1), ("y", "x"): Fraction(1)},
    {**dynkin_word(("x", "y", "z")), ("x", "y", "z"): Fraction(2)},
    {**dynkin_word(("x", "y")), ("x", "x", "y"): Fraction(1)},
    {w: Fraction(c, 1 + (w[0] == "y")) for w, c in dynkin_word(("x", "y", "x", "y")).items()},
], ids=["word", "symmetric", "perturbed", "mixed-length", "rescaled"])
def test_non_lie_input_raises(ws):
    assert not oracles.is_lie_element(ws)
    for normalize in (lie_normalize, oracles.lie_normalize_oracle):
        with pytest.raises(LieElementError):
            normalize(ws)


def _random_lie_element(rng, alphabet):
    """A random Fraction combination of the expansions of random words."""
    pairs = []
    for _ in range(rng.randint(1, 4)):
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        pairs += [(k, c * y) for k, y in dynkin_word(w).items()]
    return oracles.word_sum(pairs)


@pytest.mark.parametrize("alphabet", [("x", "y", "z"), (DV, DW, DV + DW, 2 * DV)])
def test_lie_normalize_matches_fraction_elimination(alphabet):
    # the closed form and the Fraction solve in a left-nested basis write
    # the same word sum, and both refuse a non-Lie perturbation of it
    rng = random.Random(2024)
    nonempty = refused = 0
    for _ in range(150):
        ws = _random_lie_element(rng, alphabet)
        got = lie_normalize(ws)
        assert _writes(got, ws)
        nonempty += bool(got)
        if not ws:
            continue
        bad = oracles.word_sum(list(ws.items()) + [(rng.choice(sorted(ws, key=repr)), Fraction(1, 3))])
        if not oracles.is_lie_element(bad):
            refused += 1
            for normalize in (lie_normalize, oracles.lie_normalize_oracle):
                with pytest.raises(LieElementError):
                    normalize(bad)
    assert nonempty > 100 and refused > 50


def _random_bracketing(rng, letters):
    """The word expansion of a random bracketing of the letters, in order."""
    if len(letters) == 1:
        return {letters: Fraction(1)}
    cut = rng.randint(1, len(letters) - 1)
    x, y = _random_bracketing(rng, letters[:cut]), _random_bracketing(rng, letters[cut:])
    return oracles.word_sum(
        pair for u, a in x.items() for v, b in y.items() for pair in ((u + v, a * b), (v + u, -a * b))
    )


def test_lie_normalize_on_random_bracketings():
    # arbitrary bracketings over 2 to 4 letters, of length 2 to 8, not only the
    # left-nested ones: the output expands back to the input and to the
    # Fraction solve's, and holds exactly the words that begin with their
    # largest letter once; a non-Lie perturbation is refused
    rng = random.Random(28)
    checked = 0
    for _ in range(60):
        alphabet = [(DV, DW, DV + DW, 2 * DV)[i] for i in range(rng.randint(2, 4))]
        terms = [
            (Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 6)),
             _random_bracketing(rng, tuple(rng.choices(alphabet, k=rng.randint(2, 8)))))
            for _ in range(rng.randint(1, 3))
        ]
        ws = oracles.word_sum((w, x * c) for x, p in terms for w, c in p.items())
        assert oracles.is_lie_element(ws)
        out = lie_normalize(ws)
        assert _writes(out, ws)
        top = {w: max(w, key=wallcoeff._letter_key) for w in ws}
        assert {lw.letters for lw in out} == {w for w, a in top.items() if w[0] == a and w[1:2] != (a,)}
        long = sorted((w for w in ws if len(w) > 1), key=repr)
        if long:  # a word of length 2 or more is no Lie element
            checked += 1
            bad = oracles.word_sum(list(ws.items()) + [(rng.choice(long), Fraction(1, 2))])
            assert not oracles.is_lie_element(bad)
            with pytest.raises(LieElementError):
                lie_normalize(bad)
    assert checked > 20


def test_lie_normalize_needs_no_dynkin_check():
    # the expansion check is the certificate: the package carries no theta
    # at all, and its answer writes the same sum as the Fraction solve's
    assert not hasattr(wallcoeff, "theta")
    ws = oracles.word_sum(
        list(dynkin_word(("x", "y", "x", "z")).items())
        + [(w, 3 * c) for w, c in dynkin_word(("y", "z")).items()]
    )
    assert oracles.is_lie_element(ws)
    got = lie_normalize(ws)
    assert _writes(got, ws)
    assert wallcoeff.LieWord(("z", "y"), Fraction(-3)) in got


def test_empty_word_is_not_a_lie_element():
    with pytest.raises(LieElementError):
        lie_normalize({(): Fraction(1)})


def test_lie_normalize_round_trip():
    ws = oracles.word_sum(
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
    below = oracles.pair_lex_stability(framed, mu, -1)
    above = oracles.pair_lex_stability(framed, mu, +1)
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
    below = oracles.pair_lex_stability(framed, {"v": 0, "w": 1}, -1)
    above = oracles.pair_lex_stability(framed, {"v": 0, "w": 1}, +1)
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
        assert oracles.is_lie_element(got)
