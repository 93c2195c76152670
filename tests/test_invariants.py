import ast
import importlib
import itertools
import json
import pkgutil
import random
from pathlib import Path

import pytest
from fractions import Fraction

from quiverinv.charclass import ChernRing, chern_kclass, monomial_basis, power_trunc, weight_part
import quiverinv
from quiverinv import charclass, invariants, vertexalg
from quiverinv.quiver import (
    CycleError,
    DimVector,
    Quiver,
    QuiverMorphism,
    all_decompositions,
    binarize_quiver,
    edge_deletion_morphism,
    subvectors,
    sym_euler_form,
    unit_vector,
)
from quiverinv.stability import (
    WeakStability,
    reference_increasing_slope,
    slope_stability,
    trivial_stability,
)
from quiverinv.invariants import (
    CacheStore,
    _order_condition,
    InvariantTable,
    build_invariant_table,
    check_morphism_identity,
    check_wallcross,
    induced_pl_map,
    invariant,
    invariant_increasing,
    natural_degree,
    pair_invariant_report,
    pl_class_json,
    selftest,
    wallcross_transform,
)
from quiverinv.vertexalg import (
    HClass,
    PlClass,
    canonical_coordinates,
    lie_bracket,
    pl_equal,
    pl_is_zero,
    unit_pl,
    zero_pl,
)
from quiverinv.wallcoeff import s_coeff, u_coeff

from . import oracles

A2 = Quiver.from_json(oracles.a2_json())
K2 = Quiver.from_json(oracles.kronecker_json(2))
K3 = Quiver.from_json(oracles.kronecker_json(3))
T4 = Quiver.from_json(oracles.tree4_json())

HI = {"v": 1, "w": 0}  # source above target: the interesting chamber
LO = {"v": 0, "w": 1}


def test_natural_degree():
    assert natural_degree(A2, DimVector({"v": 1, "w": 1})) == 0
    assert natural_degree(K3, DimVector({"v": 1, "w": 1})) == 4
    assert natural_degree(K3, DimVector({"v": 2, "w": 3})) == 12
    assert natural_degree(K2, DimVector({"v": 1})) == 0


@pytest.mark.parametrize("counts", [(1,), (1, 1), (2, 1), (3, 3), (4, 2)])
def test_distinct_orderings_lexicographic(counts):
    letters = [v for v, n in zip("vw", counts) for _ in range(n)]
    want = sorted(set(itertools.permutations(letters)))
    assert list(oracles.distinct_orderings(letters)) == want
    assert list(oracles.distinct_orderings(letters[::-1])) == want


def _stub_bracket(q, calls):
    """A bracket that records its arguments and returns the zero class of
    the right degree, so only the count is computed."""

    def stub(x, y):
        calls.append((x.dimvec, y.dimvec))
        deg = x.degree + y.degree - 2 - 2 * sym_euler_form(q, x.dimvec, y.dimvec)
        return zero_pl(q, x.dimvec + y.dimvec, deg)

    return stub


@pytest.mark.parametrize("d, brackets", [((3, 3), 24), ((4, 4), 71)])
def test_invariant_evaluates_few_prefixes(monkeypatch, d, brackets):
    # words grouped by last letter: one bracket per distinct proper suffix,
    # so at most one per distinct last letter lands on the full class d
    calls = []
    monkeypatch.setattr(invariants, "lie_bracket", _stub_bracket(K3, calls))
    d = DimVector({"v": d[0], "w": d[1]})
    invariant(K3, slope_stability(K3, HI), d)
    assert len(calls) == brackets
    assert all(y.total() == 1 for _, y in calls)
    top = [y for x, y in calls if x + y == d]
    assert len(top) == len(set(top)) <= 2


@pytest.mark.parametrize(
    "d, forward, backward", [((3, 2), 11, 8), ((4, 3), 49, 26)]
)
def test_wallcross_transform_brackets_only_live_letters(monkeypatch, d, forward, backward):
    # forward crosses from HI to LO, backward from LO (increasing on K3, so
    # its table is units only) to HI; an empty letter is never a letter of
    # the word trie, so no word with one gets a u-coefficient
    d = DimVector({"v": d[0], "w": d[1]})
    walk = invariants._coefficient_words
    for frm, to, want in ((HI, LO, forward), (LO, HI, backward)):
        table = build_invariant_table(K3, slope_stability(K3, frm), d)
        dead = {e for e, x in table.items() if x.rep.is_zero()}
        assert dead
        seen, pushed, calls = [], set(), []

        def spy(top, below, *ranks):
            pushed.update(_decode(d)(c) for letters in below.values() for _, c in letters)
            tables = walk(top, below, *ranks)
            seen.extend(tuple(map(_decode(d), _word_codes(below, w))) for w in tables[1])
            return tables

        with monkeypatch.context() as m:
            m.setattr(invariants, "_coefficient_words", spy)
            m.setattr(invariants, "lie_bracket", _stub_bracket(K3, calls))
            wallcross_transform(K3, table, slope_stability(K3, to), d)
        assert len(calls) == want
        assert seen and not any(p in dead for parts in seen for p in parts)
        assert all(sum(parts, DimVector()) == d for parts in seen)
        assert pushed and not pushed & dead


def _word_codes(below, word):
    """The codes of the letters of a word of the walk over below."""
    codes = {i: c for letters in below.values() for i, c in letters}
    return tuple(codes[i] for i in word)


THREE = Quiver(["a", "b", "c"], [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c"),
                                 ("e4", "b", "c"), ("e5", "a", "c")])


def _decode(d):
    """The vector with a given code: digit e(v) and radix d(v) + 1 over the
    support of d, first vertex first."""

    def decode(code):
        entries = {}
        for v, n in d.items():
            code, entries[v] = divmod(code, n + 1)
        assert code == 0
        return DimVector(entries)

    return decode


def _rank_condition(ranks, d):
    """The condition whose value at the i-th subvector of d is ranks[i]."""
    return WeakStability(dict(zip(subvectors(d), ranks)).__getitem__, name="ranks")


@pytest.mark.parametrize(
    "q, top, slopes",
    [
        (K3, {"v": 4, "w": 4}, (HI, LO)),
        (THREE, {"a": 2, "b": 1, "c": 2}, ({"a": 2, "b": 1, "c": 0}, {"a": 0, "b": 1, "c": 1})),
    ],
)
def test_coded_coefficients_are_the_public_u_coeff(monkeypatch, q, top, slopes):
    # every word of every transform in both directions: the coefficient
    # computed on codes and rank lists is u_coeff of the decoded vectors at
    # the rank conditions, and at the slopes themselves
    seen, checked, tied, walk = [], 0, False, invariants._coefficient_words

    def spy(top, below, *ranks):
        tables = walk(top, below, *ranks)
        seen.extend((_word_codes(below, w), u) for w, u in tables[1].items())
        return tables

    for mu, nu in (slopes, slopes[::-1]):
        frm, to = slope_stability(q, mu), slope_stability(q, nu)
        table = build_invariant_table(q, frm, DimVector(top))
        for d, _ in table.items():
            seen.clear()
            with monkeypatch.context() as m:
                m.setattr(invariants, "_coefficient_words", spy)
                m.setattr(invariants, "lie_bracket", _stub_bracket(q, []))
                wallcross_transform(q, table, to, d)
            ranks = invariants._order_condition(frm, d), invariants._order_condition(to, d)
            tied |= any(len(set(r)) < len(r) for r in ranks)
            for codes, c in seen:
                parts = tuple(map(_decode(d), codes))
                assert sum(parts, DimVector()) == d
                assert c == u_coeff(parts, *(_rank_condition(r, d) for r in ranks))
                assert c == u_coeff(parts, frm, to)
            checked += len(seen)
    assert checked > 100
    assert tied


def _tied_conditions(q, d, seed):
    """Conditions with many equal values on the subvectors of d: the
    trivial one, a slope with weights in -1..1, and two rank conditions
    with ranks in 0..2."""
    rng = random.Random(seed)
    subs = subvectors(d)
    return [
        trivial_stability(),
        slope_stability(q, {v: rng.randint(-1, 1) for v in q.vertices}),
        *(_rank_condition([rng.randint(0, 2) for _ in subs], d) for _ in range(2)),
    ]


@pytest.mark.parametrize(
    "q, top, pairs",
    [
        (K3, {"v": 3, "w": 2}, None),
        (K3, {"v": 2, "w": 3}, None),
        (THREE, {"a": 2, "b": 2, "c": 2}, [(0, 2), (1, 0), (2, 3), (3, 1)]),
        (K3, {"v": 4, "w": 4}, [(2, 0)]),
    ],
)
def test_u_dp_matches_enumeration_on_every_decomposition(q, top, pairs):
    # the block-boundary DP over one denominator against the plain
    # enumeration of blocks and superblocks, on every ordered decomposition
    # of d (words up to the size cap at (4,4)); all pairs of the tied
    # conditions where no pairs are given
    d = DimVector(top)
    conditions = _tied_conditions(q, d, seed=d.total())
    pairs = pairs or [(i, j) for i in range(4) for j in range(4) if i != j]
    decompositions = list(all_decompositions(d))
    nonzero = set()
    for i, j in pairs:
        frm, to = conditions[i], conditions[j]
        for parts in decompositions:
            want = oracles.u_coeff_oracle(parts, frm, to)
            assert u_coeff(parts, frm, to) == want, (i, j, parts)
            nonzero.add((len(parts), want != 0))
    assert max(n for n, live in nonzero if live) == d.total()
    assert any(n > 1 and not live for n, live in nonzero)


def _oracle_words(e, live, frm, to):
    """The ordered decompositions of e into live vectors whose oracle
    u-coefficient is nonzero, with that coefficient."""
    out = {}
    for parts in all_decompositions(e):
        if set(parts) <= live:
            c = oracles.u_coeff_oracle(parts, frm, to)
            if c:
                out[parts] = c
    return out


@pytest.mark.parametrize(
    "q, top, pairs",
    [
        (K3, {"v": 3, "w": 2}, None),
        (K3, {"v": 2, "w": 3}, None),
        (THREE, {"a": 2, "b": 2, "c": 2}, [(0, 2), (1, 0), (2, 3), (3, 1)]),
    ],
)
def test_word_trie_walk_returns_exactly_the_nonzero_words(q, top, pairs):
    # every word sum under d, all letters live, at the tied conditions of
    # test_u_dp_matches_enumeration_on_every_decomposition: the walk returns
    # the decompositions whose enumerated u-coefficient is nonzero, each with
    # its value, and no other word, and likewise for the s-coefficient
    d = DimVector(top)
    conditions = _tied_conditions(q, d, seed=d.total())
    pairs = pairs or [(i, j) for i in range(4) for j in range(4) if i != j]
    subs, codes, unders = lattice = invariants._lattice(d)
    every, longest, dropped = set(range(len(subs))), 0, 0
    for i, j in pairs:
        frm, to = conditions[i], conditions[j]
        for top, (e, orders) in enumerate(zip(subs, invariants._orders_below(lattice, frm, to))):
            ranks = ({codes[k]: r for k, r in zip(unders[top], rs)} for rs in orders)
            signs, words = invariants._coefficient_words(codes[top], invariants._below(lattice, top, every), *ranks)
            got = {tuple(subs[k] for k in w): c for w, c in words.items()}
            assert got == _oracle_words(e, set(subs), frm, to), (i, j, e)
            want = {parts: oracles.s_coeff_oracle(parts, frm, to) for parts in all_decompositions(e)}
            assert {tuple(subs[k] for k in w): c for w, c in signs.items()} == {p: c for p, c in want.items() if c}
            longest = max([longest, *map(len, got)])
            dropped += len(list(all_decompositions(e))) - len(got)
    assert longest == d.total() and dropped


def test_word_trie_walk_skips_dead_letters(monkeypatch):
    # a K3 (4,3) table at HI has empty classes: each transform to LO walks
    # the words of the live letters only, and returns those whose
    # enumerated coefficient is nonzero, each with its value
    d = DimVector({"v": 4, "w": 3})
    hi, lo = slope_stability(K3, HI), slope_stability(K3, LO)
    table = build_invariant_table(K3, hi, d)
    live = {e for e, x in table.items() if not x.rep.is_zero()}
    assert len(live) < len(subvectors(d))
    walk, found = invariants._coefficient_words, []

    def spy(*args):
        found.append(walk(*args))
        return found[-1]

    monkeypatch.setattr(invariants, "_coefficient_words", spy)
    monkeypatch.setattr(invariants, "lie_bracket", _stub_bracket(K3, []))
    words = 0
    for e, _ in table.items():
        found.clear()
        wallcross_transform(K3, table, lo, e)
        subs = subvectors(e)
        ((_, got),) = found
        assert {tuple(subs[i] for i in w): c for w, c in got.items()} == _oracle_words(e, live, hi, lo), e
        words += len(got)
    assert words > 100


def test_word_sum_reads_each_condition_at_most_once_per_subvector(monkeypatch):
    # coefficients read ranks off lists, so however many words a sum has,
    # each condition is read only where its ranks on subvectors(d) are
    # formed; a table or a pair of sides ranks each condition, the
    # reference slope included, on d alone, and builds that slope once
    d = DimVector({"v": 4, "w": 3})
    table = build_invariant_table(K3, slope_stability(K3, HI), d)
    reads, words, built = {}, [], []
    value, reference, walk = WeakStability.value, invariants.reference_increasing_slope, invariants._coefficient_words

    def counting(self, e):
        reads[self] = reads.get(self, 0) + 1
        return value(self, e)

    def spy(top, below, *ranks):  # the walk reads a coefficient at the end of each live word
        words.extend(invariants._live_words(top, below))
        return walk(top, below, *ranks)

    def counted_reference(q):
        built.append(q)
        return reference(q)

    monkeypatch.setattr(WeakStability, "value", counting)
    monkeypatch.setattr(invariants, "_coefficient_words", spy)
    monkeypatch.setattr(invariants, "lie_bracket", _stub_bracket(K3, []))
    monkeypatch.setattr(invariants, "reference_increasing_slope", counted_reference)
    for run, conditions, references in (
        (lambda: wallcross_transform(K3, table, slope_stability(K3, LO), d), 2, 0),
        (lambda: invariant(K3, slope_stability(K3, HI), d), 2, 1),
        (lambda: build_invariant_table(K3, slope_stability(K3, LO), d), 2, 1),
        (lambda: invariants.wallcross_sides(K3, slope_stability(K3, LO), slope_stability(K3, HI), d), 3, 1),
    ):
        monkeypatch.setattr(invariants, "_INVARIANT_MEMO", {})
        reads.clear()
        words.clear()
        built.clear()
        run()
        assert len(reads) == conditions and len(words) > len(subvectors(d))
        assert max(reads.values()) <= len(subvectors(d))
        assert len(built) == references


@pytest.mark.parametrize("q, top", [(K3, {"v": 4, "w": 3}), (THREE, {"a": 2, "b": 1, "c": 2})])
def test_orders_below_d_are_the_orders_at_each_subvector(q, top):
    # d's ranks, restricted to the subvectors of e and ranked again, are
    # the ranks of the condition on the subvectors of e
    d, rng, tied = DimVector(top), random.Random(31), 0
    for _ in range(6):
        conditions = [slope_stability(q, {v: rng.randint(-2, 2) for v in q.vertices}) for _ in range(2)]
        conditions += [reference_increasing_slope(q), *_tied_conditions(q, d, rng.random())]
        subs, _, unders = lattice = invariants._lattice(d)
        orders = invariants._orders_below(lattice, *conditions)
        assert subs == subvectors(d) and len(orders) == len(unders) == len(subs)
        for e, under, ranks in zip(subs, unders, orders):
            assert [subs[k] for k in under] == subvectors(e)
            assert ranks == tuple(_order_condition(tau, e) for tau in conditions)
            tied += sum(len(set(r)) < len(r) for r in ranks)
    assert tied > 100


@pytest.mark.parametrize(
    "q, top, frm, to",
    [
        (K2, {"v": 3, "w": 3}, HI, LO),
        (K3, {"v": 3, "w": 3}, HI, LO),
        (THREE, {"a": 2, "b": 1, "c": 1}, {"a": 2, "b": 1, "c": 0}, {"a": 0, "b": 1, "c": 2}),
    ],
)
def test_grouped_bracket_sums_equal_per_word_loops(monkeypatch, q, top, frm, to):
    # exact equality of representatives, not only in rigidified homology
    last = set()  # (class, last letter) of each bracket onto the full class

    def spy(x, y):
        last.add((x.dimvec + y.dimvec, y.dimvec))
        return lie_bracket(x, y)

    monkeypatch.setattr(invariants, "lie_bracket", spy)
    nonzero, widest = 0, 0
    for mu, nu in ((frm, to), (to, frm)):
        table = build_invariant_table(q, slope_stability(q, mu), DimVector(top))
        for d, x in table.items():
            assert x.rep == oracles.invariant_by_words(q, slope_stability(q, mu), d).rep
            last.clear()
            got = wallcross_transform(q, table, slope_stability(q, nu), d)
            want = oracles.wallcross_transform_by_words(q, table, slope_stability(q, nu), d)
            assert got.rep == want.rep
            nonzero += not got.rep.is_zero()
            widest = max(widest, len({e for total, e in last if total == d}))
    assert nonzero
    assert widest > 2  # some sum has more than two groups at the top


@pytest.mark.parametrize(
    "d, extra",
    [(DimVector({"v": 3, "w": 2}), DimVector({"v": 4})),
     (DimVector({"a": 2, "b": 1, "c": 1}), unit_vector("inf"))],
)
def test_live_words_are_the_decompositions_into_letters(d, extra):
    # on the lattice of d, at d and at every e under it by d's codes
    subs, codes, _ = lattice = invariants._lattice(d)
    units = [e for e in subs if e.as_unit() is not None]
    sparse = subs[::2] + [extra]  # extra is no subvector, so never a part
    for keys in (subs, units, sparse):
        letters = dict.fromkeys(keys)
        for top, e in enumerate(subs):
            below = invariants._below(lattice, top, {k for k, f in enumerate(subs) if f in letters})
            got = [tuple(subs[i] for i in w) for w in invariants._live_words(codes[top], below)]
            want = {p for p in all_decompositions(e) if all(x in letters for x in p)}
            assert len(got) == len(set(got)) and set(got) == want
            assert want or e != d


def test_wallcross_transform_needs_every_subvector():
    # a table lacking a subvector of d is an error even where that class
    # is zero, so a missing entry is never read as an empty one
    d = DimVector({"v": 2, "w": 1})
    full = build_invariant_table(K3, slope_stability(K3, HI), d)
    assert any(x.rep.is_zero() for _, x in full.items())
    for e in subvectors(d):
        table = InvariantTable(K3, full.stability, {k: x for k, x in full.items() if k != e})
        for to in (HI, LO):
            with pytest.raises(ValueError, match="missing table entry"):
                wallcross_transform(K3, table, slope_stability(K3, to), d)


@pytest.mark.parametrize("q, d", [(A2, (2, 2)), (K2, (2, 2)), (K3, (2, 1))])
def test_grouped_pair_sum_equals_per_word_loop(q, d):
    d = DimVector({"v": d[0], "w": d[1]})
    framing = {"v": 1, "w": 1}
    got = pair_invariant_report(q, HI, d, framing)["rhs"]
    want = oracles.pair_rhs_by_words(q, HI, d, framing)
    assert got.rep == want.rep and not got.rep.is_zero()


def test_increasing_slope_cases():
    mu = reference_increasing_slope(T4)
    for d in subvectors(DimVector({v: 2 for v in T4.vertices})):
        if d.total() > 3:
            continue
        got = invariant_increasing(T4, mu, d)
        direct = invariant(T4, mu, d)
        assert pl_equal(got, direct)
        if d.as_unit() is not None:
            assert pl_equal(got, unit_pl(T4, d))
        else:
            assert pl_is_zero(got)
    with pytest.raises(ValueError):
        invariant_increasing(A2, slope_stability(A2, {"v": 1, "w": 0}), DimVector({"v": 1}))
    with pytest.raises(ValueError):
        invariant_increasing(A2, mu, DimVector({}))


def test_invariant_input_errors():
    c3 = Quiver.from_json(oracles.cyclic3_json())
    with pytest.raises(CycleError):
        invariant(c3, slope_stability(c3, {v: 0 for v in c3.vertices}), unit_vector(c3.vertices[0]))
    with pytest.raises(ValueError):
        invariant(A2, slope_stability(A2, HI), DimVector({"v": 3, "w": 3}), max_size=4)
    with pytest.raises(ValueError):
        invariant(A2, slope_stability(A2, HI), DimVector({"v": -1, "w": 2}))


@pytest.mark.parametrize(
    "q, top, mu",
    [(K3, {"v": 3, "w": 2}, HI), (K3, {"v": 2, "w": 3}, LO),
     (THREE, {"a": 2, "b": 1, "c": 1}, {"a": 2, "b": 1, "c": 0})],
)
def test_invariant_transforms_the_unit_classes_directly(monkeypatch, q, top, mu):
    # invariant reaches its classes only through the word sum on the unit
    # classes: no increasing table, check or class is built on the way
    tau, ref = slope_stability(q, mu), reference_increasing_slope(q)
    want = {}
    for d in subvectors(DimVector(top)):
        table = InvariantTable(q, ref, {e: invariant_increasing(q, ref, e) for e in subvectors(d)})
        want[d] = wallcross_transform(q, table, tau, d)

    def refuse(*args, **kwargs):
        raise AssertionError("invariant left its single path")

    for name in ("invariant_increasing", "is_increasing", "InvariantTable"):
        monkeypatch.setattr(invariants, name, refuse)
    assert any(not x.rep.is_zero() for x in want.values())
    for d, x in want.items():
        assert invariant(q, tau, d).rep == x.rep


def test_kronecker_point_classes():
    d = DimVector({"v": 1, "w": 1})
    for m, want in oracles.KRONECKER_POINT_PAIRING.items():
        q = Quiver.from_json(oracles.kronecker_json(m))
        cls = invariant(q, slope_stability(q, HI), d)
        assert cls.shifted_degree() == 0
        probe = power_trunc({(((0, "w", 1), 1),): 1, (((0, "v", 1), 1),): -1}, m - 1)
        assert cls.rep.pair(probe) == want
        # nothing else: the class is determined by this single pairing in
        # its canonical coordinates
        nonzero = [c for c in pl_class_json(cls)["canonical"]]
        assert len(nonzero) == 1
        assert pl_is_zero(invariant(q, slope_stability(q, LO), d))


def test_binary_tree_dichotomy():
    qjson = oracles.tree4_json()
    weight_sets = [
        {"a": 0, "b": 1, "c": 3, "d": 9},
        {"a": 9, "b": 3, "c": 1, "d": 0},
        {"a": 1, "b": 0, "c": 5, "d": 2},
    ]
    checked = 0
    for support in oracles.connected_subsets(qjson):
        d = DimVector({v: 1 for v in support})
        for weights in weight_sets:
            mu = slope_stability(T4, weights)
            if not oracles.is_generic_pair(mu, d):
                continue
            cls = invariant(T4, mu, d)
            if oracles.binary_stable_point_oracle(qjson, support, weights):
                assert pl_equal(cls, unit_pl(T4, d))
            else:
                assert pl_is_zero(cls)
            checked += 1
    assert checked >= 20


def test_invariant_table():
    d = DimVector({"v": 2, "w": 1})
    tau = slope_stability(K2, HI)
    table = build_invariant_table(K2, tau, d)
    assert set(e for e, _ in table.items()) == set(subvectors(d))
    assert DimVector({"v": 1}) in table
    assert DimVector({"w": 2}) not in table
    with pytest.raises(ValueError):
        table[DimVector({"v": 3})]
    assert table.stability is tau


def test_wallcross_identity_and_crossing():
    tau_hi = slope_stability(K3, HI)
    tau_lo = slope_stability(K3, LO)
    for dv in ({"v": 1, "w": 1}, {"v": 2, "w": 1}):
        d = DimVector(dv)
        table = build_invariant_table(K3, tau_hi, d)
        same = wallcross_transform(K3, table, tau_hi, d)
        assert pl_equal(same, table[d])
        crossed = wallcross_transform(K3, table, tau_lo, d)
        assert pl_equal(crossed, invariant(K3, tau_lo, d))
    assert check_wallcross(K3, tau_hi, tau_lo, DimVector({"v": 1, "w": 1}))
    assert check_wallcross(K3, tau_lo, tau_hi, DimVector({"v": 1, "w": 1}))
    with pytest.raises(ValueError):
        wallcross_transform(
            A2,
            build_invariant_table(K3, tau_hi, DimVector({"v": 1})),
            tau_lo,
            DimVector({"v": 1}),
        )


def test_cache_roundtrip(tmp_path):
    store = CacheStore(tmp_path)
    tau = slope_stability(K3, HI)
    d = DimVector({"v": 1, "w": 1})
    assert store.get(K3, d, _order_condition(tau, d)) is None
    cls = invariant(K3, tau, d, cache=store)
    files = list(tmp_path.glob("*.json"))
    assert files
    again = CacheStore(tmp_path).get(K3, d, _order_condition(tau, d))
    assert again is not None
    assert again.rep.functional == cls.rep.functional
    assert again.degree == cls.degree
    # a second computation must round trip through the store unchanged
    hit = invariant(K3, tau, d, cache=store)
    assert hit.rep.functional == cls.rep.functional
    # a condition of another order does not collide
    assert store.get(K3, d, _order_condition(slope_stability(K3, LO), d)) is None


def test_cache_misses_entries_of_another_algorithm(tmp_path, monkeypatch):
    tau = slope_stability(K3, HI)
    d = DimVector({"v": 1, "w": 1})
    store = CacheStore(tmp_path)
    monkeypatch.setattr(invariants, "_ALGORITHM", "written")
    store.put(K3, d, _order_condition(tau, d), invariant(K3, tau, d))
    assert store.get(K3, d, _order_condition(tau, d)) is not None
    (path,) = tmp_path.glob("*.json")
    assert json.loads(path.read_text())["algorithm"] == "written"
    monkeypatch.setattr(invariants, "_ALGORITHM", "read")
    assert store.get(K3, d, _order_condition(tau, d)) is None


def test_cache_not_shared_through_caller_tokens(tmp_path):
    d = DimVector({"v": 1, "w": 1})
    lo = slope_stability(K2, LO)
    hi = slope_stability(K2, HI)
    mine_lo = WeakStability(lo.value, name="mine")
    mine_hi = WeakStability(hi.value, name="mine")
    fresh = canonical_coordinates(invariant(K2, mine_lo, d))
    store = CacheStore(tmp_path)
    assert canonical_coordinates(invariant(K2, mine_hi, d, cache=store)) != fresh
    assert canonical_coordinates(invariant(K2, mine_lo, d, cache=store)) == fresh
    assert len(list(tmp_path.iterdir())) == 2
    again = CacheStore(tmp_path)
    assert canonical_coordinates(again.get(K2, d, _order_condition(mine_lo, d))) == fresh
    assert canonical_coordinates(
        again.get(K2, d, _order_condition(mine_hi, d))
    ) == canonical_coordinates(invariant(K2, hi, d))


def _refuse(*args):
    raise AssertionError("recomputed a class already held")


def test_invariant_memo_ignores_caller_tokens():
    # one name on both sides of the K3 wall: the memo keys on the order
    # of the values on the subvectors of d, never on the condition's name
    d = DimVector({"v": 2, "w": 1})
    hi, lo = slope_stability(K3, HI), slope_stability(K3, LO)
    x = invariant(K3, WeakStability(hi.value, name="mine"), d)
    y = invariant(K3, WeakStability(lo.value, name="mine"), d)
    assert not pl_is_zero(x) and pl_is_zero(y)
    assert pl_equal(x, invariant(K3, hi, d)) and pl_equal(y, invariant(K3, lo, d))


def test_invariant_reused_within_a_chamber(monkeypatch):
    d = DimVector({"v": 3, "w": 2})
    first = invariant(K3, slope_stability(K3, HI), d)
    monkeypatch.setattr(invariants, "_coefficient_words", _refuse)
    monkeypatch.setattr(invariants, "lie_bracket", _refuse)
    again = invariant(K3, slope_stability(K3, {"v": 5, "w": -2}), d)
    assert again.rep == first.rep and pl_equal(again, first)


def test_cache_serves_every_slope_in_a_chamber(monkeypatch, tmp_path):
    d = DimVector({"v": 2, "w": 2})
    store = CacheStore(tmp_path)
    first = invariant(K3, slope_stability(K3, HI), d, cache=store)
    monkeypatch.setattr(invariants, "_INVARIANT_MEMO", {})
    monkeypatch.setattr(invariants, "_coefficient_words", _refuse)
    monkeypatch.setattr(invariants, "lie_bracket", _refuse)
    again = invariant(K3, slope_stability(K3, {"v": 5, "w": -2}), d, cache=store)
    assert again.rep == first.rep


def test_cached_invariant_reads_the_order_of_tau_once(monkeypatch, tmp_path):
    # the memo key, the cache key and the cache file name share one
    # evaluation of the order of tau on the subvectors of d
    tau, d = slope_stability(K3, HI), DimVector({"v": 2, "w": 1})
    order, calls = invariants._ranks, []

    def counted(stab, subs):
        calls.append(stab)
        return order(stab, subs)

    monkeypatch.setattr(invariants, "_ranks", counted)
    store = CacheStore(tmp_path)
    for _ in range(2):  # the first call computes and writes, the second reads
        calls.clear()
        invariant(K3, tau, d, cache=store)
        assert calls.count(tau) == 1
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_cache_store_keys_on_the_order_of_values(tmp_path):
    # entries of conditions ordered differently on the subvectors of d never
    # stand in for each other; one of the same order, here {v:5,w:-2} with
    # HI, reads its entry.  Scaled copies tell the entries apart.
    d = DimVector({"v": 1, "w": 1})
    x = invariant(K3, slope_stability(K3, HI), d)
    conditions = [
        slope_stability(K3, HI),
        slope_stability(K3, LO),
        trivial_stability(),
        WeakStability(lambda e: e.total(), name="size"),
    ]
    store = CacheStore(tmp_path)
    store.put(K3, d, _order_condition(conditions[0], d), x)
    assert all(store.get(K3, d, _order_condition(tau, d)) is None for tau in conditions[1:])
    for k, tau in enumerate(conditions[1:], start=2):
        store.put(K3, d, _order_condition(tau, d), x.scale(k))
    assert len(list(tmp_path.glob("*.json"))) == len(conditions)
    for k, tau in enumerate(conditions, start=1):
        assert store.get(K3, d, _order_condition(tau, d)).rep == x.scale(k).rep
    same = _order_condition(slope_stability(K3, {"v": 5, "w": -2}), d)
    assert store.get(K3, d, same).rep == x.rep


def test_memo_hit_still_fills_the_cache(monkeypatch, tmp_path):
    tau = slope_stability(K3, HI)
    d = DimVector({"v": 2, "w": 2})
    invariant(K3, slope_stability(K3, {"v": 5, "w": -2}), d)
    with monkeypatch.context() as m:
        m.setattr(invariants, "_coefficient_words", _refuse)
        invariant(K3, tau, d, cache=CacheStore(tmp_path / "hit"))
    monkeypatch.setattr(invariants, "_INVARIANT_MEMO", {})
    invariant(K3, tau, d, cache=CacheStore(tmp_path / "fresh"))
    (hit,) = (tmp_path / "hit").iterdir()
    (fresh,) = (tmp_path / "fresh").iterdir()
    assert hit.name == fresh.name and hit.read_bytes() == fresh.read_bytes()


def _slope_ranks(mu, d):
    """The rank of each subvector's slope among those of all subvectors of
    d, under a name that says nothing about mu."""
    def slope(e):
        return Fraction(sum(mu[v] * n for v, n in e.items()), e.total())

    values = sorted({slope(e) for e in subvectors(d)})
    rank = {e: values.index(slope(e)) for e in subvectors(d)}
    return WeakStability(rank.__getitem__, name="ranks")


def test_classes_at_tau_match_a_rank_valued_condition(monkeypatch):
    d = DimVector({"v": 3, "w": 3})
    for frm, to in ((HI, LO), (LO, HI)):
        tau, tau_to = slope_stability(K3, frm), slope_stability(K3, to)
        ranked, ranked_to = _slope_ranks(frm, d), _slope_ranks(to, d)
        monkeypatch.setattr(invariants, "_INVARIANT_MEMO", {})
        want = invariant(K3, tau, d)
        monkeypatch.setattr(invariants, "_INVARIANT_MEMO", {})
        assert invariant(K3, ranked, d).rep == want.rep
        table = build_invariant_table(K3, tau, d)
        got = wallcross_transform(K3, InvariantTable(K3, ranked, table.classes), ranked_to, d)
        assert got.rep == wallcross_transform(K3, table, tau_to, d).rep


def test_coordinates_and_cache_need_no_kernel_basis(monkeypatch, tmp_path):
    # nor any sorted-tuple monomial: the rows of D's matrix are the
    # translation images of single packed monomials (_raise)
    from quiverinv import charclass

    tau = slope_stability(K3, HI)
    d = DimVector({"v": 2, "w": 2})
    cls = invariant(K3, tau, d)
    reference = vertexalg.weight_zero_basis(cls.rep.ring, cls.degree // 2)
    want = [cls.rep.pair(p) for p in reference]
    n_rows = len(charclass.monomial_basis(cls.rep.ring, cls.degree // 2 - 1))

    def refuse(*args, **kwargs):
        raise AssertionError("canonical coordinates left the packed kernel")

    monkeypatch.setattr(vertexalg, "weight_zero_basis", refuse)
    for name in ("mul_monomials",):
        for module in (charclass, vertexalg, invariants):
            monkeypatch.setattr(module, name, refuse, raising=False)
    raised, raise_ = [], vertexalg._raise

    def counted(ring, func, j):
        raised.append((len(func), j))
        return raise_(ring, func, j)

    monkeypatch.setattr(vertexalg, "_raise", counted)
    obj = pl_class_json(cls)
    assert obj["canonical"] == [
        {"basis_index": k, "value": str(c)} for k, c in enumerate(want) if c
    ]
    assert obj["canonical"]
    store = CacheStore(tmp_path)
    store.put(K3, d, _order_condition(tau, d), cls)
    again = store.get(K3, d, _order_condition(tau, d))
    assert again is not None and pl_class_json(again) == obj
    # one reduction for cls, one for the class read back
    assert n_rows and raised == [(1, 1)] * (2 * n_rows)


@pytest.mark.parametrize("q, d, slopes", [
    (K3, {"v": 3, "w": 3}, (HI, LO)),
    (K3, {"v": 3, "w": 2}, (LO, HI)),
    (K2, {"v": 2, "w": 2}, ({"v": 1, "w": 1}, LO)),  # every value tied under from
    (THREE, {"a": 2, "b": 1, "c": 1}, ({"a": 2, "b": 1, "c": 0}, {"a": 0, "b": 1, "c": 1})),
    (THREE, {"a": 1, "b": 2, "c": 2}, ({"a": 3, "b": 1, "c": 0}, {"a": 0, "b": 2, "c": 1})),
])
def test_decomposition_coefficients_are_the_public_ones(q, d, slopes):
    d, (frm, to) = DimVector(d), (slope_stability(q, mu) for mu in slopes)
    ss, us = invariants.decomposition_coefficients(d, frm, to)
    want_s, want_u = {}, {}
    for parts in all_decompositions(d):
        want_s[parts], want_u[parts] = s_coeff(parts, frm, to), u_coeff(parts, frm, to)
    assert ss == {k: c for k, c in want_s.items() if c}
    assert us == {k: c for k, c in want_u.items() if c}
    assert set(ss.values()) == {-1, 1} or slopes[0] == {"v": 1, "w": 1}


def test_decomposition_coefficients_refuse_the_zero_vector():
    with pytest.raises(ValueError, match="coefficients are defined for nonzero classes only"):
        invariants.decomposition_coefficients(DimVector(), slope_stability(K3, HI), slope_stability(K3, LO))


K4 = Quiver.from_json(oracles.kronecker_json(4))
SWAP = {"v": "w", "w": "v"}


def _dual(x, op, swap):
    """The image of x under E -> E*, on the opposite quiver op with each
    vertex v renamed swap.get(v, v): c_i(V*) = (-1)^i c_i(V), so on a class
    of weight w it renames the generators and multiplies by (-1)^w."""
    d = DimVector({swap.get(v, v): n for v, n in x.dimvec.items()})
    functional = {
        tuple(sorted(((f, swap.get(v, v), i), e) for (f, v, i), e in m)): c for m, c in x.rep.functional.items()
    }
    return PlClass(HClass(op, ChernRing((d,)), x.degree, functional).scale((-1) ** (x.degree // 2)))


@pytest.mark.parametrize("q, swap, mu, d", [
    pytest.param(q, SWAP, HI, {"v": a, "w": b}, id=f"{name}-{a},{b}")
    for name, q, a, b in (("K2", K2, 2, 2), ("K3", K3, 2, 3), ("K3", K3, 3, 3), ("K3", K3, 4, 3), ("K3", K3, 4, 4),
                          ("K4", K4, 3, 3))
] + [
    pytest.param(THREE, {}, {"a": 3, "b": 1, "c": 0}, dict(zip("abc", d)), id="THREE-{},{},{}".format(*d))
    for d in ((1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2))
])
def test_duality_takes_each_class_to_the_opposite_quiver_at_minus_mu(q, swap, mu, d):
    # E -> E* takes representations of q to those of its opposite, swapping
    # subobjects and quotients, so mu-semistable to (-mu)-semistable of the
    # same vector.  For K_m the opposite with v and w swapped is K_m, and
    # -HI swapped is {v: 0, w: -1}, HI's order; (2,2), (3,3), (4,4) and
    # (2,2,2) are not coprime.  The two sides come from different word
    # sums, on q^op from a different reference slope.
    op = Quiver(q.vertices, [(a.id, swap.get(a.target, a.target), swap.get(a.source, a.source)) for a in q.edges])
    x = invariant(q, slope_stability(q, mu), DimVector(d))
    dual = _dual(x, op, swap)
    y = invariant(op, slope_stability(op, {swap.get(v, v): -k for v, k in mu.items()}), dual.dimvec)
    assert not pl_is_zero(x)
    assert pl_equal(y, dual)


def test_bracket_sum_refuses_terms_of_another_stack_or_degree(monkeypatch):
    e = unit_vector("v")
    words = [((e,), 1)]
    unit = unit_pl(K3, e)
    for leaf in (unit_pl(K3, unit_vector("w")), zero_pl(K3, e, 2), unit_pl(K2, e)):
        with pytest.raises(ValueError, match="different stacks or degrees"):
            invariants._bracket_sum(K3, e, words, lambda _: leaf)
    # a ring made before the ring memo was cleared is still the ring of e
    monkeypatch.setattr(charclass, "_RING_MEMO", {})
    got = invariants._bracket_sum(K3, e, words * 2, lambda _: unit)
    assert got.rep == unit.rep.scale(2) and got.rep.ring is not unit.rep.ring


def test_module_memos_are_declared():
    # every module-level memo must pay for itself; a new one is declared here
    memos = set()
    for info in pkgutil.iter_modules(quiverinv.__path__):
        module = importlib.import_module(f"quiverinv.{info.name}")
        memos |= {f"{info.name}.{name}" for name in vars(module) if name.endswith("_MEMO")}
    assert memos == {
        "vertexalg._PLAN_MEMO", "invariants._INVARIANT_MEMO", "charclass._RING_MEMO", "charclass._EXPANSION_MEMO",
    }


def test_private_imports_are_declared():
    # a leading-underscore name imported from a sibling module ties the two
    # modules together; each such import is declared here
    imported = set()
    for path in Path(quiverinv.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level or module.partition(".")[0] == "quiverinv":
                source = module.removeprefix("quiverinv").lstrip(".")
                imported |= {(path.stem, source, a.name) for a in node.names if a.name.startswith("_")}
    assert imported == {
        ("cli", "invariants", "_factorial_weight"),
        ("invariants", "wallcoeff", "_coefficient_words"),
        ("vertexalg", "charclass", "_FIELD"),
        ("vertexalg", "charclass", "_FIELD_BITS"),
        ("vertexalg", "charclass", "_GUARD"),
        ("vertexalg", "charclass", "_atom_class"),
        ("vertexalg", "charclass", "_merge_slots"),
        ("vertexalg", "charclass", "_sum_slots"),
    }


def test_cache_rejects_corruption(tmp_path):
    store = CacheStore(tmp_path)
    tau = slope_stability(K3, HI)
    d = DimVector({"v": 1, "w": 1})
    invariant(K3, tau, d, cache=store)
    (path,) = tmp_path.glob("*.json")

    obj = json.loads(path.read_text())
    key = next(iter(obj["representative"]))
    obj["representative"][key] = "7/3"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="corrupt"):
        store.get(K3, d, _order_condition(tau, d))

    obj["format"] = "something-else"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="format"):
        store.get(K3, d, _order_condition(tau, d))

    path.write_text("{not json")
    with pytest.raises(ValueError, match="unreadable"):
        store.get(K3, d, _order_condition(tau, d))

    # valid JSON of the wrong shape is named, never a crash
    path.write_text("[]")
    with pytest.raises(ValueError, match=f"{path.name} has unknown format"):
        store.get(K3, d, _order_condition(tau, d))
    store.put(K3, d, _order_condition(tau, d), invariant(K3, tau, d))
    good = json.loads(path.read_text())
    # every field of the stored key is compared with the key asked for
    for field, value in (("algorithm", good["algorithm"] + 1), ("order", good["order"][::-1]),
                         ("quiver", K2.to_json()), ("dimvec", {"v": 1, "w": 1, "u": 0})):
        path.write_text(json.dumps({**good, field: value}))
        with pytest.raises(ValueError, match=f"{path.name} is for another class"):
            store.get(K3, d, _order_condition(tau, d))
    for field, value in (("representative", []), ("representative", None),
                         ("degree", None), ("degree", "4"), ("degree", 6)):
        path.write_text(json.dumps({**good, field: value}))
        with pytest.raises(ValueError, match=f"{path.name} is malformed"):
            store.get(K3, d, _order_condition(tau, d))
    del good["canonical"]
    path.write_text(json.dumps(good))
    with pytest.raises(ValueError, match="corrupt"):
        store.get(K3, d, _order_condition(tau, d))


def test_identity_checks_bracket_each_pair_at_one_weight(monkeypatch):
    # every bracket of a pair (q, a, b) in these checks has one imax, so the
    # plans, fixed at one weight, are each built once and then reused; so
    # is the unit plan of a pair whose right factor has degree 0, asked for
    # with imax None
    calls, built = [], []
    plan = vertexalg._bracket_plan
    monkeypatch.setattr(vertexalg, "_bracket_plan", lambda *key: calls.append(key) or plan(*key))
    for name in ("_BracketPlan", "_UnitPlan"):
        build = getattr(vertexalg, name)
        monkeypatch.setattr(vertexalg, name, lambda *key, build=build: built.append(key) or build(*key))
    tau_hi, tau_lo = slope_stability(K3, HI), slope_stability(K3, LO)
    assert check_wallcross(K3, tau_hi, tau_lo, DimVector({"v": 3, "w": 2}))
    assert pair_invariant_report(K2, HI, DimVector({"v": 2, "w": 2}), {"v": 1, "w": 1})["ok"]
    weights = {}
    for q, a, b, imax in calls:
        weights.setdefault((q, a, b, imax is None), set()).add(imax)
    assert {len(w) for w in weights.values()} == {1}
    assert len(built) == len(set(built)) == len(set(calls))
    units = [key for key in calls if key[-1] is None]
    assert len(set(units)) < len(units) < len(calls)  # both kinds ran


def test_a_word_sum_brackets_once_per_group(monkeypatch):
    # _bracket_sum runs once per bracket group, recursively
    sums, brackets = [], []
    word_sum, bracket_sum = invariants._word_sum, invariants._bracket_sum
    monkeypatch.setattr(invariants, "_word_sum", lambda *args: sums.append(args) or word_sum(*args))
    monkeypatch.setattr(invariants, "_bracket_sum", lambda *args: brackets.append(args) or bracket_sum(*args))
    assert check_wallcross(K3, slope_stability(K3, HI), slope_stability(K3, LO), DimVector({"v": 3, "w": 2}))
    assert len(sums) == 13 and len(brackets) == 43


def test_induced_pl_map_preserves_shifted_degree():
    lam = edge_deletion_morphism(K2, ["a0"])
    tau = slope_stability(lam.target, HI)
    for dv in ({"v": 1, "w": 1}, {"v": 1}, {"w": 2}):
        d = DimVector(dv)
        x = invariant(K2, slope_stability(K2, HI), d)
        y = induced_pl_map(lam, x)
        assert y.quiver == lam.target
        assert y.dimvec == d
        assert y.shifted_degree() == x.shifted_degree() == 0
    with pytest.raises(ValueError):
        induced_pl_map(lam, invariant(A2, slope_stability(A2, HI), DimVector({"v": 1})))


def _correction_weight_is_the_form(lam, d):
    cls = charclass.correction_top_class(lam, ChernRing((d,)))
    return {charclass.monomial_weight(m) for m in cls} == {oracles.correction_form(lam, d, d)}


def test_morphism_identity():
    lam = edge_deletion_morphism(K2, ["a0"])
    tau = slope_stability(lam.target, HI)
    for d in (DimVector({"v": 1, "w": 1}), DimVector({"v": 2, "w": 1})):
        assert check_morphism_identity(lam, tau, d)
        assert _correction_weight_is_the_form(lam, d)

    # K3 onto K2: one Hom block of rank d(v) d(w), up to 6
    lam3 = edge_deletion_morphism(K3, ["a0"])
    for slope in (HI, LO):
        tau3 = slope_stability(lam3.target, slope)
        for dv in ({"v": 2, "w": 2}, {"v": 1, "w": 2}, {"v": 2, "w": 3}):
            assert check_morphism_identity(lam3, tau3, DimVector(dv)), (slope, dv)
            assert _correction_weight_is_the_form(lam3, DimVector(dv))

    # collapsing a split cover divides by the orbit factorials: the two
    # sides differ by 2! at (2,1) and the identity still balances
    split, collapse, ones = binarize_quiver(K2, DimVector({"v": 2, "w": 1}))
    tau2 = slope_stability(K2, HI)
    assert check_morphism_identity(collapse, tau2, ones)
    assert _correction_weight_is_the_form(collapse, ones)

    # the same cover with an unmatched edge x: v#1 -> w#1 both merges
    # vertices and leaves an edge to the correction class
    edges = [(e.id, e.source, e.target) for e in split.edges] + [("x", "v#1", "w#1")]
    cover = Quiver(split.vertices, edges)
    lam_x = QuiverMorphism(cover, K2, collapse.vertex_map, collapse.edge_pairs)
    assert lam_x.unmatched_edge_ids and list(lam_x.merged_pairs())
    assert check_morphism_identity(lam_x, tau2, ones)
    assert _correction_weight_is_the_form(lam_x, ones)


def test_pair_invariant_report():
    d = DimVector({"v": 1, "w": 1})
    report = pair_invariant_report(A2, {"v": 1, "w": 0}, d, {"v": 1, "w": 1})
    assert report["ok"] and report["equal"] and report["injective"]
    assert isinstance(report["epsilon"], Fraction) and report["epsilon"] > 0
    assert "inf" in report["framed_quiver"].vertices
    assert report["framed_class"] == d + unit_vector("inf")
    assert pl_equal(report["lhs"], report["rhs"])
    assert pair_invariant_report(K2, {"v": 1, "w": 0}, d, {"v": 1, "w": 1})["ok"]

    for bad in ({"v": 1}, {"v": 1, "w": 0}, {"v": 1, "w": -1}, {"v": 1, "w": True}):
        with pytest.raises(ValueError, match="framing"):
            pair_invariant_report(A2, {"v": 1, "w": 0}, d, bad)


def test_pl_class_json_shape():
    tau = slope_stability(K2, HI)
    cls = invariant(K2, tau, DimVector({"v": 1, "w": 1}))
    obj = pl_class_json(cls)
    assert obj["dimvec"] == {"v": 1, "w": 1}
    assert obj["degree"] == 2
    assert obj["basis"] == "weight0-rref-gradedlex-v1"
    assert all(entry["value"] != "0" for entry in obj["canonical"])
    zero = invariant(K2, slope_stability(K2, LO), DimVector({"v": 1, "w": 1}))
    assert pl_class_json(zero)["canonical"] == []
    json.dumps(obj)  # serializable as is


def test_selftest_passes():
    out = selftest(max_size=3)
    assert out["ok"], out
    names = {c["name"] for c in out["checks"]}
    assert {
        "increasing-base-case",
        "kronecker-point-classes",
        "identity-transform",
        "wallcross-two-vertex",
        "dual-zero-procedures",
        "bracket-antisymmetry",
        "edge-deletion-identity",
        "framed-pair-identity",
    } <= names
    assert all(c["ok"] for c in out["checks"])


def test_invariant_pairs_with_tangent_class_to_euler_characteristic():
    # For coprime d at a generic slope the invariant is the fundamental class
    # of the stable moduli space M, whose tangent bundle is -chi(E, E) on the
    # rigidified stack: its top Chern class pairs to the Euler characteristic
    # of M.  -chi(E, E) is built as a one-factor K-class, independently of
    # the ext_pairing_kexpr that the brackets cap with.
    for (m, a, b), want in oracles.KRONECKER_EULER_CHARACTERISTICS.items():
        q = Quiver.from_json(oracles.kronecker_json(m))
        d = DimVector({"v": a, "w": b})
        rep = invariant(q, slope_stability(q, {"v": 1, "w": 0}), d).rep
        tangent = tuple((1, ((0, e.source, True), (0, e.target, False))) for e in q.edges)
        tangent += tuple((-1, ((0, v, True), (0, v, False))) for v in q.vertices)
        w = rep.degree // 2
        assert rep.pair(weight_part(chern_kclass(tangent, ChernRing((d,)), w), w)) == want, (m, d)


@pytest.mark.parametrize("m, n, sub", [
    pytest.param(m, n, sub, id=f"{m}-{n}-sub" if sub else f"{m}-{n}")
    for sub in (False, True) for m in range(2, 6) for n in range(1, min(m - 1, 3) + 1)
])
def test_invariant_pairs_as_the_grassmannian(m, n, sub):
    # On K_m at d = (1, n) in the v-heavy chamber the moduli space is the
    # Grassmannian of n-dimensional quotients of C^m, with universal family
    # V_v = O and V_w = Q; at d = (n, 1) (sub) it is the Grassmannian of
    # n-dimensional subspaces, with V_v = S, the universal subbundle, and
    # V_w = O.  The invariant pairs with P'(f), which lies in ker D and
    # takes the value of f where its vertex's bundle is trivial, as the
    # integral of f over the family; localization gives that at two choices
    # of torus weights.
    q = Quiver.from_json(oracles.kronecker_json(m))
    d, trivial = ({"v": n, "w": 1}, "w") if sub else ({"v": 1, "w": n}, "v")
    rep = invariant(q, slope_stability(q, HI), DimVector(d)).rep
    weight = n * (m - n)
    assert rep.degree == 2 * weight
    nonzero = 0
    for f in monomial_basis(rep.ring, weight):
        want = oracles.grassmannian_integral(m, n, f, range(1, m + 1), sub)
        assert want == oracles.grassmannian_integral(m, n, f, [3 * k * k - 5 for k in range(m)], sub)
        assert rep.pair(oracles.slice_projection({f: 1}, rep.ring, trivial)) == want, f
        nonzero += want != 0
    assert nonzero
