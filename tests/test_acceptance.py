"""End-to-end acceptance battery.

Ten ordered criteria covering the full pipeline, each printing one
pass/fail line with its runtime (run with -s to see them).  Every check
is exact rational arithmetic; the budgets are wall-clock seconds.
"""

import itertools
import random
import time
from fractions import Fraction

from quiverinv.charclass import ChernRing, monomial_basis, power_trunc
from quiverinv.quiver import (
    DimVector,
    Quiver,
    binarize_quiver,
    edge_deletion_morphism,
    subvectors,
    unit_vector,
)
from quiverinv.stability import (
    WeakStability,
    reference_increasing_slope,
    slope_stability,
    trivial_stability,
)
from quiverinv import invariants
from quiverinv.invariants import (
    CacheStore,
    InvariantTable,
    build_invariant_table,
    check_morphism_identity,
    invariant,
    invariant_increasing,
    pair_invariant_report,
    wallcross_transform,
)
from quiverinv.vertexalg import (
    HClass,
    PlClass,
    canonical_coordinates,
    divided_translation,
    lie_bracket,
    pl_equal,
    pl_is_zero,
    state_field,
    unit_class,
    unit_pl,
    vacuum,
    weight_zero_basis,
)
from quiverinv.wallcoeff import u_coeff

from . import oracles
from .oracles import weak_commutativity_order

A2 = Quiver.from_json(oracles.a2_json())
K2 = Quiver.from_json(oracles.kronecker_json(2))
K3 = Quiver.from_json(oracles.kronecker_json(3))
T4 = Quiver.from_json(oracles.tree4_json())

SEED = 20260814


def _report(num, name, failures, started, budget):
    elapsed = time.monotonic() - started
    ok = not failures and elapsed <= budget
    print(f"criterion {num:02d} {name}: {'pass' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not failures, failures[:5]
    assert elapsed <= budget, f"budget {budget}s exceeded: {elapsed:.2f}s"


def _range_vectors(vertices, bound):
    """Nonzero vectors over the given vertices with total size <= bound."""
    out = []
    for combo in itertools.product(range(bound + 1), repeat=len(vertices)):
        if 0 < sum(combo) <= bound:
            out.append(DimVector(dict(zip(vertices, combo))))
    return out


def _random_slope(q, rng):
    return slope_stability(q, {v: Fraction(rng.randint(-6, 6)) for v in q.vertices})


def test_01_increasing_slope_base_case():
    started = time.monotonic()
    failures = []
    alternates = {
        "a2": {"v": -1, "w": 2},
        "k2": {"v": 0, "w": 7},
        "k3": {"v": -3, "w": -1},
        "t4": {"a": 0, "b": 1, "c": 5, "d": 2},
    }
    for name, q in [("a2", A2), ("k2", K2), ("k3", K3), ("t4", T4)]:
        slopes = [reference_increasing_slope(q), slope_stability(q, alternates[name])]
        for mu in slopes:
            for d in _range_vectors(q.vertices, 4):
                cls = invariant(q, mu, d)
                if d.as_unit() is not None:
                    good = pl_equal(cls, unit_pl(q, d))
                else:
                    good = pl_is_zero(cls)
                if not good:
                    failures.append((name, mu.to_json(), d))
    _report(1, "increasing-slope base case", failures, started, 10.0)


def test_02_kronecker_wall_crossing():
    started = time.monotonic()
    failures = []
    d = DimVector({"v": 1, "w": 1})
    for m, want in oracles.KRONECKER_POINT_PAIRING.items():
        q = Quiver.from_json(oracles.kronecker_json(m))
        cls = invariant(q, slope_stability(q, {"v": 1, "w": 0}), d)
        ring = cls.rep.ring
        probe = power_trunc({(((0, "w", 1), 1),): 1, (((0, "v", 1), 1),): -1}, m - 1)
        if cls.rep.pair(probe) != want:
            failures.append((m, "pairing", cls.rep.pair(probe)))
        basis = weight_zero_basis(ring, m - 1)
        if len(basis) != 1:
            failures.append((m, "weight-0 space not a line", len(basis)))
        if cls.shifted_degree() != 0:
            failures.append((m, "shifted degree", cls.shifted_degree()))
        other = invariant(q, slope_stability(q, {"v": 0, "w": 1}), d)
        if not pl_is_zero(other):
            failures.append((m, "unstable side not zero"))
    _report(2, "Kronecker wall-crossing", failures, started, 5.0)


def test_03_binary_bracket_table():
    started = time.monotonic()
    failures = []
    qjson = oracles.tree4_json()
    supports = oracles.connected_subsets(qjson)
    cases_seen = set()
    for e_supp, f_supp in itertools.product(supports, repeat=2):
        e = DimVector({v: 1 for v in e_supp})
        f = DimVector({v: 1 for v in f_supp})
        got = lie_bracket(unit_pl(T4, e), unit_pl(T4, f))
        if set(e_supp) & set(f_supp):
            # overlapping supports land in the span of non-binary classes,
            # where the table asserts nothing further
            if all(n <= 1 for _, n in (e + f).items()):
                failures.append((e_supp, f_supp, "sum unexpectedly binary"))
            cases_seen.add(1)
            continue
        w = oracles.binary_bracket_oracle(qjson, e_supp, f_supp)
        want = unit_pl(T4, e + f).scale(w)
        if not pl_equal(got, want):
            failures.append((e_supp, f_supp, w))
        cases_seen.add({0: 2, 1: 3, -1: 4}[w])
    if cases_seen != {1, 2, 3, 4}:
        failures.append(("cases missing", cases_seen))
    _report(3, "binary bracket table", failures, started, 5.0)


def _blocks(n, m):
    """Strictly increasing index chains 0 = a_0 < ... < a_m = n."""
    for inner in itertools.combinations(range(1, n), m - 1):
        yield (0,) + inner + (n,)


def _composed_u(alphas, tau, tauhat, tautilde):
    alphas = tuple(alphas)
    n = len(alphas)
    total = Fraction(0)
    for m in range(1, n + 1):
        for a in _blocks(n, m):
            inner = Fraction(1)
            sums = []
            for i in range(m):
                block = alphas[a[i]:a[i + 1]]
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


def _decomps(d):
    from quiverinv.quiver import all_decompositions

    return list(all_decompositions(d))


def test_04_coefficient_identities():
    started = time.monotonic()
    failures = []
    rng = random.Random(SEED)

    # identity pair: only the one-part tuple survives, exhaustively to n = 4
    taus = [
        slope_stability(K3, {"v": 1, "w": 0}),
        slope_stability(K3, {"v": 0, "w": 1}),
        trivial_stability(),
    ]
    for tau in taus:
        for d in _range_vectors(K3.vertices, 4):
            for parts in _decomps(d):
                want = Fraction(1 if len(parts) == 1 else 0)
                got = u_coeff(parts, tau, tau)
                if got != want:
                    failures.append(("identity", repr(tau), parts, got))

    # composition through an intermediate condition on random slope triples
    for _ in range(3):
        tau, tauhat, tautilde = (_random_slope(K3, rng) for _ in range(3))
        for d in _range_vectors(K3.vertices, 5):
            for parts in _decomps(d):
                lhs = _composed_u(parts, tau, tauhat, tautilde)
                rhs = u_coeff(parts, tau, tautilde)
                if lhs != rhs:
                    failures.append(("composition", parts, lhs, rhs))

    # vanishing under domination unless the dominating values all agree
    fine = slope_stability(K3, {"v": 1, "w": 0})
    coarse = WeakStability(lambda d: 0 if fine.value(d) < Fraction(1, 2) else 1)
    pool = _range_vectors(K3.vertices, 4)
    if not oracles.dominates(coarse, fine, pool):
        failures.append(("domination premise",))
    for d in _range_vectors(K3.vertices, 4):
        for parts in _decomps(d):
            vals = {coarse.value(p) for p in parts}
            if len(vals) > 1:
                if u_coeff(parts, fine, coarse) != 0:
                    failures.append(("vanishing", parts, "fine->coarse"))
                if u_coeff(parts, coarse, fine) != 0:
                    failures.append(("vanishing", parts, "coarse->fine"))
    _report(4, "coefficient identities", failures, started, 60.0)


def test_05_wallcross_random_pairs(tmp_path):
    started = time.monotonic()
    failures = []
    rng = random.Random(SEED + 5)
    store = CacheStore(tmp_path / "wc")
    for trial in range(5):
        a, b = _random_slope(K3, rng), _random_slope(K3, rng)
        for d in _range_vectors(K3.vertices, 5):
            table = build_invariant_table(K3, a, d, cache=store, max_size=5)
            lhs = wallcross_transform(K3, table, b, d, max_size=5)
            rhs = invariant(K3, b, d, cache=store, max_size=5)
            if not pl_equal(lhs, rhs):
                failures.append((trial, a.to_json(), b.to_json(), d))
    _report(5, "wall-crossing vs direct", failures, started, 300.0)


def test_06_morphism_factorial_identity():
    started = time.monotonic()
    failures = []
    d11 = DimVector({"v": 1, "w": 1})

    lam_a2 = edge_deletion_morphism(A2, [A2.edge_ids()[0]])
    if not check_morphism_identity(lam_a2, slope_stability(lam_a2.target, {"v": 1, "w": 0}), d11):
        failures.append(("a2 edge deletion",))

    lam_k2 = edge_deletion_morphism(K2, ["a0"])
    if not check_morphism_identity(lam_k2, slope_stability(lam_k2.target, {"v": 1, "w": 0}), d11):
        failures.append(("k2 edge deletion",))

    split, collapse, ones = binarize_quiver(K2, DimVector({"v": 2, "w": 1}))
    if not check_morphism_identity(collapse, slope_stability(K2, {"v": 1, "w": 0}), ones):
        failures.append(("k2 binarization",))
    _report(6, "morphism factorial identity", failures, started, 60.0)


def test_07_pair_invariants():
    started = time.monotonic()
    failures = []
    framing = {"v": 1, "w": 1}
    for name, q in [("a2", A2), ("k2", K2)]:
        for dv in ({"v": 1, "w": 1}, {"v": 2, "w": 1}):
            report = pair_invariant_report(q, {"v": 1, "w": 0}, DimVector(dv), framing)
            if not report["equal"]:
                failures.append((name, dv, "identity"))
            if not report["injective"]:
                failures.append((name, dv, "injectivity"))
    for dv in ({"v": 2, "w": 2}, {"v": 3, "w": 2}, {"v": 3, "w": 3}):
        report = pair_invariant_report(K3, {"v": 1, "w": 0}, DimVector(dv), framing)
        if not report["equal"]:
            failures.append(("k3", dv, "identity"))
        if not report["injective"]:
            failures.append(("k3", dv, "injectivity"))
    _report(7, "framed pair invariants", failures, started, 300.0)


def _mono_class(q, d, mono, degree, coeff=1):
    ring = ChernRing((DimVector(d),))
    return HClass(q, ring, degree, {mono: Fraction(coeff)})


def _c(v, k=1):
    return (((0, v, k), 1),)


def _axiom_samples():
    out = [
        unit_class(K3, DimVector({"v": 1})),
        unit_class(K3, DimVector({"w": 1})),
        unit_class(K3, DimVector({"v": 1, "w": 1})),
        unit_class(K3, DimVector({"v": 2, "w": 1})),
        unit_class(A2, DimVector({"v": 1, "w": 1})),
        unit_class(T4, DimVector({"a": 1, "b": 1})),
        unit_class(T4, DimVector({"b": 1, "c": 1, "d": 1})),
        _mono_class(K3, {"v": 1}, _c("v"), 2),
        _mono_class(K3, {"v": 1}, (((0, "v", 1), 2),), 4),
        _mono_class(K3, {"w": 2}, _c("w"), 2),
        _mono_class(K3, {"w": 2}, _c("w", 2), 4),
        _mono_class(K3, {"v": 1, "w": 1}, _c("v"), 2),
        _mono_class(K3, {"v": 1, "w": 1}, _c("w"), 2),
        _mono_class(K3, {"v": 1, "w": 1}, (((0, "v", 1), 1), ((0, "w", 1), 1)), 4),
        _mono_class(K3, {"v": 2, "w": 1}, _c("v"), 2),
        _mono_class(A2, {"v": 1, "w": 1}, _c("w"), 2),
        _mono_class(A2, {"v": 1}, _c("v", 1), 2),
        _mono_class(T4, {"a": 1, "b": 1}, _c("a"), 2),
        _mono_class(T4, {"b": 1, "d": 1}, _c("d"), 2),
        _mono_class(T4, {"a": 1, "b": 1, "c": 1}, _c("b"), 2),
    ]
    assert len(out) == 20
    return out


def test_08_vertex_algebra_axioms():
    started = time.monotonic()
    failures = []
    samples = _axiom_samples()

    for i, v in enumerate(samples):
        out = state_field(vacuum(v.quiver), v, range(-2, 3))
        for p, cls in out.items():
            want_zero = p != 0
            if want_zero and not cls.is_zero():
                failures.append(("vacuum", i, p))
            if not want_zero and (cls.functional != v.functional or cls.degree != v.degree):
                failures.append(("vacuum", i, "identity"))
        created = state_field(v, vacuum(v.quiver), range(-2, 4))
        for p, cls in created.items():
            if p < 0:
                if not cls.is_zero():
                    failures.append(("creation", i, p))
            else:
                want = divided_translation(v, p)
                if cls.functional != want.functional or cls.degree != want.degree:
                    failures.append(("creation", i, p))

    triples = [
        (samples[0], samples[1], samples[2]),
        (samples[7], samples[1], samples[0]),
        (samples[0], samples[10], samples[1]),
        (samples[11], samples[12], samples[0]),
        (samples[1], samples[1], samples[7]),
    ]
    for i, (u, v, w) in enumerate(triples):
        if weak_commutativity_order(u, v, w, window=1, max_order=10) is None:
            failures.append(("weak commutativity", i))

    k3_classes = [
        PlClass(unit_class(K3, DimVector({"v": 1}))),
        PlClass(unit_class(K3, DimVector({"w": 1}))),
        PlClass(unit_class(K3, DimVector({"v": 1, "w": 1}))),
        PlClass(_mono_class(K3, {"v": 1}, _c("v"), 2)),
        PlClass(_mono_class(K3, {"w": 1}, _c("w"), 2)),
    ]
    pairs = list(itertools.combinations(range(len(k3_classes)), 2))[:10]
    for i, j in pairs:
        x, y = k3_classes[i], k3_classes[j]
        if not pl_equal(lie_bracket(x, y), lie_bracket(y, x).scale(-1)):
            failures.append(("antisymmetry", i, j))
    some_triples = list(itertools.combinations(range(len(k3_classes)), 3))[:10]
    for i, j, k in some_triples:
        x, y, z = k3_classes[i], k3_classes[j], k3_classes[k]
        acc = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        if not pl_is_zero(acc):
            failures.append(("jacobi", i, j, k))
    _report(8, "vertex algebra axioms", failures, started, 300.0)


def test_09_dual_procedure_agreement():
    started = time.monotonic()
    failures = []
    for d in _range_vectors(K3.vertices, 3):
        ring = ChernRing((d,))
        for degree in range(0, 10, 2):
            classes = [
                PlClass(HClass(K3, ring, degree, {m: Fraction(1)}))
                for m in monomial_basis(ring, degree // 2)
            ]
            if len(classes) > 1:
                mixed = {
                    m: Fraction(i + 1)
                    for i, m in enumerate(monomial_basis(ring, degree // 2))
                }
                classes.append(PlClass(HClass(K3, ring, degree, mixed)))
            coords = [canonical_coordinates(x) for x in classes]
            for i, j in itertools.combinations_with_replacement(range(len(classes)), 2):
                if pl_equal(classes[i], classes[j]) != (coords[i] == coords[j]):
                    failures.append((d, degree, i, j))
    _report(9, "dual zero procedures agree", failures, started, 60.0)


def test_10_reference_slope_independence():
    # invariant transforms the unit classes from one increasing slope; the
    # increasing tables of two increasing slopes must transform to it too.
    # On two vertices every increasing slope orders the subvectors of d
    # alike, so only the 3-vertex quiver compares different u-coefficients.
    started = time.monotonic()
    failures = []
    q3 = Quiver(["a", "b", "c"], [("x", "a", "b"), ("y", "a", "c"), ("z", "b", "c")])
    cases = [
        (K3, {"v": -2, "w": 5}, _range_vectors(K3.vertices, 4),
         [{"v": 1, "w": 0}, {"v": 0, "w": 1}]),
        (q3, {"a": 0, "b": 5, "c": 6}, subvectors(DimVector({"a": 2, "b": 1, "c": 2})),
         [{"a": 2, "b": 1, "c": 0}, {"a": 1, "b": 0, "c": 2}]),
    ]
    reordered = 0
    for q, weights, vectors, slopes in cases:
        refs = (reference_increasing_slope(q), slope_stability(q, weights))
        for tau in [slope_stability(q, mu) for mu in slopes] + [trivial_stability()]:
            for d in vectors:
                a, b = (
                    wallcross_transform(
                        q, InvariantTable(q, ref, {e: invariant_increasing(q, ref, e)
                                                   for e in subvectors(d)}), tau, d)
                    for ref in refs
                )
                if not (pl_equal(a, b) and pl_equal(a, invariant(q, tau, d))):
                    failures.append((repr(tau), d))
                ranks = {invariants._order_condition(ref, d) for ref in refs}
                reordered += q is q3 and len(ranks) > 1
    if not reordered:
        failures.append("the 3-vertex references order the subvectors of d alike")
    _report(10, "reference slope independence", failures, started, 60.0)
