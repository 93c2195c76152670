import itertools
import json
import random
from math import prod

import pytest
from hypothesis import given, strategies as st

from quiverinv.quiver import (
    CycleError,
    DimVector,
    Quiver,
    StructureError,
    all_decompositions,
    binarize_quiver,
    decompositions,
    edge_deletion_morphism,
    euler_form,
    frame_quiver,
    sign_epsilon,
    subvectors,
    sym_euler_form,
    unit_vector,
)

from . import oracles


def q_of(j):
    return Quiver.from_json(j)


A2 = q_of(oracles.a2_json())
K2 = q_of(oracles.kronecker_json(2))
K3 = q_of(oracles.kronecker_json(3))
T4 = q_of(oracles.tree4_json())
C3 = q_of(oracles.cyclic3_json())

small_entry = st.integers(min_value=0, max_value=5)


def dimvec_on(q):
    return st.fixed_dictionaries({v: small_entry for v in q.vertices}).map(DimVector)


# ---------------------------------------------------------------------------
# dimension vectors

def test_dimvector_basics():
    d = DimVector({"v": 2, "w": 0, "u": 1})
    assert d.items() == (("u", 1), ("v", 2))  # zeros dropped, sorted
    assert d["v"] == 2 and d["missing"] == 0
    assert d.total() == 3
    assert d.support() == ("u", "v")
    assert not d.is_zero() and d.is_effective()
    assert DimVector({}).is_zero()
    assert unit_vector("v").as_unit() == "v"
    assert d.as_unit() is None


@given(dimvec_on(K3), dimvec_on(K3), st.integers(min_value=0, max_value=4))
def test_dimvector_arithmetic(d, e, k):
    assert (d + e).total() == d.total() + e.total()
    assert (d + e) - e == d
    assert k * d == DimVector({v: k * d[v] for v in "vw"})


def test_dimvector_sum_matches_constructor():
    # sums and differences skip the validating constructor; they must
    # still equal it, dropping entries that cancel to zero
    rng = random.Random(41)
    cancelled = set()
    for _ in range(300):
        a, b = (
            DimVector({v: rng.randint(-2, 2) for v in rng.sample("uvwxy", rng.randint(0, 5))})
            for _ in range(2)
        )
        for got, want in (
            (a + b, DimVector(list(a.items()) + list(b.items()))),
            (a - b, DimVector(list(a.items()) + [(v, -n) for v, n in b.items()])),
        ):
            assert got == want and got.items() == want.items() and hash(got) == hash(want)
            assert all(n for _, n in got.items())
        for sign in (1, -1):
            if any(a[v] and a[v] + sign * b[v] == 0 for v in a.support()):
                cancelled.add(sign)
    assert cancelled == {1, -1}


def test_dimvector_json():
    d = DimVector({"v": 1, "w": 3})
    assert DimVector.from_json(d.to_json()) == d
    with pytest.raises((StructureError, ValueError)):
        DimVector.from_json({"v": -1})
    with pytest.raises((StructureError, ValueError)):
        DimVector.from_json(["v", 1])


def test_subvector_order():
    d = DimVector({"v": 2, "w": 1})
    subs = subvectors(d)
    assert DimVector({}) not in subs
    assert d in subs
    assert len(subs) == 2 * 3 - 1  # (2+1)(1+1) - zero
    totals = [s.total() for s in subs]
    assert totals == sorted(totals)  # graded enumeration


@pytest.mark.parametrize(
    "d", [{}, {"v": 3}, {"v": 2, "w": 1}, {"w": 1, "v": 4}, {"a": 2, "c": 1, "b": 3, "z": 1}]
)
def test_subvectors_match_the_validating_constructor(d):
    # subvectors skips the validating constructor; items, order and hashes
    # must be those of vectors built through it
    d = DimVector(d)
    supp = d.support()
    want = [
        DimVector(dict(zip(supp, combo)))
        for combo in itertools.product(*(range(d[v] + 1) for v in supp))
    ]
    want = sorted((e for e in want if not e.is_zero()), key=DimVector.sort_key)
    got = subvectors(d)
    assert [e.items() for e in got] == [e.items() for e in want]
    assert [hash(e) for e in got] == [hash(e) for e in want]
    assert len(got) == len(set(got)) == prod(d[v] + 1 for v in supp) - 1


# ---------------------------------------------------------------------------
# quivers

def test_quiver_construction_and_queries():
    assert A2.vertices == ("v", "w")
    assert A2.arrows("v", "w") == 1
    assert K3.arrows("v", "w") == 3
    assert K3.arrows("w", "v") == 0
    assert A2.edge("e1").source == "v"
    with pytest.raises(StructureError):
        Quiver(["v"], [("e1", "v", "x")])  # unknown vertex
    with pytest.raises(StructureError):
        Quiver(["v", "w"], [("e", "v", "w"), ("e", "v", "w")])  # dup id
    with pytest.raises(StructureError):
        Quiver(["v", "v"], [])


def test_quiver_json_roundtrip():
    for q in (A2, K3, T4, C3):
        assert Quiver.from_json(q.to_json()) == q
    # round trip is byte stable
    s1 = json.dumps(T4.to_json(), sort_keys=True)
    s2 = json.dumps(Quiver.from_json(T4.to_json()).to_json(), sort_keys=True)
    assert s1 == s2


def _is_acyclic(q):
    try:
        q.topological_order()
    except CycleError:
        return False
    return True


def test_acyclicity_matches_dfs_oracle():
    for j in (oracles.a2_json(), oracles.kronecker_json(1),
              oracles.kronecker_json(3), oracles.tree4_json(),
              oracles.cyclic3_json()):
        assert _is_acyclic(q_of(j)) == (not oracles.has_cycle_oracle(j))


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=0, max_size=8))
def test_acyclicity_random_graphs(pairs):
    verts = [f"n{i}" for i in range(5)]
    edges = [{"id": f"e{k}", "from": verts[a], "to": verts[b]}
             for k, (a, b) in enumerate(pairs)]
    j = {"vertices": verts, "edges": edges}
    assert _is_acyclic(q_of(j)) == (not oracles.has_cycle_oracle(j))


def test_topological_order():
    order = T4.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    for e in T4.edges:
        assert pos[e.source] < pos[e.target]
    with pytest.raises(CycleError):
        C3.topological_order()
    loop = Quiver(["v"], [("e", "v", "v")])
    with pytest.raises(CycleError):
        loop.topological_order()


def test_check_dimvec():
    with pytest.raises(StructureError):
        A2.check_dimvec(DimVector({"x": 1}))
    assert A2.check_dimvec(DimVector({"v": 1})) == DimVector({"v": 1})


# ---------------------------------------------------------------------------
# bilinear forms

def test_euler_frozen_values():
    d = DimVector({"v": 2, "w": 3})
    assert euler_form(K3, d, d) == int(oracles.K3_EULER_D23["chi_Q"])
    assert sym_euler_form(K3, d, d) == int(oracles.K3_EULER_D23["chi"])
    assert sign_epsilon(K3, d, d) == int(oracles.K3_EULER_D23["epsilon"])
    assert euler_form(A2, unit_vector("v"), unit_vector("w")) == oracles.A2_UNIT_CHI


@given(dimvec_on(T4), dimvec_on(T4))
def test_euler_matches_oracle_tree(d, e):
    assert euler_form(T4, d, e) == oracles.euler_form_oracle(
        oracles.tree4_json(), dict(d.items()), dict(e.items()))


@given(dimvec_on(K3), dimvec_on(K3), dimvec_on(K3))
def test_euler_bilinear(d, e, f):
    assert euler_form(K3, d + e, f) == euler_form(K3, d, f) + euler_form(K3, e, f)
    assert euler_form(K3, f, d + e) == euler_form(K3, f, d) + euler_form(K3, f, e)
    assert sym_euler_form(K3, d, e) == sym_euler_form(K3, e, d)


# ---------------------------------------------------------------------------
# morphisms

def test_edge_deletion_morphism():
    m = edge_deletion_morphism(K3, ["a1"])
    assert m.source == K3
    assert m.target.arrows("v", "w") == 2
    assert m.vertex_map == {"v": "v", "w": "w"}
    assert m.unmatched_edge_ids == ("a1",)
    assert m.pushforward(DimVector({"v": 1, "w": 2})) == DimVector({"v": 1, "w": 2})
    with pytest.raises(StructureError):
        edge_deletion_morphism(K3, ["nope"])


def test_morphism_unique_lifting_validation():
    # two source edges mapping to one target edge with the same endpoints
    # breaks unique lifting and must be rejected
    src = Quiver(["v", "w"], [("s1", "v", "w"), ("s2", "v", "w")])
    with pytest.raises(StructureError):
        from quiverinv.quiver import QuiverMorphism
        QuiverMorphism(src, A2, {"v": "v", "w": "w"},
                       [("s1", "e1"), ("s2", "e1")])


def test_correction_form_exact_identity():
    # pushforward along a morphism changes the bilinear form by the
    # correction term, exactly as integers
    cases = []
    m1 = edge_deletion_morphism(K2, ["a0"])
    cases.append(m1)
    split, collapse, _ones = binarize_quiver(K2, DimVector({"v": 2, "w": 1}))
    cases.append(collapse)
    for m in cases:
        for d_items in ({"v": 1, "w": 1}, {"v": 2, "w": 1}, {"v": 1, "w": 2}):
            for e_items in ({"v": 1, "w": 1}, {"v": 2, "w": 2}):
                d = DimVector({k: v for k, v in d_items.items()
                               if m.source.has_vertex(k)})
                e = DimVector({k: v for k, v in e_items.items()
                               if m.source.has_vertex(k)})
                if m is collapse:
                    # lift to the split quiver: spread entries over copies
                    d = DimVector({v: 1 for v in m.source.vertices})
                    e = DimVector({v: 1 for v in m.source.vertices})
                lhs = euler_form(m.target, m.pushforward(d), m.pushforward(e))
                rhs = euler_form(m.source, d, e) + oracles.correction_form(m, d, e)
                assert lhs == rhs


def test_frame_quiver():
    framed, inc = frame_quiver(A2, {"v": 1, "w": 2})
    assert "inf" in framed.vertices
    assert framed.arrows("inf", "v") == 1
    assert framed.arrows("inf", "w") == 2
    assert inc.source == A2 and inc.target == framed
    assert inc.pushforward(DimVector({"v": 1})) == DimVector({"v": 1})
    # ids the quiver already uses are not taken: the framing gets fresh ones
    clash = Quiver(["inf", "inf_1", "w"], [("e1", "inf", "w"), ("fr_w_1", "inf_1", "w")])
    framed, inc = frame_quiver(clash, {"w": 2})
    assert set(framed.vertices) - set(clash.vertices) == {"inf_2"}
    assert {e.id for e in framed.edges} - set(clash.edge_ids()) == {"fr_w_1_1", "fr_w_2"}
    assert framed.arrows("inf_2", "w") == 2 and framed.arrows("inf", "w") == 1
    assert inc.target == framed


def test_binarize_quiver():
    d = DimVector({"v": 2, "w": 1})
    split, collapse, ones = binarize_quiver(K2, d)
    assert len(split.vertices) == 3
    assert all(ones[v] == 1 for v in split.vertices)
    assert collapse.pushforward(ones) == d
    # each original edge fans out over the vertex copies
    assert len(split.edges) == 2 * 2 * 1


# ---------------------------------------------------------------------------
# decompositions

@given(dimvec_on(K2).filter(lambda d: 0 < d.total() <= 5),
       st.integers(min_value=1, max_value=4))
def test_decomposition_counts(d, n):
    got = sum(1 for _ in decompositions(d, n))
    assert got == oracles.tuple_count_oracle(dict(d.items()), n)


def test_all_decompositions_cover():
    d = DimVector({"v": 1, "w": 2})
    seen = list(all_decompositions(d))
    assert all(sum(parts[1:], parts[0]) == d for parts in seen)
    assert len(set(seen)) == len(seen)
    total = sum(oracles.tuple_count_oracle({"v": 1, "w": 2}, n)
                for n in range(1, 4))
    assert len(seen) == total
