import copy
import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

from quiverinv import charclass, vertexalg
from quiverinv.charclass import (
    ChernRing,
    monomial_basis,
    monomial_weight,
    mul_trunc,
    power_trunc,
    weight_part,
)
from quiverinv.quiver import (
    DimVector,
    Quiver,
    binarize_quiver,
    edge_deletion_morphism,
    frame_quiver,
    sign_epsilon,
    sym_euler_form,
    unit_vector,
)
from quiverinv.vertexalg import (
    HClass,
    PlClass,
    canonical_coordinates,
    cap,
    direct_sum_pushforward,
    divided_translation,
    is_translation_image,
    kunneth,
    lie_bracket,
    merge_pushforward,
    pl_equal,
    pl_is_zero,
    state_field,
    unit_class,
    unit_pl,
    vacuum,
    weight_zero_basis,
    zero_class,
    zero_pl,
)

from . import oracles
from .oracles import field_window, gen, weak_commutativity_order

A2 = Quiver.from_json(oracles.a2_json())
K2 = Quiver.from_json(oracles.kronecker_json(2))
K3 = Quiver.from_json(oracles.kronecker_json(3))
T4 = Quiver.from_json(oracles.tree4_json())
A3 = Quiver.from_json({"vertices": ["a", "b", "c"], "edges": [
    {"id": "e1", "from": "a", "to": "b"},
    {"id": "e2", "from": "a", "to": "b"},
    {"id": "e3", "from": "b", "to": "c"},
]})


def mono_class(q, d, mono, degree, coeff=1):
    ring = ChernRing((DimVector(d),))
    return HClass(q, ring, degree, {mono: Fraction(coeff)})


def c1(v):
    return (((0, v, 1), 1),)


def test_hclass_degree_validation():
    ring = ChernRing((DimVector({"v": 1}),))
    with pytest.raises(ValueError):
        HClass(A2, ring, 4, {c1("v"): Fraction(1)})  # weight 1 vs degree 4
    with pytest.raises(ValueError):
        HClass(A2, ring, 3, {c1("v"): Fraction(1)})  # odd degree
    with pytest.raises(ValueError):
        HClass(A2, ring, -2, {(): Fraction(1)})
    with pytest.raises(ValueError):
        HClass(A2, ring, 4, {(((0, "v", 2), 1),): Fraction(1)})  # rank 1 at v
    with pytest.raises(ValueError):
        HClass(A2, ring, 2, {(((0, "w", 1), 1),): Fraction(1)})  # w not in d
    assert HClass(A2, ring, -2, {}).is_zero()
    assert HClass(A2, ring, 2, {c1("v"): Fraction(0)}).is_zero()


def test_kunneth_and_cap():
    u = mono_class(K3, {"v": 1}, c1("v"), 2, 3)
    v = mono_class(K3, {"w": 2}, c1("w"), 2, 5)
    uv = kunneth(u, v)
    assert uv.degree == 4
    pair_ring = uv.ring
    a, b = gen((0, "v", 1)), gen((1, "w", 1))
    assert uv.pair(mul_trunc(a, b)) == 15
    assert uv.pair(mul_trunc(a, a)) == 0
    # cap factors through the pairing: (u cap p)(m) = u(p m)
    capped = cap(uv, a)
    assert capped.degree == 2
    assert capped.pair(b) == 15
    assert cap(capped, b).pair({(): 1}) == 15
    with pytest.raises(ValueError):
        cap(uv, {**a, **mul_trunc(a, b)})  # not homogeneous
    assert cap(uv, {}).is_zero()


def test_cap_and_pair_take_dicts_in_the_class_ring():
    # a polynomial is a {Monomial: coefficient} dict with int or Fraction
    # values; its generators are checked against the class's ring
    uv = kunneth(mono_class(K3, {"v": 1}, c1("v"), 2, 3), mono_class(K3, {"w": 2}, c1("w"), 2, 5))
    a, b = (((0, "v", 1), 1),), (((1, "w", 1), 1),)
    ab = (a[0], b[0])
    for outside in [(0, "v", 2), (0, "w", 1), (1, "v", 1), (1, "w", 3), (2, "v", 1)]:
        for p in [gen(outside), {a: 1, ((outside, 1),): 0}]:
            with pytest.raises(ValueError, match="out of range|no factor"):
                uv.pair(p)
            with pytest.raises(ValueError, match="out of range|no factor"):
                cap(uv, p)
    for p in [{a: 1, (): 1}, {a: 1, ab: Fraction(1, 2)}]:
        with pytest.raises(ValueError, match="homogeneous"):
            cap(uv, p)
    assert uv.pair({ab: 2}) == uv.pair({ab: Fraction(2)}) == 30
    assert uv.pair({ab: Fraction(1, 3), (): 7}) == 5
    assert cap(uv, {a: 2}) == cap(uv, {a: Fraction(2)}) == cap(uv, {a: 1}).scale(2)
    assert cap(uv, {a: Fraction(1, 3), b: 2}) == cap(uv, {a: 1}).scale(Fraction(1, 3)) + cap(uv, {b: 2})
    assert cap(uv, {a: 1, (): 0}) == cap(uv, {a: 1})  # a zero value is no term
    assert cap(uv, {a: 0}).is_zero() and cap(uv, {a: 0}).degree == uv.degree
    # off-degree parts pair to 0 however large their exponents: they are never packed
    assert unit_class(A2, DimVector({"v": 1})).pair({(): 1, (((0, "v", 1), 200),): 1}) == 1


def test_divided_translation_frozen_pairings():
    for (v1, n1, v2, n2), want in oracles.D1_UNIT_PAIRINGS.items():
        d = DimVector({v1: n1, v2: n2})
        u = unit_class(K2, d)
        du = divided_translation(u, 1)
        ring = du.ring
        for vtx, val in want.items():
            assert du.pair(gen((0, vtx, 1))) == val


@pytest.mark.parametrize("dims", [
    ({"v": 2},),
    ({"v": 2, "w": 1},),
    ({"v": 3, "w": 2},),
    ({"v": 2, "w": 1}, {"v": 1, "w": 2}),  # only factor 0 translates
])
def test_translation_matches_substitution_oracle(dims):
    ring = ChernRing(tuple(DimVector(d) for d in dims))
    ranks = {(f, v): n for f, d in enumerate(dims) for v, n in d.items()}
    top, max_j = 5, 4
    expected = {}
    for w in range(top + max_j + 1):
        for m in monomial_basis(ring, w):
            expected[m] = oracles.substitution_coaction_oracle(ranks, m)
    # divided_translation(u, j) is the transpose of the z^j component: at
    # the class 1 at s, its value at m is the coefficient of s in the z^j
    # component of m
    for w in range(top + 1):
        for s in monomial_basis(ring, w):
            u = HClass(A2, ring, 2 * w, {s: Fraction(1)})
            for j in range(max_j + 1):
                want = {m: expected[m][j][s] for m in monomial_basis(ring, w + j)
                        if s in expected[m].get(j, ())}
                assert divided_translation(u, j).functional == want
    rng = random.Random(5)
    for w in range(top + 1):
        u = HClass(A2, ring, 2 * w, {
            m: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for m in monomial_basis(ring, w)
        })
        for j in range(max_j + 1):
            want = {}
            for m in monomial_basis(ring, w + j):
                val = sum(
                    (c * u.functional.get(s, 0) for s, c in expected[m].get(j, {}).items()),
                    Fraction(0),
                )
                if val:
                    want[m] = val
            got = divided_translation(u, j)
            assert got.degree == 2 * (w + j)
            assert got.functional == want


def test_divided_powers_compose():
    # D^(1) twice is 2 D^(2)
    samples = [
        unit_class(K3, DimVector({"v": 1, "w": 1})),
        mono_class(K3, {"v": 2, "w": 1}, c1("v"), 2),
        mono_class(T4, {"a": 1, "b": 1}, c1("b"), 2),
    ]
    for u in samples:
        twice = divided_translation(divided_translation(u, 1), 1)
        d2 = divided_translation(u, 2)
        assert twice.functional == d2.scale(2).functional
        d3 = divided_translation(u, 3)
        thrice = divided_translation(twice, 1)
        assert thrice.functional == d3.scale(6).functional


def test_pushforward_of_unit_pair_is_unit():
    for q, d, e in [
        (A2, DimVector({"v": 1}), DimVector({"w": 1})),
        (K3, DimVector({"v": 1, "w": 1}), DimVector({"v": 1})),
        (T4, DimVector({"a": 1}), DimVector({"b": 1, "c": 1})),
    ]:
        got = direct_sum_pushforward(kunneth(unit_class(q, d), unit_class(q, e)))
        assert got == unit_class(q, d + e)


def test_vacuum_acts_as_identity():
    # the field of the vacuum is the identity at power zero, nothing else
    samples = [
        unit_class(K3, DimVector({"v": 1, "w": 2})),
        mono_class(K3, {"v": 1}, c1("v"), 2),
        mono_class(A2, {"v": 1, "w": 1}, c1("w"), 2),
    ]
    for v in samples:
        out = state_field(vacuum(v.quiver), v, range(-3, 4))
        for p, cls in out.items():
            if p == 0:
                assert cls.functional == v.functional and cls.degree == v.degree
            else:
                assert cls.is_zero()


def test_creation_axiom():
    # acting on the vacuum exponentiates the translation: z^p picks D^(p)
    samples = [
        unit_class(K3, DimVector({"v": 1, "w": 1})),
        mono_class(K3, {"w": 2}, c1("w"), 2),
        mono_class(T4, {"a": 1, "b": 1}, c1("a"), 2),
    ]
    for u in samples:
        out = state_field(u, vacuum(u.quiver), range(-3, 4))
        for p, cls in out.items():
            if p < 0:
                assert cls.is_zero()
            else:
                want = divided_translation(u, p)
                assert cls.functional == want.functional and cls.degree == want.degree


def test_translation_derivative_identity():
    # the field of a translated class is the z-derivative of the field
    cases = [
        (unit_class(K3, DimVector({"v": 1})), unit_class(K3, DimVector({"w": 1}))),
        (mono_class(K3, {"v": 1}, c1("v"), 2), unit_class(K3, DimVector({"w": 1}))),
        (
            mono_class(K3, {"v": 1}, c1("v"), 2),
            mono_class(K3, {"w": 2}, c1("w"), 2),
        ),
        (
            unit_class(T4, DimVector({"a": 1, "b": 1})),
            mono_class(T4, {"b": 1, "c": 1}, c1("b"), 2),
        ),
    ]
    for u, v in cases:
        du = divided_translation(u, 1)
        for p in range(-3, 3):
            lhs = state_field(du, v, (p,))[p]
            rhs = state_field(u, v, (p + 1,))[p + 1].scale(p + 1)
            assert lhs.functional == rhs.functional and lhs.degree == rhs.degree


def unit_bracket_direct(q, e, f):
    """Unit brackets have a one-term closed form: when the symmetrized
    form is negative, push forward the (-chi-1)-th divided translation of
    the unit pair, with the epsilon sign; otherwise zero."""
    chi = sym_euler_form(q, e, f)
    degree = -2 - 2 * chi
    if chi >= 0:
        return zero_pl(q, e + f, degree)
    pair = kunneth(unit_class(q, e), unit_class(q, f))
    pushed = direct_sum_pushforward(divided_translation(pair, -chi - 1))
    return PlClass(pushed.scale(sign_epsilon(q, e, f)))


def test_unit_brackets_match_direct_formula():
    for q in (A2, K2, K3, T4):
        units = [unit_vector(v) for v in q.vertices]
        pool = units + [a + b for a, b in itertools.combinations(units, 2)]
        for e, f in itertools.product(pool, repeat=2):
            got = lie_bracket(unit_pl(q, e), unit_pl(q, f))
            want = unit_bracket_direct(q, e, f)
            assert got.rep == want.rep


def _sample_classes(q, vertices):
    """Units and simple degree-2 classes on small vectors."""
    out = []
    for v in vertices:
        d = unit_vector(v)
        out.append(PlClass(unit_class(q, d)))
        out.append(PlClass(mono_class(q, {v: 1}, c1(v), 2)))
    return out


def test_bracket_antisymmetry():
    xs = _sample_classes(K3, ["v", "w"]) + [
        PlClass(unit_class(K3, DimVector({"v": 1, "w": 1})))
    ]
    for x, y in itertools.product(xs, repeat=2):
        assert pl_equal(lie_bracket(x, y), lie_bracket(y, x).scale(-1))
    for x in xs:
        assert pl_is_zero(lie_bracket(x, x))


def test_bracket_jacobi():
    xs = _sample_classes(K3, ["v", "w"])
    triples = list(itertools.product(xs, repeat=3))[:12]
    for x, y, z in triples:
        acc = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert pl_is_zero(acc)


def test_is_translation_image():
    u = unit_class(K3, DimVector({"v": 1, "w": 1}))
    assert not is_translation_image(u)
    for j in (1, 2):
        assert is_translation_image(divided_translation(u, j))
    x = mono_class(K3, {"v": 1, "w": 1}, c1("v"), 2)
    assert is_translation_image(divided_translation(x, 1))
    # difference of the two degree-2 monomial functionals is weight zero
    # dual, not a translation image
    y = mono_class(K3, {"v": 1, "w": 1}, c1("w"), 2)
    assert not is_translation_image(x - y)
    assert is_translation_image(x + y)  # image of the unit, rank 1 + 1


def test_pl_equal_agrees_with_canonical_coordinates():
    ring_dims = DimVector({"v": 1, "w": 1})
    qring = ChernRing((ring_dims,))
    for degree in (0, 2, 4):
        basis = monomial_basis(qring, degree // 2)
        classes = [
            PlClass(HClass(K3, qring, degree, {m: Fraction(1)})) for m in basis
        ]
        classes.append(
            PlClass(HClass(K3, qring, degree, {m: Fraction(i + 1) for i, m in enumerate(basis)}))
        )
        for x, y in itertools.product(classes, repeat=2):
            assert pl_equal(x, y) == (
                canonical_coordinates(x) == canonical_coordinates(y)
            )
    # translation images have all-zero coordinates
    u = unit_class(K3, ring_dims)
    img = PlClass(divided_translation(u, 1))
    assert canonical_coordinates(img) == [Fraction(0)] * len(
        weight_zero_basis(qring, 1)
    )
    assert pl_is_zero(img)


def test_weight_zero_basis_shape():
    for d in ({"v": 1, "w": 1}, {"v": 2, "w": 1}):
        qring = ChernRing((DimVector(d),))
        ranks = {(0, v): n for v, n in d.items()}
        for w in range(4):
            basis = weight_zero_basis(qring, w)
            n_w = len(monomial_basis(qring, w))
            n_lower = len(monomial_basis(qring, w - 1)) if w else 0
            assert len(basis) == n_w - n_lower
            # in ker D: each vector pairs to zero with the z^1 component of
            # the substitution oracle at every monomial of weight w - 1
            for p in basis:
                image = {}
                for m, c in p.items():
                    for s, y in oracles.substitution_coaction_oracle(ranks, m).get(1, {}).items():
                        image[s] = image.get(s, 0) + c * y
                assert not any(image.values())


ORACLE_RINGS = {
    **{f"K3-{a}-{b}": (K3, {"v": a, "w": b}) for a in (1, 2, 3) for b in (1, 2, 3)},
    "T4-1-2-1": (T4, {"a": 1, "b": 2, "c": 1}),
}


def _oracle_args(d, weight):
    ring = ChernRing((DimVector(d),))
    ranks = {(0, v): n for v, n in d.items()}
    return ring, ranks, monomial_basis(ring, weight), monomial_basis(ring, weight - 1)


ZERO_TEST_RINGS = {
    **{name: ORACLE_RINGS[name] for name in ("K3-2-2", "K3-3-2", "T4-1-2-1")},
    "A3-2-1-1": (A3, {"a": 2, "b": 1, "c": 1}),
}


@pytest.mark.parametrize("name", sorted(ORACLE_RINGS.keys() | ZERO_TEST_RINGS.keys()))
def test_weight_zero_basis_matches_sympy_oracle(name):
    _, d = {**ORACLE_RINGS, **ZERO_TEST_RINGS}[name]
    for weight in range(11):
        ring, ranks, basis, lower = _oracle_args(d, weight)
        want = oracles.weight_zero_rref_oracle(ranks, basis, lower)
        assert weight_zero_basis(ring, weight) == tuple(want)


def _random_functional(rng, basis):
    return {m: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for m in basis}


@pytest.mark.parametrize("name", list(ZERO_TEST_RINGS))
def test_is_translation_image_matches_rank_oracle(name):
    q, d = ZERO_TEST_RINGS[name]
    rng = random.Random(7)
    verdicts = set()
    for weight in range(1, 6):
        ring, ranks, basis, lower = _oracle_args(d, weight)
        for _ in range(4):
            w = divided_translation(
                HClass(q, ring, 2 * weight - 2, _random_functional(rng, lower)), 1
            )
            kind = rng.randrange(3)  # image, image plus one unit, random class
            if kind == 1:
                w = w + HClass(q, ring, 2 * weight, {rng.choice(basis): Fraction(1)})
            elif kind == 2:
                w = HClass(q, ring, 2 * weight, _random_functional(rng, basis))
            want = oracles.translation_image_oracle(ranks, basis, lower, w.functional)
            assert is_translation_image(w) == want
            verdicts.add(want)
    assert verdicts == {True, False}
    # values over 3, 5 and 7 at once, which the test clears by their lcm
    rng = random.Random(13)
    verdicts = set()
    for weight in range(1, 6):
        ring, ranks, basis, lower = _oracle_args(d, weight)
        for off_image in (False, True):
            x = HClass(q, ring, 2 * weight - 2, {
                m: Fraction(rng.choice((-2, -1, 1, 2)), (3, 5, 7)[c % 3])
                for c, m in enumerate(lower)
            })
            w = divided_translation(x, 1)
            if off_image:
                w = w + HClass(q, ring, 2 * weight, {rng.choice(basis): Fraction(1, 7)})
            want = oracles.translation_image_oracle(ranks, basis, lower, w.functional)
            assert is_translation_image(w) == want
            if len({c.denominator for c in w.functional.values()} - {1}) > 1:
                verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["K3-2-2", "K3-3-3", "T4-1-2-1"])
def test_images_accepted_and_unit_off_image_rejected(name):
    q, d = ORACLE_RINGS[name]
    rng = random.Random(11)
    for weight in range(1, 7):
        ring, _, basis, lower = _oracle_args(d, weight)
        image = divided_translation(
            HClass(q, ring, 2 * weight - 2, _random_functional(rng, lower)), 1
        )
        assert is_translation_image(image)
        # the leading monomial of a weight-zero vector pairs to 1 with it,
        # and images pair to 0, so a unit there is off the image
        for p in weight_zero_basis(ring, weight):
            unit = HClass(q, ring, 2 * weight, {min(p): Fraction(1)})
            assert not is_translation_image(image + unit)


CANONICAL_CASES = {
    "K3-1-1-w2": (K3, {"v": 1, "w": 1}, 2),
    "K3-2-1-w3": (K3, {"v": 2, "w": 1}, 3),
    "K3-3-3-w6": (K3, {"v": 3, "w": 3}, 6),
    "K3-3-3-w10": (K3, {"v": 3, "w": 3}, 10),
    "K3-4-3-w12": (K3, {"v": 4, "w": 3}, 12),
    "A3-2-1-1-w4": (A3, {"a": 2, "b": 1, "c": 1}, 4),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
def test_canonical_coordinates_match_weight_zero_basis(name):
    # reduction by the echelon of translation images against the pairings
    # with the dense rref kernel basis they replace
    q, d, weight = CANONICAL_CASES[name]
    rng = random.Random(41)
    ring = ChernRing((DimVector(d),))
    basis = monomial_basis(ring, weight)
    reference = weight_zero_basis(ring, weight)
    nonzero = False
    for _ in range(3):
        x = PlClass(HClass(q, ring, 2 * weight, _random_functional(rng, basis)))
        coords = canonical_coordinates(x)
        assert coords == [x.rep.pair(p) for p in reference]
        nonzero |= any(coords)
    assert nonzero
    lower = monomial_basis(ring, weight - 1)
    for _ in range(3):
        y = HClass(q, ring, 2 * weight - 2, _random_functional(rng, lower))
        image = PlClass(divided_translation(y, 1))
        assert canonical_coordinates(image) == [Fraction(0)] * len(reference)
    # same pivot rule: the echelon's pivots are the basis's non-free columns
    _, steps, free = vertexalg._translation_echelon(ring, weight)
    assert all(type(y) is int for _, prow in steps for y in prow.values())
    reference_free = [basis.index(min(p)) for p in reference]
    assert free == reference_free
    assert {p for p, _ in steps} == set(range(len(basis))) - set(reference_free)


SYMPY_COORDINATE_CASES = {
    "K3-2-2": (K3, {"v": 2, "w": 2}, (1, 2, 3, 4, 5)),
    "K3-3-2": (K3, {"v": 3, "w": 2}, (3, 6)),
    "T4-1-2-1": (T4, {"a": 1, "b": 2, "c": 1}, (2, 4)),
    "A3-2-1-1": (A3, {"a": 2, "b": 1, "c": 1}, (3, 5)),
}


@pytest.mark.parametrize("name", sorted(SYMPY_COORDINATE_CASES))
def test_canonical_coordinates_match_sympy_pairings(name):
    # the runtime coordinates against pairings with sympy's rref kernel of D,
    # whose matrix of D shares no code with the package
    q, d, weights = SYMPY_COORDINATE_CASES[name]
    rng = random.Random(53)
    for weight in weights:
        ring, ranks, basis, lower = _oracle_args(d, weight)
        rows = oracles.weight_zero_rref_oracle(ranks, basis, lower)
        # values over 3 and 5 at once, and a class with a 3 in every denominator
        for functional in (
            {m: Fraction(rng.randint(-4, 4), (1, 3, 5)[c % 3]) for c, m in enumerate(basis)},
            {m: Fraction(rng.choice((-2, -1, 1, 2)), 3) for m in basis},
        ):
            x = PlClass(HClass(q, ring, 2 * weight, functional))
            want = [sum(c * functional[m] for m, c in row.items()) for row in rows]
            assert canonical_coordinates(x) == want and any(want)
        y = HClass(q, ring, 2 * weight - 2, {
            m: Fraction(rng.choice((-2, -1, 1, 2)), (3, 5)[c % 2]) for c, m in enumerate(lower)
        })
        image = PlClass(divided_translation(y, 1))
        assert not image.rep.is_zero()
        assert canonical_coordinates(image) == [Fraction(0)] * len(rows)


def test_canonical_coordinates_are_reduced_once_per_class(monkeypatch):
    ring = ChernRing((DimVector({"v": 3, "w": 3}),))
    rep = HClass(K3, ring, 20, _random_functional(random.Random(43), monomial_basis(ring, 10)))
    calls = []
    echelon = vertexalg._translation_echelon

    def counted(ring, weight):
        calls.append((ring, weight))
        return echelon(ring, weight)

    monkeypatch.setattr(vertexalg, "_translation_echelon", counted)
    x = PlClass(rep)
    first = canonical_coordinates(x)
    second = canonical_coordinates(x)
    assert calls == [(ring, 10)]
    assert first == second and any(first)
    first[0] += 1
    first.append(Fraction(0))
    assert second == canonical_coordinates(x) != first
    assert len(calls) == 1
    # the coordinates belong to the class, not to its ring and weight
    assert canonical_coordinates(PlClass(rep)) == second
    assert len(calls) == 2


@pytest.mark.parametrize("q", [A2, K2, K3, A3], ids=["A2", "K2", "K3", "A3"])
def test_state_field_matches_termwise_oracle(q):
    rng = random.Random(17)
    powers = range(-4, 4)
    samples = []
    for _ in range(5):
        verts = rng.sample(q.vertices, rng.randint(1, 2))
        ring = ChernRing((DimVector({x: rng.randint(1, 2) for x in verts}),))
        weight = rng.randint(0, 1)
        samples.append(HClass(q, ring, 2 * weight,
                              _random_functional(rng, monomial_basis(ring, weight))))
    pairs = [(x, y) for x in samples for y in samples if rng.random() < 0.4]
    pairs += [(vacuum(q), samples[0]), (samples[-1], vacuum(q))]
    beyond_imax = False  # some power gets no term at all: chi - p > imax
    for u, v in pairs:
        chi = sym_euler_form(q, u.dims[0], v.dims[0])
        if not (u.is_zero() or v.is_zero()):
            beyond_imax |= chi - powers[0] > (u.degree + v.degree) // 2
        assert state_field(u, v, powers) == oracles.state_field_oracle(u, v, powers)
    assert beyond_imax
    # values with unlike denominators 3 and 5, which state_field clears by their lcm
    rng = random.Random(19)
    unlike = []
    for _ in range(3):
        ring = ChernRing((DimVector({x: 1 for x in rng.sample(q.vertices, 2)}),))
        unlike.append(HClass(q, ring, 2, {
            m: Fraction(rng.choice((-7, -4, -2, -1, 1, 2, 4, 7)), (3, 5)[c % 2])
            for c, m in enumerate(monomial_basis(ring, 1))
        }))
    for u, v in [(unlike[0], unlike[1]), (unlike[1], unlike[2]), (unlike[2], samples[1])]:
        assert {x.denominator for x in u.functional.values()} == {3, 5}
        assert state_field(u, v, powers) == oracles.state_field_oracle(u, v, powers)


@pytest.mark.parametrize("q", [A2, K2, K3, A3, T4], ids=["A2", "K2", "K3", "A3", "T4"])
def test_unit_right_factor_matches_the_oracle(q):
    # a degree-0 right factor x 1_b runs on the ring of a alone (the unit
    # plan): its caps, its pushforward and its factor x against the
    # termwise oracle at every power that gets a term, and one beyond
    rng = random.Random(61)
    first, second = q.vertices[:2]  # T4's and A3's second vertex has edges in and out
    bs = [unit_vector(second), DimVector({first: 1, second: 1}), DimVector({first: 2, second: 1})]
    rights = [vacuum(q)] + [unit_class(q, b).scale(x) for b in bs for x in (1, Fraction(3, 2))]
    nonzero = 0
    for weight, n in itertools.product(range(3), (len(q.vertices), 1)):
        a = DimVector({x: rng.randint(1, 2) for x in q.vertices[:n]})  # n = 1 misses a vertex of every b
        u = _random_class(rng, q, (a,), weight, size=6)
        for v in rights:
            chi = sym_euler_form(q, a, v.dims[0])
            powers = range(-weight - abs(chi) - 1, 3)
            got = state_field(u, v, powers)
            assert got == oracles.state_field_oracle(u, v, powers), (a, v.dims[0], v.den)
            nonzero += sum(not x.is_zero() for x in got.values())
    assert nonzero and all(len(key) == 3 for key in vertexalg._PLAN_MEMO)


_RING21 = ChernRing((DimVector({"v": 2, "w": 1}),))
_BASIS21 = monomial_basis(_RING21, 2)
_VALUES = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 3, 5]))
_FUNCTIONALS = st.dictionaries(st.sampled_from(_BASIS21), _VALUES)


def _reference_sum(f, g, sign=1):
    acc = dict(f)
    for m, c in g.items():
        acc[m] = acc.get(m, 0) + sign * c
    return {m: c for m, c in acc.items() if c}


@given(_FUNCTIONALS, _FUNCTIONALS, _VALUES)
def test_packed_classes_match_fraction_dicts(f, g, c):
    # one int denominator per class, against {Monomial: Fraction} dicts
    x, y = HClass(K3, _RING21, 4, f), HClass(K3, _RING21, 4, g)
    f, g = _reference_sum(f, {}), _reference_sum(g, {})
    assert x.functional == f and y.functional == g
    assert HClass(K3, _RING21, 4, x.functional) == x
    assert (x + y).functional == _reference_sum(f, g)
    assert (x - y).functional == _reference_sum(f, g, -1)
    assert x.scale(c).functional == _reference_sum({m: c * v for m, v in f.items()}, {})
    assert (x == y) == (f == g)
    # equal classes built along different paths compare equal
    assert (x + y) - y == x == y + x - y
    assert x + x == x.scale(2) and x.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == x
    assert (x - x) == HClass(K3, _RING21, 4, {})
    poly = {m: Fraction(k + 1, 2) for k, m in enumerate(_BASIS21)}
    poly[()] = 1  # an off-degree part pairs to 0
    assert x.pair(poly) == sum((Fraction(k + 1, 2) * f.get(m, 0)
                                for k, m in enumerate(_BASIS21)), Fraction(0))


def test_packed_classes_with_denominators_three_and_five():
    # values over 3 and over 5 share the denominator 15, and no common
    # factor is left between it and the numerators
    m1, m2 = _BASIS21[:2]
    x = HClass(K3, _RING21, 4, {m1: Fraction(1, 3), m2: Fraction(2, 5)})
    assert x.den == 15 and x.num == {_RING21.pack(m1): 5, _RING21.pack(m2): 6}
    y = HClass(K3, _RING21, 4, {m1: Fraction(-1, 3), m2: Fraction(1, 5)})
    assert (x + y).den == 5 and (x + y).functional == {m2: Fraction(3, 5)}
    assert (x + y) == HClass(K3, _RING21, 4, {m2: Fraction(6, 10)}) == x.scale(3) - x.scale(2) + y


def test_bracket_with_fresh_or_reused_plans_matches_the_oracle(monkeypatch):
    # the large pair reaches imax 5 on K3, the one oracle check there
    rng = random.Random(53)
    a, b = {"v": 2, "w": 1}, {"v": 1, "w": 2}
    small = (_random_class(rng, K3, (a,), 0), _random_class(rng, K3, (b,), 1))
    large = (_random_class(rng, K3, (a,), 3), _random_class(rng, K3, (b,), 2))
    powers = range(-3, 2)
    fresh = []
    for pair in (small, large):
        monkeypatch.setattr(vertexalg, "_PLAN_MEMO", {})
        fresh.append(state_field(*pair, powers))
    monkeypatch.setattr(vertexalg, "_PLAN_MEMO", {})
    for pair, want in [(small, fresh[0]), (large, fresh[1]), (small, fresh[0])]:
        assert state_field(*pair, powers) == want
    assert fresh[1] == oracles.state_field_oracle(*large, powers)
    assert not fresh[1][-1].is_zero()


def test_bracket_plans_are_fixed_at_one_weight():
    # a plan holds its caps to one imax and is never changed: the same
    # (a, b) bracketed at a larger imax gets a plan of its own
    rng = random.Random(59)
    a, b = DimVector({"v": 2, "w": 1}), DimVector({"v": 1, "w": 2})
    x, y = (_random_class(rng, K3, (d,), 2) for d in (a, b))
    lie_bracket(unit_class(K3, a), mono_class(K3, b, c1("w"), 2))  # imax 1
    (plan,) = vertexalg._PLAN_MEMO.values()
    caps = copy.deepcopy(plan.caps)
    lie_bracket(x, y)  # imax 4
    assert vertexalg._PLAN_MEMO.keys() == {(K3, a, b, 1), (K3, a, b, 4)}
    assert vertexalg._PLAN_MEMO[K3, a, b, 1] is plan
    assert plan.caps == caps == vertexalg._BracketPlan(K3, a, b, 1).caps
    assert caps != vertexalg._PLAN_MEMO[K3, a, b, 4].caps


def _fresh_caps(q, ring, imax):
    """A plan's caps on ring, from chern_atom on that ring."""
    atoms, caps = {}, []
    for mult, atom in charclass.ext_pairing_kexpr(q):
        atoms[atom] = atoms.get(atom, 0) + mult
    for atom, mult in atoms.items():
        terms = {}
        for m, c in charclass.chern_atom(atom, ring, imax).items():  # the dict, packed term by term
            terms.setdefault(charclass.monomial_weight(m), []).append((ring.pack(m), ring.guard(), c))
        terms.pop(0, None)
        if terms and mult:
            caps.append((mult, terms))
    return caps


def test_plan_caps_equal_caps_made_through_chern_atom():
    # at every imax the caps of the plans of all these quivers, shifted from
    # atom classes in local generators, equal caps made on their own ring
    # through chern_atom
    framed_k3, _ = frame_quiver(K3, {"v": 1, "w": 2})
    binarized_k2, _, _ = binarize_quiver(K2, DimVector({"v": 2, "w": 2}))
    rng, pairs = random.Random(71), []
    for q in (A2, K2, K3, framed_k3, binarized_k2):
        while sum(p[0] is q for p in pairs) < 3:
            a, b = (DimVector({v: rng.randint(0, 2) for v in q.vertices}) for _ in range(2))
            if a and b:
                pairs.append((q, a, b))
    for imax in range(1, 7):
        for q, a, b in pairs:
            plan = vertexalg._bracket_plan(q, a, b, imax)
            assert plan.caps == _fresh_caps(q, plan.ring, imax)


def test_bracket_plan_reads_the_euler_form_once_each_way(monkeypatch):
    calls, euler = [], vertexalg.euler_form
    monkeypatch.setattr(vertexalg, "euler_form", lambda q, d, e: calls.append((d, e)) or euler(q, d, e))
    rng = random.Random(5)
    for q in (A2, K3, T4):
        for _ in range(5):
            a, b = (DimVector({v: rng.randint(0, 2) for v in q.vertices}) for _ in range(2))
            calls.clear()
            plan = vertexalg._BracketPlan(q, a, b, 2)
            assert len(calls) == 2 and set(calls) == {(a, b), (b, a)}
            assert (plan.chi, plan.eps) == (sym_euler_form(q, a, b), sign_epsilon(q, a, b))


@pytest.mark.parametrize("q", [A2, K2, K3, A3], ids=["A2", "K2", "K3", "A3"])
def test_factored_caps_match_expanded_chern_class(q):
    # entry imax - i of the atom-by-atom levels, on packed monomials, is uv
    # capped with the i-th weight part of the expanded class
    # chern_kclass(ext_pairing_kexpr)
    rng = random.Random(29)
    kexpr = charclass.ext_pairing_kexpr(q)
    assert {mult for mult, _ in kexpr} == ({2, -1} if q.edges else {2})
    rank_zero = set()  # signs of the multiplicities met with a rank-zero atom
    for _ in range(6):
        d, e = ({v: rng.randint(0, 2) for v in q.vertices} for _ in range(2))
        if not any(d.values()) or not any(e.values()):
            continue
        u = _random_class(rng, q, (d,), rng.randint(0, 3))
        v = _random_class(rng, q, (e,), rng.randint(0, 2))
        uv = kunneth(u, v)
        imax = uv.degree // 2
        rank_zero |= {m > 0 for m, a in kexpr if charclass.atom_rank(a, uv.ring) == 0}
        caps = vertexalg._bracket_plan(q, *uv.dims, imax).caps
        levels = vertexalg._ext_cap_levels(caps, uv.num, imax)
        total = charclass.chern_kclass(kexpr, uv.ring, imax)
        for i in range(imax + 1):
            ci = weight_part(total, i)
            want = zero_class(q, uv.dims, uv.degree - 2 * i) if not ci else cap(uv, ci)
            level = {uv.ring.unpack(m): Fraction(x, uv.den) for m, x in levels[imax - i].items()}
            got = HClass(q, uv.ring, uv.degree - 2 * i, level)
            assert got == want, (d, e, i)
    assert rank_zero == ({True, False} if q.edges else {True})


def test_state_field_expands_no_total_chern_class(monkeypatch):
    # a unit right factor (the unit plan) and one of positive degree
    rng = random.Random(31)
    u = _random_class(rng, K3, ({"v": 2, "w": 1},), 2)
    vs = [unit_class(K3, unit_vector("w")), _random_class(rng, K3, ({"v": 1, "w": 1},), 1)]
    wants = [oracles.state_field_oracle(u, v, range(-3, 2)) for v in vs]

    def refuse(*args):
        raise AssertionError("state_field expanded the total Chern class")

    for module in (charclass, vertexalg):  # also a name imported from charclass
        monkeypatch.setattr(module, "chern_kclass", refuse, raising=False)
    for v, want in zip(vs, wants):
        got = state_field(u, v, range(-3, 2))
        assert got == want
        assert not got[-1].is_zero()


def _random_class(rng, q, dims, weight, size=12):
    ring = ChernRing(tuple(DimVector(d) for d in dims))
    basis = monomial_basis(ring, weight)
    support = rng.sample(basis, min(size, len(basis)))
    return HClass(q, ring, 2 * weight, _random_functional(rng, support))


@pytest.mark.parametrize("q", [A2, K3, A3], ids=["A2", "K3", "A3"])
def test_direct_sum_pushforward_matches_pairing_oracle(q):
    rng = random.Random(23)
    one_sided = False  # some vertex has rank zero on one side only
    for _ in range(4):
        d, e = ({v: rng.randint(0, 2) for v in q.vertices} for _ in range(2))
        one_sided |= any(min(d[v], e[v]) == 0 < max(d[v], e[v]) for v in q.vertices)
        for weight in range(8):
            w = _random_class(rng, q, (d, e), weight)
            assert direct_sum_pushforward(w) == oracles.direct_sum_pushforward_oracle(w)
    assert one_sided


def test_merge_pushforward_matches_pairing_oracle():
    cases = [
        (binarize_quiver(K2, DimVector({"v": 2, "w": 1}))[1], None),
        (binarize_quiver(K3, DimVector({"v": 2, "w": 2}))[1], None),
        (edge_deletion_morphism(A3, ["e2"]), {"a": 2, "b": 1, "c": 1}),
        (frame_quiver(K3, {"v": 1, "w": 2})[1], {"v": 2, "w": 1}),
    ]
    rng = random.Random(29)
    for mor, d in cases:
        d = d or {v: 1 for v in mor.source.vertices}
        for weight in range(8):
            u = _random_class(rng, mor.source, (d,), weight)
            assert merge_pushforward(mor, u) == oracles.merge_pushforward_oracle(mor, u)


def _slots_per_part(functional, slots):
    """How many Whitney slots each (support monomial, target vertex) part uses."""
    where = {fv: (w, t) for w, group in slots.items() for t, fv in enumerate(group)}
    counts = set()
    for s in functional:
        used = {}
        for (f, v, _i), _e in s:
            w, t = where[(f, v)]
            used.setdefault(w, set()).add(t)
        counts |= {len(ts) for ts in used.values()}
    return counts


@pytest.mark.parametrize("q, split", [
    (A2, {"v": 2, "w": 1}), (K3, {"v": 2, "w": 2}), (A3, {"a": 2, "b": 1, "c": 2}),
], ids=["A2", "K3", "A3"])
def test_one_slot_parts_match_pairing_oracles(q, split):
    # parts in one Whitney slot skip the multiset expansion; both
    # pushforwards must still agree with pairing against the pullbacks
    rng = random.Random(37)
    collapse = binarize_quiver(q, DimVector(split))[1]
    ones = {v: 1 for v in collapse.source.vertices}
    merge_slots = charclass._merge_slots(collapse, collapse.pushforward(DimVector(ones)))
    seen = set()
    for _ in range(3):
        d, e = ({v: rng.randint(0, 2) for v in q.vertices} for _ in range(2))
        sum_slots = charclass._sum_slots(DimVector(d) + DimVector(e))
        for weight in range(1, 6):
            w = _random_class(rng, q, (d, e), weight)
            seen |= _slots_per_part(w.functional, sum_slots)
            assert direct_sum_pushforward(w) == oracles.direct_sum_pushforward_oracle(w)
            u = _random_class(rng, collapse.source, (ones,), weight)
            seen |= _slots_per_part(u.functional, merge_slots)
            assert merge_pushforward(collapse, u) == oracles.merge_pushforward_oracle(collapse, u)
    assert {1, 2} <= seen


def test_pushforwards_share_one_expansion_memo(monkeypatch):
    # _EXPANSION_MEMO is keyed by what an expansion reads, (part, n): the
    # direct sums split v and w as 1 + 2 and as 2 + 1, and the merge's
    # rank-one slots meet those of the 1 + 1 sum; the memo is never cleared
    rng = random.Random(61)
    collapse = binarize_quiver(K3, DimVector({"v": 2, "w": 2}))[1]
    ones = {v: 1 for v in collapse.source.vertices}
    splits = [({"v": 1, "w": 2}, {"v": 2, "w": 1}), ({"v": 2, "w": 1}, {"v": 1, "w": 2}),
              ({"v": 1, "w": 1}, {"v": 1, "w": 1})]
    sums, merges = [], []  # by weight
    for weight in range(1, 5):
        sums.append([_random_class(rng, K3, split, weight) for split in splits])
        merges.append(_random_class(rng, collapse.source, (ones,), weight))
    keys = []  # the memo keys of each pushforward alone
    for push, classes in [(direct_sum_pushforward, sum(sums, [])), (partial(merge_pushforward, collapse), merges)]:
        monkeypatch.setattr(charclass, "_EXPANSION_MEMO", {})
        for x in classes:
            push(x)
        keys.append(set(charclass._EXPANSION_MEMO))
    assert keys[0] & keys[1]
    monkeypatch.setattr(charclass, "_EXPANSION_MEMO", {})
    for ws, u in zip(sums, merges):
        for w in ws:
            assert direct_sum_pushforward(w) == oracles.direct_sum_pushforward_oracle(w)
        assert merge_pushforward(collapse, u) == oracles.merge_pushforward_oracle(collapse, u)
    assert set(charclass._EXPANSION_MEMO) == keys[0] | keys[1]


def test_pushforwards_never_enumerate_the_target_basis(monkeypatch):
    rng = random.Random(31)
    w = _random_class(rng, K3, ({"v": 2, "w": 1}, {"v": 1, "w": 2}), 4)
    collapse = binarize_quiver(K3, DimVector({"v": 2, "w": 2}))[1]
    u = _random_class(rng, collapse.source, ({v: 1 for v in collapse.source.vertices},), 3)
    want = (oracles.direct_sum_pushforward_oracle(w), oracles.merge_pushforward_oracle(collapse, u))

    def refuse(*args):
        raise AssertionError("a pushforward enumerated a monomial basis")

    monkeypatch.setattr(charclass, "monomial_basis", refuse)
    monkeypatch.setattr(vertexalg, "monomial_basis", refuse)
    assert (direct_sum_pushforward(w), merge_pushforward(collapse, u)) == want


def test_kernel_never_builds_sorted_monomials(monkeypatch):
    # brackets, pushforwards and the zero test run on packed monomials only
    rng = random.Random(47)
    u = _random_class(rng, K3, ({"v": 2, "w": 1},), 2)
    v = _random_class(rng, K3, ({"v": 1, "w": 2},), 1)
    collapse = binarize_quiver(K3, DimVector({"v": 2, "w": 2}))[1]
    x = _random_class(rng, collapse.source, ({a: 1 for a in collapse.source.vertices},), 3)
    ring, ranks, basis, lower = _oracle_args({"v": 3, "w": 3}, 6)
    image = divided_translation(HClass(K3, ring, 10, _random_functional(rng, lower)), 1)
    tests = [image, image + HClass(K3, ring, 12, {rng.choice(basis): Fraction(1)})]
    want = (
        oracles.state_field_oracle(u, v, (-1,))[-1],
        oracles.merge_pushforward_oracle(collapse, x),
        [oracles.translation_image_oracle(ranks, basis, lower, w.functional) for w in tests],
    )
    assert want[2] == [True, False] and not want[0].is_zero()
    lie_bracket(u, v)  # makes the plan of the ring pair, whose Ext atoms are polynomials

    def refuse(*args):
        raise AssertionError("the kernel built a sorted-tuple monomial")

    for name in ("mul_monomials", "monomial_basis"):
        for module in (charclass, vertexalg):
            monkeypatch.setattr(module, name, refuse, raising=False)
    got = (
        lie_bracket(u, v).rep,
        merge_pushforward(collapse, x),
        [is_translation_image(w) for w in tests],
    )
    assert got == want


def test_weak_commutativity_small():
    u = unit_class(K3, DimVector({"v": 1}))
    v = unit_class(K3, DimVector({"w": 1}))
    w = unit_class(K3, DimVector({"v": 1}))
    n = weak_commutativity_order(u, v, w, window=2, max_order=8)
    assert n is not None
    # same-letter fields commute after enough twisting too
    n2 = weak_commutativity_order(u, u, v, window=1, max_order=8)
    assert n2 is not None


def test_field_window_matches_iterated_fields():
    u = unit_class(K3, DimVector({"v": 1}))
    v = unit_class(K3, DimVector({"w": 1}))
    w = unit_class(K3, DimVector({"v": 1}))
    win = field_window(u, v, w, range(-2, 2), range(-2, 2))
    for (p1, p2), cls in win.items():
        inner = state_field(v, w, (p2,))[p2]
        outer = state_field(u, inner, (p1,))[p1]
        assert cls.functional == outer.functional and cls.degree == outer.degree


def test_merge_pushforward_units_and_degrees():
    m = edge_deletion_morphism(K2, ["a0"])
    d = DimVector({"v": 1, "w": 1})
    u = unit_class(K2, d)
    got = merge_pushforward(m, u)
    assert got == unit_class(m.target, d)
    x = mono_class(K2, {"v": 1, "w": 1}, c1("v"), 2)
    gx = merge_pushforward(m, x)
    # identity vertex map: the functional carries over unchanged
    assert gx.degree == 2 and gx.functional == x.functional

    split, collapse, ones = binarize_quiver(K2, DimVector({"v": 2, "w": 1}))
    uu = unit_class(split, ones)
    pushed = merge_pushforward(collapse, uu)
    assert pushed == unit_class(K2, DimVector({"v": 2, "w": 1}))
    with pytest.raises(ValueError):
        merge_pushforward(collapse, u)  # lives on the wrong quiver


def test_lie_bracket_accepts_mixed_inputs():
    e, f = DimVector({"v": 1}), DimVector({"w": 1})
    hu, hv = unit_class(K3, e), unit_class(K3, f)
    a = lie_bracket(hu, hv)
    b = lie_bracket(PlClass(hu), hv)
    c = lie_bracket(PlClass(hu), PlClass(hv))
    assert a.rep == b.rep == c.rep
    assert a.dimvec == e + f


@pytest.mark.parametrize("q, d", [
    (A2, {}), (A2, {"v": 1}), (A2, {"v": 2, "w": 1}), (K3, {"v": 3, "w": 4}), (A3, {"a": 2, "b": 1, "c": 3}),
])
def test_unit_class_is_the_validated_class(q, d):
    d = DimVector(d)
    x = unit_class(q, d)
    assert x == HClass(q, ChernRing((d,)), 0, {(): 1})
    assert (x.num, x.den, x.functional) == ({0: 1}, 1, {(): Fraction(1)})


def test_unit_class_keeps_its_checks():
    for q, d in [(A2, {"v": -1}), (A2, {"v": 1, "w": -1}), (A2, {"x": 1}), (A3, {"a": 1, "v": 1})]:
        with pytest.raises(ValueError):
            unit_class(q, DimVector(d))


@pytest.mark.parametrize("q, u, v", [
    (K3, mono_class(K3, {"v": 1}, c1("v"), 2), unit_class(K3, DimVector({"w": 1}))),
    (K3, mono_class(K3, {"v": 2}, c1("v"), 2), mono_class(K3, {"w": 1}, c1("w"), 2, 3)),
    (A3, mono_class(A3, {"a": 1, "b": 1}, c1("b"), 2), unit_class(A3, DimVector({"c": 2}))),
])
def test_multi_power_state_field_is_its_single_power_calls(q, u, v):
    a, b = u.dims[0], v.dims[0]
    chi, imax = sym_euler_form(q, a, b), (u.degree + v.degree) // 2
    powers = range(chi - imax - 3, chi + 3)  # the first three get no contribution
    out = state_field(u, v, reversed(powers))
    assert list(out) == list(powers)
    for p in powers:
        assert out[p] == state_field(u, v, (p,))[p]
        assert out[p].degree == u.degree + v.degree + 2 * p - 2 * chi
        assert out[p].ring == ChernRing((a + b,))
        if p < chi - imax:
            assert out[p].is_zero()
    assert not all(x.is_zero() for x in out.values())


def test_state_field_zero_inputs():
    z = zero_class(K3, (DimVector({"v": 1}),), 2)
    v = unit_class(K3, DimVector({"w": 1}))
    out = state_field(z, v, (-1, 0, 1))
    assert all(cls.is_zero() for cls in out.values())
    # degrees follow the grading rule even for zero output
    chi = sym_euler_form(K3, DimVector({"v": 1}), DimVector({"w": 1}))
    for p, cls in out.items():
        assert cls.degree == 2 + 0 + 2 * p - 2 * chi


def test_classes_whose_weight_could_overflow_a_field_are_refused():
    # every exponent of a class is at most its weight, so a weight below the
    # guard keeps each field clear of it; a larger one is refused where it is
    # set: a class's degree, or the weight of a bracket's Kunneth product
    guard = 1 << (charclass._FIELD_BITS - 1)
    v1 = DimVector({"v": 1})
    top = mono_class(K3, v1, (((0, "v", 1), guard - 1),), 2 * (guard - 1))
    assert divided_translation(top, 0) is top
    half = mono_class(K3, v1, (((0, "v", 1), guard // 2),), guard)
    for make in (lambda: zero_class(K3, (v1,), 2 * guard), lambda: divided_translation(top, 1),
                 lambda: kunneth(half, half), lambda: lie_bracket(half, half)):
        with pytest.raises(ValueError, match="overflow"):
            make()


def test_packed_kernels_match_the_oracles_at_high_field_offsets():
    # rings of T4 with rank 2 or 3 at each vertex put their last fields at
    # bits 120 (pair ring) and 88 (one factor); the supports use the last
    # generators, so the kernels cut, raise and subtract far from bit 0
    rng = random.Random(89)
    two, three = (DimVector({v: n for v in T4.vertices}) for n in (2, 3))
    pair, single = ChernRing((two, two)), ChernRing((three,))
    assert pair._shift[pair.generators()[-1]] == 120 and single._shift[single.generators()[-1]] == 88

    def on_last(q, ring, weight):
        last = set(ring.generators()[-3:])
        basis = [m for m in monomial_basis(ring, weight) if any(g in last for g, _ in m)]
        return HClass(q, ring, 2 * weight, _random_functional(rng, rng.sample(basis, min(8, len(basis)))))

    collapse = binarize_quiver(T4, three)[1]
    ones = ChernRing((DimVector({v: 1 for v in collapse.source.vertices}),))
    last = gen(pair.generators()[-1])  # c[1, d, 2]
    low = gen((0, "a", 1))
    for weight in range(1, 4):
        w = on_last(T4, pair, weight)
        assert direct_sum_pushforward(w) == oracles.direct_sum_pushforward_oracle(w)
        u = on_last(collapse.source, ones, weight)
        assert merge_pushforward(collapse, u) == oracles.merge_pushforward_oracle(collapse, u)
        # (w cap p)(m) = w(p m)
        if weight >= 3:
            polys = [{**mul_trunc(last, low), **power_trunc(low, 3)}, last]
        else:
            polys = [power_trunc(low, weight)]
        for p in polys:
            (k,) = {weight - monomial_weight(m) for m in p}
            want = {m: w.pair(mul_trunc(p, {m: 1})) for m in monomial_basis(pair, k)}
            assert cap(w, p) == HClass(T4, pair, 2 * k, want)
        # divided translation against the substitution definition
        for x in (w, on_last(T4, single, weight)):
            ranks = {(f, v): n for f, d in enumerate(x.dims) for v, n in d.items()}
            for j in (1, 2):
                want = {}
                for m in monomial_basis(x.ring, weight + j):
                    coaction = oracles.substitution_coaction_oracle(ranks, m).get(j, {})
                    want[m] = sum((c * x.functional.get(s, 0) for s, c in coaction.items()), Fraction(0))
                assert divided_translation(x, j) == HClass(T4, x.ring, x.degree + 2 * j, want)
    x, y = on_last(T4, ChernRing((two,)), 2), on_last(T4, ChernRing((two,)), 1)
    powers = range(5, 9)  # chi(two, two) = 8
    got = state_field(x, y, powers)
    assert got == oracles.state_field_oracle(x, y, powers) and not got[8].is_zero()
