import itertools
import random
from fractions import Fraction

import pytest

from quiverinv.charclass import ChernRing, Poly, monomial_basis, scaling_coaction
from quiverinv.quiver import (
    DimVector,
    Quiver,
    binarize_quiver,
    edge_deletion_morphism,
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
    field_window,
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
    weak_commutativity_order,
    weight_zero_basis,
    zero_class,
    zero_pl,
)

from . import oracles

A2 = Quiver.from_json(oracles.a2_json())
K2 = Quiver.from_json(oracles.kronecker_json(2))
K3 = Quiver.from_json(oracles.kronecker_json(3))
T4 = Quiver.from_json(oracles.tree4_json())


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
    a = Poly.generator(pair_ring, (0, "v", 1))
    b = Poly.generator(pair_ring, (1, "w", 1))
    assert uv.pair(a * b) == 15
    assert uv.pair(a * a) == 0
    # cap factors through the pairing: (u cap p)(m) = u(p m)
    capped = cap(uv, a)
    assert capped.degree == 2
    assert capped.pair(b) == 15
    assert cap(capped, b).pair(Poly.one(pair_ring)) == 15
    with pytest.raises(ValueError):
        cap(uv, a + a * b)  # not homogeneous
    assert cap(uv, Poly.zero(pair_ring)).is_zero()


def test_divided_translation_frozen_pairings():
    for (v1, n1, v2, n2), want in oracles.D1_UNIT_PAIRINGS.items():
        d = DimVector({v1: n1, v2: n2})
        u = unit_class(K2, d)
        du = divided_translation(u, 1)
        ring = du.ring
        for vtx, val in want.items():
            assert du.pair(Poly.generator(ring, (0, vtx, 1))) == val


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
            if w <= top:
                got = scaling_coaction(Poly(ring, {m: Fraction(1)}))
                assert {j: p.terms for j, p in got.items()} == expected[m]
    # divided_translation(u, j) is the transpose of the z^j component
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
    qring = ChernRing((DimVector({"v": 1, "w": 1}),))
    for w in range(4):
        basis = weight_zero_basis(qring, w)
        n_w = len(monomial_basis(qring, w))
        n_lower = len(monomial_basis(qring, w - 1)) if w else 0
        assert len(basis) == n_w - n_lower
        from quiverinv.charclass import weight_zero_component

        for p in basis:
            assert weight_zero_component(p).is_zero()


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


def test_state_field_zero_inputs():
    z = zero_class(K3, (DimVector({"v": 1}),), 2)
    v = unit_class(K3, DimVector({"w": 1}))
    out = state_field(z, v, (-1, 0, 1))
    assert all(cls.is_zero() for cls in out.values())
    # degrees follow the grading rule even for zero output
    chi = sym_euler_form(K3, DimVector({"v": 1}), DimVector({"w": 1}))
    for p, cls in out.items():
        assert cls.degree == 2 + 0 + 2 * p - 2 * chi
