import copy
import pickle
import re
from fractions import Fraction
from math import comb

import pytest
import sympy

from quiverinv import charclass
from quiverinv.charclass import (
    ChernRing,
    apply_ring_map,
    atom_rank,
    chern_atom,
    chern_kclass,
    correction_top_class,
    direct_sum_pullback,
    ext_pairing_kexpr,
    merge_pullback,
    monomial_basis,
    monomial_string,
    monomial_weight,
    mul_monomials,
    mul_trunc,
    parse_monomial_string,
    power_trunc,
    series_inverse,
    weight_part,
)
from quiverinv.quiver import (
    DimVector,
    Quiver,
    binarize_quiver,
    edge_deletion_morphism,
    subvectors,
    sym_euler_form,
)
from quiverinv.vertexalg import HClass, divided_translation

from . import oracles
from .oracles import gen, lincomb

A2 = Quiver.from_json(oracles.a2_json())
K2 = Quiver.from_json(oracles.kronecker_json(2))
K3 = Quiver.from_json(oracles.kronecker_json(3))


def ring1(**dims):
    return ChernRing([DimVector(dims)])


def test_monomial_ops():
    g1, g2 = (0, "v", 1), (0, "v", 2)
    m = (((g1), 2), ((g2), 1))
    assert monomial_weight(m) == 4
    assert mul_monomials(m, ((g1, 1),)) == ((g1, 3), (g2, 1))


def _count_monomials(gen_weights, weight):
    # coefficient of q^weight in prod 1/(1 - q^w)
    counts = [1] + [0] * weight
    for w in gen_weights:
        for n in range(w, weight + 1):
            counts[n] += counts[n - w]
    return counts[weight]


def test_monomial_basis_counts_and_order():
    for dims, w in [({"v": 2}, 5), ({"v": 1, "w": 2}, 4), ({"v": 3}, 6)]:
        ring = ring1(**dims)
        weights = [g[2] for g in ring.generators()]
        basis = monomial_basis(ring, w)
        assert len(basis) == _count_monomials(weights, w)
        assert len(set(basis)) == len(basis)
        assert all(monomial_weight(m) == w for m in basis)
        assert list(basis) == sorted(basis)
    assert monomial_basis(ring1(v=1), 0) == ((),)
    assert monomial_basis(ring1(v=1), -1) == ()


def test_packing_round_trips_and_is_injective():
    # every pair ring of a bracket onto K3 (4,4), and a 3-vertex ring, to weight 8
    top = DimVector({"v": 4, "w": 4})
    rings = [ChernRing((a, top - a)) for a in subvectors(top) if a and top - a]
    for ring in rings + [ring1(a=3, b=2, c=3)]:
        basis = [m for w in range(9) for m in monomial_basis(ring, w)]
        packed = [ring.pack(m) for m in basis]
        assert [ring.unpack(s) for s in packed] == basis
        assert len(set(packed)) == len(basis)
    assert len(rings) == 23


def test_equal_dims_give_the_one_ring():
    ring = ChernRing((DimVector({"v": 2, "w": 1}), DimVector({"w": 3})))
    assert ChernRing(({"v": 2, "w": 1}, {"w": 3})) is ring
    assert ChernRing([DimVector({"w": 1, "v": 2}), {"w": 3}]) is ring
    assert ChernRing(iter([{"v": 2, "w": 1}, DimVector({"w": 3})])) is ring
    # the factor order is part of the ring
    assert ChernRing(({"w": 3}, {"v": 2, "w": 1})) != ring
    assert ring1(v=2, w=1) is ring1(w=1, v=2) is not ring


@pytest.mark.parametrize("dims", [({"v": -1},), ({"v": 1}, {"v": 2, "w": -1}), ({"v": 0, "w": -2},)])
def test_ring_refuses_non_effective_dims_every_time(dims):
    for _ in range(2):
        with pytest.raises(ValueError, match="effective"):
            ChernRing(dims)
    assert tuple(map(DimVector, dims)) not in charclass._RING_MEMO


def _class_with_denominators(ring):
    return HClass(K3, ring, 4, {
        (((0, "v", 2), 1),): Fraction(1, 3), (((0, "v", 1), 1), ((0, "w", 1), 1)): Fraction(-5, 2),
    })


def test_hclass_survives_deepcopy_and_pickle():
    x = _class_with_denominators(ring1(v=2, w=1))
    for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and y.ring is x.ring
        assert (y.degree, y.den, y.num) == (x.degree, x.den, x.num)
    assert copy.deepcopy(x.ring) is x.ring


def test_rings_made_before_and_after_clearing_the_table_are_equal(monkeypatch):
    before = ring1(v=2, w=1)
    x, data = _class_with_denominators(before), pickle.dumps(before)
    monkeypatch.setattr(charclass, "_RING_MEMO", {})
    after = ring1(v=2, w=1)
    assert after is not before and after == before and hash(after) == hash(before)
    assert pickle.loads(data) is after
    y = _class_with_denominators(after)
    assert y == x and (y - x).is_zero()


def test_pack_refuses_an_exponent_that_reaches_the_guard_bit():
    ring = ring1(v=2, w=1)
    top = (1 << (charclass._FIELD_BITS - 1)) - 1  # the largest exponent below the guard
    m = (((0, "v", 1), top), ((0, "w", 1), top))
    assert ring.unpack(ring.pack(m)) == m
    for bad in [
        (((0, "v", 2), top + 1),),
        (((0, "v", 1), 1), ((0, "w", 1), -1)),  # would borrow from the field of c[0, v, 2]
        (((0, "v", 2), top), ((0, "v", 2), 1)),  # a repeated generator adds up
    ]:
        with pytest.raises(ValueError, match=re.escape(repr(bad[-1][0]))):
            ring.pack(bad)


G1, G2 = (0, "v", 1), (0, "v", 2)
C1, C2 = ((G1, 1),), ((G2, 1),)


def test_truncated_products():
    p = {(): 1, C1: 1, C2: 1}
    full = {(): 1, C1: 2, C2: 2, ((G1, 2),): 1, ((G1, 1), (G2, 1)): 2, ((G2, 2),): 1}
    assert mul_trunc(p, p) == full
    for bound in range(5):
        assert mul_trunc(p, p, bound) == {m: c for m, c in full.items() if monomial_weight(m) <= bound}
    assert power_trunc(p, 3, 2) == mul_trunc(p, mul_trunc(p, p, 2), 2)
    assert power_trunc(p, 0) == {(): 1} and mul_trunc(p, {}) == {}
    with pytest.raises(ValueError, match="negative power"):
        power_trunc(p, -1)
    # exact, and cancelled terms leave no zeros: (c1 + c2)(c1 - c2) = c1^2 - c2^2
    assert mul_trunc({C1: 1, C2: 1}, {C1: 1, C2: -1}) == {((G1, 2),): 1, ((G2, 2),): -1}
    assert mul_trunc({(): Fraction(1, 3)}, {(): 3}) == {(): 1}
    assert mul_trunc({((G1, 2),): 1, C2: -2}, {C1: 1}) == {((G1, 3),): 1, ((G1, 1), (G2, 1)): -2}
    assert weight_part(full, 2) == {((G1, 2),): 1, C2: 2} and weight_part(full, 5) == {}


def test_series_inverse():
    p = {(): 1, C1: 1, C2: Fraction(3, 2)}
    for bound in range(6):
        inv = series_inverse(p, bound)
        assert mul_trunc(p, inv, bound) == {(): 1}
    with pytest.raises(ValueError):
        series_inverse(gen(G1), 3)


def _poly_to_sympy(p, names):
    expr = sympy.Integer(0)
    for m, c in p.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for g, e in m:
            term *= sympy.Symbol(names[g]) ** e
        expr += term
    return sympy.expand(expr)


@pytest.mark.parametrize("r1,r2", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("dual1,dual2", [(False, False), (False, True), (True, True)])
def test_tensor_chern_against_splitting_roots(r1, r2, dual1, dual2):
    bound = min(r1 * r2, 4)
    ring = ring1(v=r1, w=r2)
    atom = ((0, "v", dual1), (0, "w", dual2))
    got = chern_atom(atom, ring, bound)
    names = {(0, "v", i): f"e{i}" for i in range(1, r1 + 1)}
    names.update({(0, "w", j): f"f{j}" for j in range(1, r2 + 1)})
    want = oracles.splitting_tensor_total_chern(r1, r2, dual1, dual2, bound)
    assert sympy.expand(_poly_to_sympy(got, names) - want) == 0


def test_chern_atom_rank_zero_factor():
    ring = ring1(v=2)  # vertex w has rank 0 here
    assert chern_atom(((0, "v", False), (0, "w", False)), ring, 4) == {(): 1}


def test_chern_atom_at_a_smaller_bound_is_the_truncation():
    # a bracket plan made at a larger weight bound reads only the terms up to
    # the bound of its call; that is sound because the steps are graded
    top = 6
    for d, e in [({"v": 2, "w": 1}, {"v": 1, "w": 2}), ({"v": 3, "w": 2}, {"v": 2, "w": 2})]:
        ring = ChernRing((DimVector(d), DimVector(e)))
        for _, atom in ext_pairing_kexpr(K3):
            full = chern_atom(atom, ring, top)
            for b in range(top):
                truncated = {m: c for m, c in full.items() if monomial_weight(m) <= b}
                assert chern_atom(atom, ring, b) == truncated


A3 = Quiver.from_json({"vertices": ["a", "b", "c"], "edges": [
    {"id": "e1", "from": "a", "to": "b"},
    {"id": "e2", "from": "a", "to": "b"},
    {"id": "e3", "from": "b", "to": "c"},
]})


@pytest.mark.parametrize("q,pairs", [
    (A2, [({"v": 2, "w": 1}, {"v": 1, "w": 2}), ({"v": 3}, {"v": 1, "w": 1})]),
    (K3, [({"v": 2, "w": 2}, {"v": 1, "w": 3}), ({"v": 1}, {"w": 2})]),
    (A3, [({"a": 1, "b": 2, "c": 1}, {"a": 2, "b": 1, "c": 2}), ({"a": 2, "c": 1}, {"b": 2})]),
], ids=["A2", "K3", "A3"])
def test_chern_atoms_match_chern_character_oracle(q, pairs):
    # integer power sums against the Chern character in Fractions, at every
    # bound up to 6; the classes have int coefficients
    from quiverinv import charclass

    rank_zero = False
    for d, e in pairs:
        ring = ChernRing((DimVector(d), DimVector(e)))
        for _, atom in ext_pairing_kexpr(q):
            rank_zero |= charclass.atom_rank(atom, ring) == 0
            for bound in range(7):
                got = chern_atom(atom, ring, bound)
                assert got == oracles.chern_character_atom_oracle(atom, ring, bound), (d, e, atom)
                assert all(type(c) is int for c in got.values())
    assert rank_zero


def test_ext_pairing_rank_matches_sym_euler_form():
    for q in (A2, K2, K3):
        kx = ext_pairing_kexpr(q)
        for d, e in [
            (DimVector({"v": 1, "w": 1}), DimVector({"v": 2, "w": 1})),
            (DimVector({"v": 2, "w": 3}), DimVector({"v": 2, "w": 3})),
            (DimVector({"v": 1}), DimVector({"w": 2})),
        ]:
            ring = ChernRing([d, e])
            rank = sum(mult * atom_rank(atom, ring) for mult, atom in kx)
            assert rank == sym_euler_form(q, d, e)


def _swap_factors(p):
    return apply_ring_map(p, lambda g: gen((1 - g[0], *g[1:])))


def test_pairing_kernel_swap_dual_symmetry():
    # pulling back along the factor swap must equal taking duals:
    # swap of c_i on the (e, d) ring is (-1)^i c_i on the (d, e) ring
    for q in (A2, K3):
        kx = ext_pairing_kexpr(q)
        d, e = DimVector({"v": 1, "w": 2}), DimVector({"v": 2, "w": 1})
        ring_de = ChernRing([d, e])
        ring_ed = ChernRing([e, d])
        bound = 4
        c_de = chern_kclass(kx, ring_de, bound)
        c_ed = chern_kclass(kx, ring_ed, bound)
        swapped = _swap_factors(c_ed)
        for i in range(bound + 1):
            assert weight_part(swapped, i) == lincomb([((-1) ** i, weight_part(c_de, i))])


def test_kronecker_pairing_kernel_closed_form():
    # for d = delta_v, e = delta_w on K_m the whole kernel collapses to
    # (1 + a - b)^(-m) with a, b the two first Chern classes
    for m in (1, 2, 3):
        q = Quiver.from_json(oracles.kronecker_json(m))
        ring = ChernRing([DimVector({"v": 1}), DimVector({"w": 1})])
        bound = 5
        got = chern_kclass(ext_pairing_kexpr(q), ring, bound)
        x = {(((0, "v", 1), 1),): 1, (((1, "w", 1), 1),): -1}
        want = lincomb(((-1) ** k * comb(m + k - 1, k), power_trunc(x, k)) for k in range(bound + 1))
        assert got == want


def test_direct_sum_pullback_whitney():
    pair = ChernRing([DimVector({"v": 1}), DimVector({"v": 1})])
    c1, c2 = gen(G1), gen(G2)
    x, y = gen((0, "v", 1)), gen((1, "v", 1))
    assert direct_sum_pullback(c1, pair) == {**x, **y}
    assert direct_sum_pullback(c2, pair) == mul_trunc(x, y)
    p = {((G1, 1), (G2, 1)): 1, C2: -3}
    q = power_trunc(c1, 2)
    assert direct_sum_pullback(mul_trunc(p, q), pair) == mul_trunc(
        direct_sum_pullback(p, pair), direct_sum_pullback(q, pair)
    )
    with pytest.raises(ValueError):
        direct_sum_pullback(c1, ChernRing([DimVector({"v": 1})]))
    for outside in [(0, "v", 3), (0, "w", 1), (1, "v", 1)]:  # not in the ring of d + e = {v: 2}
        with pytest.raises(ValueError, match="out of range|no factor"):
            direct_sum_pullback({(): 1, **gen(outside)}, pair)


def test_merge_pullback_identity_and_collapse():
    # edge deletion keeps vertices, so generators map to themselves
    m = edge_deletion_morphism(K2, ["a0"])
    d = DimVector({"v": 2, "w": 1})
    src = ChernRing([d])
    p = mul_trunc(gen((0, "v", 2)), gen((0, "w", 1)))
    assert merge_pullback(m, p, src) == p
    for outside in [(0, "v", 3), (0, "x", 1), (1, "v", 1)]:  # not in the ring of m(d) = {v: 2, w: 1}
        with pytest.raises(ValueError, match="out of range|no factor"):
            merge_pullback(m, {(): 1, **gen(outside)}, src)

    # binarization collapse merges the two copies of v
    split, collapse, ones = binarize_quiver(K2, d)
    src2 = ChernRing([ones])
    v1, v2 = collapse.preimages("v")
    (w1,) = collapse.preimages("w")
    got = merge_pullback(collapse, gen((0, "v", 2)), src2)
    assert got == mul_trunc(gen((0, v1, 1)), gen((0, v2, 1)))
    got1 = merge_pullback(collapse, gen((0, "v", 1)), src2)
    assert got1 == {**gen((0, v1, 1)), **gen((0, v2, 1))}
    assert merge_pullback(collapse, gen((0, "w", 1)), src2) == gen((0, w1, 1))


def test_correction_top_class():
    # deleting one K2 edge leaves one Hom block; top class = b - a at (1,1)
    m = edge_deletion_morphism(K2, ["a0"])
    d = DimVector({"v": 1, "w": 1})
    ring = ChernRing([d])
    cls = correction_top_class(m, ring)
    assert cls == {(((0, "w", 1), 1),): 1, (((0, "v", 1), 1),): -1}
    assert {monomial_weight(f) for f in cls} == {oracles.correction_form(m, d, d)}

    # binarization collapse of K2 at (2,1): merged pair (v1, v2) both ways
    split, collapse, ones = binarize_quiver(K2, DimVector({"v": 2, "w": 1}))
    ring2 = ChernRing([ones])
    cls2 = correction_top_class(collapse, ring2)
    assert {monomial_weight(f) for f in cls2} == {oracles.correction_form(collapse, ones, ones)}
    v1, v2 = collapse.preimages("v")
    x, y = (((0, v1, 1), 1),), (((0, v2, 1), 1),)
    assert cls2 == mul_trunc({y: 1, x: -1}, {x: 1, y: -1})


def _translation_image(ring, m, j):
    """divided_translation(u, j) of the class u that is 1 at the monomial m:
    the transpose of D^j / j!, as the package runs it."""
    return divided_translation(HClass(K3, ring, 2 * monomial_weight(m), {m: Fraction(1)}), j)


def _coaction(p, ring):
    """The z-expansion {j: D^j(p) / j!} of the twist exp(zD) of a homogeneous
    p, read off by pairing p with the translation images of every monomial
    of lower weight: the coefficient of m in D^j(p) / j! is the pairing of
    p with divided_translation of the class 1 at m."""
    (w,), out = {monomial_weight(m) for m in p}, {}
    for j in range(w + 1):
        lower = monomial_basis(ring, w - j)
        terms = {m: _translation_image(ring, m, j).pair(p) for m in lower}
        if any(terms.values()):
            out[j] = {m: c for m, c in terms.items() if c}
    return out


def test_scaling_coaction_rules():
    # line bundle: c1 -> c1 + z
    line = ring1(v=1)
    co = _coaction(gen(G1), line)
    assert co[0] == gen(G1)
    assert co[1] == {(): 1}
    assert set(co) == {0, 1}

    # rank r: z^1 component of c_i is (r - i + 1) c_{i-1}
    r = 3
    ring = ring1(v=r)
    c = [{(): 1}] + [gen((0, "v", i)) for i in range(1, r + 1)]
    for i in range(1, r + 1):
        co = _coaction(c[i], ring)
        assert co[1] == lincomb([(r - i + 1, c[i - 1])])
    # and D is a derivation: D(c1^2) = 2 r c1, D(c1 c2) = r c2 + (r - 1) c1^2
    assert _coaction(mul_trunc(c[1], c[1]), ring)[1] == {C1: 2 * r}
    assert _coaction(mul_trunc(c[1], c[2]), ring)[1] == {C2: r, ((G1, 2),): r - 1}


def test_scaling_coaction_against_shifted_roots():
    # full z-expansion of c_i agrees with e_i(x_1 + z, ..., x_r + z), and
    # that of a monomial with the product of those (D is a derivation)
    r = 3
    ring = ring1(v=r)
    xs = sympy.symbols(f"x1:{r + 1}")
    z, t = sympy.Symbol("z"), sympy.Symbol("t")
    es = [sympy.Symbol(f"e{i}") for i in range(1, r + 1)]
    names = {(0, "v", i): f"e{i}" for i in range(1, r + 1)}
    roots = sympy.expand(sympy.prod([t + x + z for x in xs]))
    for m in (m for w in range(1, r + 1) for m in monomial_basis(ring, w)):
        shifted = sympy.prod([roots.coeff(t, r - i) ** e for (_, _, i), e in m])
        co = _coaction({m: 1}, ring)
        got = sympy.Integer(0)
        for j, p in co.items():
            got += _poly_to_sympy(p, names) * z**j
        reduced, remainder, defs = sympy.symmetrize(
            sympy.expand(shifted), xs, formal=True
        )
        assert remainder == 0
        want = reduced.xreplace(
            {sym: es[k] for k, (sym, _) in enumerate(defs)}
        )
        assert sympy.expand(got - want) == 0


def _translation_rows(ring, w):
    """The translation image of each weight w - 1 monomial on the weight w
    basis: the rows of the transpose of D from weight w to w - 1."""
    src, dst = monomial_basis(ring, w), monomial_basis(ring, w - 1)
    rows = []
    for m in dst:
        img = _translation_image(ring, m, 1).functional
        rows.append([img.get(x, Fraction(0)) for x in src])
    return rows, len(src), len(dst)


def _killed_by_d(p, ring):
    """D(p) = 0: a homogeneous p pairs to zero with every translation image of its weight."""
    (w,) = {monomial_weight(m) for m in p}
    return all(_translation_image(ring, m, 1).pair(p) == 0 for m in monomial_basis(ring, w - 1))


def _rank(rows):
    rows = [r[:] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    rpos = 0
    for c in range(cols):
        piv = next((i for i in range(rpos, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rpos], rows[piv] = rows[piv], rows[rpos]
        inv = 1 / rows[rpos][c]
        rows[rpos] = [x * inv for x in rows[rpos]]
        for i in range(len(rows)):
            if i != rpos and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rpos])]
        rpos += 1
        rank += 1
    return rank


def test_weight_zero_dimension_counts():
    # D maps weight w onto weight w - 1 (its transpose, the translation, is
    # injective), so its kernel has dimension m(w) - m(w-1); checked by
    # exact row reduction
    for dims in ({"v": 2}, {"v": 1, "w": 1}, {"v": 2, "w": 1}):
        ring = ring1(**dims)
        for w in range(1, 5):
            rows, nsrc, ndst = _translation_rows(ring, w)
            assert _rank(rows) == ndst
    # and weight-zero classes are exactly the kernel: spot checks, among them
    # the discriminant c1^2 - 4 c2 = (x1 - x2)^2 of a rank-2 bundle
    ring = ring1(v=1, w=1)
    a, b = (((0, "v", 1), 1),), (((0, "w", 1), 1),)
    assert _killed_by_d({a: 1, b: -1}, ring)
    assert not _killed_by_d({a: 1, b: 1}, ring)
    assert _killed_by_d(power_trunc({a: 1, b: -1}, 2), ring)
    ring = ring1(v=2)
    assert _killed_by_d({((G1, 2),): 1, C2: -4}, ring)
    assert not _killed_by_d({((G1, 2),): 1}, ring) and not _killed_by_d(gen(G2), ring)


def test_monomial_string_round_trip():
    ring = ring1(v=2, w=1)
    for s in ["1", "c[v,1]", "c[v,2]^3", "c[v,1]*c[w,1]", "c[v,1]^2*c[v,2]"]:
        m = parse_monomial_string(s, ring)
        assert monomial_string(m) == s
    assert parse_monomial_string("c[v,1]*c[v,1]", ring) == parse_monomial_string(
        "c[v,1]^2", ring
    )
    with pytest.raises(ValueError):
        parse_monomial_string("c[v,3]", ring)  # exceeds rank
    with pytest.raises(ValueError):
        parse_monomial_string("c[v]", ring)
