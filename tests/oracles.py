"""Independent oracles and frozen expected values for the test suite.

Everything here is computed by routes that do not share code with the
package: bilinear forms straight off the JSON dicts, sympy splitting
variables for tensor Chern classes, DFS for cycle detection, brute force
subset search for stable points of binary tree classes, sympy rank,
nullspace and rref on the matrix of the translation derivation, and
Atiyah-Bott localization for integrals over the Grassmannians that are
Kronecker moduli spaces (grassmannian_integral; the invariant pairs with
them through slice_projection, the twisting formula for Chern classes on
{monomial: coefficient} dicts, with the package's mul_trunc). Five
exceptions build on the package's own primitives: the pushforward oracles
pair with the Whitney pullback of every monomial of the target basis, the
state-field oracle sums the defining series term by term (pushing forward
by pairing), the u- and s-coefficient oracles enumerate the regroupings of
a tuple calling value() on freshly summed dimension vectors, without the
package's interval tables, the per-word bracket sums evaluate the
invariant, wall-crossing and framed-pair sums one bracket word at a time,
where the package groups the words by last letter and drops words with an
empty letter, and lie_normalize_oracle solves for bracket words by
elimination on Fractions in a basis of left-nested brackets
(left_nested_basis, walking distinct_orderings), where the package writes
them in closed form by the first-letter Dynkin identity; the two share
only the package's word expansions, and their bracket words differ, so
tests compare the expansions. The vertex algebra probes field_window and
weak_commutativity_order are test helpers rather than oracles: they
iterate the package's state_field over a window of powers; so is
pair_lex_stability, a lexicographic framed condition on the package's
WeakStability. correction_form, slope_value, order_ranks, leq, same_value,
is_generic_pair, dominates and theta are definitions that the package does
not carry, since nothing in it calls them; they live here as the
references the tests compare against. The frozen literal tables were
worked out by hand from the defining formulas and are committed as data;
the tests compare the package against them, never the reverse.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, prod

import sympy


# ---------------------------------------------------------------------------
# quiver fixtures (JSON level, no package imports)

def a2_json():
    return {"vertices": ["v", "w"],
            "edges": [{"id": "e1", "from": "v", "to": "w"}]}


def kronecker_json(m):
    return {"vertices": ["v", "w"],
            "edges": [{"id": f"a{i}", "from": "v", "to": "w"} for i in range(m)]}


def tree4_json():
    # a -> b -> c and b -> d: connected, simply connected, one branch point
    return {"vertices": ["a", "b", "c", "d"],
            "edges": [{"id": "e1", "from": "a", "to": "b"},
                      {"id": "e2", "from": "b", "to": "c"},
                      {"id": "e3", "from": "b", "to": "d"}]}


def cyclic3_json():
    return {"vertices": ["x", "y", "z"],
            "edges": [{"id": "e1", "from": "x", "to": "y"},
                      {"id": "e2", "from": "y", "to": "z"},
                      {"id": "e3", "from": "z", "to": "x"}]}


# ---------------------------------------------------------------------------
# polynomials: {monomial: coefficient} dicts, as the package takes them

def gen(g):
    return {((g, 1),): 1}


def lincomb(terms):
    """sum of c * p over the (c, p) pairs, zeros dropped."""
    acc = {}
    for c, p in terms:
        for m, x in p.items():
            acc[m] = acc.get(m, 0) + c * x
    return {m: x for m, x in acc.items() if x}


# ---------------------------------------------------------------------------
# independent recomputations

def euler_form_oracle(qjson, d, e):
    """Hom-minus-ext count from the JSON data directly."""
    total = sum(d.get(v, 0) * e.get(v, 0) for v in qjson["vertices"])
    for edge in qjson["edges"]:
        total -= d.get(edge["from"], 0) * e.get(edge["to"], 0)
    return total


def sym_form_oracle(qjson, d, e):
    return euler_form_oracle(qjson, d, e) + euler_form_oracle(qjson, e, d)


def correction_form(m, d, e):
    """Bilinear defect of the Euler form under pushforward along the quiver
    morphism m: merged ordered vertex pairs weighted d(v) e(w) plus
    unmatched edges weighted d(source) e(target), so that

        euler_form(target, m(d), m(e))
            = euler_form(source, d, e) + correction_form(m, d, e).
    """
    total = sum(d[v] * e[w] for v, w in m.merged_pairs())
    for eid in m.unmatched_edge_ids:
        a = m.source.edge(eid)
        total += d[a.source] * e[a.target]
    return total


def has_cycle_oracle(qjson):
    """Plain recursive three-colour DFS, independent of the Kahn route."""
    succ = {v: [] for v in qjson["vertices"]}
    for edge in qjson["edges"]:
        succ[edge["from"]].append(edge["to"])
    state = {v: 0 for v in succ}

    def visit(v):
        if state[v] == 1:
            return True
        if state[v] == 2:
            return False
        state[v] = 1
        hit = any(visit(w) for w in succ[v])
        state[v] = 2
        return hit

    return any(visit(v) for v in succ)


def tuple_count_oracle(d, n):
    """Number of ordered n-tuples of nonzero vectors summing to d.

    Stars and bars counts tuples allowing zero parts; inclusion-exclusion
    over the set of forced-zero slots removes them.
    """
    vals = list(d.values())

    def with_zeros(k):
        out = 1
        for dv in vals:
            out *= comb(dv + k - 1, k - 1)
        return out

    return sum((-1) ** (n - k) * comb(n, k) * with_zeros(k) for k in range(1, n + 1))


def splitting_tensor_total_chern(r1, r2, dual1, dual2, bound):
    """Total Chern class of a tensor product via splitting variables.

    Returns a sympy expression in symbols e1..e{r1} (first factor) and
    f1..f{r2} (second factor), the elementary symmetric values of the two
    factors, truncated above weight `bound`.  Duals flip the sign of every
    splitting root.  Only sensible for small ranks; the suite uses r <= 3.
    """
    xs = sympy.symbols(f"x1:{r1 + 1}")
    ys = sympy.symbols(f"y1:{r2 + 1}")
    sx = -1 if dual1 else 1
    sy = -1 if dual2 else 1
    if not (r1 and r2):
        return sympy.Integer(1)
    es = [sympy.Symbol(f"e{i}") for i in range(1, r1 + 1)]
    fs = [sympy.Symbol(f"f{i}") for i in range(1, r2 + 1)]
    expr = sympy.expand(sympy.prod([1 + sx * x + sy * y for x in xs for y in ys]))
    expr = _symmetrize(expr, xs, es)
    expr = _symmetrize(expr, ys, fs)
    # truncate: weight of e_i is i, of f_j is j
    return _truncate_weight(sympy.expand(expr), es, fs, bound)


def _symmetrize(expr, roots, elems):
    if not roots:
        return expr
    reduced, remainder, defs = sympy.symmetrize(expr, roots, formal=True)
    assert remainder == 0, "expression was not symmetric in the roots"
    subs = {sym: elems[i] for i, (sym, _) in enumerate(defs)}
    return reduced.xreplace(subs)


def _truncate_weight(expr, es, fs, bound):
    weights = {}
    for i, s in enumerate(es, start=1):
        weights[s] = i
    for j, s in enumerate(fs, start=1):
        weights[s] = j
    out = sympy.Integer(0)
    for term in sympy.Add.make_args(expr):
        w = 0
        for s, p in term.as_powers_dict().items():
            if s in weights:
                w += weights[s] * int(p)
        if w <= bound:
            out += term
    return sympy.expand(out)


def chern_character_atom_oracle(atom, ring, bound):
    """Total Chern class of a tensor product of tautological bundles by the
    Chern character, in Fractions throughout: power sums from Newton's
    identities, ch_k = p_k / k!, the characters multiplied degreewise and
    truncated, then back through k! and Newton's identities over Q.  It was
    the package's chern_atom before the integer power sums, and shares only
    mul_trunc and weight_part with it."""
    from quiverinv.charclass import mul_trunc, weight_part

    def power_sums(elem):
        p = [{}]
        for k in range(1, bound + 1):
            p.append(lincomb([((-1) ** (k - 1) * k, elem[k])] + [
                ((-1) ** (j - 1), mul_trunc(elem[j], p[k - j])) for j in range(1, k)
            ]))
        return p

    def character(c, rank):
        p = power_sums([weight_part(c, w) for w in range(bound + 1)])
        return [{(): rank}] + [
            lincomb([(Fraction(1, factorial(k)), p[k])]) for k in range(1, bound + 1)
        ]

    def single(f, v, dual):
        r = ring.rank(f, v)
        terms = {(): Fraction(1)}
        for i in range(1, min(r, bound) + 1):
            terms[(((f, v, i), 1),)] = Fraction(-1 if dual and i % 2 else 1)
        return terms

    if any(ring.rank(f, v) == 0 for f, v, _ in atom):
        return {(): 1}
    total, rank = single(*atom[0]), ring.rank(*atom[0][:2])
    for f, v, dual in atom[1:]:
        chA, chB = character(total, rank), character(single(f, v, dual), ring.rank(f, v))
        p = [{}]
        for k in range(1, bound + 1):
            ch = lincomb((1, mul_trunc(chA[i], chB[k - i], bound)) for i in range(k + 1))
            p.append(lincomb([(factorial(k), ch)]))
        elem = [{(): 1}]
        for k in range(1, bound + 1):
            acc = lincomb(((-1) ** (j - 1), mul_trunc(elem[k - j], p[j])) for j in range(1, k + 1))
            elem.append(lincomb([(Fraction(1, k), acc)]))
        total, rank = lincomb((1, e) for e in elem), rank * ring.rank(f, v)
    return total


def binary_stable_point_oracle(qjson, d_support, mu):
    """Does the binary class with the given support have a stable point?

    For a binary class on a tree the generic representation has every edge
    map inside the support nonzero, and up to gauge there is exactly one
    such representation.  Its subrepresentations are the head-closed vertex
    subsets, so stability is a finite subset check: every proper nonempty
    head-closed subset must have strictly smaller slope.
    """
    support = set(d_support)
    edges_in = [(e["from"], e["to"]) for e in qjson["edges"]
                if e["from"] in support and e["to"] in support]

    def slope(subset):
        num = sum(Fraction(mu[v]) for v in subset)
        return num / len(subset)

    total = slope(support)
    for bits in product((0, 1), repeat=len(support)):
        subset = {v for v, b in zip(sorted(support), bits) if b}
        if not subset or subset == support:
            continue
        if any(s in subset and t not in subset for s, t in edges_in):
            continue  # not closed under heads, not a subrep
        if slope(subset) >= total:
            return False
    return True


def binary_bracket_oracle(qjson, e_supp, f_supp):
    """Expected bracket of two unit classes with binary, connected supports.

    Returns "overlap" when the supports meet (the bracket then lives in a
    non-binary class and no further claim is made), else the coefficient of
    the unit class of the sum: 0 with no connecting edge, +1 with a single
    edge from the second support into the first, -1 with a single edge from
    the first into the second.  Inputs must be connected subsets of a tree
    so at most one edge joins them.
    """
    e_set, f_set = set(e_supp), set(f_supp)
    if e_set & f_set:
        return "overlap"
    into_e = [ed for ed in qjson["edges"]
              if ed["from"] in f_set and ed["to"] in e_set]
    into_f = [ed for ed in qjson["edges"]
              if ed["from"] in e_set and ed["to"] in f_set]
    assert len(into_e) + len(into_f) <= 1, "tree hypothesis violated"
    if into_e:
        return 1
    if into_f:
        return -1
    return 0


def connected_subsets(qjson, vertices=None):
    """Nonempty vertex subsets whose induced subquiver is connected."""
    verts = list(vertices if vertices is not None else qjson["vertices"])
    adj = {v: set() for v in verts}
    for e in qjson["edges"]:
        if e["from"] in adj and e["to"] in adj:
            adj[e["from"]].add(e["to"])
            adj[e["to"]].add(e["from"])
    out = []
    for bits in product((0, 1), repeat=len(verts)):
        subset = [v for v, b in zip(verts, bits) if b]
        if not subset:
            continue
        seen = {subset[0]}
        stack = [subset[0]]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt in subset and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) == len(subset):
            out.append(tuple(subset))
    return out


def framed_u_oracle(n, k):
    """Transform coefficient of a framed tuple: n base letters of one
    slope plus the framing unit in slot k of n+1, crossing from the
    framing-below to the framing-above perturbation.

    The whole framed transform is (-1)^n/n! times the left-nested
    bracket that starts with the framing unit, so the coefficient of the
    word with the unit in slot k is (-1)^n/n! times the word coefficient
    (-1)^(k-1) binom(n, k-1) of that bracket:

        (-1)^(n+k-1) / ((k-1)! (n+1-k)!),   k = 1, ..., n+1.
    """
    if not 1 <= k <= n + 1:
        raise ValueError("slot out of range")
    return Fraction((-1) ** (n + k - 1), factorial(k - 1) * factorial(n + 1 - k))


def substitution_coaction_oracle(ranks, monomial):
    """z-expansion of a monomial under the substitution definition

        c[0, v, i] -> sum_j binom(r - i + j, j) z^j c[0, v, i - j],

    with r = ranks[(0, v)], c[0, v, 0] = 1, and generators of every other
    factor left alone, multiplied out factor by factor.  The monomial and
    the result use the package's data format: a sorted tuple of
    ((factor, vertex, index), exponent) pairs, and {j: {monomial: Fraction}}
    with zero coefficients dropped.
    """
    # terms are keyed by (power of z, sorted tuple of generators with repeats)
    series = {(0, ()): Fraction(1)}
    for (f, v, i), e in monomial:
        if f == 0:
            r = ranks[(f, v)]
            image = {(j, ((f, v, i - j),) if j < i else ()): comb(r - i + j, j)
                     for j in range(i + 1)}
        else:
            image = {(0, ((f, v, i),)): 1}
        for _ in range(e):
            nxt = {}
            for (za, ga), ca in series.items():
                for (zb, gb), cb in image.items():
                    key = (za + zb, tuple(sorted(ga + gb)))
                    nxt[key] = nxt.get(key, 0) + ca * cb
            series = nxt
    out = {}
    for (z, gens), c in series.items():
        if c:
            mono = tuple((g, gens.count(g)) for g in sorted(set(gens)))
            out.setdefault(z, {})[mono] = Fraction(c)
    return out


def _rat(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def _translation_matrix_oracle(ranks, basis, lower_basis):
    """Matrix of D as a sympy Matrix: rows index lower_basis, columns basis.

    D is read off as the z^1 part of substitution_coaction_oracle, so this
    shares no code with the package's derivation.
    """
    row = {m: k for k, m in enumerate(lower_basis)}
    mat = sympy.zeros(len(lower_basis), len(basis))
    for c, m in enumerate(basis):
        for mono, x in substitution_coaction_oracle(ranks, m).get(1, {}).items():
            mat[row[mono], c] = _rat(x)
    return mat


def translation_image_oracle(ranks, basis, lower_basis, functional):
    """Rank test: the functional {monomial: Fraction} on basis is the
    transpose of D applied to something iff appending it as a column to
    that transpose leaves the rank unchanged."""
    mat = _translation_matrix_oracle(ranks, basis, lower_basis).T
    b = sympy.Matrix([[_rat(functional.get(m, 0))] for m in basis])
    return mat.rank() == mat.row_join(b).rank()


def weight_zero_rref_oracle(ranks, basis, lower_basis):
    """Kernel of D as sympy's nullspace, brought to row reduced echelon
    form over the order of basis; rows as {monomial: Fraction}."""
    null = _translation_matrix_oracle(ranks, basis, lower_basis).nullspace()
    reduced, _ = sympy.Matrix([list(vec.T) for vec in null]).rref()
    return [
        {basis[c]: Fraction(int(x.p), int(x.q))
         for c, x in enumerate(reduced.row(r)) if x != 0}
        for r in range(reduced.rows)
    ]


def _pushforward_by_pairing(u, quiver, ring, pullback):
    """The class on ring whose value at each basis monomial m is u paired
    with pullback(m)."""
    from quiverinv.charclass import monomial_basis
    from quiverinv.vertexalg import HClass

    out = {}
    if u.degree >= 0 and u.degree % 2 == 0:
        for m in monomial_basis(ring, u.degree // 2):
            val = u.pair(pullback({m: 1}))
            if val:
                out[m] = val
    return HClass(quiver, ring, u.degree, out)


def direct_sum_pushforward_oracle(w):
    """Pushforward of a two-factor class along the direct sum, by pairing
    with direct_sum_pullback over the whole target basis."""
    from quiverinv.charclass import ChernRing, direct_sum_pullback

    ring = ChernRing((w.ring.dims[0] + w.ring.dims[1],))
    return _pushforward_by_pairing(w, w.quiver, ring, lambda p: direct_sum_pullback(p, w.ring))


def merge_pushforward_oracle(mor, u):
    """Pushforward along a quiver morphism, by pairing with merge_pullback
    over the whole target basis."""
    from quiverinv.charclass import ChernRing, merge_pullback

    ring = ChernRing((mor.pushforward(u.ring.dims[0]),))
    return _pushforward_by_pairing(u, mor.target, ring, lambda p: merge_pullback(mor, p, u.ring))


def state_field_oracle(u, v, powers):
    """Coefficients of Y(u, z) v summed term by term, straight from the
    definition: for each i, its own chain of divided translations and its
    own direct-sum pushforward, taken by pairing.  Built from the package's
    primitives, but independent of the package's Horner summation over i
    and of its transposed pushforward."""
    from quiverinv.charclass import ChernRing, chern_kclass, ext_pairing_kexpr, weight_part
    from quiverinv.quiver import sign_epsilon, sym_euler_form
    from quiverinv.vertexalg import cap, divided_translation, kunneth, zero_class

    q = u.quiver
    a, b = u.ring.dims[0], v.ring.dims[0]
    chi = sym_euler_form(q, a, b)
    sign = sign_epsilon(q, a, b)
    out = {p: zero_class(q, (a + b,), u.degree + v.degree + 2 * p - 2 * chi)
           for p in powers}
    if u.is_zero() or v.is_zero():
        return out
    imax = (u.degree + v.degree) // 2
    total_chern = chern_kclass(ext_pairing_kexpr(q), ChernRing((a, b)), imax)
    uv = kunneth(u, v)
    for i in range(imax + 1):
        ci = weight_part(total_chern, i)
        if not ci:
            continue
        w_i = cap(uv, ci)
        for p in powers:
            j = p - chi + i
            if j >= 0:
                term = direct_sum_pushforward_oracle(divided_translation(w_i, j))
                out[p] = out[p] + term.scale(sign)
    return out


def _sum_letters(letters):
    total = letters[0]
    for x in letters[1:]:
        total = total + x
    return total


def slope_value(mu, d):
    """<mu, d> / |d| in Fractions, for weights given as a vertex mapping."""
    return sum((Fraction(mu[v]) * n for v, n in d.items()), Fraction(0)) / d.total()


def order_ranks(values):
    """The rank of each value: how many distinct values lie below it."""
    return tuple(len({y for y in values if y < x}) for x in values)


def leq(stab, d, e):
    return stab.value(d) <= stab.value(e)


def same_value(stab, d, e):
    return stab.value(d) == stab.value(e)


def is_generic_pair(stab, d):
    """No two-part decomposition of d into vectors of equal value."""
    from quiverinv.quiver import subvectors

    return not any(e != d and same_value(stab, e, d - e) for e in subvectors(d))


def dominates(coarse, fine, classes):
    """Whether fine(a) <= fine(b) implies coarse(a) <= coarse(b) on all pairs
    from the finite set of classes."""
    cs = list(classes)
    return all(leq(coarse, a, b) for a in cs for b in cs if leq(fine, a, b))


def s_coeff_oracle(alphas, from_stab, to_stab):
    """Sign coefficient straight from the cut rule: each comparison calls
    value() on freshly built dimension-vector sums."""
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("empty tuple")
    n = len(alphas)
    r = 0
    head = alphas[0]
    for i in range(1, n):
        ascending = leq(from_stab, alphas[i - 1], alphas[i])
        head_value = to_stab.value(head)
        tail_value = to_stab.value(_sum_letters(alphas[i:]))
        if ascending and head_value > tail_value:
            r += 1
        elif not ascending and head_value <= tail_value:
            pass
        else:
            return 0
        head = head + alphas[i]
    return -1 if r % 2 else 1


def _compositions(n, blocks):
    for inner in combinations(range(1, n), blocks - 1):
        yield (0,) + inner + (n,)


def u_coeff_oracle(alphas, from_stab, to_stab):
    """Transformation coefficient by plain enumeration of blocks and
    superblocks, with s_coeff_oracle per superblock and no memo."""
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("empty tuple")
    n = len(alphas)
    total_value = to_stab.value(_sum_letters(alphas))
    result = Fraction(0)
    for m in range(1, n + 1):
        for a in _compositions(n, m):
            betas = []
            ok = True
            for i in range(m):
                block = alphas[a[i] : a[i + 1]]
                beta = _sum_letters(block)
                if any(not same_value(from_stab, beta, x) for x in block):
                    ok = False
                    break
                betas.append(beta)
            if not ok:
                continue
            weight = Fraction(1)
            for i in range(m):
                weight /= factorial(a[i + 1] - a[i])
            for l in range(1, m + 1):
                for b in _compositions(m, l):
                    gammas_ok = True
                    signs = Fraction(1)
                    for i in range(l):
                        group = betas[b[i] : b[i + 1]]
                        if to_stab.value(_sum_letters(group)) != total_value:
                            gammas_ok = False
                            break
                        s = s_coeff_oracle(group, from_stab, to_stab)
                        if s == 0:
                            gammas_ok = False
                            break
                        signs *= s
                    if not gammas_ok:
                        continue
                    result += Fraction((-1) ** (l - 1), l) * signs * weight
    return result


def grassmannian_integral(m, n, monomial, t):
    """The integral over the Grassmannian of n-dimensional quotients of C^m
    of a monomial in c[0, v, i] and c[0, w, i], the Chern classes of the
    family V_v = O and V_w = Q, the universal quotient, by Atiyah-Bott
    localization (Atiyah-Bott, Topology 23, 1984): the torus acts on C^m
    with the distinct integer weights t; at the fixed point of an n-subset
    S, Q has the roots t_s for s in S, and the tangent space Hom(K, Q),
    with K the kernel, has Euler class prod (t_s - t_j) over s in S and j
    not in S."""
    total = Fraction(0)
    for subset in combinations(range(m), n):
        roots = [t[s] for s in subset]
        value = 1
        for (_, vertex, i), e in monomial:
            value *= 0 if vertex == "v" else sum(map(prod, combinations(roots, i))) ** e
        euler = prod(t[s] - t[j] for s in subset for j in range(m) if j not in subset)
        total += Fraction(value, euler)
    return total


def slice_projection(poly, ring, vertex):
    """P'(poly) = sum_j (-s)^j D^j(poly) / j! on a one-factor ring, with
    s = c[0, vertex, 1] / d(vertex) and D the translation derivation: the
    ring map that replaces each c_k(V_x) by c_k(V_x (x) M), c_1(M) = -s,
    by the twisting formula c_k(E (x) M) = sum_j C(r - k + j, j)
    c_{k-j}(E) c_1(M)^j for E of rank r.  Its image lies in ker D, so a
    rigidified class pairs with it independently of the representative,
    and on a family with V_vertex trivial P'(f) takes the value of f."""
    from quiverinv.charclass import mul_trunc, power_trunc

    mu = {(((0, vertex, 1), 1),): Fraction(-1, ring.rank(0, vertex))}
    image = {}
    for f, x, k in ring.generators():
        lower = [{(): 1}] + [gen((f, x, i)) for i in range(1, k + 1)]
        image[(f, x, k)] = lincomb(
            (comb(ring.rank(f, x) - k + j, j), mul_trunc(lower[k - j], power_trunc(mu, j)))
            for j in range(k + 1)
        )
    out = []
    for monomial, c in poly.items():
        term = {(): c}
        for g, e in monomial:
            term = mul_trunc(term, power_trunc(image[g], e))
        out.append((1, term))
    return lincomb(out)


# ---------------------------------------------------------------------------
# vertex algebra probes (test helpers built on the package's state_field)

def field_window(u, v, w, powers1, powers2):
    """Double coefficients of Y(u, z1) Y(v, z2) w on a rectangular window."""
    from quiverinv.vertexalg import state_field

    powers1 = sorted(set(powers1))
    out = {}
    inner = state_field(v, w, powers2)
    for p2, cls in inner.items():
        outer = state_field(u, cls, powers1)
        for p1, top in outer.items():
            out[(p1, p2)] = top
    return out


def weak_commutativity_order(u, v, w, window, max_order):
    """Smallest N <= max_order such that every coefficient of
    (z1 - z2)^N (Y(u, z1) Y(v, z2) - Y(v, z2) Y(u, z1)) w

    with both exponents in [-window, window] vanishes; None if no such N.
    The check is finite: it inspects the stated window only.
    """
    lo, hi = -window - max_order, window
    ps = range(lo, hi + 1)
    first = field_window(u, v, w, ps, ps)
    second = {
        (p1, p2): cls for (p2, p1), cls in field_window(v, u, w, ps, ps).items()
    }
    for n in range(0, max_order + 1):
        ok = True
        for a in range(-window, window + 1):
            for b in range(-window, window + 1):
                acc = None
                for k in range(n + 1):
                    p1, p2 = a - k, b - (n - k)
                    if p1 < lo or p2 < lo:
                        continue
                    diff = first[(p1, p2)] - second[(p1, p2)]
                    piece = diff.scale(comb(n, k) * (-1) ** (n - k))
                    acc = piece if acc is None else acc + piece
                if acc is not None and not acc.is_zero():
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return n
    return None


# ---------------------------------------------------------------------------
# word sums: dicts mapping tuples of letters to Fractions

def word_sum(pairs):
    """Collect (word, coefficient) pairs into a dict, dropping zeros."""
    acc = {}
    for w, c in pairs:
        c = acc.get(w, Fraction(0)) + c
        if c:
            acc[w] = c
        else:
            acc.pop(w, None)
    return acc


def theta(ws):
    """Replace each word by its left-nested bracketing, linearly."""
    from quiverinv.wallcoeff import dynkin_word

    out = {}
    for w, c in ws.items():
        for k, y in dynkin_word(w).items():
            out[k] = out.get(k, 0) + c * y
    return {k: x for k, x in out.items() if x}


def is_lie_element(ws):
    """Dynkin criterion: a sum p of words of length n is a Lie element
    exactly when theta(p) = n p, for each length n."""
    comps = {}
    for w, c in ws.items():
        if c:
            comps.setdefault(len(w), {})[w] = c
    return all(theta(comp) == {w: n * c for w, c in comp.items()} for n, comp in comps.items())


def distinct_orderings(letters):
    """Distinct orderings of the letters, in lexicographic order."""
    seq = sorted(letters)
    while True:
        yield tuple(seq)
        # step to the next ordering: raise the last ascent, reverse the tail
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1:] = reversed(seq[i + 1:])


def _expansion(w):
    from quiverinv.wallcoeff import dynkin_word

    return {k: Fraction(c) for k, c in dynkin_word(w).items()}


def _eliminate(row, combo, echelon):
    """Clear the echelon pivots from row, and the same multiples of their
    combinations from combo, dividing by each pivot."""
    for pivot, prow, pcombo in echelon:
        x = row.get(pivot)
        if x:
            x = x / prow[pivot]
            for acc, other in ((row, prow), (combo, pcombo)):
                for k, y in other.items():
                    acc[k] = acc.get(k, 0) - x * y
                    if not acc[k]:
                        del acc[k]


def left_nested_basis(letters):
    """Echelon form of a basis of left-nested brackets of the letters: the
    distinct orderings that start with the least letter, in lexicographic
    order, each kept when its expansion is independent of the kept ones.
    Each row is (pivot word, reduced expansion, the row as a combination
    of kept orderings); the rows number Witt's dimension."""
    from quiverinv.wallcoeff import _letter_key

    order = sorted(set(letters), key=_letter_key)
    rank = {x: i for i, x in enumerate(order)}
    echelon = []
    for idx in distinct_orderings([rank[x] for x in letters]):
        if not idx or idx[0]:
            break
        w = tuple(order[i] for i in idx)
        row, combo = _expansion(w), {w: Fraction(1)}
        _eliminate(row, combo, echelon)
        if row:
            echelon.append((next(iter(row)), row, combo))
    return echelon


def lie_normalize_oracle(ws):
    """lie_normalize by elimination on Fractions in left_nested_basis,
    solved group by group, with the word expansion of the result checked
    against the input."""
    from quiverinv.wallcoeff import LieElementError, LieWord, _letter_key, _word_key

    groups = {}
    for w, c in ws.items():
        if c:
            groups.setdefault(tuple(sorted(w, key=_letter_key)), {})[w] = Fraction(c)
    out = []
    for letters in sorted(groups, key=lambda k: (len(k), _word_key(k))):
        row, combo = dict(groups[letters]), {}
        _eliminate(row, combo, left_nested_basis(letters))
        out.extend(LieWord(w, -combo[w]) for w in sorted(combo, key=_word_key))
    if expand_lie_words(out) != {w: c for w, c in ws.items() if c}:
        raise LieElementError("bracket expansion does not reproduce the input")
    return out


def expand_lie_words(lie_words):
    """The word sum of a list of LieWords, by their word expansions."""
    return word_sum(
        (w, lw.coefficient * c) for lw in lie_words for w, c in _expansion(lw.letters).items()
    )


# ---------------------------------------------------------------------------
# per-word bracket sums: the package's three sums evaluated one left-nested
# word at a time, with no grouping by last letter and no pruning of letters
# whose class is empty

def _word_class(letters, leaf, memo):
    """[...[[leaf(x_1), leaf(x_2)], x_3], ..., leaf(x_n)], its prefixes
    memoized in memo."""
    from quiverinv.vertexalg import lie_bracket

    if letters not in memo:
        if len(letters) == 1:
            memo[letters] = leaf(letters[0])
        else:
            memo[letters] = lie_bracket(_word_class(letters[:-1], leaf, memo), leaf(letters[-1]))
    return memo[letters]


def _sum_of_words(q, total, words, leaf):
    from quiverinv.invariants import natural_degree
    from quiverinv.vertexalg import PlClass, zero_class

    acc = zero_class(q, (total,), natural_degree(q, total))
    memo = {}
    for letters, c in words:
        acc = acc + _word_class(tuple(letters), leaf, memo).rep.scale(c)
    return PlClass(acc)


def invariant_by_words(q, tau, d):
    """invariant(q, tau, d) as a sum of its bracket words of unit classes."""
    from quiverinv.quiver import unit_vector
    from quiverinv.stability import reference_increasing_slope
    from quiverinv.vertexalg import unit_pl
    from quiverinv.wallcoeff import lie_normalize, u_coeff

    reference = reference_increasing_slope(q)
    words = {}
    for perm in distinct_orderings([v for v, n in d.items() for _ in range(n)]):
        tup = tuple(unit_vector(v) for v in perm)
        c = u_coeff(tup, reference, tau)
        if c:
            words[tup] = c
    return _sum_of_words(q, d, lie_normalize(words), lambda e: unit_pl(q, e))


def wallcross_transform_by_words(q, table, to_stab, d):
    """wallcross_transform as a sum over every u-weighted decomposition's
    bracket words, dead letters included."""
    from quiverinv.quiver import all_decompositions
    from quiverinv.wallcoeff import lie_normalize, u_coeff

    words = {}
    for parts in all_decompositions(d):
        c = u_coeff(parts, table.stability, to_stab)
        if c:
            words[parts] = c
    return _sum_of_words(q, d, lie_normalize(words), table.__getitem__)


def pair_rhs_by_words(q, mu, d, framing):
    """The right side of the framed-pair identity, one decomposition at a
    time: (-1)^n / n! [[...[framing unit, i(inv d_1)], ...], i(inv d_n)]."""
    from quiverinv.invariants import induced_pl_map, invariant
    from quiverinv.quiver import all_decompositions, frame_quiver, subvectors, unit_vector
    from quiverinv.stability import slope_stability
    from quiverinv.vertexalg import unit_pl

    mu = slope_stability(q, mu)
    framed, inclusion = frame_quiver(q, framing)
    (frame_vertex,) = set(framed.vertices) - set(q.vertices)
    frame = unit_vector(frame_vertex)
    letters = {
        e: induced_pl_map(inclusion, invariant(q, mu, e))
        for e in subvectors(d)
        if mu.value(e) == mu.value(d)
    }
    letters[frame] = unit_pl(framed, frame)
    words = [
        ((frame,) + parts, Fraction((-1) ** len(parts), factorial(len(parts))))
        for parts in all_decompositions(d)
        if all(p in letters for p in parts)
    ]
    return _sum_of_words(framed, d + frame, words, letters.__getitem__)


# ---------------------------------------------------------------------------
# framed stability helper (a WeakStability built from the package's class)

def pair_lex_stability(framed, base_mu, sign, frame_vertex="inf"):
    """Lexicographic framed stability with formal infinity endpoints.

    A framed class splits as (base part, n) with n the framing multiplicity.
    Values order as rank-tagged tuples: (0, slope(base), s) with the tie
    breaker s = 0 for n = 0 and s = sign for n > 0, and purely framed
    classes get the absolute endpoint (sign,), i.e. plus or minus infinity.
    """
    from quiverinv.quiver import DimVector
    from quiverinv.stability import WeakStability

    base_vertices = [v for v in framed.vertices if v != frame_vertex]
    weights = {v: Fraction(base_mu[v]) for v in base_vertices}

    def value(d):
        base = DimVector([(v, n) for v, n in d.items() if v != frame_vertex])
        if base.is_zero():
            return (sign,)
        s = sum((weights[v] * k for v, k in base.items()), Fraction(0)) / base.total()
        return (0, s, 0 if d[frame_vertex] == 0 else sign)

    return WeakStability(value, name=f"pairlex{'+' if sign > 0 else '-'}")


# ---------------------------------------------------------------------------
# frozen literals

# euler CLI example: K3 with d = e = (2,3):
#   chi_Q = (2*2 + 3*3) - 3*(2*3) = 13 - 18 = -5, chi = -10, epsilon = (-1)^-5
K3_EULER_D23 = {"chi_Q": "-5", "chi": "-10", "epsilon": "-1"}

# A2 unit vectors across the edge
A2_UNIT_CHI = -1

# Kronecker two-letter transform coefficients between the v-heavy slope
# (mu_v, mu_w) = (1, 0) and the increasing slope (0, 1), worked by hand from
# the cut dichotomy: one cut, ascending-at-target and descending-at-source
# cases.  Keys are letter tuples, "lo" = increasing, "hi" = v-heavy.
S_LO_TO_HI = {("v", "w"): Fraction(-1), ("w", "v"): Fraction(1)}
U_LO_TO_HI = {("v", "w"): Fraction(-1), ("w", "v"): Fraction(1),
              ("v", "v"): Fraction(0), ("w", "w"): Fraction(0)}
U_HI_TO_LO = {("v", "w"): Fraction(1), ("w", "v"): Fraction(-1)}

# first-order scalar-action coaction on degree-2 generators: c_{v,1} picks up
# rank(V_v) * z, so the divided translation of the unit functional at d
# pairs with c_{v,1} as d(v)
D1_UNIT_PAIRINGS = {("v", 1, "w", 2): {"v": 1, "w": 2}}

# Kronecker invariants at d = (1,1), v-heavy chamber: the projective space
# of the m edge maps, pairing 1 against (c_{w,1} - c_{v,1})^(m-1)
KRONECKER_POINT_PAIRING = {1: 1, 2: 1, 3: 1}

# Euler characteristics of the stable moduli of the m-Kronecker quiver in the
# v-heavy chamber, keyed (m, d(v), d(w)).  d = (1, 1) gives the projective
# space P^(m-1) of the edge maps, d = (1, 2) the Grassmannian Gr(2, m), and
# K2 (2, 3) is a point (dimension 1 - chi(d, d) = 0), and K3 (2, 3) is
# 6-dimensional with Euler characteristic 13.
KRONECKER_EULER_CHARACTERISTICS = {
    (2, 1, 1): 2, (2, 1, 2): 1, (2, 2, 3): 1,
    (3, 1, 1): 3, (3, 1, 2): 3, (3, 2, 3): 13,
    (4, 1, 1): 4, (4, 1, 2): 6,
}
