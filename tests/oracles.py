"""Independent oracles and frozen expected values for the test suite.

Everything here is computed by routes that do not share code with the
package: bilinear forms straight off the JSON dicts, sympy splitting
variables for tensor Chern classes, DFS for cycle detection, brute force
subset search for stable points of binary tree classes.  The frozen literal
tables were worked out by hand from the defining formulas and are committed
as data; the tests compare the package against them, never the reverse.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial

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
# independent recomputations

def euler_form_oracle(qjson, d, e):
    """Hom-minus-ext count from the JSON data directly."""
    total = sum(d.get(v, 0) * e.get(v, 0) for v in qjson["vertices"])
    for edge in qjson["edges"]:
        total -= d.get(edge["from"], 0) * e.get(edge["to"], 0)
    return total


def sym_form_oracle(qjson, d, e):
    return euler_form_oracle(qjson, d, e) + euler_form_oracle(qjson, e, d)


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
