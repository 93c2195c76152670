"""Enumerative invariant classes of semistable quiver moduli.

For an acyclic quiver q, a weak stability condition tau, and a nonzero
effective dimension vector d, invariant(q, tau, d) is a class of the
rigidified moduli stack in homological degree 2 - 2 euler_form(q, d, d)
(the zero class when that is negative).  The algorithm:

  1. against an increasing slope (values grow along every edge) the
     invariant of a unit vector is the unit class and every other
     invariant vanishes (invariant_increasing);
  2. the invariant at tau is the wall-crossing transform of those unit
     classes from reference_increasing_slope to tau; any other
     increasing slope gives the same class (a theorem).

wallcross_transform expresses the classes at a new stability condition as
bracket words of the classes at an old one: the free word sum over the
ordered decompositions of d into nonempty classes, with u-coefficients
for the pair of conditions (_u_words: one walk of their trie), is written
in closed form as left-nested bracket words (lie_normalize: in each letter
multiset, the words that begin with its largest letter once, by the
first-letter Dynkin identity), whose word expansion must give back the
sum exactly (which certifies that it is a Lie element), and evaluated
with one lie_bracket per group of words sharing a last letter
(_bracket_sum).  invariant and wallcross_transform share that word sum
(_word_sum), run on integer-coded subvectors of d and the ranks of the
conditions there; the transform of a table must agree with invariant.
Each check builds the subvectors of its d and their codes once
(_lattice), ranks each condition on them once, and restricts the ranks to
each e <= d (_orders_below).

induced_pl_map is the map of rigidified homology attached to a quiver
morphism: cap with the Euler class of the correction bundle, then push
forward.  It is a morphism of graded Lie algebras, and the factorial
identity checked by check_morphism_identity says

    prod_v d(v)! * induced_pl_map(invariant at pulled-back tau)
        = prod_v' d'(v')! * invariant on the target at tau.

pair_invariant_report verifies the framed-moduli identity: on the quiver
framed by one extra vertex with framing[v] edges to each v, the
invariant of (d, 1) at a slope perturbed upward equals

    sum over decompositions d = d_1 + ... + d_n, all slope(d_i) =
    slope(d), of (-1)^n / n! [[...[unit at (0,1), i(inv d_1)], ...],
    i(inv d_n)]

with i the inclusion pushforward, and the bracket with the framing unit
is injective on the computed classes when every framing multiplicity is
positive.

A class depends on tau only through the order of tau on the subvectors
of d (_order_condition), so that order is the only key under which a
class is reused: within a process by (quiver, d, order), and across
processes in a content-addressed disk cache keyed by (algorithm version,
quiver, d, order).  Cache writes are atomic and idempotent, reads verify
the stored canonical coordinates against the stored representative.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction
from math import factorial, lcm, prod
from operator import le
from pathlib import Path
from typing import Iterator, Mapping

from .charclass import (
    ChernRing,
    correction_top_class,
    monomial_string,
    parse_monomial_string,
    power_trunc,
)
from .quiver import (
    DimVector,
    Quiver,
    QuiverMorphism,
    euler_form,
    frame_quiver,
    subvectors,
    unit_vector,
)
from .stability import (
    SlopeStability,
    WeakStability,
    fraction_str,
    framed_slope,
    is_increasing,
    parse_fraction,
    pullback_stability,
    reference_increasing_slope,
    slope_stability,
)
from .vertexalg import (
    HClass,
    PlClass,
    canonical_coordinates,
    cap,
    lie_bracket,
    merge_pushforward,
    pl_equal,
    pl_is_zero,
    unit_pl,
    zero_pl,
)
from .wallcoeff import _u_words, lie_normalize

DEFAULT_MAX_SIZE = 8
SELFTEST_MAX_SIZE = 4  # selftest's budget


def natural_degree(q: Quiver, d: DimVector) -> int:
    """Representative degree of an invariant class of dimension vector d."""
    return 2 - 2 * euler_form(q, d, d)


def _check_class(q: Quiver, d) -> DimVector:
    d = q.check_dimvec(DimVector(d))
    if d.is_zero():
        raise ValueError("invariant classes are defined for nonzero vectors only")
    if not d.is_effective():
        raise ValueError(f"dimension vector must be effective, got {d!r}")
    return d


def _check_size(d: DimVector, max_size: int) -> None:
    if d.total() > max_size:
        raise ValueError(
            f"|d| = {d.total()} exceeds the size cap {max_size};"
            " pass a larger max_size to compute anyway"
        )


def _bracket_sum(q: Quiver, total: DimVector, words, leaf, degrees: dict) -> PlClass:
    """Sum of c [...[leaf(x_1), leaf(x_2)], ..., leaf(x_n)] over (letters,
    c) pairs whose letters sum to total; each leaf has its natural degree.

    By bilinearity each group of words with the same last letter e costs
    one bracket, of the sum of their prefixes with leaf(e); the prefixes
    all sum to total - e, so they share a ring and a degree.  The terms
    add up as int numerators over one denominator.  degrees (callers pass
    {}) keeps the natural degree of each total met in the word sum.
    """
    def terms() -> Iterator[tuple[HClass, Fraction]]:
        groups: dict[DimVector, list] = {}
        for letters, c in words:
            if len(letters) == 1:
                yield leaf(letters[0]).rep, Fraction(c)
            else:
                groups.setdefault(letters[-1], []).append((letters[:-1], c))
        for e, prefixes in groups.items():
            yield lie_bracket(_bracket_sum(q, total - e, prefixes, leaf, degrees), leaf(e)).rep, Fraction(1)

    if total not in degrees:
        degrees[total] = natural_degree(q, total)
    degree, ring, num, den = degrees[total], None, {}, 1
    for x, c in terms():  # each term is added, and dropped, before the next is made
        if x.ring.key() != (total.items(),) or x.degree != degree:
            raise ValueError("bracket sum terms live on different stacks or degrees")
        ring, common = x.ring, lcm(den, x.den * c.denominator)
        if common != den:
            num, den = {m: y * (common // den) for m, y in num.items()}, common
        k = c.numerator * (den // (x.den * c.denominator))
        for m, y in x.num.items():
            num[m] = num.get(m, 0) + k * y
    return PlClass(HClass._trusted(q, ring or ChernRing((total,)), degree, num, den))


def _lattice(d: DimVector) -> tuple[list, list, list]:
    """subvectors(d); the code of each, digit e(v) with radix d(v) + 1 at v,
    so a sum of vectors that stays <= d has the sum of their codes, with no
    carry; and for each, the indices of the vectors under it, which for e
    there are subvectors(e), in order.  A check builds the lattice of its d
    once and reads every e <= d off it."""
    subs, radix = subvectors(d), [n + 1 for _, n in d.items()]
    digits = [tuple(e[v] for v in d.support()) for e in subs]
    codes = [sum(x * prod(radix[:k]) for k, x in enumerate(ds)) for ds in digits]
    return subs, codes, [[k for k in range(t + 1) if all(map(le, digits[k], ds))] for t, ds in enumerate(digits)]


def _below(lattice: tuple, top: int, live: set) -> dict:
    """For the code of each vector under the one at top, the live letters
    below it, as (index, code) pairs in index order."""
    _, codes, unders = lattice
    return {codes[k]: [(i, codes[i]) for i in unders[k] if i in live] for k in unders[top]}


def _live_words(rest: int, below: dict) -> Iterator[tuple[int, ...]]:
    """Ordered decompositions of the vector with code rest into letters
    (below from _below), each once, as tuples of indices."""
    for i, c in below[rest]:
        if c == rest:
            yield (i,)
        else:
            for tail in _live_words(rest - c, below):
                yield (i,) + tail


_INVARIANT_MEMO: dict[tuple, PlClass] = {}  # (q, d, ranks) -> class


def _order_condition(tau: WeakStability, d: DimVector) -> tuple[int, ...]:
    """The order of tau on the subvectors of d: the rank of each one's value
    (equal values share one), in subvectors(d) order.  u_coeff compares
    values of partial sums only, so every class and transform of d depends
    on tau through these ranks alone, and those of d fix those of each e."""
    return _ranks(tau, subvectors(d))


def _ranks(tau: WeakStability, subs: list) -> tuple[int, ...]:
    """_order_condition on the subvectors of a lattice."""
    return _dense_ranks([tau.value(e) for e in subs])


def _dense_ranks(values: list) -> tuple[int, ...]:
    """The rank of each value among the values, equal values sharing one."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for prev, i in zip(order, order[1:]):
        ranks[i] = ranks[prev] + (values[i] != values[prev])
    return tuple(ranks)


def _orders_below(lattice: tuple, *conditions: WeakStability) -> list[tuple]:
    """For each vector e of the lattice, in order, the tuple of
    _order_condition(tau, e) over the conditions.  Each condition is ranked
    on the lattice once; the ranks at e are those under e, ranked again."""
    ranks = [_ranks(tau, lattice[0]) for tau in conditions]
    return [tuple(_dense_ranks([r[k] for k in under]) for r in ranks) for under in lattice[2]]


def invariant_increasing(q: Quiver, mu: WeakStability, d) -> PlClass:
    """Invariant class for an increasing slope: unit for unit vectors, else 0."""
    d = _check_class(q, d)
    if not is_increasing(q, mu):
        raise ValueError("stability condition is not increasing on this quiver")
    if d.as_unit() is not None:
        return unit_pl(q, d)
    return zero_pl(q, d, natural_degree(q, d))


def invariant(
    q: Quiver,
    tau: WeakStability,
    d,
    *,
    cache: "CacheStore | None" = None,
    max_size: int = DEFAULT_MAX_SIZE,
) -> PlClass:
    """Invariant class of the semistable moduli of class d at tau: the
    transform of the unit classes from reference_increasing_slope(q),
    which raises CycleError when q has an oriented cycle.  Each of the two
    conditions is ranked on the lattice of d once (_ranks)."""
    d = _check_class(q, d)
    _check_size(d, max_size)
    lattice = _lattice(d)
    reference = _ranks(reference_increasing_slope(q), lattice[0])
    return _invariant(q, lattice, -1, _ranks(tau, lattice[0]), reference, cache)  # d is last


def _invariant(q: Quiver, lattice: tuple, top: int, ranks: tuple, reference: tuple, cache) -> PlClass:
    """invariant of the lattice vector d at top at the condition with ranks on
    subvectors(d), given the ranks of reference_increasing_slope(q) there."""
    d = lattice[0][top]
    if cache is not None:
        hit = cache.get(q, d, ranks)
        if hit is not None:
            return hit

    result = _INVARIANT_MEMO.get((q, d, ranks))
    if result is None:
        units = {e: unit_pl(q, e) for e in map(unit_vector, d.support())}
        result = _INVARIANT_MEMO[q, d, ranks] = _word_sum(q, lattice, top, units, reference, ranks)

    if cache is not None:
        cache.put(q, d, ranks, result)
    return result


class InvariantTable:
    """Computed invariant classes at one stability condition."""

    def __init__(self, quiver: Quiver, stability: WeakStability, classes: Mapping[DimVector, PlClass]):
        self.quiver = quiver
        self.stability = stability
        self.classes: dict[DimVector, PlClass] = dict(classes)

    def __contains__(self, d: DimVector) -> bool:
        return DimVector(d) in self.classes

    def __getitem__(self, d: DimVector) -> PlClass:
        try:
            return self.classes[DimVector(d)]
        except KeyError:
            raise ValueError(f"missing table entry for {DimVector(d)!r}") from None

    def items(self):
        return sorted(self.classes.items(), key=lambda kv: kv[0].sort_key())


def build_invariant_table(
    q: Quiver,
    tau: WeakStability,
    d,
    *,
    cache: "CacheStore | None" = None,
    max_size: int = DEFAULT_MAX_SIZE,
) -> InvariantTable:
    """Invariants at tau for every nonzero e <= d componentwise.  tau and
    reference_increasing_slope(q) are ranked on the lattice of d once, and
    each e gets their ranks there (_orders_below)."""
    d = _check_class(q, d)
    _check_size(d, max_size)
    lattice = _lattice(d)
    orders = _orders_below(lattice, tau, reference_increasing_slope(q))
    classes = {e: _invariant(q, lattice, k, *r, cache) for k, (e, r) in enumerate(zip(lattice[0], orders))}
    return InvariantTable(q, tau, classes)


def wallcross_transform(
    q: Quiver,
    table: InvariantTable,
    to_stab: WeakStability,
    d,
    *,
    max_size: int = DEFAULT_MAX_SIZE,
) -> PlClass:
    """Invariant at to_stab as a bracket sum of table classes.

    The sum runs over ordered decompositions of d weighted by the
    u-coefficients of the pair (table condition, to_stab), leaving out
    those with a part whose table class is empty; every subvector of d
    needs a table entry.  The transform of a table at any condition must
    agree with invariant, which runs the same sum on the unit classes.
    """
    d = _check_class(q, d)
    _check_size(d, max_size)
    if table.quiver != q:
        raise ValueError("table belongs to a different quiver")
    lattice = _lattice(d)
    letters = {e: table[e] for e in lattice[0]}
    frm, to = _ranks(table.stability, lattice[0]), _ranks(to_stab, lattice[0])
    return _word_sum(q, lattice, -1, letters, frm, to)


def _word_sum(q: Quiver, lattice: tuple, top: int, letters: Mapping[DimVector, PlClass], frm, to) -> PlClass:
    """Sum over the words of letters summing to the lattice vector d at
    top, each weighted by its u-coefficient for the conditions with ranks
    frm and to on subvectors(d) (_order_condition), and evaluated as
    bracket words.  A letter is its lattice index, in graded order as
    lie_normalize orders the vectors.  A partial sum of a word stays <= d,
    so its code (_lattice) is the sum of the letters' codes and keys the
    ranks."""
    subs, codes, unders = lattice
    # a bracket with an empty class is empty; each letter multiset is
    # wholly live or wholly dead, so the live words are still a Lie element
    live = {k for k in unders[top] if subs[k] in letters and not letters[subs[k]].rep.is_zero()}
    frm_at, to_at = ({codes[k]: r for k, r in zip(unders[top], ranks)} for ranks in (frm, to))
    words = _u_words(codes[top], _below(lattice, top, live), frm_at, to_at)
    bracket_words = [(tuple(subs[i] for i in w), c) for w, c in lie_normalize(words)]
    return _bracket_sum(q, subs[top], bracket_words, letters.__getitem__, {})


def u_coefficients(d: DimVector, from_stab: WeakStability, to_stab: WeakStability) -> dict[tuple, Fraction]:
    """The nonzero u_coeff(parts, from_stab, to_stab) of the ordered
    decompositions of d, keyed by parts, from one walk of their trie on
    the lattice of d (_u_words); an absent decomposition has u_coeff 0."""
    lattice = _lattice(d)
    subs, codes, _ = lattice
    frm, to = (dict(zip(codes, _ranks(tau, subs))) for tau in (from_stab, to_stab))
    words = _u_words(codes[-1], _below(lattice, -1, set(range(len(subs)))), frm, to)
    return {tuple(subs[i] for i in w): c for w, c in words.items()}


def wallcross_sides(
    q: Quiver,
    from_stab: WeakStability,
    to_stab: WeakStability,
    d,
    *,
    cache: "CacheStore | None" = None,
    max_size: int = DEFAULT_MAX_SIZE,
) -> tuple[PlClass, PlClass]:
    """The transform to to_stab of the invariants at from_stab, and the
    invariant computed at to_stab: the two sides of check_wallcross.  The
    three conditions, reference_increasing_slope(q) the third, are each
    ranked on the lattice of d once (_orders_below)."""
    d = _check_class(q, d)
    _check_size(d, max_size)
    lattice = _lattice(d)
    orders = _orders_below(lattice, from_stab, to_stab, reference_increasing_slope(q))
    letters = {e: _invariant(q, lattice, k, r[0], r[2], cache) for k, (e, r) in enumerate(zip(lattice[0], orders))}
    frm, to, reference = orders[-1]
    return _word_sum(q, lattice, -1, letters, frm, to), _invariant(q, lattice, -1, to, reference, cache)


def check_wallcross(
    q: Quiver, from_stab, to_stab, d, *, cache=None, max_size: int = DEFAULT_MAX_SIZE
) -> bool:
    """Transformed invariants agree with directly computed ones (wallcross_sides)."""
    return pl_equal(*wallcross_sides(q, from_stab, to_stab, d, cache=cache, max_size=max_size))


def induced_pl_map(lam: QuiverMorphism, x: PlClass) -> PlClass:
    """Map of rigidified homology induced by a quiver morphism.

    Cap with the Euler class of the correction bundle, then push the
    functional forward along the induced map of stacks.  Preserves the
    shifted degree: the representative degree drops by twice the
    correction form of the class with itself.
    """
    if x.quiver != lam.source:
        raise ValueError("class does not live on the morphism source")
    d = x.dimvec
    if lam.pushforward(d).is_zero():
        raise ValueError("pushforward dimension vector is zero")
    capped = cap(x.rep, correction_top_class(lam, x.rep.ring))
    return PlClass(merge_pushforward(lam, capped))


def _factorial_weight(d: DimVector) -> int:
    """prod_v d(v)!, the weight of each side of the factorial identity."""
    return prod(factorial(n) for _, n in d.items())


def check_morphism_identity(
    lam: QuiverMorphism,
    tau_target: WeakStability,
    d,
    *,
    cache: "CacheStore | None" = None,
    max_size: int = DEFAULT_MAX_SIZE,
) -> bool:
    """Factorial identity between invariants on the two ends of a morphism.

    With tau the pullback of tau_target,

        prod_v d(v)! * induced_pl_map(lam, invariant(source, tau, d))

    equals prod_v' d'(v')! * invariant(target, tau_target, d') for
    d' the pushforward of d.
    """
    d = _check_class(lam.source, d)
    tau = pullback_stability(lam, tau_target)
    x = invariant(lam.source, tau, d, cache=cache, max_size=max_size)
    lhs = induced_pl_map(lam, x).scale(_factorial_weight(d))
    dprime = lam.pushforward(d)
    y = invariant(lam.target, tau_target, dprime, cache=cache, max_size=max_size)
    return pl_equal(lhs, y.scale(_factorial_weight(dprime)))


def pair_invariant_report(
    q: Quiver,
    mu,
    d,
    framing: Mapping[str, int],
    *,
    cache: "CacheStore | None" = None,
    max_size: int = DEFAULT_MAX_SIZE,
) -> dict:
    """Framed-moduli identity and leading-term injectivity, with details.

    mu is a slope condition on q (a SlopeStability or a vertex-to-rational
    mapping).  Every vertex needs framing multiplicity >= 1; otherwise the
    bracket with the framing unit is not injective and the check refuses
    to run.
    """
    d = _check_class(q, d)
    if not isinstance(mu, SlopeStability):
        mu = slope_stability(q, mu)
    for v in q.vertices:
        n = framing.get(v, 0)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(
                f"framing multiplicity at {v!r} must be a positive integer;"
                " the framing bracket is injective only then"
            )

    framed, inclusion = frame_quiver(q, framing)
    (frame_vertex,) = set(framed.vertices) - set(q.vertices)
    frame = unit_vector(frame_vertex)
    dtil = d + frame
    _check_size(dtil, max_size)
    perturbed = framed_slope(framed, mu.mu, d, +1, frame_vertex)

    lhs = invariant(framed, perturbed, dtil, cache=cache, max_size=max_size)

    lattice = _lattice(d)
    subs, orders = lattice[0], _orders_below(lattice, mu, reference_increasing_slope(q))
    at_d = orders[-1][0]  # mu's ranks on subvectors(d)
    unit_frame = unit_pl(framed, frame)
    letters = {frame: unit_frame}  # and the live embedded invariants of slope(d)
    for k, r in enumerate(orders):
        if at_d[k] == at_d[-1]:
            x = induced_pl_map(inclusion, _invariant(q, lattice, k, *r, cache))
            if not x.rep.is_zero():
                letters[subs[k]] = x
    below = _below(lattice, -1, {k for k, e in enumerate(subs) if e in letters})
    words = (
        ((frame, *(subs[i] for i in parts)), Fraction((-1) ** len(parts), factorial(len(parts))))
        for parts in _live_words(lattice[1][-1], below)
    )
    rhs = _bracket_sum(framed, dtil, words, letters.__getitem__, {})

    equal = pl_equal(lhs, rhs)
    injective = not any(
        not pl_is_zero(x) and pl_is_zero(lie_bracket(x, unit_frame))
        for e, x in letters.items()
        if e != frame
    )

    return {
        "equal": equal,
        "injective": injective,
        "ok": equal and injective,
        "epsilon": perturbed.epsilon,
        "framed_slope": perturbed,
        "framed_quiver": framed,
        "framed_class": dtil,
        "lhs": lhs,
        "rhs": rhs,
    }


def pl_class_json(x: PlClass) -> dict:
    """Serializable form: dimension vector, degree, canonical coordinates."""
    canonical = [
        {"basis_index": k, "value": fraction_str(c)}
        for k, c in enumerate(canonical_coordinates(x))
        if c
    ]
    return {
        "dimvec": x.dimvec.to_json(),
        "degree": x.degree,
        "canonical": canonical,
        "basis": "weight0-rref-gradedlex-v1",
    }


def _representative_json(x: PlClass) -> dict[str, str]:
    return {
        monomial_string(m): fraction_str(c)
        for m, c in sorted(x.rep.functional.items())
    }


_CACHE_FORMAT = "invariant-cache-v2"
# Version of the computation behind a cached class, in every cache key so an
# entry written under another value is a miss.  Bump it with any change that
# can alter a computed class: its value, representative or coordinates.
_ALGORITHM = 2


def _cache_key(q: Quiver, d: DimVector, order: tuple[int, ...]) -> dict:
    """All a cached class depends on; order is _order_condition(tau, d)."""
    return {
        "format": _CACHE_FORMAT,
        "algorithm": _ALGORITHM,
        "quiver": q.to_json(),
        "order": list(order),
        "dimvec": d.to_json(),
    }


class CacheStore:
    """Content-addressed store of invariant classes on disk.

    One JSON file per (algorithm version, quiver, dimension vector, ranks
    of the condition on its subvectors), named by the SHA-256 of the
    canonical key serialization, so an entry serves every condition with
    the same order there, _order_condition(tau, d), which callers pass.
    Files carry the canonical coordinates plus the full representative so
    cached classes support every downstream operation; loads cross-check.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot use cache directory {str(root)!r}: {exc.strerror}") from exc

    def _path(self, q: Quiver, d: DimVector, order: tuple[int, ...]) -> Path:
        key = json.dumps(_cache_key(q, d, order), sort_keys=True, separators=(",", ":"))
        return self.root / (hashlib.sha256(key.encode()).hexdigest() + ".json")

    def get(self, q: Quiver, d: DimVector, order: tuple[int, ...]) -> PlClass | None:
        path = self._path(q, d, order)
        if not path.exists():
            return None
        try:
            obj = json.loads(path.read_text())
        except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, nesting too deep
            raise ValueError(f"unreadable cache entry {path.name}: {exc}") from exc
        if not isinstance(obj, dict) or obj.get("format") != _CACHE_FORMAT:
            raise ValueError(f"cache entry {path.name} has unknown format")
        if any(obj.get(k) != v for k, v in _cache_key(q, d, order).items()):
            raise ValueError(f"cache entry {path.name} is for another class")
        rep, degree = obj.get("representative"), natural_degree(q, d)
        if not isinstance(rep, dict) or obj.get("degree") != degree:
            raise ValueError(f"cache entry {path.name} is malformed: bad representative or degree")
        ring = ChernRing((d,))
        try:
            functional = {parse_monomial_string(s, ring): parse_fraction(c) for s, c in rep.items()}
            cls = PlClass(HClass(q, ring, degree, functional))
        except ValueError as exc:
            raise ValueError(f"cache entry {path.name} is malformed: {exc}") from exc
        if pl_class_json(cls)["canonical"] != obj.get("canonical"):
            raise ValueError(
                f"cache entry {path.name} is corrupt:"
                " canonical coordinates do not match the representative"
            )
        return cls

    def put(self, q: Quiver, d: DimVector, order: tuple[int, ...], cls: PlClass) -> None:
        payload = {**pl_class_json(cls), **_cache_key(q, d, order)}
        payload["representative"] = _representative_json(cls)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        path, tmp = self._path(q, d, order), None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)  # atomic; concurrent writers agree byte for byte
        except OSError as exc:
            why = exc.strerror or exc
            raise ValueError(f"cannot write to cache directory {str(self.root)!r}: {why}") from exc
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)


def _selftest_quivers() -> dict[str, Quiver]:
    return {
        "a2": Quiver(["v", "w"], [("e1", "v", "w")]),
        "k2": Quiver(["v", "w"], [("e1", "v", "w"), ("e2", "v", "w")]),
        "k3": Quiver(["v", "w"], [("e1", "v", "w"), ("e2", "v", "w"), ("e3", "v", "w")]),
    }


def selftest(max_size: int = SELFTEST_MAX_SIZE, cache: "CacheStore | None" = None) -> dict:
    """Property battery at a size budget of at least 3, at which every check
    runs; every check reports pass or fail."""
    if max_size < 3:
        raise ValueError(f"selftest needs a size budget of at least 3, got {max_size}")
    qs = _selftest_quivers()
    checks: list[dict] = []

    def run(name: str, fn) -> None:
        try:
            ok = bool(fn())
        except Exception as exc:  # a crash is a failure, not an abort
            checks.append({"name": name, "ok": False, "error": f"{type(exc).__name__}: {exc}"})
            return
        checks.append({"name": name, "ok": ok})

    def base_case() -> bool:
        for q in (qs["a2"], qs["k2"]):
            mu = reference_increasing_slope(q)
            for d in subvectors(DimVector({"v": 2, "w": 2})):
                if d.total() > max_size:
                    continue
                got = invariant(q, mu, d, cache=cache, max_size=max_size)
                want = invariant_increasing(q, mu, d)
                if not pl_equal(got, want):
                    return False
        return True

    def kronecker_points() -> bool:
        d = DimVector({"v": 1, "w": 1})
        diff = {(((0, "w", 1), 1),): 1, (((0, "v", 1), 1),): -1}
        for m in (1, 2, 3):
            q = Quiver(["v", "w"], [(f"e{i}", "v", "w") for i in range(1, m + 1)])
            hi = slope_stability(q, {"v": 1, "w": 0})
            cls = invariant(q, hi, d, cache=cache, max_size=max_size)
            if cls.rep.pair(power_trunc(diff, m - 1)) != 1:
                return False
            lo = slope_stability(q, {"v": 0, "w": 1})
            if not pl_is_zero(invariant(q, lo, d, cache=cache, max_size=max_size)):
                return False
        return True

    def identity_transform() -> bool:
        q = qs["k2"]
        tau = slope_stability(q, {"v": 1, "w": 0})
        for d in subvectors(DimVector({"v": 2, "w": 2})):
            if d.total() > 3:
                continue
            table = build_invariant_table(q, tau, d, cache=cache, max_size=max_size)
            lhs = wallcross_transform(q, table, tau, d, max_size=max_size)
            if not pl_equal(lhs, table[d]):
                return False
        return True

    def wallcross_small() -> bool:
        q = qs["k3"]
        a = slope_stability(q, {"v": 1, "w": 0})
        b = slope_stability(q, {"v": 0, "w": 1})
        for d in subvectors(DimVector({"v": 2, "w": 2})):
            if d.total() > 3:
                continue
            if not check_wallcross(q, a, b, d, cache=cache, max_size=max_size):
                return False
        return True

    def dual_procedures() -> bool:
        q = qs["k2"]
        tau = slope_stability(q, {"v": 1, "w": 0})
        seen = []
        for d in subvectors(DimVector({"v": 2, "w": 1})):
            seen.append(invariant(q, tau, d, cache=cache, max_size=max_size))
        for x in seen:
            zero = zero_pl(x.quiver, x.dimvec, x.degree)
            if pl_is_zero(x) != (canonical_coordinates(x) == canonical_coordinates(zero)):
                return False
        return True

    def antisymmetry() -> bool:
        q = qs["k2"]
        x = unit_pl(q, unit_vector("v"))
        y = unit_pl(q, unit_vector("w"))
        return pl_equal(lie_bracket(x, y), lie_bracket(y, x).scale(-1))

    def morphism_edge_deletion() -> bool:
        from .quiver import edge_deletion_morphism

        lam = edge_deletion_morphism(qs["k2"], ["e2"])
        tau = slope_stability(lam.target, {"v": 1, "w": 0})
        d = DimVector({"v": 1, "w": 1})
        return check_morphism_identity(lam, tau, d, cache=cache, max_size=max_size)

    def pair_small() -> bool:
        d = DimVector({"v": 1, "w": 1})
        return pair_invariant_report(
            qs["a2"], {"v": 1, "w": 0}, d, {"v": 1, "w": 1}, cache=cache, max_size=max_size
        )["ok"]

    run("increasing-base-case", base_case)
    run("kronecker-point-classes", kronecker_points)
    run("identity-transform", identity_transform)
    run("wallcross-two-vertex", wallcross_small)
    run("dual-zero-procedures", dual_procedures)
    run("bracket-antisymmetry", antisymmetry)
    run("edge-deletion-identity", morphism_edge_deletion)
    run("framed-pair-identity", pair_small)

    return {"ok": all(c["ok"] for c in checks), "max_size": max_size, "checks": checks}
