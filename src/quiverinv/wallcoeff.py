"""Wall-crossing coefficients and Lie normalization of word sums.

s_coeff and u_coeff are combinatorial coefficients attached to a tuple of
nonzero dimension vectors and an ordered pair of weak stability conditions
(from_stab, to_stab).  They control how semistable classes transform when
the stability condition changes: the transformed class is the u-weighted
sum over all ordered decompositions, applied to products (for the algebra
version) or iterated brackets (for the Lie version) of the input classes.

Every stability value either coefficient compares is the value of a
contiguous sum alpha_i + ... + alpha_{j-1} of the tuple: a block, a
superblock, or the head or tail at a cut.  So each call forms the
n(n+1)/2 contiguous sums once, values them by one function per condition
into two interval tables, and runs the regroupings on indices into those
tables; one sign rule, shared by both coefficients, reads the cuts off
them.  invariants passes int codes valued by rank lists to the same core
(_u_from_values).  u_coeff keeps no memo: invariants reuses classes.

The Lie version has no closed formula.  It is produced here from the
u-weighted free word sum.  Each length component splits by letter
multiset, and each part is solved in a basis of left-nested brackets: the
distinct orderings of the multiset in lexicographic order, each kept when
its word expansion is independent of the kept ones.  The kept brackets
number Witt's dimension of the multigraded part of the free Lie algebra
(Reutenauer, Free Lie Algebras, 1993), not one per surviving word, and
every one of them brackets a prefix with a single letter.  The solve is
its own certificate: the word expansion of the brackets must give back
the input exactly, which holds only for a Lie element (LieElementError
otherwise, which signals an upstream bug, not bad user data).  The Dynkin
criterion (a sum p of words of length n is a Lie element exactly when
theta(p) = n p, theta replacing each word by its left-nested bracketing)
is the independent check the test oracles keep.

Word sums are plain dicts mapping tuples of letters to Fractions; letters
are dimension vectors, or ints ordered as the vectors they stand for.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .quiver import DimVector
from .stability import WeakStability


class LieElementError(Exception):
    """A word sum expected to be a Lie element is not one."""


class LieWord(NamedTuple):
    """Coefficient times the left-nested bracket [[...[l1,l2],...],ln]."""

    letters: tuple
    coefficient: Fraction


def _interval_values(alphas: tuple, *values: Callable) -> list[list[list]]:
    """One table per value function: entry [i][j], for i < j, is its value
    at alphas[i] + ... + alphas[j-1].  Each sum is formed once."""
    sums = []
    for i, x in enumerate(alphas):
        row = [None] * (i + 1) + [x]
        for y in alphas[i + 1 :]:
            row.append(row[-1] + y)
        sums.append(row)
    return [
        [row[: i + 1] + [value(x) for x in row[i + 1 :]] for i, row in enumerate(sums)]
        for value in values
    ]


def _cut_sign(frm: list[list], to: list[list], bounds: Sequence[int]) -> int:
    """s_coeff of the blocks between consecutive bounds, read off the
    interval tables frm and to; each inner bound is a cut."""
    first, last = bounds[0], bounds[-1]
    r = 0
    for lo, cut, hi in zip(bounds, bounds[1:], bounds[2:]):
        ascending = frm[lo][cut] <= frm[cut][hi]
        if ascending != (to[first][cut] > to[cut][last]):
            return 0
        r += ascending
    return -1 if r % 2 else 1


def s_coeff(alphas: Sequence, from_stab: WeakStability, to_stab: WeakStability) -> int:
    """Sign coefficient of an ordered tuple of nonzero classes.

    At each cut position the tuple must either ascend under from_stab while
    the to_stab values of the two partial sums strictly descend, or strictly
    descend under from_stab while the partial sums weakly ascend; otherwise
    the coefficient is zero.  The sign counts cuts of the first kind.  Each
    value is read off one interval table per condition.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("empty tuple")
    frm, to = _interval_values(alphas, from_stab.value, to_stab.value)
    return _cut_sign(frm, to, range(len(alphas) + 1))


def _compositions(n: int, blocks: int) -> Iterable[tuple[int, ...]]:
    """Boundary sequences 0 = a_0 < a_1 < ... < a_blocks = n."""
    for inner in itertools.combinations(range(1, n), blocks - 1):
        yield (0,) + inner + (n,)


def u_coeff(alphas: Sequence, from_stab: WeakStability, to_stab: WeakStability) -> Fraction:
    """Transformation coefficient of an ordered tuple of nonzero classes.

    Sums over two nested regroupings of the tuple: adjacent blocks on which
    from_stab is constant, then adjacent superblocks whose sums all share
    the to_stab value of the full sum.  Each superblock contributes its
    s_coeff, each block the reciprocal of its factorial, and a superblock
    count l contributes (-1)^(l-1)/l.  The regroupings run on boundary
    indices into one table per condition of the n(n+1)/2 interval values.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("empty tuple")
    return _u_from_values(alphas, from_stab.value, to_stab.value)


def _u_from_values(alphas: tuple, from_value: Callable, to_value: Callable) -> Fraction:
    """u_coeff of a nonempty tuple, each condition given by a value function."""
    n = len(alphas)
    frm, to = _interval_values(alphas, from_value, to_value)
    total_value = to[0][n]
    result = Fraction(0)
    for m in range(1, n + 1):
        for a in _compositions(n, m):
            # from_stab must give each block and every letter in it one value
            if any(frm[i][j] != frm[k][k + 1] for i, j in zip(a, a[1:]) for k in range(i, j)):
                continue
            denom = 1
            for i, j in zip(a, a[1:]):
                denom *= factorial(j - i)
            for l in range(1, m + 1):
                for b in _compositions(m, l):
                    sign = 1
                    for i, j in zip(b, b[1:]):
                        if to[a[i]][a[j]] != total_value:
                            sign = 0
                            break
                        sign *= _cut_sign(frm, to, a[i : j + 1])
                        if not sign:
                            break
                    if sign:
                        result += Fraction(sign if l % 2 else -sign, l * denom)
    return result


def _axpy(acc: dict, x: Fraction, row: dict) -> None:
    """acc += x * row, dropping entries that cancel."""
    for k, y in row.items():
        v = acc.get(k, 0) + x * y
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


def dynkin_word(letters: Sequence) -> dict[tuple, Fraction]:
    """Word expansion of the left-nested bracket of the letters."""
    letters = tuple(letters)
    if not letters:
        raise ValueError("empty word")
    acc = {(letters[0],): Fraction(1)}
    for x in letters[1:]:
        nxt: dict[tuple, Fraction] = {}
        for w, c in acc.items():
            for w2, c2 in ((w + (x,), c), ((x,) + w, -c)):
                v = nxt.get(w2, Fraction(0)) + c2
                if v:
                    nxt[w2] = v
                elif w2 in nxt:
                    del nxt[w2]
        acc = nxt
    return acc


def theta(ws: dict[tuple, Fraction]) -> dict[tuple, Fraction]:
    """Replace each word by its left-nested bracketing, linearly."""
    out: dict[tuple, Fraction] = {}
    for w, c in ws.items():
        _axpy(out, c, dynkin_word(w))
    return out


def _letter_key(x) -> object:
    return x.sort_key() if isinstance(x, DimVector) else x


def _word_key(w: tuple) -> tuple:
    return tuple(map(_letter_key, w))


def _distinct_orderings(letters: list) -> Iterator[tuple]:
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


def _reduce(row: dict, combo: dict, echelon: list) -> None:
    """Subtract from row the multiples of the echelon rows that clear their
    pivots, and the same multiples of their combinations from combo."""
    for pivot, prow, pcombo in echelon:
        x = row.get(pivot)
        if x:
            x /= prow[pivot]
            _axpy(row, -x, prow)
            _axpy(combo, -x, pcombo)


def _left_nested_basis(letters: Sequence) -> list[tuple[tuple, dict, dict]]:
    """Echelon form of a basis of left-nested brackets of the letters.

    Walks the distinct orderings in lexicographic order (_word_key) and
    keeps one when its dynkin_word expansion is independent of the kept
    ones.  The walk stops after the orderings that start with the least
    letter a: those brackets already span, because the multilinear brackets
    [x_1, x_s2, ..., x_sn] span the multilinear part and substituting the
    letters, with a for x_1, maps it onto the span of all of them.  Each
    row is (pivot word, reduced expansion, the same row as a combination
    of kept orderings); the orderings kept are the first entries of the
    combinations, one per row.  No letters give no brackets.
    """
    order = sorted(set(letters), key=_letter_key)
    rank = {x: i for i, x in enumerate(order)}
    echelon: list[tuple[tuple, dict, dict]] = []
    for idx in _distinct_orderings([rank[x] for x in letters]):
        if not idx or idx[0]:
            break
        w = tuple(order[i] for i in idx)
        row, combo = dynkin_word(w), {w: Fraction(1)}
        _reduce(row, combo, echelon)
        if row:
            echelon.append((next(iter(row)), row, combo))
    return echelon


def lie_normalize(ws: dict[tuple, Fraction]) -> list[LieWord]:
    """Write a word sum in a basis of left-nested bracket words.

    The words are grouped by letter multiset, shorter multisets first, and
    each group solved by exact elimination in the basis of
    _left_nested_basis; brackets with coefficient zero are left out.  The
    expansion of the returned bracket words must reproduce the input
    exactly, which is checked and certifies that the input is a Lie
    element; LieElementError otherwise.
    """
    groups: dict[tuple, dict[tuple, Fraction]] = {}
    for w, c in ws.items():
        if c:
            groups.setdefault(tuple(sorted(w, key=_letter_key)), {})[w] = c
    out: list[LieWord] = []
    for letters in sorted(groups, key=lambda k: (len(k), _word_key(k))):
        row, combo = groups[letters], {}
        _reduce(row, combo, _left_nested_basis(letters))
        # row is now zero, or the expansion check below fails
        out.extend(LieWord(w, -combo[w]) for w in sorted(combo, key=_word_key))

    expanded: dict[tuple, Fraction] = {}
    for lw in out:
        _axpy(expanded, lw.coefficient, dynkin_word(lw.letters))
    original = {w: c for w, c in ws.items() if c}
    if expanded != original:
        raise LieElementError("bracket expansion does not reproduce the input")
    return out
