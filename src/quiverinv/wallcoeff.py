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
n(n+1)/2 contiguous sums once and values them by one function per
condition into two interval tables.  s_coeff reads its cuts off them;
u_coeff sums its terms by dynamic programming over block boundaries, as
one int numerator over n! lcm(1..n) (_u_from_values).  invariants passes
int codes valued by rank lists to the same core.  u_coeff keeps no memo:
invariants reuses classes.

The Lie version is produced here from the u-weighted free word sum.  Each
length component splits by letter multiset, and each part is written in
closed form by the first-letter Dynkin identity: if p is a Lie polynomial
of degree k in the letter a, then the sum of c_w [w] over the words w of p
that begin with a is k p, where [w] = [[...[w_1, w_2], ...], w_n]
(dynkin_word).  It is the weighted form of the Dynkin-Specht-Wever theorem
(Reutenauer, Free Lie Algebras, 1993, ch. 1), which sums over every word
and all letters, giving n p.  So each part keeps, with coefficient c_w / k,
the words that begin with its largest letter a but not with a, a, since
[a, a] = 0.  The identity holds only for a Lie element, and the result
carries its own certificate: the word expansion of the brackets must give
back the input exactly (LieElementError otherwise, which signals an
upstream bug, not bad user data).  The Dynkin criterion (a sum p of words
of length n is a Lie element exactly when theta(p) = n p, theta replacing
each word by its left-nested bracketing) is the independent check, kept in
the test oracles.

Word sums are plain dicts mapping tuples of letters to rationals; letters
are dimension vectors, or ints ordered as the vectors they stand for.
Word expansions and the certificate run on ints, each letter multiset's
words scaled by the lcm of their denominators; only results are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, factorial, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

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
    sums = [list(accumulate(alphas[i:])) for i in range(len(alphas))]
    return [[[None] * (i + 1) + list(map(value, row)) for i, row in enumerate(sums)] for value in values]


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
    n = len(alphas)
    frm, to = _interval_values(alphas, from_stab.value, to_stab.value)
    r = 0
    for cut in range(1, n):
        ascending = frm[cut - 1][cut] <= frm[cut][cut + 1]
        if ascending != (to[0][cut] > to[cut][n]):
            return 0
        r += ascending
    return -1 if r % 2 else 1


def u_coeff(alphas: Sequence, from_stab: WeakStability, to_stab: WeakStability) -> Fraction:
    """Transformation coefficient of an ordered tuple of nonzero classes.

    Sums over two nested regroupings of the tuple: adjacent blocks on which
    from_stab is constant, then adjacent superblocks whose sums all share
    the to_stab value of the full sum.  Each superblock contributes its
    s_coeff, each block the reciprocal of its factorial, and a superblock
    count l contributes (-1)^(l-1)/l (_u_from_values).
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("empty tuple")
    return _u_from_values(alphas, from_stab.value, to_stab.value)


def _u_from_values(alphas: tuple, from_value: Callable, to_value: Callable) -> Fraction:
    """u_coeff of a nonempty tuple, each condition given by a value function.

    A term, a chain of superblocks of from-constant blocks, weighs sign /
    (l prod |block|!), an int multiple of 1 / (n! lcm(1..n)), so the terms
    sum to one int numerator; n! / prod |block|! is the product of
    C(j, j - c) over the blocks [c, j).  The letters of a from-constant
    block share its value, so a cut at c in the superblock [s, t) compares
    the letters c - 1 and c under from_value, and [s, c) with [c, t) under
    to_value.  ends[c]: the j with [c, j) from-constant; acc[j]: the
    signed block chains from s to j; chains[t][l]: the chains of l
    superblocks from 0 to t.
    """
    n = len(alphas)
    frm, to = _interval_values(alphas, from_value, to_value)
    ends = []
    for c in range(n):  # the letters c .. run - 1 share the value v
        v = frm[c][c + 1]
        run = next((j for j in range(c + 1, n) if frm[j][j + 1] != v), n)
        ends.append([j for j in range(c + 1, run + 1) if frm[c][j] == v])
    chains = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    for s, t in combinations(range(n + 1), 2):  # the chains to s are complete
        if to[s][t] != to[0][n] or not any(chains[s]):
            continue
        acc = [int(c == s) for c in range(t + 1)]
        for c in range(s, t):
            x = acc[c]
            if x and c > s:  # the cut at c: ascending blocks need descending sums
                up = frm[c - 1][c] <= frm[c][c + 1]
                x = (-x if up else x) if up == (to[s][c] > to[c][t]) else 0
            if x:
                for j in ends[c]:
                    if j <= t:
                        acc[j] += x * comb(j, j - c)
        for l in range(n):
            chains[t][l + 1] += chains[s][l] * acc[t]
    scale = lcm(*range(1, n + 1))
    num = sum((scale // l) * (y if l % 2 else -y) for l, y in enumerate(chains[n]) if l)
    return Fraction(num, factorial(n) * scale)


def _axpy(acc: dict, x, row: Iterable[tuple]) -> None:
    """acc += x * row, row as (key, value) pairs, dropping entries that cancel."""
    for k, y in row:
        v = acc.get(k, 0) + x * y
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


def dynkin_word(letters: Sequence) -> dict[tuple, int]:
    """Int word expansion of the left-nested bracket of the letters."""
    letters = tuple(letters)
    if not letters:
        raise ValueError("empty word")
    acc = {(letters[0],): 1}
    for x in letters[1:]:
        nxt: dict[tuple, int] = {}
        for w, c in acc.items():
            _axpy(nxt, c, ((w + (x,), 1), ((x,) + w, -1)))
        acc = nxt
    return acc


def _letter_key(x) -> object:
    return x.sort_key() if isinstance(x, DimVector) else x


def _word_key(w: tuple) -> tuple:
    return tuple(map(_letter_key, w))


def lie_normalize(ws: dict[tuple, Fraction]) -> list[LieWord]:
    """Write a word sum as left-nested bracket words, in closed form.

    The words are grouped by letter multiset, shorter multisets first.  In
    a group whose largest letter (last under _letter_key) is a, of
    multiplicity k, a Lie element p equals the sum of c_w / k [w] over its
    words w that begin with a (the first-letter Dynkin identity); words
    beginning a, a bracket to zero and are left out.  The word expansion
    of the bracket words must give back the group exactly, which is
    checked on ints and certifies that the input is a Lie element;
    LieElementError otherwise, and for the empty word.
    """
    groups: dict[tuple, dict[tuple, Fraction]] = {}
    for w, c in ws.items():
        if c:
            groups.setdefault(tuple(sorted(w, key=_letter_key)), {})[w] = Fraction(c)
    out: list[LieWord] = []
    for letters in sorted(groups, key=lambda key: (len(key), _word_key(key))):
        if not letters:
            raise LieElementError("the empty word is not a Lie element")
        a = letters[-1]
        k = letters.count(a)
        den = lcm(*(c.denominator for c in groups[letters].values()))
        target = {w: int(c * den) for w, c in groups[letters].items()}
        kept = sorted((w for w in target if w[0] == a and w[1:2] != (a,)), key=_word_key)
        expanded: dict[tuple, int] = {}
        for w in kept:
            _axpy(expanded, target[w], dynkin_word(w).items())
        if expanded != {w: k * c for w, c in target.items()}:
            raise LieElementError("bracket expansion does not reproduce the input")
        out.extend(LieWord(w, Fraction(target[w], k * den)) for w in kept)
    return out
