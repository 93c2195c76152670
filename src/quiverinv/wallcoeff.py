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
n(n+1)/2 contiguous sums once and values them by each condition into a
table keyed by int codes (_one_path).  Both coefficients are read off one
depth-first walk of a trie of int-coded words (_coefficient_words): the
sign of s_coeff is carried down the path, each cut checked on the two
letters and the two partial sums beside it, and u_coeff sums its terms by
dynamic programming over block boundaries, one column per letter, as one
int numerator over n! lcm(1..n); each superblock applies the same cut
rule.  Column t and the cut before letter t read only the first t
letters, so the walk handles a prefix once: s_coeff and u_coeff pass the
one path of their tuple, invariants the words of a lattice valued by
ranks.  u_coeff keeps no memo: invariants reuses classes.

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
from itertools import accumulate
from math import comb, factorial, lcm
from typing import Iterable, NamedTuple, Sequence

from .quiver import DimVector
from .stability import WeakStability


class LieElementError(Exception):
    """A word sum expected to be a Lie element is not one."""


class LieWord(NamedTuple):
    """Coefficient times the left-nested bracket [[...[l1,l2],...],ln]."""

    letters: tuple
    coefficient: Fraction


def _one_path(alphas: Sequence, from_stab: WeakStability, to_stab: WeakStability) -> tuple:
    """The one-path trie of a tuple, for _coefficient_words: the k-th
    letter has the code 2^k, so the sum of [s, t) has 2^t - 2^s.  Each of
    the n(n+1)/2 sums is formed once and valued once per condition."""
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("empty tuple")
    n = len(alphas)
    sums = {(1 << t) - (1 << s): e for s in range(n) for t, e in enumerate(accumulate(alphas[s:]), s + 1)}
    frm, to = ({c: tau.value(e) for c, e in sums.items()} for tau in (from_stab, to_stab))
    below = {(1 << n) - (1 << k): [(k, 1 << k)] for k in range(n)}
    return (1 << n) - 1, below, frm, to


def s_coeff(alphas: Sequence, from_stab: WeakStability, to_stab: WeakStability) -> int:
    """Sign coefficient of an ordered tuple of nonzero classes.

    At each cut position the tuple must either ascend under from_stab while
    the to_stab values of the two partial sums strictly descend, or strictly
    descend under from_stab while the partial sums weakly ascend; otherwise
    the coefficient is zero.  The sign counts cuts of the first kind
    (_coefficient_words, on a one-path trie).
    """
    top, below, frm, to = _one_path(alphas, from_stab, to_stab)
    return _coefficient_words(top, below, frm, to)[0].get(tuple(range(top.bit_length())), 0)


def u_coeff(alphas: Sequence, from_stab: WeakStability, to_stab: WeakStability) -> Fraction:
    """Transformation coefficient of an ordered tuple of nonzero classes.

    Sums over two nested regroupings of the tuple: adjacent blocks on which
    from_stab is constant, then adjacent superblocks whose sums all share
    the to_stab value of the full sum.  Each superblock contributes its
    s_coeff, each block the reciprocal of its factorial, and a superblock
    count l contributes (-1)^(l-1)/l (_coefficient_words, on a one-path trie).
    """
    top, below, frm, to = _one_path(alphas, from_stab, to_stab)
    return _coefficient_words(top, below, frm, to)[1].get(tuple(range(top.bit_length())), Fraction(0))


def _coefficient_words(top: int, below: dict, frm_at: dict, to_at: dict) -> tuple[dict, dict]:
    """The nonzero s_coeff and u_coeff of each word of a trie, two tables
    keyed by its labels, from one depth-first walk: below maps what is
    left of top to the (label, code) letters that fit in it, a word
    ending at a letter that is all that is left; frm_at and to_at value
    each sum of contiguous letters.

    The cut at j in [s, t) compares the letters j - 1 and j under from,
    [s, j) with [j, t) under to: ascending letters need descending sums
    and flip the sign, descending ones weakly ascending sums.  The path
    carries the sign of s_coeff, the rule on [0, t) (0 below a failing
    cut).  A chain of superblocks of from-constant blocks weighs its
    superblocks' signs / (l prod |block|!), an int over n! lcm(1..n):
    n! / prod |block|! is the product of C(j, j - c) over the blocks
    [c, j).  Column t holds the from and to values of [s, t), the c with
    [c, t) from-constant (descending), and chains[l], the signed chains
    of l superblocks from 0 to t; acc[j - s], the chains of blocks s to j."""
    path, signs, words, whole = [((), (), (), [1])], {}, {}, to_at[top]

    def walk(word: tuple, rests: list, sign: int) -> None:
        for i, c in below[rests[-1]]:
            t, rest = len(path), rests[-1] - c
            frm, to = ([values[r - rest] for r in rests] for values in (frm_at, to_at))
            b, v, here = t - 1, frm[-1], sign
            if sign and b:  # the cut before this letter: [0, b) against what is left
                up = path[b][0][-1] <= v
                here = (-sign if up else sign) if up == (path[b][1][0] > to_at[rests[-1]]) else 0
            while b and path[b][0][-1] == v:  # the letters b .. t - 1 share the value v
                b -= 1
            chains = [0] * (t + 1)
            path.append((frm, to, [k for k in range(t - 1, b - 1, -1) if frm[k] == v], chains))
            for s in range(t):
                if to[s] != whole or not any(path[s][3]):
                    continue
                acc = [1] + [0] * (t - s)
                for j in range(s + 1, t + 1):
                    x = 0
                    for k in path[j][2]:
                        if k < s:
                            break
                        x += acc[k - s] * comb(j, j - k)
                    if x and j < t:  # the cut at j: ascending blocks need descending sums
                        up = path[j][0][-1] <= path[j + 1][0][-1]
                        x = (-x if up else x) if up == (path[j][1][s] > to[j]) else 0
                    acc[j - s] = x
                for l, y in enumerate(path[s][3]):
                    chains[l + 1] += y * acc[-1]
            if c != rests[-1]:
                walk(word + (i,), rests + [rest], here)
            else:
                if here:
                    signs[word + (i,)] = here
                scale = lcm(*range(1, t + 1))
                num = sum((scale // l) * (y if l % 2 else -y) for l, y in enumerate(chains) if l)
                if num:
                    words[word + (i,)] = Fraction(num, factorial(t) * scale)
            path.pop()

    walk((), [top], 1)
    return signs, words


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
