"""Wall-crossing coefficients and Lie normalization of word sums.

s_coeff and u_coeff are combinatorial coefficients attached to a tuple of
nonzero dimension vectors and an ordered pair of weak stability conditions
(from_stab, to_stab).  They control how semistable classes transform when
the stability condition changes: the transformed class is the u-weighted
sum over all ordered decompositions, applied to products (for the algebra
version) or iterated brackets (for the Lie version) of the input classes.

The Lie version has no closed formula.  It is produced here from the
u-weighted free word sum by the Dynkin projection: a sum p of words of
length n with theta(p) = n p, where theta replaces each word by its left
nested bracketing, equals (1/n) theta(p) as a Lie element.  lie_normalize
checks the theta property (raising LieElementError if the input is not a
Lie element, which signals an upstream bug, not bad user data) and returns
the bracket words with their coefficients.

Word sums are plain dicts mapping tuples of letters to Fractions; letters
are arbitrary hashable objects supporting +, in practice dimension vectors.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Iterable, NamedTuple, Sequence

from .quiver import DimVector
from .stability import SlopeStability, WeakStability, trivial_stability


class LieElementError(Exception):
    """A word sum expected to be a Lie element is not one."""


class LieWord(NamedTuple):
    """Coefficient times the left-nested bracket [[...[l1,l2],...],ln]."""

    letters: tuple
    coefficient: Fraction


def _sum_letters(letters: Sequence) -> object:
    total = letters[0]
    for x in letters[1:]:
        total = total + x
    return total


def s_coeff(alphas: Sequence, from_stab: WeakStability, to_stab: WeakStability) -> int:
    """Sign coefficient of an ordered tuple of nonzero classes.

    At each cut position the tuple must either ascend under from_stab while
    the to_stab values of the two partial sums strictly descend, or strictly
    descend under from_stab while the partial sums weakly ascend; otherwise
    the coefficient is zero.  The sign counts cuts of the first kind.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("empty tuple")
    n = len(alphas)
    r = 0
    head = alphas[0]
    for i in range(1, n):
        ascending = from_stab.leq(alphas[i - 1], alphas[i])
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


def _compositions(n: int, blocks: int) -> Iterable[tuple[int, ...]]:
    """Boundary sequences 0 = a_0 < a_1 < ... < a_blocks = n."""
    for inner in itertools.combinations(range(1, n), blocks - 1):
        yield (0,) + inner + (n,)


_U_MEMO: dict[tuple, Fraction] = {}


def u_coeff(alphas: Sequence, from_stab: WeakStability, to_stab: WeakStability) -> Fraction:
    """Transformation coefficient of an ordered tuple of nonzero classes.

    Sums over two nested regroupings of the tuple: adjacent blocks on which
    from_stab is constant, then adjacent superblocks whose sums all share
    the to_stab value of the full sum.  Each superblock contributes its
    s_coeff, each block the reciprocal of its factorial, and a superblock
    count l contributes (-1)^(l-1)/l.
    """
    alphas = tuple(alphas)
    if not alphas:
        raise ValueError("empty tuple")
    # only these conditions derive their tokens from their data; two other
    # conditions may share a token and still differ
    memoize = all(
        isinstance(s, SlopeStability) or s is trivial_stability()
        for s in (from_stab, to_stab)
    )
    key = (alphas, from_stab.token, to_stab.token)
    if memoize and key in _U_MEMO:
        return _U_MEMO[key]

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
                if any(not from_stab.same_value(beta, x) for x in block):
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
                        s = s_coeff(group, from_stab, to_stab)
                        if s == 0:
                            gammas_ok = False
                            break
                        signs *= s
                    if not gammas_ok:
                        continue
                    result += Fraction((-1) ** (l - 1), l) * signs * weight

    if memoize:
        _U_MEMO[key] = result
    return result


def word_sum(pairs: Iterable[tuple[tuple, Fraction]]) -> dict[tuple, Fraction]:
    """Collect (word, coefficient) pairs into a dict, dropping zeros."""
    acc: dict[tuple, Fraction] = {}
    for w, c in pairs:
        c = acc.get(w, Fraction(0)) + c
        if c:
            acc[w] = c
        elif w in acc:
            del acc[w]
    return acc


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
        for w2, c2 in dynkin_word(w).items():
            v = out.get(w2, Fraction(0)) + c * c2
            if v:
                out[w2] = v
            elif w2 in out:
                del out[w2]
    return out


def _components_by_length(ws: dict[tuple, Fraction]) -> dict[int, dict[tuple, Fraction]]:
    comps: dict[int, dict[tuple, Fraction]] = {}
    for w, c in ws.items():
        if c:
            comps.setdefault(len(w), {})[w] = c
    return comps


def is_lie_element(ws: dict[tuple, Fraction]) -> bool:
    """Dynkin criterion: theta fixes each length-n component up to factor n."""
    for n, comp in _components_by_length(ws).items():
        if theta(comp) != {w: n * c for w, c in comp.items()}:
            return False
    return True


def _word_key(w: tuple) -> tuple:
    return tuple(x.sort_key() if isinstance(x, DimVector) else x for x in w)


def lie_normalize(ws: dict[tuple, Fraction]) -> list[LieWord]:
    """Write a word sum as a combination of left-nested bracket words.

    Requires the input to be a Lie element (checked; LieElementError
    otherwise).  The expansion of the returned bracket words reproduces the
    input exactly.
    """
    out: list[LieWord] = []
    for n, comp in sorted(_components_by_length(ws).items()):
        if theta(comp) != {w: n * c for w, c in comp.items()}:
            raise LieElementError(f"length-{n} component is not a Lie element")
        for w in sorted(comp, key=_word_key):
            out.append(LieWord(w, comp[w] / n))

    expanded: dict[tuple, Fraction] = {}
    for lw in out:
        for w2, c2 in dynkin_word(lw.letters).items():
            v = expanded.get(w2, Fraction(0)) + lw.coefficient * c2
            if v:
                expanded[w2] = v
            elif w2 in expanded:
                del expanded[w2]
    original = {w: c for w, c in ws.items() if c}
    if expanded != original:
        raise LieElementError("bracket expansion does not reproduce the input")
    return out
