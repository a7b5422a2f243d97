"""The four turn rules, folded over words of raw turn codes.

R sends a/b to (a+b)/b, L sends it to a/(a+b), and the reverse turns
subtract instead.  This module is the only place those rules are
written out; every other fold in the package goes through
``fold_turns``.

The rules are applied per block of equal turns: ``R^k`` sends a/b to
(a+k*b)/b and ``L^k`` sends it to a/(k*a+b), and each block is one
unimodular step.  Seeds are assumed to be in lowest terms; a unimodular
step preserves the gcd, so the results are in lowest terms too, with
no gcd taken anywhere.
"""

from __future__ import annotations

from itertools import groupby

# Words shorter than this fold turn by turn: on short words grouping
# costs two to three times the per-turn loop, and there is no long run
# for it to save.
BLOCK_CUTOFF = 48
_ONES = (1,) * BLOCK_CUTOFF  # the counts of a short word's blocks


def _blocks(word):
    """The word as (code, count) pairs of equal adjacent turn codes.

    A word shorter than BLOCK_CUTOFF comes back one turn per block.
    """
    word = tuple(word)
    if len(word) < BLOCK_CUTOFF:
        return zip(word, _ONES)
    return [(t, len(list(run))) for t, run in groupby(word)]


def fold_turns(word, num=0, den=1):
    """Fold the turn rules over ``word`` starting from num/den.

    Returns the final (num, den) pair with the denominator sign
    normalized and any n/0 collapsed to 1/0.
    """
    a, b = num, den
    for t, k in _blocks(word):
        if t == 0:
            a = a + k * b
        elif t == 1:
            b = k * a + b
        elif t == 2:
            a = a - k * b
        elif t == 3:
            b = b - k * a
        else:
            raise ValueError("bad turn code %r" % (t,))
        if b < 0:
            a, b = -a, -b
        elif b == 0:
            a = 1
    return a, b
