"""Layer growth: tree rows, extremal pulls and Fibonacci numbers.

The alternating pull R L R L ... piles up layers as fast as any
forward pull possibly can: after n turns it holds F(n+2) layers in
all, so that extreme is exactly the Fibonacci sequence.  The helpers
here make the comparison concrete: whole tree rows, per-fraction
children, closed-form and brute-force maxima, and step-by-step growth
reports for a given pull.
"""

from __future__ import annotations

import itertools
from typing import List, NamedTuple, Optional, Sequence

from pullcalc import kernel, treewalk, words
from pullcalc.rationals import ExtRational, apply_turn_rule
from pullcalc.treewalk import LayerCounts
from pullcalc.words import Word

DEPTH_CAP = 25
BRUTE_FORCE_CAP = 16
CLOSED_FORM_CAP = 20000  # F(n+2) then has 4,180 digits, under str()'s limit of 4,300


class RowListing(NamedTuple):
    depth: int
    entries: tuple  # tuple[ExtRational, ...] in left-to-right tree order


class EffectivenessRow(NamedTuple):
    length: int
    total: int
    ratio: Optional[ExtRational]


def fibonacci(n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1."""
    if n < 0:
        raise ValueError("negative Fibonacci index")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def alternating_word(n: int) -> Word:
    """R L R L ..., n turns long."""
    if n < 0:
        raise ValueError("word length must be non-negative")
    return Word(k & 1 for k in range(n))


def alternating_layers(n: int) -> LayerCounts:
    """Layer counts of the alternating pull, in closed form.

    The two consecutive Fibonacci numbers F_n and F_{n+1}; which side
    carries the larger one flips with the parity of n.
    """
    if n % 2:
        return LayerCounts(right=fibonacci(n + 1), left=fibonacci(n))
    return LayerCounts(right=fibonacci(n), left=fibonacci(n + 1))


def cw_row(n: int) -> RowListing:
    """Row n of the classical two-way tree rooted at 1/1.

    Row sizes double, so rows past DEPTH_CAP (2**24 entries) are
    refused rather than left to eat all the memory in sight.
    """
    if n < 1:
        raise ValueError("rows are numbered from 1")
    if n > DEPTH_CAP:
        raise ValueError("row %d is beyond the depth cap of %d" % (n, DEPTH_CAP))
    fold = kernel.fold_turns
    row = [(1, 1)]
    for _ in range(n - 1):
        row = [child for a, b in row for child in (fold((words.L,), a, b), fold((words.R,), a, b))]
    return RowListing(depth=n, entries=tuple(itertools.starmap(ExtRational._coprime, row)))


def four_way_children(q: ExtRational) -> dict:
    """All four children of q, keyed L, R, L^-1, R^-1 in that order."""
    return {
        words.format_word((t,)): apply_turn_rule(q, t)
        for t in (words.L, words.R, words.L_INV, words.R_INV)
    }


def max_total_layers(n: int, mode: str = "closed-form"):
    """Largest total layer count over all forward pulls of length n.

    Returns (total, witness word).  The closed form is F_{n+2} with the
    alternating pull as witness; brute force scans all 2**n words (so n
    is capped at 16) and reports the lexicographically first maximizer,
    R before L.  The two modes always agree on the total, but from
    n = 2 on the brute witness starts R R instead of R L: a tie the
    lexicographic rule breaks the other way.
    """
    if n < 0:
        raise ValueError("word length must be non-negative")
    if mode == "closed-form":
        if n > CLOSED_FORM_CAP:
            raise ValueError("the closed form is capped at %d turns" % CLOSED_FORM_CAP)
        return fibonacci(n + 2), alternating_word(n)
    if mode != "brute-force":
        raise ValueError("unknown mode %r" % mode)
    if n > BRUTE_FORCE_CAP:
        raise ValueError("brute force is capped at %d turns" % BRUTE_FORCE_CAP)
    best, witness = 1, ()
    for word in itertools.product((words.R, words.L), repeat=n):
        a, b = kernel.fold_turns(word)
        if a + b > best:
            best, witness = a + b, word
    return best, Word(witness)


def effectiveness_report(word: Sequence[int]) -> List[EffectivenessRow]:
    """Total layers after each prefix of a pull, with growth ratios.

    The first row is the untouched strand (length 0, total 1, no
    ratio); each later ratio is total_k / total_{k-1} as an exact
    fraction.
    """
    pairs = treewalk._prefix_pairs(word)
    next(pairs)  # the seed, 0/1
    rows = [EffectivenessRow(0, 1, None)]
    previous = 1
    for k, (a, b) in enumerate(pairs, start=1):
        total = abs(a) + b
        rows.append(EffectivenessRow(k, total, ExtRational(total, previous)))
        previous = total
    return rows
