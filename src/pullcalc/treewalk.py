"""The four-way walk on extended rationals and its canonical words.

Every word of turns lands on a fraction, and every fraction is reached
by exactly one forward word from 0/1 (or one reverse word, for the
negatives).  This module computes numbers from words, canonical words
from numbers by two unrelated routes (Euclidean subtraction and
continued fractions), and canonical words from words directly by a
rewriting pass that never touches a fraction at all.
"""

from __future__ import annotations

from itertools import starmap
from operator import itemgetter
from typing import List, NamedTuple, Sequence

from pullcalc import kernel, words
from pullcalc.rationals import ExtRational, cf_eval, cf_expand
from pullcalc.words import L, L_INV, R, R_INV, Word

TRACE_CAP = 2**16  # most steps number_trace and slow_euclid_trace list
SLOW_CAP = 2**24  # most steps the subtractive walk of a slow canonical_word takes


class LayerCounts(NamedTuple):
    right: int
    left: int


class TraceStep(NamedTuple):
    fraction: ExtRational
    direction: str


class CanonicalClass(NamedTuple):
    """A canonical word together with which of the four shapes it has.

    ``initial`` is the empty word (0/1) and ``infinity`` is R L^-1
    (1/0).  ``forward`` words use only R and L and start with R;
    ``reverse`` words are their turn-by-turn inverses and start with
    R^-1.  ``str`` writes the word in the runs style of
    ``format_word``, spelling its blocks as they are.
    """

    tag: str
    word: Word

    def __str__(self) -> str:
        word = words.as_word(self.word)
        return words.spell_blocks(word.codes, word.counts)


INITIAL = CanonicalClass("initial", Word())
INFINITY = CanonicalClass("infinity", Word((R, L_INV)))


def taffy_number(word: Sequence[int]) -> ExtRational:
    """Fold the four turn rules over ``word`` from the seed 0/1."""
    return ExtRational._coprime(*kernel.fold_turns(word, 0, 1))


def _prefix_pairs(word: Sequence[int]):
    """The (num, den) pair of every prefix of ``word``, seed first:
    ``kernel.fold_prefixes`` from 0/1, which keeps none of them.

    Every per-prefix answer reads this walk, so a word of more than
    TRACE_CAP turns is refused, on its turn count, when this is called,
    before the walk is made.
    """
    word = words.as_word(word)
    if word._len > TRACE_CAP:
        raise ValueError("traces are capped at %d turns" % TRACE_CAP)
    return kernel.fold_prefixes(word)


def number_trace(word: Sequence[int]) -> List[ExtRational]:
    """Every intermediate fraction, seed first, one entry per turn: the
    pairs of the kernel's prefix walk as fractions.  A word past
    TRACE_CAP turns is refused before the walk starts."""
    return list(starmap(ExtRational._coprime, _prefix_pairs(word)))


def layer_counts(word: Sequence[int]) -> LayerCounts:
    """Layers in each half of the frame: (|num|, den) of the number."""
    q = taffy_number(word)
    return LayerCounts(right=abs(q.num), left=q.den)


def word_to_cf(word: Sequence[int]) -> tuple:
    """Continued-fraction coefficients of a word: reversed signed runs.

    An even run count (including zero) gets a trailing zero run first,
    so the coefficient list is always odd in length and cf_eval of it
    reproduces the taffy number exactly.
    """
    runs = words.to_run_form(word)
    if len(runs) % 2 == 0:
        runs = runs + (0,)
    return tuple(reversed(runs))


def tangle_number(twists: Sequence[int]) -> ExtRational:
    """The fraction of the rational tangle a twist word builds, read
    off its continued fraction (Conway): a second route to the number
    that the fold of the same codes gives."""
    return cf_eval(word_to_cf(twists))


def _subtractive_walk(a: int, b: int):
    """Subtractive Euclid from coprime a, b >= 0 down to the seed 0/1.

    Yields (a, b, turn) before each step: L when a < b (b loses a),
    R otherwise (a loses b).  It works on plain integers rather than
    ExtRational, so no step pays for a gcd.
    """
    while (a, b) != (0, 1):
        if a < b:
            yield a, b, L
            b -= a
        else:
            yield a, b, R
            a -= b


def _walk_past(a: int, b: int, cap: int) -> bool:
    """Does the subtractive walk from coprime a, b > 0 take more than
    cap steps?  It takes the coefficient sum of a/b, at most a + b - 1,
    so the coefficients are summed only when that bound is past the cap."""
    return a + b - 1 > cap and sum(cf_expand(ExtRational._coprime(a, b))) > cap


def canonical_word(q: ExtRational, mode: str = "fast") -> CanonicalClass:
    """The unique canonical word whose taffy number is q.

    Both modes write the word's runs, which alternate R, L, R, ... from
    its first block, and a negative q sets the inverse bit (``| 2``) of
    every code.  ``slow`` walks the subtractive Euclidean algorithm from
    |q| down to the seed, one turn per step, and groups the turns into a
    Word as they come, so it keeps only their runs; the walk's last step
    is always R from 1/1, so its runs read backwards are the word's.
    ``fast`` expands |q| as a continued fraction, forces the expansion
    to odd length with the tail identity [..., c] = [..., c - 1, 1], and
    reads the coefficients in reverse as the runs; only the first
    coefficient can be 0, and it comes last, so it is dropped.  The word
    has as many turns as the coefficients sum to.  ``fast`` costs
    O(coefficients) whatever that sum; ``slow`` takes one step per
    turn, so past SLOW_CAP turns it is refused before the walk starts.
    """
    if mode not in ("fast", "slow"):
        raise ValueError("unknown mode %r" % mode)
    if q.den == 0:
        return INFINITY
    if q.num == 0:
        return INITIAL
    a, b = abs(q.num), q.den
    inverse = 2 if q.num < 0 else 0
    if mode == "slow":
        if _walk_past(a, b, SLOW_CAP):
            raise ValueError("slow canonical words are capped at %d turns" % SLOW_CAP)
        runs = Word(map(itemgetter(2), _subtractive_walk(a, b))).counts[::-1]
    else:
        coeffs = list(cf_expand(ExtRational._coprime(a, b)))
        if len(coeffs) % 2 == 0:
            coeffs[-1] -= 1
            coeffs.append(1)
        runs = coeffs[::-1]
        if not runs[-1]:
            runs.pop()
    word = Word._of(tuple(i & 1 | inverse for i in range(len(runs))), tuple(runs))
    return CanonicalClass("reverse" if inverse else "forward", word)


def canonicalize_arith(word: Sequence[int]) -> CanonicalClass:
    """Canonical class of a word by going through its number."""
    return canonical_word(taffy_number(word))


# The rewrite pass keeps its class as a state [tag, codes, counts, mask]:
# the class word is the leading turn (R forward, R^-1 reverse) followed
# by the blocks (codes[i] ^ mask, counts[i]), merged as in a Word.  The
# two special tags ignore the blocks and the mask.

_ROTATED = {"initial": "infinity", "infinity": "initial", "forward": "reverse", "reverse": "forward"}

_TURN_CODES = (R, L, R_INV, L_INV)

# The tag reached from a special class by R, L, R^-1 and L^-1.
_FROM_SPECIAL = {
    "initial": ("forward", "initial", "reverse", "initial"),
    "infinity": ("infinity", "forward", "infinity", "reverse"),
}


def _state(c: CanonicalClass) -> list:
    word = words.as_word(c.word)
    codes, counts = list(word.codes), list(word.counts)
    if codes:  # drop the leading turn
        counts[0] -= 1
        if not counts[0]:
            del codes[0], counts[0]
    return [c.tag, codes, counts, 0]


def _class(state: list) -> CanonicalClass:
    tag, codes, counts, mask = state
    if tag == "initial":
        return INITIAL
    if tag == "infinity":
        return INFINITY
    lead = R if tag == "forward" else R_INV
    if mask:
        codes = [t ^ mask for t in codes]
    if codes and codes[0] == lead:
        codes, counts = tuple(codes), (counts[0] + 1, *counts[1:])
    else:
        codes, counts = (lead, *codes), (1, *counts)
    return CanonicalClass(tag, Word._of(codes, counts))


def _rotated(tag: str, mask: int):
    """The tag and mask of the class of -1/Q, in O(1).

    The special classes swap.  Otherwise the leading turn flips
    between R and R^-1 and every later turn is mirrored and inverted,
    which is ``t ^ 3`` on its code.
    """
    return _ROTATED[tag], mask ^ 3


def _rewrite(state: list, blocks) -> None:
    """Append ``(turn, count)`` blocks to a rewrite state, in place.

    Turn by turn: from the two special classes the new class is a table
    lookup.  Otherwise the turn cancels the word's last turn, extends
    the word, or, when it runs against the word's direction without
    cancelling, gives the rotation of the class obtained by appending
    the opposite turn to the shortened word.  That shortened class is
    the word with its last turn swapped for the other letter (or, for
    the lone leading turn, the initial class, whose rotation is
    infinity).  That last identity is what keeps the whole pass
    arithmetic-free.

    A block takes O(1) steps plus one per block it cancels: the turns
    that cancel go a block at a time, and after a swap or a special
    class the rest of the block extends the word or changes nothing.
    """
    tag, codes, counts, mask = state
    for turn, k in blocks:
        if turn not in _TURN_CODES:
            raise ValueError("bad turn code %r" % (turn,))
        while k:
            if tag in _FROM_SPECIAL:
                if _FROM_SPECIAL[tag][turn] == tag:
                    break  # a fixed point: the rest of the block changes nothing
                tag = _FROM_SPECIAL[tag][turn]
                codes.clear()
                counts.clear()
                mask = 0
                k -= 1
                continue
            forward = tag == "forward"
            last = codes[-1] ^ mask if codes else (R if forward else R_INV)
            if turn == last ^ 2:
                if not codes:
                    tag = "initial"
                    k -= 1
                elif k < counts[-1]:
                    counts[-1] -= k
                    break
                else:
                    k -= counts.pop()
                    codes.pop()
            elif (turn < 2) == forward:
                if codes and codes[-1] == turn ^ mask:
                    counts[-1] += k
                else:
                    codes.append(turn ^ mask)
                    counts.append(k)
                break
            elif codes:
                swapped = codes[-1] ^ 1
                if counts[-1] == 1:
                    codes.pop()
                    counts.pop()
                else:
                    counts[-1] -= 1
                if codes and codes[-1] == swapped:
                    counts[-1] += 1
                else:
                    codes.append(swapped)
                    counts.append(1)
                tag, mask = _rotated(tag, mask)
                k -= 1
            else:
                tag = "infinity"
                k -= 1
    state[0] = tag
    state[3] = mask


def rotate_canonical(c: CanonicalClass) -> CanonicalClass:
    """The canonical class of -1/Q, computed structurally.

    Rotating the frame half a turn swaps the two special classes and,
    for everything else, mirrors the letters after the leading turn and
    negates every run.  An involution, and free of any arithmetic.
    """
    state = _state(c)
    state[0], state[3] = _rotated(state[0], state[3])
    return _class(state)


def canonicalize_rewrite(word: Sequence[int]) -> CanonicalClass:
    """Canonical class of a word without ever computing a fraction.

    One rewrite pass over the word's blocks, each O(1) amortized, so
    the pass is linear in the number of blocks.
    """
    state = _state(INITIAL)
    _rewrite(state, kernel._blocks(word))
    return _class(state)


def equivalent(w1: Sequence[int], w2: Sequence[int]) -> bool:
    """Do two pulls produce the same taffy?"""
    return taffy_number(w1) == taffy_number(w2)


def slow_euclid_trace(q: ExtRational) -> List[TraceStep]:
    """The subtractive walk from a positive finite q down to 1/1.

    Each step records the fraction seen and whether it is a right or a
    left child of its parent; reading the directions backwards spells
    the canonical word.  The final hop to the seed 0/1 is implicit.  The
    list grows with every step, so a walk of more than TRACE_CAP steps is
    refused before its first step.
    """
    if q.den == 0 or q.num <= 0:
        raise ValueError("the subtractive walk needs a positive finite fraction")
    if _walk_past(q.num, q.den, TRACE_CAP):
        raise ValueError("traces are capped at %d turns" % TRACE_CAP)
    return [
        TraceStep(ExtRational._coprime(a, b), words.format_word((turn,)))
        for a, b, turn in _subtractive_walk(q.num, q.den)
    ]
