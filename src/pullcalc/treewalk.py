"""The four-way walk on extended rationals and its canonical words.

Every word of turns lands on a fraction, and every fraction is reached
by exactly one forward word from 0/1 (or one reverse word, for the
negatives).  This module computes numbers from words, canonical words
from numbers by two unrelated routes (Euclidean subtraction and
continued fractions), and canonical words from words directly by a
rewriting pass that never touches a fraction at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

from pullcalc import kernel, words
from pullcalc.rationals import ExtRational, apply_turn_rule, cf_expand
from pullcalc.words import L, L_INV, R, R_INV, TurnWord


class LayerCounts(NamedTuple):
    right: int
    left: int


class TraceStep(NamedTuple):
    fraction: ExtRational
    direction: str


@dataclass(frozen=True)
class CanonicalClass:
    """A canonical word together with which of the four shapes it has.

    ``initial`` is the empty word (0/1) and ``infinity`` is R L^-1
    (1/0).  ``forward`` words use only R and L and start with R;
    ``reverse`` words are their turn-by-turn inverses and start with
    R^-1.
    """

    tag: str
    word: TurnWord

    def __str__(self) -> str:
        return words.format_word(self.word, "runs")


INITIAL = CanonicalClass("initial", ())
INFINITY = CanonicalClass("infinity", (R, L_INV))


def taffy_number(word: Sequence[int]) -> ExtRational:
    """Fold the four turn rules over ``word`` from the seed 0/1."""
    a, b = kernel.fold_turns(tuple(word), 0, 1)
    return ExtRational(a, b)


def number_trace(word: Sequence[int]) -> List[ExtRational]:
    """Every intermediate fraction, seed first, one entry per turn."""
    q = ExtRational(0, 1)
    trace = [q]
    for t in word:
        q = apply_turn_rule(q, t)
        trace.append(q)
    return trace


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


def canonical_word(q: ExtRational, mode: str = "fast") -> CanonicalClass:
    """The unique canonical word whose taffy number is q.

    ``slow`` walks the subtractive Euclidean algorithm down to the
    seed, one turn per step.  ``fast`` expands |q| as a continued
    fraction, forces the expansion to odd length with the tail identity
    [..., c] = [..., c - 1, 1], and reads the runs off in reverse.
    Negative fractions take the run-negated word of their absolute
    value.
    """
    if q.den == 0:
        return INFINITY
    if q.num == 0:
        return INITIAL
    a, b = abs(q.num), q.den
    if mode == "slow":
        word = tuple(reversed([turn for _, _, turn in _subtractive_walk(a, b)]))
    elif mode == "fast":
        coeffs = list(cf_expand(ExtRational(a, b)))
        if len(coeffs) % 2 == 0:
            coeffs[-1] -= 1
            coeffs.append(1)
        word = words.from_run_form(tuple(reversed(coeffs)))
    else:
        raise ValueError("unknown mode %r" % mode)
    if q.num < 0:
        return CanonicalClass("reverse", words.negate_runs(word))
    return CanonicalClass("forward", word)


def canonicalize_arith(word: Sequence[int]) -> CanonicalClass:
    """Canonical class of a word by going through its number."""
    return canonical_word(taffy_number(word))


def rotate_canonical(c: CanonicalClass) -> CanonicalClass:
    """The canonical class of -1/Q, computed structurally.

    Rotating the frame half a turn swaps the two special classes and,
    for everything else, mirrors the letters after the leading turn and
    negates every run.  An involution, and free of any arithmetic.
    """
    if c.tag == "initial":
        return INFINITY
    if c.tag == "infinity":
        return INITIAL
    if c.tag == "forward":
        mirrored = (R,) + tuple(t ^ 1 for t in c.word[1:])
        return CanonicalClass("reverse", words.negate_runs(mirrored))
    positive = words.negate_runs(c.word)
    return CanonicalClass("forward", (R,) + tuple(t ^ 1 for t in positive[1:]))


_FROM_INITIAL = {
    R: CanonicalClass("forward", (R,)),
    R_INV: CanonicalClass("reverse", (R_INV,)),
    L: INITIAL,
    L_INV: INITIAL,
}

_FROM_INFINITY = {
    R: INFINITY,
    R_INV: INFINITY,
    L: CanonicalClass("forward", (R,)),
    L_INV: CanonicalClass("reverse", (R_INV,)),
}


def append_turn(c: CanonicalClass, turn: int) -> CanonicalClass:
    """Canonical class of c's word followed by one more turn.

    The two special classes are table lookups.  Otherwise the new turn
    either extends the word, cancels its last turn, or (when it runs
    against the word's direction without cancelling) rotates the class
    obtained by appending the opposite turn to the shortened word.
    That last identity is what keeps the whole pass arithmetic-free.
    """
    if turn not in (R, L, R_INV, L_INV):
        raise ValueError("bad turn code %r" % (turn,))
    if c.tag == "initial":
        return _FROM_INITIAL[turn]
    if c.tag == "infinity":
        return _FROM_INFINITY[turn]
    last = c.word[-1]
    if turn == last ^ 2:
        rest = c.word[:-1]
        return CanonicalClass(c.tag, rest) if rest else INITIAL
    extends = turn < 2 if c.tag == "forward" else turn >= 2
    if extends:
        return CanonicalClass(c.tag, c.word + (turn,))
    base = CanonicalClass(c.tag, c.word[:-1]) if len(c.word) > 1 else INITIAL
    return rotate_canonical(append_turn(base, turn ^ 2))


def canonicalize_rewrite(word: Sequence[int]) -> CanonicalClass:
    """Canonical class of a word without ever computing a fraction."""
    c = INITIAL
    for t in word:
        c = append_turn(c, t)
    return c


def equivalent(w1: Sequence[int], w2: Sequence[int]) -> bool:
    """Do two pulls produce the same taffy?"""
    return taffy_number(w1) == taffy_number(w2)


def slow_euclid_trace(q: ExtRational) -> List[TraceStep]:
    """The subtractive walk from a positive finite q down to 1/1.

    Each step records the fraction seen and whether it is a right or a
    left child of its parent; reading the directions backwards spells
    the canonical word.  The final hop to the seed 0/1 is implicit.
    """
    if q.den == 0 or q.num <= 0:
        raise ValueError("the subtractive walk needs a positive finite fraction")
    return [
        TraceStep(ExtRational(a, b), "R" if turn == R else "L")
        for a, b, turn in _subtractive_walk(q.num, q.den)
    ]
