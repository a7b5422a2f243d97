"""The four-way walk on extended rationals and its canonical words.

Every word of turns lands on a fraction, and every fraction is reached
by exactly one forward word from 0/1 (or one reverse word, for the
negatives).  This module computes numbers from words, canonical words
from numbers by two unrelated routes (Euclidean subtraction and
continued fractions), and canonical words from words directly by a
rewriting pass that never touches a fraction at all.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

from pullcalc import kernel, words
from pullcalc.rationals import ExtRational, cf_expand
from pullcalc.words import L, L_INV, R, R_INV, TurnWord


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
    return ExtRational._coprime(*kernel.fold_turns(word, 0, 1))


def number_trace(word: Sequence[int]) -> List[ExtRational]:
    """Every intermediate fraction, seed first, one entry per turn."""
    a, b = 0, 1
    trace = [ExtRational._coprime(a, b)]
    for t in word:
        a, b = kernel.fold_turns((t,), a, b)
        trace.append(ExtRational._coprime(a, b))
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
    value.  The word has as many turns as the coefficients sum to, and
    a word of more than MAX_TURNS turns is refused before either mode
    builds or walks anything.
    """
    if q.den == 0:
        return INFINITY
    if q.num == 0:
        return INITIAL
    a, b = abs(q.num), q.den
    coeffs = list(cf_expand(ExtRational._coprime(a, b)))
    if sum(coeffs) > words.MAX_TURNS:
        raise ValueError("canonical word longer than %d turns" % words.MAX_TURNS)
    if mode == "slow":
        word = tuple(reversed([turn for _, _, turn in _subtractive_walk(a, b)]))
        if q.num < 0:
            word = words.negate_runs(word)
    elif mode == "fast":
        if len(coeffs) % 2 == 0:
            coeffs[-1] -= 1
            coeffs.append(1)
        sign = -1 if q.num < 0 else 1
        word = words.from_run_form([sign * c for c in reversed(coeffs)])
    else:
        raise ValueError("unknown mode %r" % mode)
    return CanonicalClass("reverse" if q.num < 0 else "forward", word)


def canonicalize_arith(word: Sequence[int]) -> CanonicalClass:
    """Canonical class of a word by going through its number."""
    return canonical_word(taffy_number(word))


# The rewrite pass keeps its class as a state [tag, body, mask]: the
# class word is the leading turn (R forward, R^-1 reverse) followed by
# body[i] ^ mask.  The two special tags ignore body and mask.

_ROTATED = {"initial": "infinity", "infinity": "initial", "forward": "reverse", "reverse": "forward"}

# The tag reached from a special class by R, L, R^-1 and L^-1.
_FROM_SPECIAL = {
    "initial": ("forward", "initial", "reverse", "initial"),
    "infinity": ("infinity", "forward", "infinity", "reverse"),
}


def _state(c: CanonicalClass) -> list:
    return [c.tag, list(c.word[1:]), 0]


def _class(state: list) -> CanonicalClass:
    tag, body, mask = state
    if tag == "initial":
        return INITIAL
    if tag == "infinity":
        return INFINITY
    lead = R if tag == "forward" else R_INV
    return CanonicalClass(tag, (lead,) + tuple(t ^ mask for t in body))


def _rotate(state: list) -> None:
    """Turn the class of Q into that of -1/Q, in place and in O(1).

    The special classes swap.  Otherwise the leading turn flips
    between R and R^-1 and every later turn is mirrored and inverted,
    which is ``t ^ 3`` on its code.
    """
    state[0] = _ROTATED[state[0]]
    state[2] ^= 3


def _rewrite_step(state: list, turn: int) -> None:
    """Append one turn to a rewrite state, in place.

    From the two special classes the new class is a table lookup.
    Otherwise the turn cancels the word's last turn, extends the word,
    or, when it runs against the word's direction without cancelling,
    gives the rotation of the class obtained by appending the opposite
    turn to the shortened word.  That shortened class is the word with
    its last turn swapped for the other letter (or, for the lone leading
    turn, the initial class, whose rotation is infinity).  That last
    identity is what keeps the whole pass arithmetic-free.
    """
    if turn not in (R, L, R_INV, L_INV):
        raise ValueError("bad turn code %r" % (turn,))
    tag, body, mask = state
    if tag in _FROM_SPECIAL:
        state[0] = _FROM_SPECIAL[tag][turn]
        body.clear()
        state[2] = 0
        return
    forward = tag == "forward"
    last = body[-1] ^ mask if body else (R if forward else R_INV)
    if turn == last ^ 2:
        if body:
            body.pop()
        else:
            state[0] = "initial"
    elif (turn < 2) == forward:
        body.append(turn ^ mask)
    elif body:
        body[-1] ^= 1
        _rotate(state)
    else:
        state[0] = "infinity"


def rotate_canonical(c: CanonicalClass) -> CanonicalClass:
    """The canonical class of -1/Q, computed structurally.

    Rotating the frame half a turn swaps the two special classes and,
    for everything else, mirrors the letters after the leading turn and
    negates every run.  An involution, and free of any arithmetic.
    """
    state = _state(c)
    _rotate(state)
    return _class(state)


def append_turn(c: CanonicalClass, turn: int) -> CanonicalClass:
    """Canonical class of c's word followed by one more turn."""
    state = _state(c)
    _rewrite_step(state, turn)
    return _class(state)


def canonicalize_rewrite(word: Sequence[int]) -> CanonicalClass:
    """Canonical class of a word without ever computing a fraction.

    One rewrite step per turn, each O(1), so the pass is linear.
    """
    state = _state(INITIAL)
    for t in word:
        _rewrite_step(state, t)
    return _class(state)


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
