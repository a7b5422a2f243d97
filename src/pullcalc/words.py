"""Words over the four machine turns, as tuples of small integer codes.

A pull is a finite sequence of quarter-turns of the three-peg frame: a
right turn, a left turn, or the reverse of either.  Words are plain
tuples of the small integer codes below.

The code arithmetic is load-bearing: ``t ^ 2`` is the inverse turn and
``t & 1`` is the letter (0 for the R family, 1 for the L family).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from pullcalc import kernel

R = 0
L = 1
R_INV = 2
L_INV = 3

TurnWord = tuple  # tuple[int, ...]

MAX_TURNS = 2**24  # longest word tokenize will spell out


class WordSyntaxError(ValueError):
    """Raised for text that does not spell a word; carries the offset."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


def inverse_turn(turn: int) -> int:
    """The turn that undoes ``turn``."""
    return turn ^ 2


def tokenize(text: str, letter_codes: dict) -> TurnWord:
    """Scan ``text`` into turn codes using the given uppercase alphabet.

    ``letter_codes`` maps each forward letter to its code; the lowercase
    form of a letter spells its inverse, and ``X^k`` repeats (a negative
    k applying the inverse |k| times).  ``e`` is the empty word and may
    appear anywhere.  Whitespace separates nothing in particular.  A
    word of more than MAX_TURNS turns is refused before it is built,
    and an exponent with more digits than MAX_TURNS (leading zeros
    aside) before it is converted.
    """
    turns = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "e":
            i += 1
            continue
        upper = ch.upper()
        if upper not in letter_codes:
            raise WordSyntaxError("unexpected %r" % ch, offset=i)
        base = letter_codes[upper]
        if ch != upper:
            base ^= 2
        at = i
        i += 1
        count = 1
        if i < n and text[i] == "^":
            i += 1
            at = i
            if i < n and text[i] in "+-":
                if text[i] == "-":
                    base ^= 2
                i += 1
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j == i:
                raise WordSyntaxError("expected an integer after '^'", offset=at)
            digits = text[i:j].lstrip("0")
            if len(digits) > len(str(MAX_TURNS)):
                raise WordSyntaxError("word longer than %d turns" % MAX_TURNS, offset=at)
            count = int(digits or "0")
            i = j
        if len(turns) + count > MAX_TURNS:
            raise WordSyntaxError("word longer than %d turns" % MAX_TURNS, offset=at)
        turns.extend([base] * count)
    return tuple(turns)


def parse_word(text: str) -> TurnWord:
    """Parse R/L notation ("R^2 L R^-1", "r l", "e") into a word."""
    return tokenize(text, {"R": R, "L": L})


def format_word(word: Sequence[int], style: str = "plain", letters: tuple = ("R", "L")) -> str:
    """Render a word as text.

    ``plain`` writes one token per turn; ``runs`` freely reduces first
    and collects each block into a single exponent.  The empty word
    comes out as ``e`` in both styles.
    """
    if style == "plain":
        names = {
            0: letters[0],
            1: letters[1],
            2: letters[0] + "^-1",
            3: letters[1] + "^-1",
        }
        if not word:
            return "e"
        return " ".join(names[t] for t in word)
    if style != "runs":
        raise ValueError("unknown style %r" % style)
    parts = []
    for pos, n in enumerate(to_run_form(word)):
        if n == 0:
            continue
        letter = letters[pos & 1]
        if n == 1:
            parts.append(letter)
        else:
            parts.append("%s^%d" % (letter, n))
    return " ".join(parts) if parts else "e"


_EMPTY = object()  # tops an empty stack; equal to no turn code


def _reduced_blocks(word: Iterable[int]) -> tuple:
    """Free reduction on blocks: the codes and counts of the reduced word.

    A stack runs over the word's blocks, and each block cancels against
    at most the top entry: once reduced, neighbouring entries differ in
    letter (equal codes merge, inverse codes cancel), so whatever a
    block has left after the top entry is gone starts a new entry.
    """
    codes, counts = [], []
    top = undo = _EMPTY  # the code on top of the stack and its inverse
    for t, k in kernel._blocks(word):
        if t == top:
            counts[-1] += k
        elif t == undo:
            left = counts[-1] - k
            if left > 0:
                counts[-1] = left
                continue
            codes.pop()
            counts.pop()
            if left:
                codes.append(t)
                counts.append(-left)
                top, undo = t, t ^ 2
            elif codes:
                top, undo = codes[-1], codes[-1] ^ 2
            else:
                top = undo = _EMPTY
        elif t in (0, 1, 2, 3):
            codes.append(t)
            counts.append(k)
            top, undo = t, t ^ 2
        else:
            raise ValueError("bad turn code %r" % (t,))
    return codes, counts


def reduce(word: Iterable[int]) -> TurnWord:
    """Freely reduce: cancel every adjacent turn/inverse pair."""
    out = []
    for t, k in zip(*_reduced_blocks(word)):
        out += [t] * k
    return tuple(out)


def to_run_form(word: Iterable[int]) -> tuple:
    """Signed run lengths of the reduced word, alternating R, L, R, ...

    A leading 0 appears when the word starts with an L-family turn, so
    even positions always hold R runs.  The empty word maps to ().
    """
    codes, counts = _reduced_blocks(word)
    runs = [0] if codes and codes[0] & 1 else []
    runs += [-k if t >= 2 else k for t, k in zip(codes, counts)]
    return tuple(runs)


def from_run_form(runs: Sequence[int]) -> TurnWord:
    """Rebuild the word for a run tuple.

    Zero runs are tolerated at either end (continued-fraction bridges
    produce them) but rejected in the interior, where they would hide a
    cancellation.
    """
    runs = tuple(runs)
    for pos in range(1, len(runs) - 1):
        if runs[pos] == 0:
            raise ValueError("zero run in the interior at position %d" % pos)
    word = []
    for pos, n in enumerate(runs):
        letter = pos & 1
        turn = letter if n > 0 else letter | 2
        word.extend([turn] * abs(n))
    return tuple(word)


def invert_word(word: Sequence[int]) -> TurnWord:
    """The word that undoes ``word``: reversed, each turn inverted."""
    return tuple(t ^ 2 for t in reversed(word))


def negate_runs(word: Sequence[int]) -> TurnWord:
    """Invert every turn in place (run lengths flip sign, order stays)."""
    return tuple(t ^ 2 for t in word)
