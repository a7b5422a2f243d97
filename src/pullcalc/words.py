"""Words over the four machine turns, as runs of small integer codes.

A pull is a finite sequence of quarter-turns of the three-peg frame: a
right turn, a left turn, or the reverse of either.  A word is a
``kernel.Word`` of the small integer codes below: it is stored as runs,
so ``R^k`` is parsed, reduced and rebuilt as one block and never spelled
out turn by turn, and it compares, hashes and prints as the tuple of
its turns.  An exponent is a number, however large: only the paths
that write or draw a word turn by turn cap its length, and they read
the word's turn count to do so.  Every function here also accepts a
plain tuple of codes.

The code arithmetic is load-bearing: ``t ^ 2`` is the inverse turn and
``t & 1`` is the letter (0 for the R family, 1 for the L family).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, product, repeat
from typing import Iterable, Sequence

from pullcalc import kernel
from pullcalc.kernel import Word
from pullcalc.rationals import _integer

R = 0
L = 1
R_INV = 2
L_INV = 3

# An alphabet is a letter pair indexed by the letter bit ``t & 1``, read
# and written only here.  Twist words of rational tangles spell the same
# codes V/H: V twists the two right-hand ends around each other, H the
# two bottom ends, and lowercase (or a negative exponent) undoes a twist.
TURN_LETTERS = ("R", "L")
TWIST_LETTERS = ("V", "H")


class WordSyntaxError(ValueError):
    """Raised for text that does not spell a word; carries the offset."""

    def __init__(self, message: str, offset: int):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


def tokenize(text: str, letters: tuple) -> Word:
    """Read ``text`` as a word using the given uppercase alphabet.

    ``letters`` is the alphabet's letter pair; the lowercase form of a
    letter spells its inverse, and ``X^k`` repeats (a negative
    k applying the inverse |k| times).  ``e`` is the empty word and may
    appear anywhere.  Whitespace separates nothing in particular.  An
    exponent is a number, read like a fraction's terms
    (``rationals._integer``): one with more digits than Python converts
    (leading zeros aside) is refused at its offset, and no other limit
    applies.  Each token adds one block, merged into the last one when
    the codes agree, so ``X^k`` costs the same for every k.

    Each chunk between whitespace (``str.split`` and ``isspace`` agree
    on it) is looked up in the alphabet's spelling table.  From the
    first chunk outside it the text is read by ``_scan``, the one
    grammar and the source of every refusal and its offset; no token
    spans whitespace, so the chunks before read the same either way.
    """
    read = _spelling(letters).read
    chunks = text.split()
    try:
        blocks = list(map(read.__getitem__, chunks))
    except KeyError as exc:  # _scan is a generator: a refusal is raised outside this handler
        k = chunks.index(exc.args[0])  # the first chunk outside the table
        start = len(text) - len(text.split(None, k)[-1])  # where that chunk starts
        blocks = chain(map(read.__getitem__, chunks[:k]), _scan(text, letters, start))
    blocks = filter(None, blocks)  # e reads as None
    codes, counts = [], []
    last = None
    for t, k in blocks:
        if t == last:
            counts[-1] += k
        else:
            codes.append(t)
            counts.append(k)
            last = t
    return Word._of(tuple(codes), tuple(counts))


def _scan(text: str, letters: tuple, start: int = 0) -> Iterable[tuple]:
    """Yield each token's ``(code, count)`` block, reading ``text`` a character at a time."""
    i, n = start, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "e":
            i += 1
            continue
        upper = ch.upper()
        if upper not in letters:
            raise WordSyntaxError("unexpected %r" % ch, offset=i)
        base = letters.index(upper)
        if ch != upper:
            base ^= 2
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
            try:
                count = _integer(text[i:j], "exponent")
            except ValueError as exc:
                raise WordSyntaxError(str(exc), offset=at) from None
            i = j
            if not count:
                continue
        yield base, count


# The longest block a table holds.  Over a round of each benchmark workload
# (seeds 7 and 3), blocks read are at most 3 turns or past 60,000, and blocks
# written at most 15 or past 40; a table takes about 0.1 ms to build.
SPELLED_COUNT = 16


class _SpellingTable(dict):
    """An alphabet's spelling table: each block ``(code, count)`` with
    count 1 to SPELLED_COUNT maps to the text ``spell_blocks`` writes,
    and any other block is formatted on lookup (not kept) or refused
    for a bad code.  ``read`` maps each of those texts, ``e`` and the
    lowercase letters to the block ``_scan`` reads from it (None for e)."""

    def __init__(self, letters: tuple):
        self.letters = letters
        for block in product((R, L, R_INV, L_INV), range(1, SPELLED_COUNT + 1)):
            self[block] = self.__missing__(block)
        self.read = {}
        for text in chain(self.values(), ("e",), map(str.lower, letters)):
            self.read[text] = next(_scan(text, letters), None)

    def __missing__(self, block: tuple) -> str:
        t, k = block
        if t not in (0, 1, 2, 3):
            raise ValueError("bad turn code %r" % (t,))
        if t & 2:
            k = -k
        return self.letters[t & 1] if k == 1 else "%s^%d" % (self.letters[t & 1], k)


_spelling = lru_cache(_SpellingTable)  # one table per alphabet, built on first use


def parse_word(text: str) -> Word:
    """Parse R/L notation ("R^2 L R^-1", "r l", "e") into a word."""
    return tokenize(text, TURN_LETTERS)


def parse_tangle(text: str) -> Word:
    """Parse V/H notation ("V^2 H v") into a twist word."""
    return tokenize(text, TWIST_LETTERS)


def format_word(word: Sequence[int], style: str = "plain", letters: tuple = TURN_LETTERS) -> str:
    """Render a word as text.

    Both styles spell blocks: ``plain`` writes each block's one-turn
    token ``count`` times, ``runs`` the blocks of the freely reduced
    word.  The empty word comes out as ``e`` in both styles.
    """
    if style == "plain":
        token = _spelling(letters).__getitem__
        if isinstance(word, Word):
            turns = chain.from_iterable(map(repeat, map(token, zip(word.codes, repeat(1))), word.counts))
        else:
            turns = map(token, zip(word, repeat(1)))  # one turn per block
        return " ".join(turns) or "e"
    if style != "runs":
        raise ValueError("unknown style %r" % style)
    return spell_blocks(*_reduced_blocks(word), letters)


def spell_blocks(codes: Iterable[int], counts: Iterable[int], letters: tuple = TURN_LETTERS) -> str:
    """Write ``(code, count)`` blocks as is, ``e`` when there are none:
    each is ``X`` or ``X^n``, X is ``letters[code & 1]``, and n is the
    count, negated for an inverse code (``code & 2``)."""
    return " ".join(map(_spelling(letters).__getitem__, zip(codes, counts))) or "e"


def format_tangle(word: Sequence[int], style: str = "plain") -> str:
    """Render a twist word as text, in the styles of ``format_word``."""
    return format_word(word, style=style, letters=TWIST_LETTERS)


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


def reduce(word: Iterable[int]) -> Word:
    """Freely reduce: cancel every adjacent turn/inverse pair."""
    codes, counts = _reduced_blocks(word)
    return Word._of(tuple(codes), tuple(counts))


def to_run_form(word: Iterable[int]) -> tuple:
    """Signed run lengths of the reduced word, alternating R, L, R, ...

    A leading 0 appears when the word starts with an L-family turn, so
    even positions always hold R runs.  The empty word maps to ().
    """
    codes, counts = _reduced_blocks(word)
    runs = [0] if codes and codes[0] & 1 else []
    runs += [-k if t >= 2 else k for t, k in zip(codes, counts)]
    return tuple(runs)


def as_word(word: Iterable[int]) -> Word:
    """``word`` itself if it is a Word, else its turns grouped into one."""
    return word if isinstance(word, Word) else Word(word)


def invert_word(word: Sequence[int]) -> Word:
    """The word that undoes ``word``: reversed, each turn inverted."""
    w = as_word(word)
    for t in w.codes:
        if t not in (0, 1, 2, 3):
            raise ValueError("bad turn code %r" % (t,))
    return Word._of(tuple(t ^ 2 for t in reversed(w.codes)), w.counts[::-1])

