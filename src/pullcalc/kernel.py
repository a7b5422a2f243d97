"""The word type and the four turn rules folded over it.

A word is stored as runs: ``Word`` keeps merged ``(code, count)``
blocks, so ``R^k`` costs one block however large k is, and still
behaves as the tuple of its turns everywhere a tuple is compared,
hashed or printed.  It lives here, beside the fold, because the fold is
what reads its blocks.

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

from itertools import chain, groupby, repeat

# Plain tuples shorter than this fold turn by turn: on short words
# grouping costs two to three times the per-turn loop, and there is no
# long run for it to save.  A Word's blocks are used as they are.
BLOCK_CUTOFF = 48
_ONES = (1,) * BLOCK_CUTOFF  # the counts of a short word's blocks


class Word:
    """An immutable word of turn codes, stored as runs of equal codes.

    ``codes`` and ``counts`` are tuples of the same length: neighbouring
    codes differ and every count is positive, so each word has exactly
    one block form.  A Word equals, hashes and prints like the tuple of
    its turns, and ``len`` is O(1).  ``Word(turns)`` groups any iterable
    of codes; the word passes build blocks directly.  Nothing assigns
    to a Word once it is built (there is no ``__setattr__`` guard, which
    would triple the cost of building one).
    """

    __slots__ = ("codes", "counts", "_len")

    def __init__(self, turns=()):
        codes, counts = [], []
        last = None
        for t in turns:
            if t == last:
                counts[-1] += 1
            else:
                codes.append(t)
                counts.append(1)
                last = t
        self.codes = tuple(codes)
        self.counts = tuple(counts)
        self._len = sum(counts)

    @classmethod
    def _of(cls, codes: tuple, counts: tuple, length: int) -> "Word":
        """A Word from blocks already merged, with no zero counts."""
        self = object.__new__(cls)
        self.codes = codes
        self.counts = counts
        self._len = length
        return self

    @classmethod
    def from_blocks(cls, blocks) -> "Word":
        """The word of ``(code, count)`` pairs: equal neighbours merge
        and zero counts drop out."""
        codes, counts = [], []
        for t, k in blocks:
            if not k:
                continue
            if codes and codes[-1] == t:
                counts[-1] += k
            else:
                codes.append(t)
                counts.append(k)
        return cls._of(tuple(codes), tuple(counts), sum(counts))

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain.from_iterable(map(repeat, self.codes, self.counts))

    def __reversed__(self):
        return chain.from_iterable(map(repeat, reversed(self.codes), reversed(self.counts)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._len)
            if step != 1:
                return Word(tuple(self)[index])
            return Word.from_blocks(self._window(start, stop))
        if index < 0:
            index += self._len
        if 0 <= index < self._len:
            for t, k in zip(self.codes, self.counts):
                if index < k:
                    return t
                index -= k
        raise IndexError("Word index out of range")

    def _window(self, start: int, stop: int):
        """The blocks of turns start to stop - 1, clipped to each block."""
        at = 0
        for t, k in zip(self.codes, self.counts):
            lo, hi = max(start, at), min(stop, at + k)
            if lo < hi:
                yield t, hi - lo
            at += k
            if at >= stop:
                return

    def __eq__(self, other) -> bool:
        if isinstance(other, Word):
            return self.codes == other.codes and self.counts == other.counts
        if isinstance(other, tuple):
            return len(other) == self._len and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __add__(self, other):
        if not isinstance(other, (Word, tuple)):
            return NotImplemented
        return Word.from_blocks(chain(_blocks(self), _blocks(other)))

    def __radd__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return Word.from_blocks(chain(_blocks(other), _blocks(self)))


def _blocks(word):
    """The word as (code, count) pairs of equal adjacent turn codes.

    A Word hands back its own blocks.  Any other sequence is grouped,
    except that one shorter than BLOCK_CUTOFF comes back one turn per
    block.
    """
    if isinstance(word, Word):
        return zip(word.codes, word.counts)
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
