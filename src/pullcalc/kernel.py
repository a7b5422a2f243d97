"""The word type and the four turn rules folded over it.

A word is stored as runs: ``Word`` keeps merged ``(code, count)``
blocks, so ``R^k`` costs one block however large k is.  It iterates,
compares, hashes and prints as the tuple of its turns, but it is not a
full sequence: it has no indexing, slicing or ``+``.  It lives here,
beside the fold, because the fold is what reads its blocks.

R sends a/b to (a+b)/b, L sends it to a/(a+b), and the reverse turns
subtract instead.  This module is the only place those rules are
written out, in two loops; nothing outside it applies a rule, and
every fold in the package goes through one of them.

``fold_turns`` is the block fold: it applies the rules per block of
equal turns, ``R^k`` sending a/b to (a+k*b)/b and ``L^k`` sending it to
a/(k*a+b), each block one unimodular step, and returns only the end.
``fold_prefixes`` is the per-turn prefix walk: it must show every
prefix, so it applies the rules one turn at a time and yields the pair
after each.  A ``Word`` gives one block per run and any other sequence
one block per turn.  Seeds are assumed to be in lowest terms; a
unimodular step preserves the gcd, so the results are in lowest terms
too, with no gcd taken anywhere.
"""

from __future__ import annotations

from itertools import chain, repeat


class Word:
    """An immutable word of turn codes, stored as runs of equal codes.

    ``codes`` and ``counts`` are tuples of the same length: neighbouring
    codes differ and every count is positive, so each word has exactly
    one block form.  ``_len``, the sum of the counts, is the turn count:
    it is read in O(1) at any size, and every cap on a word's length
    reads it.  A Word iterates, equals, hashes and prints like the tuple
    of its turns, so ``len``, iteration, ``hash`` and ``repr`` answer
    only for a word whose turns could be a tuple: ``len`` and iteration
    raise OverflowError past ``sys.maxsize`` turns, and ``hash`` and
    ``repr`` walk every turn.  It does not support indexing, slicing or
    ``+``.  ``Word(turns)`` groups any iterable of codes; the word
    passes build blocks directly.  Nothing assigns to a Word once it is
    built (there is no ``__setattr__`` guard, which would triple the
    cost of building one).
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
    def _of(cls, codes: tuple, counts: tuple) -> "Word":
        """A Word from blocks already merged, with no zero counts."""
        self = object.__new__(cls)
        self.codes = codes
        self.counts = counts
        self._len = sum(counts)
        return self

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain.from_iterable(map(repeat, self.codes, self.counts))

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


def _blocks(word):
    """The word as (code, count) pairs: a Word's own runs, or one pair
    per turn for any other sequence."""
    if isinstance(word, Word):
        return zip(word.codes, word.counts)
    return zip(word, repeat(1))


def fold_turns(word, num=0, den=1):
    """Fold the turn rules over ``word`` starting from num/den.

    Returns the final (num, den) pair with the denominator sign
    normalized and any n/0 collapsed to 1/0; an empty word returns the
    seed as given.  The normal form is applied once, at the end: every
    step is linear, and from a coprime seed the denominator reaches 0
    only at 1/0 or -1/0, so normalizing after each step gives the same
    pair.
    """
    a, b = num, den
    t = None
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
    if b > 0 or t is None:
        return a, b
    return (-a, -b) if b else (1, 0)


def fold_prefixes(word, num=0, den=1):
    """Walk the turn rules over ``word`` one turn at a time from num/den.

    Yields the seed as given, then the pair after each turn in
    ``fold_turns``' normal form (the sign on the numerator, n/0 as 1/0),
    so each pair equals ``fold_turns`` of its prefix from the same seed.
    A bad turn code raises when the walk reaches it.
    """
    a, b = num, den
    yield a, b
    for t, k in _blocks(word):
        for _ in repeat(None, k):
            if t == 0:
                a = a + b
            elif t == 1:
                b = a + b
            elif t == 2:
                a = a - b
            elif t == 3:
                b = b - a
            else:
                raise ValueError("bad turn code %r" % (t,))
            if b > 0:
                yield a, b
            elif b:
                yield -a, -b
            else:
                yield 1, 0
