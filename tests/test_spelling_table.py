"""The per-alphabet spelling table behind ``tokenize`` and ``spell_blocks``.

``tokenize`` splits a text at whitespace and looks each chunk up in its
alphabet's table; from the first chunk outside the table on, a text
goes through the character scanner ``words._scan`` instead.  These tests
pin what that rests on: ``str.split`` and ``str.isspace`` agree on
every code point, every table entry reads and writes back through the
scanner and the writer, and a text that leaves the table reads as the
scanner reads it, refusals and their offsets included.
"""

import random
import sys
from itertools import chain, groupby
from operator import itemgetter
from unittest import mock

import pytest

from pullcalc import words
from pullcalc.kernel import Word
from pullcalc.words import (
    L,
    L_INV,
    R,
    R_INV,
    SPELLED_COUNT,
    TURN_LETTERS,
    TWIST_LETTERS,
    WordSyntaxError,
    format_word,
    parse_word,
    spell_blocks,
    tokenize,
)

ALPHABETS = [TURN_LETTERS, TWIST_LETTERS]


def test_split_and_isspace_agree_on_every_code_point():
    """For every code point c, ``("a" + c + "a").split()`` is
    ``["a", "a"]`` exactly when ``c.isspace()``.  All code points are
    split at once: each stands once between two a's, so the text is its
    chunks joined by the whitespace code points, in order, exactly when
    split cut at those and nowhere else."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(filter(str.isspace, every))
    text = "a" + "a".join(every) + "a"
    chunks = text.split()
    assert len(chunks) == len(spaces) + 1
    assert "".join(chain.from_iterable(zip(chunks, spaces))) + chunks[-1] == text
    assert [("a" + c + "a").split() for c in spaces] == [["a", "a"]] * len(spaces)
    assert set("\x1c\x1d\x1e\x1f\x85\xa0\u3000") <= set(spaces)


def reference_spelling(t, k, letters):
    """A block as ``spell_blocks`` wrote it before the table."""
    k = -k if t & 2 else k
    return letters[t & 1] if k == 1 else "%s^%d" % (letters[t & 1], k)


def scanned(text, letters):
    """The word of the blocks ``_scan`` reads, merged apart from ``tokenize``."""
    groups = groupby(words._scan(text, letters), itemgetter(0))
    runs = [(t, sum(map(itemgetter(1), g))) for t, g in groups]
    return Word._of(tuple(map(itemgetter(0), runs)), tuple(map(itemgetter(1), runs)))


@pytest.mark.parametrize("letters", ALPHABETS)
def test_every_entry_round_trips(letters):
    table = words._spelling(letters)
    blocks = [(t, k) for t in (R, L, R_INV, L_INV) for k in range(1, SPELLED_COUNT + 1)]
    assert sorted(table) == sorted(blocks)
    for block, text in table.items():
        assert text == reference_spelling(*block, letters)
        assert list(words._scan(text, letters)) == [block]
        assert spell_blocks(*zip(block), letters) == text
        assert table.read[text] == block
    lowercase = [letter.lower() for letter in letters]
    assert sorted(table.read) == sorted(list(table.values()) + ["e"] + lowercase)
    assert table.read["e"] is None
    assert list(words._scan("e", letters)) == []
    assert [table.read[c] for c in lowercase] == [(R_INV, 1), (L_INV, 1)]
    assert [list(words._scan(c, letters)) for c in lowercase] == [[(R_INV, 1)], [(L_INV, 1)]]


@pytest.mark.parametrize("letters", ALPHABETS)
def test_blocks_outside_the_table_are_formatted(letters):
    for t in (R, L, R_INV, L_INV):
        for k in (SPELLED_COUNT + 1, 10**30, 0, -1, -(SPELLED_COUNT + 1)):
            assert spell_blocks((t,), (k,), letters) == reference_spelling(t, k, letters)
    assert len(words._spelling(letters)) == 4 * SPELLED_COUNT  # nothing kept


@pytest.mark.parametrize("bad", [4, -1, 1.5, "R"])
def test_a_bad_code_is_refused_by_the_table(bad):
    message = "bad turn code %r" % (bad,)
    with pytest.raises(ValueError) as exc:
        spell_blocks((R, bad), (1, 2))
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        format_word((R, bad))
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        format_word(Word._of((R, bad), (1, 3)))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("R r^-1 L x", "unexpected 'x' at offset 9"),
        ("R L^", "expected an integer after '^' at offset 4"),
        ("R^-1 L^16 r l e R^", "expected an integer after '^' at offset 18"),
        ("L^16 R^-16 E", "unexpected 'E' at offset 11"),
        ("R\u3000L\x1fl\x85x", "unexpected 'x' at offset 6"),
    ],
)
def test_a_refusal_among_table_chunks_keeps_its_offset(text, message):
    with pytest.raises(WordSyntaxError) as exc:
        parse_word(text)
    assert str(exc.value) == message
    assert exc.value.offset == int(message.rsplit(" ", 1)[1])
    assert not isinstance(exc.value.__context__, KeyError)


@pytest.mark.parametrize(
    "text, blocks",
    [
        ("R L^17", ((R, L), (1, 17))),
        ("R L^%d" % (SPELLED_COUNT + 1), ((R, L), (1, SPELLED_COUNT + 1))),
        ("RL", ((R, L), (1, 1))),
        ("R^٣", ((R,), (3,))),
        ("R^+2 R^0 L^-0 R^02 rR", ((R, R_INV, R), (4, 1, 1))),
        ("e R e R^-1 eR", ((R, R_INV, R), (1, 1, 1))),
    ],
)
def test_a_text_outside_the_table_reads_as_the_scanner_reads_it(text, blocks):
    want = Word._of(*blocks)
    words._spelling(TURN_LETTERS)
    with mock.patch.object(words, "_scan", wraps=words._scan) as scan:
        got = parse_word(text)
    scan.assert_called_once()
    assert scan.call_args.args[:2] == (text, TURN_LETTERS)
    assert (got.codes, got.counts) == (want.codes, want.counts)
    assert got == scanned(text, TURN_LETTERS)


@pytest.mark.parametrize(
    "text, start",
    [
        ("R^16 R^1", 5),  # the chunk outside the table is also the head of one inside it
        ("L^16\t\t\t\tL^16 L^1 R", 13),
        ("  R^2 \u3000 ^ L", 8),
        ("R^-16  -1 L", 7),
        ("R^17", 0),
    ],
)
def test_the_scanner_starts_at_the_first_chunk_outside_the_table(text, start):
    words._spelling(TURN_LETTERS)
    with mock.patch.object(words, "_scan", wraps=words._scan) as scan:
        got = outcome(parse_word, text)
    scan.assert_called_once_with(text, TURN_LETTERS, start)
    assert got == outcome(lambda t: scanned(t, TURN_LETTERS), text)


@pytest.mark.parametrize(
    "text, blocks",
    [
        ("R^-3 l e L^16 L R R\tR^-1 r", ((R_INV, L_INV, L, R, R_INV), (3, 1, 17, 2, 2))),
        ("R\u3000L\x1fl\x85r", ((R, L, L_INV, R_INV), (1, 1, 1, 1))),
    ],
)
def test_a_text_of_table_chunks_never_reaches_the_scanner(text, blocks):
    words._spelling(TURN_LETTERS)
    with mock.patch.object(words, "_scan", side_effect=AssertionError("scanned")):
        got = parse_word(text)
    assert (got.codes, got.counts) == blocks
    assert got == scanned(text, TURN_LETTERS)


def outcome(read, text):
    try:
        word = read(text)
    except WordSyntaxError as exc:
        return ("refused", str(exc), exc.offset)
    return word.codes, word.counts


@pytest.mark.parametrize("letters", ALPHABETS)
def test_seeded_texts_read_as_the_scanner_reads_them(letters):
    """Table chunks, chunks just outside it and stray characters, joined
    by every kind of whitespace (or none), against the scanner alone."""
    rng = random.Random(20261020)
    table = words._spelling(letters)
    pieces = sorted(table.read) + [
        letters[0] + "^%d" % (SPELLED_COUNT + 1),
        letters[1] + "^-0",
        letters[0].lower() + "^2",
        letters[1] + "^٣",
        "^",
        "x",
        "E",
    ]
    gaps = [" ", " ", "  ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u3000", ""]
    for _ in range(3000):
        text = "".join(rng.choice(pieces) + rng.choice(gaps) for _ in range(rng.randrange(12)))
        want = outcome(lambda t: scanned(t, letters), text)
        assert outcome(lambda t: tokenize(t, letters), text) == want, text
