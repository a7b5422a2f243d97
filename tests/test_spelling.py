"""Words print from their blocks, against the printer they replaced.

``reference_format_word`` is the earlier ``format_word``, kept here as
the oracle: it looked every turn up in a table built per call, and for
the runs style walked the signed run lengths of the reduced word by
position.  The block speller must give the same text for every word,
in both styles and both alphabets, and a canonical class must print as
the reference printed its word, without reducing it again.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pullcalc import words
from pullcalc.kernel import Word
from pullcalc.rationals import make
from pullcalc.treewalk import CanonicalClass, canonical_word, canonicalize_rewrite, rotate_canonical
from pullcalc.words import L, L_INV, R, R_INV, format_tangle, format_word, invert_word, to_run_form


def reference_format_word(word, style="plain", letters=("R", "L")):
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


ALL_TURNS = (R, L, R_INV, L_INV)
counts = st.one_of(st.integers(1, 5), st.integers(1, 10**4))


def spelled_out(blocks):
    return tuple(t for t, k in blocks for _ in range(k))


any_words = st.lists(st.tuples(st.sampled_from(ALL_TURNS), counts), max_size=6).map(spelled_out)
# mostly inverse turns, or u v w v^-1 x with whole stretches cancelling
inverse_heavy = st.one_of(
    st.lists(st.tuples(st.sampled_from((R_INV, L_INV, R_INV, L_INV, R, L)), counts), max_size=6).map(spelled_out),
    st.tuples(any_words, any_words, any_words, any_words).map(lambda p: p[0] + p[1] + p[2] + tuple(invert_word(p[1])) + p[3]),
)


@settings(max_examples=300, deadline=None)
@given(
    turns=st.one_of(st.just(()), any_words, inverse_heavy),
    style=st.sampled_from(["plain", "runs"]),
    letters=st.sampled_from([("R", "L"), ("V", "H")]),
)
@example(turns=(), style="plain", letters=("V", "H"))
@example(turns=(), style="runs", letters=("V", "H"))
def test_both_styles_match_the_reference(turns, style, letters):
    want = reference_format_word(turns, style, letters)
    assert format_word(turns, style, letters) == want
    assert format_word(Word(turns), style, letters) == want
    if letters == ("V", "H"):
        assert format_tangle(Word(turns), style) == want


def criterion_5_values():
    values = [make(0, 1), make(1, 0)]
    for b in range(1, 151):
        for a in range(1, 151):
            if math.gcd(a, b) == 1:
                values += [make(a, b), make(-a, b)]
    return values


def test_a_canonical_class_prints_as_the_reference_printed_its_word():
    classes = [canonical_word(q) for q in criterion_5_values()]
    classes += [rotate_canonical(c) for c in classes]
    rng = random.Random(20261019)
    for _ in range(2000):
        turns = tuple(rng.randrange(4) for _ in range(rng.randrange(41)))
        classes.append(canonicalize_rewrite(turns))
    for c in classes:
        assert str(c) == reference_format_word(c.word, "runs"), c


def test_a_canonical_class_prints_without_reducing_its_word():
    classes = [canonical_word(make(-9, 7)), canonicalize_rewrite((R, L, L, R_INV)), CanonicalClass("forward", (R, R, L))]
    want = [reference_format_word(c.word, "runs") for c in classes]
    with mock.patch.object(words, "_reduced_blocks", side_effect=AssertionError("reduced again")):
        assert [str(c) for c in classes] == want


@pytest.mark.parametrize("turns", [(4,), (-1,), (R, L, 4)])
def test_a_bad_turn_code_is_refused_in_both_styles(turns):
    for style in ("plain", "runs"):
        with pytest.raises(ValueError, match="bad turn code"):
            format_word(turns, style)
