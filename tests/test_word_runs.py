"""The run-backed word type against the turn tuples it replaced.

``reference_tokenize`` is the earlier tokenizer, which spelled every
``X^k`` out turn by turn, kept here as the oracle: on any text the
run-backed tokenizer must give the same turns, or refuse it with the
same message at the same offset.  An exponent is a number, so a text
may spell more turns than the oracle can list; past a cap it counts
them instead, and the two must agree on the count.  The contract tests
hold a ``Word`` to the tuple of its turns, and the memory guard checks
that a word of more than 2**64 turns is walked by its runs, never
spelled out, and that the slow inverter counts its walk into runs
without keeping a turn.
"""

import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pullcalc import kernel, words
from pullcalc.kernel import Word
from pullcalc.rationals import make
from pullcalc.treewalk import (
    canonical_word,
    canonicalize_arith,
    canonicalize_rewrite,
    taffy_number,
    word_to_cf,
)
from pullcalc.words import L, L_INV, R, R_INV, WordSyntaxError, parse_tangle, parse_word


def reference_tokenize(text, letter_codes, cap):
    """The expanding tokenizer: the turn count of ``text`` and its
    turns, a list grown token by token.  Past ``cap`` turns the list is
    dropped (None) and the turns are only counted."""
    turns = []
    total = 0
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
            limit = sys.get_int_max_str_digits()
            if limit and len(digits) > limit:
                raise WordSyntaxError("exponent longer than %d digits" % limit, offset=at)
            count = int(digits or "0")
            i = j
        total += count
        if total > cap:
            turns = None
        else:
            turns.extend([base] * count)
    return total, None if turns is None else tuple(turns)


def counted(word, cap):
    """A parsed word as ``reference_tokenize`` gives it: its turn count,
    and its turns if there are at most ``cap`` of them."""
    return word._len, tuple(word) if word._len <= cap else None


def outcome(tokenize, text):
    """What ``tokenize`` gives for ``text``, or its refusal."""
    try:
        return tokenize(text)
    except WordSyntaxError as exc:
        return ("refused", str(exc), exc.offset)


def agree(parse, codes, text, cap):
    """Does ``parse`` agree with the reference on ``text``, turn by turn
    up to ``cap`` turns and by count past it?"""
    ours = outcome(lambda t: counted(parse(t), cap), text)
    return ours == outcome(lambda t: reference_tokenize(t, codes, cap), text)


WHITESPACE = " \t\n\x0b\x0c\r\x85\xa0   　"
TEXT_CHARS = "RLrlVHe^+-0123456789²٣" + WHITESPACE

free_texts = st.text(alphabet=TEXT_CHARS, max_size=40)

# Texts that spell words: a letter, maybe an exponent of at most three
# digits (so the reference never spells out more than a few thousand
# turns), with noise and whitespace in between.
_tokens = st.one_of(
    st.sampled_from("RLrlVHe"),
    st.builds(
        "{}^{}{}".format,
        st.sampled_from("RLrlVH"),
        st.sampled_from(["", "+", "-"]),
        st.from_regex(r"\A[0٣]{0,2}[0-9٣]{1,3}\Z"),
    ),
    st.sampled_from(list(WHITESPACE) + ["^", "-", "²", "R^²", "L^-", "R^" + "1" * 9, "R^0000"]),
)
word_texts = st.lists(_tokens, max_size=30).map("".join)


ALPHABETS = [("turns", parse_word, {"R": R, "L": L}), ("twists", parse_tangle, {"V": R, "H": L})]


@pytest.mark.parametrize("parse, codes", [a[1:] for a in ALPHABETS], ids=[a[0] for a in ALPHABETS])
@settings(max_examples=400, deadline=None)
@given(text=st.one_of(free_texts, word_texts))
def test_tokenizer_agrees_with_the_expanding_reference(parse, codes, text):
    assert agree(parse, codes, text, 1000)


@pytest.mark.parametrize("parse, codes", [a[1:] for a in ALPHABETS], ids=[a[0] for a in ALPHABETS])
@settings(max_examples=300, deadline=None)
@given(text=word_texts)
def test_tokenizer_agrees_with_the_reference_at_the_real_budget(parse, codes, text):
    # 2**24, the turn budget the tokenizer once had: the same texts as
    # then are spelled out, and the longer ones, once refused, counted
    assert agree(parse, codes, text, 2**24)


@pytest.mark.parametrize(
    "text",
    ["R^999 L^2", "R^1000", "R^1001", "R^500 r^501", "R^0999 R", "R^00001000", "R^10000", "R^-1 " * 3],
)
def test_tokenizer_agrees_with_the_reference_at_the_budget(text):
    # texts on either side of the reference's 1000-turn spelling cap
    assert agree(parse_word, {"R": R, "L": L}, text, 1000)


def test_a_parsed_word_is_one_block_per_run():
    w = parse_word("R R^2 r^-1 L^0 R l L^-3")
    assert (w.codes, w.counts) == ((R, L_INV), (5, 4))
    assert parse_word("R R^2") == parse_word("R^3")
    assert parse_word("R^3").counts == (3,)
    assert parse_word("R^0 e") == () and parse_word("R^0").codes == ()


# --- a Word against the tuple of its turns ------------------------------------

block_lists = st.lists(st.tuples(st.sampled_from((R, L, R_INV, L_INV)), st.integers(0, 6)), max_size=8)


def spelled(blocks):
    """The word of ``(code, count)`` pairs, parsed from its spelling."""
    return parse_word(" ".join("%s^%d" % ("RLrl"[t], k) for t, k in blocks))


@settings(max_examples=300, deadline=None)
@given(block_lists)
def test_a_word_behaves_as_the_tuple_of_its_turns(blocks):
    turns = tuple(t for t, k in blocks for _ in range(k))
    w = spelled(blocks)
    assert w == turns and turns == w and not (w != turns) and not (turns != w)
    assert w == Word(turns) == Word(iter(turns))
    assert hash(w) == hash(turns)
    assert repr(w) == repr(turns)
    assert str(w) == str(turns)
    assert len(w) == len(turns)
    assert bool(w) == bool(turns)
    assert tuple(w) == turns and list(w) == list(turns)
    assert all((t in w) == (t in turns) for t in (R, L, R_INV, L_INV, 7))


@settings(max_examples=200, deadline=None)
@given(block_lists)
def test_a_word_keeps_merged_blocks_with_no_zero_counts(blocks):
    for w in (spelled(blocks), Word(t for t, k in blocks for _ in range(k))):
        assert len(w.codes) == len(w.counts)
        assert all(k > 0 for k in w.counts)
        assert all(a != b for a, b in zip(w.codes, w.codes[1:]))
        assert len(w) == sum(w.counts)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((R, L, R_INV, L_INV)), st.integers(1, 10**4)), max_size=8))
def test_a_tuple_reduces_and_rewrites_as_its_word_does(blocks):
    """A tuple is walked one turn per block and its Word one run per
    block; the passes must not tell them apart."""
    w = spelled(blocks)
    turns = tuple(w)
    assert words.reduce(turns) == words.reduce(w)
    assert words.to_run_form(turns) == words.to_run_form(w)
    assert canonicalize_rewrite(turns) == canonicalize_rewrite(w)


def test_a_word_differs_from_other_sequences_as_a_tuple_does():
    w = parse_word("R L")
    assert w != [R, L] and w != (R,) and w != (L, R) and w != "RL"
    assert {w: 1}[(R, L)] == 1 and {(R, L): 2}[w] == 2


def test_the_word_passes_return_words():
    w = parse_word("R^5 L^-2 R^-1")
    for result in (
        words.reduce(w),
        words.invert_word(w),
        canonical_word(taffy_number(w)).word,
        canonical_word(taffy_number(w), "slow").word,
        canonicalize_rewrite(w).word,
        parse_tangle("V H"),
    ):
        assert isinstance(result, Word)
    assert list(kernel._blocks(w)) == [(R, 5), (L_INV, 2), (R_INV, 1)]


# --- the rewrite pass, by blocks and turn by turn ------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((R, L, R_INV, L_INV)), st.integers(1, 5)), max_size=10))
def test_the_block_rewrite_equals_the_rewrite_turn_by_turn(blocks):
    # a Word is rewritten a block at a time, a tuple one block per turn
    w = spelled(blocks)
    assert canonicalize_rewrite(w) == canonicalize_rewrite(tuple(w))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((R, L, R_INV, L_INV)), st.integers(1, 10**5)), max_size=8))
def test_the_block_rewrite_agrees_with_arithmetic_on_long_runs(blocks):
    w = spelled(blocks)
    assert canonicalize_rewrite(w) == canonicalize_arith(w)


@pytest.mark.parametrize(
    "text",
    ["L^16777215 R", "R L^-1 R^16777214", "R^-1 L^16777214 r", "R^8388608 R^-8388608", "R L^8388606 R^-8388608"],
)
def test_the_block_rewrite_takes_a_run_in_a_few_steps(text):
    w = parse_word(text)
    start = time.perf_counter()
    c = canonicalize_rewrite(w)
    assert time.perf_counter() - start < 0.1
    assert c == canonicalize_arith(w)


# --- memory: long runs are never spelled out --------------------------------------------

def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


N = 2**64
LONG = "R^%d L^-3 R^%d" % (N, N - 3)  # 2**65 turns, past sys.maxsize


@pytest.mark.parametrize(
    "what, fn",
    [
        ("parse_word", lambda: parse_word(LONG)),
        ("taffy_number", lambda: taffy_number(parse_word(LONG))),
        ("canonicalize_arith", lambda: canonicalize_arith(parse_word(LONG))),
        ("canonicalize_rewrite", lambda: canonicalize_rewrite(parse_word(LONG))),
        ("word_to_cf", lambda: word_to_cf(parse_word(LONG))),
        ("str(canonical_word)", lambda: str(canonical_word(taffy_number(parse_word(LONG))))),
    ],
    ids=lambda x: x if isinstance(x, str) else "",
)
def test_a_word_of_the_whole_budget_is_walked_by_runs(what, fn):
    # once a word of the whole 2**24-turn budget; now one no tuple could hold
    assert parse_word(LONG)._len == 2 * N > sys.maxsize
    assert peak_bytes(fn) < 2**20, what


def test_the_long_word_has_its_answer():
    w = parse_word(LONG)
    q = taffy_number(w)
    # 0/1 -> N/1 -> -N/(3N - 1) -> ((N - 3)(3N - 1) - N)/(3N - 1)
    assert (q.num, q.den) == ((N - 3) * (3 * N - 1) - N, 3 * N - 1)
    assert str(canonicalize_arith(w)) == str(canonicalize_rewrite(w))
    assert taffy_number(canonical_word(q).word) == q


@pytest.mark.parametrize("num, den", [(1, 2**16), (2**16 + 1, 2**16)])
def test_the_slow_inverter_keeps_no_turn(num, den):
    # 2**16 steps of the subtractive walk, counted into runs as they come
    q = make(num, den)
    answer = []
    assert peak_bytes(lambda: answer.append(canonical_word(q, "slow"))) < 2**16
    assert answer == [canonical_word(q)]
