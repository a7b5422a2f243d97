import random

import pytest
from hypothesis import given, settings, strategies as st

from pullcalc.cli import run
from pullcalc.kernel import Word
from pullcalc.rationals import digit_limit
from pullcalc.treewalk import canonicalize_rewrite
from pullcalc.words import (
    L,
    L_INV,
    R,
    R_INV,
    WordSyntaxError,
    format_word,
    invert_word,
    parse_word,
    reduce,
    spell_blocks,
    to_run_form,
)

ALL_TURNS = (R, L, R_INV, L_INV)

turn_lists = st.lists(st.sampled_from(ALL_TURNS), max_size=40)


# --- parsing ---------------------------------------------------------------

def test_parse_plain_letters():
    assert parse_word("RRL") == (R, R, L)


def test_parse_exponents_and_inverse():
    assert parse_word("R^2 L R^-1") == (R, R, L, R_INV)


def test_parse_lowercase_is_inverse():
    assert parse_word("r l^2") == (R_INV, L_INV, L_INV)


def test_parse_empty_symbol():
    assert parse_word("e") == ()
    assert parse_word("") == ()


def test_parse_exponent_zero_yields_no_turns():
    assert parse_word("R^0 L") == (L,)


def test_parse_lowercase_negative_exponent_cancels_out():
    # r^-2 spells the inverse of r twice, which is a forward R
    assert parse_word("r^-2") == (R, R)


def test_parse_ignores_whitespace():
    assert parse_word("  R^2L\tR^-1 ") == (R, R, L, R_INV)


def test_parse_rejects_unknown_token_with_offset():
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("RL Q")
    assert exc.value.offset == 3
    assert "offset 3" in str(exc.value)


def test_parse_rejects_dangling_caret():
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("R^")
    assert exc.value.offset == 2


def test_parse_rejects_caret_without_letter():
    with pytest.raises(WordSyntaxError):
        parse_word("^2")


@pytest.mark.parametrize(
    "text,offset",
    [
        ("R^%d" % (2**24 + 1), 2),
        ("r^-%d" % (2**24 + 1), 2),
        ("R L^%d" % 2**24, 4),
    ],
)
def test_parse_refuses_a_word_past_the_turn_budget(text, offset):
    # Past the 2**24-turn budget the tokenizer once had, a word parses
    # as one block per run.  Only an exponent too long to read is still
    # refused, at the offset where the budget refused it.
    word = parse_word(text)
    assert format_word(word, "runs") == text.replace("r^-", "R^")
    assert word._len > 2**24
    with pytest.raises(WordSyntaxError) as exc:
        parse_word(text[:offset] + "1" * 5000)
    assert exc.value.offset == offset


@pytest.mark.parametrize(
    "text", ["R^" + "1" * 5000, "R^-" + "1" * 5000], ids=["5000 ones", "minus 5000 ones"]
)
def test_parse_refuses_an_exponent_too_long_to_convert(text):
    # past Python's 4,300-digit int() limit: refused at the exponent
    with pytest.raises(WordSyntaxError) as exc:
        parse_word(text)
    assert exc.value.offset == 2
    assert str(exc.value) == "exponent longer than %d digits at offset 2" % digit_limit()


def test_parse_refuses_a_superscript_exponent_at_its_offset():
    # "²" is a digit to str.isdigit but not to int()
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("R^²")
    assert exc.value.offset == 2


def test_parse_leading_zeros_do_not_count_toward_the_exponent():
    assert parse_word("R^" + "0" * 5000 + "1") == (R,)
    assert parse_word("L^-" + "0" * 5000 + "2") == (L_INV, L_INV)


@pytest.mark.parametrize("zero", ["\u0660", "\uff10"], ids=["arabic-indic", "fullwidth"])
def test_parse_leading_zeros_of_any_script_do_not_count_toward_the_exponent(zero):
    one, two = chr(ord(zero) + 1), chr(ord(zero) + 2)
    assert parse_word("R^" + zero * 5000 + one) == (R,)
    assert parse_word("L^-" + (zero + "0") * 2500 + two) == (L_INV, L_INV)
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("R^" + zero * 10 + one * 5000)
    assert str(exc.value) == "exponent longer than %d digits at offset 2" % digit_limit()


def test_eval_of_an_exponent_too_long_to_convert_names_its_offset():
    result = run(["eval", "R^" + "1" * 5000])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "pullcalc: exponent longer than %d digits at offset 2\n" % digit_limit()


@pytest.mark.parametrize("word", ["R^-99999999999", "R^100000000000000000000000"])
def test_eval_of_a_huge_exponent_is_one_line_of_error(word):
    # an exponent is a number: a huge one, once past the turn budget,
    # now has its answer, R^k from 0/1 being k/1
    assert run(["eval", word]) == (0, word[2:] + "/1\n", "")


# --- formatting ------------------------------------------------------------

def test_format_plain():
    assert format_word((R, R, L), "plain") == "R R L"
    assert format_word((R, L_INV), "plain") == "R L^-1"


def test_format_runs_collects_exponents():
    assert format_word((R, R, L), "runs") == "R^2 L"


def test_format_runs_empty_word_is_e():
    assert format_word((), "runs") == "e"
    assert format_word((), "plain") == "e"


def test_format_runs_infinity_word():
    assert format_word((R, L_INV), "runs") == "R L^-1"


def test_format_runs_reduces_first():
    assert format_word((R, R_INV, L), "runs") == "L"


def test_format_rejects_unknown_style():
    with pytest.raises(ValueError):
        format_word((R,), "fancy")


@given(turn_lists)
def test_parse_of_format_reduces_to_reduce(ws):
    word = tuple(ws)
    assert parse_word(format_word(word, "runs")) == reduce(word)
    assert parse_word(format_word(word, "plain")) == word


# --- free reduction --------------------------------------------------------

def test_reduce_cancels_pairs():
    assert reduce((0, 2)) == ()
    assert reduce((0, 1, 3, 2)) == ()
    assert reduce((0, 0, 3)) == (0, 0, 3)


def test_reduce_rejects_a_bad_turn_code():
    with pytest.raises(ValueError):
        reduce((0, -1))


def test_reduce_examples():
    assert reduce(parse_word("R^-1 R^2 L")) == parse_word("R L")
    assert reduce(parse_word("L L^-1")) == ()
    assert reduce(parse_word("R R^-1 R R L")) == parse_word("R^2 L")


def _reduce_in_random_order(word, rng):
    """Reference reducer: cancel one random eligible pair at a time."""
    work = list(word)
    while True:
        sites = [i for i in range(len(work) - 1) if work[i] == work[i + 1] ^ 2]
        if not sites:
            return tuple(work)
        i = rng.choice(sites)
        del work[i : i + 2]


def test_reduction_is_confluent():
    rng = random.Random(20260815)
    for _ in range(10_000):
        n = rng.randrange(0, 31)
        word = tuple(rng.choice(ALL_TURNS) for _ in range(n))
        assert _reduce_in_random_order(word, rng) == reduce(word)


@given(turn_lists)
def test_reduce_is_idempotent(ws):
    once = reduce(tuple(ws))
    assert reduce(once) == once


@given(turn_lists)
def test_word_times_inverse_reduces_to_identity(ws):
    word = tuple(ws)
    assert reduce(word + tuple(invert_word(word))) == ()


# --- run form --------------------------------------------------------------

def test_run_form_examples():
    assert to_run_form(parse_word("R^2 L R^-1")) == (2, 1, -1)
    assert to_run_form(parse_word("L R L")) == (0, 1, 1, 1)
    assert to_run_form(parse_word("R^2 L^3 R")) == (2, 3, 1)


def test_run_form_merges_mixed_signs():
    # R R^-1 R^-1 freely reduces to a single reverse turn
    assert to_run_form((R, R_INV, R_INV)) == (-1,)


def reference_from_run_form(runs):
    """Reference: rebuild the word for a run tuple, as ``words`` did
    before the run form became output only.  Zero runs are tolerated
    at either end but rejected in the interior, where they would hide
    a cancellation."""
    runs = tuple(runs)
    for pos in range(1, len(runs) - 1):
        if runs[pos] == 0:
            raise ValueError("zero run in the interior at position %d" % pos)
    codes, counts = [], []
    for pos, n in enumerate(runs):
        if n:
            codes.append(pos & 1 if n > 0 else pos & 1 | 2)
            counts.append(abs(n))
    return Word._of(tuple(codes), tuple(counts))


@given(turn_lists)
def test_run_form_round_trips(ws):
    word = tuple(ws)
    runs = to_run_form(word)
    assert reference_from_run_form(runs) == reduce(word)
    assert to_run_form(reference_from_run_form(runs)) == runs


# --- inversion ---------------------------------------------------------------

def test_invert_word_examples():
    assert invert_word(parse_word("R L")) == parse_word("L^-1 R^-1")
    assert invert_word(()) == ()
    assert invert_word(parse_word("R^2")) == parse_word("R^-2")


# --- long words, folded and reduced by blocks --------------------------------

def block_words(max_count, max_blocks=8):
    """Words made of blocks of one turn repeated 1 to max_count times."""
    return st.lists(
        st.tuples(st.sampled_from(ALL_TURNS), st.integers(1, max_count)), max_size=max_blocks
    ).map(lambda blocks: tuple(t for t, k in blocks for _ in range(k)))


@settings(max_examples=200, deadline=None)
@given(block_words(60, max_blocks=10), st.randoms(use_true_random=False))
def test_block_reduction_equals_the_reference(word, rng):
    assert reduce(word) == _reduce_in_random_order(word, rng)


@settings(max_examples=100, deadline=None)
@given(block_words(10**4))
def test_run_form_of_long_words_round_trips(word):
    runs = to_run_form(word)
    assert reference_from_run_form(runs) == reduce(word)
    assert to_run_form(reference_from_run_form(runs)) == runs
    assert all(runs[1:-1])


def test_block_reduction_cancels_across_long_blocks():
    word = (R,) * 5000 + (L,) * 70 + (L_INV,) * 70 + (R_INV,) * 4999 + (L_INV,) * 100
    assert reduce(word) == (R,) + (L_INV,) * 100
    assert to_run_form(word) == (1, -100)
    assert to_run_form((L,) * 100 + (L_INV,) * 101) == (0, -1)


def test_reduce_rejects_a_bad_code_in_a_long_word():
    with pytest.raises(ValueError, match="bad turn code 7"):
        reduce((R,) * 100 + (7,))


@pytest.mark.parametrize(
    "call, word",
    [
        (canonicalize_rewrite, (R, 7)),
        (reduce, (R, 7)),
        (to_run_form, (L, 9)),
        (lambda word: spell_blocks(word, (1, 1)), (L, 9)),
        (invert_word, (R, 7)),
    ],
    ids=["canonicalize_rewrite", "reduce", "to_run_form", "spell_blocks", "invert_word"],
)
def test_every_block_pass_rejects_a_bad_code(call, word):
    with pytest.raises(ValueError, match="^bad turn code %d$" % word[1]):
        call(word)
