import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pullcalc import treewalk, words
from pullcalc.kernel import Word
from pullcalc.rationals import cf_expand, make, neg_recip
from pullcalc.treewalk import (
    INFINITY,
    INITIAL,
    CanonicalClass,
    canonical_word,
    canonicalize_arith,
    canonicalize_rewrite,
    equivalent,
    layer_counts,
    number_trace,
    rotate_canonical,
    slow_euclid_trace,
    taffy_number,
    word_to_cf,
)
from pullcalc.words import parse_word
from test_words import reference_from_run_form


def cls(tag, text):
    return CanonicalClass(tag, parse_word(text))


# --- taffy numbers ----------------------------------------------------------

def test_taffy_number_examples():
    assert taffy_number(parse_word("R^2 L R^-1")) == make(-1, 3)
    assert taffy_number(()) == make(0, 1)
    assert taffy_number(parse_word("R L R")) == make(3, 2)
    assert taffy_number(parse_word("R L^-1")) == make(1, 0)
    assert taffy_number(parse_word("R^-2 L^-1")) == make(-2, 3)
    assert taffy_number(parse_word("R L R L R L")) == make(8, 13)
    assert taffy_number(parse_word("R^-1 L^-2")) == make(-1, 3)


def test_taffy_number_is_invariant_under_free_reduction():
    rng = random.Random(7)
    for _ in range(500):
        word = tuple(rng.randrange(4) for _ in range(rng.randrange(25)))
        assert taffy_number(word) == taffy_number(words.reduce(word))


def test_number_trace_walks_through_every_prefix():
    trace = number_trace(parse_word("R L R"))
    assert trace == [make(0, 1), make(1, 1), make(1, 2), make(3, 2)]


def test_number_trace_is_capped_before_any_work(monkeypatch):
    monkeypatch.setattr(treewalk, "TRACE_CAP", 10)
    assert number_trace(parse_word("R^10"))[-1] == make(10, 1)
    with pytest.raises(ValueError, match="traces are capped at 10 turns"):
        number_trace(parse_word("R^11"))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="traces are capped at 65536 turns"):
        number_trace(parse_word("R^%d" % 10**23))  # past sys.maxsize: read from the turn count


def test_layer_counts_orders_right_then_left():
    counts = layer_counts(parse_word("R L R L R L"))
    assert counts == (8, 13)
    assert counts.right == 8 and counts.left == 13
    assert layer_counts(()) == (0, 1)
    assert layer_counts(parse_word("R^-1 L^-2")) == (1, 3)
    assert layer_counts(parse_word("R L^-1")) == (1, 0)


# --- continued-fraction bridge ----------------------------------------------

def test_word_to_cf_examples():
    assert word_to_cf(parse_word("R^2 L^3 R")) == (1, 3, 2)
    assert word_to_cf(parse_word("R^2 L R^-1")) == (-1, 1, 2)
    assert word_to_cf(parse_word("L R L")) == (0, 1, 1, 1, 0)
    assert word_to_cf(()) == (0,)


def test_word_to_cf_pads_even_run_counts():
    # R^2 L^3 has runs (2, 3); the bridge appends the trailing zero
    assert word_to_cf(parse_word("R^2 L^3")) == (0, 3, 2)


def test_cf_bridge_reproduces_the_taffy_number():
    from pullcalc.rationals import cf_eval

    rng = random.Random(20260815)
    for _ in range(2000):
        word = tuple(rng.randrange(4) for _ in range(rng.randrange(21)))
        assert cf_eval(word_to_cf(word)) == taffy_number(word)


# --- canonical words ---------------------------------------------------------

def test_canonical_word_examples():
    assert canonical_word(make(-1, 3)) == cls("reverse", "R^-1 L^-2")
    assert canonical_word(make(9, 7)) == cls("forward", "R^2 L^3 R")
    assert canonical_word(make(7, 9)) == cls("forward", "R L R^3 L")
    assert canonical_word(make(2, 5)) == cls("forward", "R^2 L^2")
    assert canonical_word(make(1, 2)) == cls("forward", "R L")
    assert canonical_word(make(1, 0)) == INFINITY
    assert canonical_word(make(0, 1)) == INITIAL


def test_canonical_word_modes_agree():
    for b in range(1, 60):
        for a in range(-60, 61):
            if math.gcd(a, b) != 1:
                continue
            q = make(a, b)
            assert canonical_word(q, "slow") == canonical_word(q, "fast"), q
    assert canonical_word(make(1, 0), "slow") == canonical_word(make(1, 0), "fast")


def test_canonical_word_rejects_unknown_mode():
    with pytest.raises(ValueError):
        canonical_word(make(1, 2), "psychic")


@pytest.mark.parametrize("q", [make(0, 1), make(1, 0), make(1, 10**9)])
def test_canonical_word_checks_its_mode_first(q):
    # before the special classes, and before the turn budget's cf_expand
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        canonical_word(q, "bogus")


def negated(word):
    """Reference: every turn inverted in place, so the run lengths flip
    sign and their order stays."""
    w = words.as_word(word)
    return Word._of(tuple(t ^ 2 for t in w.codes), w.counts)


def reference_canonical_word(q):
    """Reference: the canonical word read off the continued fraction of
    |q| as a signed run tuple and parsed back into a word."""
    if q.den == 0:
        return INFINITY
    if q.num == 0:
        return INITIAL
    coeffs = list(cf_expand(make(abs(q.num), q.den)))
    if len(coeffs) % 2 == 0:
        coeffs[-1] -= 1
        coeffs.append(1)
    sign = -1 if q.num < 0 else 1
    word = reference_from_run_form([sign * c for c in reversed(coeffs)])
    return CanonicalClass("reverse" if q.num < 0 else "forward", word)


def _inverter_values():
    for a in range(0, 151):
        for b in range(0, 151):
            if math.gcd(a, b) == 1:
                yield a, b
    ns = set(range(1, 31)) | {10**k + d for k in range(2, 6) for d in (-1, 0, 1)} | {10**6}
    for n in sorted(ns):
        yield 1, n
        yield n, 1
    fib = [0, 1]
    while len(fib) <= 200:
        fib.append(fib[-1] + fib[-2])
    for k in range(1, 200):
        yield fib[k + 1], fib[k]
        yield fib[k], fib[k + 1]
    rng = random.Random(140)
    for _ in range(200):
        a, b = rng.getrandbits(140), rng.getrandbits(140) | 1
        g = math.gcd(a, b)
        yield a // g, b // g


def test_both_inverters_write_the_reference_blocks():
    for a, b in _inverter_values():
        for num in (a, -a) if a else (a,):
            q = make(num, b)
            ref = reference_canonical_word(q)
            want = (ref.tag, ref.word.codes, ref.word.counts)
            for mode in ("slow", "fast"):
                c = canonical_word(q, mode)
                assert (c.tag, c.word.codes, c.word.counts) == want, (q, mode)
            w = c.word  # the fast word: blocks merged, every count positive
            assert len(w.codes) == len(w.counts), q
            assert all(k > 0 for k in w.counts), q
            assert all(x != y for x, y in zip(w.codes, w.codes[1:])), q


def test_canonical_word_round_trips_through_the_number():
    for b in range(1, 40):
        for a in range(-40, 41):
            if math.gcd(a, b) != 1:
                continue
            q = make(a, b)
            assert taffy_number(canonical_word(q).word) == q


def test_canonicalize_arith_examples():
    assert canonicalize_arith(parse_word("R^2 L R^-1")) == cls("reverse", "R^-1 L^-2")
    assert canonicalize_arith(parse_word("L")) == INITIAL
    assert canonicalize_arith(parse_word("R L^-1 R")) == INFINITY


def test_canonical_class_str_uses_run_notation():
    assert str(cls("reverse", "R^-1 L^-2")) == "R^-1 L^-2"
    assert str(INITIAL) == "e"
    assert str(INFINITY) == "R L^-1"


# --- rotation ----------------------------------------------------------------

def test_rotate_canonical_examples():
    assert rotate_canonical(cls("forward", "R L R")) == cls("reverse", "R^-2 L^-1")
    assert rotate_canonical(cls("forward", "R^2 L^3 R")) == cls(
        "reverse", "R^-1 L^-1 R^-3 L^-1"
    )
    assert rotate_canonical(cls("forward", "R L")) == cls("reverse", "R^-2")
    assert rotate_canonical(cls("forward", "R")) == cls("reverse", "R^-1")
    assert rotate_canonical(INITIAL) == INFINITY
    assert rotate_canonical(INFINITY) == INITIAL


def _forward_classes(max_len):
    """Every forward canonical class with word length <= max_len."""
    for n in range(1, max_len + 1):
        for tail in itertools.product((words.R, words.L), repeat=n - 1):
            yield CanonicalClass("forward", (words.R,) + tail)


def test_rotate_canonical_is_an_involution_that_negates_and_flips():
    classes = [INITIAL, INFINITY]
    for c in _forward_classes(10):
        classes.append(c)
        classes.append(CanonicalClass("reverse", negated(c.word)))
    for c in classes:
        rot = rotate_canonical(c)
        assert rotate_canonical(rot) == c
        assert taffy_number(rot.word) == neg_recip(taffy_number(c.word))


def test_run_negation_negates_the_number():
    for c in _forward_classes(12):
        q = taffy_number(c.word)
        assert taffy_number(negated(c.word)) == make(-q.num, q.den)


# --- rewrite canonicalization -------------------------------------------------

def test_canonicalize_rewrite_examples():
    assert canonicalize_rewrite(parse_word("R^2 L R^-1")) == cls("reverse", "R^-1 L^-2")
    assert canonicalize_rewrite(parse_word("R R^-1")) == INITIAL
    assert canonicalize_rewrite(parse_word("R L^-1 L")) == cls("forward", "R")
    assert canonicalize_rewrite(()) == INITIAL


def test_canonicalize_rewrite_mixed_tail():
    # R R L^-1: the trailing reverse turn rotates the class of R L
    got = canonicalize_rewrite(parse_word("R R L^-1"))
    assert got == cls("reverse", "R^-2")
    assert taffy_number(got.word) == taffy_number(parse_word("R R L^-1")) == make(-2, 1)


def test_append_turn_from_the_two_exceptional_classes():
    # one turn after the initial class's word e and after infinity's R L^-1
    assert canonicalize_rewrite((words.R,)) == cls("forward", "R")
    assert canonicalize_rewrite((words.R_INV,)) == cls("reverse", "R^-1")
    assert canonicalize_rewrite((words.L,)) == INITIAL
    assert canonicalize_rewrite((words.L_INV,)) == INITIAL
    assert canonicalize_rewrite((words.R, words.L_INV, words.R)) == INFINITY
    assert canonicalize_rewrite((words.R, words.L_INV, words.R_INV)) == INFINITY
    assert canonicalize_rewrite((words.R, words.L_INV, words.L)) == cls("forward", "R")
    assert canonicalize_rewrite((words.R, words.L_INV, words.L_INV)) == cls("reverse", "R^-1")


def test_rewrite_agrees_with_arithmetic_exhaustively_to_length_six():
    for n in range(0, 7):
        for word in itertools.product(range(4), repeat=n):
            assert canonicalize_rewrite(word) == canonicalize_arith(word), word


def test_rewrite_agrees_with_arithmetic_on_long_random_words():
    rng = random.Random(99)
    for _ in range(3000):
        word = tuple(rng.randrange(4) for _ in range(rng.randrange(30)))
        assert canonicalize_rewrite(word) == canonicalize_arith(word), word


# --- equivalence ---------------------------------------------------------------

def test_equivalent_examples():
    assert equivalent(parse_word("R^2 L R^-1"), parse_word("R^-1 L^-2"))
    assert not equivalent(parse_word("R"), parse_word("L"))
    assert equivalent(parse_word("R L^-1"), parse_word("R L^-1 R"))


def test_distinct_forward_words_have_distinct_numbers():
    seen = {}
    for n in range(1, 15):
        for tail in itertools.product((words.R, words.L), repeat=n - 1):
            word = (words.R,) + tail
            q = taffy_number(word)
            assert q not in seen, (word, seen.get(q))
            seen[q] = word
    assert len(seen) == 2**14 - 1


# --- slow inversion -------------------------------------------------------------

def test_slow_euclid_trace_on_nine_sevenths():
    trace = slow_euclid_trace(make(9, 7))
    assert [str(step.fraction) for step in trace] == [
        "9/7",
        "2/7",
        "2/5",
        "2/3",
        "2/1",
        "1/1",
    ]
    assert [step.direction for step in trace] == ["R", "L", "L", "L", "R", "R"]


def test_slow_euclid_trace_spells_the_canonical_word_backwards():
    for b in range(1, 45):
        for a in range(1, 45):
            if math.gcd(a, b) != 1:
                continue
            q = make(a, b)
            trace = slow_euclid_trace(q)
            word = parse_word(" ".join(step.direction for step in reversed(trace)))
            assert word == canonical_word(q).word, q


def test_slow_euclid_trace_of_one():
    trace = slow_euclid_trace(make(1, 1))
    assert len(trace) == 1
    assert trace[0].fraction == make(1, 1)
    assert trace[0].direction == "R"


@pytest.mark.parametrize("q", [make(0, 1), make(1, 0), make(-1, 3)])
def test_slow_euclid_trace_rejects_non_positive_input(q):
    with pytest.raises(ValueError):
        slow_euclid_trace(q)


def test_slow_euclid_trace_is_capped_before_its_first_step():
    trace = slow_euclid_trace(make(1, 2**16))
    assert len(trace) == 2**16
    assert trace[0].fraction == make(1, 2**16) and trace[-1].fraction == make(1, 1)
    for q in (make(1, 2**16 + 1), make(1, 10**30)):
        with pytest.raises(ValueError, match="^traces are capped at 65536 turns$"):
            slow_euclid_trace(q)


def test_slow_euclid_trace_shares_the_walk_bound(monkeypatch):
    # a + b - 1 bounds the walk; past the cap the coefficient sum decides
    monkeypatch.setattr(treewalk, "TRACE_CAP", 10)
    assert len(slow_euclid_trace(make(89, 55))) == 10
    with pytest.raises(ValueError, match="^traces are capped at 10 turns$"):
        slow_euclid_trace(make(11, 1))


# --- long words and bounded canonical words -----------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(200, 5000), st.randoms(use_true_random=False))
def test_rewrite_agrees_with_arithmetic_on_long_mixed_words(n, rng):
    word = []
    while len(word) < n:
        word += [rng.randrange(4)] * min(n - len(word), rng.choice((1, 1, 2, 3, 40)))
    word = tuple(word)
    assert canonicalize_rewrite(word) == canonicalize_arith(word)


def test_rewrite_of_a_long_word_and_its_inverse_is_initial():
    rng = random.Random(5)
    word = tuple(rng.randrange(4) for _ in range(5000))
    assert canonicalize_rewrite(word + tuple(words.invert_word(word))) == INITIAL


@pytest.mark.parametrize("mode", ["fast", "slow"])
def test_canonical_word_refuses_a_word_past_the_turn_budget(mode):
    # Words past the 2**24-turn budget both modes once shared: fast mode
    # costs O(coefficients) and answers; slow mode walks one step per
    # turn and keeps the budget as its own cap, SLOW_CAP.
    n = 2**24
    answers = {
        make(1, n + 2): "R L^%d" % (n + 1),
        make(-1, n + 2): "R^-1 L^-%d" % (n + 1),
        make(10**30, 1): "R^%d" % 10**30,
    }
    for q, text in answers.items():
        if mode == "fast":
            c = canonical_word(q, mode)
            assert str(c) == text and taffy_number(c.word) == q
        else:
            with pytest.raises(ValueError, match="^slow canonical words are capped at %d turns$" % n):
                canonical_word(q, mode)


def test_slow_canonical_word_is_capped_by_its_walk(monkeypatch):
    # a + b - 1 bounds the walk; past the cap the coefficient sum decides
    monkeypatch.setattr(treewalk, "SLOW_CAP", 10)
    assert str(canonical_word(make(1, 10), "slow")) == "R L^9"
    assert str(canonical_word(make(-10, 1), "slow")) == "R^-10"
    for q in (make(1, 11), make(11, 1)):  # walks of 11 steps
        with pytest.raises(ValueError, match="^slow canonical words are capped at 10 turns$"):
            canonical_word(q, "slow")
    for q in (make(-3, 10), make(89, 55)):  # a + b - 1 past 10, walks of 6 and 10 steps
        assert canonical_word(q, "slow") == canonical_word(q)


def test_canonical_word_length_is_the_coefficient_sum():
    q = make(-1, 150)
    assert canonical_word(q) == cls("reverse", "R^-1 L^-149")
    assert len(canonical_word(q, "slow").word) == 150
