import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pullcalc import rationals, words
from pullcalc.analysis import cw_row
from pullcalc.rationals import (
    ExtRational,
    apply_turn_rule,
    cf_eval,
    cf_expand,
    digit_limit,
    format_cf,
    make,
    neg_recip,
    parse_fraction,
)
from pullcalc.treewalk import number_trace, taffy_number

ints = st.integers(min_value=-10_000, max_value=10_000)


# --- normal form -----------------------------------------------------------

def test_make_reduces_to_lowest_terms():
    assert make(2, 4) == make(1, 2)
    assert make(2, 4).num == 1
    assert make(2, 4).den == 2


def test_make_moves_sign_to_numerator():
    q = make(3, -6)
    assert (q.num, q.den) == (-1, 2)


def test_make_collapses_infinities():
    assert make(-1, 0) == make(1, 0)
    assert make(2, 0) == make(1, 0)
    assert make(1, 0).den == 0


def test_make_normalizes_zero():
    q = make(0, -5)
    assert (q.num, q.den) == (0, 1)


def test_make_rejects_zero_over_zero():
    with pytest.raises(ValueError):
        make(0, 0)


def test_str_and_repr():
    assert str(make(-1, 3)) == "-1/3"
    assert str(make(1, 0)) == "1/0"
    assert repr(make(3, 2)) == "ExtRational(3, 2)"


def test_equality_and_hashing():
    assert make(4, 6) == make(2, 3)
    assert hash(make(4, 6)) == hash(make(2, 3))
    assert make(1, 2) != make(2, 1)
    assert len({make(1, 2), make(2, 4), make(-2, 0)}) == 2
    assert (make(1, 2) == (1, 2)) is False  # a fraction equals no tuple


@given(ints, ints)
def test_make_is_idempotent(a, b):
    if a == 0 and b == 0:
        return
    q = make(a, b)
    r = make(q.num, q.den)
    assert (r.num, r.den) == (q.num, q.den)
    assert math.gcd(q.num, q.den) == 1
    assert q.den >= 0


def reference_pair(n, d):
    """The normal form by the standard library: Fraction's lowest terms,
    and 1/0 for every zero denominator."""
    if d == 0:
        return 1, 0
    f = Fraction(n, d)
    return f.numerator, f.denominator


BIG_PAIRS = [
    (2**201 * 3, -(2**200) * 9),
    (-(3**150), 2**250),
    (7**90 * 11, 7**88 * 13),
    (-(2**300), 0),
    (0, -(5**100)),
]


@pytest.mark.parametrize(
    "pairs",
    [[(n, d) for n in range(-40, 41) for d in range(-40, 41) if n or d], BIG_PAIRS],
    ids=["small", "big"],
)
def test_both_constructors_agree_with_the_reference_normal_form(pairs):
    for n, d in pairs:
        want = reference_pair(n, d)
        q = ExtRational(n, d)
        assert (q.num, q.den) == want, (n, d)
        g = math.gcd(n, d)
        r = ExtRational._coprime(n // g, d // g)
        assert (r.num, r.den) == want, (n, d)


def test_a_fraction_takes_no_new_attribute():
    with pytest.raises(AttributeError):
        make(1, 2).extra = 1


# --- parsing ---------------------------------------------------------------

def test_parse_fraction_accepts_the_grammar():
    assert parse_fraction("9/7") == make(9, 7)
    assert parse_fraction("-1/3") == make(-1, 3)
    assert parse_fraction("7") == make(7, 1)
    assert parse_fraction("1/0") == make(1, 0)
    assert parse_fraction(" 2/6 ") == make(1, 3)


@pytest.mark.parametrize("text", ["", "7/", "/3", "1/-2", "0/0", "3 / 2", "a/b"])
def test_parse_fraction_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_fraction(text)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no digit limit"
)
def test_no_digit_limit_reads_as_zero_and_refuses_no_length(monkeypatch):
    # Python 3.10.0-3.10.6 has no sys.get_int_max_str_digits, and
    # converts ints of any length: rationals then reads the limit as 0
    monkeypatch.setattr(rationals, "_get_digit_limit", lambda: 0)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert digit_limit() == 0
        num = "7" * 5000
        assert parse_fraction(num + "/3") == make(int(num), 3)
    finally:
        sys.set_int_max_str_digits(limit)


# --- turn rules ------------------------------------------------------------

def test_turn_rules_from_the_seed():
    q = make(0, 1)
    assert apply_turn_rule(q, words.R) == make(1, 1)
    assert apply_turn_rule(q, words.L) == make(0, 1)
    assert apply_turn_rule(q, words.L_INV) == make(0, 1)
    assert apply_turn_rule(q, words.R_INV) == make(-1, 1)


def test_turn_rules_at_one():
    q = make(1, 1)
    assert apply_turn_rule(q, words.L) == make(1, 2)
    assert apply_turn_rule(q, words.R) == make(2, 1)
    assert apply_turn_rule(q, words.L_INV) == make(1, 0)
    assert apply_turn_rule(q, words.R_INV) == make(0, 1)


def test_turn_rules_at_infinity():
    inf = make(1, 0)
    assert apply_turn_rule(inf, words.R) == inf
    assert apply_turn_rule(inf, words.R_INV) == inf
    assert apply_turn_rule(inf, words.L) == make(1, 1)
    assert apply_turn_rule(inf, words.L_INV) == make(-1, 1)


def test_turn_rules_reject_bad_codes():
    with pytest.raises(ValueError):
        apply_turn_rule(make(1, 1), 7)


def test_forward_rules_against_inverse_rules_exhaustively():
    # every valid fraction with |num| <= 50, den <= 50, plus the point at infinity
    qs = [make(1, 0)]
    for b in range(1, 51):
        for a in range(-50, 51):
            if math.gcd(a, b) == 1:
                qs.append(make(a, b))
    for q in qs:
        for turn in (words.R, words.L, words.R_INV, words.L_INV):
            child = apply_turn_rule(q, turn)
            back = apply_turn_rule(child, turn ^ 2)
            # the four rules are only mutually inverse away from the fixed points
            if turn in (words.R, words.R_INV) and q == make(1, 0):
                assert back == q
            elif turn == words.L and q == make(0, 1):
                assert back == q
            else:
                assert back == q, (q, turn)


# --- negated reciprocal ----------------------------------------------------

def test_neg_recip_examples():
    assert neg_recip(make(3, 2)) == make(-2, 3)
    assert neg_recip(make(0, 1)) == make(1, 0)
    assert neg_recip(make(1, 0)) == make(0, 1)


@given(ints, ints)
def test_neg_recip_is_an_involution(a, b):
    if a == 0 and b == 0:
        return
    q = make(a, b)
    assert neg_recip(neg_recip(q)) == q


# --- continued fractions ---------------------------------------------------

def test_cf_eval_examples():
    assert cf_eval([-1, 1, 2]) == make(-1, 3)
    assert cf_eval([1, 3, 2]) == make(9, 7)
    assert cf_eval([0, 1, 1, 1, 0]) == make(1, 2)
    assert cf_eval([5]) == make(5, 1)


def test_cf_eval_is_total_over_zero_coefficients():
    # 2 + 1/(0 + 1/2) = 4, passing through the point at infinity
    assert cf_eval([2, 0, 2]) == make(4, 1)
    assert cf_eval([0, -1, 0]) == make(0, 1)


def test_cf_eval_rejects_empty_input():
    with pytest.raises(ValueError):
        cf_eval([])


def test_cf_expand_examples():
    assert cf_expand(make(9, 7)) == (1, 3, 2)
    assert cf_expand(make(1, 1)) == (1,)
    assert cf_expand(make(2, 5)) == (0, 2, 2)
    assert cf_expand(make(7, 9)) == (0, 1, 3, 2)
    assert cf_expand(make(0, 1)) == (0,)


def test_cf_expand_rejects_negatives_and_infinity():
    with pytest.raises(ValueError):
        cf_expand(make(-1, 3))
    with pytest.raises(ValueError):
        cf_expand(make(1, 0))


def test_cf_expand_last_coefficient_is_at_least_two():
    for b in range(1, 80):
        for a in range(0, 80):
            if math.gcd(a, b) != 1:
                continue
            coeffs = cf_expand(make(a, b))
            if len(coeffs) > 1:
                assert coeffs[-1] >= 2, (a, b)


def test_cf_round_trips_for_all_small_fractions():
    for b in range(1, 301):
        for a in range(0, 301):
            if math.gcd(a, b) == 1:
                assert cf_eval(cf_expand(make(a, b))) == make(a, b)


def test_format_cf():
    assert format_cf((1, 3, 2)) == "[1; 3, 2]"
    assert format_cf((5,)) == "[5]"
    assert format_cf((-1, 1, 2)) == "[-1; 1, 2]"
    with pytest.raises(ValueError, match="^a continued fraction needs at least one coefficient$"):
        format_cf(())


# --- lowest terms without a gcd --------------------------------------------
#
# taffy_number, number_trace, apply_turn_rule (so cw_row) and cf_eval
# build their results without a gcd, trusting unimodularity.

def assert_normal(q):
    assert q.den >= 0
    assert math.gcd(q.num, q.den) == 1
    if q.den == 0:
        assert q.num == 1


def cf_eval_normalizing_every_step(coeffs):
    """Reference: c + 1/value, brought to lowest terms after each step."""
    value = make(coeffs[-1], 1)
    for c in reversed(coeffs[:-1]):
        value = make(c * value.num + value.den, value.num)
    return value


long_run_words = st.lists(
    st.tuples(st.sampled_from((words.R, words.L, words.R_INV, words.L_INV)), st.integers(1, 200)),
    max_size=8,
).map(lambda blocks: tuple(t for t, k in blocks for _ in range(k)))


@settings(max_examples=100, deadline=None)
@given(long_run_words)
def test_number_trace_stays_in_lowest_terms(word):
    trace = number_trace(word)
    for q in trace:
        assert_normal(q)
    assert trace[-1] == taffy_number(word)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=30))
def test_cf_eval_stays_in_lowest_terms(coeffs):
    q = cf_eval(coeffs)
    assert_normal(q)
    assert q == cf_eval_normalizing_every_step(coeffs)


def test_cf_eval_through_infinity_and_back():
    assert cf_eval([0, 0]) == make(1, 0)
    assert cf_eval([3, -1, 1]) == make(1, 0)
    assert cf_eval([3, 1, -1, 1]) == make(3, 1)
    assert cf_eval([5, 1, -1]) == make(1, 0)  # lands on -1/0


def test_tree_rows_stay_in_lowest_terms():
    for n in range(1, 11):
        for q in cw_row(n).entries:
            assert_normal(q)
