import math
import random

import pytest

from pullcalc import words
from pullcalc.analysis import (
    alternating_layers,
    alternating_word,
    cw_row,
    effectiveness_report,
    fibonacci,
    four_way_children,
    max_total_layers,
)
from pullcalc.rationals import make
from pullcalc.treewalk import layer_counts, taffy_number
from pullcalc.words import parse_word


# --- fibonacci ---------------------------------------------------------------

def test_fibonacci_values():
    assert [fibonacci(n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert fibonacci(10) == 55
    assert fibonacci(40) == 102334155


def test_fibonacci_rejects_negative_index():
    with pytest.raises(ValueError):
        fibonacci(-1)


# --- alternating pulls ---------------------------------------------------------

def test_alternating_word_starts_with_r():
    assert alternating_word(0) == ()
    assert alternating_word(3) == parse_word("R L R")
    assert alternating_word(6) == parse_word("R L R L R L")
    with pytest.raises(ValueError, match="^word length must be non-negative$"):
        alternating_word(-1)


def test_alternating_layers_values():
    assert alternating_layers(0) == (0, 1)
    assert alternating_layers(6) == (8, 13)
    assert alternating_layers(9) == (55, 34)


def test_alternating_layers_match_the_fold():
    for n in range(41):
        assert alternating_layers(n) == layer_counts(alternating_word(n)), n


# --- tree rows ------------------------------------------------------------------

def test_cw_row_one_is_the_root():
    row = cw_row(1)
    assert row.depth == 1
    assert row.entries == (make(1, 1),)


def test_cw_row_three():
    assert cw_row(3).entries == (make(1, 3), make(3, 2), make(2, 3), make(3, 1))


def test_cw_row_size_and_maximum():
    row = cw_row(5)
    assert len(row.entries) == 16
    assert max(q.num for q in row.entries) == fibonacci(6)


def test_cw_row_depth_cap():
    with pytest.raises(ValueError):
        cw_row(26)
    with pytest.raises(ValueError):
        cw_row(0)


def test_cw_rows_are_reduced_and_distinct():
    seen = set()
    for n in range(1, 13):
        for q in cw_row(n).entries:
            assert math.gcd(q.num, q.den) == 1
            assert q.num > 0 and q.den > 0
            assert q not in seen
            seen.add(q)
    assert len(seen) == 2**12 - 1


# --- children --------------------------------------------------------------------

def test_four_way_children_of_one():
    assert four_way_children(make(1, 1)) == {
        "L": make(1, 2),
        "R": make(2, 1),
        "L^-1": make(1, 0),
        "R^-1": make(0, 1),
    }


def test_four_way_children_of_the_seed():
    assert four_way_children(make(0, 1)) == {
        "L": make(0, 1),
        "R": make(1, 1),
        "L^-1": make(0, 1),
        "R^-1": make(-1, 1),
    }


def test_four_way_children_of_infinity():
    assert four_way_children(make(1, 0)) == {
        "L": make(1, 1),
        "R": make(1, 0),
        "L^-1": make(-1, 1),
        "R^-1": make(1, 0),
    }


def test_four_way_children_key_order():
    assert list(four_way_children(make(1, 1))) == ["L", "R", "L^-1", "R^-1"]


# --- extremal layers ----------------------------------------------------------------

def test_max_total_layers_closed_form():
    total, witness = max_total_layers(6)
    assert total == 21
    assert witness == alternating_word(6)
    assert max_total_layers(0) == (1, ())
    assert max_total_layers(4)[0] == fibonacci(6)


def test_max_total_layers_brute_force_agrees_on_the_value():
    for n in range(0, 13):
        closed, _ = max_total_layers(n)
        brute, witness = max_total_layers(n, mode="brute-force")
        assert brute == closed == fibonacci(n + 2), n
        counts = layer_counts(witness)
        assert counts.right + counts.left == brute
        assert len(witness) == n
        assert all(t in (words.R, words.L) for t in witness)


def test_max_total_layers_brute_force_witness_is_lexicographically_first():
    # two R turns, then strict alternation, beats the pure alternating
    # word in the R-before-L ordering whenever a tie allows it
    _, witness = max_total_layers(2, mode="brute-force")
    assert witness == parse_word("R R")
    _, witness = max_total_layers(5, mode="brute-force")
    assert witness == parse_word("R R L R L")
    # independent check: full scan in lexicographic order
    n = 9
    best = None
    for bits in range(2**n):
        word = tuple((bits >> (n - 1 - k)) & 1 for k in range(n))
        total = sum(layer_counts(word))
        if best is None or total > best[0]:
            best = (total, word)
    assert max_total_layers(n, mode="brute-force") == best


def test_max_total_layers_input_checks():
    with pytest.raises(ValueError):
        max_total_layers(17, mode="brute-force")
    with pytest.raises(ValueError):
        max_total_layers(4, mode="guess")
    with pytest.raises(ValueError):
        max_total_layers(-1)


# --- effectiveness -------------------------------------------------------------------

def test_effectiveness_report_on_the_alternating_pull():
    rows = effectiveness_report(alternating_word(6))
    assert [row.total for row in rows] == [1, 2, 3, 5, 8, 13, 21]
    assert rows[0].ratio is None
    assert [str(row.ratio) for row in rows[1:]] == [
        "2/1",
        "3/2",
        "5/3",
        "8/5",
        "13/8",
        "21/13",
    ]


def test_effectiveness_report_on_a_one_sided_pull():
    rows = effectiveness_report(parse_word("R^4"))
    assert [row.total for row in rows] == [1, 2, 3, 4, 5]
    assert [row.length for row in rows] == [0, 1, 2, 3, 4]


def test_effectiveness_report_of_the_empty_pull():
    rows = effectiveness_report(())
    assert len(rows) == 1
    assert rows[0] == (0, 1, None)


def test_effectiveness_report_handles_reverse_turns():
    rows = effectiveness_report(parse_word("R L^-1"))
    q = taffy_number(parse_word("R L^-1"))
    assert q == make(1, 0)
    assert rows[-1].total == 1


def test_effectiveness_report_puts_the_sign_on_the_numerator():
    # R L^-1 L^-1 passes 1/0 and lands on -1/1, not on 1/-1
    rows = effectiveness_report(parse_word("R L^-1 L^-1"))
    assert [row.total for row in rows] == [1, 2, 1, 2]
    assert [str(row.ratio) for row in rows[1:]] == ["2/1", "1/2", "2/1"]


def test_effectiveness_report_totals_match_each_prefix_number():
    rng = random.Random(24)
    for _ in range(300):
        word = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 25)))
        rows = effectiveness_report(word)
        expected = []
        for k in range(len(word) + 1):
            q = taffy_number(word[:k])
            expected.append(abs(q.num) + q.den)
        assert [row.total for row in rows] == expected
