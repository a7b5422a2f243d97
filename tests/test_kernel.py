import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pullcalc import kernel


def test_fold_turns_empty_word_returns_the_seed():
    assert kernel.fold_turns(()) == (0, 1)
    assert kernel.fold_turns((), 5, 7) == (5, 7)


def test_bad_turn_codes_are_rejected():
    with pytest.raises(ValueError):
        kernel.fold_turns((0, 4))


def per_turn_fold(word, num=0, den=1):
    """Reference: the four rules one turn at a time, normalized after each."""
    a, b = num, den
    for t in word:
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
        if b < 0:
            a, b = -a, -b
        elif b == 0:
            a = 1
    return a, b


# Words as blocks of equal turns, 1 to 10**4 turns each, so that a
# Word of them has long runs to fold a block at a time.
block_words = st.lists(
    st.tuples(st.integers(0, 3), st.one_of(st.integers(1, 5), st.integers(1, 10**4))),
    max_size=8,
).map(lambda blocks: tuple(t for t, k in blocks for _ in range(k)))

coprime_seeds = st.one_of(
    st.sampled_from([(0, 1), (1, 0), (-1, 0), (1, 1), (-1, 1)]),
    st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)).filter(
        lambda p: math.gcd(*p) == 1
    ),
)


@settings(max_examples=150, deadline=None)
@given(block_words, coprime_seeds)
def test_block_fold_equals_the_per_turn_fold(word, seed):
    expected = per_turn_fold(word, *seed)
    assert kernel.fold_turns(word, *seed) == expected
    assert kernel.fold_turns(kernel.Word(word), *seed) == expected


@pytest.mark.parametrize("n", [1, 48, 300])
def test_block_fold_at_fixed_lengths(n):
    rng = random.Random(n)
    for _ in range(300):
        word = tuple(rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n))
        seed = rng.choice([(0, 1), (1, 0), (-1, 0), (3, -7), (-5, 2)])
        expected = per_turn_fold(word, *seed)
        assert kernel.fold_turns(word, *seed) == expected
        assert kernel.fold_turns(kernel.Word(word), *seed) == expected


def test_blocks_are_one_per_turn_or_a_words_runs():
    word = (0,) * 50 + (3, 3, 1)
    assert list(kernel._blocks(word)) == [(t, 1) for t in word]
    assert list(kernel._blocks(kernel.Word(word))) == [(0, 50), (3, 2), (1, 1)]


def test_a_bad_code_in_a_long_word_is_rejected():
    with pytest.raises(ValueError, match="bad turn code 4"):
        kernel.fold_turns((0,) * 100 + (4,))
