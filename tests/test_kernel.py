import itertools
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


# --- the prefix walk -----------------------------------------------------------

PREFIX_SEEDS = [(0, 1), (1, 0), (-1, 0), (3, -7)]


def test_every_short_walk_yields_the_fold_of_each_prefix():
    """Every word of at most 7 turns over the four codes, from each seed.

    Each walk ends on its word's fold and, before that, repeats the walk
    of its word less the last turn, so by induction on the length every
    pair it yields is the fold of that prefix.
    """
    fold = kernel.fold_turns
    walks = 0
    for seed in PREFIX_SEEDS:
        shorter = {(): [seed]}
        assert list(kernel.fold_prefixes((), *seed)) == [seed]
        for n in range(1, 8):
            level = {}
            for word in itertools.product(range(4), repeat=n):
                walk = level[word] = list(kernel.fold_prefixes(word, *seed))
                assert walk[-1] == fold(word, *seed)
                assert walk[:-1] == shorter[word[:-1]]
            shorter = level
            walks += len(level)
    assert walks + len(PREFIX_SEEDS) == 87380


def per_turn_prefixes(word, num=0, den=1):
    """Reference: the seed as given, then ``per_turn_fold`` one turn on."""
    pairs = [(num, den)]
    for t in word:
        pairs.append(per_turn_fold((t,), *pairs[-1]))
    return pairs


@settings(max_examples=60, deadline=None)
@given(block_words, coprime_seeds)
def test_a_walk_over_long_runs_yields_every_prefix(word, seed):
    expected = per_turn_prefixes(word, *seed)
    assert list(kernel.fold_prefixes(kernel.Word(word), *seed)) == expected
    assert list(kernel.fold_prefixes(word, *seed)) == expected
    assert expected[-1] == kernel.fold_turns(kernel.Word(word), *seed)


def test_the_walk_rejects_a_bad_code_when_it_reaches_it():
    walk = kernel.fold_prefixes((0,) * 100 + (4,))
    assert [next(walk) for _ in range(101)][-1] == (100, 1)
    with pytest.raises(ValueError, match="bad turn code 4"):
        next(walk)
    with pytest.raises(ValueError, match="bad turn code 4"):
        list(kernel.fold_prefixes(kernel.Word((1,) * 50 + (4, 4))))
