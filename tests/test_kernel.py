import pytest

from pullcalc import kernel


def test_fold_turns_empty_word_returns_the_seed():
    assert kernel.fold_turns(()) == (0, 1)
    assert kernel.fold_turns((), 5, 7) == (5, 7)


def test_bad_turn_codes_are_rejected():
    with pytest.raises(ValueError):
        kernel.fold_turns((0, 4))
