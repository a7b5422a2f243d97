"""Every two-chunk text through the spelling table, against the independent grammar.

Almost every parsed text is read by looking its chunks up in the
alphabet's spelling table (``words._spelling``); the differentials in
``test_word_runs`` join their tokens with no separator, so they seldom
reach that path, and ``test_spelling_table`` checks the table against
``words._scan``, the same grammar.  Here ``tokenize`` meets
``reference_tokenize``, the expanding copy of the grammar kept in
``test_word_runs``, on every text of two chunks joined by each kind of
whitespace, in both alphabets.  The chunks are every key of the table
(each block spelling, ``e`` and the lowercase letters) and chunks
outside it, which send the text to the scanner or are refused.
"""

from itertools import product

import pytest

from pullcalc.kernel import Word
from pullcalc.words import L, R, TURN_LETTERS, TWIST_LETTERS, WordSyntaxError, _spelling, tokenize
from test_word_runs import WHITESPACE, reference_tokenize

# outside the table: a long block, two letters in one chunk, a non-ASCII
# digit, a zero exponent, a missing exponent, a stray caret, a stray
# letter, a signed exponent and leading zeros; all in the turn alphabet
OUTSIDE = ["R^17", "RL", "R^٣", "R^0", "R^", "^", "x", "R^+3", "R^0003"]


def blocks_or_refusal(read, text):
    """The word ``read`` gives for ``text`` as its blocks, or its refusal and offset."""
    try:
        word = read(text)
    except WordSyntaxError as exc:
        return str(exc), exc.offset
    return word.codes, word.counts


@pytest.mark.parametrize("letters", [TURN_LETTERS, TWIST_LETTERS], ids=["turns", "twists"])
def test_two_chunk_texts_agree_with_the_reference(letters):
    table_keys = sorted(_spelling(letters).read)
    assert len(table_keys) == 67  # 64 block spellings, e and the two lowercase letters
    chunks = table_keys + [c.translate(str.maketrans("RL", "".join(letters))) for c in OUTSIDE]
    codes = dict(zip(letters, (R, L)))

    def reference(text):
        return Word(reference_tokenize(text, codes, 40)[1])

    def ours(text):
        return tokenize(text, letters)

    # the reference skips every character that isspace(), so one
    # separator stands for all of them on its side
    assert all(ws.isspace() for ws in WHITESPACE)
    for a, b in product(chunks, repeat=2):
        want = blocks_or_refusal(reference, a + " " + b)
        texts = [a + ws + b for ws in WHITESPACE]
        assert [blocks_or_refusal(ours, text) for text in texts] == [want] * len(texts), (a, b)
