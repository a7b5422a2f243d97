"""Every command line gets an answer or a one-line refusal.

Generated argv cover every subcommand with words, fractions and sizes,
some of them malformed, and the optional flags each subcommand takes.
Whatever the input, the exit code is 0, 1 or 2, no traceback is
written, and a domain error (exit 1) is one line.  Exponents are
numbers, so words also carry exponents of up to 30 digits and a few of
4,000: a word of more turns than ``sys.maxsize`` must be answered from
its blocks or refused on its turn count, never measured with ``len()``
or iterated (either raises OverflowError, which would escape as a
traceback).  Other sizes stay small enough that no run is slow: tree
rows stop at 14, taffy diagrams stay small and the brute-force scan is
left out.
"""

import sys
import tracemalloc
from itertools import chain, count, repeat

import pytest
from hypothesis import given, settings, strategies as st

from pullcalc.analysis import alternating_word
from pullcalc.cli import run
from pullcalc.kernel import Word
from pullcalc.treewalk import number_trace
from pullcalc.words import L, R, invert_word, spell_blocks

JUNK = ["e", "Q", "^", "R^", "^-", "0", "-", "R^x", "L^+"]

# Exponents of 1 to 30 digits, each length as likely as the others (a
# plain integer range would draw mostly small ones), and in one branch
# of three, so that they are few, exponents of 4,000 digits.
up_to_30_digits = st.builds(
    "{}{}".format,
    st.sampled_from(["", "-"]),
    st.integers(1, 30).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
)
huge_exponents = st.one_of(
    up_to_30_digits, up_to_30_digits, st.sampled_from(["7" * 4000, "-1" + "0" * 3999])
)


def word_texts(letters, size=8, power=9):
    """Texts of up to ``size`` tokens, letters with exponents of at most
    ``power`` or huge ones, and in half of the texts some junk among
    them."""
    letter = st.sampled_from(letters + letters.lower())
    exponent = st.one_of(
        st.just(""), st.integers(-power, power).map("^{}".format), huge_exponents.map("^{}".format)
    )
    token = st.builds("{}{}".format, letter, exponent)
    junky = st.one_of(token, st.sampled_from(JUNK))
    return st.one_of(st.lists(token, max_size=size), st.lists(junky, min_size=1, max_size=size)).map(" ".join)


turn_words = word_texts("RL")
twist_words = word_texts("VH")
# A taffy diagram near its 10,000-layer cap takes a second to verify;
# these words stay under 200 layers unless a huge exponent takes them
# past the cap, where they are refused before any drawing.
small_turn_words = word_texts("RL", size=4, power=3)
fractions = st.one_of(
    st.builds("{}/{}".format, st.integers(-300, 300), st.integers(0, 300)),
    st.integers(-300, 300).map(str),
    st.sampled_from(["0/0", "1/-2", "x", "", "3/", "/4", "1.5"]),
)
values = st.one_of(fractions, turn_words)
json_flag = st.sampled_from([[], ["--json"]])


def command(name, *parts):
    """``name`` followed by one draw from each part, flattened."""
    return st.tuples(*parts).map(
        lambda drawn: [name] + [a for part in drawn for a in (part if isinstance(part, list) else [part])]
    )


argvs = st.one_of(
    command("eval", turn_words, json_flag, st.sampled_from([[], ["--trace"]])),
    command("canon", turn_words, json_flag),
    command("equiv", turn_words, turn_words, json_flag),
    command("invert", fractions, st.sampled_from([[], ["--mode", "slow"], ["--mode", "fast"]]), json_flag),
    command("layers", turn_words, json_flag),
    command("cf", values, json_flag),
    command("tree", st.one_of(st.integers(-2, 14).map(str), st.just("x")), json_flag),
    command("children", fractions, json_flag),
    command("maxlayers", st.one_of(st.integers(-3, 60).map(str), st.sampled_from(["20001", "x"])), json_flag),
    command("report", turn_words, json_flag),
    command("tangle-eval", twist_words, json_flag),
    command("render-taffy", st.one_of(fractions, small_turn_words)),
    command("render-tangle", twist_words),
)


@settings(max_examples=250, deadline=None)
@given(argvs)
def test_every_command_line_answers_or_refuses_in_one_line(argv):
    result = run(argv)
    assert result.exit_code in (0, 1, 2), argv
    assert "Traceback" not in result.stderr, argv
    if result.exit_code == 0:
        assert result.stderr == "" and result.stdout.endswith("\n"), argv
    elif result.exit_code == 1:
        assert result.stdout == "", argv
        assert result.stderr.startswith("pullcalc: ") and result.stderr.count("\n") == 1, argv


def test_a_23_digit_exponent_has_its_answer():
    k = 10**23
    assert run(["eval", "R^%d" % k]) == (0, "%d/1\n" % k, "")
    assert run(["canon", "R^%d" % k]) == (0, "R^%d\n" % k, "")
    assert run(["cf", "R^%d" % k]) == (0, "[%d]\n" % k, "")
    assert run(["layers", "L^%d" % k]) == (0, "left 1, right 0\n", "")
    assert run(["tangle-eval", "V^%d" % k, "--json"]).stdout == (
        '{"word": "V^%d", "crossings": %d, "tangle_number": {"num": %d, "den": 1}}\n' % (k, k, k)
    )
    assert run(["invert", str(k)]) == (0, "R^%d\n" % k, "")


# Under a 640-digit limit, the size of a trace entry that each command
# writes must stay under 10**640.
BOUND = 10**640
SIZES = {"eval": lambda a, b: max(abs(a), b), "report": lambda a, b: abs(a) + b}


def climbs_and_undoes():
    """Words that climb to just under or just over BOUND and then undo
    themselves, so that every answer ends at 0/1: alternating pulls,
    and alternating pulls with a run of R or L at the top whose entries
    reach BOUND inside the run."""
    trace = [(q.num, q.den) for q in number_trace(alternating_word(3100))]
    first = {name: next(k for k, pair in enumerate(trace) if size(*pair) >= BOUND) for name, size in SIZES.items()}
    climbs = [alternating_word(n) for n in (first["report"] - 1, first["report"], first["eval"])]
    for name, turn in (("eval", R), ("report", L)):
        m = first[name] - 10
        a, b = trace[m]
        entry = (lambda j: (a + j * b, b)) if turn == R else (lambda j: (a, b + j * a))
        j = next(j for j in count(1) if SIZES[name](*entry(j)) >= BOUND)
        climbs += [Word(chain(alternating_word(m), repeat(turn, k))) for k in (j - 1, j + 40)]
    return [Word(chain(w, invert_word(w))) for w in climbs]


def test_a_trace_is_refused_exactly_when_an_entry_is_too_long_to_write():
    """``eval --trace`` refuses when some entry of ``number_trace`` has
    ``max(|num|, den)`` of at least BOUND, ``report`` when one has
    ``|num| + den`` that large, and both answer otherwise."""
    refusals = []
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for word in climbs_and_undoes():
            text = spell_blocks(word.codes, word.counts)
            trace = number_trace(word)
            refused = []
            for name, argv in (("eval", ["eval", text, "--trace"]), ("report", ["report", text])):
                result = run(argv)
                if any(SIZES[name](q.num, q.den) >= BOUND for q in trace):
                    assert result == (1, "", "pullcalc: answer longer than 640 digits\n"), (name, word.counts)
                else:
                    assert (result.exit_code, result.stderr) == (0, ""), (name, word.counts)
                    assert result.stdout.count("\n") == len(trace)
                refused.append(result.exit_code == 1)
            refusals.append(tuple(refused))
    finally:
        sys.set_int_max_str_digits(limit)
    # (eval, report) per word: each command answers and refuses, and two
    # words are written by eval but not by report
    assert refusals == [
        (False, False), (False, True), (True, True),
        (False, True), (True, True),
        (False, False), (True, True),
    ]


@pytest.mark.parametrize("command", [["eval", "--trace"], ["report"]])
def test_a_trace_that_climbs_past_the_digit_limit_and_back_is_refused_at_once(command):
    # Under Python's least digit limit, 640, 6,000 alternating turns
    # climb past it and their inverse comes back to 0/1: the prefix walk
    # refuses the word at the first entry too long to write, with no
    # trace built (the whole trace would take about 4.5 MB).
    text = "R L " * 3000 + "l r " * 3000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    tracemalloc.start()
    try:
        result = run(command[:1] + [text] + command[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.set_int_max_str_digits(limit)
    assert result == (1, "", "pullcalc: answer longer than 640 digits\n")
    assert peak < 2**20
