"""Every command line gets an answer or a one-line refusal.

Generated argv cover every subcommand with bounded words, fractions
and sizes, some of them malformed, and the optional flags each
subcommand takes.  Whatever the input, the exit code is 0, 1 or 2, no
traceback is written, and a domain error (exit 1) is one line.  Sizes
stay small enough that no run is slow: tree rows stop at 14, taffy
diagrams stay small and the brute-force scan is left out.
"""

from hypothesis import given, settings, strategies as st

from pullcalc.cli import run

JUNK = ["e", "Q", "^", "R^", "^-", "0", "-", "R^x", "L^+"]


def word_texts(letters, size=8, power=9):
    """Texts of up to ``size`` tokens, letters with exponents of at most
    ``power``, and in half of the texts some junk among them."""
    letter = st.sampled_from(letters + letters.lower())
    exponent = st.one_of(st.just(""), st.integers(-power, power).map("^{}".format))
    token = st.builds("{}{}".format, letter, exponent)
    junky = st.one_of(token, st.sampled_from(JUNK))
    return st.one_of(st.lists(token, max_size=size), st.lists(junky, min_size=1, max_size=size)).map(" ".join)


turn_words = word_texts("RL")
twist_words = word_texts("VH")
# A taffy diagram near its 10,000-layer cap takes a second to verify;
# these words stay under 200 layers.
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
