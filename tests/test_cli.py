import json
import sys
import time

import pytest

from pullcalc.analysis import fibonacci
from pullcalc.cli import main, run as run_inproc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- evaluation ----------------------------------------------------------------

def test_eval_prints_the_fraction(capsys):
    code, out, err = run(capsys, "eval", "R^2 L R^-1")
    assert code == 0
    assert out.strip() == "-1/3"
    assert err == ""


def test_eval_trace_walks_the_fractions(capsys):
    _, out, _ = run(capsys, "eval", "R^2 L R^-1", "--trace")
    lines = out.splitlines()
    assert lines[0].endswith("0/1")
    assert len(lines) == 5
    assert lines[-1].endswith("-1/3")
    assert "2/3" in lines[3]


def test_eval_json_schema(capsys):
    _, out, _ = run(capsys, "eval", "R L R L R L", "--json")
    doc = json.loads(out)
    assert set(doc) == {
        "word",
        "reduced",
        "runs",
        "taffy_number",
        "layers",
        "continued_fraction",
        "canonical",
    }
    assert doc["taffy_number"] == {"num": 8, "den": 13}
    assert doc["layers"] == {"left": 13, "right": 8}
    assert doc["word"] == "R L R L R L"


def test_layers_output(capsys):
    code, out, _ = run(capsys, "layers", "R L R L R L")
    assert code == 0
    assert out.strip() == "left 13, right 8"


# --- canonical forms and equivalence ----------------------------------------------

def test_canon_rewrites_the_word(capsys):
    _, out, _ = run(capsys, "canon", "R R L^-1")
    assert out.strip() == "R^-2"


def test_invert_finds_the_path(capsys):
    code, out, _ = run(capsys, "invert", "9/7")
    assert code == 0
    assert out.strip() == "R^2 L^3 R"


def test_invert_modes_agree(capsys):
    _, fast, _ = run(capsys, "invert", "-7/9", "--mode", "fast")
    _, slow, _ = run(capsys, "invert", "-7/9", "--mode", "slow")
    assert fast == slow


def test_equiv_yes_and_no(capsys):
    code, out, _ = run(capsys, "equiv", "R L R", "R R R^-1 L R")
    assert code == 0 and out.strip() == "equivalent"
    code, out, _ = run(capsys, "equiv", "R L R", "R L")
    assert code == 0 and out.strip() == "not equivalent"


def test_cli_round_trip(capsys):
    for word in ("R^2 L R^-1", "L^-1 R L", "e", "R L^-1"):
        _, value, _ = run(capsys, "eval", word)
        _, inverted, _ = run(capsys, "invert", value.strip())
        _, canonical, _ = run(capsys, "canon", word)
        assert inverted == canonical


# --- continued fractions and the tree ----------------------------------------------

def test_cf_of_a_fraction(capsys):
    _, out, _ = run(capsys, "cf", "9/7")
    assert out.strip() == "[1; 3, 2]"


def test_cf_of_a_word(capsys):
    _, out, _ = run(capsys, "cf", "L R L")
    assert out.strip() == "[0; 1, 1, 1, 0]"


@pytest.mark.parametrize(
    "value, message",
    [
        ("-3/4", "negative fractions have no canonical expansion here"),
        ("1/0", "1/0 has no expansion"),
    ],
)
def test_cf_reports_why_a_fraction_has_no_expansion(capsys, value, message):
    code, out, err = run(capsys, "cf", value)
    assert code == 1
    assert out == ""
    assert message in err


def test_tree_row(capsys):
    _, out, _ = run(capsys, "tree", "3")
    assert out.split() == ["1/3", "3/2", "2/3", "3/1"]


def test_tree_depth_cap(capsys):
    code, _, err = run(capsys, "tree", "26")
    assert code == 1
    assert "pullcalc:" in err


def test_children_listing(capsys):
    _, out, _ = run(capsys, "children", "1/1", "--json")
    doc = json.loads(out)
    assert doc == {
        "L": {"num": 1, "den": 2},
        "R": {"num": 2, "den": 1},
        "L^-1": {"num": 1, "den": 0},
        "R^-1": {"num": 0, "den": 1},
    }


# --- analysis ------------------------------------------------------------------

def test_maxlayers_closed_form(capsys):
    code, out, _ = run(capsys, "maxlayers", "6")
    assert code == 0
    assert "21" in out
    assert "R L R L R L" in out


def test_maxlayers_brute(capsys):
    _, out, _ = run(capsys, "maxlayers", "6", "--brute", "--json")
    doc = json.loads(out)
    assert doc["total"] == 21
    assert doc["witness"] == "R R L R L R"


@pytest.mark.parametrize("length", ["20001", "100000000"])
def test_maxlayers_closed_form_is_capped(length):
    start = time.perf_counter()
    result = run_inproc(["maxlayers", length])
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", "pullcalc: the closed form is capped at 20000 turns\n")


@pytest.mark.parametrize("value", ["1/10000", "R^100000"])
def test_render_taffy_is_capped(value):
    start = time.perf_counter()
    result = run_inproc(["render-taffy", value])
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", "pullcalc: taffy diagrams are capped at 10000 layers\n")


@pytest.mark.parametrize("argv", [["eval", "R^65537", "--trace"], ["report", "R^200000"], ["report", "R^16777216"]])
def test_per_turn_output_is_capped(argv):
    start = time.perf_counter()
    result = run_inproc(argv)
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", "pullcalc: traces are capped at 65536 turns\n")


@pytest.mark.parametrize(
    "argv", [["eval"], ["eval", "--json"], ["layers"], ["report"], ["eval", "--trace"]]
)
def test_an_answer_too_long_to_write_is_refused_in_one_line(argv):
    # 21,000 alternating turns: a ratio of Fibonacci numbers of about 4,400 digits
    start = time.perf_counter()
    result = run_inproc(argv[:1] + ["R L " * 10500] + argv[1:])
    assert time.perf_counter() - start < 1.0
    limit = sys.get_int_max_str_digits()
    assert result == (1, "", "pullcalc: answer longer than %d digits\n" % limit)


def test_the_reduced_word_under_json_is_capped():
    start = time.perf_counter()
    result = run_inproc(["eval", "R^65537", "--json"])
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", "pullcalc: reduced words are capped at 65536 turns\n")
    result = run_inproc(["eval", "R^65536", "--json"])
    assert result.exit_code == 0 and result.stderr == ""
    assert json.loads(result.stdout)["reduced"] == " ".join(["R"] * 65536)


@pytest.mark.parametrize("word", ["V^10001", "V^20000", "V^16777216"])
def test_render_tangle_is_capped(word):
    start = time.perf_counter()
    result = run_inproc(["render-tangle", word])
    assert time.perf_counter() - start < 1.0
    assert result == (1, "", "pullcalc: tangle diagrams are capped at 10000 twists\n")


@pytest.mark.parametrize(
    "argv, out",
    [
        (["tangle-eval", "V^16777216"], "16777216/1\n"),
        (["eval", "R^16777216"], "16777216/1\n"),
        (["canon", "R^8388608 L^-3 R^8388605"], "R^8388607 L R L R^8388604\n"),
        (["layers", "L^16777216"], "left 1, right 0\n"),
        (["cf", "R^16777216"], "[16777216]\n"),
    ],
)
def test_a_word_of_the_whole_budget_answers_at_once(argv, out):
    start = time.perf_counter()
    result = run_inproc(argv)
    assert time.perf_counter() - start < 1.0
    assert result == (0, out, "")


def test_maxlayers_answers_at_the_cap():
    result = run_inproc(["maxlayers", "20000"])
    assert result.exit_code == 0
    assert result.stdout.startswith("total %d\nwitness R L R L " % fibonacci(20002))


def test_report_rows(capsys):
    _, out, _ = run(capsys, "report", "R L R L R L", "--json")
    rows = json.loads(out)
    assert [row["total"] for row in rows] == [1, 2, 3, 5, 8, 13, 21]
    assert rows[0]["ratio"] is None
    assert rows[-1]["ratio"] == {"num": 21, "den": 13}


def test_tangle_eval(capsys):
    code, out, _ = run(capsys, "tangle-eval", "V^2 H V^-1")
    assert code == 0
    assert out.strip() == "-1/3"


# --- rendering ------------------------------------------------------------------

def test_render_taffy_to_file(tmp_path, capsys):
    target = tmp_path / "pull.svg"
    code, out, _ = run(capsys, "render-taffy", "-1/3", "-o", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_render_taffy_accepts_a_word(capsys):
    code, out, _ = run(capsys, "render-taffy", "R L R")
    assert code == 0
    assert out.startswith("<svg")


def test_render_tangle_to_stdout(capsys):
    code, out, _ = run(capsys, "render-tangle", "V H V")
    assert code == 0
    assert out.startswith("<svg")
    assert out.count('class="crossing') == 3


# --- failure modes --------------------------------------------------------------

def test_bad_word_is_a_domain_error(capsys):
    code, out, err = run(capsys, "eval", "R X L")
    assert code == 1
    assert out == ""
    assert "pullcalc:" in err


def test_bad_fraction_is_a_domain_error(capsys):
    code, _, err = run(capsys, "invert", "0/0")
    assert code == 1
    assert "pullcalc:" in err


def test_any_nonzero_over_zero_is_infinity(capsys):
    code, out, _ = run(capsys, "invert", "3/0")
    assert code == 0
    assert out.strip() == "R L^-1"


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_unknown_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "R", "--frobnicate"])
    assert info.value.code == 2


# --- the in-process runner --------------------------------------------------------

def test_run_captures_stdout():
    result = run_inproc(["eval", "R^2 L R^-1"])
    assert result.exit_code == 0
    assert "-1/3" in result.stdout
    assert result.stderr == ""
    assert run_inproc(["invert", "9/7"]).stdout.strip() == "R^2 L^3 R"
    assert "21" in run_inproc(["maxlayers", "6"]).stdout


def test_run_boxes_usage_errors():
    result = run_inproc(["no-such-command"])
    assert result.exit_code == 2
    assert "invalid choice" in result.stderr


def test_run_boxes_domain_errors():
    result = run_inproc(["canon", "Q Q"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "pullcalc:" in result.stderr


# --- every JSON document, whole -----------------------------------------------------

JSON_DOCUMENTS = [
    (
        ["canon", "R R L^-1"],
        {
            "word": "R R L^-1",
            "canonical": "R^-2",
            "tag": "reverse",
            "taffy_number": {"num": -2, "den": 1},
        },
    ),
    (
        ["equiv", "R L R", "R R R^-1 L R"],
        {"equivalent": True, "values": [{"num": 3, "den": 2}, {"num": 3, "den": 2}]},
    ),
    (
        ["equiv", "R L R", "R L"],
        {"equivalent": False, "values": [{"num": 3, "den": 2}, {"num": 1, "den": 2}]},
    ),
    (
        ["invert", "9/7"],
        {"fraction": {"num": 9, "den": 7}, "canonical": "R^2 L^3 R", "tag": "forward"},
    ),
    (
        ["invert", "-7/9", "--mode", "slow"],
        {
            "fraction": {"num": -7, "den": 9},
            "canonical": "R^-1 L^-1 R^-3 L^-1",
            "tag": "reverse",
        },
    ),
    (["layers", "R L R L R L"], {"left": 13, "right": 8}),
    (["cf", "9/7"], {"coefficients": [1, 3, 2], "value": {"num": 9, "den": 7}}),
    (["cf", "L R L"], {"coefficients": [0, 1, 1, 1, 0], "value": {"num": 1, "den": 2}}),
    (["tree", "3"], {"depth": 3, "entries": ["1/3", "3/2", "2/3", "3/1"]}),
    (
        ["tangle-eval", "V^2 H V^-1"],
        {"word": "V^2 H V^-1", "crossings": 4, "tangle_number": {"num": -1, "den": 3}},
    ),
]


@pytest.mark.parametrize(
    "argv, expected", JSON_DOCUMENTS, ids=[" ".join(argv) for argv, _ in JSON_DOCUMENTS]
)
def test_json_document(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == ""
    assert out.endswith("}\n") and out.count("\n") == 1
    assert json.loads(out) == expected


# --- refusals that name their cause -------------------------------------------------

@pytest.mark.parametrize("command", ["render-taffy", "cf"])
def test_a_bad_fraction_is_reported_as_a_fraction(command):
    result = run_inproc([command, "0/0"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "pullcalc: not a fraction: 0/0\n"


@pytest.mark.parametrize("command", ["invert", "cf", "children", "render-taffy"])
def test_a_fraction_too_long_to_read_is_reported_as_a_fraction(command):
    limit = sys.get_int_max_str_digits()
    for text, part in (("1" * (limit + 1), "numerator"), ("-1/" + "7" * (limit + 1), "denominator")):
        result = run_inproc([command, text])
        message = "pullcalc: not a fraction: %s longer than %d digits\n" % (part, limit)
        assert result == (1, "", message)
    # leading zeros are not digits of the value
    assert run_inproc([command, "0" * (limit + 1) + "1"]) == run_inproc([command, "1"])


@pytest.mark.parametrize("extra", [[], ["--mode", "slow"]])
def test_invert_refuses_a_canonical_word_past_the_turn_budget(extra):
    # Past the 2**24-turn budget both modes once shared, fast mode
    # answers and slow mode, one step per turn, refuses at its own cap.
    expected = {
        (): (0, "R L^999999999\n", ""),
        ("--mode", "slow"): (1, "", "pullcalc: slow canonical words are capped at 16777216 turns\n"),
    }
    assert run_inproc(["invert", "1/1000000000"] + extra) == expected[tuple(extra)]
