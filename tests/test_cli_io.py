"""The CLI's I/O promises: ``-o`` gets the stdout bytes and nothing is
written for a refused command, a fraction-or-word argument names one
value however it is written, and leading zeros of any script are not
digits of a fraction or an exponent."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from pullcalc.cli import run
from pullcalc.rationals import digit_limit

SRC = Path(__file__).resolve().parent.parent / "src"

# the zero of each of these scripts; the digit d is the zero's code point plus d
ZEROS = pytest.mark.parametrize("zero", ["٠", "０"], ids=["arabic-indic", "fullwidth"])


def digit(zero: str, d: int) -> str:
    return chr(ord(zero) + d)


def shell(argv) -> subprocess.CompletedProcess:
    """``pullcalc argv`` in a fresh interpreter, its streams as bytes."""
    code = "import sys; sys.path.insert(0, %r); from pullcalc.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code % str(SRC), *argv], capture_output=True)


# --- -o -------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv", [["render-taffy", "-1/3"], ["render-taffy", "R L R"], ["render-tangle", "V^2 H v"]]
)
def test_the_output_file_gets_the_stdout_bytes(tmp_path, argv):
    shown = shell(argv)
    assert (shown.returncode, shown.stderr) == (0, b"")
    target = tmp_path / "out.svg"
    assert run(argv + ["-o", str(target)]) == (0, "", "")
    written = target.read_bytes()
    assert written == shown.stdout
    assert written.endswith(b"</svg>\n") and not written.endswith(b"\n\n")


@pytest.mark.parametrize("command", [["render-taffy", "1/2"], ["render-tangle", "V H"]])
@pytest.mark.parametrize("where", ["a directory", "a missing parent"])
def test_an_unwritable_output_is_refused_in_one_line(tmp_path, command, where):
    target = tmp_path if where == "a directory" else tmp_path / "missing" / "out.svg"
    code, out, err = run(command + ["-o", str(target)])
    assert (code, out) == (1, "")
    assert err.startswith("pullcalc: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [["render-taffy", "1/10000"], ["render-taffy", "R X"], ["render-tangle", "V^10001"], ["render-tangle", "Q"]],
)
def test_a_refused_render_creates_no_file(tmp_path, argv):
    target = tmp_path / "out.svg"
    code, out, err = run(argv + ["-o", str(target)])
    assert (code, out) == (1, "")
    assert err.startswith("pullcalc: ")
    assert not target.exists()


# --- one reading of a fraction or a word -------------------------------------

@pytest.mark.parametrize(
    "word, fraction",
    [("R L R", "3/2"), ("R^2 L R^-1", "-1/3"), ("r L^-1 r", "-3/2"), ("R L^-1", "1/0"), ("e", "0/1")],
)
def test_render_taffy_of_a_word_draws_its_fraction(word, fraction):
    assert run(["eval", word]) == (0, fraction + "\n", "")
    drawn = run(["render-taffy", word])
    assert drawn.exit_code == 0
    assert drawn == run(["render-taffy", fraction])


@pytest.mark.parametrize("word", ["L R L", "R^2 L R^-1", "r L^-1 r", "R L^-1", "e"])
def test_cf_of_a_word_has_the_value_eval_gives(word):
    cf = json.loads(run(["cf", word, "--json"]).stdout)
    assert cf["value"] == json.loads(run(["eval", word, "--json"]).stdout)["taffy_number"]


def test_cf_of_a_word_keeps_the_word_s_own_coefficients():
    half = {"num": 1, "den": 2}
    assert json.loads(run(["cf", "L R L", "--json"]).stdout) == {"coefficients": [0, 1, 1, 1, 0], "value": half}
    assert json.loads(run(["cf", "1/2", "--json"]).stdout) == {"coefficients": [0, 2], "value": half}


# --- leading zeros --------------------------------------------------------------

@ZEROS
@pytest.mark.parametrize("command", ["invert", "cf", "children", "render-taffy"])
def test_leading_zeros_of_any_script_are_not_digits_of_a_fraction(command, zero):
    limit = digit_limit()
    one, seven = digit(zero, 1), digit(zero, 7)
    assert run([command, zero * (limit + 1) + one]) == run([command, "1"])
    assert run([command, "-" + zero * (limit + 1) + one + "/" + zero * (limit + 1) + seven]) == run(
        [command, "-1/7"]
    )
    # a value too long stays refused, whatever its digits
    for text, part in ((zero + one * (limit + 1), "numerator"), ("-1/" + seven * (limit + 1), "denominator")):
        message = "pullcalc: not a fraction: %s longer than %d digits\n" % (part, limit)
        assert run([command, text]) == (1, "", message)


@ZEROS
def test_leading_zeros_of_any_script_are_not_digits_of_an_exponent(zero):
    limit = digit_limit()
    assert run(["eval", "R^" + zero * (limit + 100) + digit(zero, 1)]) == (0, "1/1\n", "")
    assert run(["eval", "L^-" + (zero + "0") * limit + digit(zero, 2)]) == run(["eval", "L^-2"])
    refused = run(["eval", "R^" + zero * 10 + digit(zero, 1) * (limit + 1)])
    assert refused == (1, "", "pullcalc: exponent longer than %d digits at offset 2\n" % limit)
