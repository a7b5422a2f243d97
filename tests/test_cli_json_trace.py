"""`eval --json --trace`: the JSON document wins and `--trace` is ignored.

The flags are compared as whole in-process invocations, exit code and
both streams, so the document, its bytes and its refusals are those of
`eval --json` alone.
"""

import json

import pytest

from pullcalc.cli import run
from pullcalc.treewalk import TRACE_CAP

LONG = "R^%d L R^-%d R" % (TRACE_CAP, TRACE_CAP)  # refused: reduced, still 2 * TRACE_CAP + 2 turns
CANCELLING = "L R^%d R^-%d R" % (TRACE_CAP, TRACE_CAP)  # reduces to "L R"


@pytest.mark.parametrize("word", ["e", "R L", "R^2 L R^-1", "r L^3 R R", CANCELLING, LONG])
def test_json_ignores_trace(word):
    assert run(["eval", word, "--json", "--trace"]) == run(["eval", word, "--json"])
    assert run(["eval", word, "--trace", "--json"]) == run(["eval", word, "--json"])


def test_a_word_past_the_trace_cap_that_reduces_short_answers_as_json():
    traced = run(["eval", CANCELLING, "--trace"])
    assert traced.exit_code == 1 and traced.stdout == ""
    both = run(["eval", CANCELLING, "--json", "--trace"])
    assert both.exit_code == 0 and both.stderr == ""
    doc = json.loads(both.stdout)
    assert doc["reduced"] == "L R"
    assert doc["taffy_number"] == {"num": 1, "den": 1}
