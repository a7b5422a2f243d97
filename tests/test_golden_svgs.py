"""Byte-for-byte comparison against the checked-in SVG files.

The renderers carry no randomness and format every coordinate through
one fixed-width helper, so regenerating a diagram must reproduce the
stored file exactly.  A mismatch means the drawing changed; regenerate
the files deliberately if that was the point.
"""

from pathlib import Path

import pytest

from pullcalc import (
    build_taffy,
    build_tangle,
    make,
    parse_tangle,
    render_taffy_svg,
    render_tangle_svg,
)

GOLDEN = Path(__file__).parent / "golden"

TAFFY_CASES = [
    ("taffy_0_1.svg", make(0, 1)),
    ("taffy_3_2.svg", make(3, 2)),
    ("taffy_8_13.svg", make(8, 13)),
    ("taffy_m1_3.svg", make(-1, 3)),
    ("taffy_m3_2.svg", make(-3, 2)),  # negative and right-heavy
]

TANGLE_CASES = [
    ("tangle_0_1.svg", ""),
    ("tangle_m1_3.svg", "V^2 H V^-1"),
    ("tangle_8_13.svg", "V H V H V H"),
]


@pytest.mark.parametrize("name,q", TAFFY_CASES)
def test_taffy_svg_matches_golden(name, q):
    fresh = render_taffy_svg(build_taffy(q))
    assert fresh.encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,text", TANGLE_CASES)
def test_tangle_svg_matches_golden(name, text):
    fresh = render_tangle_svg(build_tangle(parse_tangle(text)))
    assert fresh.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_goldens_are_ascii():
    for path in sorted(GOLDEN.glob("*.svg")):
        path.read_bytes().decode("ascii")
