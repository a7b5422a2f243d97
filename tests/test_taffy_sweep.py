"""The sweep-line self-contact check against the quadratic scan it replaced.

``reference_no_self_crossings`` is the earlier pair scan, kept here as
the oracle: it tests every pair of pieces whose boxes meet.  The sweep
must reach the same verdict, and ``verify_taffy`` the same report, on
builder diagrams, on hand-built quarter-grid strands, on seeded
mutations of builder diagrams and on the degenerate contacts a sweep
gets wrong most easily.

A longer differential run than the tier-1 one:

    PYTHONPATH=src python tests/test_taffy_sweep.py 20000 5000

checks that many quarter-grid strands and mutations and prints how
many of each the reference finds embedded.  Both are drawn the same on
every run, so the counts repeat.
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings

from pullcalc.diagrams import taffy
from pullcalc.diagrams.geometry import HalfCircle, bounding_box, piece_intersections
from pullcalc.diagrams.taffy import TAFFY_CAP, build_taffy, rotate_taffy, verify_taffy
from pullcalc.rationals import make
from pullcalc.treewalk import LayerCounts
from test_taffy_diagrams import hand_diagram, quarter_grid_diagrams, seg


def reference_no_self_crossings(pieces) -> bool:
    boxes = [bounding_box(p) for p in pieces]
    order = sorted(range(len(pieces)), key=lambda i: boxes[i][0])
    for oi, i in enumerate(order):
        xmax = boxes[i][2]
        for j in order[oi + 1 :]:
            if boxes[j][0] > xmax:
                break
            if boxes[i][1] > boxes[j][3] or boxes[j][1] > boxes[i][3]:
                continue
            a, b = (i, j) if i < j else (j, i)
            count, overlap = piece_intersections(pieces[a], pieces[b])
            if overlap:
                return False
            if count == 0:
                continue
            if b == a + 1 and count == 1 and pieces[a].end == pieces[b].start:
                continue  # only the shared joint
            return False
    return True


def reference_report(diagram, verdict):
    """verify_taffy with the sweep's answer replaced by ``verdict``, the
    quadratic scan's answer on the diagram's grid pieces (found once by
    the caller, not again here)."""
    sweep = taffy._no_self_crossings
    taffy._no_self_crossings = lambda pieces, parts: verdict
    try:
        return verify_taffy(diagram)
    finally:
        taffy._no_self_crossings = sweep


def agreed_verdict(diagram) -> bool:
    """Assert that sweep and scan agree; return the scan's verdict.

    The raw check is compared on the grid pieces as well as through the
    report, since the report skips it when a piece comes near a peg.
    """
    pegs, rho, pieces = taffy._on_grid(diagram)
    want = reference_no_self_crossings(pieces)
    parts = taffy._walk(pegs, rho, pieces)[-1]
    assert taffy._no_self_crossings(pieces, parts) == want, diagram
    assert verify_taffy(diagram) == reference_report(diagram, want), diagram
    return want


def criterion_7_values():
    values = [make(0, 1), make(1, 0)]
    for total in range(2, 56):
        for a in range(1, total):
            if math.gcd(a, total - a) == 1:
                values.append(make(a, total - a))
                values.append(make(-a, total - a))
    return values


# --- seeded mutations of builder diagrams ----------------------------------------

def _quarters(rng, lo, hi):
    """A multiple of 1/4 from lo/4 to hi/4."""
    return rng.randint(lo, hi) / 4


def mutate(diagram, rng):
    """Shift one piece, resize one arc, or insert a chord or a small arc."""
    strand = list(diagram.strand)
    k = rng.randrange(len(strand))
    piece = strand[k]
    kind = rng.randrange(4)
    if kind == 1 and isinstance(piece, HalfCircle):
        radius = piece.radius + rng.choice((-1, 1)) * _quarters(rng, 1, 8)
        if radius > 0:
            strand[k] = piece._replace(radius=radius)
            return diagram._replace(strand=tuple(strand))
        kind = 0
    if kind <= 1:
        dx, dy = _quarters(rng, -8, 8), _quarters(rng, -8, 8)
        if isinstance(piece, HalfCircle):
            cx, cy = piece.center
            strand[k] = piece._replace(center=(cx + dx, cy + dy))
        else:
            (x1, y1), (x2, y2) = piece
            strand[k] = seg(x1 + dx, y1 + dy, x2 + dx, y2 + dy)
        return diagram._replace(strand=tuple(strand))
    x, y = piece.end
    if kind == 2:
        (px, py) = rng.choice(strand).start
        new = seg(x, y, px + _quarters(rng, -4, 4), py + _quarters(rng, -4, 4))
    else:
        r = _quarters(rng, 1, 6)
        new = HalfCircle((x + _quarters(rng, -8, 8), y - r), r, rng.choice(("west", "east")))
    strand.insert(rng.randrange(len(strand) + 1), new)
    return diagram._replace(strand=tuple(strand))


def mutation_verdicts(seed, n):
    """Reference verdicts of n seeded mutations of small builder diagrams."""
    rng = random.Random(seed)
    values = [q for q in criterion_7_values() if abs(q.num) + q.den <= 30]
    verdicts = []
    for _ in range(n):
        verdicts.append(agreed_verdict(mutate(build_taffy(rng.choice(values)), rng)))
    return verdicts


# --- differential tests ----------------------------------------------------------

def test_builder_diagrams_agree_with_the_scan():
    values = criterion_7_values()
    for q in random.Random(9).sample(values, 40) + [make(8, 13), make(-21, 34)]:
        assert agreed_verdict(build_taffy(q))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(quarter_grid_diagrams())
def test_quarter_grid_strands_agree_with_the_scan(d):
    agreed_verdict(d)


def test_mutated_builder_diagrams_agree_with_the_scan():
    verdicts = mutation_verdicts(2026, 150)
    assert 0 < sum(verdicts) < len(verdicts)  # both verdicts are exercised


# --- degenerate contacts ------------------------------------------------------------

DEGENERATE = {
    # two consecutive pieces that both leave their joint eastward, tangent there
    "tangent-start": (
        [seg(7, 2, 4, 2), HalfCircle((4.0, 1.0), 1.0, "east"), seg(4, 0, 7, -1)],
        True,
    ),
    # the same start with a strand coming down through the segment
    "tangent-start-crossed": (
        [
            seg(3, 3, 6, 1.5),
            seg(6, 1.5, 7, 2),
            seg(7, 2, 4, 2),
            HalfCircle((4.0, 1.0), 1.0, "east"),
            seg(4, 0, 7, -1),
        ],
        False,
    ),
    "fanned-start": ([seg(7, 1, 4, 2), seg(4, 2, 7, 3)], True),
    "vertical-from-joint": ([seg(2, 1, 5, 1), seg(5, 1, 5, 4), seg(5, 4, 6, 4)], True),
    "vertical-from-joint-crossed": (
        [seg(2, 1, 5, 1), seg(5, 1, 5, 4), seg(5, 4, 2, 3), seg(2, 3, 7, 2)],
        False,
    ),
    "zero-length-at-a-joint": ([seg(1, 1, 3, 1), seg(3, 1, 3, 1), seg(3, 1, 3, 3)], False),
    "zero-length-at-the-end": ([seg(1, 1, 3, 1), seg(3, 1, 3, 1)], True),
    "west-arcs-tangent-at-the-equator": (
        [
            HalfCircle((4.0, 0.0), 2.0, "west"),
            seg(4, -2, 5, -3),
            HalfCircle((5.0, 0.0), 3.0, "west", start_at_top=False),
        ],
        False,
    ),
    "nested-west-arcs": (
        [
            HalfCircle((4.0, 0.0), 2.0, "west"),
            seg(4, -2, 4, -3),
            HalfCircle((4.0, 0.0), 3.0, "west", start_at_top=False),
        ],
        True,
    ),
    "touch-at-a-vertex": (
        [seg(1, 1, 4, 1), seg(4, 1, 4, 3), seg(4, 3, 2, 3), seg(2, 3, 4, 1)],
        False,
    ),
    "joint-on-an-equator": (
        [HalfCircle((4.0, 0.0), 2.0, "east"), seg(4, -2, 7, -2), seg(7, -2, 6, 0), seg(6, 0, 8, 2)],
        False,
    ),
    "joint-inside-an-arc": (
        [HalfCircle((4.0, 0.0), 5.0, "east"), seg(4, -5, 10, -5), seg(10, -5, 7, 4), seg(7, 4, 10, 6)],
        False,
    ),
    "collinear-overlap": (
        [seg(1, 1, 5, 1), seg(5, 1, 5, 2), seg(5, 2, 2, 2), seg(2, 2, 2, 1), seg(2, 1, 4, 1)],
        False,
    ),
    "doubled-back": ([seg(1, 1, 5, 1), seg(5, 1, 3, 1)], False),
    "consecutive-meeting-twice": (
        [HalfCircle((3.0, 1.0), 2.0, "east", start_at_top=False), seg(3, 3, 3, -2)],
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_contacts_match_the_scan(name):
    pieces, embedded = DEGENERATE[name]
    d = hand_diagram(pieces, LayerCounts(right=0, left=0))
    assert agreed_verdict(d) == embedded
    spun = rotate_taffy(d)
    assert agreed_verdict(spun) == embedded


# --- cost and size ---------------------------------------------------------------------

@pytest.mark.parametrize("num,den", [(233, 377), (1597, 2584)])
def test_the_sweep_tests_a_few_pairs_per_piece(num, den, monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(None)
        return piece_intersections(a, b)

    monkeypatch.setattr(taffy, "piece_intersections", counted)
    d = build_taffy(make(num, den))
    assert verify_taffy(d).passes
    assert len(calls) <= 4 * len(d.strand)


@pytest.mark.parametrize("num,den", [(1, TAFFY_CAP), (-TAFFY_CAP, 1), (100000, 1)])
def test_build_refuses_past_the_cap(num, den):
    with pytest.raises(ValueError, match="^taffy diagrams are capped at 10000 layers$"):
        build_taffy(make(num, den))


def test_a_value_at_the_cap_builds():
    d = build_taffy(make(1, TAFFY_CAP - 1))
    assert d.counts == LayerCounts(right=1, left=TAFFY_CAP - 1)


if __name__ == "__main__":
    strands, mutations = (int(a) for a in sys.argv[1:3])
    embedded = []

    @settings(max_examples=strands, deadline=None, database=None, derandomize=True)
    @given(quarter_grid_diagrams())
    def check_strands(d):
        embedded.append(agreed_verdict(d))

    check_strands()
    print("quarter-grid strands: %d checked, %d embedded" % (len(embedded), sum(embedded)))
    verdicts = mutation_verdicts(1, mutations)
    print("mutations: %d checked, %d embedded" % (len(verdicts), sum(verdicts)))
