import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pullcalc.diagrams.geometry import (
    HalfCircle,
    Segment,
    bounding_box,
    comes_within,
    piece_intersections,
    rotate_piece_180,
)
from pullcalc.diagrams.taffy import (
    TaffyDiagram,
    TaffyReport,
    _assemble,
    build_taffy,
    render_taffy_svg,
    rotate_taffy,
    verify_taffy,
)
from pullcalc.rationals import make, neg_recip
from pullcalc.treewalk import LayerCounts


def seg(x1, y1, x2, y2):
    return Segment((float(x1), float(y1)), (float(x2), float(y2)))


# --- geometry helpers ---------------------------------------------------------

def test_segment_intersections():
    assert piece_intersections(seg(0, 0, 4, 0), seg(2, -1, 2, 5)) == (1, False)
    assert piece_intersections(seg(0, 0, 4, 0), seg(5, -1, 5, 1)) == (0, False)
    assert piece_intersections(seg(0, 0, 4, 0), seg(2, 1, 2, 5)) == (0, False)
    # collinear with a shared stretch
    assert piece_intersections(seg(0, 0, 4, 0), seg(2, 0, 6, 0)) == (0, True)
    # collinear, touching end to end
    assert piece_intersections(seg(0, 0, 4, 0), seg(4, 0, 9, 0)) == (1, False)
    # a zero-length segment meets what passes through its point
    dot = seg(1, 1, 1, 1)
    assert piece_intersections(dot, seg(0, 0, 2, 2)) == (1, False)
    assert piece_intersections(dot, seg(0, 0, 2, 0)) == (0, False)
    assert piece_intersections(dot, seg(5, 5, 7, 7)) == (0, False)


def test_segment_arc_intersections():
    arc = HalfCircle((0.0, 0.0), 2.0, "west")
    # only (-2, 0): the eastern root is off the drawn half
    assert piece_intersections(seg(-5, 0, 5, 0), arc) == (1, False)
    assert piece_intersections(seg(-5, 3, 5, 3), arc) == (0, False)
    # tangent at the bulge
    assert piece_intersections(seg(-2, -5, -2, 5), arc) == (1, False)
    # crossing exactly at the top pole, which both halves share
    east = HalfCircle((0.0, 0.0), 2.0, "east")
    assert piece_intersections(seg(-1, 3, 1, 1), east) == (1, False)
    # a zero-length segment on the circle, on and off the drawn half
    unit = HalfCircle((0.0, 0.0), 1.0, "east")
    assert piece_intersections(seg(1, 0, 1, 0), unit) == (1, False)
    assert piece_intersections(seg(-1, 0, -1, 0), unit) == (0, False)


def test_arc_arc_intersections():
    a = HalfCircle((0.0, 0.0), 2.0, "west")
    b = HalfCircle((0.0, 0.0), 3.0, "west")
    assert piece_intersections(a, b) == (0, False)  # nested rainbows never touch
    assert piece_intersections(a, HalfCircle((0.0, 0.0), 2.0, "west")) == (0, True)
    # the two shared poles
    assert piece_intersections(a, HalfCircle((0.0, 0.0), 2.0, "east")) == (2, False)


def test_transforms_flip_the_bulge():
    arc = HalfCircle((1.0, 0.0), 2.0, "west")
    spun = rotate_piece_180(arc, (4.0, 1.0))
    assert spun.side == "east"
    assert spun.center == (7.0, 2.0)
    assert bounding_box(arc) == (-1.0, -2.0, 1.0, 2.0)


def test_piece_point_distance_respects_the_half():
    arc = HalfCircle((0.0, 0.0), 2.0, "west")
    assert comes_within(arc, (-4.0, 0.0), 2 + 2**-20)
    assert not comes_within(arc, (-4.0, 0.0), 2 - 2**-20)
    # a probe on the undrawn side measures to the nearer endpoint, sqrt(20) away
    assert comes_within(arc, (4.0, 0.0), math.sqrt(20) + 1e-9)
    assert not comes_within(arc, (4.0, 0.0), math.sqrt(20) - 1e-9)


def test_a_line_just_above_the_pole_misses_the_arc():
    arc = HalfCircle((0.0, 0.0), 2.0, "west")
    y = 2 + 2**-40
    assert piece_intersections(seg(-5, y, 5, y), arc) == (0, False)


def test_close_parallel_segments_do_not_meet():
    assert piece_intersections(seg(0, 0, 4, 0), seg(0, 2**-40, 4, 2**-40)) == (0, False)


def test_an_arc_runs_between_the_poles_of_its_circle():
    arc = HalfCircle((0.0, 0.0), 2.0, "west", False)
    assert arc.start == (0.0, -2.0)
    assert arc.end == (0.0, 2.0)


@pytest.mark.parametrize("side,radius", [("north", 1.0), ("west", 0.0), ("east", -1.0)])
def test_an_arc_needs_a_side_and_a_positive_radius(side, radius):
    with pytest.raises(ValueError):
        HalfCircle((0.0, 0.0), radius, side)


# --- reconstruction -----------------------------------------------------------

def test_initial_diagram_is_a_bare_strand():
    d = build_taffy(make(0, 1))
    assert d.counts == LayerCounts(right=0, left=1)
    assert len(d.strand) == 2
    assert verify_taffy(d).passes


def test_infinite_diagram_mirrors_the_initial_one():
    d = build_taffy(make(1, 0))
    assert d.counts == LayerCounts(right=1, left=0)
    assert verify_taffy(d).passes


@pytest.mark.parametrize(
    "num,den",
    [(1, 1), (3, 2), (2, 3), (9, 7), (8, 13), (1, 5), (5, 1), (2, 11), (11, 2), (13, 2)],
)
def test_small_diagrams_verify(num, den):
    report = verify_taffy(build_taffy(make(num, den)))
    assert report.passes, report


def test_negative_diagram_is_the_rotated_reciprocal():
    spun = rotate_taffy(build_taffy(make(3, 1)))
    direct = build_taffy(make(-1, 3))
    assert spun.strand == direct.strand
    assert direct.counts == LayerCounts(right=1, left=3)
    assert verify_taffy(direct).passes


def test_every_orientation_is_the_half_turn_of_its_mirror_value():
    """The direct build of -1/q is the rotated build of q, for all
    coprime q with |num| + den <= 34 in both signs."""
    checked = 0
    for total in range(1, 35):
        for a in range(total + 1):
            b = total - a
            if math.gcd(a, b) != 1:
                continue
            for num in ({a, -a} if b else {a}):
                q = make(num, b)
                assert build_taffy(neg_recip(q)).strand == rotate_taffy(build_taffy(q)).strand, q
                checked += 1
    assert checked == 720


def test_the_builder_draws_what_it_drew_before():
    """SHA-256 over the reprs of the builds of criterion 7's values with
    |num| + den <= 34, in its order, taken before the builder was folded
    into one pass: every piece, key order and float is locked."""
    values = [make(0, 1), make(1, 0)]
    for total in range(2, 35):
        for a in range(1, total):
            if math.gcd(a, total - a) == 1:
                values += [make(a, total - a), make(-a, total - a)]
    assert len(values) == 720
    digest = hashlib.sha256("".join(repr(build_taffy(q)) for q in values).encode("utf-8"))
    assert digest.hexdigest() == "8753f2205d93e76e9c8a2d355322bc2f6c72695e4c114f2cd325b827666d6e5f"


def test_rotation_swaps_the_measured_counts():
    d = build_taffy(make(3, 2))
    spun = rotate_taffy(d)
    report = verify_taffy(spun)
    assert report.passes
    q = neg_recip(make(3, 2))
    assert report.measured == LayerCounts(right=abs(q.num), left=q.den)


def test_every_small_value_verifies():
    for total in range(1, 22):
        for a in range(0, total + 1):
            b = total - a
            if b < 1 and not (a == 1 and b == 0):
                continue
            if math.gcd(a, b) != 1:
                continue
            for num in ({a, -a} if a else {0}):
                q = make(num, b)
                report = verify_taffy(build_taffy(q))
                assert report.passes, (q, report)


# --- the builder's assembly of connection units --------------------------------

A, B, C = seg(0, 0, 1, 0), seg(1, 0, 2, 0), seg(2, 0, 3, 0)


# A unit joined to itself owns both uses of its stub, so the walk from a
# peg never enters it: it is refused as a loop left over.
@pytest.mark.parametrize(
    "units, message",
    [
        ([([A], ("peg", 0), ("left", 1))], "expected exactly two peg endpoints, found [('peg', 0)]"),
        (
            [([A], ("peg", 0), ("peg", 1)), ([B], ("peg", 2), ("left", 1)), ([C], ("left", 1), ("right", 1))],
            "expected exactly two peg endpoints, found [('peg', 0), ('peg', 1), ('peg', 2)]",
        ),
        (
            [([A], ("peg", 0), ("left", 1)), ([B], ("left", 2), ("peg", 2))],
            "connection point ('left', 1) used 1 times, not 2",
        ),
        (
            [([A], ("peg", 0), ("left", 1)), ([B], ("left", 1), ("peg", 2)), ([C], ("left", 1), ("right", 1))],
            "connection point ('left', 1) used 3 times, not 2",
        ),
        (
            [([A], ("peg", 0), ("peg", 2)), ([B], ("left", 1), ("left", 1))],
            "1 units left over; pattern is not a single arc",
        ),
        (
            [([A], ("peg", 0), ("peg", 2)), ([B], ("left", 1), ("right", 1)), ([C], ("right", 1), ("left", 1))],
            "2 units left over; pattern is not a single arc",
        ),
    ],
    ids=["one peg end", "three peg ends", "stub used once", "stub used three times", "unit joined to itself", "loop"],
)
def test_assemble_refuses_a_pattern_that_is_not_one_arc(units, message):
    with pytest.raises(RuntimeError, match="^%s$" % re.escape(message)):
        _assemble(units)


# --- the verifier on dishonest diagrams ----------------------------------------

PEGS = ((0.0, 0.0), (8.0, 0.0), (16.0, 0.0))


def hand_diagram(pieces, counts):
    return TaffyDiagram(pegs=PEGS, strand=tuple(pieces), counts=counts)


def test_verify_rejects_a_self_crossing_strand():
    d = hand_diagram(
        [seg(0.5, 0, 6, 1), seg(6, 1, 6, 2), seg(6, 2, 3, -1), seg(3, -1, 8, -0.5)],
        LayerCounts(right=0, left=1),
    )
    report = verify_taffy(d)
    assert not report.embedded
    assert not report.passes


def test_verify_rejects_a_broken_chain():
    d = hand_diagram(
        [seg(0.5, 0, 3, 0), seg(4, 1, 7.5, 0)], LayerCounts(right=0, left=1)
    )
    assert not verify_taffy(d).single_arc


def test_verify_rejects_a_closed_loop():
    d = hand_diagram(
        [seg(0.5, 0, 3, 2), seg(3, 2, 0.5, 0)], LayerCounts(right=0, left=0)
    )
    assert not verify_taffy(d).single_arc


def test_verify_notices_wrong_counts():
    d = build_taffy(make(3, 2))
    lying = TaffyDiagram(d.pegs, d.strand, LayerCounts(right=3, left=3))
    report = verify_taffy(lying)
    assert report.measured == LayerCounts(right=3, left=2)
    assert not report.counts_match
    assert not report.passes


def test_verify_rejects_a_strand_through_a_peg():
    d = hand_diagram([seg(0.5, 0, 15.5, 0)], LayerCounts(right=1, left=1))
    report = verify_taffy(d)
    assert report.measured == LayerCounts(right=1, left=1)
    assert not report.embedded


def test_verify_wants_ends_on_pegs():
    d = hand_diagram([seg(0.5, 0, 6, 3)], LayerCounts(right=0, left=1))
    report = verify_taffy(d)
    assert report.single_arc
    assert not report.ends_on_pegs


def test_verify_measures_doubled_back_crossings():
    # out past the left gap line and back: two crossings, not zero
    d = hand_diagram(
        [seg(0.5, 0, 5, 2), seg(5, 2, 3, 3), seg(3, 3, 8, 0.5)],
        LayerCounts(right=0, left=3),
    )
    assert verify_taffy(d).measured.left == 3


def test_verify_wants_the_end_exactly_on_the_peg():
    short = hand_diagram(
        [seg(0.5, 0, 6, 3), seg(6, 3, 7.5 - 2**-30, 0)], LayerCounts(right=0, left=1)
    )
    report = verify_taffy(short)
    assert report.embedded
    assert not report.ends_on_pegs
    assert not report.passes


def test_verify_rejects_an_end_poking_into_the_peg():
    poking = hand_diagram(
        [seg(0.5, 0, 6, 3), seg(6, 3, 7.5 + 2**-30, 0)], LayerCounts(right=0, left=1)
    )
    report = verify_taffy(poking)
    assert not report.embedded
    assert not report.ends_on_pegs
    assert not report.passes


def test_verify_accepts_a_strand_running_close_above_itself():
    eps = 2**-32
    d = hand_diagram(
        [
            seg(0.5, 0, 5, 0),
            seg(5, 0, 5, 2),
            seg(5, 2, 2, 2),
            seg(2, 2, 2, eps),
            seg(2, eps, 1, eps),  # eps above the first segment
            seg(1, eps, 1, 3),
            seg(1, 3, 7.5, 3),
            seg(7.5, 3, 7.5, 0),
        ],
        LayerCounts(right=0, left=3),
    )
    report = verify_taffy(d)
    assert report.measured == LayerCounts(right=0, left=3)
    assert report.passes, report


def test_an_arc_far_from_the_pegs_measures_nothing():
    # ends at (0.5, 0) and (7.5, 0) can no longer be claimed for this circle
    with pytest.raises(TypeError):
        HalfCircle((30.0, 0.0), 1.0, "east", (0.5, 0.0), (7.5, 0.0))
    d = hand_diagram([HalfCircle((30.0, 0.0), 1.0, "east")], LayerCounts(right=2, left=1))
    report = verify_taffy(d)
    assert report.measured == LayerCounts(right=0, left=0)
    assert not report.ends_on_pegs
    assert not report.passes
    with pytest.raises(ValueError):
        render_taffy_svg(d)


def test_an_arc_radius_finer_than_every_coordinate_stays_exact():
    d = hand_diagram([HalfCircle((4.0, 0.0), 2**-3, "east")], LayerCounts(right=0, left=0))
    assert verify_taffy(d) == TaffyReport(
        expected=LayerCounts(right=0, left=0),
        measured=LayerCounts(right=0, left=0),
        single_arc=True,
        ends_on_pegs=False,
        embedded=True,
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_verify_refuses_a_non_finite_coordinate(bad):
    # there is no grid step for such a point, so there is no report either
    d = hand_diagram([seg(0.5, 0, bad, 0)], LayerCounts(right=0, left=1))
    with pytest.raises((ValueError, OverflowError)):
        verify_taffy(d)


# --- rendering ------------------------------------------------------------------

def test_render_taffy_svg_shape():
    svg = render_taffy_svg(build_taffy(make(-1, 3)))
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count('class="peg"') == 3
    assert svg.count('class="gap') == 2
    assert 'data-layers="3"' in svg and 'data-layers="1"' in svg
    assert svg.count('class="strand"') == 1
    assert "A " in svg  # the rainbows render as arcs


def test_render_taffy_svg_is_deterministic():
    d = build_taffy(make(9, 7))
    assert render_taffy_svg(d) == render_taffy_svg(d)


def moved(d, dx, dy):
    def move(p):
        return (p[0] + dx, p[1] + dy)

    strand = tuple(
        Segment(move(p.start), move(p.end)) if isinstance(p, Segment) else p._replace(center=move(p.center))
        for p in d.strand
    )
    return TaffyDiagram(tuple(map(move, d.pegs)), strand, d.counts)


@pytest.mark.parametrize("num,den", [(0, 1), (1, 0), (1, 1), (-2, 3), (8, 13), (-13, 8)])
def test_a_moved_taffy_diagram_draws_the_same_svg(num, den):
    # the frame holds every piece and every peg wherever they lie
    d = build_taffy(make(num, den))
    svg = render_taffy_svg(d)
    for dx, dy in ((0, 100), (0, -100), (-250, 0), (37.5, -12.5)):
        assert render_taffy_svg(moved(d, dx, dy)) == svg, (dx, dy)


def test_render_taffy_svg_refuses_a_bad_diagram():
    bad = hand_diagram([seg(0.5, 0, 3, 0), seg(4, 1, 7.5, 0)], LayerCounts(right=0, left=1))
    with pytest.raises(ValueError):
        render_taffy_svg(bad)


def test_an_empty_strand_measures_nothing_and_is_refused_in_full():
    empty = hand_diagram([], LayerCounts(right=0, left=0))
    report = verify_taffy(empty)
    assert report == (empty.counts, LayerCounts(right=0, left=0), False, False, False)
    assert report.counts_match and not report.passes
    message = (
        "diagram fails verification: counts LayerCounts(right=0, left=0) vs "
        "LayerCounts(right=0, left=0), single_arc=False, ends_on_pegs=False, embedded=False"
    )
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        render_taffy_svg(empty)


# --- randomized spot checks ------------------------------------------------------

def test_random_fractions_round_trip_through_the_verifier():
    rng = random.Random(7)
    seen = 0
    while seen < 40:
        num = rng.randint(-60, 60)
        den = rng.randint(1, 60)
        if math.gcd(abs(num), den) != 1:
            continue
        seen += 1
        q = make(num, den)
        report = verify_taffy(build_taffy(q))
        assert report.passes, (q, report)


# --- hand-built strands on the quarter grid ------------------------------------

PEG_ENDS = [
    (px + dx, dy) for px, _ in PEGS for dx, dy in ((0.5, 0), (-0.5, 0), (0, 0.5), (0, -0.5))
]
QUARTER_X = st.integers(-8, 72).map(lambda n: n / 4)
QUARTER_Y = st.integers(-16, 16).map(lambda n: n / 4)


@st.composite
def quarter_grid_diagrams(draw):
    """A chained strand of segments and arcs, often starting or ending on a peg."""
    x, y = draw(st.one_of(st.sampled_from(PEG_ENDS), st.tuples(QUARTER_X, QUARTER_Y)))
    pieces = []
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            nx, ny = draw(QUARTER_X), draw(QUARTER_Y)
            pieces.append(seg(x, y, nx, ny))
        else:
            r = draw(st.integers(1, 16)) / 4
            down = draw(st.booleans())
            side = draw(st.sampled_from(("west", "east")))
            arc = HalfCircle((x, y - r if down else y + r), r, side, start_at_top=down)
            pieces.append(arc)
            nx, ny = arc.end
        x, y = nx, ny
    if draw(st.booleans()):
        pieces.append(seg(x, y, *draw(st.sampled_from(PEG_ENDS))))
    counts = LayerCounts(right=draw(st.integers(0, 3)), left=draw(st.integers(0, 3)))
    return hand_diagram(pieces, counts)


@settings(max_examples=300, deadline=None)
@given(quarter_grid_diagrams())
def test_rotation_swaps_the_counts_of_hand_built_strands(d):
    report = verify_taffy(d)

    def swap(c):
        return LayerCounts(right=c.left, left=c.right)

    assert verify_taffy(rotate_taffy(d)) == TaffyReport(
        expected=swap(report.expected),
        measured=swap(report.measured),
        single_arc=report.single_arc,
        ends_on_pegs=report.ends_on_pegs,
        embedded=report.embedded,
    )
