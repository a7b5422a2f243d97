"""Two parts leaving one joint: the order the sweep gives them.

``taffy._no_self_crossings`` orders the two parts that start at one
point by a side test at the end of the part that ends first.  The cases
below are the ones where a comparison of directions at the joint cannot
decide: two east half circles leaving their joint with the same tangent
and curving the same way or apart, and a vertical leaving the joint an
arc leaves.  In every touching variant a third piece reaches the pair
from the side where a wrong order would hand it the other part as its
neighbour, so a wrong order misses the contact.  Sweep and quadratic
scan must agree, on each strand and on its half-turn.
"""

import pytest

from pullcalc.diagrams.geometry import HalfCircle
from pullcalc.diagrams.taffy import rotate_taffy
from pullcalc.treewalk import LayerCounts
from test_taffy_diagrams import hand_diagram, seg
from test_taffy_sweep import agreed_verdict

# two east half circles that leave the joint (4, 2) heading east, tangent there:
# circles of radius 1 and 2, internally tangent (both curve up) ...
INNER = HalfCircle((4.0, 3.0), 1.0, "east")
OUTER = HalfCircle((4.0, 4.0), 2.0, "east", start_at_top=False)
# ... or externally tangent (one curves up, the other down)
BELOW = HalfCircle((4.0, 0.0), 2.0, "east")
# a lead-in from the west to the top pole (4, 4) of INNER
LEAD_IN = [seg(3.5, 1, 3, 4), seg(3, 4, 4, 4)]

# name: (strand, embedded)
LEAVING = {
    # a chord from below the joint that ends just under OUTER
    "same-way-clear": ([seg(4.75, 2.125, 3.5, 1), *LEAD_IN, INNER, OUTER], True),
    # the same chord ending in the gap between the two arcs, across OUTER
    "same-way-touch": ([seg(4.75, 2.25, 3.5, 1), *LEAD_IN, INNER, OUTER], False),
    # a chord inside BELOW's circle, clear of it
    "opposite-ways-clear": ([seg(5, 1.5, 3.5, 1), *LEAD_IN, INNER, BELOW], True),
    # a chord from between the two arcs, across BELOW
    "opposite-ways-touch": ([seg(5, 2, 3.5, 1), *LEAD_IN, INNER, BELOW], False),
    # a vertical and an arc's upper quarter leave (4, 2); a horizontal passes over the vertical
    "vertical-and-arc-clear": (
        [seg(3, 5, 5, 5), seg(5, 5, 4, 4), seg(4, 4, 4, 2), HalfCircle((4.0, 1.0), 1.0, "east")],
        True,
    ),
    # the horizontal crosses the vertical
    "vertical-and-arc-touch": (
        [seg(3, 3, 5, 3), seg(5, 3, 4, 4), seg(4, 4, 4, 2), HalfCircle((4.0, 1.0), 1.0, "east")],
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(LEAVING))
def test_parts_leaving_a_joint_match_the_scan(name):
    pieces, embedded = LEAVING[name]
    assert pieces[-2].end == pieces[-1].start == (4.0, 2.0)
    d = hand_diagram(pieces, LayerCounts(right=0, left=0))
    assert agreed_verdict(d) == embedded
    assert agreed_verdict(rotate_taffy(d)) == embedded
