"""Pieces whose boxes only just meet: the edge of the sweep's box filter.

``taffy._clash`` passes two parts without a test when their boxes are
apart, so the closest calls are boxes that meet in one point or along
one edge.  In every case below, the boxes of two pieces that are not
consecutive meet in exactly that way; in the touching variant the
pieces touch there, in the other they do not.  Sweep and quadratic
scan must agree, on each strand and on its half-turn.
"""

import pytest

from pullcalc.diagrams.geometry import HalfCircle, bounding_box
from pullcalc.diagrams.taffy import rotate_taffy
from pullcalc.treewalk import LayerCounts
from test_taffy_diagrams import hand_diagram, seg
from test_taffy_sweep import agreed_verdict

# name: (strand, the two pieces whose boxes meet, embedded)
BOX_CONTACTS = {
    # diagonals whose boxes share only the corner (3, 4)
    "corner-touch": (
        [seg(3, 4, 1, 2), seg(1, 2, 1, 8), seg(1, 8, 5, 8), seg(5, 8, 5, 6), seg(5, 6, 3, 4)],
        (0, 4),
        False,
    ),
    "corner-apart": (
        [seg(1, 4, 3, 2), seg(3, 2, 7, 3), seg(7, 3, 5, 4), seg(5, 4, 3, 6)],
        (0, 3),
        True,
    ),
    # a vertical whose top end is the box corner of a horizontal or a rising diagonal
    "t-junction-touch": (
        [seg(2, 5, 6, 5), seg(6, 5, 7, 2), seg(7, 2, 4, 2), seg(4, 2, 4, 5)],
        (0, 3),
        False,
    ),
    "t-junction-apart": (
        [seg(2, 5, 6, 7), seg(6, 7, 7, 2), seg(7, 2, 4, 2), seg(4, 2, 4, 5)],
        (0, 3),
        True,
    ),
    # a horizontal along the top edge of an east arc's box, through or past its top pole
    "pole-tangent-touch": (
        [HalfCircle((4.0, 4.0), 2.0, "east"), seg(4, 2, 9, 2), seg(9, 2, 9, 6), seg(9, 6, 3, 6)],
        (0, 3),
        False,
    ),
    "pole-tangent-apart": (
        [HalfCircle((4.0, 4.0), 2.0, "east"), seg(4, 2, 9, 2), seg(9, 2, 9, 6), seg(9, 6, 5, 6)],
        (0, 3),
        True,
    ),
    # an east arc and a west arc whose boxes share the edge x = 3
    "equators-touch": (
        [
            HalfCircle((2.0, 5.0), 1.0, "east"),
            seg(2, 4, 2, 3),
            seg(2, 3, 4, 3),
            seg(4, 3, 4, 4),
            HalfCircle((4.0, 5.0), 1.0, "west", start_at_top=False),
        ],
        (0, 4),
        False,
    ),
    "equators-apart": (
        [
            HalfCircle((2.0, 5.0), 1.0, "east"),
            seg(2, 4, 2, 3),
            seg(2, 3, 4, 3),
            seg(4, 3, 4, 4.5),
            HalfCircle((4.0, 5.5), 1.0, "west", start_at_top=False),
        ],
        (0, 4),
        True,
    ),
}


def boxes_just_meet(a, b) -> bool:
    """Do two boxes meet with no area in common: one point or one edge?"""
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = a, b
    x0, x1 = max(ax0, bx0), min(ax1, bx1)
    y0, y1 = max(ay0, by0), min(ay1, by1)
    return x0 <= x1 and y0 <= y1 and (x0 == x1 or y0 == y1)


@pytest.mark.parametrize("name", sorted(BOX_CONTACTS))
def test_box_edge_contacts_match_the_scan(name):
    pieces, (i, j), embedded = BOX_CONTACTS[name]
    assert j > i + 1
    assert boxes_just_meet(bounding_box(pieces[i]), bounding_box(pieces[j]))
    d = hand_diagram(pieces, LayerCounts(right=0, left=0))
    assert agreed_verdict(d) == embedded
    assert agreed_verdict(rotate_taffy(d)) == embedded
