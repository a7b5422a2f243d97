"""Contacts next to joint pairs, which the sweep tests but at a chain's vertex.

``taffy._no_self_crossings`` passes every pair of parts that meet at an
event point p to ``_clash`` but one: at a chain's interior vertex, where
a part of piece i ends and the only part that starts there is of piece
i - 1 or i + 1, whose joint with piece i is p, the new part takes the
old one's place untested, since the two meet only at p.  Everywhere
else ``_clash`` decides a joint pair itself: consecutive pieces that
meet once, at their joint, pass.  Every case below puts a contact, or a
near miss, next to a joint pair or next to a pair that looks like one
but must still be tested: two parts that both end at p, a third piece
at a joint, two consecutive pieces that share a point that is not their
joint.  Sweep and quadratic scan must agree, on each strand and on its
half-turn.

Most joints of a builder strand are chain vertices (1,900 of the 2,582
joints of 233/377), and most pairs the sweep does test have y ranges
apart, so ``piece_intersections`` runs fewer times than the strand has
pieces.
"""

import pytest

from pullcalc.diagrams import taffy
from pullcalc.diagrams.geometry import HalfCircle, piece_intersections
from pullcalc.diagrams.taffy import build_taffy, rotate_taffy, verify_taffy
from pullcalc.rationals import make
from pullcalc.treewalk import LayerCounts
from test_taffy_diagrams import hand_diagram, seg
from test_taffy_sweep import agreed_verdict

# a vertical up to the joint (4, 3) and the next vertical up from it, then a hook
VERTICALS = [seg(2, 1, 4, 1), seg(4, 1, 4, 3), seg(4, 3, 4, 5), seg(4, 5, 6, 5), seg(6, 5, 6, 3)]
# two pieces that both arrive at the joint (3, 2) from the west, then a hook
ARRIVING = [seg(1, 1, 3, 2), seg(3, 2, 1, 3), seg(1, 3, 1, 5), seg(1, 5, 5, 5)]
# one piece arrives at the joint (3, 2) from the west and the next leaves it eastward
PASSING = [seg(1, 1, 3, 2), seg(3, 2, 5, 1), seg(5, 1, 5, 4)]
# the west half of the circle round (4, 0) of radius 2, from its top pole down
WEST = HalfCircle((4.0, 0.0), 2.0, "west")

# name: (strand, embedded)
JOINT_PAIRS = {
    # a third piece ends at the joint of the two verticals, coming from the east
    "verticals-touch": ([*VERTICALS, seg(6, 3, 4, 3)], False),
    "verticals-apart": ([*VERTICALS, seg(6, 3, 4.25, 3)], True),
    # the next piece doubles back down the vertical: both parts end at the joint
    "doubled-back-vertical-touch": ([seg(2, 1, 4, 1), seg(4, 1, 4, 3), seg(4, 3, 4, 2)], False),
    "doubled-back-vertical-apart": ([seg(2, 1, 4, 1), seg(4, 1, 4, 3), seg(4, 3, 3, 2)], True),
    # an east half circle leaves the top of a vertical, and its bottom pole lies on the vertical
    "arc-from-joint-touch": ([seg(4, -3, 4, 2), HalfCircle((4.0, 0.0), 2.0, "east")], False),
    "arc-from-joint-apart": ([seg(4, -1, 4, 2), HalfCircle((4.0, 0.0), 2.0, "east")], True),
    # a third piece starts at a joint where both pieces arrive from the west
    "third-piece-at-arriving-joint-touch": ([*ARRIVING, seg(5, 5, 3, 2)], False),
    "third-piece-at-arriving-joint-apart": ([*ARRIVING, seg(5, 5, 3.5, 2)], True),
    # a third piece starts at a joint where one piece arrives and the next leaves
    "third-piece-at-passing-joint-touch": ([*PASSING, seg(5, 4, 3, 2)], False),
    "third-piece-at-passing-joint-apart": ([*PASSING, seg(5, 4, 3.5, 2.5)], True),
    # an east half circle closes the circle WEST starts: the two also share the top pole
    "closed-circle-touch": ([WEST, HalfCircle((4.0, 0.0), 2.0, "east", start_at_top=False)], False),
    "closed-circle-apart": ([WEST, HalfCircle((4.0, -0.5), 1.5, "east", start_at_top=False)], True),
    # out of chain: the first piece is drawn from the point where the second starts
    "shared-start-touch": ([seg(3, 2, 1, 1), seg(3, 2, 5, 1)], False),
    "shared-start-apart": ([seg(3, 2, 1, 1), seg(3.5, 2, 5, 1)], True),
}


@pytest.mark.parametrize("name", sorted(JOINT_PAIRS))
def test_contacts_next_to_joint_pairs_match_the_scan(name):
    pieces, embedded = JOINT_PAIRS[name]
    d = hand_diagram(pieces, LayerCounts(right=0, left=0))
    assert agreed_verdict(d) == embedded
    assert agreed_verdict(rotate_taffy(d)) == embedded


@pytest.mark.parametrize("num,den", [(233, 377), (1597, 2584)])
def test_the_sweep_decides_fewer_pairs_than_pieces(num, den, monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(None)
        return piece_intersections(a, b)

    monkeypatch.setattr(taffy, "piece_intersections", counted)
    d = build_taffy(make(num, den))
    assert verify_taffy(d).passes
    assert len(calls) < len(d.strand)
