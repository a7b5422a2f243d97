"""Chains in the sweep, and the one walk of ``verify_taffy``.

A built strand is a few long x-monotone chains.  ``taffy._no_self_crossings``
meets most event points as a chain's interior vertex, where one part
ends and the only part that starts there is of the next piece along
the strand (or the one before, for a chain that runs against path
order); there the new part takes the old one's place with no search.
Every case below puts a contact, or a near miss, at or next to such a
vertex: a third piece that touches it from above or from below, ends
there or passes through it, a second chain through the same vertex, a
vertical inside a chain, a chain drawn against path order, two
consecutive pieces that meet away from their joint, and a piece that
starts where a piece not next to it ends.  Sweep and quadratic scan
must agree, on each strand and on its half-turn, and each named vertex
must be one the sweep meets as a chain's vertex, or one where it
searches.

``reference_crossings`` and ``reference_clear_of_pegs`` are the
separate walks ``verify_taffy`` made before it read each piece once;
the report must match them on criterion 7's values and on seeded
mutations of builder diagrams.  Those mutations break the chain, so
``move_joint`` also moves the joint of two consecutive segments, which
keeps it: the sweep meets most moved joints by the chain step.
"""

import random

import pytest

from pullcalc.diagrams import taffy
from pullcalc.diagrams.geometry import HalfCircle, Segment, bounding_box, comes_within
from pullcalc.diagrams.taffy import TaffyReport, build_taffy, rotate_taffy, verify_taffy
from pullcalc.rationals import make
from pullcalc.treewalk import LayerCounts
from test_taffy_diagrams import hand_diagram, seg
from test_taffy_sweep import _quarters, agreed_verdict, criterion_7_values, mutate

# an eastward chain with a peak at (3, 3) and a valley at (5, 1)
CHAIN = [seg(1, 1, 3, 3), seg(3, 3, 5, 1), seg(5, 1, 7, 2)]
# a chain whose middle piece is a vertical, from (3, 1) up to (3, 4)
UPRIGHT = [seg(1, 1, 3, 1), seg(3, 1, 3, 4), seg(3, 4, 5, 4)]
# CHAIN drawn from its east end, against path order
WESTWARD = [seg(7, 2, 5, 1), seg(5, 1, 3, 3), seg(3, 3, 1, 1)]
# from CHAIN's east end back over the top to (1, 6)
BACK = [seg(7, 2, 7, 6), seg(7, 6, 1, 6)]

# name: (strand, the vertex the case is about, embedded)
CHAINS = {
    # a horizontal through the peak, above the chain on either side
    "touch-from-above": ([*CHAIN, seg(7, 2, 7, 3), seg(7, 3, 2, 3)], (3, 3), False),
    "clear-from-above": ([*CHAIN, seg(7, 2, 7, 3.25), seg(7, 3.25, 2, 3.25)], (3, 3), True),
    # a horizontal through the valley, below the chain on either side
    "touch-from-below": ([*CHAIN, seg(7, 2, 7, 1), seg(7, 1, 4, 1)], (5, 1), False),
    "clear-from-below": ([*CHAIN, seg(7, 2, 7, 0.75), seg(7, 0.75, 4, 0.75)], (5, 1), True),
    # the strand comes back from the north-west and ends at the peak
    "ending-at-the-vertex": ([*CHAIN, *BACK, seg(1, 6, 3, 3)], (3, 3), False),
    "ending-above-the-vertex": ([*CHAIN, *BACK, seg(1, 6, 3, 3.5)], (3, 3), True),
    # a piece through the peak, and one that passes above it
    "passing-through-the-vertex": ([*CHAIN, *BACK, seg(1, 6, 5, 0)], (3, 3), False),
    "passing-above-the-vertex": ([*CHAIN, *BACK, seg(1, 6, 5, 3.5)], (3, 3), True),
    # a second chain with a valley on the first one's peak
    "chains-sharing-a-vertex": (
        [*CHAIN, *BACK, seg(1, 6, 1, 5), seg(1, 5, 3, 3), seg(3, 3, 5, 5)],
        (3, 3),
        False,
    ),
    "chains-apart-at-a-vertex": (
        [*CHAIN, *BACK, seg(1, 6, 1, 5), seg(1, 5, 3, 3.5), seg(3, 3.5, 5, 5)],
        (3, 3),
        True,
    ),
    # a horizontal across the vertical, or stopping short of it
    "across-a-vertical": ([*UPRIGHT, seg(5, 4, 5, 2), seg(5, 2, 2, 2)], (3, 1), False),
    "short-of-a-vertical": ([*UPRIGHT, seg(5, 4, 5, 2), seg(5, 2, 3.25, 2)], (3, 1), True),
    # the strand ends at the vertical's top, or just above it
    "ending-at-a-vertical's-top": (
        [*UPRIGHT, seg(5, 4, 5, 6), seg(5, 6, 1, 6), seg(1, 6, 3, 4)],
        (3, 4),
        False,
    ),
    "ending-above-a-vertical's-top": (
        [*UPRIGHT, seg(5, 4, 5, 6), seg(5, 6, 1, 6), seg(1, 6, 3, 4.5)],
        (3, 4),
        True,
    ),
    # against path order: a horizontal through the peak, or above it
    "westward-touch-from-above": ([*WESTWARD, seg(1, 1, 1, 3), seg(1, 3, 4, 3)], (3, 3), False),
    "westward-clear-from-above": (
        [*WESTWARD, seg(1, 1, 1, 3.25), seg(1, 3.25, 4, 3.25)],
        (3, 3),
        True,
    ),
    # a vertical up to an east arc's top pole, which also passes its bottom
    # pole; the strand then runs west from the bottom pole, a chain's vertex
    "consecutive-meeting-away-from-the-joint": (
        [
            seg(1, 0.75, 4, 0.75),
            seg(4, 0.75, 4, 5),
            HalfCircle((4.0, 3.0), 2.0, "east"),
            seg(4, 1, 2, 1),
        ],
        (4, 5),
        False,
    ),
    "consecutive-meeting-only-at-the-joint": (
        [
            seg(1, 1.25, 4, 1.25),
            seg(4, 1.25, 4, 5),
            HalfCircle((4.0, 3.0), 2.0, "east"),
            seg(4, 1, 2, 1),
        ],
        (4, 5),
        True,
    ),
    # out of chain: a piece starts where a piece that is not next to it ends
    "start-where-a-stranger-ends": (
        [seg(3, 3, 1, 1), seg(4, 5, 6, 5), seg(3, 3, 5, 1)],
        (3, 3),
        False,
    ),
    "start-near-where-a-stranger-ends": (
        [seg(3, 3, 1, 1), seg(4, 5, 6, 5), seg(3.25, 3, 5, 1)],
        (3, 3),
        True,
    ),
}

# the sweep searches at these vertices: two parts start there, or the
# one that starts is not of a piece next to the one that ends
SEARCHED = {
    "chains-sharing-a-vertex",
    "start-where-a-stranger-ends",
    "start-near-where-a-stranger-ends",
}


def chain_vertices(diagram):
    """The points where the sweep takes a chain step, in model units.

    At such a point exactly one part starts, it is not a point, and its
    piece meets the piece before or after it there, at their joint.
    """
    pegs, _, pieces = taffy._on_grid(diagram)
    k = pegs[1][0] / sorted(diagram.pegs)[1][0]
    starting = {}
    for part in taffy._parts(pieces):
        starting.setdefault(part[0], []).append(part)
    vertices = set()
    for p, (b, *others) in starting.items():
        j = b[2]
        if not others and b[1] != p and any(
            0 <= i < len(pieces) and pieces[min(i, j)].end == p == pieces[max(i, j)].start
            for i in (j - 1, j + 1)
        ):
            vertices.add((p[0] / k, p[1] / k))
    return vertices


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_contacts_at_chain_vertices_match_the_scan(name):
    pieces, vertex, embedded = CHAINS[name]
    d = hand_diagram(pieces, LayerCounts(right=0, left=0))
    assert (vertex in chain_vertices(d)) == (name not in SEARCHED)
    assert agreed_verdict(d) == embedded
    assert agreed_verdict(rotate_taffy(d)) == embedded


def test_the_sweep_searches_only_off_the_chains(monkeypatch):
    # A search costs about log2 of the parts crossing the sweep in side
    # tests: with one at every event 233/377 took 11.6 per piece, with
    # none at a chain's vertex 3.9.
    calls = []
    side = taffy._side

    def counted(part, x, y):
        calls.append(None)
        return side(part, x, y)

    monkeypatch.setattr(taffy, "_side", counted)
    _, _, pieces = taffy._on_grid(build_taffy(make(233, 377)))
    assert taffy._no_self_crossings(pieces)
    assert len(calls) < 6 * len(pieces)


# --- the walks verify_taffy replaced ---------------------------------------------------

def reference_crossings(pieces, *lines) -> list:
    """Count transversal crossings of each vertical line x = c in lines."""
    xs = []
    for piece in pieces:
        if isinstance(piece, HalfCircle):
            (cx, _), r, side, _ = piece
            xs += (cx, cx - r if side == "west" else cx + r, cx)
        else:
            (x1, _), (x2, _) = piece
            xs += (x1, x2)
    counts = []
    for c in lines:
        signs = [v for v in [(x > c) - (x < c) for x in xs] if v]
        counts.append(sum(a != b for a, b in zip(signs, signs[1:])))
    return counts


def reference_clear_of_pegs(pieces, pegs, rho) -> bool:
    """Does every piece keep at least rho from every peg?"""
    for piece in pieces:
        x0, y0, x1, y1 = bounding_box(piece)
        for px, py in pegs:
            if (
                x0 - rho < px < x1 + rho
                and y0 - rho < py < y1 + rho
                and comes_within(piece, (px, py), rho)
            ):
                return False
    return True


def reference_walk_report(diagram):
    """``verify_taffy``'s report from the separate walks, with the sweep's verdict."""
    pegs, rho, pieces = taffy._on_grid(diagram)
    gl = (pegs[0][0] + pegs[1][0]) // 2
    gr = (pegs[1][0] + pegs[2][0]) // 2
    chained = bool(pieces) and all(a.end == b.start for a, b in zip(pieces, pieces[1:]))
    is_open = bool(pieces) and pieces[0].start != pieces[-1].end
    right, left = reference_crossings(pieces, gr, gl)
    ends_on_pegs = bool(pieces) and all(
        any((e[0] - px) ** 2 + (e[1] - py) ** 2 == rho * rho for px, py in pegs)
        for e in (pieces[0].start, pieces[-1].end)
    )
    clear = reference_clear_of_pegs(pieces, pegs, rho)
    return TaffyReport(
        expected=diagram.counts,
        measured=LayerCounts(right=right, left=left),
        single_arc=chained and is_open,
        ends_on_pegs=ends_on_pegs,
        embedded=clear and taffy._no_self_crossings(pieces),
    ), clear


def test_the_walk_matches_the_separate_walks_on_criterion_7():
    # every eighth value, of every size: all 1,880 take about 5 s
    for q in criterion_7_values()[::8]:
        d = build_taffy(q)
        report = verify_taffy(d)
        assert report == reference_walk_report(d)[0], q
        assert report.passes


def test_the_walk_matches_the_separate_walks_on_mutations():
    rng = random.Random(26)
    values = [q for q in criterion_7_values() if abs(q.num) + q.den <= 30]
    seen = set()
    for _ in range(300):
        d = mutate(build_taffy(rng.choice(values)), rng)
        want, clear = reference_walk_report(d)
        assert verify_taffy(d) == want, d
        seen.add((clear, want.counts_match))
    # every mutation breaks the chain; some touch a peg and some move a count
    assert seen == {(a, b) for a in (False, True) for b in (False, True)}


# --- moved joints: mutations that keep the strand chained ---------------------------

def move_joint(diagram, rng):
    """Move the joint of two consecutive segments by up to 2 each way, in steps of 1/4.

    Piece k's end and piece k + 1's start move together, so the strand
    stays one chain and the sweep meets the moved vertex, where it is
    still a chain's vertex, by the chain step.  Returns the mutant and
    the moved joint.
    """
    strand = list(diagram.strand)
    segments = [isinstance(piece, Segment) for piece in strand]
    k = rng.choice([k for k in range(len(strand) - 1) if segments[k] and segments[k + 1]])
    (x1, y1), (x, y) = strand[k]
    x2, y2 = strand[k + 1].end
    x, y = x + _quarters(rng, -8, 8), y + _quarters(rng, -8, 8)
    strand[k : k + 2] = seg(x1, y1, x, y), seg(x, y, x2, y2)
    return diagram._replace(strand=tuple(strand)), (x, y)


def test_moved_joints_keep_the_chain_and_match_the_scan():
    rng = random.Random(27)
    built = [build_taffy(make(num, den)) for num, den in ((8, 13), (13, 21), (21, 34))]
    seen = set()
    for d in built + [rotate_taffy(d) for d in built]:
        for _ in range(50):
            mutant, joint = move_joint(d, rng)
            agreed_verdict(mutant)
            report = verify_taffy(mutant)
            assert report.single_arc, mutant
            seen.add((report.embedded, joint in chain_vertices(mutant)))
    # both verdicts occur, each also with the moved joint met as a chain's vertex
    assert seen >= {(False, True), (True, True)}
