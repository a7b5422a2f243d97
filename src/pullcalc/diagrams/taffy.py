"""Three-peg taffy diagrams: reconstruction, verification, SVG output.

``build_taffy`` lays out a single open strand around three collinear
pegs so that the strand crosses the left gap line ``left`` times and
the right gap line ``right`` times, where ``right/left`` is the target
number in lowest terms.  ``verify_taffy`` re-measures those counts
from the raw geometry and checks that the strand is one embedded arc
with both ends on pegs, so the builder never gets to grade its own
homework.  One walk, ``_walk``, reads each piece once for the counts,
the chaining, the peg clearance and the parts of the sweep below.

The embedding check is a Shamos-Hoey plane sweep (FOCS 1976) on the
exact predicates of ``geometry``.  Each half circle is split at its
equator into two x-monotone quarters; the sweep visits part ends in
(x, y) order, orders the parts it holds by one exact side test alone,
and pairs only the parts that meet at such a point or become
neighbours in the sweep, less than two and a half pairs per piece
instead of every pair of pieces with overlapping boxes.  Most of those
pairs have y ranges apart and pass on that alone, so
``piece_intersections`` decides about three pairs in four pieces
(1,965 for the 2,583 pieces of 233/377).  A built strand is a few long
x-monotone chains, and at a chain's interior vertex (1,900 of the 2,888
event points of 233/377) the next part takes the place of the last
with no search; those two parts, which meet only at their joint, are
the one pair not tested.  Peg clearance decides only the pieces whose
box comes near a peg.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from ..rationals import ExtRational
from ..treewalk import LayerCounts
from .geometry import (
    HalfCircle,
    Segment,
    _sign,
    comes_within,
    piece_intersections,
    reverse_piece,
    rotate_piece_180,
)

PEG_RADIUS = 0.5
STRAND_GAP = 6.0  # SVG pixels per model unit, the spacing of neighbouring layers
STROKE_WIDTH = 2.0
TAFFY_CAP = 10000  # largest |num| + den that build_taffy draws


class TaffyDiagram(NamedTuple):
    pegs: tuple  # three (x, y) centers, west to east, each of radius PEG_RADIUS
    strand: tuple  # drawable pieces in path order
    counts: LayerCounts


class TaffyReport(NamedTuple):
    expected: LayerCounts
    measured: LayerCounts
    single_arc: bool
    ends_on_pegs: bool
    embedded: bool

    @property
    def counts_match(self) -> bool:
        return self.expected == self.measured

    @property
    def passes(self) -> bool:
        return self.counts_match and self.single_arc and self.ends_on_pegs and self.embedded


def _assemble(units):
    """Flatten connection units into one ordered strand.

    Each unit is (pieces, end_a, end_b) where the ends are stub keys
    ("left", i) / ("right", j) or peg keys ("peg", n).  Every stub key
    must be shared by exactly two units; the walk starts at the
    westmost peg end and must consume everything, otherwise the
    connection pattern does not describe a single arc and we refuse to
    guess.
    """
    by_end = {}
    for idx, (_, ea, eb) in enumerate(units):
        by_end.setdefault(ea, []).append(idx)
        by_end.setdefault(eb, []).append(idx)
    peg_keys = sorted(k for k in by_end if k[0] == "peg")
    if len(peg_keys) != 2:
        raise RuntimeError("expected exactly two peg endpoints, found %r" % (peg_keys,))
    for key, owners in by_end.items():
        want = 1 if key[0] == "peg" else 2
        if len(owners) != want:
            raise RuntimeError("connection point %r used %d times, not %d" % (key, len(owners), want))
    path = []
    used = [False] * len(units)
    key = peg_keys[0]
    idx = by_end[key][0]
    while True:
        used[idx] = True
        pieces, ea, eb = units[idx]
        if ea == key:
            path.extend(pieces)
            key = eb
        else:
            path.extend(reverse_piece(p) for p in reversed(pieces))
            key = ea
        if key[0] == "peg":
            break
        one, other = by_end[key]
        idx = other if one == idx else one
    if not all(used):
        raise RuntimeError("%d units left over; pattern is not a single arc" % (len(units) - sum(used)))
    return tuple(path)


def build_taffy(q: ExtRational) -> TaffyDiagram:
    """Reconstruct a taffy diagram whose measured value is q.

    The strand is laid out for the count pair l >= r, gcd 1, measured
    as left = l crossings and right = r crossings, and drawn mirrored
    across the middle peg when the right count is the larger, upside
    down for a negative value.  The picture of -1/q is the half-turn
    ``rotate_taffy`` of the picture of q, so -1/1, the half-turn of
    1/1, mirrors as well.  The verifier re-measures the counts from
    scratch.  Values with |num| + den past TAFFY_CAP are refused before
    any work.

    Left stub i sits at (gl, l+1-2i), right stub j at (gr, r+1-2j).
    Each outer peg pairs its own stubs, outermost first, into rainbows
    round it, plus one arm onto it when its count is odd.  The first r
    left stubs run straight through to the right stubs on elevated
    tracks, the surplus d = l - r is soaked up by w = d//2 hairpins
    around the middle peg plus one arm onto it when d is odd.  Every
    track is placed above (or below) the whole stub band it serves, so
    each vertical runs monotonically from its stub to its track and
    entries sliding along the stub heights always pass under the
    verticals already placed.  Each unit is laid out by its corner
    points in that l >= r frame, and one map, ``at``, mirrors and flips
    every corner and rainbow centre into place.
    """
    if abs(q.num) + q.den > TAFFY_CAP:
        raise ValueError("taffy diagrams are capped at %d layers" % TAFFY_CAP)
    right, left = abs(q.num), q.den
    flip = q.num < 0
    mirror = right > left or (flip and right == left)
    l, r = max(right, left), min(right, left)
    t = l + r
    big_d = 2 * t + 6
    gl, gr = t + 3, 3 * t + 9
    w, arm = divmod(l - r, 2)  # hairpins round the middle peg, and its arm
    x0, xs = (2 * big_d, -1) if mirror else (0, 1)
    ys = -1 if flip else 1
    west, east = ("east", "west") if mirror else ("west", "east")  # rainbow bulges
    top = not flip  # rainbows start at their top pole

    def at(x, y):  # the one orientation map: mirrored, then flipped
        return (float(x0 + xs * x), float(ys * y))

    def path(*xy):  # segments through the corners (x, y), (x, y), ...
        corners = list(map(at, xy[::2], xy[1::2]))
        return list(map(Segment, corners, corners[1:]))

    def s(i):  # left stub heights, top to bottom
        return l + 1 - 2 * i

    base = max(l - 1 - 2 * r, 0)  # top of the hairpin stub band, floored at 0
    p0 = max(l, base + w + 1)  # through tracks start above everything else

    units = []

    def outer(n, key, peg, gap, bulge, tip):
        # rainbows round peg number ``peg`` from the n stubs at x = gap,
        # plus the arm from the middle stub to the peg's rim at x = tip
        x = peg * big_d
        centre = at(x, 0)
        for i in range(1, n // 2 + 1):
            h = n + 1 - 2 * i
            pieces = [
                Segment(at(gap, h), at(x, h)),
                HalfCircle(centre, float(h), bulge, top),
                Segment(at(x, -h), at(gap, -h)),
            ]
            units.append((pieces, (key, i), (key, n + 1 - i)))
        if n % 2:
            units.append(([Segment(at(gap, 0), at(tip, 0))], (key, (n + 1) // 2), ("peg", peg)))

    outer(l, "left", 0, gl, west, PEG_RADIUS)
    outer(r, "right", 2, gr, east, 2 * big_d - PEG_RADIUS)

    # throughs: left stub i to right stub i over the top tracks
    for i in range(1, r + 1):
        hw, he = s(i), r + 1 - 2 * i
        col, ecol = gl + i, gr - i
        track = p0 + (r - i) + 0.5
        pieces = path(gl, hw, col, hw, col, track, ecol, track, ecol, he, gr, he)
        units.append((pieces, ("left", i), ("right", i)))

    # hairpins around the middle peg for the surplus, outermost first
    for j in range(1, w + 1):
        top_i, bot_i = r + j, l + 1 - j
        hu, hw_ = s(top_i), s(bot_i)
        a, b = gl + top_i, gl + bot_i
        track = base + (w - j) + 1.5
        bot_track = hw_ - 0.5
        ecol = big_d + arm + (w - j + 1)
        pieces = path(gl, hu, a, hu, a, track, ecol, track, ecol, bot_track, b, bot_track, b, hw_, gl, hw_)
        units.append((pieces, ("left", top_i), ("left", bot_i)))

    # odd surplus: one arm lands on the middle peg
    if arm:
        i = r + w + 1
        if r == 0:
            pieces = path(gl, 0, big_d - PEG_RADIUS, 0)
        else:
            col = gl + i
            pieces = path(gl, -r, col, -r, col, 0, big_d - PEG_RADIUS, 0)
        units.append((pieces, ("left", i), ("peg", 1)))

    pegs = ((0.0, 0.0), (float(big_d), 0.0), (2.0 * big_d, 0.0))
    return TaffyDiagram(pegs, _assemble(units), LayerCounts(right=right, left=left))


def rotate_taffy(d: TaffyDiagram) -> TaffyDiagram:
    """Half-turn about the middle peg; swaps the two layer counts."""
    mid = sorted(d.pegs)[1]
    strand = tuple(rotate_piece_180(p, mid) for p in d.strand)
    return TaffyDiagram(d.pegs, strand, LayerCounts(right=d.counts.left, left=d.counts.right))


def _walk(pegs, rho, pieces):
    """Read each grid piece once: (left, right, chained, clear, parts).

    ``left`` and ``right`` count the gap lines' crossings: the strand's
    sample points (each piece's ends in path order, and each arc's
    sideways extreme) change sides of a line once per crossing, points
    on it skipped.  ``chained``: each piece starts where the last ends.
    ``clear``: no piece comes within rho of a peg; only a piece whose
    box comes that close can, so ``comes_within`` decides just those.

    ``parts`` is the strand as flat x-monotone parts for the sweep.  A
    part is (start, end, i, piece, ylo, yhi, t, u, v, w): start is the
    lexicographically smaller end, i the index of ``piece`` in the
    strand, [ylo, yhi] its y range, and t, u, v, w the coefficients of
    its side test (see ``_side``).  A segment is one part with t = 0,
    u, v = end - start and w = u * sy - v * sx, start = (sx, sy).  A
    half circle is split at its equator into an upper quarter (t = -1)
    and a lower one (t = 1), with u, v = cx, cy and w = r * r, so each
    quarter is the graph of y = cy - t * sqrt(r*r - (x - cx)**2).
    """
    gl = (pegs[0][0] + pegs[1][0]) // 2
    gr = (pegs[1][0] + pegs[2][0]) // 2
    clear = chained = bool(pieces)
    end = pieces[0].start if pieces else None
    left = right = sl = sr = 0  # sl, sr: the side of gl, gr the last sample off it was on
    peg_ys = [py for _, py in pegs]
    ylo, yhi = min(peg_ys) - rho, max(peg_ys) + rho  # a piece outside clears every peg
    parts = []
    for i, piece in enumerate(pieces):
        if isinstance(piece, HalfCircle):
            (cx, cy), r, side, top = piece
            ex = cx - r if side == "west" else cx + r
            xs = (cx, ex, cx)
            x0, x1 = min(cx, ex), max(cx, ex)
            y0, y1 = cy - r, cy + r
            north, south = (cx, y1), (cx, y0)
            start, stop = (north, south) if top else (south, north)
            equator, rr = (ex, cy), r * r
            for t, pole, lo, hi in ((-1, north, cy, y1), (1, south, y0, cy)):
                a, b = (equator, pole) if equator < pole else (pole, equator)
                parts.append((a, b, i, piece, lo, hi, t, cx, cy, rr))
        else:
            start, stop = piece
            xs = (start[0], stop[0])
            a, b = (stop, start) if stop < start else (start, stop)
            (x0, ya), (x1, yb) = a, b
            u, v = x1 - x0, yb - ya
            y0, y1 = (ya, yb) if v >= 0 else (yb, ya)
            parts.append((a, b, i, piece, y0, y1, 0, u, v, u * ya - v * x0))
        chained = chained and start == end
        end = stop
        for x in xs:  # a change of side counts 1, the first side seen 0
            if x < gl and sl >= 0:
                left += sl
                sl = -1
            elif x > gl and sl <= 0:
                left -= sl
                sl = 1
            if x < gr and sr >= 0:
                right += sr
                sr = -1
            elif x > gr and sr <= 0:
                right -= sr
                sr = 1
        if clear and y0 < yhi and ylo < y1:
            for px, py in pegs:
                if x0 - rho < px < x1 + rho and y0 - rho < py < y1 + rho:
                    clear = clear and not comes_within(piece, (px, py), rho)
    return left, right, chained, clear, parts


def _side(part, x, y) -> int:
    """Sign of the point (x, y) against an active part: 1 above, 0 on, -1 below.

    The part spans x.  A segment's test is the sign of u * y - v * x - w;
    an active vertical segment always holds the event point, since
    events visit points in (x, y) order, so its test reads 0 there.
    """
    t = part[6]
    if t:
        return _sign(y - part[8], t, part[9] - (x - part[7]) ** 2)
    v = part[7] * y - part[8] * x - part[9]
    return (v > 0) - (v < 0)


def _clash(a, b) -> bool:
    """Do the pieces of parts a and b touch anywhere but at their shared joint?

    A piece never clashes with itself: its two quarters meet only at
    its equator.

    Parts whose boxes are apart pass without a test.  The sweep pairs
    only parts that both span the event's x, so their x ranges always
    meet and the y ranges decide.  This is sound because the sweep's
    invariant is per part: the first contact of two parts is tested no
    later than the sweep reaches it, and that contact lies on both
    parts, so both parts' boxes hold it and the test is made.  Two
    pieces that touch away from these parts touch at other parts of
    theirs, and are caught there.
    """
    if a[5] < b[4] or b[5] < a[4]:
        return False
    i, j = a[2], b[2]
    if i == j:
        return False
    if j < i:
        a, b, i, j = b, a, j, i
    count, overlap = piece_intersections(a[3], b[3])
    if overlap:
        return True
    if count == 0:
        return False
    return not (j == i + 1 and count == 1 and a[3].end == b[3].start)


def _no_self_crossings(pieces, parts) -> bool:
    """Is every contact of two pieces the joint of consecutive pieces?

    A Shamos-Hoey sweep over the x-monotone ``parts`` that ``_walk`` lays
    out narrows the pairs that ``_clash`` decides.  Events are the part
    ends in (x, y) order, which shears the sweep so that a vertical runs
    from its lower end to its upper end.  ``active`` holds a cell [part,
    cell below, cell above] for each part that crosses the sweep, bottom
    to top, and ``held`` maps a part's end to its cell.  Each pair that
    becomes adjacent is tested, so the first contact that is not a joint
    is tested no later than the sweep reaches it, before the order could
    go wrong.

    At a chain's interior vertex p a part a of piece i ends, and the one
    part that starts, b, is of piece i - 1 or i + 1, whose joint with
    piece i is p: b takes a's cell and is tested against its neighbours.
    No search is needed: once the sweep reaches p with no clash, no
    other active part holds p.  Those that hold p are one run of
    ``active`` whose adjacent pairs passed ``_clash``, so a's neighbour
    in the run would be of a piece whose joint with piece i is p (the
    other quarter of a's arc misses the pole p), b's piece, whose part
    through p is b, not yet active.  So ``held`` gives a's cell.  At
    every other event a binary search by ``_side`` finds the parts
    through p, every pair among them and the parts that start there is
    tested, and the ending parts make way for the new.  ``_clash``
    passes a joint pair it is given, consecutive pieces that meet once,
    at their joint.

    The pair not tested, at a chain's vertex, is a, which ends at p, and
    b, which starts there, of consecutive pieces whose joint is p.  a
    lies in x <= p.x and b in x >= p.x.  Each is x-monotone, so on the
    line x = p.x a holds p or a vertical up to p, b holds p or a
    vertical up from p: the two meet only at p.  Any other contact of
    the two pieces lies on another pair of their parts, and that pair
    is tested.

    At a chain's vertex the one part that leaves p takes the place of
    the one part that held p.  Elsewhere, once the pairs at p pass, at
    most two parts leave p: one of each of two consecutive pieces at
    their joint, or the two quarters of a west half circle at its
    equator.  Either way the two meet nowhere but p, so the end of the
    part that ends first lies strictly above or below the other part,
    which spans its x, and one side test orders them.  Every order the
    sweep keeps thus comes from ``_side``.
    """
    starting = {}
    points = set()
    for part in parts:
        starting.setdefault(part[0], []).append(part)
        points.add(part[0])
        points.add(part[1])
    active = []  # cells [part, cell below, cell above], bottom to top
    held = {}  # the cell of each active part, by the part's end
    last = len(pieces) - 1
    for p in sorted(points):
        new = starting.get(p, [])
        if len(new) == 1 and new[0][1] != p:
            b = new[0]
            j = b[2]
            if (0 < j and pieces[j - 1].end == p == pieces[j].start) or (
                j < last and pieces[j].end == p == pieces[j + 1].start
            ):
                cell = held[b[1]] = held.pop(p)
                _, below, above = cell
                cell[0] = b
                if (below and _clash(below[0], b)) or (above and _clash(b, above[0])):
                    return False
                continue
        x, y = p
        lo, hi = 0, len(active)
        while lo < hi:
            mid = (lo + hi) // 2
            if _side(active[mid][0], x, y) > 0:
                lo = mid + 1
            else:
                hi = mid
        top = lo
        while top < len(active) and _side(active[top][0], x, y) == 0:
            top += 1
        for a, b in itertools.combinations([cell[0] for cell in active[lo:top]] + new, 2):
            if _clash(a, b):
                return False
        # past these tests every part through p ends or starts there
        new = [part for part in new if part[1] != p]
        if len(new) > 1:
            a, b = sorted(new)  # one start, so the part that ends first is a
            new = [b, a] if _side(b, *a[1]) > 0 else [a, b]
        held.pop(p, None)
        for cell in active[lo:top]:
            cell[2] = None  # so the cells that leave hold no cycle
        cells = [[part, None, None] for part in new]
        run = [active[lo - 1] if lo else None, *cells, active[top] if top < len(active) else None]
        for c, d in zip(run, run[1:]):
            if c:
                c[2] = d
            if d:
                d[1] = c
        active[lo:top] = cells
        held.update(zip([part[1] for part in new], cells))
        if run[0] and run[1] and _clash(run[0][0], run[1][0]):
            return False
        if cells and run[-1] and _clash(run[-2][0], run[-1][0]):
            return False
    return True


def _on_grid(diagram: TaffyDiagram):
    """Pegs, peg radius and strand scaled onto the integer grid.

    A strand repeats few distinct coordinates, so each distinct value
    is read as a ratio and scaled once, through one dict.  The copies
    are built as bare records, without ``HalfCircle``'s side and radius
    checks: their sources passed them, and scaling by k > 0 keeps the
    side and a positive radius.
    """
    values = {PEG_RADIUS}
    for peg in diagram.pegs:
        values.update(peg)
    for piece in diagram.strand:
        if isinstance(piece, HalfCircle):
            values.update(piece.center)
            values.add(piece.radius)
        else:
            a, b = piece
            values.update(a + b)
    ratios = {v: v.as_integer_ratio() for v in values}
    k = 2 * math.lcm(*{den for _, den in ratios.values()})
    n = {v: num * (k // den) for v, (num, den) in ratios.items()}

    pegs = sorted((n[x], n[y]) for x, y in diagram.pegs)
    record = tuple.__new__
    pieces = []
    for piece in diagram.strand:
        if isinstance(piece, HalfCircle):
            (x, y), r, side, top = piece
            pieces.append(record(HalfCircle, ((n[x], n[y]), n[r], side, top)))
        else:
            (x1, y1), (x2, y2) = piece
            pieces.append(record(Segment, ((n[x1], n[y1]), (n[x2], n[y2]))))
    return pegs, n[PEG_RADIUS], pieces


def verify_taffy(diagram: TaffyDiagram) -> TaffyReport:
    """Re-measure a diagram and compare against its claimed counts.

    Every check is exact.  The pegs, the peg radius and every piece
    are first multiplied by k = 2 * lcm of the denominators of their
    coordinates and radii (floats are dyadic, so this is exact); the
    factor 2 puts the gap lines, halfway between neighbouring pegs, on
    the integer grid too.  From there every decision is a sign test on
    Python ints.

    One walk, ``_walk``, reads each grid piece once: it counts both gap
    lines, checks that each piece starts where the last ends, checks
    peg clearance and lays out the sweep's x-monotone parts.  The plane
    sweep (see the module docstring) then narrows the pairs of pieces
    that may touch with O(n log n) sign tests, and
    ``piece_intersections`` decides each.
    """
    pegs, rho, pieces = _on_grid(diagram)
    left, right, chained, clear, parts = _walk(pegs, rho, pieces)
    ends_on_pegs = bool(pieces) and all(
        any((e[0] - px) ** 2 + (e[1] - py) ** 2 == rho * rho for px, py in pegs)
        for e in (pieces[0].start, pieces[-1].end)
    )

    return TaffyReport(
        expected=diagram.counts,
        measured=LayerCounts(right=right, left=left),
        single_arc=chained and pieces[0].start != pieces[-1].end,
        ends_on_pegs=ends_on_pegs,
        embedded=clear and _no_self_crossings(pieces, parts),
    )


def _fmt(v: float) -> str:
    s = "%.2f" % v
    s = s.rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


class _Numbers(dict):
    """One document's numbers as SVG text: ``_fmt`` runs once per
    distinct value, the first time that value is looked up.  A writer
    makes one for each document and drops it with the call."""

    __slots__ = ()

    def __missing__(self, v):
        text = self[v] = _fmt(v)
        return text


def _svg(width: float, height: float, title: str, body: list) -> str:
    """A standalone SVG document of the given size: the opening tag,
    ``title``, the lines of ``body`` and the closing tag, one a line."""
    w, h = _fmt(width), _fmt(height)
    head = '<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" viewBox="0 0 %s %s">'
    return "\n".join([head % (w, h, w, h), "<title>%s</title>" % title, *body, "</svg>"])


def render_taffy_svg(diagram: TaffyDiagram) -> str:
    """Draw a verified diagram as a standalone SVG document.

    One model unit is STRAND_GAP pixels, and the frame holds the box of
    every piece and every peg, so a moved diagram draws the same SVG.
    Refuses diagrams that do not pass verification.
    """
    report = verify_taffy(diagram)
    if not report.passes:
        raise ValueError(
            "diagram fails verification: counts %s vs %s, single_arc=%s, "
            "ends_on_pegs=%s, embedded=%s" % report
        )

    # one pass over the strand: the frame, which holds every piece's box,
    # and each piece's end and path command
    pegs = sorted(diagram.pegs)
    xs = [px + d for px, _ in pegs for d in (-PEG_RADIUS, PEG_RADIUS)]
    ys = [py + d for _, py in pegs for d in (-PEG_RADIUS, PEG_RADIUS)]
    num = _Numbers()
    ends_x, ends_y, steps = [], [], []
    for piece in diagram.strand:
        if isinstance(piece, Segment):
            (x0, y0), (x, y) = piece
            xs += x0, x
            ys += y0, y
            steps.append("L %s %s")
        else:
            (x, cy), r, side, top = piece
            y = cy - r if top else cy + r
            xs += x, (x - r if side == "west" else x + r)
            ys += cy - r, cy + r
            # clockwise on screen: east from the top pole, west from the bottom
            r = num[r * STRAND_GAP]
            steps.append("A %s %s 0 0 %d %%s %%s" % (r, r, (side == "east") == top))
        ends_x.append(x)
        ends_y.append(y)
    xmin, ymin, xmax, ymax = min(xs), min(ys), max(xs), max(ys)
    pad = max(2.0 * STROKE_WIDTH, STRAND_GAP)

    def x_of(x):
        return (x - xmin) * STRAND_GAP + pad

    def y_of(y):
        return (ymax - y) * STRAND_GAP + pad

    width = (xmax - xmin) * STRAND_GAP + 2 * pad
    height = (ymax - ymin) * STRAND_GAP + 2 * pad

    gl = (pegs[0][0] + pegs[1][0]) / 2.0
    gr = (pegs[1][0] + pegs[2][0]) / 2.0

    parts = []
    for line_x, cls, count in (
        (gl, "gap gap-left", diagram.counts.left),
        (gr, "gap gap-right", diagram.counts.right),
    ):
        parts.append(
            '<line class="%s" x1="%s" y1="0" x2="%s" y2="%s" stroke="#999" '
            'stroke-width="1" stroke-dasharray="4 4" data-layers="%d"/>'
            % (cls, num[x_of(line_x)], num[x_of(line_x)], num[height], count)
        )

    text_x = {x: num[x_of(x)] for x in set(ends_x)}
    text_y = {y: num[y_of(y)] for y in set(ends_y)}
    x, y = diagram.strand[0].start
    d_parts = ["M %s %s" % (num[x_of(x)], num[y_of(y)])]
    d_parts += [step % (text_x[x], text_y[y]) for step, x, y in zip(steps, ends_x, ends_y)]
    parts.append(
        '<path class="strand" d="%s" fill="none" stroke="#b03030" '
        'stroke-width="%s" stroke-linecap="round" stroke-linejoin="round"/>'
        % (" ".join(d_parts), num[STROKE_WIDTH])
    )

    for px, py in pegs:
        parts.append(
            '<circle class="peg" cx="%s" cy="%s" r="%s" fill="#333"/>'
            % (num[x_of(px)], num[y_of(py)], num[PEG_RADIUS * STRAND_GAP])
        )
    title = "taffy pull: left %d, right %d" % (diagram.counts.left, diagram.counts.right)
    return _svg(width, height, title, parts)
