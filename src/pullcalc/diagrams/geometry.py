"""Flat drawable pieces and the exact predicates the verifier needs.

Two piece kinds are enough for every diagram here: straight segments
and half circles (always a full semicircle, bulging either west or
east).  The predicates are exact on the integer grid: given pieces
with int coordinates and radii they use only ``+ - *`` and
comparisons, so every decision is a sign test with no tolerance.
Contacts involving an arc can lie at irrational points; ``_sign``
decides the sign of ``u + v*sqrt(D)`` from the integers alone.
"""

from __future__ import annotations

from typing import NamedTuple

Point = tuple  # (x, y)


class Segment(NamedTuple):
    start: Point
    end: Point


class _HalfCircle(NamedTuple):
    center: Point
    radius: float
    side: str  # "west" or "east": which half of the circle is drawn
    start_at_top: bool = True


class HalfCircle(_HalfCircle):
    """The west or east half of a circle, drawn from one pole to the other.

    The ends are the poles of the circle, never stored on their own,
    so an arc cannot claim ends its circle does not pass through.
    """

    __slots__ = ()

    def __new__(cls, center, radius, side, start_at_top=True):
        if side not in ("west", "east"):
            raise ValueError("side must be 'west' or 'east'")
        if not radius > 0:
            raise ValueError("radius must be positive")
        return super().__new__(cls, center, radius, side, start_at_top)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace is checked too

    @property
    def start(self) -> Point:
        cx, cy = self.center
        return (cx, cy + self.radius if self.start_at_top else cy - self.radius)

    @property
    def end(self) -> Point:
        cx, cy = self.center
        return (cx, cy - self.radius if self.start_at_top else cy + self.radius)



def reverse_piece(piece):
    if isinstance(piece, Segment):
        return Segment(piece.end, piece.start)
    return HalfCircle(piece.center, piece.radius, piece.side, not piece.start_at_top)


def rotate_piece_180(piece, center: Point):
    """Rotate half a turn about a point; an arc's bulge and direction flip."""
    tx, ty = 2.0 * center[0], 2.0 * center[1]  # p -> (tx, ty) - p
    if isinstance(piece, Segment):
        (x1, y1), (x2, y2) = piece
        return Segment((tx - x1, ty - y1), (tx - x2, ty - y2))
    (x, y), radius, side, start_at_top = piece
    return HalfCircle(
        (tx - x, ty - y), radius, "east" if side == "west" else "west", not start_at_top
    )


def bounding_box(piece):
    """(xmin, ymin, xmax, ymax); arcs get the tight half-disc box."""
    if isinstance(piece, Segment):
        (x1, y1), (x2, y2) = piece.start, piece.end
        return (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
    cx, cy = piece.center
    r = piece.radius
    if piece.side == "west":
        return (cx - r, cy - r, cx, cy + r)
    return (cx, cy - r, cx + r, cy + r)


def _sign(u, v, d) -> int:
    """Sign of u + v*sqrt(d) for integers u, v and d >= 0."""
    su = (u > 0) - (u < 0)
    sv = (v > 0) - (v < 0) if d else 0
    if su == sv or sv == 0:
        return su
    if su == 0:
        return sv
    gap = u * u - v * v * d
    return su if gap > 0 else sv if gap < 0 else 0


def _on_side(side, u, v, d) -> bool:
    """Is a point with x - cx of the sign of u + v*sqrt(d) on the drawn half?"""
    s = _sign(u, v, d)
    return s <= 0 if side == "west" else s >= 0


def comes_within(piece, p: Point, rho) -> bool:
    """Is some point of the piece strictly closer than rho to p?"""
    px, py = p
    if isinstance(piece, HalfCircle):
        (cx, cy), r = piece.center, piece.radius
        vx, vy = px - cx, py - cy
        on_half = vx <= 0 if piece.side == "west" else vx >= 0
        if on_half:
            n2 = vx * vx + vy * vy  # |sqrt(n2) - r| < rho
            return n2 < (r + rho) ** 2 and (r < rho or n2 > (r - rho) ** 2)
    else:
        (x1, y1), (x2, y2) = piece.start, piece.end
        dx, dy = x2 - x1, y2 - y1
        wx, wy = px - x1, py - y1
        dd = dx * dx + dy * dy
        if 0 < wx * dx + wy * dy < dd:  # the foot lies inside the segment
            return (dx * wy - dy * wx) ** 2 < rho * rho * dd
    rr = rho * rho
    return any((px - x) ** 2 + (py - y) ** 2 < rr for x, y in (piece.start, piece.end))


def _seg_seg(a: Segment, b: Segment):
    (x1, y1), (x2, y2) = a.start, a.end
    (x3, y3), (x4, y4) = b.start, b.end
    rx, ry = x2 - x1, y2 - y1
    sx, sy = x4 - x3, y4 - y3
    if rx * sy != ry * sx:
        # the lines meet in one point; it is on both segments unless
        # some segment has both ends strictly on one side of the other
        d1 = sx * (y1 - y3) - sy * (x1 - x3)
        d2 = sx * (y2 - y3) - sy * (x2 - x3)
        d3 = rx * (y3 - y1) - ry * (x3 - x1)
        d4 = rx * (y4 - y1) - ry * (x4 - x1)
        return int(d1 * d2 <= 0 and d3 * d4 <= 0), False
    # parallel: collinear pieces meet where their boxes meet
    if rx or ry:
        if rx * (y3 - y1) != ry * (x3 - x1):
            return 0, False
    elif sx * (y1 - y3) != sy * (x1 - x3):
        return 0, False
    lo_x, hi_x = max(min(x1, x2), min(x3, x4)), min(max(x1, x2), max(x3, x4))
    lo_y, hi_y = max(min(y1, y2), min(y3, y4)), min(max(y1, y2), max(y3, y4))
    if lo_x > hi_x or lo_y > hi_y:
        return 0, False
    if lo_x == hi_x and lo_y == hi_y:
        return 1, False
    return 0, True  # a shared sub-segment


def _seg_arc(seg: Segment, arc: HalfCircle):
    (x1, y1), (x2, y2) = seg.start, seg.end
    (cx, cy), r = arc.center, arc.radius
    dx, dy = x2 - x1, y2 - y1
    fx, fy = x1 - cx, y1 - cy
    a = dx * dx + dy * dy
    c = fx * fx + fy * fy - r * r
    if a == 0:
        return int(c == 0 and _on_side(arc.side, fx, 0, 0)), False
    # seg(t) is on the circle at t = (-b +- sqrt(disc)) / a
    b = fx * dx + fy * dy
    disc = b * b - a * c
    if disc < 0:
        return 0, False
    u = a * fx - b * dx  # a * (x - cx) = u +- dx * sqrt(disc)
    count = 0
    for s in (1, -1) if disc else (1,):
        if (
            _sign(-b, s, disc) >= 0  # t >= 0
            and _sign(a + b, -s, disc) >= 0  # t <= 1
            and _on_side(arc.side, u, s * dx, disc)
        ):
            count += 1
    return count, False


def _arc_arc(a: HalfCircle, b: HalfCircle):
    (x1, y1), r1 = a.center, a.radius
    (x2, y2), r2 = b.center, b.radius
    dx, dy = x2 - x1, y2 - y1
    dd = dx * dx + dy * dy
    if dd == 0:
        if r1 != r2:
            return 0, False  # concentric, different radii
        if a.side == b.side:
            return 0, True  # the very same semicircle
        return 2, False  # shared poles
    # contacts at x = x1 + (k * dx -+ dy * sqrt(h)) / (2 * dd)
    k = r1 * r1 - r2 * r2 + dd
    h = 4 * dd * r1 * r1 - k * k
    if h < 0:
        return 0, False
    count = 0
    for s in (1, -1) if h else (1,):
        if _on_side(a.side, k * dx, -s * dy, h) and _on_side(
            b.side, (k - 2 * dd) * dx, -s * dy, h
        ):
            count += 1
    return count, False


def piece_intersections(a, b):
    """Contacts of two pieces: (count, overlap).

    count is the number of isolated shared points; overlap is set when
    the pieces share a whole sub-curve instead, and count is then 0.
    The answer is exact for int coordinates and radii, which is what
    verify_taffy passes in.
    """
    a_seg = isinstance(a, Segment)
    b_seg = isinstance(b, Segment)
    if a_seg and b_seg:
        return _seg_seg(a, b)
    if a_seg:
        return _seg_arc(a, b)
    if b_seg:
        return _seg_arc(b, a)
    return _arc_arc(a, b)
