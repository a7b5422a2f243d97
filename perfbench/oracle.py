"""Answers computed apart from pullcalc, used to check its outputs.

Nothing here imports pullcalc.  Words are read from the same text the
program reads, into runs ``[(letter, exponent), ...]`` with letter 0
for R (or V) and 1 for L (or H), and every number is an integer pair
or a ``fractions.Fraction``.  The methods are the textbook ones:

- a turn acts on the column (a, b) as a 2x2 integer matrix,
  R^k = [[1, k], [0, 1]] and L^k = [[1, 0], [k, 1]], starting from
  (0, 1); the pair is read as a projective point, so (a, 0) is 1/0;
- the canonical word of a/b > 0 is read off the Euclidean algorithm
  with quotients, run backwards; negative values negate every run;
- Calkin-Wilf rows come from Newman's recurrence x <- 1/(2[x] - x + 1);
- crossings of an SVG path with a vertical line are counted from the
  path data alone.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

LETTERS = {"R": 0, "L": 1, "V": 0, "H": 1}


class Value:
    """An extended rational in lowest terms, den >= 0, 1/0 for infinity."""

    __slots__ = ("num", "den")

    def __init__(self, a: int, b: int):
        if b < 0 or (b == 0 and a < 0):
            a, b = -a, -b
        g = math.gcd(a, b)
        if g == 0:
            raise ValueError("0/0")
        self.num, self.den = a // g, b // g

    def __eq__(self, other):
        return (self.num, self.den) == (other.num, other.den)

    def __str__(self):
        return "%d/%d" % (self.num, self.den)


def same_value(q, value: Value) -> bool:
    """Does a pullcalc fraction (anything with num/den) equal ``value``?"""
    return (q.num, q.den) == (value.num, value.den)


# --- words ----------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(e)|([A-Za-z])(?:\^([+-]?\d+))?)")


def read_runs(text: str, alphabet: str = "RL"):
    """Parse turn or twist notation into runs, without expanding them."""
    runs = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("unreadable word at offset %d" % pos)
        pos = m.end()
        if m.group(1):
            continue
        ch = m.group(2)
        if ch.upper() not in alphabet:
            raise ValueError("unexpected letter %r" % ch)
        k = int(m.group(3)) if m.group(3) else 1
        if ch.islower():
            k = -k
        runs.append((LETTERS[ch.upper()], k))
    return runs


def fold(runs) -> Value:
    """The number of a word: its matrix product applied to (0, 1)."""
    a, b = 0, 1
    for letter, k in runs:
        if letter == 0:
            a += k * b
        else:
            b += k * a
    return Value(a, b)


def prefix_values(runs):
    """The value after every single turn, seed first."""
    a, b = 0, 1
    out = [Value(a, b)]
    for letter, k in runs:
        step = 1 if k > 0 else -1
        for _ in range(abs(k)):
            if letter == 0:
                a += step * b
            else:
                b += step * a
            out.append(Value(a, b))
    return out


def reduced_runs(runs):
    """Free reduction in run form: merge equal letters, drop zero runs."""
    out = []
    for letter, k in runs:
        if k == 0:
            continue
        if out and out[-1][0] == letter:
            total = out[-1][1] + k
            out.pop()
            if total:
                out.append((letter, total))
        else:
            out.append((letter, k))
    return out


def signed_run_tuple(runs) -> tuple:
    """Run lengths alternating R, L, R, ... with a leading 0 for an L start."""
    red = reduced_runs(runs)
    lengths = [k for _, k in red]
    if red and red[0][0] == 1:
        lengths.insert(0, 0)
    return tuple(lengths)


def runs_text(runs, names=("R", "L")) -> str:
    """Run notation, ``e`` for the empty word: R^2 L R^-1."""
    parts = []
    for letter, k in runs:
        parts.append(names[letter] if k == 1 else "%s^%d" % (names[letter], k))
    return " ".join(parts) if parts else "e"


def plain_text(runs, names=("R", "L")) -> str:
    """One token per turn, ``e`` for the empty word."""
    parts = []
    for letter, k in runs:
        token = names[letter] if k > 0 else names[letter] + "^-1"
        parts.extend([token] * abs(k))
    return " ".join(parts) if parts else "e"


def canonical_runs(value: Value):
    """The canonical word of ``value`` as runs, from Euclid's quotients."""
    if value.den == 0:
        return [(0, 1), (1, -1)]
    if value.num == 0:
        return []
    a, b = abs(value.num), value.den
    trail = []
    while (a, b) != (0, 1):
        if a >= b:
            k = a // b
            a -= k * b
            trail.append((0, k))
        else:
            k = b // a
            if b % a == 0:
                k -= 1
            b -= k * a
            trail.append((1, k))
    runs = trail[::-1]
    if value.num < 0:
        runs = [(letter, -k) for letter, k in runs]
    return runs


def canonical_text(value: Value) -> str:
    return runs_text(canonical_runs(value))


def has_canonical_shape(text: str, value: Value) -> bool:
    """Forward (R/L only, R first) for positives, reverse for negatives."""
    runs = read_runs(text)
    if value.den == 0:
        return runs == [(0, 1), (1, -1)]
    if value.num == 0:
        return runs == []
    sign = 1 if value.num > 0 else -1
    return (
        bool(runs)
        and runs[0][0] == 0
        and all(k * sign > 0 for _, k in runs)
        and all(runs[i][0] != runs[i + 1][0] for i in range(len(runs) - 1))
    )


# --- continued fractions --------------------------------------------------------

def cf_expand(value: Value) -> tuple:
    a, b = value.num, value.den
    out = []
    while b:
        q, r = divmod(a, b)
        out.append(q)
        a, b = b, r
    return tuple(out)


def cf_value(coeffs) -> Value:
    """[c0; c1, ..., ck] as a projective pair, so zeros pass through 1/0."""
    coeffs = list(coeffs)
    num, den = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        num, den = c * num + den, num
    return Value(num, den)


def cf_text(coeffs) -> str:
    if len(coeffs) == 1:
        return "[%d]" % coeffs[0]
    return "[%d; %s]" % (coeffs[0], ", ".join(str(c) for c in coeffs[1:]))


# --- analysis -------------------------------------------------------------------

def calkin_wilf_row(depth: int):
    """Row ``depth`` (row 1 is [1]) from Newman's recurrence."""
    x = Fraction(1)
    seen = 1
    start = 2 ** (depth - 1)
    row = []
    while seen < 2 * start:
        if seen >= start:
            row.append("%d/%d" % (x.numerator, x.denominator))
        x = 1 / (2 * math.floor(x) - x + 1)
        seen += 1
    return row


def prefix_report(runs):
    """(length, total, ratio) per prefix, ratio as (num, den) or None."""
    rows = [(0, 1, None)]
    previous = 1
    for k, v in enumerate(prefix_values(runs)[1:], start=1):
        total = abs(v.num) + v.den
        r = Fraction(total, previous)
        rows.append((k, total, (r.numerator, r.denominator)))
        previous = total
    return rows


def brute_max(n: int):
    """First (R before L) forward word of length n with the most layers."""
    best, best_word = 1, ""
    for bits in range(1 << n):
        word = [(bits >> (n - 1 - i)) & 1 for i in range(n)]
        v = fold([(letter, 1) for letter in word])
        total = abs(v.num) + v.den
        if total > best:
            best = total
            best_word = " ".join("RL"[letter] for letter in word)
    return best, best_word or "e"


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def children(value: Value):
    a, b = value.num, value.den
    return [
        ("L", Value(a, a + b)),
        ("R", Value(a + b, b)),
        ("L^-1", Value(a, b - a)),
        ("R^-1", Value(a - b, b)),
    ]


# --- SVG ------------------------------------------------------------------------

_NUMBER = r"(-?\d+(?:\.\d+)?)"
_GAP = re.compile(
    r'<line class="gap gap-(left|right)" x1="%s"[^>]*data-layers="(\d+)"' % _NUMBER
)
_STRAND = re.compile(r'<path class="strand" d="([^"]*)"')


def _path_points(d: str):
    """Vertices of a path of M/L/A commands, with each arc's midpoint.

    Arcs must be half circles whose chord is vertical, which is what
    taffy strands use; the midpoint then carries the arc's x-extreme,
    so a vertical line is crossed exactly where consecutive points
    change side.  SVG's sweep flag 1 runs clockwise on screen (y down).
    """
    tokens = d.split()
    pts = []
    i = 0
    pieces = 0
    while i < len(tokens):
        cmd = tokens[i]
        if cmd in ("M", "L"):
            pts.append((float(tokens[i + 1]), float(tokens[i + 2])))
            pieces += cmd == "L"
            i += 3
        elif cmd == "A":
            r = float(tokens[i + 1])
            sweep = int(tokens[i + 5])
            ex, ey = float(tokens[i + 6]), float(tokens[i + 7])
            sx, sy = pts[-1]
            if sx != ex or abs(abs(ey - sy) - 2 * r) > 1e-6:
                raise ValueError("arc is not a half circle on a vertical chord")
            cx, cy = sx, (sy + ey) / 2.0
            vx, vy = sx - cx, sy - cy
            mx, my = (cx - vy, cy + vx) if sweep else (cx + vy, cy - vx)
            pts.append((mx, my))
            pts.append((ex, ey))
            pieces += 1
            i += 8
        else:
            raise ValueError("unexpected path command %r" % cmd)
    return pts, pieces


def _crossings(points, x: float) -> int:
    sides = [1 if px > x else -1 for px, _ in points if px != x]
    return sum(1 for s, t in zip(sides, sides[1:]) if s != t)


def taffy_svg_facts(svg: str):
    """Measure a taffy SVG: ((left, right) crossings, data-layers, pieces)."""
    gaps = {side: (float(x), int(layers)) for side, x, layers in _GAP.findall(svg)}
    strands = _STRAND.findall(svg)
    if set(gaps) != {"left", "right"} or len(strands) != 1:
        raise ValueError("taffy SVG lacks its gap lines or its strand")
    points, pieces = _path_points(strands[0])
    measured = (_crossings(points, gaps["left"][0]), _crossings(points, gaps["right"][0]))
    return measured, (gaps["left"][1], gaps["right"][1]), pieces


_CROSSING = re.compile(r'<g class="crossing [^"]*" data-sign="(-?1)">')
_TANGLE_TITLE = re.compile(r"<title>rational tangle (-?\d+/\d+)</title>")


def tangle_svg_facts(svg: str):
    """The crossing signs in drawing order and the fraction in the title."""
    title = _TANGLE_TITLE.findall(svg)
    return [int(s) for s in _CROSSING.findall(svg)], title[0] if title else None


def twist_signs(runs):
    out = []
    for _, k in runs:
        out.extend([1 if k > 0 else -1] * abs(k))
    return out
