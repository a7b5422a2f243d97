"""Diagram reconstruction and SVG rendering for pulls and tangles.

``parse_tangle``, ``format_tangle`` and ``tangle_number`` are arithmetic
and live in ``words`` and ``treewalk``; they stay importable from here.
"""

from ..treewalk import tangle_number
from ..words import format_tangle, parse_tangle
from .geometry import HalfCircle, Segment, piece_intersections
from .taffy import (
    TaffyDiagram,
    TaffyReport,
    build_taffy,
    render_taffy_svg,
    rotate_taffy,
    verify_taffy,
)
from .tangles import Crossing, TangleDiagram, build_tangle, render_tangle_svg

__all__ = [
    "Crossing",
    "HalfCircle",
    "Segment",
    "TaffyDiagram",
    "TaffyReport",
    "TangleDiagram",
    "build_taffy",
    "build_tangle",
    "format_tangle",
    "parse_tangle",
    "piece_intersections",
    "render_taffy_svg",
    "render_tangle_svg",
    "rotate_taffy",
    "tangle_number",
    "verify_taffy",
]
