"""Spans and counters around pullcalc's public functions (traced runs only).

A span wraps one public function.  The wrapper replaces the function
at every module attribute inside pullcalc that holds it, because that
is where callers look it up: ``pullcalc.parse_word`` for the
benchmark, ``words.parse_word`` for the CLI, the names imported into
``diagrams.taffy`` for the verifier.  Self time is a span's duration
less the durations of the spans it encloses; it is kept per operation
in raw seconds and scaled by that operation's speed factor when the
operation ends, so per-layer figures are speed-adjusted like the
end-to-end ones.  Nothing in the program is modified on disk, and
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time

now = time.perf_counter

# metric -> public names (looked up on the pullcalc package) whose
# self time it sums.  canonical_word and max_total_layers are split by
# their mode argument below.
TIMED = {
    "words.parse_ms": ("parse_word", "parse_tangle"),
    "words.runs_ms": ("reduce", "to_run_form", "format_word"),
    "treewalk.fold_ms": ("taffy_number",),
    "treewalk.rewrite_ms": ("canonicalize_rewrite",),
    "treewalk.arith_ms": ("canonicalize_arith",),
    "treewalk.trace_ms": ("number_trace",),
    "rationals.cf_ms": ("cf_expand", "cf_eval"),
    "analysis.cw_row_ms": ("cw_row",),
    "analysis.report_ms": ("effectiveness_report",),
    "taffy.build_ms": ("build_taffy",),
    "taffy.verify_ms": ("verify_taffy",),
    "taffy.render_ms": ("render_taffy_svg",),
    "tangles.render_ms": ("build_tangle", "render_tangle_svg"),
    "tangles.number_ms": ("tangle_number",),
}
MODED = {
    "canonical_word": ("fast", {"fast": "treewalk.invert_fast_ms", "slow": "treewalk.invert_slow_ms"}),
    "max_total_layers": ("closed-form", {"brute-force": "analysis.brute_ms"}),
}
COUNTS = ("treewalk.result_bits", "taffy.pieces", "geometry.pair_tests")
CLI_HANDLER = "cli.handler_ms"


def _mode_of(args, kwargs, default):
    if "mode" in kwargs:
        return kwargs["mode"]
    return args[1] if len(args) > 1 else default


def _strand_pieces(svg: str) -> int:
    start = svg.index('class="strand" d="') + len('class="strand" d="')
    d = svg[start : svg.index('"', start)].split()
    return sum(1 for token in d if token in ("L", "A"))


class Tracer:
    def __init__(self):
        self.metrics = [m for m in TIMED] + [m for _, table in MODED.values() for m in table.values()]
        self.metrics.append(CLI_HANDLER)
        self.totals = dict.fromkeys(self.metrics + list(COUNTS), 0.0)
        self._op = dict.fromkeys(self.metrics, 0.0)
        self._stack = []
        self._patched = []

    # -- span bookkeeping ----------------------------------------------------------

    def _span(self, fn, metric_of):
        stack = self._stack
        op = self._op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            metric = metric_of(args, kwargs)
            if metric is None:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = now() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                op[metric] += duration - frame[0]

        return wrapper

    def _after(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(result)
            return result

        return wrapper

    def _count_calls(self, fn, metric):
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, fn, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "pullcalc" or name.startswith("pullcalc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, fn))

    # -- install / uninstall -----------------------------------------------------------

    def install(self, pc, cli) -> None:
        """Wrap every traced function; ``cli`` is the pullcalc.cli module."""
        for metric, names in TIMED.items():
            for name in names:
                fn = getattr(pc, name)
                self._replace(fn, self._span(fn, lambda a, k, m=metric: m))
        for name, (default, table) in MODED.items():
            fn = getattr(pc, name)
            self._replace(fn, self._span(fn, lambda a, k, d=default, t=table: t.get(_mode_of(a, k, d))))
        self._replace(cli.run, self._span(cli.run, lambda a, k: CLI_HANDLER))
        # counters ride on the spans already installed
        fold = getattr(pc, "taffy_number")
        self._replace(fold, self._after(fold, self._count_bits))
        render = getattr(pc, "render_taffy_svg")
        self._replace(render, self._after(render, self._count_pieces))
        pairs = getattr(sys.modules["pullcalc.diagrams"], "piece_intersections")
        self._replace(pairs, self._count_calls(pairs, "geometry.pair_tests"))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _count_bits(self, q) -> None:
        self.totals["treewalk.result_bits"] += abs(q.num).bit_length() + q.den.bit_length()

    def _count_pieces(self, svg) -> None:
        self.totals["taffy.pieces"] += _strand_pieces(svg)

    # -- per-operation accounting ----------------------------------------------------

    def begin_op(self) -> None:
        for m in self._op:
            self._op[m] = 0.0

    def end_op(self, factor: float) -> None:
        for m, raw in self._op.items():
            if raw:
                self.totals[m] += raw * factor

    def report(self, operations: int) -> dict:
        """Per-operation figures: ms for spans, plain numbers for counts."""
        out = {}
        for m in self.metrics:
            out[m] = {"value": 1000.0 * self.totals[m] / operations, "unit": "ms"}
        units = {"treewalk.result_bits": "bits", "taffy.pieces": "count", "geometry.pair_tests": "count"}
        for m in COUNTS:
            out[m] = {"value": self.totals[m] / operations, "unit": units[m]}
        return out
