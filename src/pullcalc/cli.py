"""Command line front end.

Each subcommand is a thin shim over one library call.  ``--json``
switches the affected subcommands to a single JSON document on stdout;
the SVG subcommands write markup to ``-o`` (default stdout) and never
take ``--json``.  Usage errors exit 2, domain errors (bad fraction,
unparsable word, depth cap) exit 1, success exits 0.
"""

import argparse
import contextlib
import io
import json
import re
import sys
from typing import NamedTuple

from . import analysis, treewalk, words
from .diagrams import (
    build_taffy,
    build_tangle,
    parse_tangle,
    render_taffy_svg,
    render_tangle_svg,
    tangle_number,
)
from .rationals import ExtRational, cf_expand, format_cf, parse_fraction


def _frac(q: ExtRational) -> dict:
    return {"num": q.num, "den": q.den}


def _value_of(text: str) -> ExtRational:
    """Read either a fraction ("9/7", "-2") or a turn word ("R^2 L")."""
    try:
        return parse_fraction(text)
    except ValueError:
        return treewalk.taffy_number(words.parse_word(text))


def _accept_negative_fractions(parser: argparse.ArgumentParser) -> None:
    """Let "-7/9" through as a positional instead of an unknown flag.

    argparse only waves plain negative numbers past the option scanner,
    so subcommands with fraction arguments widen its matcher.
    """
    parser._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")


def _emit_svg(markup: str, destination: str) -> None:
    if not markup.endswith("\n"):
        markup += "\n"
    if destination == "-":
        sys.stdout.write(markup)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(markup)


# --- subcommand handlers -----------------------------------------------------

def _cmd_eval(args) -> int:
    word = words.parse_word(args.word)
    q = treewalk.taffy_number(word)
    if args.json:
        counts = treewalk.layer_counts(word)
        payload = {
            "word": args.word,
            "reduced": words.format_word(words.reduce(word)),
            "runs": list(words.to_run_form(word)),
            "taffy_number": _frac(q),
            "layers": {"left": counts.left, "right": counts.right},
            "continued_fraction": list(treewalk.word_to_cf(word)),
            "canonical": str(treewalk.canonicalize_arith(word)),
        }
        print(json.dumps(payload))
        return 0
    if args.trace:
        for step, value in zip(("start",) + tuple(word), treewalk.number_trace(word)):
            label = step if step == "start" else words.format_word((step,))
            print("%-5s %s" % (label, value))
    else:
        print(q)
    return 0


def _cmd_canon(args) -> int:
    word = words.parse_word(args.word)
    c = treewalk.canonicalize_rewrite(word)
    if args.json:
        payload = {
            "word": args.word,
            "canonical": str(c),
            "tag": c.tag,
            "taffy_number": _frac(treewalk.taffy_number(c.word)),
        }
        print(json.dumps(payload))
    else:
        print(c)
    return 0


def _cmd_equiv(args) -> int:
    w1 = words.parse_word(args.word1)
    w2 = words.parse_word(args.word2)
    same = treewalk.equivalent(w1, w2)
    if args.json:
        payload = {
            "equivalent": same,
            "values": [_frac(treewalk.taffy_number(w)) for w in (w1, w2)],
        }
        print(json.dumps(payload))
    else:
        print("equivalent" if same else "not equivalent")
    return 0


def _cmd_invert(args) -> int:
    q = parse_fraction(args.fraction)
    c = treewalk.canonical_word(q, mode=args.mode)
    if args.json:
        payload = {"fraction": _frac(q), "canonical": str(c), "tag": c.tag}
        print(json.dumps(payload))
    else:
        print(c)
    return 0


def _cmd_layers(args) -> int:
    counts = treewalk.layer_counts(words.parse_word(args.word))
    if args.json:
        print(json.dumps({"left": counts.left, "right": counts.right}))
    else:
        print("left %d, right %d" % (counts.left, counts.right))
    return 0


def _cmd_cf(args) -> int:
    try:
        q = parse_fraction(args.value)
    except ValueError:
        word = words.parse_word(args.value)
        coeffs = treewalk.word_to_cf(word)
        q = treewalk.taffy_number(word)
    else:
        coeffs = cf_expand(q)
    if args.json:
        print(json.dumps({"coefficients": list(coeffs), "value": _frac(q)}))
    else:
        print(format_cf(coeffs))
    return 0


def _cmd_tree(args) -> int:
    listing = analysis.cw_row(args.row)
    if args.json:
        payload = {"depth": listing.depth, "entries": [str(q) for q in listing.entries]}
        print(json.dumps(payload))
    else:
        print(" ".join(str(q) for q in listing.entries))
    return 0


def _cmd_children(args) -> int:
    q = parse_fraction(args.fraction)
    kids = analysis.four_way_children(q)
    if args.json:
        print(json.dumps({turn: _frac(child) for turn, child in kids.items()}))
    else:
        for turn, child in kids.items():
            print("%-4s %s" % (turn, child))
    return 0


def _cmd_maxlayers(args) -> int:
    mode = "brute-force" if args.brute else "closed-form"
    total, witness = analysis.max_total_layers(args.length, mode=mode)
    text = words.format_word(witness)
    if args.json:
        payload = {"length": args.length, "total": total, "witness": text, "mode": mode}
        print(json.dumps(payload))
    else:
        print("total %d" % total)
        print("witness %s" % text)
    return 0


def _cmd_report(args) -> int:
    rows = analysis.effectiveness_report(words.parse_word(args.word))
    if args.json:
        payload = [
            {
                "length": row.length,
                "total": row.total,
                "ratio": None if row.ratio is None else _frac(row.ratio),
            }
            for row in rows
        ]
        print(json.dumps(payload))
    else:
        for row in rows:
            ratio = "-" if row.ratio is None else str(row.ratio)
            print("%4d %12d  %s" % (row.length, row.total, ratio))
    return 0


def _cmd_tangle_eval(args) -> int:
    twists = parse_tangle(args.word)
    q = tangle_number(twists)
    if args.json:
        payload = {
            "word": args.word,
            "crossings": len(twists),
            "tangle_number": _frac(q),
        }
        print(json.dumps(payload))
    else:
        print(q)
    return 0


def _cmd_render_taffy(args) -> int:
    diagram = build_taffy(_value_of(args.value))
    _emit_svg(render_taffy_svg(diagram), args.output)
    return 0


def _cmd_render_tangle(args) -> int:
    diagram = build_tangle(parse_tangle(args.word))
    _emit_svg(render_tangle_svg(diagram), args.output)
    return 0


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pullcalc",
        description="Exact arithmetic for taffy-pull words and rational tangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    jsonish = argparse.ArgumentParser(add_help=False)
    jsonish.add_argument("--json", action="store_true", help="emit one JSON document")

    p = sub.add_parser("eval", parents=[jsonish], help="taffy number of a turn word")
    p.add_argument("word")
    p.add_argument("--trace", action="store_true", help="print the fraction after every turn")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("canon", parents=[jsonish], help="canonical form of a turn word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_canon)

    p = sub.add_parser("equiv", parents=[jsonish], help="decide whether two words pull the same taffy")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("invert", parents=[jsonish], help="canonical word reaching a fraction")
    p.add_argument("fraction")
    p.add_argument("--mode", choices=("slow", "fast"), default="fast",
                   help="subtractive or division-based Euclid (default fast)")
    p.set_defaults(handler=_cmd_invert)
    _accept_negative_fractions(p)

    p = sub.add_parser("layers", parents=[jsonish], help="left/right layer counts of a word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_layers)

    p = sub.add_parser("cf", parents=[jsonish], help="continued fraction of a fraction or word")
    p.add_argument("value")
    p.set_defaults(handler=_cmd_cf)
    _accept_negative_fractions(p)

    p = sub.add_parser("tree", parents=[jsonish], help="one row of the Calkin-Wilf tree")
    p.add_argument("row", type=int, help="row number, 1 to %d" % analysis.DEPTH_CAP)
    p.set_defaults(handler=_cmd_tree)

    p = sub.add_parser("children", parents=[jsonish], help="four-way tree children of a fraction")
    p.add_argument("fraction")
    p.set_defaults(handler=_cmd_children)
    _accept_negative_fractions(p)

    p = sub.add_parser("maxlayers", parents=[jsonish], help="largest total layer count for a length")
    p.add_argument("length", type=int)
    p.add_argument("--brute", action="store_true",
                   help="scan all words instead of using the closed form")
    p.set_defaults(handler=_cmd_maxlayers)

    p = sub.add_parser("report", parents=[jsonish], help="per-prefix layer totals and growth ratios")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("tangle-eval", parents=[jsonish], help="tangle number of a twist word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_tangle_eval)

    p = sub.add_parser("render-taffy", help="SVG diagram of a pulled strand")
    p.add_argument("value", help="fraction or turn word")
    p.add_argument("-o", "--output", default="-", help="file path, or - for stdout")
    p.set_defaults(handler=_cmd_render_taffy)
    _accept_negative_fractions(p)

    p = sub.add_parser("render-tangle", help="SVG diagram of a rational tangle")
    p.add_argument("word", help="twist word in V/H notation")
    p.add_argument("-o", "--output", default="-", help="file path, or - for stdout")
    p.set_defaults(handler=_cmd_render_tangle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print("pullcalc: %s" % exc, file=sys.stderr)
        return 1


class CommandResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run(argv) -> CommandResult:
    """One in-process invocation with both streams captured.

    Usage errors, which argparse reports by raising SystemExit, come
    back as exit code 2 like they would from a shell.
    """
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CommandResult(code, out.getvalue(), err.getvalue())


if __name__ == "__main__":
    sys.exit(main())
