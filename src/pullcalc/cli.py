"""Command line front end.

Each subcommand is a thin shim over one library call that returns its
result and writes nothing.  A fraction-or-word argument is read by
``_fraction_or_word`` alone.  ``main`` alone turns the result into
text, JSON-encoding it under ``--json``, and writes it with one
``write`` to stdout or to ``-o``, so both get the same bytes, ending in
exactly one newline.
The SVG subcommands take ``-o`` (default stdout) and never ``--json``.
Usage errors exit 2, domain errors (bad fraction, unparsable word,
depth cap, an answer too long to write, unwritable ``-o``) exit 1,
success exits 0.
"""

import argparse
import contextlib
import io
import re
import sys
from typing import NamedTuple

from . import analysis, treewalk, words
from .rationals import ExtRational, cf_expand, digit_limit, format_cf, parse_fraction


def _frac(q: ExtRational) -> dict:
    return {"num": q.num, "den": q.den}


_FRACTION_START = re.compile(r"\s*-?\d")


def _fraction_or_word(text: str):
    """A fraction ("9/7", "-2") or a turn word ("R^2 L"), by how it
    starts, as ``(q, word)``: the fraction and None, or the word's taffy
    number and the word.

    Text that starts like a fraction, with a digit or a minus sign
    (which no word can start with), is read as a fraction alone, so a
    bad fraction is reported as one.
    """
    if _FRACTION_START.match(text):
        return parse_fraction(text), None
    word = words.parse_word(text)
    return treewalk.taffy_number(word), word


def _refuse_unwritable_trace(word, size) -> None:
    """Refuse a word if the (num, den) pair of some prefix has a
    ``size(num, den)``, a non-negative int, too long to write.

    The check reads the trace's pairs one at a time, keeps none of them
    and stops at the first size too long to write; the walk refuses a
    word past ``TRACE_CAP`` on its turn count.
    """
    limit = digit_limit()
    if limit:
        bound = 10**limit
        for a, b in treewalk._prefix_pairs(word):
            if size(a, b) >= bound:
                raise ValueError("answer longer than %d digits" % limit)


def _accept_negative_fractions(parser: argparse.ArgumentParser, name: str, help=None) -> None:
    """Add the fraction positional ``name``, and let "-7/9" through as
    it instead of as an unknown flag.

    argparse only waves plain negative numbers past the option scanner,
    so subcommands with fraction arguments widen its matcher.
    """
    parser.add_argument(name, help=help)
    parser._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")


# --- subcommand handlers -----------------------------------------------------
#
# A handler returns its result and writes nothing: under --json a dict
# or list, otherwise a value whose str() is the text to print.

def _cmd_eval(args):
    word = words.parse_word(args.word)
    if args.json:
        # "reduced" is written one token per turn, so it is capped like a trace.
        reduced = words.reduce(word)
        if reduced._len > treewalk.TRACE_CAP:
            raise ValueError("reduced words are capped at %d turns" % treewalk.TRACE_CAP)
        q = treewalk.taffy_number(reduced)
        return {
            "word": args.word,
            "reduced": words.format_word(reduced),
            "runs": list(words.to_run_form(reduced)),
            "taffy_number": _frac(q),
            "layers": {"left": q.den, "right": abs(q.num)},
            "continued_fraction": list(treewalk.word_to_cf(reduced)),
            "canonical": str(treewalk.canonical_word(q)),
        }
    if args.trace:
        _refuse_unwritable_trace(word, lambda a, b: max(abs(a), b))
        # the empty word spells "e", which zip drops: its trace is the seed alone
        steps = ["start"] + words.format_word(word).split()
        pairs = zip(steps, treewalk._prefix_pairs(word))
        return "\n".join("%-5s %d/%d" % (step, a, b) for step, (a, b) in pairs)
    return treewalk.taffy_number(word)


def _cmd_canon(args):
    c = treewalk.canonicalize_rewrite(words.parse_word(args.word))
    if args.json:
        return {
            "word": args.word,
            "canonical": str(c),
            "tag": c.tag,
            "taffy_number": _frac(treewalk.taffy_number(c.word)),
        }
    return c


def _cmd_equiv(args):
    w1 = words.parse_word(args.word1)
    w2 = words.parse_word(args.word2)
    same = treewalk.equivalent(w1, w2)
    if args.json:
        return {
            "equivalent": same,
            "values": [_frac(treewalk.taffy_number(w)) for w in (w1, w2)],
        }
    return "equivalent" if same else "not equivalent"


def _cmd_invert(args):
    q = parse_fraction(args.fraction)
    c = treewalk.canonical_word(q, mode=args.mode)
    if args.json:
        return {"fraction": _frac(q), "canonical": str(c), "tag": c.tag}
    return c


def _cmd_layers(args):
    counts = treewalk.layer_counts(words.parse_word(args.word))
    if args.json:
        return {"left": counts.left, "right": counts.right}
    return "left %d, right %d" % (counts.left, counts.right)


def _cmd_cf(args):
    q, word = _fraction_or_word(args.value)
    coeffs = cf_expand(q) if word is None else treewalk.word_to_cf(word)
    if args.json:
        return {"coefficients": list(coeffs), "value": _frac(q)}
    return format_cf(coeffs)


def _cmd_tree(args):
    listing = analysis.cw_row(args.row)
    entries = [str(q) for q in listing.entries]
    if args.json:
        return {"depth": listing.depth, "entries": entries}
    return " ".join(entries)


def _cmd_children(args):
    kids = analysis.four_way_children(parse_fraction(args.fraction))
    if args.json:
        return {turn: _frac(child) for turn, child in kids.items()}
    return "\n".join("%-4s %s" % pair for pair in kids.items())


def _cmd_maxlayers(args):
    mode = "brute-force" if args.brute else "closed-form"
    total, witness = analysis.max_total_layers(args.length, mode=mode)
    text = words.format_word(witness)
    if args.json:
        return {"length": args.length, "total": total, "witness": text, "mode": mode}
    return "total %d\nwitness %s" % (total, text)


def _cmd_report(args):
    word = words.parse_word(args.word)
    # every ratio's terms are at most the totals
    _refuse_unwritable_trace(word, lambda a, b: abs(a) + b)
    rows = analysis.effectiveness_report(word)
    if args.json:
        return [
            {
                "length": row.length,
                "total": row.total,
                "ratio": None if row.ratio is None else _frac(row.ratio),
            }
            for row in rows
        ]
    return "\n".join(
        "%4d %12d  %s" % (row.length, row.total, "-" if row.ratio is None else row.ratio)
        for row in rows
    )


def _cmd_tangle_eval(args):
    twists = words.parse_tangle(args.word)
    q = treewalk.tangle_number(twists)
    if args.json:
        return {"word": args.word, "crossings": twists._len, "tangle_number": _frac(q)}
    return q


# The two drawing commands alone load the diagram modules.

def _cmd_render_taffy(args):
    from .diagrams import build_taffy, render_taffy_svg

    q, _ = _fraction_or_word(args.value)
    return render_taffy_svg(build_taffy(q))


def _cmd_render_tangle(args):
    from .diagrams import build_tangle, render_tangle_svg

    return render_tangle_svg(build_tangle(words.parse_tangle(args.word)))


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pullcalc",
        description="Exact arithmetic for taffy-pull words and rational tangles.",
    )
    parser.set_defaults(json=False, output="-")
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
    _accept_negative_fractions(p, "fraction")
    p.add_argument("--mode", choices=("slow", "fast"), default="fast",
                   help="subtractive or division-based Euclid (default fast)")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("layers", parents=[jsonish], help="left/right layer counts of a word")
    p.add_argument("word")
    p.set_defaults(handler=_cmd_layers)

    p = sub.add_parser("cf", parents=[jsonish], help="continued fraction of a fraction or word")
    _accept_negative_fractions(p, "value")
    p.set_defaults(handler=_cmd_cf)

    p = sub.add_parser("tree", parents=[jsonish], help="one row of the Calkin-Wilf tree")
    p.add_argument("row", type=int, help="row number, 1 to %d" % analysis.DEPTH_CAP)
    p.set_defaults(handler=_cmd_tree)

    p = sub.add_parser("children", parents=[jsonish], help="four-way tree children of a fraction")
    _accept_negative_fractions(p, "fraction")
    p.set_defaults(handler=_cmd_children)

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
    _accept_negative_fractions(p, "value", help="fraction or turn word")
    p.add_argument("-o", "--output", default="-", help="file path, or - for stdout")
    p.set_defaults(handler=_cmd_render_taffy)

    p = sub.add_parser("render-tangle", help="SVG diagram of a rational tangle")
    p.add_argument("word", help="twist word in V/H notation")
    p.add_argument("-o", "--output", default="-", help="file path, or - for stdout")
    p.set_defaults(handler=_cmd_render_tangle)

    return parser


def _message(exc: Exception) -> str:
    """The one line that reports a refused command.

    Python writes no int of more than ``sys.get_int_max_str_digits()``
    digits (from 3.10.7) and its refusal gives advice meant for the
    programmer, so an answer too long to write is named as such.
    """
    limit = digit_limit()
    try:
        str(10**limit)
    except ValueError as refusal:
        if exc.args == refusal.args:
            return "answer longer than %d digits" % limit
    return str(exc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.handler(args)
        if args.json:
            import json  # only --json uses it, so other commands start without it

            text = json.dumps(result)
        else:
            text = str(result)
        with (contextlib.nullcontext(sys.stdout) if args.output == "-"
              else open(args.output, "w", encoding="utf-8")) as out:
            out.write(text + "\n")
    except (ValueError, RuntimeError, OSError) as exc:
        print("pullcalc: %s" % _message(exc), file=sys.stderr)
        return 1
    return 0


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
