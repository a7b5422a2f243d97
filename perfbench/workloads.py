"""The four workloads: their operations, their warm-up and their checks.

Each workload object is built from the seed and the checkout root.
``setup`` imports pullcalc, makes the inputs and runs one warm-up
operation; ``round`` lists one round of operations (every run attempts
whole rounds); ``check`` compares an operation's output with answers
from ``oracle``, computed apart from the program and outside every
timed interval.  An operation that raises, or a CLI process that
exits non-zero, counts as failed; an answer that is wrong makes the
whole run incorrect.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys

import inputs
import oracle


class CheckError(AssertionError):
    pass


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckError(what)


def _pair(q):
    return (q.num, q.den)


# --- CLI answers, shared by cli-cold and the traced census ------------------------

def cli_expected(argv):
    """What ``pullcalc <argv>`` must print, or a checker for its output."""
    cmd, rest = argv[0], argv[1:]
    if cmd == "eval" and "--json" in rest:
        runs = oracle.read_runs(rest[0])
        v = oracle.fold(runs)

        def check_json(out):
            doc = json.loads(out)
            cf = doc.pop("continued_fraction")
            expect(len(cf) % 2 == 1 and oracle.cf_value(cf) == v, "eval --json continued fraction")
            expect(
                doc
                == {
                    "word": rest[0],
                    "reduced": oracle.plain_text(oracle.reduced_runs(runs)),
                    "runs": list(oracle.signed_run_tuple(runs)),
                    "taffy_number": {"num": v.num, "den": v.den},
                    "layers": {"left": v.den, "right": abs(v.num)},
                    "canonical": oracle.canonical_text(v),
                },
                "eval --json document",
            )

        return check_json
    if cmd == "eval" and "--trace" in rest:
        runs = oracle.read_runs(rest[0])
        labels = ["start"]
        for letter, k in runs:
            token = "RL"[letter] if k > 0 else "RL"[letter] + "^-1"
            labels.extend([token] * abs(k))
        values = oracle.prefix_values(runs)
        return "".join("%-5s %s\n" % (label, v) for label, v in zip(labels, values))
    if cmd == "eval":
        return "%s\n" % oracle.fold(oracle.read_runs(rest[0]))
    if cmd == "canon":
        return oracle.canonical_text(oracle.fold(oracle.read_runs(rest[0]))) + "\n"
    if cmd == "equiv":
        same = oracle.fold(oracle.read_runs(rest[0])) == oracle.fold(oracle.read_runs(rest[1]))
        return "equivalent\n" if same else "not equivalent\n"
    if cmd == "invert":
        num, den = rest[0].split("/")
        return oracle.canonical_text(oracle.Value(int(num), int(den))) + "\n"
    if cmd == "cf":
        num, den = rest[0].split("/")
        return oracle.cf_text(oracle.cf_expand(oracle.Value(int(num), int(den)))) + "\n"
    if cmd == "tree":
        return " ".join(oracle.calkin_wilf_row(int(rest[0]))) + "\n"
    if cmd == "children":
        num, den = rest[0].split("/")
        kids = oracle.children(oracle.Value(int(num), int(den)))
        return "".join("%-4s %s\n" % (turn, v) for turn, v in kids)
    if cmd == "maxlayers":
        n = int(rest[0])
        if "--brute" in rest:
            total, witness = oracle.brute_max(n)
        else:
            total = oracle.fibonacci(n + 2)
            witness = " ".join("RL"[i & 1] for i in range(n)) or "e"
            v = oracle.fold(oracle.read_runs(witness))
            expect(abs(v.num) + v.den == total, "oracle: alternating witness")
        return "total %d\nwitness %s\n" % (total, witness)
    if cmd == "report":
        rows = oracle.prefix_report(oracle.read_runs(rest[0]))
        return "".join(
            "%4d %12d  %s\n" % (k, total, "-" if r is None else "%d/%d" % r) for k, total, r in rows
        )
    if cmd == "tangle-eval":
        return "%s\n" % oracle.fold(oracle.read_runs(rest[0], "VH"))
    if cmd == "render-taffy":
        num, den = rest[0].split("/")
        v = oracle.Value(int(num), int(den))

        def check_taffy(out):
            measured, layers, pieces = oracle.taffy_svg_facts(out)
            expect(measured == (v.den, abs(v.num)), "render-taffy gap crossings")
            expect(layers == measured, "render-taffy data-layers")
            expect(pieces > 0, "render-taffy strand")

        return check_taffy
    if cmd == "render-tangle":
        runs = oracle.read_runs(rest[0], "VH")
        v = oracle.fold(runs)

        def check_tangle(out):
            signs, title = oracle.tangle_svg_facts(out)
            expect(signs == oracle.twist_signs(runs), "render-tangle crossings")
            expect(title == str(v), "render-tangle title")

        return check_tangle
    raise ValueError("no answer known for %r" % (argv,))


def check_cli_output(expected, out: str, argv) -> None:
    if callable(expected):
        expected(out)
    else:
        expect(out == expected, "output of pullcalc %s" % " ".join(argv[:1]))


# --- workloads ------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.pc = None
        self.items = []
        self._expected = {}

    def setup(self):
        """Import pullcalc, make the inputs, run one warm-up operation."""
        import pullcalc

        self.pc = pullcalc
        self.items = self.make_inputs()
        return self.run_op(0)

    def make_inputs(self):
        raise NotImplementedError

    def round(self):
        return list(range(len(self.items)))

    def run_op(self, i):
        raise NotImplementedError

    def check(self, i, out) -> None:
        if i not in self._expected:
            self._expected[i] = self.expected(self.items[i])
        self.compare(self._expected[i], out)

    def failed(self, out) -> bool:
        return False


class AlgebraShort(Workload):
    """A batch of short words through the paths behind eval, canon,
    equiv, invert and cf, plus one tree row, one report and one brute
    scan: per-call overhead dominates."""

    name = "algebra-short"

    def make_inputs(self):
        batches = inputs.algebra_short(self.seed)
        for batch in batches:
            values = [oracle.fold(oracle.read_runs(t)) for t in batch["words"]]
            batch["fractions"] = [str(v) for v in values]
            batch["cf"] = ["%d/%d" % (abs(v.num), v.den) if v.den else None for v in values]
        return batches

    def run_op(self, i):
        pc = self.pc
        batch = self.items[i]
        out = []
        previous = None
        for text, ftext, cftext in zip(batch["words"], batch["fractions"], batch["cf"]):
            w = pc.parse_word(text)
            q = pc.taffy_number(w)
            counts = pc.layer_counts(w)
            c = pc.canonicalize_rewrite(w)
            f = pc.parse_fraction(ftext)
            row = [
                pc.format_word(pc.reduce(w)),
                tuple(pc.to_run_form(w)),
                _pair(q),
                (counts.left, counts.right),
                tuple(pc.word_to_cf(w)),
                str(pc.canonicalize_arith(w)),
                str(c),
                c.tag,
                _pair(pc.taffy_number(c.word)),
                None if previous is None else pc.equivalent(w, previous),
                str(pc.canonical_word(f)),
                str(pc.canonical_word(f, mode="slow")),
            ]
            if cftext is not None:
                coeffs = pc.cf_expand(pc.parse_fraction(cftext))
                row.append((tuple(coeffs), _pair(pc.cf_eval(coeffs))))
            out.append(row)
            previous = w
        listing = pc.cw_row(batch["cw_depth"])
        report = pc.effectiveness_report(pc.parse_word(batch["report"]))
        total, witness = pc.max_total_layers(batch["brute"], mode="brute-force")
        extras = (
            [str(x) for x in listing.entries],
            [(r.length, r.total, None if r.ratio is None else _pair(r.ratio)) for r in report],
            (total, pc.format_word(witness)),
        )
        return out, extras

    def expected(self, batch):
        rows = []
        previous = None
        for text in batch["words"]:
            runs = oracle.read_runs(text)
            v = oracle.fold(runs)
            canon = oracle.canonical_text(v)
            expect(oracle.fold(oracle.read_runs(canon)) == v, "oracle: canonical word folds back")
            expect(oracle.has_canonical_shape(canon, v), "oracle: canonical shape")
            if v.den == 0:
                tag = "infinity"
            elif v.num == 0:
                tag = "initial"
            else:
                tag = "forward" if v.num > 0 else "reverse"
            row = [
                oracle.plain_text(oracle.reduced_runs(runs)),
                oracle.signed_run_tuple(runs),
                (v.num, v.den),
                (v.den, abs(v.num)),
                v,
                canon,
                canon,
                tag,
                (v.num, v.den),
                None if previous is None else previous == v,
                canon,
                canon,
            ]
            if v.den:
                a = oracle.Value(abs(v.num), v.den)
                row.append((oracle.cf_expand(a), (a.num, a.den)))
            rows.append(row)
            previous = v
        extras = (
            oracle.calkin_wilf_row(batch["cw_depth"]),
            oracle.prefix_report(oracle.read_runs(batch["report"])),
            oracle.brute_max(batch["brute"]),
        )
        return rows, extras

    def compare(self, expected, out):
        rows, extras = expected
        got_rows, got_extras = out
        expect(len(got_rows) == len(rows), "batch length")
        for want, got in zip(rows, got_rows):
            cf = got[4]
            expect(len(cf) % 2 == 1 and oracle.cf_value(cf) == want[4], "word_to_cf value")
            expect(got[:4] + got[5:] == want[:4] + want[5:], "short word paths")
        expect(got_extras[0] == extras[0], "Calkin-Wilf row")
        expect(got_extras[1] == extras[1], "effectiveness report")
        expect(got_extras[2] == extras[2], "brute-force maximum")


class AlgebraLong(Workload):
    """Thousands of turns, thousands of bits and exponents in the
    hundreds of thousands: asymptotic cost dominates."""

    name = "algebra-long"

    def make_inputs(self):
        return inputs.algebra_long(self.seed)

    def run_op(self, i):
        pc = self.pc
        b = self.items[i]
        m = pc.parse_word(b["mixed"])
        rewrite = str(pc.canonicalize_rewrite(m))
        arith = str(pc.canonicalize_arith(m))
        trace = pc.number_trace(m)
        f = pc.parse_word(b["forward"])
        q = pc.taffy_number(f)
        fast = str(pc.canonical_word(q))
        slow = str(pc.canonical_word(q, mode="slow"))
        coeffs = pc.cf_expand(q)
        back = pc.cf_eval(coeffs)
        e = pc.parse_word(b["exponent"])
        qe = pc.taffy_number(e)
        arith_e = str(pc.canonicalize_arith(e))
        cf_e = pc.word_to_cf(e)
        return rewrite, arith, trace, q, fast, slow, coeffs, back, qe, arith_e, cf_e

    def expected(self, b):
        mixed = oracle.read_runs(b["mixed"])
        vm = oracle.fold(mixed)
        forward = oracle.read_runs(b["forward"])
        vf = oracle.fold(forward)
        ve = oracle.fold(oracle.read_runs(b["exponent"]))
        texts = {}
        for key, v in (("mixed", vm), ("forward", vf), ("exponent", ve)):
            canon = oracle.canonical_text(v)
            expect(oracle.fold(oracle.read_runs(canon)) == v, "oracle: canonical word folds back")
            expect(oracle.has_canonical_shape(canon, v), "oracle: canonical shape")
            texts[key] = canon
        return {
            "mixed": texts["mixed"],
            "trace": [(x.num, x.den) for x in oracle.prefix_values(mixed)],
            "forward": vf,
            "forward_canon": texts["forward"],
            "forward_cf": oracle.cf_expand(vf),
            "exponent": ve,
            "exponent_canon": texts["exponent"],
        }

    def compare(self, want, out):
        rewrite, arith, trace, q, fast, slow, coeffs, back, qe, arith_e, cf_e = out
        expect(rewrite == arith == want["mixed"], "mixed word: rewrite and arithmetic canonical forms")
        expect([(x.num, x.den) for x in trace] == want["trace"], "number_trace")
        expect(oracle.same_value(q, want["forward"]), "forward word: taffy number")
        expect(fast == slow == want["forward_canon"], "forward word: fast and slow inversion")
        expect(tuple(coeffs) == want["forward_cf"], "forward word: cf_expand")
        expect(oracle.same_value(back, want["forward"]), "forward word: cf_eval(cf_expand(q))")
        expect(oracle.same_value(qe, want["exponent"]), "exponent word: taffy number")
        expect(arith_e == want["exponent_canon"], "exponent word: arithmetic canonical form")
        expect(len(cf_e) % 2 == 1 and oracle.cf_value(cf_e) == want["exponent"], "exponent word: word_to_cf")


class Diagrams(Workload):
    """One taffy diagram (sizes cycle through a fixed spread) and one
    tangle of 300 twists per operation: the verifier's pair scan
    dominates."""

    name = "diagrams"

    def make_inputs(self):
        return inputs.diagrams(self.seed)

    def run_op(self, i):
        pc = self.pc
        d = self.items[i]
        taffy = pc.render_taffy_svg(pc.build_taffy(pc.parse_fraction(d["taffy"])))
        twists = pc.parse_tangle(d["tangle"])
        tangle = pc.render_tangle_svg(pc.build_tangle(twists))
        return taffy, tangle, _pair(pc.tangle_number(twists))

    def expected(self, d):
        num, den = d["taffy"].split("/")
        v = oracle.Value(int(num), int(den))
        runs = oracle.read_runs(d["tangle"], "VH")
        t = oracle.fold(runs)
        return {"layers": (v.den, abs(v.num)), "signs": oracle.twist_signs(runs), "tangle": t, "seen": None}

    def compare(self, want, out):
        taffy, tangle, number = out
        if want["seen"] != (taffy, tangle):
            measured, layers, pieces = oracle.taffy_svg_facts(taffy)
            expect(measured == want["layers"], "taffy gap-line crossings")
            expect(layers == want["layers"], "taffy data-layers")
            signs, title = oracle.tangle_svg_facts(tangle)
            expect(signs == want["signs"], "tangle crossing signs")
            expect(title == str(want["tangle"]), "tangle title")
            want["seen"] = (taffy, tangle)
        expect(number == (want["tangle"].num, want["tangle"].den), "tangle_number")


class CliCold(Workload):
    """A fresh ``pullcalc`` process per command: start-up dominates."""

    name = "cli-cold"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.peak_rss_kb = 0
        # The traced run sets this to pullcalc.cli: spans cannot see into
        # a child, so there the commands run in process through cli.run.
        self.cli = None

    def setup(self):
        self.items = self.make_inputs()
        return self.run_op(0)

    def make_inputs(self):
        return inputs.cli_commands(self.seed)

    def run_op(self, i):
        if self.cli is not None:
            return run_in_process(self.cli, self.items[i])
        code, out, err, rss_kb = spawn([sys.executable, "-m", "pullcalc.cli"] + self.items[i], self.env, self.root)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return code, out, err

    def expected(self, argv):
        if argv[0] == "eval" and argv[1] == inputs.OVERFLOW_EVAL:
            return "100000000000000000000000/1\n"
        return cli_expected(argv)

    def failed(self, out) -> bool:
        return out[0] != 0

    def check(self, i, out) -> None:
        if i not in self._expected:
            self._expected[i] = self.expected(self.items[i])
        code, stdout, stderr = out
        check_cli_output(self._expected[i], stdout, self.items[i])
        expect(stderr == "", "pullcalc %s wrote to stderr" % self.items[i][0])


def run_in_process(cli, argv):
    """``cli.run(argv)`` as (exit code, stdout, stderr), like a child's."""
    try:
        r = cli.run(argv)
    except Exception as exc:  # an exception escaped the CLI: the command failed
        return (1, "", "%s: %s" % (type(exc).__name__, exc))
    return (r.exit_code, r.stdout, r.stderr)


def spawn(argv, env, cwd, timeout=60.0):
    """Run a child to completion; return (exit code, stdout, stderr, peak RSS in KB).

    The child is reaped with ``os.wait4`` so its own peak resident set
    is known; both pipes are drained first so a chatty child cannot
    block.
    """
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            events = sel.select(timeout)
            if not events:
                proc.kill()
            for key, _ in events:
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout]).decode()
    err = b"".join(chunks[proc.stderr]).decode()
    return proc.returncode, out, err, usage.ru_maxrss


WORKLOADS = {w.name: w for w in (AlgebraShort, AlgebraLong, Diagrams, CliCold)}
