"""pullcalc benchmark: one workload, one run, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload algebra-short --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same operations with spans around pullcalc's public functions and
prints the per-layer metrics instead.  The last line of standard
output is always the JSON result; the line before it is a readable
summary with the raw (unadjusted) figures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import refclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402

SETUP_PROBES = 4  # extra set-ups in fresh processes; setup_s is the median of 5
MIN_OPERATIONS = 40  # the tail percentile needs 40 samples
TAIL_BEYOND = 10  # the tail is the sample with exactly 10 beyond it
HARD_STOP_S = 150.0  # never run past this, whatever the minimum says
START_SAMPLES = 7  # fresh interpreters per kind for cli.import_ms / cli.bare_start_ms
CENSUS_SEED = 0  # the census's commands are the same for every seed, so counts repeat


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The reference loop only speaks for the CPU it ran on; a child
    process scheduled on the other CPU escapes the adjustment.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(workload_name, seed):
    """Set-up time of one fresh process, speed-adjusted, in seconds."""
    argv = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload_name,
        "--seed",
        str(seed),
        "--setup-probe",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % done.stderr.strip()[-400:])
    return float(done.stdout.split()[-1])


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_times():
    """Speed-adjusted ms of a bare interpreter and of one importing pullcalc.cli."""
    env = child_env()
    bare, loaded = [], []
    for _ in range(START_SAMPLES):
        for argv, sink in (("pass", bare), ("import pullcalc.cli", loaded)):
            s = refclock.timed(workloads.spawn, [sys.executable, "-c", argv], env, ROOT)
            if s.value[0] != 0:
                raise RuntimeError("interpreter start failed: %s" % s.value[2][-400:])
            sink.append(1000.0 * s.adjusted_s)
    return statistics.median(bare), statistics.median(loaded)


def tail(values):
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 1 - TAIL_BEYOND)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pullcalc", "__init__.py")):
        print("perfbench: no pullcalc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    pin_to_one_cpu()

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    refclock.reference_loop()  # its first pass in a process runs cold
    setup = refclock.timed(wl.setup)
    if args.setup_probe:
        print(setup.adjusted_s)
        return 0

    correct = True
    problems = []

    def note(message):
        if len(problems) < 5:
            problems.append(message)

    def check(i, out):
        nonlocal correct
        try:
            wl.check(i, out)
        except CheckError as exc:
            correct = False
            note("%s op %d: %s" % (wl.name, i, exc))

    check(0, setup.value)

    tracer = None
    census = []
    if args.trace:
        import pullcalc
        import pullcalc.cli as cli

        tracer = spans.Tracer()
        tracer.install(pullcalc, cli)
        from inputs import OVERFLOW_EVAL, cli_commands

        census = [a for a in cli_commands(CENSUS_SEED) if a[1:] != [OVERFLOW_EVAL]]
        census_expected = [workloads.cli_expected(a) for a in census]
        if isinstance(wl, workloads.CliCold):
            wl.cli = cli
            census = []

    def run_census():
        nonlocal correct
        for argv_, want in zip(census, census_expected):
            tracer.begin_op()
            s = refclock.timed(workloads.run_in_process, cli, argv_)
            tracer.end_op(s.factor)
            code, out, err = s.value
            try:
                workloads.expect(code == 0 and err == "", "exit %d: %s" % (code, err[-200:]))
                workloads.check_cli_output(want, out, argv_)
            except CheckError as exc:
                correct = False
                note("census %s: %s" % (argv_[0], exc))

    samples = []
    attempted = failed = rounds = 0
    start = refclock.now()
    while True:
        for i in wl.round():
            if tracer:
                tracer.begin_op()
            try:
                s = refclock.timed(wl.run_op, i)
            except Exception as exc:  # an operation that raises has failed
                attempted += 1
                failed += 1
                if tracer:
                    tracer.end_op(1.0)
                note("%s op %d raised %s: %s" % (wl.name, i, type(exc).__name__, exc))
                continue
            if tracer:
                tracer.end_op(s.factor)
            attempted += 1
            if wl.failed(s.value):
                failed += 1
                continue
            check(i, s.value)
            s.value = None
            samples.append(s)
        if tracer and census:
            run_census()
        rounds += 1
        elapsed = refclock.now() - start
        if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and attempted >= MIN_OPERATIONS):
            break

    adjusted = [1000.0 * s.adjusted_s for s in samples]
    raw = [1000.0 * s.raw_s for s in samples]
    factors = [s.factor for s in samples]
    throughput = len(samples) / sum(s.adjusted_s for s in samples) if samples else 0.0
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "samples": len(samples),
        "p50_ms": round(statistics.median(adjusted), 3) if samples else None,
        "raw_p50_ms": round(statistics.median(raw), 3) if samples else None,
        "raw_tail_ms": round(tail(raw), 3) if samples else None,
        "median_speed_factor": round(statistics.median(factors), 4) if samples else None,
        "throughput_ops_s": round(throughput, 3),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    import pullcalc

    info["using_compiled"] = getattr(pullcalc, "USING_COMPILED", None)
    for p in problems:
        print("perfbench: %s" % p, file=sys.stderr)

    if args.trace:
        tracer.uninstall()
        metrics = tracer.report(attempted)
        bare, loaded = start_times()
        metrics["cli.import_ms"] = {"value": loaded - bare, "unit": "ms"}
        metrics["cli.bare_start_ms"] = {"value": bare, "unit": "ms"}
    else:
        setups = [setup.adjusted_s] + [setup_probe(wl.name, args.seed) for _ in range(SETUP_PROBES)]
        if isinstance(wl, workloads.CliCold):
            rss_kb = wl.peak_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        info["setup_s_all"] = [round(x, 4) for x in setups]
        metrics = {
            "throughput_ops_s": {"value": throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(adjusted), "unit": "ms"},
            "latency_tail_ms": {"value": tail(adjusted), "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print("# " + json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
