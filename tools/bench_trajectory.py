"""Record one point of the benchmark trajectory: BENCH_<n>.json.

Run from anywhere inside a checkout, with the sequence number of the
change as the only argument:

    python3 tools/bench_trajectory.py 7

It runs the command that BENCHMARK.json declares for every workload it
lists, once at ``--trace 0`` (end-to-end metrics) and once at
``--trace 1`` (per-layer metrics), each for the declared
``run_seconds`` with the fixed seed below.  It also runs the tier-1
test suite once and records its wall time, its summary line and its ten
slowest tests (``--durations=10``).  It writes both output lines of
every benchmark run (the ``# `` line of raw figures and the JSON
result), the tier-1 record, the size of the package and of its tests
(``src_lines`` and ``test_lines``: the line count of every
``src/pullcalc/**/*.py`` and every ``tests/**/*.py`` file, as ``wc -l``
counts them, and their totals), the machine it ran on and the git
revision to BENCH_<n>.json at the root of the checkout.  It exits 1 if any run
gives no result line or the tier-1 suite fails.
"""

from __future__ import annotations

import glob
import json
import os
import platform
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine() -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "system": platform.platform(),
        "python": platform.python_version(),
    }


def run(command, workload: str, seconds, trace: int) -> dict:
    argv = command + [
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = {"workload": workload, "trace": trace, "exit_code": proc.returncode}
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["result"] = None
        record["stderr"] = proc.stderr[-2000:]
    raw = [line[2:] for line in lines if line.startswith("# ")]
    record["raw"] = json.loads(raw[-1]) if raw else None
    return record


def line_counts(directory: str) -> dict:
    """Newlines in every ``<directory>/**/*.py`` file, by path from the
    root of the checkout, and their total."""
    files = {}
    pattern = os.path.join(ROOT, directory, "**", "*.py")
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path, "rb") as handle:
            files[os.path.relpath(path, ROOT).replace(os.sep, "/")] = handle.read().count(b"\n")
    return {"files": files, "total": sum(files.values())}


TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
_DURATION = re.compile(r"([0-9.]+)s (setup|call|teardown) +(\S+)")


def tier1() -> dict:
    """One run of the tier-1 suite: wall time, summary and slowest tests."""
    env = dict(os.environ)
    paths = (os.path.join(ROOT, "src"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    slowest = [
        {"seconds": float(m.group(1)), "phase": m.group(2), "test": m.group(3)}
        for m in map(_DURATION.fullmatch, lines)
        if m
    ]
    return {
        "command": ["python", *TIER1[1:]],
        "exit_code": proc.returncode,
        "wall_s": round(wall, 2),
        "summary": lines[-1] if lines else "",
        "slowest": slowest,
    }


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdecimal():
        print("usage: python3 tools/bench_trajectory.py <n>", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            runs.append(run(spec["command"], workload, spec["run_seconds"], trace))
            print(workload, "trace", trace, "done", file=sys.stderr, flush=True)
    tests = tier1()
    print("tier-1 done", file=sys.stderr, flush=True)
    document = {
        "revision": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
        "machine": machine(),
        "command": spec["command"],
        "seed": SEED,
        "run_seconds": spec["run_seconds"],
        "runs": runs,
        "tier1": tests,
        "src_lines": line_counts("src/pullcalc"),
        "test_lines": line_counts("tests"),
    }
    path = os.path.join(ROOT, "BENCH_%s.json" % argv[0])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print(path)
    return 0 if all(r["result"] is not None for r in runs) and tests["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
