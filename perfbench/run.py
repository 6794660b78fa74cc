#!/usr/bin/env python3
"""Benchmark of volbounds: bound reports per second, latency, set-up and memory.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload poly-skeletons --seed 1 --seconds 10 --trace 0

Each workload is a closed loop with one client in this process: the next
operation starts when the previous one has returned and its result has been
checked.  Only the operation itself is timed, and the window closes once the
timed operations add up to ``--seconds``.  Every result is checked (first
occurrence of an input against independent expectations, repeats against
the first), and the inputs of one pass that the window did not reach are run
afterwards so that the digest always covers the whole pass.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
operations four times, alternately untraced and with spans around the
library's public functions, and prints the per-layer metrics and the
tracing overhead.

The last line of standard output is the result object; the lines before it
record the environment, the digest and the sample count.  Spans and a full
result record are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("maps", "polyhedra", "twists", "augmented", "links", "lobachevsky")
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
IMPORT_SAMPLES = 3


# A fixed permutation for the speed probe; the seed makes it the same in
# every run and every checkout.
PROBE_PERM = list(range(6000))
random.Random(0).shuffle(PROBE_PERM)
PROBE_REF_S = 0.002  # reported times are at the speed where one probe takes 2 ms


def _probe() -> float:
    """Seconds for a fixed stdlib-only task: the cycles of a permutation, then
    a dict, a set and a sort.  It shares no code with volbounds, so a change
    to the library cannot move it."""
    start = perf_counter()
    seen = [False] * len(PROBE_PERM)
    for s in range(len(PROBE_PERM)):
        x = s
        while not seen[x]:
            seen[x] = True
            x = PROBE_PERM[x]
    table = {(i, i * 7 % 13): [i, i + 1] for i in range(3000)}
    sorted({key for key, value in table.items() if value[0] % 3})
    return perf_counter() - start


class HostSpeed:
    """Pins this process (and the children it starts) to the faster vCPU and
    follows that vCPU's speed, so that times can be given at one reference
    speed.

    On a shared machine each vCPU can switch between full and about half
    speed, independently, for a second up to minutes at a time, and a slow
    phase can cover a whole run.  Before an operation, at most every
    ``probe_every_s``, this times the probe task on the pinned vCPU; every
    ``pick_every_s`` it times the task on each allowed vCPU and moves to the
    fastest.  An operation's time is then scaled by PROBE_REF_S over the mean
    of the probes just before and just after it (``scale``)."""

    def __init__(self, probe_every_s: float = 0.1, pick_every_s: float = 0.5):
        self.probe_every_s = probe_every_s
        self.pick_every_s = pick_every_s
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.probes: list[float] = []
        self.last_probe = self.last_pick = float("-inf")

    def _time(self) -> float:
        return min(_probe() for _ in range(2))

    def probe(self) -> int:
        """Time the probe on the current vCPU; return its mark."""
        self.probes.append(self._time())
        self.last_probe = perf_counter()
        return len(self.probes) - 1

    def pick(self) -> int:
        """Move to the fastest allowed vCPU; return the mark of its probe."""
        if len(self.cpus) < 2:
            return self.probe()
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((self._time(), cpu))
        best, cpu = min(timings)
        os.sched_setaffinity(0, {cpu})
        self.probes.append(best)
        self.last_probe = self.last_pick = perf_counter()
        return len(self.probes) - 1

    def mark(self) -> int:
        """Call before a timed operation; pass the result to ``scale``."""
        now = perf_counter()
        if now - self.last_pick >= self.pick_every_s:
            if self.probes:
                self.probe()  # closes the operations run on the old vCPU
            return self.pick()
        if now - self.last_probe >= self.probe_every_s:
            return self.probe()
        return len(self.probes) - 1

    def scale(self, mark: int) -> float:
        """Factor to a reference-speed time for an operation that started at
        ``mark``; the probe after it must have been taken (``probe``)."""
        return PROBE_REF_S / ((self.probes[mark] + self.probes[mark + 1]) / 2)


SPEED = HostSpeed()


def load_library() -> types.SimpleNamespace:
    """Import volbounds from this checkout's ``src/`` and return its modules."""
    if not (SRC / "volbounds" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no volbounds sources under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("volbounds")
    if Path(package.__file__).resolve().parent != SRC / "volbounds":
        raise SystemExit(f"perfbench: imported volbounds from {package.__file__}, not {SRC}")
    # the package re-exports the function `lobachevsky` over its module name
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"volbounds.{name}") for name in MODULES}
    )


def set_up(workload: str, seed: int):
    """Import the library, generate the inputs and warm up; return the time."""
    start = perf_counter()
    vb = load_library()
    wl = WORKLOADS[workload](vb, seed, str(ROOT))
    items = wl.generate()
    wl.warm_up(items)
    return perf_counter() - start, vb, wl, items


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, at the reference speed."""
    mark = SPEED.pick()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    SPEED.probe()
    return float(out.stdout.split()[-1]) * SPEED.scale(mark)


def fresh_import_ms(statement: str) -> float:
    """Median time of one import in a fresh interpreter, measured inside it."""
    code = (
        "import time; t = time.perf_counter(); " + statement
        + "; print((time.perf_counter() - t) * 1e3)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        SPEED.pick()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True,
        )
        if out.returncode != 0:
            return 0.0
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def python_startup_ms() -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        SPEED.pick()
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append((perf_counter() - start) * 1e3)
    return statistics.median(samples)


class Checker:
    """Checks every result; the first result of an input against the
    workload's expectations, every repeat against that first result."""

    def __init__(self, wl, items):
        self.wl = wl
        self.items = items
        self.first: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, idx: int, result) -> None:
        item = self.items[idx]
        outcome, lines = self.wl.outcome(item, result)
        self.attempted += 1
        if idx in self.first:
            first_outcome, first_lines, first_ok = self.first[idx]
            problems = [] if first_ok else ["repeat of a failed input"]
            if (outcome, lines) != (first_outcome, first_lines):
                problems.append(f"{getattr(item, 'label', idx)}: result differs from its first run")
        else:
            try:
                problems = self.wl.check(item, outcome, result)
            except Exception as exc:  # a malformed result must not stop the run
                problems = [f"{getattr(item, 'label', idx)}: check raised {exc!r}"]
            self.first[idx] = (outcome, lines, not problems)
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])

    def digest(self) -> str:
        h = hashlib.sha256()
        for idx in range(len(self.items)):
            outcome, lines, _ = self.first[idx]
            h.update(f"{idx}\t{outcome}\n".encode())
            for line in lines:
                h.update(line.encode() + b"\n")
        return h.hexdigest()


def run_ops(wl, items, checker, indices=None, budget_s=None, tracer=None) -> list[tuple]:
    """Closed loop over ``indices`` (default: the pass, cyclically) until
    they are done or the timed operations add up to ``budget_s`` (wall time).

    Returns (input index, seconds at the reference speed, wall seconds) per
    operation."""
    timed: list[tuple[int, float, int]] = []
    busy = 0.0
    k = 0
    while True:
        if indices is not None and k >= len(indices):
            break
        if budget_s is not None and busy >= budget_s:
            break
        idx = indices[k] if indices is not None else k % len(items)
        mark = SPEED.mark()
        if tracer is not None:
            tracer.begin_op(k)
        start = perf_counter()
        result = wl.run(items[idx])
        elapsed = perf_counter() - start
        timed.append((idx, elapsed, mark))
        busy += elapsed
        checker.record(idx, result)
        k += 1
    SPEED.probe()
    return [(idx, elapsed * SPEED.scale(mark), elapsed) for idx, elapsed, mark in timed]


def per_input(timed: list[tuple]) -> list[float]:
    """Median time of each input reached, over its k repetitions, at the
    reference speed.  The median, unlike the fastest, does not pick the
    repetition whose probes happened to read slow."""
    samples: dict[int, list[float]] = {}
    for idx, scaled, _ in timed:
        samples.setdefault(idx, []).append(scaled)
    return [statistics.median(v) for v in samples.values()]


def complete_pass(wl, items, checker) -> None:
    """Run, untimed, the inputs of the pass that the window did not reach."""
    for idx in range(len(items)):
        if idx not in checker.first:
            checker.record(idx, wl.run(items[idx]))


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read from .git directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "volbounds").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def percentile_ms(durations: list[float], q: int) -> float:
    if len(durations) < 2:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100)[q - 1] * 1e3


def end_to_end(args, wl, items, checker, setup_main: float) -> tuple[dict, dict]:
    timed = run_ops(wl, items, checker, budget_s=args.seconds)
    if args.workload == "cli-readme":
        peak_kb = wl.peak_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    complete_pass(wl, items, checker)
    setups = [setup_main] + [
        fresh_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    times = per_input(timed)
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (percentile_ms(times, 90), "ms"),
        "ok_ops_frac": (1.0 - checker.failed / checker.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    info = {
        "operations": len(timed),
        "samples": len(times),
        "passes": round(len(timed) / len(items), 3),
        "ops_per_s_wall": len(timed) / sum(wall for *_, wall in timed),
        "probe_ms_median": statistics.median(SPEED.probes) * 1e3,
        "setup_samples_s": setups,
    }
    return metrics, info


def traced(args, vb, wl, items, checker) -> tuple[dict, dict]:
    if args.workload == "cli-readme":
        wl.in_process = True
    plan = [k % len(items) for k in range(wl.trace_passes * len(items))]
    # The first untraced pass sets which operations every phase runs.  The
    # phases alternate so that the overhead compares median-of-2 with
    # median-of-2; the last traced phase supplies the per-layer numbers.
    untraced = run_ops(wl, items, checker, indices=plan, budget_s=args.seconds / 4)
    done = plan[: len(untraced)]
    with_spans = []
    for phase in ("traced", "untraced", "traced"):
        if phase == "untraced":
            untraced += run_ops(wl, items, checker, indices=done)
            continue
        tracer = Tracer(vb)
        tracer.install()
        try:
            with_spans += run_ops(wl, items, checker, indices=done, tracer=tracer)
        finally:
            tracer.uninstall()
    complete_pass(wl, items, checker)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.tsv")

    metrics = {name: (value, unit_of(name)) for name, value in tracer.metrics().items()}
    metrics["cli.import_ms"] = (fresh_import_ms("import volbounds.cli"), "ms")
    metrics["lobachevsky.scipy_import_ms"] = (fresh_import_ms("import scipy.integrate"), "ms")
    metrics["cli.python_startup_ms"] = (python_startup_ms(), "ms")
    plain, spanned = sum(per_input(untraced)), sum(per_input(with_spans))
    metrics["trace.overhead_frac"] = (spanned / plain - 1.0, "ratio")
    metrics["trace.ops"] = (len(done), "count")

    per_op = {k[: -len(".total_ms")]: v / len(done) for k, (v, _) in metrics.items()
              if k.endswith(".total_ms")}
    if args.workload == "cli-readme":  # every operation there starts an interpreter
        per_op["cli.import_ms"] = metrics["cli.import_ms"][0]
    leaves = {k: v for k, v in per_op.items()
              if k not in ("polyhedra.rectification_bounds", "cli.run")}
    info = {
        "traced_ops": len(done),
        "spans": len(tracer.spans),
        "median_of_2_s_untraced": plain,
        "median_of_2_s_traced": spanned,
        "largest_layer_ms_per_op": max(leaves.items(), key=lambda kv: kv[1]),
    }
    return metrics, info


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, and print the set-up time (used for setup_s)")
    args = parser.parse_args(argv)

    if args.setup_probe:  # pinned by the parent
        seconds, *_ = set_up(args.workload, args.seed)
        print(seconds)
        return 0

    load_start = os.getloadavg()
    mark = SPEED.pick()
    setup_main, vb, wl, items = set_up(args.workload, args.seed)
    SPEED.probe()
    setup_main *= SPEED.scale(mark)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl.workdir = workdir
        if args.workload == "cli-readme":
            wl.expected_outputs(items)
        checker = Checker(wl, items)
        if args.trace:
            metrics, info = traced(args, vb, wl, items, checker)
        else:
            metrics, info = end_to_end(args, wl, items, checker, setup_main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {
        "python": platform.python_version(),
        "nproc": len(SPEED.cpus) or os.cpu_count(),  # the CPUs allowed before pinning
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    record = {
        "env": env,
        "digest": checker.digest(),
        "distinct_inputs": len(items),
        **info,
        "problems": checker.problems,
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("env " + json.dumps(env))
    print("info " + json.dumps({"digest": record["digest"], **info, "problems": checker.problems}))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
