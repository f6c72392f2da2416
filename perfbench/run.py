"""The popbias benchmark: one workload, one seed, a fixed measuring time.

usage: python3 perfbench/run.py --workload {desk,wide,sessions} --seed N
                                --seconds S --trace {0,1}

Run from anywhere; it works in the checkout that holds it, builds nothing
(the program is the Python package under ``src/``) and writes only under
``.perfbench_work/``.  Inputs for the seed are generated before any timing
and reused by later invocations.  Every measured run is a fresh process
running ``popbias.cli.main`` (see ``child.py``).

``--trace 0`` repeats untraced runs, then samples set-up until it has
``SETUP_SAMPLES`` values, all within about ``--seconds`` seconds, and reports
the end-to-end metrics.  ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics (``layers.py``).  Either way every report is
checked (``check_report``), and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Units come
from ``BENCHMARK.json``; the lines before it say the same for a reader.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import layers

ROOT = Path(__file__).resolve().parents[1]
WORK = Path(".perfbench_work")  # relative to ROOT, the working directory
REFERENCE = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
SETUP_SAMPLES = 7
# whole invocation, children included, ends well inside the 180 s limit
DEADLINE_S = 170.0
# Peak memory depends on set and dict order (on `wide`, 508-582 MB across
# hash seeds for the same input), so every run uses the same string hashing.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


@dataclass
class Run:
    """One child process: its timings, report bytes and spans, or its error."""

    mode: str
    error: str | None = None
    run_s: float = math.nan
    setup_s: float = math.nan
    startup_s: float = math.nan
    peak_rss_mb: float = math.nan
    report: bytes | None = None
    spans: list = field(default_factory=list)


class Bench:
    """The runs of one invocation: starts each child and checks its report."""

    def __init__(self, workload: str, seed: int, cli_args: list[str], deadline: float):
        self.workload = workload
        self.seed = seed
        self.cli_args = cli_args
        self.deadline = deadline
        self.runs: list[Run] = []
        self.out_root = Path(tempfile.mkdtemp(prefix="runs-", dir=WORK))
        self.report_name = "gapcalc.kv" if workload == "sessions" else "report.kv"

    def launch(self, mode: str) -> Run:
        """Start one child, wait for it and check what it wrote."""
        run = Run(mode)
        self.runs.append(run)
        out = self.out_root / f"{len(self.runs)}-{mode}"
        out.mkdir()
        marks_path = out / "marks.json"
        cmd = [sys.executable, str(Path(__file__).with_name("child.py")), mode,
               str(marks_path), *self.cli_args, "--out", str(out)]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                env=CHILD_ENV)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            run.error = f"{mode} run timed out"
            return run
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            run.error = f"{mode} run exited {proc.returncode}: {' | '.join(tail)}"
            return run
        marks = json.loads(marks_path.read_text(encoding="utf-8"))
        if "setup" not in marks:
            run.error = f"{mode} run never reached the first model"
            return run
        run.setup_s = marks["setup"] - start
        if mode == "setup":
            return run
        run.run_s = marks["end"] - start
        run.startup_s = marks["main"] - start
        run.peak_rss_mb = marks["rss_kb"] / 1024.0
        run.spans = marks.get("spans", [])
        try:
            run.report = (out / self.report_name).read_bytes()
        except OSError as exc:
            run.error = f"{mode} run wrote no report: {exc}"
            return run
        run.error = self.check(run.report)
        return run

    def check(self, report: bytes) -> str | None:
        """Same bytes as the first report of this invocation, sane values, and,
        on the reference seed, the stored reference."""
        first = next(r.report for r in self.runs if r.report is not None)
        if report != first:
            return "report differs from the first run of the same seed"
        problem = check_report(self.workload, report.decode("utf-8"))
        if problem is None and self.seed == REFERENCE_SEED:
            reference = REFERENCE / f"{self.workload}.kv"
            want = reference.read_text(encoding="utf-8") if reference.exists() else ""
            if _without_versions(report.decode("utf-8")) != _without_versions(want):
                problem = f"report differs from reference/{self.workload}.kv"
        return problem

    def measure(self, seconds: float, trace: bool) -> None:
        """Repeat full runs (paired with traced ones when ``trace``) while the
        next round, and the set-up-only runs still needed after it, would end
        within ``seconds``; untraced, then add set-up-only runs until there
        are ``SETUP_SAMPLES`` set-up times."""
        begin = time.monotonic()
        self.launch("setup")  # warm-up, not counted: byte-code and file caches
        start = time.monotonic()
        probe_s = start - begin
        rounds = 0
        while True:
            for mode in ("run", "trace") if trace else ("run",):
                self.launch(mode)
            rounds += 1
            elapsed = time.monotonic() - start
            probes = 0 if trace else max(0, SETUP_SAMPLES - rounds - 1)
            if elapsed * (rounds + 1) / rounds + probes * probe_s > seconds:
                break
        if trace:
            return
        for _ in range(SETUP_SAMPLES):  # bounded even when every run fails
            if len(self.ok("run")) + len(self.ok("setup")) >= SETUP_SAMPLES:
                break
            self.launch("setup")

    def ok(self, mode: str) -> list[Run]:
        """Runs of ``mode`` that passed, leaving out the warm-up, ``runs[0]``."""
        return [r for r in self.runs[1:] if r.mode == mode and r.error is None]

    def close(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)


def check_report(workload: str, text: str) -> str | None:
    """Every auc_mean and p_value in [0, 1]; the low, medium and high user
    counts add up to the all (``run``) or overall (``gapcalc``) count."""
    values = dict(line.partition("=")[::2] for line in text.splitlines())
    total = "overall" if workload == "sessions" else "all"
    totals = 0
    for key, value in values.items():
        # users.<model>.<group> in report.kv, users.<service>.<group>.<measure>
        # in gapcalc.kv
        parts = key.split(".")
        if parts[0] in ("auc_mean", "p_value") and not 0.0 <= float(value) <= 1.0:
            return f"{key}={value} outside [0, 1]"
        if parts[0] == "users" and parts[2] == total:
            totals += 1
            split = sum(float(values.get(".".join([*parts[:2], group, *parts[3:]]), 0.0))
                        for group in ("low", "medium", "high"))
            if split != float(value):
                return f"low + medium + high users = {split:g}, not {key}={value}"
    return None if totals else "report has no user counts"


def _without_versions(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("provenance.version."))


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with NumPy, when it can be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(workload: str, seed: int, shape: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "shape": shape,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "load": "one CLI process at a time",
    }


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.4f}, max {max(values):.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "popbias" / "cli.py").is_file():
        print(f"error: no popbias sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK.mkdir(exist_ok=True)
    cli_args, shape = inputs.prepare(args.workload, args.seed, WORK)
    print("env " + json.dumps(environment(args.workload, args.seed, shape), sort_keys=True))

    bench = Bench(args.workload, args.seed, cli_args, began + DEADLINE_S)
    try:
        bench.measure(args.seconds, bool(args.trace))
        if args.trace:
            values = per_layer_metrics(bench.ok("run"), bench.ok("trace"))
        else:
            values = end_to_end_metrics(bench.ok("run"), bench.ok("setup"))
    finally:
        bench.close()

    failed = [r for r in bench.runs if r.error is not None]
    for run in failed:
        print(f"failed: {run.error}")
    attempted = len(bench.runs)
    print(f"error_rate = {len(failed) / attempted:.4f} ratio "
          f"({len(failed)} failed of {attempted} attempted)")
    metrics = {}
    for entry in wanted:
        if entry["name"] in values:
            value, note = values[entry["name"]]
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"{entry['name']} = {value:.6g} {entry['unit']}{note}")
    complete = len(metrics) == len(wanted) and len(values) == len(wanted)
    result = {"correct": not failed and complete, "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def end_to_end_metrics(runs: list[Run], probes: list[Run]) -> dict:
    values = {}
    if runs:
        for name in ("run_s", "peak_rss_mb"):
            samples = [getattr(r, name) for r in runs]
            values[name] = (statistics.median(samples), f"  (median, {_spread(samples)})")
    samples = [r.setup_s for r in runs + probes]
    if samples:
        values["setup_s"] = (statistics.median(samples), f"  (median, {_spread(samples)})")
    return values


def per_layer_metrics(runs: list[Run], traced: list[Run]) -> dict:
    if not runs or not traced:
        return {}
    print("largest self times in the first traced run: " + ", ".join(
        f"{name} {own:.3f} s" for name, own in layers.largest_self_times(traced[0].spans)))
    per_run = [layers.per_layer(r.spans, r.run_s, r.startup_s) for r in traced]
    values = {name: (statistics.median(m[name] for m in per_run), "")
              for name in per_run[0]}
    untraced_s = statistics.median(r.run_s for r in runs)
    traced_s = statistics.median(r.run_s for r in traced)
    values["trace_overhead_frac"] = (
        traced_s / untraced_s - 1.0,
        f"  (traced {traced_s:.4f} s vs untraced {untraced_s:.4f} s)")
    return values


if __name__ == "__main__":
    sys.exit(main())
