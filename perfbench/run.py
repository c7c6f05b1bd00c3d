"""End-to-end benchmark of powerlimits, run the way a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds T --trace 0|1]

One process runs one workload (see ``workloads.py``).  Each pass calls
``cli.main(["run", cfg, "--out", tmp])`` in-process on the config the seed
generates, exactly as ``powerlimits run`` does.  The program is imported
from ``src/`` next to this directory, never from an installed copy.

``--trace 0`` reports the end-to-end metrics:

* ``verdict_s``: time from config to written report, at nominal host
  speed.  A first, warm-up pass is discarded; passes repeat until
  ``--seconds`` have been measured (at least three).  Each pass is
  timed against a fixed yardstick (``make_reference``) run right before
  and after it, and the median over passes of wall time over yardstick
  time, times ``REFERENCE_NOMINAL_S``, is reported: other tenants of
  the shared host slow every pass for tens of seconds at a time, and the
  yardstick beside it slows with it.  ``NOTES.md`` gives the spreads
  this removes.  The raw wall times are printed beside it.
* ``draws_per_s``: rows the law samplers return in one pass (the law's
  ``sample_batch``, or ``torus.sample_grid`` for the torus suite) over
  ``verdict_s``.
* ``peak_rss_mb``: ``ru_maxrss`` of this process after all passes.
* ``setup_s``: median, over fresh processes, of the time from process
  start until ``powerlimits`` and ``powerlimits.cli`` are imported and
  the config is validated, each timed against a fresh interpreter that
  imports numpy alone, spawned right before and after it, and scaled by
  ``SPAWN_REFERENCE_NOMINAL_S`` like ``verdict_s``.

``--trace 1`` alternates untraced and traced passes for ``--seconds`` and
reports the per-layer metrics of ``tracer.py`` (medians over the traced
passes).  The warm-up pass of either mode is traced, which gives the draw
count and lets every later pass check that tracing did not perturb the
rows.

A pass fails when it raises, when ``cli.main`` returns 2, when its report
(``wall_clock`` dropped) differs from the first pass, or when an exact row
(``workloads.EXACT_PREFIXES``) fails.  Failing statistical rows are
alarms, counted in ``experiments.alarm_rows`` and never as failures.
``failed_share`` is failed passes over attempted passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment and every metric by name with its unit.  The
full result, environment and (traced) spans are also written to
``.perfbench/results/`` in the checkout.  ``--smoke`` shrinks every
workload to a few hundred samples for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics as st
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_PASSES = 3
SETUP_REPEATS = 5
# About the yardsticks' lower-quartile times on a shared 2-core x86-64
# host (Python 3.11, numpy 2.4 on scipy-openblas): normalized times read
# as seconds at that host's speed.
REFERENCE_NOMINAL_S = 0.075
SPAWN_REFERENCE_NOMINAL_S = 0.125

END_TO_END = {
    "verdict_s": "s",
    "draws_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Runs in a fresh interpreter; prints the monotonic clock once the
# package and its CLI are imported and the config is validated.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import powerlimits, powerlimits.cli
from powerlimits.experiments import ExperimentConfig
with open(sys.argv[2]) as f:
    ExperimentConfig.from_json(f.read())
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""

# The yardstick of set-up: a fresh interpreter that imports numpy alone.
# Spawning and importing slow with the host differently from work in a
# running process, so set-up gets a yardstick of its own kind.
SPAWN_REFERENCE = """
import time, numpy
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""


def import_program():
    """Import powerlimits from this checkout's ``src``; exit non-zero without it."""
    if not (SRC / "powerlimits" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'powerlimits'}")
    sys.path.insert(0, str(SRC))
    import powerlimits

    if Path(powerlimits.__file__).resolve().parent != SRC / "powerlimits":
        sys.exit(f"error: powerlimits imported from {powerlimits.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    from powerlimits import _kernels

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')} ({info.get('openblas configuration', '')})"

    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {k: os.environ.get(k) for k in threads},
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": _kernels.NUMBA_AVAILABLE,
        "machine": platform.machine(),
    }


def make_reference():
    """A fixed yardstick of host speed: returns a function that times it.

    Other tenants of a shared host slow this process by up to a factor of
    two, in phases of ten seconds to a minute, and the slowdown shows in
    CPU time as well as in wall time (it is not steal time).  A pass timed
    against a yardstick run right beside it cancels most of that.  The
    yardstick mixes the kinds of work the program does: an interpreted
    loop of one LAPACK call per small matrix, batched small-matrix LAPACK
    calls and a vectorized complex exponential, in about equal parts and
    on arrays of at most a few hundred kilobytes, so that ``peak_rss_mb``
    stays the program's.  Its inputs are fixed and it calls nothing of
    powerlimits: a change to the program moves pass times and leaves the
    yardstick as it is.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mats = rng.standard_normal((1000, 3, 3))
    points = rng.uniform(0.0, 2.0 * np.pi, (50, 2))
    freqs = rng.integers(-20, 21, (400, 2)).astype(float)

    def reference() -> float:
        start = perf_counter()
        for mat in mats:
            np.linalg.eigvals(mat)
            np.linalg.eigvals(mat)
        for _ in range(4):
            np.linalg.eig(mats)
            np.linalg.qr(mats)
            mats @ mats
        for _ in range(20):
            np.exp(1j * (points @ freqs.T)).sum(axis=0)
        return perf_counter() - start

    reference()
    return reference


def spawn(code: str, *args: str) -> float:
    """Time from spawning ``python -c code`` to the clock it prints."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - start


def measure_setup(cfg_path: Path, repeats: int) -> list:
    """Times from spawning a fresh interpreter to a validated config, each
    with the mean of the set-up yardstick spawned before and after it."""
    times = []
    before = spawn(SPAWN_REFERENCE)
    for _ in range(repeats):
        wall = spawn(SETUP_CHILD, str(SRC), str(cfg_path))
        after = spawn(SPAWN_REFERENCE)
        times.append((wall, (before + after) / 2))
        before = after
    return times


def normalized(timed: list, nominal: float) -> float:
    """Median over (time, yardstick) pairs of the time at nominal host speed."""
    return st.median(t / ref for t, ref in timed) * nominal


class Passes:
    """Runs passes of one config and checks each against the first."""

    def __init__(self, main, cfg_path: Path, out_path: Path):
        self.main = main
        self.argv = ["run", str(cfg_path), "--out", str(out_path)]
        self.out_path = out_path
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.alarm_rows = 0
        self.rows = 0
        self.sink = open(os.devnull, "w")

    def close(self):
        self.sink.close()

    def run(self, main=None):
        """One pass; returns its wall time, or None if it failed."""
        main = main or self.main
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
                start = perf_counter()
                code = main(self.argv)
                wall = perf_counter() - start
            problem = "cli.main returned 2" if code == 2 else self._check()
        except Exception:
            problem = traceback.format_exc()
        if problem:
            print(f"pass {self.attempted} failed: {problem}", file=sys.stderr)
            self.failed += 1
            return None
        return wall

    def _check(self):
        """Why the written report is wrong, or None."""
        report = json.loads(self.out_path.read_text())
        self.out_path.unlink()
        report.pop("wall_clock")
        if self.reference is None:
            self.reference = report
        elif report != self.reference:
            return "report differs from the first pass"
        rows = report["rows"]
        exact = [r["statistic"] for r in rows if workloads.is_exact(r["statistic"]) and not r["passed"]]
        if exact:
            return f"exact rows failed: {exact[:5]}"
        self.rows = len(rows)
        self.alarm_rows = sum(not r["passed"] for r in rows)
        return None

    def traced(self, tracer):
        """One traced pass; returns (wall, recorder) or (None, recorder)."""
        recorder = tracer.Recorder()
        with tracer.traced(recorder):
            wall = self.run(recorder.wrap("cli.main", self.main))
        return wall, recorder


def run_workload(name: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    import_program()
    from powerlimits import cli

    import tracer

    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(workloads.config(name, seed, smoke)))
    passes = Passes(cli.main, cfg_path, tmp / "report.json")
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "env": environment()}
    try:
        reference = make_reference()
        if trace == 0:
            result["setup_passes"] = measure_setup(cfg_path, 1 if smoke else SETUP_REPEATS)
        _, warm = passes.traced(tracer)
        draws = warm.draws()
        untraced, traced, layers = [], [], []
        deadline = perf_counter() + seconds
        rounds = 0
        before = reference()
        while rounds < MIN_PASSES or perf_counter() < deadline:
            rounds += 1
            wall = passes.run()
            after = reference()
            if wall is not None:
                untraced.append((wall, (before + after) / 2))
            before = after
            if trace:
                wall, recorder = passes.traced(tracer)
                if wall is not None:
                    traced.append(wall)
                    layers.append(recorder.summary(wall))
                    result["spans"] = recorder.spans
                before = reference()
    finally:
        passes.close()
        shutil.rmtree(tmp)
    if not untraced or (trace and not traced):
        sys.exit(f"error: no pass of {name} succeeded")
    result.update(attempted=passes.attempted, failed=passes.failed,
                  untraced_passes=untraced, traced_passes=traced,
                  rows=passes.rows, alarm_rows=passes.alarm_rows, draws=draws)
    if trace == 0:
        verdict_s = normalized(untraced, REFERENCE_NOMINAL_S)
        metrics = {
            "verdict_s": verdict_s,
            "draws_per_s": draws / verdict_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": normalized(result["setup_passes"], SPAWN_REFERENCE_NOMINAL_S),
        }
        units = END_TO_END
    else:
        values = tracer.median_metrics(layers)
        values["experiments.rows"] = passes.rows
        values["experiments.alarm_rows"] = passes.alarm_rows
        values["trace.overhead_s"] = st.median(traced) - st.median(t for t, _ in untraced)
        units = {k: unit for k, (unit, _) in tracer.per_layer_metrics().items()}
        metrics = {k: values.get(k, 0) for k in units}
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return result


def write_result(result: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    smoke = "-smoke" if result["smoke"] else ""
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}{smoke}.json"
    (out / name).write_text(json.dumps(result))


def print_result(result: dict) -> None:
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    print(f"workload: {result['workload']}  seed: {result['seed']}  "
          f"passes: {result['attempted']}  rows: {result['rows']}  "
          f"alarm_rows: {result['alarm_rows']}  draws/pass: {result['draws']}")
    times = [t for t, _ in result["untraced_passes"]]
    refs = [r for _, r in result["untraced_passes"]]
    print(f"untraced passes: {len(times)}  wall fastest: {min(times):.4f} s  "
          f"median: {st.median(times):.4f} s  slowest: {max(times):.4f} s  "
          f"yardstick median: {st.median(refs):.4f} s (nominal {REFERENCE_NOMINAL_S} s)")
    for k, m in result["metrics"].items():
        print(f"{k:45s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_share':45s} {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


def run_all(args) -> None:
    """Every workload in its own fresh process, then one summary table."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        rows.append((name, json.loads(lines[-1])))
    if args.trace:
        return
    cols = list(END_TO_END) + ["failed_share"]
    units = list(END_TO_END.values()) + ["ratio"]
    print(f"{'workload':14s}" + "".join(f"{c + ' [' + u + ']':>22s}" for c, u in zip(cols, units)))
    for name, res in rows:
        vals = [res["metrics"][c]["value"] for c in END_TO_END]
        vals.append(res["failed"] / res["attempted"])
        print(f"{name:14s}" + "".join(f"{v:22.6g}" for v in vals))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sample sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        run_all(args)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    write_result(result)
    print_result(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
