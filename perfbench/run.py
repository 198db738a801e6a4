"""Benchmark of the ramanpairs CLI: timed passes over a workload's operations.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pulsed --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of untraced passes; --trace 1 the
per-layer metrics of traced passes (spans around the package's public
functions) next to untraced ones, whose difference is the tracing overhead.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Spans of a traced run are written to
.perfbench_out/.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP, set before numpy loads: multithreaded BLAS on
# 16x16 products only adds run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import multiprocessing
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WARMUP_GRID = 100
MIN_PASSES = 3
CALIBRATION_PRODUCTS = 400
CALIBRATION_REPEATS = 3

END_TO_END_UNITS = {"pass_norm": "calib", "setup_s": "s", "peak_rss_mb": "MB",
                    "success_rate": "ratio", "max_rel_err": "ratio"}


def _import_package():
    """Put the checkout's src/ first on the path; refuse any other ramanpairs."""
    if not (SRC / "ramanpairs" / "__init__.py").is_file():
        raise SystemExit(f"no ramanpairs package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import ramanpairs
    if Path(ramanpairs.__file__).resolve().parent != SRC / "ramanpairs":
        raise SystemExit(f"imported ramanpairs from {ramanpairs.__file__}, not {SRC}")


def calibration_kernel(_=None) -> float:
    """Seconds for a fixed chain of 64x64 complex products (no package code).

    The fastest of CALIBRATION_REPEATS chains, so that an interrupt during one
    chain does not count as a slower machine.
    """
    rng = np.random.default_rng(0)
    unitary = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))[0]
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        m = unitary
        for _ in range(CALIBRATION_PRODUCTS):
            m = unitary @ m
        best = min(best, time.perf_counter() - t0)
    return best


class Calibration:
    """Times the calibration kernel on as many processes as a pass uses.

    On a shared host the speed of a core drifts by up to 1.8x over minutes,
    and the operations slow with it.  Timed between consecutive operations,
    the kernel slows the same way, so op time / kernel time stays put while
    wall time does not.  A pass that runs a process pool is calibrated on
    that many processes at once.

    The pool forks, like the package's own scan pool: a spawning pool would
    also start multiprocessing's resource tracker, a process that outlives
    the pool's shutdown.
    """

    def __init__(self, max_processes: int):
        self.pool = (ProcessPoolExecutor(max_processes,
                                         mp_context=multiprocessing.get_context("fork"))
                     if max_processes > 1 else None)

    def __call__(self, processes: int) -> float:
        if processes == 1:
            return calibration_kernel()
        return statistics.mean(self.pool.map(calibration_kernel, range(processes)))

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)


class PassTime(NamedTuple):
    wall_s: float     # summed wall time of the pass's CLI calls
    norm: float       # summed op time / calibration time


class Bench:
    """One workload's operations, run pass by pass with the correctness gate."""

    def __init__(self, workload: str, seed: int, work: Path, reference: dict | None = None,
                 grid: int | None = None):
        from ramanpairs import cli

        self.cli = cli
        self.work = work
        self.grid_args = ("--grid-points", str(grid)) if grid else ()
        self.ops = workloads.setup(workload, work)
        self.reference = reference if reference is not None else workloads.load_reference()
        self.rng = random.Random(seed)
        self.workers = workloads.SCAN_WORKERS if any(op.kind == "scan" for op in self.ops) else 1
        self.calibration = Calibration(self.workers)
        self.attempted = 0
        self.failed = 0
        self.errors: list[float] = []
        self.layer: list[dict] = []      # per-layer metrics of each traced pass
        self.spans: list[list[dict]] = []

    def _call(self, op, extra: tuple[str, ...]) -> int:
        argv = [*op.argv, *self.grid_args, *extra, "--out", str(self.work)]
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def run_pass(self, extra: tuple[str, ...] = (), tracer=None, check: bool = True,
                 serial: bool = False) -> PassTime:
        """Run every op once in seeded order, with a calibration before and after each.

        serial runs a scan on one worker (and calibrates on one process).
        """
        workers = 1 if serial else self.workers
        if serial and self.workers > 1:
            extra = (*extra, "--workers", "1")
        order = list(self.ops)
        self.rng.shuffle(order)
        wall = norm = 0.0
        cal = self.calibration(workers)
        for op in order:
            for name in op.csv_names:
                (self.work / name).unlink(missing_ok=True)
            self.attempted += 1
            try:
                span = tracer.span("cli", "main") if tracer else contextlib.nullcontext()
                t0 = time.perf_counter()
                with span:
                    rc = self._call(op, extra)
                dt = time.perf_counter() - t0
                cal_after = self.calibration(workers)
                wall += dt
                norm += dt / (0.5 * (cal + cal_after))
                cal = cal_after
                ok = rc == 0
                if ok and check:
                    ok, err = workloads.gate(
                        op, workloads.summarise(op, self.work), self.reference)
                    self.errors.append(err)
            except (Exception, SystemExit):
                traceback.print_exc()
                ok = False
            self.failed += not ok
        return PassTime(wall, norm)

    def warm_up(self) -> None:
        self.run_pass(("--grid-points", str(WARMUP_GRID)), check=False)

    def timed(self, seconds: float, *kinds) -> dict[str, list[PassTime]]:
        """Cycle over the given pass kinds until another cycle would overrun.

        Each kind is (label, serial, traced); at least MIN_PASSES cycles (one
        when several kinds alternate) run whatever the budget.
        """
        times = {label: [] for label, _, _ in kinds}
        start = time.perf_counter()
        cycles: list[float] = []
        min_cycles = MIN_PASSES if len(kinds) == 1 else 1
        while True:
            c0 = time.perf_counter()
            for label, serial, traced in kinds:
                if traced:
                    tracer = tracing.Tracer().install()
                    try:
                        pass_time = self.run_pass(tracer=tracer, serial=serial)
                    finally:
                        tracer.close()
                    self.layer.append(tracer.metrics(pass_time.wall_s))
                    self.spans.append(tracer.dump())
                else:
                    pass_time = self.run_pass(serial=serial)
                times[label].append(pass_time)
            cycles.append(time.perf_counter() - c0)
            done = time.perf_counter() - start
            if len(cycles) >= min_cycles and done + statistics.median(cycles) > seconds:
                return times

    def close(self) -> None:
        self.calibration.close()

    def max_rel_err(self) -> float:
        finite = [e for e in self.errors if e == e and e != float("inf")]
        return max(finite) if finite else 1.0


def measure_setup(workload: str, work: Path) -> float:
    """Median wall time of fresh processes that import the CLI and build the configs."""
    samples = []
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        target.mkdir(exist_ok=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        "--workload", workload, "--out", str(target)],
                       cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def tail(samples: list[float]) -> str:
    """Highest order statistic with at least ten samples beyond it."""
    if len(samples) < 11:
        return f"n/a ({len(samples)} passes; needs 11 for ten beyond)"
    return f"{sorted(samples)[-11]:.4f} s ({len(samples)} passes)"


def end_to_end(bench: Bench, workload: str, seconds: float, work: Path) -> dict[str, float]:
    setup_s = measure_setup(workload, work)
    bench.warm_up()
    passes = bench.timed(seconds, ("pass", False, False))["pass"]
    wall = [p.wall_s for p in passes]
    metrics = {
        "pass_norm": statistics.median(p.norm for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": 1.0 - bench.failed / bench.attempted,
        "max_rel_err": bench.max_rel_err(),
    }
    print(f"{workload}: {len(passes)} passes, pass_norm {metrics['pass_norm']:.2f} calib, "
          f"pass_s {statistics.median(wall):.4f} s, pass_s_tail {tail(wall)}, "
          f"setup_s {setup_s:.4f} s (median of {SETUP_REPEATS}), "
          f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB, "
          f"failure_rate {bench.failed}/{bench.attempted}, "
          f"{'oracle_' if workload == 'verify' else ''}max_rel_err {metrics['max_rel_err']:.3e}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer(bench: Bench, workload: str, seconds: float) -> dict[str, float]:
    bench.warm_up()
    # layer figures come from serial passes; a scan's pool pass gives its wall time
    kinds = [("untraced", True, False), ("traced", True, True)]
    if workload == "scan":
        kinds.insert(0, ("pool", False, False))
    times = bench.timed(seconds, *kinds)
    median = {label: PassTime(statistics.median(p.wall_s for p in passes),
                              statistics.median(p.norm for p in passes))
              for label, passes in times.items()}
    layer = {k: statistics.median(m[k] for m in bench.layer) for k in bench.layer[0]}
    # the serial pass stands for the serial sum of the scan's point times
    capacity = workloads.SCAN_WORKERS * median["pool"].wall_s if "pool" in median else 0.0
    layer["runner.scan_pool_idle_pct"] = (
        100.0 * (capacity - median["untraced"].wall_s) / capacity if capacity else 0.0)
    traced_s = median["traced"].wall_s
    layer["trace.pass_s"] = traced_s
    layer["trace.overhead_pct"] = 100.0 * (median["traced"].norm / median["untraced"].norm - 1.0)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{workload}-{os.getpid()}.json").write_text(json.dumps(bench.spans))
    print(f"{workload}: {len(times['traced'])} traced passes; per-layer self time covers "
          f"{layer['trace.coverage_pct']:.1f}% of the traced pass "
          f"({traced_s:.4f} s), tracing overhead {layer['trace.overhead_pct']:+.1f}% of the "
          f"calibrated pass time; "
          f"byte counters are computed from array and file sizes, not measured")
    return {k: {"value": v, "unit": tracing.unit(k)} for k, v in layer.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pulsed", "cw", "verify", "scan"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_package()

    if args.setup_only:
        workloads.setup(args.workload, args.out)
        return 0

    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    bench = None
    try:
        bench = Bench(args.workload, args.seed, work)
        if args.trace:
            metrics = per_layer(bench, args.workload, args.seconds)
        else:
            metrics = end_to_end(bench, args.workload, args.seconds, work)
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
