"""Self-test of the benchmark, on a reduced grid (a few minutes on two cores).

    python3 perfbench/selftest.py

Checks, for every workload: each metric of BENCHMARK.json is emitted with
its unit; the deterministic counts repeat exactly between traced passes; the
correctness gate fails when fed a wrong reference value; no process the
benchmark started is still running once it has closed.  It also checks that
the benchmark exits non-zero, without a result line, in a directory that
holds only BENCHMARK.json and the benchmark itself.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

import make_reference
import run
import workloads

GRID = 400    # coarse, but the verify workload still clears the 5% oracle gate
DETERMINISTIC = ("atom.drift_evals", "propagator.ode_nfev", "oracle.nfev")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def child_processes() -> set[str]:
    """Pids of this process's living children (empty where /proc does not list them)."""
    pids: set[str] = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path, encoding="ascii") as f:
            pids.update(f.read().split())
    return pids


def check_workload(workload: str, reference: dict, work) -> None:
    bench = run.Bench(workload, 7, work, reference=reference, grid=GRID)
    metrics = run.end_to_end(bench, workload, 0.1, work)
    bench.close()
    check({k: v["unit"] for k, v in metrics.items()} == declared("end_to_end"),
          f"{workload}: end-to-end metrics differ from BENCHMARK.json")
    check(bench.failed == 0, f"{workload}: {bench.failed} of {bench.attempted} ops failed")

    bench = run.Bench(workload, 7, work, reference=reference, grid=GRID)
    metrics = run.per_layer(bench, workload, 0.1)
    check({k: v["unit"] for k, v in metrics.items()} == declared("per_layer"),
          f"{workload}: per-layer metrics differ from BENCHMARK.json")
    bench.timed(0.0, ("traced", True, True))   # MIN_PASSES more traced passes
    bench.close()
    for key in DETERMINISTIC:
        counts = {layer[key] for layer in bench.layer}
        check(len(counts) == 1, f"{workload}: {key} differs between passes: {counts}")
    check(bench.failed == 0, f"{workload}: traced ops failed")

    # a deliberately wrong reference must fail the gate
    if workload == "verify":
        wrong, bound = reference, workloads.ORACLE_GATE
        workloads.ORACLE_GATE = 1e-9
    else:
        op = bench.ops[0].name
        key = sorted(reference["gate"][op])[-1]
        wrong = json.loads(json.dumps(reference))
        wrong["gate"][op][key] = 1.05 * reference["gate"][op][key] + 1e-6
    try:
        bench = run.Bench(workload, 7, work, reference=wrong, grid=GRID)
        bench.run_pass()
        bench.close()
    finally:
        if workload == "verify":
            workloads.ORACLE_GATE = bound
    expected = len(bench.ops) if workload == "verify" else 1
    check(bench.failed == expected, f"{workload}: gate missed a wrong reference value")
    left = child_processes()
    check(not left, f"{workload}: processes {sorted(left)} still run after the benchmark closed")
    print(f"selftest {workload}: ok")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pulsed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "the benchmark produced a result without the package source")
    print("selftest bare directory: ok")


def main() -> None:
    run._import_package()
    check_bare_directory()
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = make_reference.build_reference(work, GRID)
        for workload in workloads.PRESETS:
            check_workload(workload, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
