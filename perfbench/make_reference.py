"""Regenerate reference.json from the current code.

    python3 perfbench/make_reference.py

The gate values come from the CSVs of each preset on its default grid; the
peak n_k values that max_rel_err compares against come from a run on a grid
FINE_FACTOR times finer.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import run
import workloads

FINE_FACTOR = 4


def build_reference(work: Path, grid: int) -> dict:
    """Gate summaries on `grid` and fine-grid peak n_k of every referenced op."""
    reference = {"grid_points": grid, "fine_grid_points": FINE_FACTOR * grid,
                 "gate": {}, "fine_peak_n_k": {}}
    for workload in ("pulsed", "cw", "scan"):
        bench = run.Bench(workload, 0, work, reference={})
        bench.close()
        for op in bench.ops:
            for points, part in ((grid, "gate"), (FINE_FACTOR * grid, "fine_peak_n_k")):
                if bench._call(op, ("--grid-points", str(points))) != 0:
                    raise RuntimeError(f"{op.name} failed on {points} grid intervals")
                summary = workloads.summarise(op, work)
                reference[part][op.name] = {k: v for k, v in summary.items()
                                            if part == "gate" or k.endswith(".peak_n_k")}
    return reference


def main() -> None:
    run._import_package()
    from ramanpairs.config import ScenarioConfig

    work = run.OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workloads.save_reference(build_reference(work, ScenarioConfig().grid_points))
    finally:
        shutil.rmtree(work)


if __name__ == "__main__":
    main()
