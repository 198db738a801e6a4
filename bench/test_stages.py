"""Per-stage timings of the package, under pytest-benchmark.

Run from the root of a source checkout, with one BLAS thread as the benchmark
under perfbench/ pins it:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest bench/ --benchmark-json BENCH.json

Each stage of ``run_scenario`` is timed on its own: the propagator grid build,
the diffusion map, the moment assembly, the observables, the scenario CSV
write, and the whole ``run_scenario``.  Every such stage runs on fig2a
(constant drives, every interval quiet), fig7d (constant drives with both
drives on), fig2b (Gaussian pulses, Magnus step maps where they act) and
fig4c (opposite chirps), at the presets' 1600 intervals; the grid build
and the moment assembly run also on fig6b's strongest scan point, Rabi
frequency 50 (no quiet interval, no shared flow frame), and the grid build
on fig3b's at Rabi frequency 30 (four substeps per driven interval).
Inside the grid build, the Magnus substep sizing (the weights of every
interval, then ``_substeps``) is timed on its own on the three
time-dependent drives fig2b, fig4c and fig6b at 50.  A long
window, fig2b stretched to t_end 20 on 2000 intervals (18 blocks, each in
its own flow frame), times the grid build and the moment pass together.
Three stages stand outside a scenario run:
``import ramanpairs.cli`` in a fresh interpreter, one oracle run (fig2b, two
pulses of one envelope, fig7c, a cw pump alone, and fig4c, two chirped
pulses, each on the thinned grid of ``run_verification`` under the default
``[verify]``), and
fig6b's scan at 200 intervals, once serial and once on a pool of two
workers.  The tier-1 suite does not collect this
directory (``testpaths`` in pyproject.toml); ``pytest bench/
--benchmark-disable`` runs every stage once, as a smoke test.

To compare two builds, run this file on each checkout in turn, alternating
them (parent, change, parent, change, ...) for five or more runs a side, and
compare each stage's minimum as well as its median over the runs.  On a
shared host the medians of one unchanged tree spread up to 1.75x from run to
run, so a saving of a few milliseconds shows in the minima, which noise can
only raise, before it shows in the medians; alternating spreads a slow spell
of the host over both sides.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ramanpairs
from ramanpairs import propagator
from ramanpairs.atom import DriftBuilder
from ramanpairs.config import apply_override
from ramanpairs.moments import compute_moments
from ramanpairs.noise import diffusion_table
from ramanpairs.observables import assemble_observables
from ramanpairs.oracle import OracleConfig, oracle_moments
from ramanpairs.presets import preset
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.runner import run_scan, run_scenario, write_scenario_csv

SCENARIOS = ["fig2a", "fig7d", "fig2b", "fig4c"]


@functools.cache
def _config(name):
    return preset(name).scenarios[0]


@functools.cache
def _strong_drive():
    """fig6b at Rabi frequency 50, the scan point whose flow was the costliest."""
    return apply_override(preset("fig6b").scan, "both.omega_peak", 50.0)


@functools.cache
def _many_substeps():
    """fig3b at Rabi frequency 30, the preset point that takes the most substeps."""
    return apply_override(preset("fig3b").scan, "both.omega_peak", 30.0)


@functools.cache
def _long_window():
    """fig2b at t_end 20 on 2000 intervals: its flow from 0 has condition e^40."""
    return replace(_config("fig2b"), t_end=20.0, grid_points=2000)


def _grid(cfg):
    return build_propagator_grid(cfg.atom, cfg.pump, cfg.control, t_end=cfg.t_end,
                                 n_intervals=cfg.grid_points, rtol=cfg.rtol)


def _substep_sizing(builder, times, rtol):
    weights = propagator._magnus_weights(builder, times[:-1], times[1] - times[0])
    return propagator._substeps(weights, propagator._column_sums(builder.generators), rtol)


def test_import(benchmark):
    """A fresh interpreter importing the CLI, the start-up every command pays."""
    benchmark.group = "import"
    env = dict(os.environ, PYTHONPATH=str(Path(ramanpairs.__file__).parents[1]))
    argv = [sys.executable, "-c", "import ramanpairs.cli"]
    done = benchmark.pedantic(subprocess.run, args=(argv,), kwargs={"env": env, "check": True},
                              rounds=5, iterations=1)
    assert done.returncode == 0


@pytest.mark.parametrize("name", SCENARIOS)
def test_grid_build(benchmark, name):
    benchmark.group = "grid build"
    grid = benchmark(_grid, _config(name))
    assert len(grid.times) == _config(name).grid_points + 1


def test_grid_build_strong_drive(benchmark):
    benchmark.group = "grid build"
    grid = benchmark(_grid, _strong_drive())
    assert len(grid.times) == _strong_drive().grid_points + 1


def test_grid_build_many_substeps(benchmark):
    benchmark.group = "grid build"
    grid = benchmark(_grid, _many_substeps())
    assert len(grid.times) == _many_substeps().grid_points + 1


@pytest.mark.parametrize("name", ["fig2b", "fig4c", "fig6b-50"])
def test_substep_sizing(benchmark, name):
    """The Magnus weights of every grid interval, then the substeps they give."""
    benchmark.group = "substep sizing"
    cfg = _strong_drive() if name == "fig6b-50" else _config(name)
    builder = DriftBuilder(cfg.atom, cfg.pump, cfg.control)
    times = np.linspace(0.0, cfg.t_end, cfg.grid_points + 1)
    assert benchmark(_substep_sizing, builder, times, cfg.rtol) >= 1


@pytest.mark.parametrize("name", SCENARIOS)
def test_diffusion_map(benchmark, name):
    benchmark.group = "diffusion map"
    diffusion = benchmark(diffusion_table, _config(name).atom)
    assert diffusion.einstein.shape == (16, 16, 16)


@pytest.mark.parametrize("name", [*SCENARIOS, "fig6b-50"])
def test_moment_assembly(benchmark, name):
    """fig6b at 50 shares no flow frame: every block builds its own factors."""
    benchmark.group = "moment assembly"
    cfg = _strong_drive() if name == "fig6b-50" else _config(name)
    grid = _grid(cfg)
    moments = benchmark(compute_moments, cfg.atom, grid, diffusion_table(cfg.atom))
    assert moments.n_k.total.shape == grid.times.shape


def test_long_window(benchmark):
    """The grid build and the moment pass of the long window."""
    benchmark.group = "long window"
    cfg = _long_window()
    moments = benchmark(lambda: compute_moments(cfg.atom, _grid(cfg), diffusion_table(cfg.atom)))
    assert moments.n_k.total.shape == (2001,)


@pytest.mark.parametrize("name", SCENARIOS)
def test_observables(benchmark, name):
    benchmark.group = "observables"
    moments = run_scenario(_config(name)).moments
    obs = benchmark(assemble_observables, moments)
    assert obs.n_k.shape == moments.times.shape


@pytest.mark.parametrize("name", SCENARIOS)
def test_csv_write(benchmark, name, tmp_path):
    benchmark.group = "csv write"
    result = run_scenario(_config(name))
    path = tmp_path / f"{name}.csv"
    benchmark(write_scenario_csv, result, path)
    assert path.stat().st_size > 0


@pytest.mark.parametrize("name", SCENARIOS)
def test_run_scenario(benchmark, name):
    benchmark.group = "run_scenario"
    result = benchmark(run_scenario, _config(name))
    assert result.peak_n_k() > 0.0


@pytest.mark.parametrize("name", ["fig2b", "fig7c", "fig4c"])
def test_oracle_run(benchmark, name):
    """The Fock oracle alone, on the points and couplings `run_verification` gives it.

    fig2b's two pulses share one envelope-weighted piece; fig7c's cw pump
    folds into the static piece, its switched-off control drops out, and
    the 10 solved entries run on a dense generator; fig4c's two chirped
    pulses keep two pieces each, weighted by Omega and Omega*.
    """
    benchmark.group = "oracle"
    cfg, oracle_cfg = _config(name), OracleConfig()
    atom = replace(cfg.atom, g_k=oracle_cfg.g_k, g_q=oracle_cfg.g_q)
    times = np.linspace(0.0, cfg.t_end, cfg.grid_points + 1)[::max(1, cfg.grid_points // 40)]
    # the oracle is the only stage that loads scipy, scipy.sparse for its build (its DOP853
    # solve is ramanpairs.dop853): one untimed call imports and warms it
    oracle_moments(atom, cfg.pump, cfg.control, times, oracle_cfg)
    oracle = benchmark(oracle_moments, atom, cfg.pump, cfg.control, times, oracle_cfg)
    assert oracle.n_k.shape == times.shape


@pytest.mark.parametrize("workers", [1, 2])
def test_scan(benchmark, workers):
    """fig6b's five Rabi points at 200 intervals, serial or on a fork pool of two workers.

    The pool's start-up and its pickled results count in the two-worker time.
    """
    benchmark.group = "scan"
    cfg = replace(preset("fig6b").scan, grid_points=200)
    scan = benchmark(run_scan, cfg, workers)
    assert len(scan.rows) == len(cfg.scan.values)
