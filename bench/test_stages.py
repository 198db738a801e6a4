"""Per-stage timings of one scenario run, under pytest-benchmark.

Run from the root of a source checkout, with one BLAS thread as the benchmark
under perfbench/ pins it:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest bench/ --benchmark-json BENCH.json

Each stage of ``run_scenario`` is timed on its own: the propagator grid build,
the moment assembly, the scenario CSV write, and the whole ``run_scenario``.
Every stage runs on fig2a (constant drives, exact flow), fig2b (Gaussian
pulses, one ODE solve) and fig4c (opposite chirps), at the presets' 1600
intervals.  The tier-1 suite does not collect this directory (``testpaths``
in pyproject.toml); ``pytest bench/ --benchmark-disable`` runs every stage
once, as a smoke test.
"""

from __future__ import annotations

import functools

import pytest

from ramanpairs.moments import compute_moments
from ramanpairs.noise import diffusion_table
from ramanpairs.presets import preset
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.runner import run_scenario, write_scenario_csv

SCENARIOS = ["fig2a", "fig2b", "fig4c"]


@functools.cache
def _config(name):
    return preset(name).scenarios[0]


def _grid(cfg):
    return build_propagator_grid(cfg.atom, cfg.pump, cfg.control, t_end=cfg.t_end,
                                 n_intervals=cfg.grid_points, rtol=cfg.rtol, atol=cfg.atol)


@pytest.mark.parametrize("name", SCENARIOS)
def test_grid_build(benchmark, name):
    benchmark.group = "grid build"
    grid = benchmark(_grid, _config(name))
    assert len(grid.times) == _config(name).grid_points + 1


@pytest.mark.parametrize("name", SCENARIOS)
def test_moment_assembly(benchmark, name):
    benchmark.group = "moment assembly"
    cfg = _config(name)
    grid = _grid(cfg)
    moments = benchmark(compute_moments, cfg.atom, grid, diffusion_table(cfg.atom))
    assert moments.n_k.total.shape == grid.times.shape


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
