"""The package's public names and the names the benchmark's tracer patches stay bound."""

import importlib
import time
from pathlib import Path

import ramanpairs
from ramanpairs import cli
from ramanpairs.config import ScenarioConfig

from conftest import gauss_pulse, rho_symmetric

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_public_names_and_benchmark_tracer_hooks_resolve(monkeypatch):
    missing = [name for name in ramanpairs.__all__ if not hasattr(ramanpairs, name)]
    assert not missing

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer().install()
    patches = list(tracer._patches)
    try:
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, attr
        # one small chirped scenario runs through the wrapped pipeline stages
        pump = gauss_pulse(omega=6.0, center=0.3, width=0.1, chirp=5.0)
        cfg = ScenarioConfig(atom=ramanpairs.AtomConfig(rho0=rho_symmetric()), pump=pump,
                             control=pump, t_end=0.6, grid_points=60)
        start = time.perf_counter()
        cli.run_scenario(cfg)
        metrics = tracer.metrics(time.perf_counter() - start)
    finally:
        tracer.close()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
    assert metrics["propagator.ode_solves"] == 1
    assert metrics["atom.drift_evals"] > 0
    assert metrics["moments.assemble_s"] > 0.0
    assert tracer.last_result.config is cfg
