"""The package's public names and the names the benchmark's tracer patches stay bound."""

import ast
import importlib
import time
from pathlib import Path

import ramanpairs
from ramanpairs import cli
from ramanpairs.config import ScenarioConfig

from conftest import gauss_pulse, rho_symmetric

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "ramanpairs"

# Public names that nothing in the package reads, each with the reason it stays.
UNCALLED = {
    "evolve_state": "perfbench/tracing.py wraps propagator.evolve_state and atom.solve_ivp",
}


def _defined_names(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return set()


def test_every_public_name_is_read_in_the_package():
    """Test-only library surface belongs in tests/reference.py, not in src/."""
    public, read = set(), set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _defined_names(node)
            public |= {name for name in names if not name.startswith("_")}
            loads = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
            read |= loads - names  # a name read only in its own definition has no caller
    assert sorted(public - read) == sorted(UNCALLED)


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
    # the Magnus flow solves no ODE and reads the drives through DriftBuilder.coefficients
    assert metrics["propagator.ode_solves"] == 0
    assert metrics["atom.drift_evals"] == 0
    assert metrics["propagator.build_s"] > 0.0
    assert metrics["moments.assemble_s"] > 0.0
    assert tracer.last_result.config is cfg
