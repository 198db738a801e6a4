"""Spans around the package's public functions, kept in memory for one traced pass.

The benchmark patches the names as their callers bind them (for example
``ramanpairs.runner.compute_moments``, which ``run_scenario`` looks up in its
own module), so the package itself carries no tracing code.  Every call of
``DriftBuilder.entries`` is counted and timed in aggregate instead of getting
a span: there are tens of thousands per scenario.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

LAYERS = ("cli", "config", "runner", "propagator", "atom", "noise", "moments",
          "observables", "oracle")
CSV_WRITERS = ("write_scenario_csv", "write_scan_csv", "write_verification_csv")


def unit(metric: str) -> str:
    for suffix, name in (("_s", "s"), ("_pct", "%"), ("_bytes", "B")):
        if metric.endswith(suffix):
            return name
    return "count"


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    drift_s: float = 0.0          # DriftBuilder.entries time directly inside this span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def computed_nbytes(obj) -> int:
    """Sum of the nbytes of the arrays a dataclass holds (directly or in a dict)."""
    total = 0
    for f in fields(obj):
        value = getattr(obj, f.name)
        for item in (value.values() if isinstance(value, dict) else (value,)):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


class Tracer:
    """Collects spans while installed; ``install`` patches, ``close`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.drift_evals = 0
        self.drift_s = 0.0
        self.last_result = None

    @contextmanager
    def span(self, layer: str, name: str):
        parent = self._open[-1].id if self._open else None
        s = Span(len(self.spans), parent, layer, name, time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, module, attr: str, layer: str, after=None) -> None:
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(layer, attr) as s:
                result = original(*args, **kwargs)
            if after is not None:
                after(s, args, result)
            return result

        self._patch(module, attr, traced)

    def install(self) -> "Tracer":
        from ramanpairs import atom, cli, oracle, propagator, runner

        def nbytes(s, args, result):
            s.attrs["bytes"] = computed_nbytes(result)

        def solve(s, args, sol):
            s.attrs.update(nfev=int(sol.nfev), status=int(sol.status), n=len(args[2]))

        def keep(s, args, result):
            self.last_result = result

        def csv_size(s, args, result):
            s.attrs["bytes"] = os.path.getsize(args[-1])

        self._wrap(runner, "build_propagator_grid", "propagator", nbytes)
        self._wrap(runner, "diffusion_table", "noise", nbytes)
        self._wrap(runner, "compute_moments", "moments")
        self._wrap(runner, "assemble_observables", "observables")
        self._wrap(runner, "oracle_moments", "oracle")
        self._wrap(runner, "run_scenario", "runner", keep)
        self._wrap(cli, "run_scenario", "runner", keep)
        self._wrap(cli, "run_verification", "runner")
        self._wrap(cli, "run_scan", "runner")
        self._wrap(cli, "load_config", "config")
        for name in CSV_WRITERS:
            self._wrap(cli, name, "runner", csv_size)
        self._wrap(cli, "write_manifest", "runner")
        self._wrap(propagator, "evolve_state", "atom")
        for module, layer in ((propagator, "propagator"), (atom, "atom"), (oracle, "oracle")):
            self._wrap(module, "solve_ivp", layer, solve)

        entries = atom.DriftBuilder.entries

        def counted_entries(builder, t):
            t0 = time.perf_counter()
            m = entries(builder, t)
            dt = time.perf_counter() - t0
            self.drift_evals += 1
            self.drift_s += dt
            if self._open:
                self._open[-1].drift_s += dt
            return m

        self._patch(atom.DriftBuilder, "entries", counted_entries)
        return self

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]

    def metrics(self, pass_s: float) -> dict[str, float]:
        """Per-layer figures of the pass the spans cover (pass_s: its traced time)."""
        child_s = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.duration
        self_s = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            self_s[s.layer] += s.duration - child_s[s.id] - s.drift_s
        self_s["atom"] += self.drift_s

        def spans(name, layers=LAYERS):
            return [s for s in self.spans if s.name == name and s.layer in layers]

        def total(name):
            return sum(s.duration for s in spans(name))

        def share(seconds):
            return 100.0 * seconds / pass_s

        odes = spans("solve_ivp", ("propagator", "atom"))
        oracle_solves = spans("solve_ivp", ("oracle",))
        out = {
            "atom.drift_evals": self.drift_evals,
            "atom.drift_s": self.drift_s,
            "propagator.ode_solves": len(odes),
            "propagator.ode_nfev": sum(s.attrs["nfev"] for s in odes),
            "propagator.ode_s": sum(s.duration for s in odes),
            "propagator.build_s": sum(s.duration - child_s[s.id] - s.drift_s
                                      for s in spans("build_propagator_grid")),
            "propagator.grid_bytes": max((s.attrs["bytes"] for s in spans("build_propagator_grid")),
                                         default=0),
            "noise.table_s": total("diffusion_table"),
            "noise.table_bytes": max((s.attrs["bytes"] for s in spans("diffusion_table")),
                                     default=0),
            "moments.assemble_s": total("compute_moments"),
            "observables.assemble_s": total("assemble_observables"),
            "runner.write_s": sum(total(name) for name in (*CSV_WRITERS, "write_manifest")),
            "runner.csv_bytes": sum(s.attrs["bytes"] for name in CSV_WRITERS for s in spans(name)),
            "runner.scan_result_bytes": (len(pickle.dumps(self.last_result))
                                         if spans("run_scan") else 0),
            "oracle.solve_pct": share(sum(s.duration for s in oracle_solves)),
            "oracle.nfev": sum(s.attrs["nfev"] for s in oracle_solves),
            "oracle.dim": max((math.isqrt(s.attrs["n"]) for s in oracle_solves), default=0),
            "config.load_pct": share(total("load_config")),
        }
        for layer in LAYERS:
            out[f"{layer}.self_pct"] = share(self_s[layer])
        out["trace.coverage_pct"] = share(sum(v for k, v in self_s.items() if k != "cli"))
        return out
