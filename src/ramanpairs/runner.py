"""Scenario execution, scan driving, CSV and manifest emission.

Every CSV is one ordered ``dict`` of named columns (``scenario_table``, the
scan rows, the verification table) under a commented header of the config's
parameters, written by ``_write_csv``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import ScenarioConfig, apply_override, config_hash, describe
from .errors import ConfigError
from .moments import MomentSeries, compute_moments
from .noise import diffusion_table
from .observables import ObservableSeries, assemble_observables
from .oracle import oracle_moments
from .propagator import build_propagator_grid

_FMT = "%.17g"
_CHUNK_ROWS = 256  # rows per % of _write_csv; bounds the text and floats held at once


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    moments: MomentSeries
    observables: ObservableSeries

    @property
    def times(self) -> np.ndarray:
        return self.moments.times

    def peak_g_cs(self) -> float:
        g = np.where(self.observables.cs_defined, self.observables.g_cs, np.nan)
        return float(np.nanmax(g)) if np.isfinite(g).any() else float("nan")

    def min_duan(self) -> float:
        return float(np.min(self.observables.duan_d))

    def peak_n_k(self) -> float:
        return float(np.max(self.observables.n_k))


@dataclass
class ScanResult:
    config: ScenarioConfig
    rows: list[dict[str, float]]


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Deterministic pipeline run: propagators, diffusion, moments, observables."""
    grid = build_propagator_grid(cfg.atom, cfg.pump, cfg.control,
                                 t_end=cfg.t_end, n_intervals=cfg.grid_points, rtol=cfg.rtol)
    diffusion = diffusion_table(cfg.atom)
    moments = compute_moments(cfg.atom, grid, diffusion)
    return ScenarioResult(config=cfg, moments=moments,
                          observables=assemble_observables(moments))


def _scan_point(args) -> dict[str, float]:
    """One scan value's summary row; only these five floats leave a pool worker."""
    cfg, value = args
    res = run_scenario(apply_override(cfg, cfg.scan.parameter, value))
    return {"value": value,
            "peak_g_cs": res.peak_g_cs(),
            "min_duan_d": res.min_duan(),
            "min_duan_d_optimized": float(np.min(res.observables.duan_d_optimized)),
            "peak_n_k": res.peak_n_k()}


def run_scan(cfg: ScenarioConfig, workers: int = 1) -> ScanResult:
    """One scenario run per scan value, summarized per row.

    Points execute concurrently when workers > 1; rows always come back in
    the order of the configured values.  A scenario run loads no scipy
    module (the flow takes Magnus step maps, propagator._magnus_chain), so
    neither the parent nor a worker imports one; the process pool, with
    multiprocessing, loads only when a scan starts one.
    """
    if cfg.scan is None:
        raise ConfigError("run_scan needs a [scan] section")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    jobs = [(cfg, value) for value in cfg.scan.values]
    workers = min(workers, len(jobs))  # a fork pool starts every worker at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return ScanResult(cfg, list(pool.map(_scan_point, jobs)))
    return ScanResult(cfg, [_scan_point(job) for job in jobs])


_GROUP_COLUMNS = {
    "gcs": ("g_cs", "cs_defined"),
    "duan": ("duan_d", "duan_d_optimized"),
    "relate": ("g2", "phi_kq"),
}


def _csv_header_lines(cfg: ScenarioConfig) -> list[str]:
    return [f"# ramanpairs {__version__}", f"# config_hash {config_hash(cfg)}",
            *(f"# {key} = {value}" for key, value in sorted(describe(cfg).items()))]


def scenario_table(result: ScenarioResult) -> dict[str, np.ndarray]:
    """The scenario CSV's named columns, in file order."""
    ms, obs, cfg = result.moments, result.observables, result.config
    table = {"t": ms.times, "n_k": obs.n_k, "n_q": obs.n_q}

    if "noise_split" in cfg.outputs:
        for name, split in (("n_k", ms.n_k), ("n_q", ms.n_q)):
            for part in ("boundary", "noise", "backaction"):
                table[f"{name}_{part}"] = getattr(split, part).real
            table[f"noise_fraction_{name[-1]}"] = getattr(obs, f"noise_fraction_{name[-1]}")

    if "moments" in cfg.outputs:
        for col, values in (("aq_ak", ms.pair.total), ("aq_ak_linear", ms.pair.linear),
                            ("ak_mean", ms.mean_k), ("aq_mean", ms.mean_q)):
            table[f"re_{col}"] = values.real
            table[f"im_{col}"] = values.imag

    for group in ("gcs", "duan", "relate"):
        if group in cfg.outputs:
            for col in _GROUP_COLUMNS[group]:
                table[col] = getattr(obs, col).astype(float)  # the flags as 0/1
    return table


def _write_csv(path, header: list[str], table: dict[str, np.ndarray]) -> None:
    """Comment header, the column names, then one _FMT-formatted line per row.

    The bytes are those of ``np.savetxt(fmt=_FMT, delimiter=",")``.  _FMT maps
    equal float64 bits to equal text (-0.0 to "-0", NaN to "nan"), so a column
    whose bits never change is formatted once, into the row template; the
    other columns fill that template with one % per chunk of _CHUNK_ROWS rows.
    No copy of the whole table is made.  Every table has at least one row.
    """
    columns = [np.asarray(col, dtype=float) for col in table.values()]
    fixed = [(bits == bits[0]).all() for bits in (col.view(np.uint64) for col in columns)]
    row = ",".join(_FMT % col[0] if f else _FMT for col, f in zip(columns, fixed)) + "\n"
    varying = [col for col, f in zip(columns, fixed) if not f]
    n_rows = len(columns[0])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([*header, ",".join(table)]) + "\n")
        for start in range(0, n_rows, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, n_rows)
            values = np.array([col[start:stop] for col in varying]).T.ravel().tolist()
            handle.write(row * (stop - start) % tuple(values))


def write_scenario_csv(result: ScenarioResult, path) -> None:
    _write_csv(path, _csv_header_lines(result.config), scenario_table(result))


def write_scan_csv(result: ScanResult, path) -> None:
    table = {col: np.array([row[col] for row in result.rows]) for col in result.rows[0]}
    _write_csv(path, _csv_header_lines(result.config), table)


def run_verification(cfg: ScenarioConfig) -> tuple[ScenarioResult, dict[str, np.ndarray], dict]:
    """Pipeline vs truncated-Fock comparison on a thinned copy of the grid.

    Returns the pipeline run, the comparison table (t, then each channel's
    pipeline and oracle columns) and the report derived from that table.
    """
    if cfg.verify is None:
        raise ConfigError("run_verification needs a [verify] section")
    oracle_cfg = cfg.verify
    # the verifier picks its own small couplings; everything else is shared
    atom = replace(cfg.atom, g_k=oracle_cfg.g_k, g_q=oracle_cfg.g_q)
    pipeline = run_scenario(replace(cfg, atom=atom, scan=None, verify=None))
    stride = max(1, cfg.grid_points // 40)
    oracle = oracle_moments(atom, cfg.pump, cfg.control, pipeline.times[::stride], oracle_cfg)

    ms = pipeline.moments
    table = {"t": oracle.times}
    report = {"stride": stride, "points": len(oracle.times)}
    for name, pipe, orc in (("n_k", ms.n_k.total.real, oracle.n_k.real),
                            ("n_q", ms.n_q.total.real, oracle.n_q.real),
                            ("abs_pair", np.abs(ms.pair.total), np.abs(oracle.pair))):
        pipe = pipe[::stride]
        table[f"{name}_pipeline"], table[f"{name}_oracle"] = pipe, orc
        mask = np.abs(orc) > 1e-12
        rel = np.abs(pipe[mask] - orc[mask]) / np.abs(orc[mask])
        report[f"{name}_max_rel_err"] = float(rel.max()) if mask.any() else 0.0
        report[f"{name}_points"] = int(mask.sum())
    return pipeline, table, report


def write_verification_csv(pipeline: ScenarioResult, table: dict[str, np.ndarray],
                           report: dict, path) -> None:
    header = _csv_header_lines(pipeline.config)
    header.extend(f"# verify.{key} = {value}" for key, value in sorted(report.items()))
    _write_csv(path, header, table)


def write_manifest(cfg: ScenarioConfig, path, extra: dict | None = None) -> None:
    payload = {
        "tool": "ramanpairs",
        "version": __version__,
        "python": sys.version.split()[0],
        "config_hash": config_hash(cfg),
        "parameters": {k: repr(v) for k, v in sorted(describe(cfg).items())},
        **(extra or {}),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
