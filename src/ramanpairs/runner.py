"""Scenario execution, scan driving, CSV and manifest emission."""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import ScenarioConfig, apply_override, config_hash, describe
from .errors import ConfigError
from .moments import MomentSeries, compute_moments
from .noise import diffusion_table
from .observables import ObservableSeries, assemble_observables
from .oracle import OracleMoments, oracle_moments
from .propagator import build_propagator_grid

_FMT = "%.17g"


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
    values: tuple[float, ...]
    rows: list[dict]
    results: list[ScenarioResult] | None = None


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Deterministic pipeline run: propagators, diffusion, moments, observables."""
    grid = build_propagator_grid(cfg.atom, cfg.pump, cfg.control,
                                 t_end=cfg.t_end, n_intervals=cfg.grid_points,
                                 rtol=cfg.rtol, atol=cfg.atol)
    diffusion = diffusion_table(grid, cfg.atom, cfg.pump, cfg.control)
    moments = compute_moments(cfg.atom, grid, diffusion)
    return ScenarioResult(config=cfg, moments=moments,
                          observables=assemble_observables(moments))


def _scan_point(args) -> ScenarioResult:
    cfg, value = args
    return run_scenario(apply_override(cfg, cfg.scan.parameter, value))


def run_scan(cfg: ScenarioConfig, workers: int = 1,
             keep_series: bool = False) -> ScanResult:
    """One scenario run per scan value, summarized per row.

    Points execute concurrently when workers > 1; rows always come back in
    the order of the configured values.
    """
    if cfg.scan is None:
        raise ConfigError("run_scan needs a [scan] section")
    jobs = [(cfg, value) for value in cfg.scan.values]
    workers = min(workers, len(jobs))  # a fork pool starts every worker at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_point, jobs))
    else:
        results = [_scan_point(job) for job in jobs]
    rows = [{"value": value,
             "peak_g_cs": res.peak_g_cs(),
             "min_duan_d": res.min_duan(),
             "min_duan_d_optimized": float(np.min(res.observables.duan_d_optimized)),
             "peak_n_k": res.peak_n_k()}
            for value, res in zip(cfg.scan.values, results)]
    return ScanResult(config=cfg, values=cfg.scan.values, rows=rows,
                      results=results if keep_series else None)


_MOMENT_COLUMNS = (
    ("aq_ak", "pair"), ("aq_akdag", "cross"), ("ak_sq", "square_k"), ("aq_sq", "square_q"),
)

_GROUP_COLUMNS = {
    "gcs": ("g_cs", "cs_defined"),
    "duan": ("duan_d", "duan_d_optimized"),
    "relate": ("g2", "phi_kq", "relate_residual", "relate_certified"),
}


def _csv_header_lines(cfg: ScenarioConfig) -> list[str]:
    lines = [f"# ramanpairs {__version__}", f"# config_hash {config_hash(cfg)}"]
    for key, value in sorted(describe(cfg).items()):
        lines.append(f"# {key} = {value}")
    return lines


def scenario_table(result: ScenarioResult) -> tuple[list[str], np.ndarray]:
    """Column names and data matrix for the scenario CSV."""
    ms, obs, cfg = result.moments, result.observables, result.config
    cols: list[str] = ["t", "n_k", "n_q"]
    data: list[np.ndarray] = [ms.times, obs.n_k, obs.n_q]

    if "noise_split" in cfg.outputs:
        for name, split in (("n_k", ms.n_k), ("n_q", ms.n_q)):
            for part in ("boundary", "noise", "backaction"):
                cols.append(f"{name}_{part}")
                data.append(getattr(split, part).real)
            cols.append(f"noise_fraction_{name[-1]}")
            data.append(getattr(obs, f"noise_fraction_{name[-1]}"))

    if "moments" in cfg.outputs:
        for col, attr in _MOMENT_COLUMNS:
            split = getattr(ms, attr)
            cols.extend([f"re_{col}", f"im_{col}"])
            data.extend([split.total.real, split.total.imag])
            cols.extend([f"re_{col}_linear", f"im_{col}_linear"])
            data.extend([split.linear.real, split.linear.imag])
        cols.extend(["re_ak_mean", "im_ak_mean", "re_aq_mean", "im_aq_mean"])
        data.extend([ms.mean_k.real, ms.mean_k.imag, ms.mean_q.real, ms.mean_q.imag])

    for group in ("gcs", "duan", "relate"):
        if group in cfg.outputs:
            for col in _GROUP_COLUMNS[group]:
                cols.append(col)
                values = getattr(obs, col)
                data.append(values.astype(float) if values.dtype == bool else values)

    return cols, np.column_stack(data)


def _write_csv(path, header_lines: list[str], cols: list[str], rows) -> None:
    """Comment header, column names, then one _FMT-formatted line per row."""
    lines = [*header_lines, ",".join(cols)]
    lines.extend(",".join(_FMT % v for v in row) for row in rows)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_scenario_csv(result: ScenarioResult, path) -> None:
    cols, table = scenario_table(result)
    _write_csv(path, _csv_header_lines(result.config), cols, table)


def write_scan_csv(result: ScanResult, path) -> None:
    cols = ["value", "peak_g_cs", "min_duan_d", "min_duan_d_optimized", "peak_n_k"]
    _write_csv(path, _csv_header_lines(result.config), cols,
               ([row[c] for c in cols] for row in result.rows))


def run_verification(cfg: ScenarioConfig) -> tuple[ScenarioResult, OracleMoments, dict]:
    """Pipeline vs truncated-Fock comparison on a thinned copy of the grid."""
    if cfg.verify is None:
        raise ConfigError("run_verification needs a [verify] section")
    oracle_cfg = cfg.verify
    # the verifier picks its own small couplings; everything else is shared
    atom = replace(cfg.atom, g_k=oracle_cfg.g_k, g_q=oracle_cfg.g_q)
    pipeline = run_scenario(
        ScenarioConfig(atom=atom, pump=cfg.pump, control=cfg.control, t_end=cfg.t_end,
                       grid_points=cfg.grid_points, outputs=cfg.outputs,
                       rtol=cfg.rtol, atol=cfg.atol, label=cfg.label))
    stride = max(1, cfg.grid_points // 40)
    times_cmp = pipeline.times[::stride]
    oracle = oracle_moments(atom, cfg.pump, cfg.control, times_cmp, oracle_cfg)

    report = {"stride": stride, "points": len(times_cmp)}
    sel = slice(None, None, stride)
    ms = pipeline.moments
    for name, pipe, orc in (("n_k", ms.n_k.total[sel].real, oracle.n_k.real),
                            ("n_q", ms.n_q.total[sel].real, oracle.n_q.real),
                            ("abs_pair", np.abs(ms.pair.total[sel]), np.abs(oracle.pair))):
        mask = np.abs(orc) > 1e-12
        if mask.any():
            rel = np.abs(pipe[mask] - orc[mask]) / np.abs(orc[mask])
            report[f"{name}_max_rel_err"] = float(rel.max())
            report[f"{name}_points"] = int(mask.sum())
        else:
            report[f"{name}_max_rel_err"] = 0.0
            report[f"{name}_points"] = 0
    return pipeline, oracle, report


def write_verification_csv(pipeline: ScenarioResult, oracle: OracleMoments,
                           report: dict, path) -> None:
    stride = report["stride"]
    sel = slice(None, None, stride)
    ms = pipeline.moments
    cols = ["t", "n_k_pipeline", "n_k_oracle", "n_q_pipeline", "n_q_oracle",
            "abs_pair_pipeline", "abs_pair_oracle"]
    table = np.column_stack([
        oracle.times, ms.n_k.total[sel].real, oracle.n_k.real,
        ms.n_q.total[sel].real, oracle.n_q.real,
        np.abs(ms.pair.total[sel]), np.abs(oracle.pair)])
    header = _csv_header_lines(pipeline.config)
    header.extend(f"# verify.{key} = {value}" for key, value in sorted(report.items()))
    _write_csv(path, header, cols, table)


def write_manifest(cfg: ScenarioConfig, path, extra: dict | None = None) -> None:
    payload = {
        "tool": "ramanpairs",
        "version": __version__,
        "python": sys.version.split()[0],
        "config_hash": config_hash(cfg),
        "parameters": {k: repr(v) for k, v in sorted(describe(cfg).items())},
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
