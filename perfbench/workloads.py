"""Workloads of the benchmark: the CLI operations of one pass, the set-up that
builds their inputs, and the correctness gate on the files they write.

Every operation is one ``ramanpairs.cli.main`` call.  The program only ever
sees preset configurations (directly, or as INI files generated from them);
the benchmark seed only permutes the order of a pass's operations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

PRESETS = {
    "pulsed": ("fig2b", "fig4c", "fig7b"),
    "cw": ("fig2a", "fig7c", "fig7d"),
    "verify": ("fig2b", "fig7c"),
    "scan": ("fig6b",),
}
SCAN_WORKERS = 2          # matches the two cores the baseline was taken on
GATE_REL_TOL = 0.01       # peak n_k, peak g_cs and min D - 2 against the reference
GATE_ABS_TOL = 1e-12      # lets an exact zero (min D - 2 of an unentangled run) match
ORACLE_GATE = 0.05        # acceptance criterion 7
VERIFY_KEYS = ("n_k_max_rel_err", "n_q_max_rel_err", "abs_pair_max_rel_err")
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Op:
    """One CLI call and the CSV files it must leave in the output directory."""

    kind: str                    # "scenario", "scan" or "verify"
    name: str                    # preset name, also the reference key
    argv: tuple[str, ...]        # CLI arguments without --out
    csv_names: tuple[str, ...]
    ini_ok: bool = True          # verify only: the INI file round-tripped


def config_ini(cfg) -> str:
    """INI text of a scenario config, one line per described parameter."""
    from ramanpairs.config import describe

    sections: dict[str, list[str]] = {}
    for key, value in describe(cfg).items():
        section, _, name = key.rpartition(".")
        text = repr(value) if isinstance(value, (float, complex)) else str(value)
        sections.setdefault(section or "run", []).append(f"{name} = {text}")
    return "".join(f"[{section}]\n" + "\n".join(lines) + "\n\n"
                   for section, lines in sections.items())


def setup(workload: str, work: Path) -> list[Op]:
    """Import the CLI, build the workload's configs and write its INI files."""
    import ramanpairs.cli  # noqa: F401  (the import is part of set-up)
    from ramanpairs.config import config_hash, load_config
    from ramanpairs.oracle import OracleConfig
    from ramanpairs.presets import preset

    ops = []
    for name in PRESETS[workload]:
        chosen = preset(name)
        if workload == "verify":
            cfg = replace(chosen.scenarios[0], verify=OracleConfig())
            ini = work / f"{name}.ini"
            ini.write_text(config_ini(cfg), encoding="utf-8")
            ops.append(Op("verify", name, ("verify", str(ini)), (f"{cfg.label}_verify.csv",),
                          ini_ok=config_hash(load_config(ini)) == config_hash(cfg)))
        elif chosen.kind == "scan":
            ops.append(Op("scan", name, ("preset", name, "--workers", str(SCAN_WORKERS)),
                          (f"{chosen.scan.label}_scan.csv",)))
        else:
            ops.append(Op("scenario", name, ("preset", name),
                          tuple(f"{cfg.label}.csv" for cfg in chosen.scenarios)))
    return ops


def _label(csv_name: str) -> str:
    return csv_name.rsplit(".", 1)[0]


def _read_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if line and not line.startswith("#")]
    return header, body[0].split(","), np.loadtxt(body[1:], delimiter=",", ndmin=2)


def summarise(op: Op, out: Path) -> dict[str, float]:
    """The gated quantities of the op's CSV files, keyed by CSV label."""
    summary = {}
    for csv_name in op.csv_names:
        header, cols, table = _read_csv(out / csv_name)
        col = {c: table[:, i] for i, c in enumerate(cols)}
        label = _label(csv_name)
        if op.kind == "verify":
            report = dict(line[len("# verify."):].split(" = ", 1) for line in header
                          if line.startswith("# verify."))
            summary.update({f"{label}.{k}": float(report[k]) for k in VERIFY_KEYS})
        elif op.kind == "scan":
            for row in range(table.shape[0]):
                key = f"{label}@{col['value'][row]:g}"
                summary[f"{key}.peak_n_k"] = float(col["peak_n_k"][row])
                summary[f"{key}.peak_g_cs"] = float(col["peak_g_cs"][row])
                summary[f"{key}.min_duan_d_minus_2"] = float(col["min_duan_d"][row]) - 2.0
        else:
            defined = col["cs_defined"] > 0
            summary[f"{label}.peak_n_k"] = float(np.max(col["n_k"]))
            summary[f"{label}.peak_g_cs"] = (float(np.max(col["g_cs"][defined]))
                                             if defined.any() else math.nan)
            summary[f"{label}.min_duan_d_minus_2"] = float(np.min(col["duan_d"])) - 2.0
    return summary


def _matches(value: float, ref: float) -> bool:
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    return abs(value - ref) <= GATE_REL_TOL * abs(ref) + GATE_ABS_TOL


def gate(op: Op, summary: dict[str, float], reference: dict) -> tuple[bool, float]:
    """Pass/fail of one op's outputs and its worst relative error.

    verify: every *_max_rel_err below the criterion-7 gate; the error is the
    worst of them.  Others: every gated quantity within GATE_REL_TOL of the
    same-grid reference; the error is the worst deviation of peak n_k from the
    finer-grid reference.
    """
    if op.kind == "verify":
        errs = [summary.get(f"{_label(csv_name)}.{k}", math.nan)
                for csv_name in op.csv_names for k in VERIFY_KEYS]
        return op.ini_ok and all(e < ORACLE_GATE for e in errs), max(errs)
    expected = reference["gate"][op.name]
    ok = summary.keys() == expected.keys() and all(
        _matches(summary[k], expected[k]) for k in expected)
    fine = reference["fine_peak_n_k"][op.name]
    err = max(abs(summary.get(k, math.nan) - v) / abs(v) for k, v in fine.items())
    return ok and math.isfinite(err), err


def _nan_to_none(d: dict) -> dict:
    return {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in d.items()}


def _none_to_nan(d: dict) -> dict:
    return {k: (math.nan if v is None else v) for k, v in d.items()}


def load_reference(path: Path = REFERENCE) -> dict:
    raw = json.loads(path.read_text(encoding="utf-8"))
    for part in ("gate", "fine_peak_n_k"):
        raw[part] = {name: _none_to_nan(vals) for name, vals in raw[part].items()}
    return raw


def save_reference(reference: dict, path: Path = REFERENCE) -> None:
    out = dict(reference)
    for part in ("gate", "fine_peak_n_k"):
        out[part] = {name: _nan_to_none(vals) for name, vals in reference[part].items()}
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
