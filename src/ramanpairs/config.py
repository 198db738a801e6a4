"""Scenario configuration: flat key-value files with one section per input group.

The format is INI-style and strict: unknown sections or keys are errors, so a
typo cannot silently fall back to a default.  Example:

    [atom]
    gamma_ab = 1.0
    g_k = 0.1
    rho_cc = 0.5
    rho_bb = 0.5

    [pump]
    shape = gaussian
    omega_peak = 10
    center = 0.5
    width = 0.0667

    [control]
    shape = cw
    omega_peak = 0

    [run]
    t_end = 3.0
    grid_points = 1600
    outputs = gcs, duan, moments, noise_split, relate

    [scan]
    parameter = both.width
    values = 0.2, 0.1, 0.0667

Initial-state keys: populations rho_aa..rho_dd plus optional coherences
rho_xy given as complex literals ("0.1+0.2j"); the conjugate element is
filled in automatically.  Omitted populations default to the atom resting in
level c.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .atom import AtomConfig
from .errors import ConfigError, check_tolerances
from .oracle import OracleConfig
from .pulses import PulseSpec

OUTPUT_GROUPS = ("gcs", "duan", "moments", "noise_split", "relate")

_LEVELS = ("a", "b", "c", "d")

_ATOM_FLOAT_KEYS = ("gamma_ab", "gamma_ac", "gamma_db", "gamma_dc", "gamma_bc",
                    "g_k", "g_q", "n_th_k", "n_th_q")
_PULSE_FLOAT_KEYS = ("omega_peak", "center", "width", "detuning", "chirp",
                     "phase0", "chirp_origin")
_RUN_KEYS = ("t_end", "grid_points", "outputs", "rtol", "atol", "label")
_SCAN_KEYS = ("parameter", "values")
_VERIFY_KEYS = ("cutoff_k", "cutoff_q", "g_k", "g_q", "dim_cap", "rtol", "atol", "leak_tol")


@dataclass(frozen=True)
class ScanSpec:
    parameter: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ConfigError("[scan] values: must be non-empty")
        if not all(np.isfinite(v) for v in self.values):
            raise ConfigError("[scan] values: all entries must be finite")


@dataclass(frozen=True)
class ScenarioConfig:
    atom: AtomConfig = field(default_factory=AtomConfig)
    pump: PulseSpec = field(default_factory=PulseSpec)
    control: PulseSpec = field(default_factory=PulseSpec)
    t_end: float = 3.0
    grid_points: int = 1600
    outputs: tuple[str, ...] = OUTPUT_GROUPS
    rtol: float = 1e-9
    atol: float = 1e-12
    label: str = "scenario"
    scan: ScanSpec | None = None
    verify: OracleConfig | None = None

    def __post_init__(self):
        if not np.isfinite(self.t_end) or self.t_end <= 0:
            raise ConfigError(f"[run] t_end: must be > 0, got {self.t_end}")
        if self.grid_points < 50:
            raise ConfigError(f"[run] grid_points: must be >= 50, got {self.grid_points}")
        bad = [o for o in self.outputs if o not in OUTPUT_GROUPS]
        if bad:
            raise ConfigError(f"[run] outputs: unknown group(s) {bad}, expected from {OUTPUT_GROUPS}")
        check_tolerances(self.rtol, self.atol, prefix="[run] ")


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from None


def _parse_rho0(items: dict[str, str]) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    seen_population = False
    for key, raw in items.items():
        pair = key[len("rho_"):]
        if len(pair) != 2 or any(c not in _LEVELS for c in pair):
            raise ConfigError(f"[atom] {key}: unknown key")
        i, j = _LEVELS.index(pair[0]), _LEVELS.index(pair[1])
        try:
            value = complex(raw.replace(" ", ""))
        except ValueError:
            raise ConfigError(f"[atom] {key}: not a complex number: {raw!r}") from None
        if i == j:
            if abs(value.imag) > 0:
                raise ConfigError(f"[atom] {key}: population must be real")
            rho[i, i] = value.real
            seen_population = True
        else:
            rho[i, j] = value
            rho[j, i] = np.conj(value)
    if not seen_population:
        raise ConfigError("[atom] rho_* coherences given without any population")
    return rho


def _build_atom(items: dict[str, str]) -> AtomConfig:
    kwargs = {}
    rho_items = {}
    for key, raw in items.items():
        if key in _ATOM_FLOAT_KEYS:
            kwargs[key] = _parse_float("atom", key, raw)
        elif key.startswith("rho_"):
            rho_items[key] = raw
        else:
            raise ConfigError(f"[atom] {key}: unknown key")
    if rho_items:
        kwargs["rho0"] = _parse_rho0(rho_items)
    try:
        return AtomConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"[atom] {exc}") from None


def _build_pulse(section: str, items: dict[str, str]) -> PulseSpec:
    kwargs = {}
    for key, raw in items.items():
        if key == "shape":
            kwargs["shape"] = raw.strip()
        elif key in _PULSE_FLOAT_KEYS:
            kwargs[key] = _parse_float(section, key, raw)
        else:
            raise ConfigError(f"[{section}] {key}: unknown key")
    try:
        return PulseSpec(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def parse_config(text: str) -> ScenarioConfig:
    """Parse a scenario description; every unknown key is a hard error."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    known_sections = {"atom", "pump", "control", "run", "scan", "verify"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")

    def section(name):
        return dict(parser.items(name)) if parser.has_section(name) else {}

    atom = _build_atom(section("atom"))
    pump = _build_pulse("pump", section("pump"))
    control = _build_pulse("control", section("control"))

    run_items = section("run")
    run_kwargs = {}
    for key, raw in run_items.items():
        if key not in _RUN_KEYS:
            raise ConfigError(f"[run] {key}: unknown key")
        if key == "outputs":
            run_kwargs["outputs"] = tuple(part.strip() for part in raw.split(",") if part.strip())
        elif key == "grid_points":
            run_kwargs["grid_points"] = _parse_int("run", key, raw)
        elif key == "label":
            run_kwargs["label"] = raw.strip()
        else:
            run_kwargs[key] = _parse_float("run", key, raw)

    scan = None
    if parser.has_section("scan"):
        items = section("scan")
        for key in items:
            if key not in _SCAN_KEYS:
                raise ConfigError(f"[scan] {key}: unknown key")
        if "parameter" not in items or "values" not in items:
            raise ConfigError("[scan] needs both 'parameter' and 'values'")
        values = tuple(_parse_float("scan", "values", part)
                       for part in items["values"].split(",") if part.strip())
        scan = ScanSpec(parameter=items["parameter"].strip(), values=values)

    verify = None
    if parser.has_section("verify"):
        items = section("verify")
        kwargs = {}
        for key, raw in items.items():
            if key not in _VERIFY_KEYS:
                raise ConfigError(f"[verify] {key}: unknown key")
            if key in ("cutoff_k", "cutoff_q", "dim_cap"):
                kwargs[key] = _parse_int("verify", key, raw)
            else:
                kwargs[key] = _parse_float("verify", key, raw)
        try:
            verify = OracleConfig(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"[verify] {exc}") from None

    cfg = ScenarioConfig(atom=atom, pump=pump, control=control, scan=scan, verify=verify,
                         **run_kwargs)
    if scan is not None:
        apply_override(cfg, scan.parameter, scan.values[0])  # validates the path
    return cfg


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


_SCANNABLE = {
    "atom": _ATOM_FLOAT_KEYS,
    "pump": _PULSE_FLOAT_KEYS,
    "control": _PULSE_FLOAT_KEYS,
    "run": ("t_end",),
}


def apply_override(cfg: ScenarioConfig, path: str, value: float) -> ScenarioConfig:
    """Return a copy of cfg with one numeric parameter replaced.

    Paths take the form section.key; the pseudo-sections 'both' (pump and
    control together) and 'opposite' (chirp = +value on the pump, -value on
    the control) cover the paired scans used by the preset library.
    """
    try:
        section, key = path.split(".", 1)
    except ValueError:
        raise ConfigError(f"scan parameter {path!r}: expected section.key") from None

    if section == "both":
        step = apply_override(cfg, f"pump.{key}", value)
        return apply_override(step, f"control.{key}", value)
    if section == "opposite":
        if key != "chirp":
            raise ConfigError(f"scan parameter {path!r}: 'opposite' supports only chirp")
        step = apply_override(cfg, "pump.chirp", value)
        return apply_override(step, "control.chirp", -value)

    if section not in _SCANNABLE or key not in _SCANNABLE[section]:
        raise ConfigError(f"scan parameter {path!r}: not a scannable numeric parameter")
    if section == "atom":
        return replace(cfg, atom=replace(cfg.atom, **{key: value}))
    if section == "pump":
        return replace(cfg, pump=replace(cfg.pump, **{key: value}))
    if section == "control":
        return replace(cfg, control=replace(cfg.control, **{key: value}))
    return replace(cfg, **{key: value})


def describe(cfg: ScenarioConfig) -> dict:
    """Flat parameter dictionary naming every value, defaults included."""
    out = {"label": cfg.label, "t_end": cfg.t_end, "grid_points": cfg.grid_points,
           "rtol": cfg.rtol, "atol": cfg.atol, "outputs": ",".join(cfg.outputs)}
    for name in _ATOM_FLOAT_KEYS:
        out[f"atom.{name}"] = getattr(cfg.atom, name)
    rho = cfg.atom.rho0
    for i, x in enumerate(_LEVELS):
        for j, y in enumerate(_LEVELS):
            if abs(rho[i, j]) > 0 or i == j:
                value = rho[i, j]
                out[f"atom.rho_{x}{y}"] = float(value.real) if i == j else complex(value)
    for prefix, pulse in (("pump", cfg.pump), ("control", cfg.control)):
        out[f"{prefix}.shape"] = pulse.shape
        for name in _PULSE_FLOAT_KEYS:
            out[f"{prefix}.{name}"] = getattr(pulse, name)
    if cfg.scan is not None:
        out["scan.parameter"] = cfg.scan.parameter
        out["scan.values"] = ",".join(repr(v) for v in cfg.scan.values)
    if cfg.verify is not None:
        for f in fields(cfg.verify):
            out[f"verify.{f.name}"] = getattr(cfg.verify, f.name)
    return out


def config_hash(cfg: ScenarioConfig) -> str:
    payload = io.StringIO()
    for key, value in sorted(describe(cfg).items()):
        payload.write(f"{key}={value!r}\n")
    return hashlib.sha256(payload.getvalue().encode()).hexdigest()
