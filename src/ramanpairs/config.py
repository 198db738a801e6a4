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

The keys of a section are the fields of its dataclass (`SECTIONS`), read by
the field's type; `[run]` holds the scalar fields of `ScenarioConfig` itself.
Parsing, `describe` and the scannable paths of `apply_override` all derive
from those fields.  The one addition is the initial state in `[atom]`:
populations rho_aa..rho_dd plus optional coherences rho_xy given as complex
literals ("0.1+0.2j"); the conjugate element is filled in automatically, and
a given rho_yx must equal conj(rho_xy).  Omitted populations default to the
atom resting in level c.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import cache
from typing import get_type_hints

import numpy as np

from .atom import AtomConfig
from .errors import ConfigError, check_rtol
from .oracle import OracleConfig
from .propagator import DEFAULT_RTOL
from .pulses import PulseSpec

OUTPUT_GROUPS = ("gcs", "duan", "moments", "noise_split", "relate")

_LEVELS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class ScanSpec:
    parameter: str
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ConfigError("values: must be non-empty")
        if not all(np.isfinite(v) for v in self.values):
            raise ConfigError("values: all entries must be finite")


@dataclass(frozen=True)
class ScenarioConfig:
    atom: AtomConfig = field(default_factory=AtomConfig)
    pump: PulseSpec = field(default_factory=PulseSpec)
    control: PulseSpec = field(default_factory=PulseSpec)
    t_end: float = 3.0
    grid_points: int = 1600
    outputs: tuple[str, ...] = OUTPUT_GROUPS
    rtol: float = DEFAULT_RTOL
    label: str = "scenario"
    scan: ScanSpec | None = None
    verify: OracleConfig | None = None

    def __post_init__(self):
        if not np.isfinite(self.t_end) or self.t_end <= 0:
            raise ConfigError(f"[run] t_end: must be > 0, got {self.t_end}")
        if not isinstance(self.grid_points, numbers.Integral):  # the grid would truncate it
            raise ConfigError(f"[run] grid_points: must be an integer, got {self.grid_points}")
        if self.grid_points < 50:
            raise ConfigError(f"[run] grid_points: must be >= 50, got {self.grid_points}")
        bad = [o for o in self.outputs if o not in OUTPUT_GROUPS]
        if bad:
            raise ConfigError(f"[run] outputs: unknown group(s) {bad}, expected from {OUTPUT_GROUPS}")
        check_rtol(self.rtol, "[run] ")
        # the label names the output files, so it must stay inside the output directory
        if self.label in ("", ".", "..") or any(sep in self.label for sep in "/\\"):
            raise ConfigError(f"[run] label: must be a file name without '/' or '\\' and "
                              f"not empty, '.' or '..', got {self.label!r}")


# INI section -> dataclass whose fields are the section's keys.
SECTIONS = {"atom": AtomConfig, "pump": PulseSpec, "control": PulseSpec,
            "run": ScenarioConfig, "scan": ScanSpec, "verify": OracleConfig}


def _split(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# Field type -> (reader of the INI text, what the reader expects).  Tuples are
# comma-separated lists, in the file and in `describe`.
_TYPES = {
    float: (float, "a number"),
    int: (int, "an integer"),
    str: (str.strip, "a string"),
    tuple[str, ...]: (_split, "a list"),
    tuple[float, ...]: (lambda raw: tuple(map(float, _split(raw))), "a list of numbers"),
}


@cache
def _keys(cls) -> dict[str, object]:
    """Key -> type of every field of cls that has an INI reader."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if hints[f.name] in _TYPES}


def _parse_rho0(items: dict[str, str]) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    given = {}
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
            mirror = f"rho_{pair[::-1]}"
            if mirror in given and abs(given[mirror] - np.conj(value)) > 1e-12:
                raise ConfigError(f"[atom] {mirror}, {key}: conflicting coherences, "
                                  f"{key} must equal conj({mirror}) within 1e-12")
            given[key] = value
            rho[i, j] = value
            rho[j, i] = np.conj(value)
    if not seen_population:
        raise ConfigError("[atom] rho_* coherences given without any population")
    return rho


def _read_section(parser: configparser.ConfigParser, section: str) -> dict:
    """Constructor keywords of the section's dataclass, each read by its field type."""
    keys, kwargs, rho_items = _keys(SECTIONS[section]), {}, {}
    for key, raw in parser.items(section):
        if section == "atom" and key.startswith("rho_"):
            rho_items[key] = raw
            continue
        if key not in keys:
            raise ConfigError(f"[{section}] {key}: unknown key")
        read, expected = _TYPES[keys[key]]
        try:
            kwargs[key] = read(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not {expected}: {raw!r}") from None
    if rho_items:
        kwargs["rho0"] = _parse_rho0(rho_items)
    return kwargs


def _build(section: str, kwargs: dict):
    try:
        return SECTIONS[section](**kwargs)
    except (ConfigError, TypeError) as exc:  # TypeError: a key without default is missing
        raise ConfigError(f"[{section}] {exc}") from None


def parse_config(text: str) -> ScenarioConfig:
    """Parse a scenario description; every unknown key is a hard error."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from None

    unknown = set(parser.sections()) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")

    kwargs = {}
    for section in filter(parser.has_section, SECTIONS):
        items = _read_section(parser, section)
        if section == "run":
            kwargs.update(items)
        else:
            kwargs[section] = _build(section, items)
    cfg = ScenarioConfig(**kwargs)
    if cfg.scan is not None:  # load every scan point now, not when the scan reaches it
        for value in cfg.scan.values:
            try:
                apply_override(cfg, cfg.scan.parameter, value)
            except ConfigError as exc:
                raise ConfigError(f"[scan] {cfg.scan.parameter} = {value!r}: {exc}") from None
    return cfg


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def apply_override(cfg: ScenarioConfig, path: str, value: float) -> ScenarioConfig:
    """Return a copy of cfg with one numeric parameter replaced.

    Paths take the form section.key, for any float field of [atom], [pump] and
    [control] and for run.t_end; the pseudo-sections 'both' (pump and control
    together) and 'opposite' (chirp = +value on the pump, -value on the
    control) cover the paired scans used by the preset library.
    """
    section, _, key = path.partition(".")
    if section == "both":
        step = apply_override(cfg, f"pump.{key}", value)
        return apply_override(step, f"control.{key}", value)
    if section == "opposite":
        if key != "chirp":
            raise ConfigError(f"scan parameter {path!r}: 'opposite' supports only chirp")
        step = apply_override(cfg, "pump.chirp", value)
        return apply_override(step, "control.chirp", -value)

    if path == "run.t_end":
        return replace(cfg, t_end=value)
    if section not in ("atom", "pump", "control") or _keys(SECTIONS[section]).get(key) is not float:
        raise ConfigError(f"scan parameter {path!r}: not a scannable numeric parameter")
    return replace(cfg, **{section: replace(getattr(cfg, section), **{key: value})})


def describe(cfg: ScenarioConfig) -> dict:
    """Flat parameter dictionary naming every value, defaults included.

    One `section.key` entry per INI key ([run] keys carry no prefix), written
    so that the INI file built from it loads back to the same config.
    """
    out = {}
    for section, cls in SECTIONS.items():
        part = cfg if section == "run" else getattr(cfg, section)
        if part is None:
            continue
        prefix = "" if section == "run" else f"{section}."
        for key in _keys(cls):
            value = getattr(part, key)
            out[prefix + key] = ",".join(map(str, value)) if isinstance(value, tuple) else value
    rho = cfg.atom.rho0
    for i, x in enumerate(_LEVELS):
        for j, y in enumerate(_LEVELS):
            if abs(rho[i, j]) > 0 or i == j:
                value = rho[i, j]
                out[f"atom.rho_{x}{y}"] = float(value.real) if i == j else complex(value)
    return out


def config_hash(cfg: ScenarioConfig) -> str:
    payload = io.StringIO()
    for key, value in sorted(describe(cfg).items()):
        payload.write(f"{key}={value!r}\n")
    return hashlib.sha256(payload.getvalue().encode()).hexdigest()
