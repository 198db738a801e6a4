"""Command line front end.

Subcommands:
    run <config>      run one scenario file, write series CSV + manifest
    preset <name>     run a named figure preset (scenario group or scan)
    scan <config>     run the scan described by the config's [scan] section
    verify <config>   compare the pipeline against the truncated-Fock oracle

Only ``scan`` and the scan presets take a config with a [scan] section; every
other subcommand refuses one.  Every config is loaded and checked before the
--out directory is created, so a configuration error writes nothing.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  A
stdout whose reader has gone (``ramanpairs preset --list | head -n 1``) is
no error: the runs complete and write their files without another line.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from .config import ScenarioConfig, load_config
from .errors import ConfigError, CutoffError, IntegrationError
from .oracle import OracleConfig
from .presets import PRESET_NAMES, preset
from .runner import (run_scan, run_scenario, run_verification, write_manifest,
                     write_scan_csv, write_scenario_csv, write_verification_csv)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ramanpairs",
        description="Transient photon-pair correlation and entanglement of a "
                    "pulse-driven four-level double-Raman atom.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text in (("run", "run one scenario config"),
                               ("preset", "run a named figure preset"),
                               ("scan", "run a parameter scan config"),
                               ("verify", "compare against the Fock oracle")):
        p = sub.add_parser(command, help=help_text)
        if command == "preset":
            p.add_argument("name", nargs="?", default=None,
                           help=f"one of: {', '.join(PRESET_NAMES)}")
            p.add_argument("--list", action="store_true", help="list preset names")
        else:
            p.add_argument("config", type=Path)
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (created once every config has loaded)")
        p.add_argument("--grid-points", type=int, default=None,
                       help="override the number of grid intervals")
        p.add_argument("--tol", type=float, default=None,
                       help="override [run] rtol, the relative tolerance of the "
                            "time-dependent flow")
        p.add_argument("--workers", type=int, default=1,
                       help="concurrent scan points, at least 1 (scans only)")
    return parser


def _apply_flags(cfg: ScenarioConfig, args) -> ScenarioConfig:
    if args.grid_points is not None:
        cfg = replace(cfg, grid_points=args.grid_points)
    if args.tol is not None:
        cfg = replace(cfg, rtol=args.tol)
    return cfg


def _load(args) -> list[ScenarioConfig]:
    """Every config the subcommand runs, flags applied and the [scan] policy checked.

    ``scan`` and the scan presets take a config with a [scan] section and
    every other subcommand refuses one; ``verify`` fills in a default [verify].
    """
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    if args.command == "preset":
        chosen = preset(args.name)
        return [_apply_flags(cfg, args)
                for cfg in ([chosen.scan] if chosen.kind == "scan" else chosen.scenarios)]
    cfg = _apply_flags(load_config(args.config), args)
    if (cfg.scan is not None) != (args.command == "scan"):
        raise ConfigError(f"{args.config} has a [scan] section; run it with the 'scan' subcommand"
                          if cfg.scan else
                          f"{args.config} has no [scan] section; run it with the 'run' subcommand")
    if args.command == "verify" and cfg.verify is None:
        cfg = replace(cfg, verify=OracleConfig())
    return [cfg]


def _say(text: str) -> None:
    """Print a line to stdout; once its reader has gone, drop this and every later line.

    The runs go on and their files are still written: stdout only reports them.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # devnull behind the descriptor, so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(cfg: ScenarioConfig, args) -> None:
    """Run one loaded config and write its CSV and manifest into --out."""
    suffix = "_scan" if cfg.scan is not None else "_verify" if args.command == "verify" else ""
    csv_path, extra = args.out / f"{cfg.label}{suffix}.csv", None
    if suffix == "_scan":
        result = run_scan(cfg, workers=args.workers)
        write_scan_csv(result, csv_path)
        summary = f"  ({len(result.rows)} scan rows)"
    elif suffix == "_verify":
        pipeline, table, report = run_verification(cfg)
        write_verification_csv(pipeline, table, report, csv_path)
        extra = {"verification": {k: repr(v) for k, v in report.items()}}
        summary = ""
        for name in ("n_k", "n_q", "abs_pair"):
            points = report[f"{name}_points"]
            error = f"{report[f'{name}_max_rel_err']:.3e}" if points else "n/a"
            summary += f"\n  {name}_max_rel_err = {error} ({points} points compared)"
    else:
        result = run_scenario(cfg)
        write_scenario_csv(result, csv_path)
        summary = (f"  (peak g_cs {result.peak_g_cs():.6g}, "
                   f"min D {result.min_duan():.6g}, peak n_k {result.peak_n_k():.6g})")
    write_manifest(cfg, args.out / f"{cfg.label}{suffix}.manifest.json", extra)
    _say(f"wrote {csv_path}{summary}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "preset" and (args.list or args.name is None):
        _say("\n".join(PRESET_NAMES))
        return 0
    try:
        configs = _load(args)
        args.out.mkdir(parents=True, exist_ok=True)
        for cfg in configs:
            _emit(cfg, args)
    except (ConfigError, OSError) as exc:  # OSError: an unusable config or output path
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, CutoffError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
