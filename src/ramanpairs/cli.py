"""Command line front end.

Subcommands:
    run <config>      run one scenario file, write series CSV + manifest
                      (a config with a [scan] section is refused: use scan)
    preset <name>     run a named figure preset (scenario group or scan)
    scan <config>     run the scan described by the config's [scan] section
    verify <config>   compare the pipeline against the truncated-Fock oracle

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import ScenarioConfig, load_config
from .errors import ConfigError, CutoffError, IntegrationError
from .oracle import OracleConfig
from .presets import PRESET_NAMES, preset
from .runner import (run_scan, run_scenario, run_verification, write_manifest,
                     write_scan_csv, write_scenario_csv, write_verification_csv)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramanpairs",
        description="Transient photon-pair correlation and entanglement of a "
                    "pulse-driven four-level double-Raman atom.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (created if missing)")
        p.add_argument("--grid-points", type=int, default=None,
                       help="override the number of grid intervals")
        p.add_argument("--tol", type=float, default=None,
                       help="override the integrator relative tolerance "
                            "(absolute tolerance follows as tol*1e-3)")
        p.add_argument("--workers", type=int, default=1,
                       help="concurrent scan points (scans only)")

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config", type=Path)
    add_common(p_run)

    p_preset = sub.add_parser("preset", help="run a named figure preset")
    p_preset.add_argument("name", nargs="?", default=None,
                          help=f"one of: {', '.join(PRESET_NAMES)}")
    p_preset.add_argument("--list", action="store_true", help="list preset names")
    add_common(p_preset)

    p_scan = sub.add_parser("scan", help="run a parameter scan config")
    p_scan.add_argument("config", type=Path)
    add_common(p_scan)

    p_verify = sub.add_parser("verify", help="compare against the Fock oracle")
    p_verify.add_argument("config", type=Path)
    add_common(p_verify)

    return parser


def _apply_flags(cfg: ScenarioConfig, args) -> ScenarioConfig:
    if args.grid_points is not None:
        cfg = replace(cfg, grid_points=args.grid_points)
    if args.tol is not None:
        cfg = replace(cfg, rtol=args.tol, atol=args.tol * 1e-3)
    return cfg


def _emit_scenario(cfg: ScenarioConfig, out_dir: Path) -> None:
    result = run_scenario(cfg)
    csv_path = out_dir / f"{cfg.label}.csv"
    write_scenario_csv(result, csv_path)
    write_manifest(cfg, out_dir / f"{cfg.label}.manifest.json")
    print(f"wrote {csv_path}  (peak g_cs {result.peak_g_cs():.6g}, "
          f"min D {result.min_duan():.6g}, peak n_k {result.peak_n_k():.6g})")


def _emit_scan(cfg: ScenarioConfig, out_dir: Path, workers: int) -> None:
    result = run_scan(cfg, workers=workers)
    csv_path = out_dir / f"{cfg.label}_scan.csv"
    write_scan_csv(result, csv_path)
    write_manifest(cfg, out_dir / f"{cfg.label}_scan.manifest.json")
    print(f"wrote {csv_path}  ({len(result.rows)} scan rows)")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        out_dir = args.out
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "run":
            cfg = _apply_flags(load_config(args.config), args)
            if cfg.scan is not None:
                raise ConfigError(f"{args.config} has a [scan] section; "
                                  "run it with the 'scan' subcommand")
            _emit_scenario(cfg, out_dir)

        elif args.command == "preset":
            if args.list or args.name is None:
                for name in PRESET_NAMES:
                    print(name)
                return 0
            chosen = preset(args.name)
            if chosen.kind == "scan":
                _emit_scan(_apply_flags(chosen.scan, args), out_dir, args.workers)
            else:
                for cfg in chosen.scenarios:
                    _emit_scenario(_apply_flags(cfg, args), out_dir)

        elif args.command == "scan":
            cfg = _apply_flags(load_config(args.config), args)
            _emit_scan(cfg, out_dir, args.workers)

        elif args.command == "verify":
            cfg = _apply_flags(load_config(args.config), args)
            if cfg.verify is None:
                cfg = replace(cfg, verify=OracleConfig())
            pipeline, oracle, report = run_verification(cfg)
            csv_path = out_dir / f"{cfg.label}_verify.csv"
            write_verification_csv(pipeline, oracle, report, csv_path)
            write_manifest(cfg, out_dir / f"{cfg.label}_verify.manifest.json",
                           extra={"verification": {k: repr(v) for k, v in report.items()}})
            print(f"wrote {csv_path}")
            for name in ("n_k", "n_q", "abs_pair"):
                points = report[f"{name}_points"]
                error = f"{report[f'{name}_max_rel_err']:.3e}" if points else "n/a"
                print(f"  {name}_max_rel_err = {error} ({points} points compared)")

    except (ConfigError, OSError) as exc:  # OSError: an unusable config or output path
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, CutoffError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
