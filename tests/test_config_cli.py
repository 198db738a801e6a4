import json
from dataclasses import replace

import numpy as np
import pytest

from ramanpairs.cli import main
from ramanpairs.config import apply_override, config_hash, describe, parse_config
from ramanpairs.errors import ConfigError, IntegrationError
from ramanpairs.presets import PRESET_NAMES, preset
from ramanpairs.runner import run_scan, run_scenario, write_scenario_csv

GOOD_CONFIG = """
[atom]
gamma_bc = 0.0
g_k = 0.08
g_q = 0.08
rho_bb = 0.5
rho_cc = 0.5

[pump]
shape = gaussian
omega_peak = 10
center = 0.5
width = 0.0667

[control]
shape = gaussian
omega_peak = 10
center = 0.5
width = 0.0667

[run]
t_end = 1.0
grid_points = 120
label = demo
"""


def test_parse_good_config():
    cfg = parse_config(GOOD_CONFIG)
    assert cfg.label == "demo"
    assert cfg.grid_points == 120
    assert cfg.atom.g_k == pytest.approx(0.08)
    assert cfg.pump.shape == "gaussian"
    assert cfg.atom.rho0[1, 1] == pytest.approx(0.5)
    assert cfg.atom.rho0[2, 2] == pytest.approx(0.5)


def test_unknown_key_rejected_with_field_message():
    with pytest.raises(ConfigError, match=r"\[pump\] wdith"):
        parse_config(GOOD_CONFIG.replace("width = 0.0667\n\n[control]",
                                         "wdith = 0.0667\n\n[control]", 1))
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(GOOD_CONFIG + "\n[laser]\npower = 1\n")
    with pytest.raises(ConfigError, match=r"\[atom\] rho_xz"):
        parse_config(GOOD_CONFIG.replace("rho_bb", "rho_xz"))
    for line in ("cutoff_k = 3.7", "dim_cap = 1e3"):
        with pytest.raises(ConfigError, match=rf"\[verify\] {line.split()[0]}: not an integer"):
            parse_config(GOOD_CONFIG + "\n[verify]\n" + line + "\n")


def test_coherence_keys_fill_hermitian_pair():
    text = GOOD_CONFIG.replace("rho_bb = 0.5\nrho_cc = 0.5",
                               "rho_bb = 0.5\nrho_cc = 0.5\nrho_bc = 0.2+0.1j")
    cfg = parse_config(text)
    assert cfg.atom.rho0[1, 2] == pytest.approx(0.2 + 0.1j)
    assert cfg.atom.rho0[2, 1] == pytest.approx(0.2 - 0.1j)


def test_run_validation():
    with pytest.raises(ConfigError, match="grid_points"):
        parse_config(GOOD_CONFIG.replace("grid_points = 120", "grid_points = 10"))
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(GOOD_CONFIG.replace("t_end = 1.0", "t_end = -2"))
    with pytest.raises(ConfigError, match="outputs"):
        parse_config(GOOD_CONFIG + "outputs = gcs, wigner\n")
    for line in ("atol = -1", "rtol = nan", "rtol = 0", "atol = inf"):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=rf"\[run\] {key}"):
            parse_config(GOOD_CONFIG + line + "\n")
    for line in ("atol = -1", "rtol = nan", "leak_tol = nan", "leak_tol = -1", "leak_tol = 0",
                 "g_k = nan", "g_q = -0.5", "g_q = inf"):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=rf"\[verify\] {key}"):
            parse_config(GOOD_CONFIG + "\n[verify]\n" + line + "\n")


def test_scan_section_validation():
    text = GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues = 0.2, 0.1\n"
    cfg = parse_config(text)
    assert cfg.scan.parameter == "both.width"
    assert cfg.scan.values == (0.2, 0.1)
    with pytest.raises(ConfigError, match="values"):
        parse_config(GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues =\n")
    with pytest.raises(ConfigError, match="not a scannable"):
        parse_config(GOOD_CONFIG + "\n[scan]\nparameter = atom.rho_bb\nvalues = 0.5\n")


def test_apply_override_paths():
    cfg = parse_config(GOOD_CONFIG)
    assert apply_override(cfg, "pump.width", 0.2).pump.width == 0.2
    both = apply_override(cfg, "both.omega_peak", 7.0)
    assert both.pump.omega_peak == 7.0 and both.control.omega_peak == 7.0
    opp = apply_override(cfg, "opposite.chirp", 100.0)
    assert opp.pump.chirp == 100.0 and opp.control.chirp == -100.0
    with pytest.raises(ConfigError):
        apply_override(cfg, "pump.shape", 1.0)
    with pytest.raises(ConfigError):
        apply_override(cfg, "nothing", 1.0)


def test_describe_names_defaults_and_hash_is_stable():
    cfg = parse_config(GOOD_CONFIG)
    info = describe(cfg)
    assert info["atom.gamma_ab"] == 1.0  # default present even though unset
    assert info["pump.shape"] == "gaussian"
    assert config_hash(cfg) == config_hash(parse_config(GOOD_CONFIG))
    assert config_hash(cfg) != config_hash(apply_override(cfg, "pump.width", 0.1))


def test_all_presets_load():
    assert PRESET_NAMES == ("fig2a", "fig2b", "fig3a", "fig3b", "fig4b", "fig4c",
                            "fig4d", "fig5", "fig6a", "fig6b", "fig7a", "fig7b",
                            "fig7c", "fig7d")
    for name in PRESET_NAMES:
        p = preset(name)
        if p.kind == "scan":
            assert p.scan.scan is not None
        else:
            assert len(p.scenarios) >= 1
    assert len(preset("fig5").scenarios) == 4
    with pytest.raises(ConfigError):
        preset("fig9")


def test_every_preset_runs_on_a_coarse_grid():
    from dataclasses import replace

    for name in PRESET_NAMES:
        p = preset(name)
        if p.kind == "scan":
            cfg = replace(p.scan, grid_points=200)
            cfg = replace(cfg, scan=replace(cfg.scan, values=cfg.scan.values[:2]))
            rows = run_scan(cfg).rows
            assert len(rows) == 2 and np.isfinite(rows[0]["peak_n_k"])
        else:
            for cfg in p.scenarios:
                result = run_scenario(replace(cfg, grid_points=200))
                assert np.isfinite(result.peak_n_k())
                assert np.isfinite(result.min_duan())


def test_scenario_csv_is_deterministic(tmp_path):
    cfg = parse_config(GOOD_CONFIG)
    paths = []
    for i in (1, 2):
        path = tmp_path / f"run{i}.csv"
        write_scenario_csv(run_scenario(cfg), path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_scenario_csv_structure(tmp_path):
    cfg = parse_config(GOOD_CONFIG)
    path = tmp_path / "demo.csv"
    write_scenario_csv(run_scenario(cfg), path)
    lines = path.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("atom.gamma_ab = 1.0" in l for l in header)
    columns = next(l for l in lines if not l.startswith("#")).split(",")
    for expected in ("t", "n_k", "n_q", "n_k_boundary", "n_k_noise", "re_aq_ak",
                     "im_aq_ak", "g_cs", "cs_defined", "duan_d", "duan_d_optimized",
                     "g2", "phi_kq", "relate_residual"):
        assert expected in columns
    first_row = next(l for l in lines if not l.startswith("#") and not l.startswith("t,"))
    assert len(first_row.split(",")) == len(columns)


def test_outputs_subset_trims_columns(tmp_path):
    cfg = parse_config(GOOD_CONFIG + "outputs = duan\n")
    path = tmp_path / "duan_only.csv"
    write_scenario_csv(run_scenario(cfg), path)
    columns = next(l for l in path.read_text().splitlines()
                   if not l.startswith("#")).split(",")
    assert "duan_d" in columns and "g_cs" not in columns and "re_aq_ak" not in columns


def test_run_scan_summarizes_in_order():
    cfg = parse_config(GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues = 0.2, 0.1\n")
    result = run_scan(cfg)
    assert [row["value"] for row in result.rows] == [0.2, 0.1]
    assert all(np.isfinite(row["peak_n_k"]) for row in result.rows)


def test_run_scan_parallel_matches_serial():
    cfg = parse_config(GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues = 0.2, 0.1\n")
    serial = run_scan(cfg, workers=1)
    parallel = run_scan(cfg, workers=2)
    assert serial.rows == parallel.rows


def test_run_scan_caps_pool_at_scan_values(monkeypatch):
    """A fork pool starts all its workers at once; two values need no more than two."""
    from ramanpairs import runner

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
    cfg = parse_config(GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues = 0.2, 0.1\n")
    assert len(run_scan(cfg, workers=64).rows) == 2
    assert sizes == [2]


def test_cli_run_and_manifest(tmp_path):
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(GOOD_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["run", str(config_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "demo.csv").exists()
    manifest = json.loads((out_dir / "demo.manifest.json").read_text())
    assert manifest["tool"] == "ramanpairs"
    assert manifest["config_hash"]
    assert manifest["parameters"]["grid_points"] == "120"


def test_cli_preset_listing(capsys):
    assert main(["preset", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig2a" in out and "fig7d" in out


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CONFIG + "\n[atom]\nbogus = 1\n")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 2
    assert main(["preset", "fig99", "--out", str(tmp_path)]) == 2
    assert main(["run", str(tmp_path), "--out", str(tmp_path)]) == 2  # IsADirectoryError
    taken = tmp_path / "taken.txt"
    taken.write_text("")
    assert main(["preset", "fig2b", "--out", str(taken)]) == 2  # FileExistsError
    good = tmp_path / "good.cfg"
    good.write_text(GOOD_CONFIG)
    for tol in ("-1", "nan"):
        assert main(["run", str(good), "--out", str(tmp_path), "--tol", tol]) == 2
    bad.write_text(GOOD_CONFIG + "atol = -1\n")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    for line in ("leak_tol = nan", "g_k = -0.5"):
        bad.write_text(GOOD_CONFIG + "\n[verify]\n" + line + "\n")
        assert main(["verify", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    from ramanpairs import cli
    from ramanpairs.errors import IntegrationError

    def boom(cfg):
        raise IntegrationError("step underflow near t = 0.5", time=0.5)

    monkeypatch.setattr(cli, "run_scenario", boom)
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(GOOD_CONFIG)
    assert main(["run", str(config_path), "--out", str(tmp_path)]) == 3


def _fig2b_window(t_end: float, grid_points: int):
    cfg = preset("fig2b").scenarios[0]
    return replace(cfg, atom=replace(cfg.atom, g_k=0.01, g_q=0.01),
                   t_end=t_end, grid_points=grid_points)


def test_run_scenario_refuses_ill_conditioned_window():
    """fig2b stretched to t_end 20 would come out tens of times off the oracle."""
    with pytest.raises(IntegrationError, match="condition number") as info:
        run_scenario(_fig2b_window(20.0, 2000))
    assert info.value.time == 20.0
    result = run_scenario(_fig2b_window(10.0, 1000))
    assert np.isfinite(result.peak_n_k())


def test_cli_long_window_exits_3_without_csv(tmp_path):
    text = (GOOD_CONFIG.replace("g_k = 0.08\ng_q = 0.08", "g_k = 0.01\ng_q = 0.01")
            .replace("t_end = 1.0\ngrid_points = 120", "t_end = 20.0\ngrid_points = 2000"))
    config_path = tmp_path / "long.cfg"
    config_path.write_text(text)
    out_dir = tmp_path / "long_out"
    assert main(["run", str(config_path), "--out", str(out_dir)]) == 3
    assert list(out_dir.iterdir()) == []


def test_cli_scan_subcommand(tmp_path):
    config_path = tmp_path / "scan.cfg"
    config_path.write_text(GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues = 0.2, 0.1\n")
    out_dir = tmp_path / "scan_out"
    assert main(["scan", str(config_path), "--out", str(out_dir)]) == 0
    lines = (out_dir / "demo_scan.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")]
    assert rows[0].split(",") == ["value", "peak_g_cs", "min_duan_d",
                                  "min_duan_d_optimized", "peak_n_k"]
    assert len(rows) == 3


def test_cli_verify_subcommand(tmp_path):
    config_path = tmp_path / "verify.cfg"
    config_path.write_text(GOOD_CONFIG + "\n[verify]\ncutoff_k = 2\ncutoff_q = 2\n"
                                         "g_k = 0.02\ng_q = 0.02\n")
    out_dir = tmp_path / "verify_out"
    assert main(["verify", str(config_path), "--out", str(out_dir),
                 "--grid-points", "200"]) == 0
    text = (out_dir / "demo_verify.csv").read_text()
    assert "n_k_pipeline" in text and "abs_pair_oracle" in text
    manifest = json.loads((out_dir / "demo_verify.manifest.json").read_text())
    report = manifest["verification"]
    for key in ("n_k_max_rel_err", "n_q_max_rel_err", "abs_pair_max_rel_err"):
        assert float(report[key]) < 0.05
