import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ramanpairs.atom import AtomConfig
from ramanpairs.cli import _build_parser, main
from ramanpairs.config import (ScenarioConfig, apply_override, config_hash, describe,
                               parse_config)
from ramanpairs.errors import ConfigError
from ramanpairs.oracle import OracleConfig
from ramanpairs.pulses import PulseSpec
from ramanpairs.presets import PRESET_NAMES, preset
from ramanpairs.propagator import build_propagator_grid
from ramanpairs.runner import (_CHUNK_ROWS, _write_csv, run_scan, run_scenario, run_verification,
                               scenario_table, write_scenario_csv)

from reference import savetxt_csv

ROOT = Path(__file__).resolve().parents[1]

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
    # describe writes both elements; a consistent pair loads back to the same state
    both = parse_config(text.replace("rho_bc = 0.2+0.1j", "rho_bc = 0.2+0.1j\nrho_cb = 0.2-0.1j"))
    assert config_hash(both) == config_hash(cfg)
    with pytest.raises(ConfigError, match=r"\[atom\] rho_bc, rho_cb: conflicting"):
        parse_config(text.replace("rho_bc = 0.2+0.1j", "rho_bc = 0.2+0.1j\nrho_cb = 0.3"))


def test_run_validation():
    with pytest.raises(ConfigError, match="grid_points"):
        parse_config(GOOD_CONFIG.replace("grid_points = 120", "grid_points = 10"))
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(GOOD_CONFIG.replace("t_end = 1.0", "t_end = -2"))
    with pytest.raises(ConfigError, match="outputs"):
        parse_config(GOOD_CONFIG + "outputs = gcs, wigner\n")
    for line in ("rtol = -1", "rtol = nan", "rtol = 0", "rtol = inf"):
        with pytest.raises(ConfigError, match=r"\[run\] rtol: must be finite"):
            parse_config(GOOD_CONFIG + line + "\n")
    # [run] has no atol: the flow takes no absolute tolerance
    for line in ("atol = 1e-12", "atol = -1"):
        with pytest.raises(ConfigError, match=r"\[run\] atol: unknown key"):
            parse_config(GOOD_CONFIG + line + "\n")
    for line in ("atol = -1", "rtol = nan", "rtol = 1e-20", "leak_tol = nan", "leak_tol = -1",
                 "leak_tol = 0", "g_k = nan", "g_q = -0.5", "g_q = inf"):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=rf"\[verify\] {key}"):
            parse_config(GOOD_CONFIG + "\n[verify]\n" + line + "\n")
    for label in ("../../escape", "", ".", "..", "runs/demo", "runs\\demo"):
        with pytest.raises(ConfigError, match=r"\[run\] label"):
            parse_config(GOOD_CONFIG.replace("label = demo", f"label = {label}"))


def test_run_rejects_a_grid_the_header_would_misstate(tmp_path):
    """A fractional grid_points or a nan or infinite t_end is a configuration error.

    The grid would truncate 100.5 to 100 intervals under a header that says
    100.5, and the flow would fail on nan or inf times with a bare ValueError.
    """
    with pytest.raises(ConfigError, match=r"\[run\] grid_points: must be an integer"):
        ScenarioConfig(grid_points=100.5)
    assert ScenarioConfig(grid_points=np.int64(100)).grid_points == 100
    for t_end in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="t_end"):
            build_propagator_grid(AtomConfig(), PulseSpec(), PulseSpec(), t_end, 100)
    config = tmp_path / "demo.cfg"
    for old, new in (("grid_points = 120", "grid_points = 100.5"),
                     ("t_end = 1.0", "t_end = nan"), ("t_end = 1.0", "t_end = inf")):
        config.write_text(GOOD_CONFIG.replace(old, new))
        assert main(["run", str(config), "--out", str(tmp_path)]) == 2, new
    config.write_text(GOOD_CONFIG.replace("grid_points = 120", "grid_points = 100"))
    assert main(["run", str(config), "--out", str(tmp_path), "--grid-points", "60"]) == 0
    assert "# grid_points = 60\n" in (tmp_path / "demo.csv").read_text()


def test_scan_section_validation():
    text = GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues = 0.2, 0.1\n"
    cfg = parse_config(text)
    assert cfg.scan.parameter == "both.width"
    assert cfg.scan.values == (0.2, 0.1)
    with pytest.raises(ConfigError, match="values"):
        parse_config(GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues =\n")
    with pytest.raises(ConfigError, match="not a scannable"):
        parse_config(GOOD_CONFIG + "\n[scan]\nparameter = atom.rho_bb\nvalues = 0.5\n")
    with pytest.raises(ConfigError, match=r"\[scan\].*values"):
        parse_config(GOOD_CONFIG + "\n[scan]\nparameter = both.width\n")
    # every scan value is applied at load, not only the first
    with pytest.raises(ConfigError, match=r"\[scan\] run.t_end = -2.0: \[run\] t_end"):
        parse_config(GOOD_CONFIG + "\n[scan]\nparameter = run.t_end\nvalues = 1.0, -2\n")
    with pytest.raises(ConfigError, match=r"\[scan\] both.width = -0.1: .*width"):
        parse_config(GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues = 0.2, -0.1\n")


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
    assert "atol" not in info
    verified = describe(parse_config(GOOD_CONFIG + "\n[verify]\natol = 1e-10\n"))
    assert verified["verify.atol"] == 1e-10 and "atol" not in verified


def test_readme_scenario_file_parses_and_round_trips(monkeypatch):
    """The example under "Scenario files" in the README loads, and its `describe` loads back."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import config_ini

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Scenario files", 1)[1].split("```\n")[1]
    cfg = parse_config(example)
    assert cfg.label == "demo" and cfg.scan.parameter == "both.width"
    again = parse_config(config_ini(cfg))
    assert describe(again) == describe(cfg)
    assert config_hash(again) == config_hash(cfg)


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
    """A re-run writes the same bytes, and the file reads back to the table's exact floats.

    GOOD_CONFIG, then three presets on a reduced grid: cw, chirped and detuned drives.
    """
    configs = [parse_config(GOOD_CONFIG), *(replace(preset(name).scenarios[0], grid_points=200)
                                            for name in ("fig2a", "fig4c", "fig7d"))]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    for cfg in configs:
        result = run_scenario(cfg)
        write_scenario_csv(result, first)
        write_scenario_csv(run_scenario(cfg), second)
        assert first.read_bytes() == second.read_bytes()
        lines = [line for line in first.read_text().splitlines() if not line.startswith("#")]
        table = scenario_table(result)
        assert lines[0].split(",") == list(table)
        back = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        expected = np.column_stack(list(table.values()))
        np.testing.assert_array_equal(back, expected)  # NaN where NaN
        number = ~np.isnan(expected)  # and -0.0 where -0.0
        assert np.array_equal(np.signbit(back[number]), np.signbit(expected[number]))


_SPECIAL = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, 5e-324,
                     1.7976931348623157e308])


def _column(kind: str, value: float, n: int, rng) -> np.ndarray:
    if kind == "constant":
        return np.full(n, value)
    if kind == "signed_zero":
        return rng.choice([0.0, -0.0], n)
    if kind == "flag":
        return rng.integers(0, 2, n).astype(float)
    if kind == "special":
        return rng.choice(_SPECIAL, n)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


_COLUMNS = st.lists(st.tuples(st.sampled_from(["constant", "signed_zero", "flag", "special",
                                               "random"]), st.floats()), min_size=1, max_size=8)
_EVERY_KIND = [("constant", 0.0), ("constant", -0.0), ("constant", np.nan), ("constant", -np.inf),
               ("constant", 0.1), ("signed_zero", 0.0), ("flag", 0.0), ("special", 0.0),
               ("random", 0.0)]


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 3 * _CHUNK_ROWS), columns=_COLUMNS, seed=st.integers(0, 2**32 - 1))
@example(rows=1, columns=_EVERY_KIND, seed=0)
@example(rows=2 * _CHUNK_ROWS + 1, columns=_EVERY_KIND, seed=1)  # not a whole number of chunks
def test_write_csv_matches_savetxt(tmp_path_factory, rows, columns, seed):
    """_write_csv writes the bytes of np.savetxt(fmt="%.17g"), constant columns included."""
    rng = np.random.default_rng(seed)
    table = {f"c{j}": _column(kind, value, rows, rng) for j, (kind, value) in enumerate(columns)}
    header = ["# ramanpairs test", "# rows = " + str(rows)]
    out = tmp_path_factory.mktemp("csv")
    _write_csv(out / "fast.csv", header, table)
    savetxt_csv(out / "reference.csv", header, table)
    assert (out / "fast.csv").read_bytes() == (out / "reference.csv").read_bytes()


def test_scenario_csv_structure(tmp_path):
    cfg = parse_config(GOOD_CONFIG)
    path = tmp_path / "demo.csv"
    write_scenario_csv(run_scenario(cfg), path)
    lines = path.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("atom.gamma_ab = 1.0" in l for l in header)
    columns = next(l for l in lines if not l.startswith("#")).split(",")
    # all five output groups, in file order
    assert columns == [
        "t", "n_k", "n_q",
        "n_k_boundary", "n_k_noise", "n_k_backaction", "noise_fraction_k",
        "n_q_boundary", "n_q_noise", "n_q_backaction", "noise_fraction_q",
        "re_aq_ak", "im_aq_ak", "re_aq_ak_linear", "im_aq_ak_linear",
        "re_ak_mean", "im_ak_mean", "re_aq_mean", "im_aq_mean",
        "g_cs", "cs_defined", "duan_d", "duan_d_optimized", "g2", "phi_kq"]
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


def test_run_scan_rejects_workers_below_one():
    """Library callers get the same check as the CLI's --workers."""
    cfg = parse_config(GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues = 0.2, 0.1\n")
    for workers in (0, -3):
        with pytest.raises(ConfigError, match="workers must be at least 1"):
            run_scan(cfg, workers=workers)


def _serial_pool(monkeypatch) -> list[dict]:
    """Replace the process pool by a serial one; returns the keyword arguments it receives."""
    import concurrent.futures

    calls = []

    class SerialPool:
        def __init__(self, **kwargs):
            calls.append(kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return calls


def test_run_scan_caps_pool_at_scan_values(monkeypatch):
    """A fork pool starts all its workers at once; two values need no more than two."""
    calls = _serial_pool(monkeypatch)
    cfg = parse_config(GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues = 0.2, 0.1\n")
    assert len(run_scan(cfg, workers=64).rows) == 2
    assert [call["max_workers"] for call in calls] == [2]


def test_run_scan_pool_forks_where_it_can(monkeypatch):
    """The pool gets the fork context, not the default (forkserver on Linux from Python 3.14)."""
    import multiprocessing

    calls = _serial_pool(monkeypatch)
    cfg = parse_config(GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues = 0.2, 0.1\n")
    run_scan(cfg, workers=2)
    fork = "fork" in multiprocessing.get_all_start_methods()
    want = "fork" if fork else multiprocessing.get_context().get_start_method()
    assert [call["mp_context"].get_start_method() for call in calls] == [want]


def test_cli_run_and_manifest(tmp_path):
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(GOOD_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["run", str(config_path), "--out", str(out_dir), "--tol", "1e-6"]) == 0
    assert (out_dir / "demo.csv").exists()
    manifest = json.loads((out_dir / "demo.manifest.json").read_text())
    assert manifest["tool"] == "ramanpairs"
    assert manifest["config_hash"]
    assert manifest["parameters"]["grid_points"] == "120"
    # --tol sets rtol alone
    assert manifest["parameters"]["rtol"] == "1e-06"
    assert not [key for key in manifest["parameters"] if key.endswith("atol")]


def test_cli_preset_listing(capsys):
    assert main(["preset", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig2a" in out and "fig7d" in out


def test_cli_parser_is_built_once_and_parses_each_call_afresh():
    parser = _build_parser()
    assert _build_parser() is parser
    first = parser.parse_args(["preset", "--list", "--grid-points", "60", "--tol", "1e-6"])
    second = parser.parse_args(["preset", "fig2a"])
    assert first.list and first.grid_points == 60 and first.tol == 1e-6
    assert (second.name, second.list, second.grid_points, second.tol) == ("fig2a", False, None, None)


def _src_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports ramanpairs from this tree."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_and_console_script(tmp_path):
    """`python -m ramanpairs` runs the CLI, and the console script names the same main."""
    done = subprocess.run([sys.executable, "-m", "ramanpairs", "preset", "--list"],
                          cwd=tmp_path, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == list(PRESET_NAMES)
    # no tomllib on Python 3.10, so the [project.scripts] table is matched as text
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
                        (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M | re.S)
    assert scripts is not None
    assert re.search(r'^ramanpairs\s*=\s*"ramanpairs\.cli:main"\s*$', scripts.group(1), re.M)


@pytest.mark.parametrize("argv", [["preset", "--list"],
                                  ["preset", "fig2a", "--grid-points", "60", "--out", "out"]])
def test_cli_quiet_on_closed_stdout(tmp_path, argv):
    """A stdout pipe without a reader: exit 0, nothing on stderr, the CSV still written."""
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the CLI prints anything
    try:
        done = subprocess.run([sys.executable, "-m", "ramanpairs", *argv], cwd=tmp_path,
                              env=_src_env(), stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")
    if "--out" in argv:
        assert (tmp_path / "out" / "fig2a.csv").exists()


def _scipy_modules_after(code: str, cwd, package: str = "scipy") -> list[str]:
    """The modules of package, scipy by default, that a fresh interpreter holds after code, sorted.

    The test process itself has imported scipy, so only a new interpreter
    shows what the package loads.  Each module counts as its top two name
    parts, so scipy.sparse._csr reads as scipy.sparse.
    """
    probe = (f"{code}\nimport sys\n"
             "print(sorted({'.'.join(m.split('.')[:2]) for m in sys.modules"
             f" if m.split('.')[0] == {package!r}}}))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, status, needed", [
    (None, None, ()),
    (["preset", "--list"], 0, ()),
    (["run", "missing.ini", "--out", "out"], 2, ()),  # a configuration error
    (["preset", "fig2a", "--grid-points", "100", "--out", "out"], 0, ()),
    (["preset", "fig2b", "--grid-points", "100", "--out", "out"], 0, ()),
    (["verify", "cw.ini", "--out", "out"], 0, ("scipy.sparse",)),
], ids=["import", "list", "config-error", "fig2a", "fig2b", "verify"])
def test_ode_solver_loaded_at_first_solve(tmp_path, argv, status, needed):
    """Only verify loads scipy, for the oracle's sparse build; its DOP853 solve loads none.

    Importing the CLI, a config error and a preset run, with constant
    (fig2a) or pulsed (fig2b) drives, load no scipy module at all.  The
    oracle's solve runs on ramanpairs.dop853, so verify loads neither
    scipy.integrate nor what that import would bring with it.
    """
    (tmp_path / "cw.ini").write_text(GOOD_CONFIG.replace("shape = gaussian", "shape = cw"))
    code = "import ramanpairs.cli"
    if argv is not None:
        code += f"\nassert ramanpairs.cli.main({argv!r}) == {status}"
    modules = _scipy_modules_after(code, tmp_path)
    if needed:
        assert set(needed) <= set(modules), modules
        assert not {"scipy.integrate", "scipy.optimize", "scipy.special",
                    "scipy.linalg"} & set(modules), modules
    else:
        assert modules == [], modules


def test_preset_run_loads_no_process_pool(tmp_path):
    """Only a scan on more than one worker imports the process pool and multiprocessing."""
    code = ("import ramanpairs.cli\n"
            "assert ramanpairs.cli.main(['preset', 'fig2a', '--grid-points', '100',"
            " '--out', 'out']) == 0")
    for package in ("multiprocessing", "concurrent"):
        assert _scipy_modules_after(code, tmp_path, package) == [], package


def test_scan_pool_loads_no_scipy(tmp_path):
    """A fig6b scan on 2 workers loads no scipy module, in the parent or in a worker."""
    code = ("import sys\n"
            "from dataclasses import replace\n"
            "from ramanpairs import runner\n"
            "from ramanpairs.presets import preset\n"
            "point = runner._scan_point\n"
            "def probe(job):\n"
            "    row = point(job)\n"
            "    assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], job[1]\n"
            "    return row\n"
            "runner._scan_point = probe  # a forked worker looks the name up in runner\n"
            "cfg = replace(preset('fig6b').scan, grid_points=100)\n"
            "assert len(runner.run_scan(cfg, workers=2).rows) == 5")
    assert _scipy_modules_after(code, tmp_path) == []


def test_cli_config_error_exit_code(tmp_path, capsys):
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
    for tol in ("-1", "nan", "1e-30"):
        assert main(["run", str(good), "--out", str(tmp_path), "--tol", tol]) == 2
    bad.write_text(GOOD_CONFIG + "atol = 1e-12\n")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert "[run] atol: unknown key" in capsys.readouterr().err
    for line in ("leak_tol = nan", "g_k = -0.5", "rtol = 1e-20"):
        bad.write_text(GOOD_CONFIG + "\n[verify]\n" + line + "\n")
        assert main(["verify", str(bad), "--out", str(tmp_path)]) == 2
    nested = tmp_path / "a" / "b"
    for label in ("../../escape", ""):
        bad.write_text(GOOD_CONFIG.replace("label = demo", f"label = {label}"))
        assert main(["run", str(bad), "--out", str(nested)]) == 2
    assert not (tmp_path / "escape.csv").exists() and not (nested / ".csv").exists()
    bad.write_text(GOOD_CONFIG + "\n[scan]\nparameter = run.t_end\nvalues = 1.0, -2\n")
    assert main(["scan", str(bad), "--out", str(nested)]) == 2
    assert not (nested / "demo_scan.csv").exists()
    for line in ("rho_aa = nan", "rho_bc = nan", "rho_bc = inf", "rho_bc = 1e400"):
        bad.write_text(GOOD_CONFIG.replace("rho_bb = 0.5", f"rho_bb = 0.5\n{line}"))
        assert main(["run", str(bad), "--out", str(nested)]) == 2, line
    assert not (nested / "demo.csv").exists()
    bad.write_text(GOOD_CONFIG + "\n[scan]\nparameter = run.t_end\nvalues = 1.0, 2.0\n")
    capsys.readouterr()
    for command in ("run", "verify"):
        assert main([command, str(bad), "--out", str(nested)]) == 2
        assert "[scan]" in capsys.readouterr().err
    assert not (nested / "demo.csv").exists() and not (nested / "demo_verify.csv").exists()
    assert main(["scan", str(good), "--out", str(nested)]) == 2
    err = capsys.readouterr().err
    assert "no [scan] section" in err and "'run'" in err and "run_scan" not in err


def test_cli_creates_out_only_after_every_config_loads(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(GOOD_CONFIG + "\n[atom]\nbogus = 1\n")
    scan = tmp_path / "scan.cfg"
    scan.write_text(GOOD_CONFIG + "\n[scan]\nparameter = both.width\nvalues = 0.2, 0.1\n")
    fresh = str(tmp_path / "fresh" / "out")
    assert main(["run", str(bad), "--out", fresh]) == 2
    assert main(["verify", str(bad), "--out", fresh]) == 2
    assert main(["preset", "fig99", "--out", fresh]) == 2
    assert main(["preset", "--list", "--out", fresh]) == 0
    capsys.readouterr()
    for workers in ("0", "-2"):  # used to run serially and exit 0
        assert main(["scan", str(scan), "--out", fresh, "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "fresh").exists()


def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch):
    from ramanpairs import cli
    from ramanpairs.errors import IntegrationError

    def boom(cfg):
        raise IntegrationError("step underflow near t = 0.5", time=0.5)

    monkeypatch.setattr(cli, "run_scenario", boom)
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(GOOD_CONFIG)
    assert main(["run", str(config_path), "--out", str(tmp_path)]) == 3


def test_cli_verify_exits_3_when_the_oracle_solve_fails(tmp_path, monkeypatch, capsys):
    """An oracle drive that turns NaN at t = 0.5 stops its DOP853 solve: exit 3, no CSV."""
    from ramanpairs import oracle

    envelope = oracle.envelope
    monkeypatch.setattr(oracle, "envelope",
                        lambda spec, t: envelope(spec, t) if t < 0.5 else float("nan"))
    config_path = tmp_path / "demo.cfg"
    config_path.write_text(GOOD_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["verify", str(config_path), "--out", str(out_dir)]) == 3
    assert "oracle integration failed" in capsys.readouterr().err
    assert not (out_dir / "demo_verify.csv").exists()


def _fig2b_window(t_end: float, grid_points: int):
    cfg = preset("fig2b").scenarios[0]
    return replace(cfg, atom=replace(cfg.atom, g_k=0.01, g_q=0.01),
                   t_end=t_end, grid_points=grid_points)


def test_run_scenario_meets_the_oracle_on_long_windows():
    """fig2b stretched to t_end 20 and 30, on grids of h = 0.01, meets the Fock oracle within 5%.

    The sector flow from 0 reaches condition e^{2 t_end} there; each block's
    frame keeps the one the kernels invert at most 10.  Criterion 7's gate.
    """
    for t_end in (20.0, 30.0):
        cfg = replace(_fig2b_window(t_end, round(100 * t_end)), verify=OracleConfig())
        _, _, report = run_verification(cfg)
        assert report["n_k_points"] > 0 and report["abs_pair_points"] > 0
        for key in ("n_k_max_rel_err", "n_q_max_rel_err", "abs_pair_max_rel_err"):
            assert report[key] < 0.05, (t_end, key)


def test_cli_long_window_exits_0_with_csv(tmp_path):
    text = (GOOD_CONFIG.replace("g_k = 0.08\ng_q = 0.08", "g_k = 0.01\ng_q = 0.01")
            .replace("t_end = 1.0\ngrid_points = 120", "t_end = 20.0\ngrid_points = 2000"))
    config_path = tmp_path / "long.cfg"
    config_path.write_text(text)
    out_dir = tmp_path / "long_out"
    assert main(["run", str(config_path), "--out", str(out_dir)]) == 0
    rows = [l for l in (out_dir / "demo.csv").read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 2002 and float(rows[-1].split(",")[0]) == 20.0


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
    lines = (out_dir / "demo_verify.csv").read_text().splitlines()
    assert next(l for l in lines if not l.startswith("#")).split(",") == [
        "t", "n_k_pipeline", "n_k_oracle", "n_q_pipeline", "n_q_oracle",
        "abs_pair_pipeline", "abs_pair_oracle"]
    # the header keys the benchmark's verify gate reads
    for key in ("n_k_max_rel_err", "n_q_max_rel_err", "abs_pair_max_rel_err"):
        assert sum(l.startswith(f"# verify.{key} = ") for l in lines) == 1
    manifest = json.loads((out_dir / "demo_verify.manifest.json").read_text())
    report = manifest["verification"]
    for key in ("n_k_max_rel_err", "n_q_max_rel_err", "abs_pair_max_rel_err"):
        assert float(report[key]) < 0.05


def test_cli_verify_reports_uncompared_channels(tmp_path, capsys):
    """With the control off there are no anti-Stokes photons to compare: say so, not 0.0."""
    config_path = tmp_path / "verify.cfg"
    config_path.write_text(GOOD_CONFIG.replace("omega_peak = 10\ncenter = 0.5\nwidth = 0.0667\n\n[run]",
                                               "omega_peak = 0\ncenter = 0.5\nwidth = 0.0667\n\n[run]")
                           + "\n[verify]\ncutoff_k = 2\ncutoff_q = 2\n")
    out_dir = tmp_path / "verify_out"
    assert main(["verify", str(config_path), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "  n_q_max_rel_err = n/a (0 points compared)" in out
    assert "  abs_pair_max_rel_err = n/a (0 points compared)" in out
    counted = re.search(r"  n_k_max_rel_err = \d\.\d{3}e[-+]\d+ \((\d+) points compared\)", out)
    assert counted and int(counted.group(1)) > 0
    # the CSV header keeps its numbers
    assert "# verify.n_q_max_rel_err = 0.0" in (out_dir / "demo_verify.csv").read_text()


@pytest.mark.parametrize("with_verify", [False, True], ids=["plain", "verify"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_ini_round_trips_every_preset(name, with_verify, monkeypatch):
    """The INI that the benchmark writes from `describe` loads back to the same config."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import config_ini

    chosen = preset(name)
    for cfg in [chosen.scan] if chosen.kind == "scan" else chosen.scenarios:
        if with_verify:
            cfg = replace(cfg, verify=OracleConfig())
        assert config_hash(parse_config(config_ini(cfg))) == config_hash(cfg)

        info = describe(cfg)
        expected = {f"atom.{f.name}" for f in fields(AtomConfig) if f.name != "rho0"}
        expected |= {f"{p}.{f.name}" for p in ("pump", "control") for f in fields(PulseSpec)}
        expected |= {f.name for f in fields(ScenarioConfig)} - {"atom", "pump", "control",
                                                              "scan", "verify"}
        for prefix, part in (("scan", cfg.scan), ("verify", cfg.verify)):
            if part is not None:
                expected |= {f"{prefix}.{f.name}" for f in fields(type(part))}
        rho_keys = {key for key in info if key.startswith("atom.rho_")}
        assert set(info) - rho_keys == expected
        assert len(rho_keys) == 4 + np.count_nonzero(cfg.atom.rho0 - np.diag(np.diag(cfg.atom.rho0)))
        assert {f"atom.rho_{x}{x}" for x in "abcd"} <= rho_keys
