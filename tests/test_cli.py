import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from infoflow import checks, cli
from infoflow.config import build_model, load_scenario
from infoflow.control import run_controlled_experiment
from infoflow.errors import ConfigError
from infoflow.grid import face_fields
from infoflow.metrics import LEDGER_COLUMNS, InfoLedger
from infoflow.models import PRESETS

OU_CONFIG = """
[scenario]
name = ou_smoke

[model]
preset = ou
rate = 1.0
sigma_sq = 2.0
obs_gain = 1.0

[grid]
x_min = -6.0
x_max = 6.0
n_cells = 64

[time]
dt = 1e-3
horizon = 0.2
sample_stride = 40

[ensemble]
n_trajectories = 25
seed = 99
x0_mean = 0.0
x0_var = 0.5

[output]
directory = {outdir}
density_snapshots = true
"""


OU_MODEL = "preset = ou\nrate = 1.0\nsigma_sq = 2.0\nobs_gain = 1.0"


def write_config(tmp_path, text, name="scenario.ini", outdir=None):
    outdir = outdir or (tmp_path / "out")
    cfg = tmp_path / name
    cfg.write_text(text.format(outdir=outdir))
    return cfg, outdir


def test_run_produces_ledger_and_report(tmp_path, capsys):
    cfg, outdir = write_config(tmp_path, OU_CONFIG)
    assert cli.main(["run", str(cfg)]) == 0
    lines = (outdir / "ledger.csv").read_text().splitlines()
    assert lines[0] == ",".join(LEDGER_COLUMNS)
    assert len(lines) == 1 + 6  # t = 0.0 .. 0.2 in steps of 0.04
    report = json.loads((outdir / "report.json").read_text())
    assert report["scenario"] == "ou_smoke"
    assert report["invariants"]["all_pass"]
    snap = (outdir / "snapshots.csv").read_text().splitlines()
    assert snap[0] == "t,x,rho,rho_hat_mean"
    assert len(snap) == 1 + 6 * 64


def test_violated_invariant_exits_1_after_writing(tmp_path, capsys, monkeypatch):
    report = InfoLedger.invariant_report

    def violated(ledger):
        return dict(report(ledger), D_forms_agree=False, all_pass=False)

    monkeypatch.setattr(InfoLedger, "invariant_report", violated)
    cfg, outdir = write_config(tmp_path, OU_CONFIG)
    assert cli.main(["run", str(cfg)]) == 1
    assert "all_pass: VIOLATED" in capsys.readouterr().out
    assert (outdir / "ledger.csv").read_text().startswith(",".join(LEDGER_COLUMNS))
    invariants = json.loads((outdir / "report.json").read_text())["invariants"]
    assert not invariants["D_forms_agree"] and not invariants["all_pass"]


def test_snapshots_match_the_row_loop(tmp_path, monkeypatch):
    # snapshots.csv, byte for byte as one formatted row per (t, cell)
    runs = []

    def keep_run(*args, **kwargs):
        out = run_controlled_experiment(*args, **kwargs)
        runs.append(out[1])
        return out

    monkeypatch.setattr(cli, "run_controlled_experiment", keep_run)
    cfg, outdir = write_config(tmp_path, OU_CONFIG)
    assert cli.main(["run", str(cfg)]) == 0
    run, = runs
    xc = run.grid.centers
    text = "t,x,rho,rho_hat_mean\n"
    for s in range(run.n_samples):
        t = run.times[s]
        for i in range(xc.size):
            text += (f"{t:.17g},{xc[i]:.17g},{run.prior_fp[s, i]:.17g},"
                     f"{run.posterior_mean[s, i]:.17g}\n")
    assert (outdir / "snapshots.csv").read_bytes() == text.encode("ascii")


def test_rerun_is_byte_identical(tmp_path):
    cfg1, out1 = write_config(tmp_path, OU_CONFIG, "a.ini", tmp_path / "o1")
    cfg2, out2 = write_config(tmp_path, OU_CONFIG, "b.ini", tmp_path / "o2")
    assert cli.main(["run", str(cfg1)]) == 0
    assert cli.main(["run", str(cfg2)]) == 0
    assert (out1 / "ledger.csv").read_bytes() == (out2 / "ledger.csv").read_bytes()
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    r1.pop("wall_clock_s"), r2.pop("wall_clock_s")
    r1.pop("config_echo"), r2.pop("config_echo")  # echoes differ in outdir
    assert r1 == r2


FEEDBACK_CONFIG = """
[scenario]
name = dw_feedback_small

[model]
preset = double_well

[grid]
x_min = -2.5
x_max = 2.5
n_cells = 128

[time]
dt = 1e-3
horizon = 0.1
sample_stride = 20

[ensemble]
n_trajectories = 200
seed = 5
x0_mean = 0.0
x0_var = 0.25

[policy]
name = linear_gain
gain = 0.5
bound = 5.0

[output]
directory = {outdir}
"""


def test_ledger_independent_of_blas_threads(tmp_path):
    # the per-trajectory reductions of the (M, N) filter bank must not
    # depend on how many threads the BLAS library uses
    root = Path(__file__).resolve().parents[1]
    ledgers = []
    for threads in ("1", "2"):
        cfg, outdir = write_config(tmp_path, FEEDBACK_CONFIG, f"t{threads}.ini",
                                   tmp_path / f"out{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "infoflow.cli", "run",
                               str(cfg)], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        ledgers.append((outdir / "ledger.csv").read_bytes())
    assert ledgers[0] == ledgers[1]


def test_bad_dt_exits_2_without_output(tmp_path):
    text = OU_CONFIG.replace("dt = 1e-3", "dt = -1e-3")
    cfg, outdir = write_config(tmp_path, text)
    assert cli.main(["run", str(cfg)]) == 2
    assert not outdir.exists()


@pytest.mark.parametrize("line", ["sample_stride = 40", "x0_mean = 0.0",
                                  "x0_var = 0.5"])
def test_non_numeric_value_exits_2(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    cfg, outdir = write_config(tmp_path, OU_CONFIG.replace(line, f"{key} = ten"))
    assert cli.main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("line, bad", [
    ("horizon = 0.2", "horizon = inf"),
    ("sigma_sq = 2.0", "sigma_sq = -0.5"),
    ("seed = 99", "seed = -1"),
    ("x0_mean = 0.0", "x0_mean = nan"),
    ("x0_var = 0.5", "x0_var = nan"),
    ("x_max = 6.0", "x_max = inf"),
    ("[output]", "[policy]\nname = linear_gain\ngain = 0.5\nbound = -5\n[output]"),
    ("[output]", "[policy]\nname = linear_gain\ngain = 0.5\nbound = nan\n[output]"),
    # a non-finite preset or policy parameter
    (OU_MODEL, "preset = lqg\na = nan"),
    (OU_MODEL, "preset = lqg\nc = nan"),
    (OU_MODEL, "preset = lqg\nc = inf"),
    (OU_MODEL, "preset = double_well\nscale = nan\nsigma_sq = 0.5"),
    ("obs_gain = 1.0", "obs_gain = nan"),
    ("[output]", "[policy]\nname = linear_gain\ngain = nan\nbound = 5\n[output]"),
    ("[output]", "[policy]\nname = bang_bang\nthreshold = nan\nlevel = 1\n[output]"),
    ("[output]", "[policy]\nname = bang_bang\nthreshold = 0.5\nlevel = nan\n[output]"),
    # N(40, 0.5) underflows in every cell of [-6, 6]: no mass to filter
    ("x0_mean = 0.0", "x0_mean = 40.0")])
def test_bad_value_exits_2(tmp_path, capsys, line, bad):
    # one validation contract: the library types refuse what the INI refuses
    cfg, outdir = write_config(tmp_path, OU_CONFIG.replace(line, bad))
    assert cli.main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not outdir.exists()


def test_mesh_peclet_above_2_exits_2_without_output(tmp_path, capsys):
    # the double well on 64 cells: refused before the run writes anything
    text = OU_CONFIG.replace("preset = ou", "preset = double_well") \
                    .replace("rate = 1.0\n", "") \
                    .replace("sigma_sq = 2.0", "sigma_sq = 0.5") \
                    .replace("x_min = -6.0", "x_min = -2.5") \
                    .replace("x_max = 6.0", "x_max = 2.5")
    cfg, outdir = write_config(tmp_path, text)
    assert cli.main(["run", str(cfg)]) == 2
    assert "Peclet" in capsys.readouterr().err
    assert not outdir.exists()


def test_shipped_scenarios_and_default_grids_pass_the_peclet_check(tmp_path):
    # every config under configs/, and every preset's default box at the
    # 512 cells an INI file without [grid] gets
    root = Path(__file__).resolve().parents[1]
    scenarios = [load_scenario(path) for path in sorted(root.glob("configs/*.ini"))]
    assert len(scenarios) == 4
    for name in PRESETS:
        text = (f"[scenario]\nname = {name}\n[model]\npreset = {name}\n"
                f"[time]\ndt = 1e-3\nhorizon = 0.1\n"
                f"[ensemble]\nn_trajectories = 1\nseed = 0\n"
                f"[output]\ndirectory = {tmp_path / 'out'}\n")
        scenario = load_scenario(write_config(tmp_path, text)[0])
        assert scenario.grid.n_cells == 512
        scenarios.append(scenario)
    for scenario in scenarios:
        face_fields(scenario.model, scenario.grid).check_peclet()


@pytest.mark.parametrize("section, key", [
    ("scenario", "d_form"), ("grid", "n_cell"), ("time", "sample_strid"),
    ("ensemble", "n_trajectorys"), ("output", "density_snapshot")])
def test_unknown_key_exits_2(tmp_path, capsys, section, key):
    # a misspelled key was once read as absent, and the run took the default
    text = OU_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
    cfg, outdir = write_config(tmp_path, text)
    assert cli.main(["run", str(cfg)]) == 2
    assert f"unknown key {key!r} in [{section}]" in capsys.readouterr().err
    assert not outdir.exists()


def test_unknown_section_exits_2(tmp_path, capsys):
    # a misspelled [policy] would otherwise run uncontrolled
    text = OU_CONFIG + "\n[polcy]\nname = linear_gain\ngain = 0.5\nbound = 5.0\n"
    cfg, outdir = write_config(tmp_path, text)
    assert cli.main(["run", str(cfg)]) == 2
    assert "unknown section [polcy]" in capsys.readouterr().err
    assert not outdir.exists()


def test_check_negative_seed_exits_2(tmp_path, capsys):
    report = tmp_path / "check.json"
    assert cli.main(["check", "grid", "--seed", "-1",
                     "--report", str(report)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not report.exists()


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on ``src/``."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_imports_only_the_csr_kernels_of_scipy():
    # numpy does all dense work; scipy supplies the compiled CSR kernels,
    # loaded without the scipy.sparse package, whose array-API shim would
    # import numpy.f2py and numpy.testing
    loaded = _fresh_python(
        "import sys, infoflow.cli; print(' '.join(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m in ('numpy.f2py', 'numpy.testing'))))")
    assert loaded.split() == ["scipy.sparse._sparsetools"]


@pytest.mark.parametrize("first", ["scipy.sparse", "infoflow.grid"])
def test_grid_calls_the_kernel_module_of_scipy_sparse(first):
    # one module object, whichever of scipy.sparse and infoflow was
    # imported first, and scipy.sparse's own products still run on it
    out = _fresh_python(
        f"import importlib, sys; importlib.import_module({first!r}); "
        "import numpy as np, scipy.sparse as sp, infoflow.grid; "
        "from scipy.sparse import _sparsetools; "
        "a = sp.csr_array(np.array([[1.0, 2.0], [0.0, 3.0]])); "
        "print(infoflow.grid._sparsetools is _sparsetools "
        "is sys.modules['scipy.sparse._sparsetools'], (a @ a).toarray().tolist())")
    assert out.split(" ", 1) == ["True", "[[1.0, 8.0], [0.0, 9.0]]\n"]


def test_non_numeric_lqg_coefficient_is_config_error():
    with pytest.raises(ConfigError, match="non-numeric"):
        build_model({"preset": "lqg", "a": "ten"})


def test_missing_seed_exits_2(tmp_path):
    text = OU_CONFIG.replace("seed = 99\n", "")
    cfg, outdir = write_config(tmp_path, text)
    assert cli.main(["run", str(cfg)]) == 2


def test_short_horizon_exits_2(tmp_path, capsys):
    # the one time-grid rule: a whole number of dt steps, at least one
    for horizon, reason in (("5e-4", "horizon >= dt"),
                            ("0.0104", "integer multiple of dt")):
        text = OU_CONFIG.replace("horizon = 0.2", f"horizon = {horizon}") \
                        .replace("sample_stride = 40\n", "")
        cfg, outdir = write_config(tmp_path, text)
        assert cli.main(["run", str(cfg)]) == 2
        assert reason in capsys.readouterr().err
        assert not outdir.exists()


def test_five_step_horizon_runs(tmp_path):
    text = OU_CONFIG.replace("horizon = 0.2", "horizon = 5e-3") \
                    .replace("sample_stride = 40\n", "")
    cfg, outdir = write_config(tmp_path, text)
    assert cli.main(["run", str(cfg)]) == 0
    assert len((outdir / "ledger.csv").read_text().splitlines()) == 1 + 6


def test_brownian_run_refused(tmp_path):
    text = OU_CONFIG.replace("preset = ou", "preset = brownian") \
                    .replace("rate = 1.0\n", "") \
                    .replace("sigma_sq = 2.0", "sigma_sq = 1.0")
    cfg, _ = write_config(tmp_path, text)
    assert cli.main(["run", str(cfg)]) == 2


def test_missing_config_file(tmp_path):
    assert cli.main(["run", str(tmp_path / "none.ini")]) == 2


def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["check", "bogus"])
    assert err.value.code == 2


def test_check_gaussian_suite(tmp_path, capsys):
    report_path = tmp_path / "check.json"
    code = cli.main(["check", "gaussian", "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 2
    payload = json.loads(report_path.read_text())
    assert payload["all_pass"] is True
    assert len(payload["checks"]) == 2
    # each check's JSON conditions are the ones its printed line shows
    labels = [["max rel err", "max dF/dt", "F(10)"],
              ["max rel err", "stationary |S-D-target|"]]
    for chk, want in zip(payload["checks"], labels):
        assert [c["label"] for c in chk["conditions"]] == want
        for c in chk["conditions"]:
            assert set(c) == {"label", "value", "op", "bound", "holds"}
            cond = checks.Condition(c["label"], c["value"], c["op"], c["bound"])
            assert c["holds"] is cond.holds() is True
            assert str(cond) in out
        assert chk["passed"] is True and "measured" not in chk


def test_check_determinism(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli.main(["check", "gaussian", "--report", str(p1)])
    cli.main(["check", "gaussian", "--report", str(p2)])
    r1 = json.loads(p1.read_text())
    r2 = json.loads(p2.read_text())
    for rep in (r1, r2):
        rep.pop("wall_clock_s")
        for chk in rep["checks"]:
            chk.pop("runtime_s")
    assert r1 == r2


def test_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("brownian", "ou", "lqg", "double_well",
                 "zero", "linear_gain", "bang_bang"):
        assert name in out


@pytest.mark.filterwarnings("ignore:mean-drift estimation")
def test_policy_section_parsed(tmp_path):
    text = OU_CONFIG + "\n[policy]\nname = linear_gain\ngain = 0.5\nbound = 5.0\n"
    cfg, outdir = write_config(tmp_path, text)
    assert cli.main(["run", str(cfg)]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["ledger_metadata"]["policy"] == "linear_gain"
