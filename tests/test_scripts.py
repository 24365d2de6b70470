import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_lqg_ledger(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_lqg_ledger.py"), *args],
        capture_output=True, text=True, env=env, timeout=300)


def test_lqg_ledger_script_runs():
    proc = run_lqg_ledger()
    assert proc.returncode == 0, proc.stderr
    assert "Kalman-Bucy identity" in proc.stdout


@pytest.mark.parametrize("args, code", [
    (("--a", "nan"), 2), (("--c", "0"), 2),
    (("--v0", "0"), 2), (("--sigma-sq", "-1"), 2), (("--a", "1"), 3),
    (("--horizon", "1e-4"), 2)])
def test_lqg_ledger_script_reports_an_error_in_one_line(args, code):
    # as `infoflow run`: exit 2 or 3 and one line on stderr, no traceback
    proc = run_lqg_ledger(*args)
    assert proc.returncode == code
    prefix = "config error: " if code == 2 else "numerical failure: "
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1


def test_lqg_ledger_table_is_the_closed_form():
    # the default scalar model: a = -1, sigma = 2 (V_ss = 1), v0 = 0.25,
    # mu0 = 1; each printed number is the closed form to within half a unit
    # of its last digit
    a, sigma, v0, mu0 = -1.0, 2.0, 0.25, 1.0
    v_ss = -sigma / (2.0 * a)
    lines = run_lqg_ledger().stdout.splitlines()
    rows = [[float(x) for x in line.split()] for line in lines[2:13]]
    assert lines[0] == "V_ss = 1.000000" and len(rows) == 11
    for i, (t, h, e, f, df) in enumerate(rows):
        v = v_ss + (v0 - v_ss) * math.exp(2.0 * a * t)
        mu = mu0 * math.exp(a * t)
        closed_h = 0.5 * math.log(2.0 * math.pi * math.e * v)
        closed_f = 0.5 * (v / v_ss - 1.0 - math.log(v / v_ss) + mu * mu / v_ss)
        closed_df = (-0.5 * sigma * v * (1.0 / v_ss - 1.0 / v) ** 2
                     - 0.5 * sigma * mu * mu / v_ss ** 2)
        for printed, closed, digits in ((t, 0.5 * i, 2), (h, closed_h, 5),
                                        (e, closed_h + closed_f, 5),
                                        (f, closed_f, 6), (df, closed_df, 6)):
            assert abs(printed - closed) <= 0.5 * 10.0 ** -digits + 1e-12
