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
    (("--v0", "0"), 3), (("--sigma-sq", "-1"), 2)])
def test_lqg_ledger_script_reports_an_error_in_one_line(args, code):
    # as `infoflow run`: exit 2 or 3 and one line on stderr, no traceback
    proc = run_lqg_ledger(*args)
    assert proc.returncode == code
    prefix = "config error: " if code == 2 else "numerical failure: "
    assert proc.stderr.startswith(prefix) and proc.stderr.count("\n") == 1
