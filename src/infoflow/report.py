"""JSON run/check reports and the CSV tables of a run.

Everything in a report but ``wall_clock_s`` and each check's ``runtime_s`` is
a pure function of (config, seed), so reruns give byte-identical reports once
those are stripped.  CSV numbers carry 17 significant digits, enough to read
every float64 back exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    return obj


def csv_text(names, columns) -> str:
    """Header ``names`` plus one row per entry of the equal-length ``columns``."""
    rows = (",".join(f"{v:.17g}" for v in row) for row in zip(*columns))
    return "\n".join([",".join(names), *rows]) + "\n"


def write_csv(path, names, columns) -> None:
    Path(path).write_text(csv_text(names, columns), encoding="ascii", newline="\n")


def render_report(payload: dict) -> str:
    return json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n"


def write_run_report(path, version: str, scenario_name: str, config_echo: str,
                     ledger, wall_clock_s: float) -> dict:
    payload = {
        "kind": "run",
        "version": version,
        "scenario": scenario_name,
        "invariants": ledger.invariant_report(),
        "ledger_metadata": ledger.metadata,
        "config_echo": config_echo,
        "wall_clock_s": round(wall_clock_s, 3),
    }
    Path(path).write_text(render_report(payload), encoding="utf-8")
    return payload


def write_check_report(path, version: str, suite: str, seed: int, scale: str,
                       results, wall_clock_s: float) -> dict:
    payload = {
        "kind": "check",
        "version": version,
        "suite": suite,
        "seed": seed,
        "scale": scale,
        "all_pass": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail,
             "runtime_s": round(r.runtime_s, 3), "conditions": [
                 dict(c._asdict(), holds=c.holds()) for c in r.conditions]}
            for r in results
        ],
        "wall_clock_s": round(wall_clock_s, 3),
    }
    if path is not None:
        Path(path).write_text(render_report(payload), encoding="utf-8")
    return payload
