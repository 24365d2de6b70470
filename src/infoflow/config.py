"""Declarative scenario configuration: flat INI files, one section per
concern, no nested expressions.

Example::

    [scenario]
    name = double_well_mwz

    [model]
    preset = double_well
    scale = 1.0
    sigma_sq = 0.5
    obs_gain = 1.0

    [grid]
    x_min = -3.0
    x_max = 3.0
    n_cells = 256

    [time]
    dt = 1e-3
    horizon = 2.0
    sample_stride = 50

    [ensemble]
    n_trajectories = 2000
    seed = 20260809
    x0_mean = 0.0
    x0_var = 0.25

    [policy]
    name = linear_gain
    gain = 0.5
    bound = 5.0

    [output]
    directory = out/double_well_mwz
    density_snapshots = false

The master seed is mandatory: omitting it is an error, never a clock
default.  The [grid] and [policy] sections are optional; a missing grid
derives its box from the model preset with 512 cells.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .control import ControlPolicy, make_policy
from .ensemble import EnsembleConfig
from .errors import ConfigError
from .grid import Grid1D
from .models import DiffusionModel, preset, step_count


@dataclass
class ScenarioConfig:
    name: str
    model: DiffusionModel
    grid: Grid1D
    ens: EnsembleConfig
    policy: Optional[ControlPolicy]
    outdir: Path
    density_snapshots: bool = False
    prior_mode: str = "fp"
    d_form: str = "gamma"
    raw_text: str = ""


def _require(parser, section: str, key: str) -> str:
    if not parser.has_section(section):
        raise ConfigError(f"missing [{section}] section")
    if key not in parser[section]:
        raise ConfigError(f"missing {key!r} in [{section}]")
    return parser[section][key]


def build_model(options: dict) -> DiffusionModel:
    options = dict(options)
    name = options.pop("preset", None)
    if name is None:
        raise ConfigError("missing 'preset' in [model]")
    try:
        params = {key: float(value) for key, value in options.items()}
    except ValueError as exc:
        raise ConfigError(f"non-numeric model parameter: {exc}") from exc
    if name == "lqg":
        # flat scalar spelling: a, b, c
        if not set(params) <= {"a", "b", "c"}:
            raise ConfigError(f"lqg accepts keys a, b, c; got {sorted(params)}")
        return preset("lqg", A=[[params.get("a", -1.0)]],
                      B=[[params.get("b", math.sqrt(2.0))]],
                      C=[[params.get("c", 1.0)]])
    return preset(name, **params)


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    name = _require(parser, "scenario", "name")
    if not parser.has_section("model"):
        raise ConfigError("missing [model] section")
    model = build_model(dict(parser["model"]))

    try:
        dt = float(_require(parser, "time", "dt"))
        horizon = float(_require(parser, "time", "horizon"))
        n_traj = int(_require(parser, "ensemble", "n_trajectories"))
        if "seed" not in parser["ensemble"]:
            raise ConfigError("missing 'seed' in [ensemble]; a master seed is "
                              "required (no clock defaults)")
        seed = int(parser["ensemble"]["seed"])
    except ValueError as exc:
        raise ConfigError(f"bad numeric value: {exc}") from exc

    n_steps = step_count(horizon, dt)
    stride_default = max(1, n_steps // 40)
    while n_steps % stride_default != 0:
        stride_default -= 1
    try:
        stride = int(parser["time"].get("sample_stride", str(stride_default)))
        x0_mean = float(parser["ensemble"].get("x0_mean", "0.0"))
        x0_var = float(parser["ensemble"].get("x0_var", "0.25"))
    except ValueError as exc:
        raise ConfigError(f"bad numeric value: {exc}") from exc

    if parser.has_section("grid"):
        try:
            grid = Grid1D(float(_require(parser, "grid", "x_min")),
                          float(_require(parser, "grid", "x_max")),
                          int(_require(parser, "grid", "n_cells")))
        except ValueError as exc:
            raise ConfigError(f"bad grid value: {exc}") from exc
    else:
        lo, hi = model.domain_box[0]
        grid = Grid1D(float(lo), float(hi), 512)

    policy = None
    if parser.has_section("policy"):
        popts = dict(parser["policy"])
        pname = popts.pop("name", None)
        if pname is None:
            raise ConfigError("missing 'name' in [policy]")
        try:
            pparams = {key: float(value) for key, value in popts.items()}
        except ValueError as exc:
            raise ConfigError(f"non-numeric policy parameter: {exc}") from exc
        policy = make_policy(pname, **pparams)

    outdir = Path(_require(parser, "output", "directory"))
    snaps = parser["output"].get("density_snapshots", "false").strip().lower()
    if snaps not in ("true", "false", "1", "0", "yes", "no"):
        raise ConfigError("density_snapshots must be a boolean")
    prior_mode = parser["output"].get("prior_mode", "fp").strip()
    if prior_mode not in ("fp", "mixture"):
        raise ConfigError("prior_mode must be 'fp' or 'mixture'")

    ens = EnsembleConfig(dt=dt, horizon=horizon, n_trajectories=n_traj,
                         seed=seed, sample_stride=stride, x0_mean=x0_mean,
                         x0_var=x0_var)
    return ScenarioConfig(name=name, model=model, grid=grid, ens=ens,
                          policy=policy, outdir=outdir,
                          density_snapshots=snaps in ("true", "1", "yes"),
                          prior_mode=prior_mode, raw_text=text)


def scenario_template() -> str:
    return __doc__.split("Example::", 1)[1].split("The master seed", 1)[0]


def model_has_steady_state(model: DiffusionModel) -> bool:
    """Ledger assembly needs a steady state; brownian has none."""
    if model.name == "brownian":
        return False
    if model.name == "lqg":
        A = model.params["A"]
        return bool(np.all(np.linalg.eigvals(A).real < 0))
    return True
