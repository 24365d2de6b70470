"""Command line entry point.

    infoflow run <config.ini>          # scenario -> ledger.csv + report.json
    infoflow check <suite> [--seed S] [--scale small|full] [--report PATH]
    infoflow list-scenarios

Exit codes: 0 success, 2 configuration error, 3 numerical failure; ``check``
exits 1 when a criterion fails.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checks import DEFAULT_SEED, run_suite
from .config import load_scenario, model_has_steady_state, scenario_template
from .control import POLICIES, run_controlled_experiment
from .errors import ConfigError, NumericalError
from .grid import steady_state_grid
from .models import PRESETS, preset_signature
from .report import write_check_report, write_csv, write_run_report

SUITES = ("gaussian", "grid", "infoflow", "feedback", "all")


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.config)
        if not model_has_steady_state(scenario.model):
            raise ConfigError(
                f"preset {scenario.model.name!r} has no steady state; the "
                f"ledger needs one (use it in 'check' suites instead)")
        start = time.perf_counter()
        rho_ss = steady_state_grid(scenario.model, scenario.grid)
        controlled, run = run_controlled_experiment(
            scenario.model, scenario.grid, scenario.ens, scenario.policy,
            rho_ss=rho_ss, prior=scenario.prior_mode, d_form=scenario.d_form)
        ledger = controlled.ledger
        if not ledger.all_finite():
            print("numerical failure: non-finite ledger value", file=sys.stderr)
            return 3
        outdir = Path(scenario.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        ledger.to_csv(outdir / "ledger.csv")
        if scenario.density_snapshots:
            write_csv(outdir / "snapshots.csv", ("t", "x", "rho", "rho_hat_mean"),
                      (np.repeat(run.times, run.grid.n_cells),
                       np.tile(run.grid.centers, run.n_samples),
                       run.prior_fp.ravel(), run.posterior_mean.ravel()))
        payload = write_run_report(outdir / "report.json", __version__,
                                   scenario.name, scenario.raw_text, ledger,
                                   time.perf_counter() - start)
        inv = payload["invariants"]
        for name, value in sorted(inv.items()):
            print(f"  {name}: {'ok' if value else 'VIOLATED'}")
        print(f"wrote {outdir / 'ledger.csv'}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _cmd_check(args) -> int:
    try:
        start = time.perf_counter()
        results = run_suite(args.suite, seed=args.seed, scale=args.scale)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for res in results:
        print(res.line())
    payload = write_check_report(args.report, __version__, args.suite,
                                 args.seed, args.scale, results,
                                 time.perf_counter() - start)
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} checks passed "
          f"(suite={args.suite}, seed={args.seed}, scale={args.scale})")
    return 0 if payload["all_pass"] else 1


def _cmd_list(args) -> int:
    print("model presets:")
    for name in sorted(PRESETS):
        note = "  (check suites only: no steady state)" if name == "brownian" else ""
        print(f"  {preset_signature(name)}{note}")
    print("control policies:")
    for name in sorted(POLICIES):
        print(f"  {name}")
    print("check suites:", ", ".join(SUITES))
    print("\nscenario config template:")
    print(scenario_template())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoflow",
        description="entropy production and information flow for filtered "
                    "diffusions")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="path to an INI scenario file")
    p_run.set_defaults(fn=_cmd_run)
    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("suite", choices=SUITES)
    p_check.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_check.add_argument("--scale", choices=("small", "full"), default="full")
    p_check.add_argument("--report", default=None,
                         help="optional path for a JSON check report")
    p_check.set_defaults(fn=_cmd_check)
    p_list = sub.add_parser("list-scenarios",
                            help="list presets, policies and a config template")
    p_list.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
