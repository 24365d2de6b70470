#!/usr/bin/env python3
"""Exact linear-Gaussian ledgers.

Prints the relaxation ledger of a scalar model (entropy H, cross-entropy
E = H + F against the steady state, relative entropy F and its rate) at
eleven times and the error of its centered difference, from one chunked
pass over an RK4 series, then the Kalman-Bucy information-rate identity
scan.

    python3 scripts/run_lqg_ledger.py --v0 0.25 --mu0 1.0

Exits 2 on a configuration error and 3 on a numerical failure, with one
line on stderr, as ``infoflow run`` does.
"""

import argparse
import sys

import numpy as np

from infoflow.errors import ConfigError, NumericalError
from infoflow.gaussian import (gaussian_relax_series, kb_identity_scan,
                               lyapunov_steady)


def print_ledgers(args):
    vss = lyapunov_steady([[args.a]], [[args.sigma_sq]])
    print(f"V_ss = {vss[0, 0]:.6f}")
    series = gaussian_relax_series(args.a, args.sigma_sq, args.v0, args.mu0,
                                   args.horizon, 1e-4,
                                   np.linspace(0.0, args.horizon, 11))
    print(" t        H          E          F        dF/dt")
    for t, h, f, df in zip(series["times"], series["H"], series["F"],
                           series["dF_dt"]):
        print(f"{t:5.2f}  {h:9.5f}  {h + f:9.5f}  {f:9.6f}  {df:+9.6f}")
    print(f"max |FD(F) - dF/dt| relative error: {series['max_rel_err']:.3e}")

    scan = kb_identity_scan(args.a, args.sigma_sq, args.c, args.v0, args.v0,
                            args.horizon, 1e-4)
    print(f"Kalman-Bucy identity: max rel err {scan['max_rel_err']:.3e}; "
          f"V_ss = {scan['v_ss']:.6f}, Vhat_ss = {scan['vhat_ss']:.6f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--a", type=float, default=-1.0)
    ap.add_argument("--sigma-sq", type=float, default=2.0)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--v0", type=float, default=0.25)
    ap.add_argument("--mu0", type=float, default=1.0)
    ap.add_argument("--horizon", type=float, default=5.0)
    try:
        print_ledgers(ap.parse_args(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
