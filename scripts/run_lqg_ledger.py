#!/usr/bin/env python3
"""Exact linear-Gaussian ledgers.

Prints the relaxation ledger (entropy, cross-entropy, relative entropy and
their rates) for a scalar model, then the Kalman-Bucy information-rate
identity scan.

    python3 scripts/run_lqg_ledger.py --v0 0.25 --mu0 1.0

Exits 2 on a configuration error and 3 on a numerical failure, with one
line on stderr, as ``infoflow run`` does.
"""

import argparse
import sys

import numpy as np

from infoflow.errors import ConfigError, NumericalError
from infoflow.gaussian import (GaussianBelief, gaussian_relax_series,
                               kb_identity_scan, lyapunov_steady,
                               propagate_gaussian, surprise_ledger)


def print_ledgers(args):
    a_mat = [[args.a]]
    sig = [[args.sigma_sq]]
    vss = lyapunov_steady(a_mat, sig)
    print(f"V_ss = {vss[0, 0]:.6f}")
    print(" t        H          E          F        dF/dt")
    for t in np.linspace(0.0, args.horizon, 11):
        belief = propagate_gaussian(a_mat, sig,
                                    GaussianBelief([args.mu0], [[args.v0]]),
                                    t, dt=1e-3)
        pt = surprise_ledger(belief, vss, a_mat, sig, t=t)
        print(f"{t:5.2f}  {pt.H:9.5f}  {pt.E:9.5f}  {pt.F:9.6f}  {pt.dF_dt:+9.6f}")

    series = gaussian_relax_series(args.a, args.sigma_sq, args.v0, args.mu0,
                                   args.horizon, 1e-4)
    fd = (series["F"][2:] - series["F"][:-2]) / (2e-4)
    rel = np.abs(fd - series["dF_dt"][1:-1]) / np.abs(series["dF_dt"][1:-1])
    print(f"max |FD(F) - dF/dt| relative error: {rel.max():.3e}")

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
