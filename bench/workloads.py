"""The benchmark's workloads: the scenario each one gives the program, and
the exact amount of work it must do.

The model, grid, trajectory count, time step and sample stride of each
ensemble workload are fixed because they set the working set; only the run
length (the horizon) was chosen to fit several operations into one timed
run.  The benchmark seed selects the program's master seed, so the same
seed always gives the same scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

DEFAULT_SEED = 0                  # benchmark seed of the recorded reference ledgers
PROGRAM_SEED_BASE = 20260809      # program master seed = base + benchmark seed

DOUBLE_WELL = ("preset = double_well\nscale = 1.0\nsigma_sq = 0.5\n"
               "obs_gain = 1.0\n")
LINEAR_GAIN = "name = linear_gain\ngain = 0.5\nbound = 5.0\n"


@dataclass(frozen=True)
class EnsembleWorkload:
    """One `infoflow run` scenario: N filters on an M-cell grid for K steps."""

    name: str
    why: str
    model: str                     # body of the [model] section
    box: tuple                     # (x_min, x_max)
    n_cells: int
    n_trajectories: int
    dt: float
    n_steps: int
    stride: int
    x0_var: float
    policy: Optional[str] = None   # body of the [policy] section

    @property
    def n_samples(self) -> int:
        return self.n_steps // self.stride + 1

    def scenario_text(self, seed: int, outdir: str) -> str:
        """INI scenario for benchmark seed ``seed``, writing into ``outdir``."""
        text = (
            f"[scenario]\nname = {self.name}\n\n"
            f"[model]\n{self.model}\n"
            f"[grid]\nx_min = {self.box[0]!r}\nx_max = {self.box[1]!r}\n"
            f"n_cells = {self.n_cells}\n\n"
            f"[time]\ndt = {self.dt!r}\nhorizon = {self.n_steps * self.dt:.12g}\n"
            f"sample_stride = {self.stride}\n\n"
            f"[ensemble]\nn_trajectories = {self.n_trajectories}\n"
            f"seed = {PROGRAM_SEED_BASE + seed}\nx0_mean = 0.0\n"
            f"x0_var = {self.x0_var!r}\n\n")
        if self.policy is not None:
            text += f"[policy]\n{self.policy}\n"
        return text + f"[output]\ndirectory = {outdir}\n"

    def write_scenario(self, root: Path, out: Path, seed: int) -> Path:
        """Write the seed's scenario under ``out``; its outputs go beside it."""
        path = scenario_file(out, seed)
        outdir = (out / f"seed{seed}").relative_to(root).as_posix()
        path.write_text(self.scenario_text(seed, outdir))
        return path


def scenario_file(out: Path, seed: int) -> Path:
    return out / f"seed{seed}.ini"


@dataclass(frozen=True)
class ChecksWorkload:
    """`infoflow check gaussian` followed by `infoflow check grid`.

    The suites run at the program's default seed, where the acceptance tests
    hold them: criterion 9d (a pathwise convergence ratio from one simulated
    path) falls outside its band at most other seeds.
    """

    name: str
    why: str
    suites: tuple
    checks: tuple                  # (checks-module function, criterion id)


WORKLOADS = {w.name: w for w in (
    EnsembleWorkload(
        name="dw_filter",
        why="double-well filter, N=2000 x 256 cells: the 4 MB density array "
            "overflows L2 but fits L3, and transport dominates the run",
        model=DOUBLE_WELL, box=(-2.5, 2.5), n_cells=256, n_trajectories=2000,
        dt=1e-3, n_steps=50, stride=50, x0_var=0.25),
    EnsembleWorkload(
        name="dw_feedback",
        why="dw_filter plus linear_gain feedback: per-row face drifts, an N x M "
            "mean drift per step, and the policy and its clamp",
        model=DOUBLE_WELL, box=(-2.5, 2.5), n_cells=256, n_trajectories=2000,
        dt=1e-3, n_steps=50, stride=50, x0_var=0.25, policy=LINEAR_GAIN),
    ChecksWorkload(
        name="checks_exact_grid",
        why="gaussian and grid check suites: single-density grid solvers, "
            "steady state, de Bruijn and the RK4 lane, never the ensemble",
        suites=("gaussian", "grid"),
        checks=(("check_lqg_free_surprise", "1_lqg_free_surprise"),
                ("check_kb_identity", "2_kalman_bucy_identity"),
                ("check_entropy_production_grid", "3_entropy_production_grid"),
                ("check_de_bruijn", "4_de_bruijn"),
                ("check_gamma_properties", "9a_gamma_properties"),
                ("check_mass_conservation", "9b_fp_mass_conservation"),
                ("check_zakai_linearity", "9c_zakai_linearity"),
                ("check_ks_zakai_agreement", "9d_ks_zakai_agreement"),
                ("check_cramer_rao", "9e_cramer_rao"))),
)}

CHECK_IDS = tuple(cid for _, cid in WORKLOADS["checks_exact_grid"].checks)
