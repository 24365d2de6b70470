"""Numerical laboratory for entropy production and information flow in
filtered Markov diffusions: exact linear-Gaussian ledgers, 1-d grid
Fokker-Planck / Zakai / Kushner-Stratonovich solvers, Monte-Carlo
information estimators, and observation-adapted feedback."""

__version__ = "0.1.0"

from .errors import (CflError, ConfigError, CovarianceError,
                     FilterCollapseError, InfoflowError, NonHurwitzError,
                     NumericalError, SimulationBlowupError,
                     UnstableStepError)
from .models import (DiffusionModel, JointPath, SmoothField, gamma, preset,
                     sigma_at, simulate_joint, u_field)
from .gaussian import (GaussianBelief, KBRates, SurpriseLedgerPoint,
                       kalman_bucy_run, kb_info_rates, lyapunov_steady,
                       propagate_gaussian, surprise_ledger)
from .grid import (Grid1D, GridDensity, entropy, kl_divergence, normalize,
                   steady_state_grid, zakai_step)
from .ensemble import (EnsembleConfig, EnsembleRun, apply_policy, mean_drift,
                       run_filter_ensemble)
from .metrics import (InfoLedger, LEDGER_COLUMNS, assemble_info_ledger,
                      conditional_entropy_rate, cramer_rao_check,
                      de_bruijn_check, dissipated_rate,
                      entropy_production_rate, fisher_trace_conditional,
                      fisher_trace_unconditional, free_surprise_rate,
                      mutual_information, mwz_residual, supplied_rate)
from .control import (ControlPolicy, ControlledLedger, make_policy,
                      run_controlled_experiment)
