"""Exception hierarchy shared by all solvers and the CLI.

Configuration problems map to CLI exit code 2, numerical failures to
exit code 3.
"""


class InfoflowError(Exception):
    """Base class for all package errors."""


class ConfigError(InfoflowError):
    """Invalid scenario configuration or CLI usage."""


class NumericalError(InfoflowError):
    """Base class for runtime numerical failures."""


class NonHurwitzError(NumericalError):
    """Drift matrix has an eigenvalue with non-negative real part: no steady state."""


class CovarianceError(NumericalError):
    """A covariance matrix lost symmetry or positive definiteness."""


class CflError(NumericalError):
    """Requested grid time step exceeds the explicit stability limit."""


class UnstableStepError(NumericalError):
    """A grid step refused before it could lose positivity or overflow: a
    control outside the bounds of the transport matrix T, an observation
    exponent bound above the limit, a NaN or infinite dY, or a
    Kushner-Stratonovich factor that is not > 0."""


class FilterCollapseError(NumericalError):
    """Unnormalized filter density has zero or negative total mass."""


class SimulationBlowupError(NumericalError):
    """A simulated trajectory left 10x the model's domain box."""
