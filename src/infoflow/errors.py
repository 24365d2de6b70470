"""Exception hierarchy shared by all solvers and the CLI, and the checks of
an integer count or seed and of a finite parameter.

Configuration problems map to CLI exit code 2, numerical failures to
exit code 3.
"""

import math
import numbers


class InfoflowError(Exception):
    """Base class for all package errors."""


class ConfigError(InfoflowError):
    """Invalid scenario configuration or CLI usage."""


def check_integer(value, name: str, least: int) -> None:
    """ConfigError unless ``value`` is an integer >= ``least``; a bool, a
    float with an integral value or a string is not one."""
    if type(value) is int and value >= least:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def check_finite(value, name: str, positive: bool = False) -> None:
    """ConfigError unless ``value`` is finite, and > 0 when ``positive``."""
    if not (math.isfinite(value) and (value > 0 or not positive)):
        raise ConfigError(f"{name} must be finite{' and positive' * positive}, "
                          f"got {value}")


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
