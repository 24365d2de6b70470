"""Counter-based per-trajectory random substreams.

Every random draw in the package flows from one master seed through
``substream(seed, trajectory_index, channel)``.  Trajectories therefore get
statistically independent streams that do not depend on evaluation order,
which makes ensemble results reproducible under any parallel schedule.
"""

import numpy as np

from .errors import ConfigError

CHANNEL_DYNAMICS = 0   # dW, the dynamical Wiener noise
CHANNEL_OBSERVATION = 1  # dU, the observation Wiener noise
CHANNEL_INITIAL = 2    # initial-state sampling
CHANNEL_BOOTSTRAP = 3  # bootstrap resampling of the tower-property check
CHANNEL_FIELDS = 4     # random fields and noise factors of the co-metric check


def substream(seed: int, trajectory_index: int, channel: int) -> np.random.Generator:
    """Generator for one (trajectory, channel) pair.

    Identical arguments always yield an identical stream, on any platform
    supported by numpy's SeedSequence spawning.
    """
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(trajectory_index), int(channel)))
    return np.random.default_rng(ss)


def check_seed(seed) -> None:
    """A master seed is an integer >= 0: ConfigError otherwise."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
