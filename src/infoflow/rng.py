"""Counter-based per-trajectory random substreams.

Every random draw in the package flows from one master seed through
``substream(seed, trajectory_index, channel)``.  Trajectories therefore get
statistically independent streams that do not depend on evaluation order,
which makes ensemble results reproducible under any parallel schedule.

``substreams`` yields the same streams for many trajectories at once: it
runs ``SeedSequence``'s hashing on all of their keys together and sets each
resulting PCG64 state on one reused generator.  ``substream`` stays the
definition; a tier-1 test pins the two bit for bit, so a numpy release that
changes either algorithm fails by name (PCG64: O'Neill 2014, HMC-CS
TR-2014-0905; stream stability: NumPy NEP 19).
"""

import numpy as np

from .errors import check_integer

CHANNEL_DYNAMICS = 0   # dW, the dynamical Wiener noise
CHANNEL_OBSERVATION = 1  # dU, the observation Wiener noise
CHANNEL_INITIAL = 2    # initial-state sampling
CHANNEL_BOOTSTRAP = 3  # bootstrap resampling of the tower-property check
CHANNEL_FIELDS = 4     # random fields and noise factors of the co-metric check

# SeedSequence's pool size and hash constants (numpy.random.bit_generator)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def substream(seed: int, trajectory_index: int, channel: int) -> np.random.Generator:
    """Generator for one (trajectory, channel) pair.

    Identical arguments always yield an identical stream, on any platform
    supported by numpy's SeedSequence spawning.
    """
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(int(trajectory_index), int(channel)))
    return np.random.default_rng(ss)


def _words(n: int) -> list:
    """``n`` >= 0 as little-endian 32-bit words, as SeedSequence reads it."""
    out = [n & _M32]
    while n > _M32:
        n >>= 32
        out.append(n & _M32)
    return out


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of a word or a uint32 array; returns it with
    the next hash constant."""
    value = value ^ const
    const = const * mult & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(x, y):
    r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return r ^ r >> 16


def pcg64_states(seed: int, indices, channel: int):
    """Yield (state, inc) of the PCG64 behind ``substream(seed, j, channel)``
    for each j in ``indices``, in order, as Python integers.

    The pool hashing runs once on the words all keys share and once on a
    uint32 array of the trajectory indices; PCG64's seeding step is then
    inc = 2t + 1, state = ((inc + s) mult + inc) mod 2^128.  An index of
    2^32 or more takes ``substream`` itself.
    """
    seed, channel = int(seed), int(channel)
    keys = [int(j) for j in indices]
    small = [0 <= j <= _M32 for j in keys]
    run = _words(seed)
    run += [0] * (_POOL - len(run))           # padded: a spawn key follows
    const, pool = _INIT_A, []
    for word in run[:_POOL]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    index_words = np.array([j for j, ok in zip(keys, small) if ok], dtype=np.uint32)
    for word in run[_POOL:] + [index_words] + _words(channel):
        for dst in range(_POOL):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    const, words = _INIT_B, []                 # generate_state(4, np.uint64)
    for i in range(2 * _POOL):
        value, const = _hashmix(pool[i % _POOL], const, _MULT_B)
        words.append(value)
    words = np.stack(words, axis=1).astype(np.uint64)
    halves = iter(words[:, 0::2] | words[:, 1::2] << np.uint64(32))
    for j, ok in zip(keys, small):
        if ok:
            s_hi, s_lo, t_hi, t_lo = next(halves).tolist()
            inc = ((t_hi << 64 | t_lo) << 1 | 1) & _M128
            yield ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128, inc
        else:
            st = substream(seed, j, channel).bit_generator.state["state"]
            yield st["state"], st["inc"]


def substreams(seed: int, indices, channel: int):
    """Yield ``substream(seed, j, channel)``'s stream for each j in
    ``indices``, in order, as one generator re-seeded per index: each is
    valid until the next one is yielded."""
    bitgen = np.random.PCG64(0)                # its own seed is overwritten
    rng = np.random.Generator(bitgen)
    value = bitgen.state                       # no buffered half word
    for state, inc in pcg64_states(seed, indices, channel):
        value["state"] = {"state": state, "inc": inc}
        bitgen.state = value
        yield rng


def check_seed(seed) -> None:
    """A master seed is an integer >= 0: ConfigError otherwise."""
    check_integer(seed, "seed", 0)
