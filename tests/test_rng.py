import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infoflow import models, rng
from infoflow.rng import (CHANNEL_DYNAMICS, CHANNEL_INITIAL, CHANNEL_OBSERVATION,
                          pcg64_states, substream, substreams)

# one word, the largest one-word seed, two words, and five words (past the pool)
SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 130 + 3]


def _state(gen):
    st_ = gen.bit_generator.state["state"]
    return st_["state"], st_["inc"]


@given(seed=st.one_of(st.sampled_from(SEEDS), st.integers(0, 2 ** 140)),
       keys=st.lists(st.one_of(st.integers(0, 2 ** 32 - 1),
                               st.integers(2 ** 32, 2 ** 70)),
                     min_size=1, max_size=12),
       channel=st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_bulk_states_are_the_substreams(seed, keys, channel):
    assert list(pcg64_states(seed, keys, channel)) == [
        _state(substream(seed, j, channel)) for j in keys]


@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_states_cover_every_pool_word(seed):
    keys = list(range(300)) + [2 ** 32 - 1, 2 ** 32]
    assert list(pcg64_states(seed, keys, rng.CHANNEL_FIELDS)) == [
        _state(substream(seed, j, rng.CHANNEL_FIELDS)) for j in keys]


@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_draw_what_substream_draws(seed):
    # 32-bit draws leave a buffered half word behind; each stream starts clean
    keys = [0, 1, 7, 2 ** 32 - 1, 2 ** 32 + 3, 12]
    for j, gen in zip(keys, substreams(seed, keys, CHANNEL_INITIAL)):
        ref = substream(seed, j, CHANNEL_INITIAL)
        assert np.array_equal(gen.random(3, dtype=np.float32),
                              ref.random(3, dtype=np.float32))
        assert np.array_equal(gen.normal(size=5), ref.normal(size=5))


def test_draw_increments_are_the_substreams():
    # each trajectory's dW, dU and X(0) are its own substreams' draws
    idx, n_steps, dt = [0, 3, 2 ** 32 + 1, 9], 7, 0.01
    sampler = lambda r: r.normal(0.0, 0.5, size=1)
    dw, du, x0 = models.draw_increments(23, idx, n_steps, dt, sampler)
    sq = math.sqrt(dt)
    for col, j in enumerate(idx):
        assert np.array_equal(
            dw[:, col], substream(23, j, CHANNEL_DYNAMICS).normal(size=n_steps) * sq)
        assert np.array_equal(
            du[:, col], substream(23, j, CHANNEL_OBSERVATION).normal(size=n_steps) * sq)
        assert x0[col] == sampler(substream(23, j, CHANNEL_INITIAL))[0]
