"""The benchmark's hooks against the library they wrap.

``bench/spans.py`` rebinds library functions by name and counts each
``advance_values`` call's work through its signature.  These tests install
the hooks of the check workload and run one Strang step under them, so a
renamed or re-signed function fails here rather than in a benchmark run.
They read ``bench/`` and never change it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from infoflow import grid, models  # noqa: E402


@pytest.fixture
def patches():
    recorder = spans.SpanRecorder()
    patches = spans.Patches(recorder)
    patches.install(spans.library_hooks(WORKLOADS["checks_exact_grid"].checks))
    yield patches
    patches.restore()


def test_every_hooked_layer_exists(patches):
    assert patches.unmeasured == set()


def test_zakai_step_records_its_transport(patches):
    g = grid.Grid1D(-2.5, 2.5, 64)
    model = models.double_well()
    bank = np.tile(grid.gaussian_density(g, 0.0, 0.3).values[:, None], (1, 3))
    grid.zakai_advance(bank, grid.face_fields(model, g), 2,
                       grid.observation_values(model, g), np.zeros(3), 1e-3)
    advances = [s for s in patches.recorder.spans if s.name == "grid.advance"]
    assert [s.work for s in advances] == [384, 384]    # values.size x n_half
    patches.restore()
    assert not hasattr(grid.advance_values, "__wrapped__")
