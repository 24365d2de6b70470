"""The benchmark's hooks and output gate against the library.

``bench/spans.py`` rebinds library functions by name and counts each
``advance_values`` call's work through its signature.  These tests install
the hooks of the check workload and run one Strang step under them, so a
renamed or re-signed function fails here rather than in a benchmark run.
They also run each ensemble workload's operation once at the benchmark's
default seed through ``bench/worker.py``'s output checks, so a change that
moves a ledger off the recorded reference fails here too, and run the check
workload twice, the first time traced, so criterion ids, verdicts or a
``measured`` or ``detail`` that the benchmark could not repeat fail here as
well, and so does a change in its transport calls or cell-substeps.  They
read ``bench/`` and never change it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import worker  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from infoflow import grid, models  # noqa: E402
from infoflow.errors import ConfigError  # noqa: E402


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
    # the mesh Peclet number is 1.94 on 128 cells; 64 cells, about 4, are refused
    model = models.double_well()

    def step(n_cells):
        g = grid.Grid1D(-2.5, 2.5, n_cells)
        bank = np.tile(grid.gaussian_density(g, 0.0, 0.3).values[:, None], (1, 3))
        grid.zakai_advance(bank, grid.face_fields(model, g), 2,
                           grid.observation_values(model, g), np.zeros(3), 1e-3)

    with pytest.raises(ConfigError, match="Peclet"):
        step(64)
    recorded = len(patches.recorder.spans)
    step(128)
    advances = [s for s in patches.recorder.spans[recorded:] if s.name == "grid.advance"]
    assert [s.work for s in advances] == [768, 768]    # values.size x n_half
    patches.restore()
    assert not hasattr(grid.advance_values, "__wrapped__")


@pytest.mark.parametrize("name", ["dw_filter", "dw_feedback"])
def test_ensemble_workload_passes_the_output_gate(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)       # the scenario's outputs are relative
    workload = WORKLOADS[name]
    workload.write_scenario(tmp_path, tmp_path, DEFAULT_SEED)
    scenario, rho_ss = worker.setup(workload, tmp_path, DEFAULT_SEED)
    controlled, run = worker.ensemble_op(scenario, rho_ss)
    csv_bytes = (tmp_path / scenario.outdir / "ledger.csv").read_bytes()
    assert worker.ensemble_failures(workload, controlled, run, csv_bytes,
                                    worker.load_reference(name), None) == []


def test_check_workload_repeats_exactly(patches):
    # the first pass runs traced: its transport work is pinned, so a faster
    # pass must come from fewer kernel passes, not from fewer substeps
    workload = WORKLOADS["checks_exact_grid"]
    first = worker.checks_op(workload)
    advance = spans.totals(patches.recorder.spans)["grid.advance"]
    assert (advance["calls"], advance["work"]) == (22_126, 45_263_872)
    patches.restore()
    second = worker.checks_op(workload)
    assert worker.checks_failures(second, worker.check_signature(first)) == []


def test_ensemble_transport_stays_in_view(patches):
    # a 5-step double-well ensemble: per step the bank's two Strang halves
    # and the prior's step each record one grid.advance call, the noise
    # draw records one rng.draw span, and every hooked layer is measured
    from infoflow import ensemble
    g = grid.Grid1D(-2.5, 2.5, 128)
    model = models.double_well()
    config = ensemble.EnsembleConfig(dt=1e-3, horizon=5e-3, n_trajectories=8,
                                     seed=3, sample_stride=5)
    ensemble.run_filter_ensemble(model, g, config)
    assert patches.unmeasured == set()
    spans_by = {}
    for span in patches.recorder.spans:
        spans_by.setdefault(span.name, []).append(span)
    run, = spans_by["ensemble.run"]
    draw, = spans_by["rng.draw"]
    assert draw.parent == run.id
    ff = grid.face_fields(model, g)
    n_half, n_full = grid.substeps_for(ff, 0.5e-3), grid.substeps_for(ff, 1e-3)
    advances = spans_by["grid.advance"]
    assert all(s.parent == run.id for s in advances)
    assert [s.work for s in advances] == ([128 * 8 * n_half] * 2 + [128 * n_full]) * 5
