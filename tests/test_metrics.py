import math
import re

import numpy as np
import pytest

from infoflow import checks, metrics, models
from infoflow.ensemble import EnsembleConfig, run_filter_ensemble
from infoflow.errors import CflError, ConfigError, NumericalError
from infoflow.gaussian import lyapunov_series, riccati_series
from infoflow.grid import (FaceFields, Grid1D, GridDensity, advance_values,
                           face_fields, gaussian_density, steady_state_grid,
                           substeps_for)
from infoflow.metrics import (LEDGER_COLUMNS, assemble_info_ledger,
                              conditional_entropy_identity_residual,
                              conditional_entropy_rate, cramer_rao_check,
                              de_bruijn_check, dissipated_rate,
                              entropy_production_rate, entropy_rate_scan,
                              fisher_trace_conditional,
                              fisher_trace_unconditional, free_surprise_rate,
                              mutual_information, mwz_residual, supplied_rate)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Quadrature estimators
# ---------------------------------------------------------------------------

class TestEntropyProduction:
    def test_ou_steady_state_is_balanced(self):
        m = models.ou(rate=1.0, sigma_sq=2.0)
        grid = Grid1D(-7, 7, 512)
        rho_ss = steady_state_grid(m, grid)
        assert entropy_production_rate(m, rho_ss) == pytest.approx(0.0,
                                                                   abs=1e-6)

    def test_brownian_gaussian(self):
        m = models.brownian(sigma_sq=1.0)
        grid = Grid1D(-9, 9, 512)
        for v in (0.5, 1.0, 2.0):
            rho = gaussian_density(grid, 0.0, v)
            assert entropy_production_rate(m, rho) == pytest.approx(
                1.0 / (2.0 * v), rel=1e-3)
            # E[div u] is exactly 0: the theorem is de Bruijn's identity
            assert entropy_production_rate(m, rho) == \
                0.5 * fisher_trace_unconditional(m, rho)

    def test_deterministic_flow_divergence(self):
        # with sigma = 0 the rate reduces to the mean divergence of the drift
        m = models.DiffusionModel(
            1,
            drift=lambda x: -np.asarray(x, dtype=float),
            sigma=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            observation_map=lambda x: np.asarray(x, dtype=float),
            domain_box=[[-6.0, 6.0]])
        rho = gaussian_density(Grid1D(-6, 6, 256), 0.3, 0.7)
        assert entropy_production_rate(m, rho) == pytest.approx(-1.0,
                                                                rel=1e-6)


class TestFreeSurpriseRate:
    def test_zero_at_steady_state(self):
        m = models.ou()
        grid = Grid1D(-7, 7, 512)
        rho_ss = steady_state_grid(m, grid)
        g, f = free_surprise_rate(m, rho_ss, rho_ss)
        assert abs(g) <= 1e-8 and abs(f) <= 1e-6
        assert g <= 1e-10 and f <= 1e-10

    def test_ou_transient_value(self):
        # V = 2 against V_ss = 1 with Sigma = 2: rate -1/2
        m = models.ou(rate=1.0, sigma_sq=2.0)
        grid = Grid1D(-9, 9, 1024)
        rho = gaussian_density(grid, 0.0, 2.0)
        rho_ss = steady_state_grid(m, grid)
        g, f = free_surprise_rate(m, rho, rho_ss)
        assert g == pytest.approx(-0.5, rel=2e-3)
        assert f == pytest.approx(-0.5, rel=2e-3)
        assert g <= 1e-10 and f <= 1e-10

    def test_forms_agree_on_double_well_transient(self):
        m = models.double_well()
        grid = Grid1D(-2.5, 2.5, 512)
        ff = face_fields(m, grid)
        rho = GridDensity(grid, advance_values(gaussian_density(grid, 0.3, 0.2).values,
                                               ff, 0.3, substeps_for(ff, 0.3)))
        rho_ss = steady_state_grid(m, grid)
        g, f = free_surprise_rate(m, rho, rho_ss)
        assert g == pytest.approx(f, rel=2e-3)

    def test_singular_sigma_rejected(self):
        m = models.DiffusionModel(
            1,
            drift=lambda x: -np.asarray(x, dtype=float),
            sigma=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            observation_map=lambda x: np.asarray(x, dtype=float),
            domain_box=[[-6.0, 6.0]])
        rho = gaussian_density(Grid1D(-6, 6, 128), 0.0, 1.0)
        with pytest.raises(NumericalError):
            free_surprise_rate(m, rho, rho)


class TestFisherTraces:
    def test_gaussian_closed_form(self):
        grid = Grid1D(-9, 9, 512)
        m = models.ou(sigma_sq=2.0)
        rho = gaussian_density(grid, 0.0, 1.0)
        assert fisher_trace_unconditional(m, rho) == pytest.approx(2.0,
                                                                   rel=1e-3)
        m1 = models.brownian(sigma_sq=1.0)
        rho2 = gaussian_density(grid, 0.0, 0.5)
        assert fisher_trace_unconditional(m1, rho2) == pytest.approx(
            2.0, rel=1e-3)

    def test_rescaling_law(self):
        # density of a*X has Fisher information scaled by 1/a^2
        grid = Grid1D(-12, 12, 1024)
        m = models.brownian(sigma_sq=1.0)
        a = 2.0
        rho = gaussian_density(grid, 0.0, 1.0)
        rho_scaled = gaussian_density(grid, 0.0, a * a)
        j1 = fisher_trace_unconditional(m, rho)
        j2 = fisher_trace_unconditional(m, rho_scaled)
        assert j2 == pytest.approx(j1 / a ** 2, rel=1e-3)


class TestCramerRao:
    def test_gaussian_equality(self):
        rho = gaussian_density(Grid1D(-8, 8, 512), 0.0, 1.0)
        gap = cramer_rao_check(rho)
        assert -1e-6 <= gap <= 1e-3

    def test_mixture_strict_gap(self):
        grid = Grid1D(-8, 8, 512)
        vals = 0.5 * (gaussian_density(grid, -2.5, 0.3).values
                      + gaussian_density(grid, 2.5, 0.3).values)
        mix = GridDensity(grid, vals / (np.sum(vals) * grid.dx))
        assert cramer_rao_check(mix) > 0.5


class TestDeBruijn:
    def test_gaussian_analytic_point(self):
        # V0 = 1 at t = 1: dH/dt = 1/4 and J/2 = 1/4
        res = de_bruijn_check(v0=1.0, t_grid=[1.0], n_cells=512)
        assert res["max_deviation"] <= 1e-4

    def test_grid_run_tolerance(self):
        res = de_bruijn_check(v0=0.25, t_grid=np.linspace(0.1, 2.0, 8),
                              n_cells=512)
        assert res["max_deviation"] <= 1e-3
        finer = de_bruijn_check(v0=0.25, t_grid=np.linspace(0.1, 2.0, 8),
                                n_cells=1024)
        assert finer["max_deviation"] <= res["max_deviation"] + 1e-9

    def test_coarse_grid_at_start(self):
        # a backward explicit step would drive a tail cell negative here
        res = de_bruijn_check(v0=0.25, t_grid=[0.0, 0.2], sigma_sq=2.0,
                              n_cells=64)
        assert res["max_deviation"] <= 1e-3

    @pytest.mark.parametrize("kw, match", [
        (dict(v0=0.25, t_grid=[]), "at least one time"),
        (dict(v0=0.0, t_grid=[0.5]), "v0"),
        (dict(v0=-0.5, t_grid=[1.0]), "v0"),
        (dict(v0=0.25, t_grid=[-0.1, 0.5]), "ascending")])
    def test_bad_input_refused_by_name(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            de_bruijn_check(**kw)


class TestEntropyRateScan:
    @pytest.mark.parametrize("times", [[0.2, 0.1], [-0.01, 0.1], [0.1, math.nan],
                                       [math.inf]])
    def test_times_not_finite_ascending_and_nonnegative_refused(self, times):
        m = models.ou()
        grid = Grid1D(-6, 6, 256)
        values = gaussian_density(grid, 0.0, 0.5).values
        with pytest.raises(ConfigError, match="ascending"):
            entropy_rate_scan(m, grid, values, times, 1e-4)

    def test_substep_above_cfl_refused(self):
        m = models.ou()
        grid = Grid1D(-6, 6, 256)
        values = gaussian_density(grid, 0.0, 0.5).values
        before = values.copy()
        with pytest.raises(CflError):
            entropy_rate_scan(m, grid, values, [0.1], 1e-2)
        np.testing.assert_array_equal(values, before)

    @pytest.mark.parametrize("substep", [0.0, -1e-4, math.nan, math.inf])
    def test_substep_not_finite_and_positive_refused(self, substep, monkeypatch):
        # 0 once overflowed in the step count, -1e-4 was refused as a step
        # count of -1000 and NaN raised numpy's ValueError; each is refused
        # by name before any face fields are built
        m = models.ou()
        grid = Grid1D(-6, 6, 64)
        values = gaussian_density(grid, 0.0, 0.5).values
        monkeypatch.setattr(metrics, "face_fields",
                            lambda *args: pytest.fail("face fields built"))
        with pytest.raises(ConfigError, match=re.escape(
                f"the substep must be finite and positive, got {substep}")):
            entropy_rate_scan(m, grid, values, [0.1], substep)

    def test_criteria_3_and_4_build_one_operator_per_scan(self, monkeypatch):
        # criterion 3 scans two grids, criterion 4 one; each scan's face
        # fields build T once, for its stepping and its difference alike
        built = []
        operator = FaceFields.operator

        def counted(self, h):
            pair = operator(self, h)
            if not any(pair[0] is op for op in built):
                built.append(pair[0])
            return pair

        monkeypatch.setattr(FaceFields, "operator", counted)
        assert checks.check_entropy_production_grid().passed
        assert checks.check_de_bruijn().passed
        assert len(built) == 3


# ---------------------------------------------------------------------------
# Monte-Carlo estimators
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lqg_run():
    model = models.lqg(A=[[-1.0]], B=[[SQRT2]], C=[[1.0]])
    grid = Grid1D(-6, 6, 256)
    cfg = EnsembleConfig(dt=1e-3, horizon=1.0, n_trajectories=400, seed=31,
                         sample_stride=50, x0_mean=0.0, x0_var=0.5)
    run = run_filter_ensemble(model, grid, cfg)
    times = 1e-3 * np.arange(1001)
    vhat = riccati_series(model, 0.5, times)
    v = lyapunov_series([[-1.0]], [[2.0]], [[0.5]], times)[:, 0, 0]
    return run, times, v, vhat


@pytest.fixture(scope="module")
def blind_run():
    # observation gain zero: posterior should match the prior in law
    model = models.ou(obs_gain=0.0)
    grid = Grid1D(-6, 6, 256)
    cfg = EnsembleConfig(dt=1e-3, horizon=0.5, n_trajectories=300, seed=13,
                         sample_stride=100, x0_mean=0.0, x0_var=0.5)
    return run_filter_ensemble(model, grid, cfg)


class TestSuppliedRate:
    def test_lqg_closed_form(self, lqg_run):
        run, times, v, vhat = lqg_run
        for t in (0.5, 1.0):
            k = int(round(t / 1e-3))
            s, se = supplied_rate(run, t)
            assert abs(s - 0.5 * vhat[k]) <= 3.0 * se + 1e-4

    def test_no_observations(self, blind_run):
        s, se = supplied_rate(blind_run, 0.5)
        assert s == 0.0 and se == 0.0

    def test_perfect_observation_limit(self, lqg_run):
        # collapse the filtered estimate onto the truth: no supply left
        import dataclasses
        run = lqg_run[0]
        run = dataclasses.replace(run, pi_h=run.model.observation_map(run.states))
        s, se = supplied_rate(run, 0.5)
        assert s == 0.0 and se == 0.0


class TestFisherConditional:
    def test_lqg_closed_form(self, lqg_run):
        run, times, v, vhat = lqg_run
        k = 1000
        j, se = fisher_trace_conditional(run, 1.0)
        assert abs(j - 2.0 / vhat[k]) <= 3.0 * se + 5e-3

    def test_blind_matches_unconditional(self, blind_run):
        j, se = fisher_trace_conditional(blind_run, 0.5)
        rho = GridDensity(blind_run.grid, blind_run.prior_fp[-1])
        j_rho = fisher_trace_unconditional(blind_run.model, rho)
        assert abs(j - j_rho) <= 3.0 * se + 1e-3


class TestDissipatedRate:
    def test_lqg_closed_form(self, lqg_run):
        run, times, v, vhat = lqg_run
        k = 1000
        closed = 1.0 / vhat[k] - 1.0 / v[k]
        (df, dfse), (dg, dgse) = dissipated_rate(run, 1.0)
        assert abs(df - closed) <= 3.0 * dfse + 1e-3
        assert abs(dg - closed) <= 3.0 * dgse + 1e-3

    @pytest.mark.parametrize("prior", ("fp", "mixture"))
    def test_blind_is_zero(self, blind_run, prior):
        (df, dfse), (dg, dgse) = dissipated_rate(blind_run, 0.5, prior)
        assert abs(df) <= 3.0 * dfse + 1e-5
        assert abs(dg) <= 3.0 * dgse + 1e-5
        assert dg >= 0.0

    def test_forms_agree(self, lqg_run):
        run = lqg_run[0]
        for t in (0.25, 0.75):
            (df, dfse), (dg, dgse) = dissipated_rate(run, t)
            assert abs(df - dg) <= 3.0 * math.hypot(dfse, dgse) + 1e-6


class TestMutualInformation:
    def test_independent_at_start(self, lqg_run):
        run = lqg_run[0]
        (imc, ise), (iz, _) = mutual_information(run, 0.0)
        assert imc == pytest.approx(0.0, abs=1e-12)

    def test_lqg_closed_form(self, lqg_run):
        run, times, v, vhat = lqg_run
        k = 1000
        closed = 0.5 * math.log(v[k] / vhat[k])
        (imc, ise), _ = mutual_information(run, 1.0)
        assert abs(imc - closed) <= 3.0 * ise + 2e-3

    def test_zakai_bookkeeping_identity(self, lqg_run):
        run = lqg_run[0]
        for t in (0.5, 1.0):
            (imc, _), (iz, _) = mutual_information(run, t)
            assert abs(imc - iz) <= 1e-10

    def test_nonnegative(self, lqg_run):
        run = lqg_run[0]
        for t in run.times:
            (imc, ise), _ = mutual_information(run, float(t))
            assert imc >= -3.0 * ise - 1e-12


class TestResiduals:
    def test_lqg_balance(self, lqg_run):
        run = lqg_run[0]
        for t in (0.25, 0.5, 0.75):
            r, se = mwz_residual(run, t)
            assert abs(r) <= 3.0 * se + 1e-4

    @pytest.mark.parametrize("prior", ("fp", "mixture"))
    def test_blind_balance(self, blind_run, prior):
        r, se = mwz_residual(blind_run, 0.3, prior)
        assert abs(r) <= 3.0 * se + 1e-5

    def test_conditional_entropy_rate_lqg(self, lqg_run):
        run, times, v, vhat = lqg_run
        # closed form: d/dt H(X|Y) = d/dt (1/2) ln(2 pi e Vhat)
        k = 500
        a, sig, c2 = -1.0, 2.0, 1.0
        closed = a + sig / (2 * vhat[k]) - c2 * vhat[k] / 2
        val, se = conditional_entropy_rate(run, 0.5)
        assert abs(val - closed) <= 3.0 * se + 5e-3

    def test_conditional_entropy_identity(self, lqg_run):
        run = lqg_run[0]
        r, se = conditional_entropy_identity_residual(run, 0.5)
        assert abs(r) <= 3.0 * se + 1e-3

    def test_conditional_entropy_blind_matches_unconditional(self, blind_run):
        # no information channel: conditional rate equals entropy production
        val, se = conditional_entropy_rate(blind_run, 0.5)
        rho = GridDensity(blind_run.grid, blind_run.prior_fp[-1])
        rate = entropy_production_rate(blind_run.model, rho)
        assert abs(val - rate) <= 3.0 * se + 1e-3


class TestLogNormalizationAverage:
    def test_mean_log_mass_equals_half_integrated_pi_sq(self, lqg_run):
        # E[ln sigma_t(1)] = (1/2) int_0^t E|pi_s(h)|^2 ds, paired per
        # trajectory for a tight test
        run = lqg_run[0]
        diff = run.log_sigma1[-1] - 0.5 * run.int_pi_h_sq[-1]
        se = float(np.std(diff, ddof=1) / math.sqrt(diff.size))
        assert abs(float(np.mean(diff))) <= 3.0 * se


class TestLedger:
    def test_assembly_and_invariants(self, lqg_run):
        run = lqg_run[0]
        model = run.model
        rho_ss = steady_state_grid(model, run.grid)
        ledger = assemble_info_ledger(run, rho_ss=rho_ss)
        report = ledger.invariant_report()
        assert report["all_pass"], report
        assert ledger.all_finite()
        assert set(LEDGER_COLUMNS) - {"t"} == set(ledger.data)

    def test_csv_contract(self, lqg_run, tmp_path):
        run = lqg_run[0]
        rho_ss = steady_state_grid(run.model, run.grid)
        ledger = assemble_info_ledger(run, rho_ss=rho_ss)
        path = tmp_path / "ledger.csv"
        ledger.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(LEDGER_COLUMNS)
        assert len(lines) == 1 + run.n_samples
        # 17 significant digits round-trip
        first = dict(zip(LEDGER_COLUMNS, lines[1].split(",")))
        assert float(first["H"]) == ledger.data["H"][0]
