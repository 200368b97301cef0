import numpy as np
import pytest

from gpcn import elliptic
from gpcn.diagnostics import (
    autocorrelation,
    ess_batch_means,
    ess_ims,
    qoi_exp_integral,
)
from gpcn.experiment import ess_summary
from gpcn.gaussian_ops import PriorSpec
from gpcn.metropolis import ChainConfig, run_chain
from gpcn.proposals import ProposalKernel
from helpers import ar1_series, simpson


class TestAutocorrelation:
    def test_white_noise_has_negligible_lags(self):
        x = np.random.default_rng(0).standard_normal(100000)
        acf = autocorrelation(x, 50)
        assert acf[0] == 1.0
        assert np.abs(acf[1:]).max() < 0.01

    def test_ar1_matches_analytic_decay(self):
        x = ar1_series(100000, 0.5, np.random.default_rng(10))
        acf = autocorrelation(x, 5)
        assert np.abs(acf[1:] - 0.5 ** np.arange(1, 6)).max() < 0.02

    def test_alternating_series(self):
        n = 10000
        x = np.tile([1.0, -1.0], n // 2)
        acf = autocorrelation(x, 1)
        assert np.isclose(acf[1], -(n - 1) / n)

    def test_rejects_constant_and_short_series(self):
        with pytest.raises(ValueError, match="variance"):
            autocorrelation(np.ones(100), 5)
        with pytest.raises(ValueError, match="short"):
            autocorrelation(np.arange(10.0), 10)
        with pytest.raises(ValueError, match="max_lag"):
            autocorrelation(np.arange(10.0), 0)


class TestEssIms:
    def test_iid_close_to_n(self):
        n = 10000
        report = ess_ims(np.random.default_rng(4).standard_normal(n))
        assert 0.9 * n <= report.ess <= n

    def test_ar1_analytic_iact(self):
        n = 10000
        report = ess_ims(ar1_series(n, 0.5, np.random.default_rng(5)))
        assert abs(report.ess - n / 3) < 0.15 * n / 3

    def test_zero_rho_reduces_to_iid(self):
        n = 10000
        report = ess_ims(ar1_series(n, 0.0, np.random.default_rng(6)))
        assert 0.9 * n <= report.ess <= n

    def test_truncation_respects_first_negative_pair_sum(self):
        x = ar1_series(5000, 0.6, np.random.default_rng(12))
        report = ess_ims(x)
        acf = autocorrelation(x, len(x) - 1)
        pairs = acf[0:-1:2] + acf[1::2]
        first_bad = int(np.argmax(pairs <= 0.0)) if np.any(pairs <= 0.0) else len(pairs)
        assert report.n_pairs <= first_bad

    def test_requires_minimum_length(self):
        with pytest.raises(ValueError):
            ess_ims(np.random.default_rng(0).standard_normal(50))


class TestEssBatchMeans:
    def test_iid_million(self):
        n = 1000000
        report = ess_batch_means(np.random.default_rng(7).standard_normal(n))
        assert abs(report.ess - n) <= 0.2 * n

    def test_ar1_million(self):
        n = 1000000
        report = ess_batch_means(ar1_series(n, 0.5, np.random.default_rng(8)))
        assert abs(report.ess - n / 3) <= 0.2 * n / 3

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="short"):
            ess_batch_means(np.random.default_rng(0).standard_normal(500), n_batches=100)

    def test_agrees_with_ims_on_sampler_output(self):
        model = elliptic.ForwardModel(10)
        prior = PriorSpec(10)
        obs = elliptic.generate_data(elliptic.default_truth, 0.1, model,
                                     np.random.default_rng(1), seed=1)
        phi = elliptic.make_posterior(obs, model)
        start = elliptic.map_estimate(obs, model, prior).xi
        cfg = ChainConfig(ProposalKernel("pcn", prior, 0.35), phi, n=50000, n0=2000, seed=11,
                          initial_state=start,
                          qoi={"f": lambda xi, solve: qoi_exp_integral(xi, model, solve)})
        series = run_chain(cfg).qoi_series["f"]
        ims = ess_ims(series).ess
        bm = ess_batch_means(series).ess
        assert abs(ims - bm) / ims < 0.3


class TestNonFiniteSeries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("estimator", [ess_ims, ess_batch_means,
                                           lambda x: autocorrelation(x, 5)])
    def test_first_nonfinite_index_is_named(self, estimator, bad):
        # each returned NaN, which a diagnostics report then wrote as a bare NaN
        x = np.random.default_rng(2).standard_normal(2000)
        x[[417, 1500]] = bad
        with pytest.raises(ValueError, match=rf"series\[417\] = {bad}"):
            estimator(x)

    def test_summary_records_the_errors(self):
        x = np.random.default_rng(2).standard_normal(2000)
        x[3] = np.nan
        summary = ess_summary(x)
        assert summary == {name: {"error": "series must be finite, got series[3] = nan"}
                           for name in ("ims", "batch_means")}


class TestEstimatorProperties:
    def test_affine_invariance(self):
        x = ar1_series(20000, 0.4, np.random.default_rng(9))
        base_ims = ess_ims(x)
        base_bm = ess_batch_means(x)
        # power-of-two scaling is exact in floating point
        assert ess_ims(2.0 * x).ess == base_ims.ess
        assert ess_batch_means(2.0 * x).ess == base_bm.ess
        shifted_ims = ess_ims(-0.5 * x + 3.0)
        assert np.isclose(shifted_ims.ess, base_ims.ess, rtol=1e-9)
        assert np.isclose(ess_batch_means(-0.5 * x + 3.0).ess, base_bm.ess, rtol=1e-9)

    def test_thinning_decreases_iact(self):
        x = ar1_series(200000, 0.8, np.random.default_rng(9))
        iacts = [ess_ims(x[::t]).iact for t in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(iacts, iacts[1:]))


class TestQoi:
    def test_zero_coefficients_give_one(self):
        model = elliptic.ForwardModel(5)
        assert qoi_exp_integral(np.zeros(5), model) == 1.0

    def test_constant_field_quadrature(self):
        model = elliptic.ForwardModel(5)
        for c in (-1.0, 0.5, 2.0):
            val = model.weights[-1] @ np.exp(np.full(model.n_nodes, c))
            assert np.isclose(val, np.exp(c), rtol=1e-14)

    def test_single_mode_against_refined_quadrature(self):
        model = elliptic.ForwardModel(5)
        xi = np.zeros(5)
        xi[0] = 1.0
        coeff = np.sqrt(2.0) / np.pi
        oracle = simpson(lambda x: np.exp(coeff * np.sin(np.pi * x)), 0.0, 1.0, 4096)
        assert abs(qoi_exp_integral(xi, model) - oracle) < 1e-6
