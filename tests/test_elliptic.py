import json
import tracemalloc

import numpy as np
import pytest

from gpcn import diagnostics, elliptic
from gpcn.diagnostics import qoi_exp_integral
from gpcn.elliptic import (
    FFT_MIN_SIZE,
    OBS_POINTS,
    ForwardModel,
    Observation,
    build_gamma_averaged,
    build_gamma_from_map,
    default_truth,
    forward,
    forward_from_field,
    generate_data,
    jacobian,
    kl_to_field,
    map_estimate,
    phi,
)
from gpcn.gaussian_ops import PriorSpec
from helpers import (
    cumulative_trapezoid,
    dense_gamma,
    elliptic_pipeline,
    interp_at,
    linear_posterior,
    observation_from_json,
    simpson,
    sine_basis,
)

LINEAR_G = np.array([0.4, 0.8, 1.2, 1.6])


def make_obs(y, sigma=0.1):
    return Observation(y=np.asarray(y, dtype=float), sigma_eps=sigma, truth={"kind": "test"})


def simpson_pressure_oracle(truth_fn, points, n_intervals=1 << 14):
    w = lambda x: np.exp(-truth_fn(x))
    denom = simpson(w, 0.0, 1.0, n_intervals)
    return np.array([2.0 * simpson(w, 0.0, t, n_intervals) / denom for t in points])


class TestModelAndField:
    def test_grid_shape(self):
        model = ForwardModel(3)
        assert model.n_nodes == 513
        assert np.isclose(model.dx * (model.n_nodes - 1), 1.0)

    @pytest.mark.parametrize("n_modes, dx", [(1, 2.0 ** -9), (511, 2.0 ** -9), (512, 2.0 ** -10),
                                             (800, 2.0 ** -10), (1023, 2.0 ** -10),
                                             (1024, 2.0 ** -11)])
    def test_default_grid_is_the_coarsest_that_resolves_every_mode(self, n_modes, dx):
        model = ForwardModel(n_modes)
        assert model.dx == dx and model.n_nodes == round(1.0 / dx) + 1

    def test_bad_dx_rejected(self):
        with pytest.raises(ValueError):
            ForwardModel(3, dx=0.3)

    def test_modes_at_nyquist_limit_rejected(self):
        # mode 512 vanishes on the 512-interval grid and 512 + m aliases to -(512 - m)
        model = ForwardModel(512, dx=2.0 ** -10)
        assert np.abs(sine_basis(model)[511, ::2]).max() < 1e-13
        ForwardModel(511, dx=2.0 ** -9)
        for n_modes in (512, 800):
            with pytest.raises(ValueError, match="Nyquist"):
                ForwardModel(n_modes, dx=2.0 ** -9)

    def test_mode_count_must_be_a_positive_integer(self):
        # 0 or -3 modes would give a zero field, and 2.5 a 3-row table that no
        # coefficient vector of shape (2.5,) could be synthesized on
        for bad in (0, -3, 2.5, 3.0, True, False, "3"):
            with pytest.raises(ValueError, match=f"n_modes must be an integer >= 1, got {bad!r}"):
                ForwardModel(bad)
        model = ForwardModel(np.int64(3))
        assert kl_to_field(np.ones(3), model).shape == (model.n_nodes,)

    def test_fft_side_allocates_no_table(self):
        tracemalloc.start()
        try:
            model = ForwardModel(800, dx=2.0 ** -10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.sine_table is None
        assert peak < 0.1 * 800 * model.n_nodes * 8

    def test_zero_coefficients(self):
        model = ForwardModel(4)
        assert np.array_equal(kl_to_field(np.zeros(4), model), np.zeros(513))

    def test_single_mode_midpoint(self):
        model = ForwardModel(4)
        u = kl_to_field(np.array([1.0, 0.0, 0.0, 0.0]), model)
        assert np.isclose(u[256], np.sqrt(2.0) / np.pi)

    def test_linearity(self):
        model = ForwardModel(6)
        rng = np.random.default_rng(0)
        x1, x2 = rng.standard_normal(6), rng.standard_normal(6)
        combo = kl_to_field(2.0 * x1 - 3.0 * x2, model)
        assert np.allclose(combo, 2.0 * kl_to_field(x1, model) - 3.0 * kl_to_field(x2, model))


class TestForward:
    def test_zero_field_linear_pressure(self):
        model = ForwardModel(4)
        assert np.allclose(forward(np.zeros(4), model), LINEAR_G, atol=1e-12)

    def test_constant_shift_invariance(self):
        model = ForwardModel(4)
        rng = np.random.default_rng(1)
        u = kl_to_field(rng.standard_normal(4), model)
        assert np.allclose(forward_from_field(u, model), forward_from_field(u + 1.7, model))

    def test_reference_truth_against_refined_quadrature(self):
        # The trapezoid + interpolation error at dx = 2^-9 is ~2e-5 for this
        # field (the node-level trapezoid error alone exceeds 1e-5), and
        # refining the grid shrinks it at second order.
        oracle = simpson_pressure_oracle(default_truth, OBS := (0.2, 0.4, 0.6, 0.8))
        coarse = ForwardModel(4)
        g_coarse = forward_from_field(default_truth(coarse.x), coarse)
        assert np.abs(g_coarse - oracle).max() < 3e-5
        fine = ForwardModel(4, dx=2.0 ** -12)
        g_fine = forward_from_field(default_truth(fine.x), fine)
        assert np.abs(g_fine - oracle).max() < 3e-5 / 32.0


class TestPhi:
    def test_perfect_fit_is_zero(self):
        model = ForwardModel(4)
        xi = np.random.default_rng(3).standard_normal(4) * 0.2
        obs = make_obs(forward(xi, model))
        assert phi(xi, obs, model)[0] == 0.0

    def test_one_sigma_residual(self):
        model = ForwardModel(4)
        xi = np.zeros(4)
        y = forward(xi, model).copy()
        y[0] += 0.1
        assert np.isclose(phi(xi, make_obs(y, sigma=0.1), model)[0], 0.5)

    def test_matches_stacked_residual_block(self):
        model = ForwardModel(6)
        rng = np.random.default_rng(4)
        xi = rng.standard_normal(6) * 0.3
        obs = make_obs(rng.standard_normal(4) + LINEAR_G)
        r = (obs.y - forward(xi, model)) / obs.sigma_eps
        assert np.isclose(phi(xi, obs, model)[0], 0.5 * r @ r)

    @pytest.mark.parametrize("n_modes, dx", [(50, 2.0 ** -9), (800, 2.0 ** -10)],
                             ids=["table", "fft"])
    def test_same_bits_as_the_array_formulas(self, n_modes, dx):
        # phi forms the residual in Python floats: the IEEE operations that
        # numpy applies elementwise to y - forward(xi), so the same bits; its
        # products call ndarray.dot, the BLAS routine that @ calls
        model = ForwardModel(n_modes, dx=dx)
        prior = PriorSpec(n_modes)
        rng = np.random.default_rng(12)
        for sigma in (0.1, 0.01):
            obs = generate_data(default_truth, sigma, model, rng)
            for scale in (0.3, 1.0, 3.0):
                for _ in range(50):
                    xi = scale * prior.sample(rng)
                    r = obs.y - forward(xi, model)
                    value, (field, w, flux) = phi(xi, obs, model)
                    assert type(value) is float
                    assert value == 0.5 * (r @ r) / obs.sigma_eps ** 2
                    if model.sine_table is not None:
                        assert np.array_equal(field, xi @ model.sine_table)
                    assert np.array_equal(w, np.exp(-field))
                    assert np.array_equal(flux, model.weights @ np.exp(-field))

    @pytest.mark.parametrize("n_modes, dx", [(50, 2.0 ** -9), (800, 2.0 ** -10)],
                             ids=["table", "fft"])
    def test_overflowing_state_gives_a_nonfinite_value(self, n_modes, dx, monkeypatch):
        # Python float division raises where numpy only warns, so phi must
        # still return a non-finite value, not raise, where e^{-u} overflows
        model = ForwardModel(n_modes, dx=dx)
        obs = make_obs(LINEAR_G)
        xi = np.zeros(n_modes)
        for bad in (-1e4, -np.inf, np.nan):
            xi[0] = bad
            with np.errstate(all="ignore"):
                assert not np.isfinite(phi(xi, obs, model)[0])
        # and an overflowing or non-finite flux gives what the array formula gives
        for flux in ([np.inf] * 5, [np.nan] * 5, [1e308] * 5, [1.0, 1.0, np.inf, 1.0, np.inf],
                     [1.0, 2.0, 3.0, 4.0, np.inf]):
            flux = np.array(flux)
            monkeypatch.setattr(elliptic, "forward_solve", lambda xi, model: (None, None, flux))
            with np.errstate(all="ignore"):
                r = obs.y - 2.0 * flux[:-1] / flux[-1]
                want = 0.5 * (r @ r) / obs.sigma_eps ** 2
            value = phi(xi, obs, model)[0]
            assert value == want or (np.isnan(value) and np.isnan(want))


class TestJacobian:
    @pytest.mark.parametrize("n_modes", [5, 20, 50])
    def test_matches_central_finite_differences(self, n_modes):
        model = ForwardModel(n_modes)
        rng = np.random.default_rng(n_modes)
        xi = rng.standard_normal(n_modes) * 0.3
        jac = jacobian(xi, model)
        h = 1e-6
        fd = np.empty_like(jac)
        for k in range(n_modes):
            e = np.zeros(n_modes)
            e[k] = h
            fd[:, k] = (forward(xi + e, model) - forward(xi - e, model)) / (2.0 * h)
        assert np.abs(jac - fd).max() < 1e-5 * np.abs(jac).max()

    def test_shape_contract(self):
        model = ForwardModel(7)
        assert jacobian(np.zeros(7), model).shape == (4, 7)

    def test_flat_field_closed_form(self):
        # At xi = 0 the derivative reduces to 2[S_x(-phi_k) - x S_1(-phi_k)];
        # the second term vanishes for even k since S_1(phi_k) = 0 there.
        model = ForwardModel(8)
        jac = jacobian(np.zeros(8), model)
        mode_flux = cumulative_trapezoid(model.sine_table, model.dx)
        closed = -2.0 * mode_flux + 2.0 * model.x[None, :] * mode_flux[:, -1:]
        assert np.allclose(jac, interp_at(closed, model.x, OBS_POINTS).T, atol=1e-13)
        k = np.arange(1, 9)
        analytic_s1 = (np.sqrt(2.0) / np.pi) * (1.0 - np.cos(k * np.pi)) / (k * np.pi)
        s1 = model.sine_table @ model.weights[-1]
        # trapezoid error on these integrals grows like k dx^2 (~1e-6 k)
        assert np.allclose(s1, analytic_s1, atol=1e-5)
        assert np.abs(s1[1::2]).max() < 1e-15

    @pytest.mark.parametrize("n_modes,dx", [(12, 2.0 ** -9), (800, 2.0 ** -10)])
    def test_a_given_solve_gives_the_same_bits_and_no_second_field(self, n_modes, dx,
                                                                   monkeypatch):
        # On both sides of FFT_MIN_SIZE, the readers of phi's solve return what
        # they return when they solve for themselves, bit for bit, and phi's
        # field is the only one synthesized.
        model = ForwardModel(n_modes, dx=dx)
        obs = make_obs(LINEAR_G + 0.05)
        rng = np.random.default_rng(n_modes)
        xi = 0.4 * rng.standard_normal(n_modes) / np.arange(1, n_modes + 1)

        def reads(solve=None):
            return (forward(xi, model, solve), jacobian(xi, model, solve),
                    qoi_exp_integral(xi, model, solve),
                    build_gamma_from_map(xi, obs, model, solve).factor)

        fresh = reads()
        fields = []
        synthesize = elliptic.kl_to_field
        for module in (elliptic, diagnostics):
            monkeypatch.setattr(module, "kl_to_field",
                                lambda x, m: fields.append(1) or synthesize(x, m))
        _, solve = phi(xi, obs, model)
        given = reads(solve)
        assert len(fields) == 1
        for a, b in zip(given, fresh, strict=True):
            assert np.array_equal(a, b)


# Table side: N <= 255 at dx 2^-9, N <= 127 at dx 2^-10; FFT side above.
@pytest.mark.parametrize("n_modes,dx", [(1, 2.0 ** -9), (5, 2.0 ** -9), (50, 2.0 ** -9),
                                        (255, 2.0 ** -9), (256, 2.0 ** -9), (400, 2.0 ** -9),
                                        (511, 2.0 ** -9), (127, 2.0 ** -10), (128, 2.0 ** -10),
                                        (800, 2.0 ** -10), (1023, 2.0 ** -10)])
def test_quadrature_operator_matches_full_grid_pipeline(n_modes, dx):
    # The weight matrix replaces a cumulative trapezoid over every node plus
    # interpolation, and the sine transform a product with the dense basis;
    # only the summation order differs, so agreement is to round-off.
    model = ForwardModel(n_modes, dx=dx)
    fft = n_modes > (255 if dx == 2.0 ** -9 else 127)
    assert (model.n_modes * model.n_nodes >= FFT_MIN_SIZE) == fft
    assert (model.sine_table is None) == fft
    rng = np.random.default_rng(n_modes)
    for _ in range(3):
        xi = 3.0 * rng.standard_normal(n_modes) / np.arange(1, n_modes + 1)
        g, jac, qoi = elliptic_pipeline(xi, model)
        assert np.abs(forward(xi, model) - g).max() <= 1e-13 * np.abs(g).max()
        assert np.abs(jacobian(xi, model) - jac).max() <= 1e-13 * np.abs(jac).max()
        assert abs(qoi_exp_integral(xi, model) - qoi) <= 1e-13 * qoi


class TestMapEstimate:
    def test_consistent_data_at_prior_mean(self):
        model = ForwardModel(6)
        prior = PriorSpec(6)
        result = map_estimate(make_obs(LINEAR_G), model, prior)
        assert result.converged
        assert np.linalg.norm(result.xi) < 1e-8

    def test_linear_surrogate_matches_ridge_solution(self, monkeypatch):
        rng = np.random.default_rng(6)
        n = 8
        prior = PriorSpec(n)
        L = rng.standard_normal((4, n))
        b = rng.standard_normal(4)
        y = rng.standard_normal(4) + b
        sigma = 0.3
        obs = make_obs(y, sigma=sigma)
        monkeypatch.setattr(elliptic, "forward", lambda x, model, solve: L @ x + b)
        monkeypatch.setattr(elliptic, "jacobian", lambda x, model, solve: L)
        result = map_estimate(obs, ForwardModel(n), prior)
        ridge = np.linalg.solve(L.T @ L / sigma**2 + np.diag(1.0 / prior.eigenvalues),
                                L.T @ (y - b) / sigma**2)
        assert result.converged
        assert np.abs(result.xi - ridge).max() < 1e-8

    def test_objective_improves_on_reference_data(self):
        model = ForwardModel(20)
        prior = PriorSpec(20)
        obs = generate_data(default_truth, 0.1, model, np.random.default_rng(7), seed=7)
        result = map_estimate(obs, model, prior)
        assert result.converged
        assert phi(result.xi, obs, model)[0] <= phi(np.zeros(20), obs, model)[0]
        rng = np.random.default_rng(8)
        for _ in range(10):
            draw = prior.sample(rng)
            assert phi(result.xi, obs, model)[0] <= phi(draw, obs, model)[0]

    def test_stop_reason_names_the_rule_that_ended_the_solve(self, monkeypatch):
        model = ForwardModel(12)
        prior = PriorSpec(12)
        # consistent data at the prior mean: zero gradient at the start
        result = map_estimate(make_obs(LINEAR_G), ForwardModel(6), PriorSpec(6))
        assert (result.stop, result.iterations, result.converged) == ("gradient", 0, True)
        obs = generate_data(default_truth, 0.01, model, np.random.default_rng(0), seed=0)
        result = map_estimate(obs, model, prior)
        assert result.stop == "step" and result.converged
        assert result.gradient_norm > 1e-8        # flagged converged above the tolerance
        with monkeypatch.context() as patch:
            patch.setattr(elliptic, "MAP_MAX_ITER", 2)
            result = map_estimate(obs, model, prior)
        assert (result.stop, result.iterations, result.converged) == ("max_iter", 2, False)
        # every candidate but the start is worse, so the damping grows until it is capped
        lin = np.random.default_rng(1).standard_normal((4, 12))
        monkeypatch.setattr(elliptic, "forward",
                            lambda x, model, solve: np.full(4, 1e6) if x.any() else np.zeros(4))
        monkeypatch.setattr(elliptic, "jacobian", lambda x, model, solve: lin)
        result = map_estimate(obs, model, prior)
        assert result.stop == "damping" and not result.converged
        assert result.iterations < 500 and not result.xi.any()

    @pytest.mark.parametrize("n_modes", [12, 300])
    def test_one_field_per_evaluated_point(self, monkeypatch, n_modes):
        # The Jacobian at an accepted point reads that point's residual solve,
        # so the solve synthesizes one field per point and keeps its bits.
        model, prior = ForwardModel(n_modes), PriorSpec(n_modes)
        obs = generate_data(default_truth, 0.01, model, np.random.default_rng(3), seed=3)
        jacobian = elliptic.jacobian
        monkeypatch.setattr(elliptic, "jacobian", lambda x, model, solve: jacobian(x, model))
        resolved = map_estimate(obs, model, prior)
        monkeypatch.setattr(elliptic, "jacobian", jacobian)
        fields = []
        synthesize = elliptic.kl_to_field
        monkeypatch.setattr(elliptic, "kl_to_field", lambda xi, model: fields.append(1)
                            or synthesize(xi, model))
        result = map_estimate(obs, model, prior)
        assert result.iterations > 2 and len(fields) == 1 + result.iterations
        assert np.array_equal(result.xi, resolved.xi)
        assert (result.iterations, result.stop) == (resolved.iterations, resolved.stop)


class TestGamma:
    def test_rank_at_most_four(self):
        model = ForwardModel(12)
        prior = PriorSpec(12)
        obs = generate_data(default_truth, 0.1, model, np.random.default_rng(9), seed=9)
        gamma = dense_gamma(build_gamma_from_map(map_estimate(obs, model, prior).xi, obs, model))
        eigs = np.sort(np.linalg.eigvalsh(gamma))[::-1]
        assert eigs.min() > -1e-12 * eigs.max()
        assert eigs[4:].max() < 1e-12 * eigs.max()

    def test_eigenvalues_match_scaled_singular_values(self):
        model = ForwardModel(10)
        rng = np.random.default_rng(10)
        xi = rng.standard_normal(10) * 0.2
        obs = make_obs(LINEAR_G, sigma=0.25)
        gamma = dense_gamma(build_gamma_from_map(xi, obs, model))
        sv = np.linalg.svd(jacobian(xi, model) / obs.sigma_eps, compute_uv=False)
        eigs = np.sort(np.linalg.eigvalsh(gamma))[::-1][:4]
        assert np.allclose(eigs, sv**2, rtol=1e-10, atol=1e-12)

    def test_averaged_curvature_is_psd_mean(self):
        model = ForwardModel(6)
        rng = np.random.default_rng(11)
        pts = [rng.standard_normal(6) * 0.2 for _ in range(3)]
        avg = dense_gamma(build_gamma_averaged(pts, 0.1, model))
        direct = sum(jacobian(p, model).T @ jacobian(p, model) for p in pts) / (3 * 0.01)
        assert np.allclose(avg, direct)
        with pytest.raises(ValueError):
            build_gamma_averaged([], 0.1, model)


class TestLinearPosterior:
    def test_uninformative_data(self):
        prior = PriorSpec(3)
        m, cov = linear_posterior(np.zeros((2, 3)), np.zeros(2), np.ones(2),
                                  np.eye(2), prior)
        assert np.allclose(m, 0.0)
        assert np.allclose(cov, np.diag(prior.eigenvalues))

    def test_scalar_conjugate_case(self):
        prior = PriorSpec(1, eigenvalues=np.array([1.0]))
        m, cov = linear_posterior(np.array([[1.0]]), np.array([0.0]), np.array([2.0]),
                                  np.array([[1.0]]), prior)
        assert np.isclose(m[0], 1.0)
        assert np.isclose(cov[0, 0], 0.5)

    def test_woodbury_agreement(self):
        rng = np.random.default_rng(12)
        prior = PriorSpec(7)
        L = rng.standard_normal((4, 7))
        Sigma = np.diag(rng.uniform(0.5, 1.5, 4))
        _, cov = linear_posterior(L, np.zeros(4), rng.standard_normal(4), Sigma, prior)
        c = np.diag(prior.eigenvalues)
        woodbury = c - c @ L.T @ np.linalg.solve(L @ c @ L.T + Sigma, L @ c)
        assert np.abs(cov - woodbury).max() < 1e-10

    def test_singular_system_rejected(self):
        prior = PriorSpec(2)
        with pytest.raises(ValueError, match="singular"):
            linear_posterior(np.zeros((2, 2)), np.zeros(2), np.ones(2),
                             np.zeros((2, 2)), prior)


class TestGenerateData:
    def test_zero_noise_limit(self):
        model = ForwardModel(4)
        rng = np.random.default_rng(13)
        obs = generate_data(default_truth, 1e-14, model, rng)
        clean = forward_from_field(default_truth(model.x), model)
        assert np.abs(obs.y - clean).max() < 1e-12

    def test_seeded_reproducibility(self):
        model = ForwardModel(4)
        a = generate_data(default_truth, 0.1, model, np.random.default_rng(77), seed=77)
        b = generate_data(default_truth, 0.1, model, np.random.default_rng(77), seed=77)
        assert np.array_equal(a.y, b.y)

    def test_noise_scale(self):
        model = ForwardModel(4)
        rng = np.random.default_rng(14)
        clean = forward_from_field(default_truth(model.x), model)
        resid = np.concatenate([generate_data(default_truth, 0.3, model, rng).y - clean
                                for _ in range(10000)])
        assert abs(resid.std() - 0.3) < 0.03 * 0.3

    def test_coefficient_truth_and_json_round_trip(self):
        model = ForwardModel(6)
        rng = np.random.default_rng(15)
        coeffs = np.array([0.0, np.sqrt(2.0) * np.pi])   # equals the reference field
        obs = generate_data(coeffs, 0.05, model, rng, seed=15)
        assert obs.truth["kind"] == "coefficients"
        back = observation_from_json(obs.to_json())
        assert np.array_equal(back.y, obs.y)
        assert back.sigma_eps == obs.sigma_eps and back.seed == 15
        parsed = json.loads(obs.to_json())
        assert set(parsed) == {"y", "sigma_eps", "truth", "seed"}

    def test_nonpositive_or_nonfinite_noise_rejected(self):
        for sigma in (0.0, -0.1, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                Observation(np.zeros(4), sigma, {"kind": "test"})

    def test_data_must_hold_one_finite_datum_per_observation_point(self):
        # one datum would broadcast against the four predictions in phi
        for shape in ((1,), (5,), (1, 4)):
            with pytest.raises(ValueError, match=rf"shape \(4,\), got shape \({shape[0]},"):
                Observation(np.full(shape, 0.5), 0.1, {"kind": "test"})
        for bad, name in ((np.nan, "nan"), (np.inf, "inf")):
            y = np.array([0.4, 0.8, bad, np.nan])
            with pytest.raises(ValueError, match=rf"y must be finite, got y\[2\] = {name}"):
                Observation(y, 0.1, {"kind": "test"})
        assert len(OBS_POINTS) == 4 and make_obs(LINEAR_G).y.shape == (4,)

    def test_coefficient_truth_matches_function_truth(self):
        model = ForwardModel(6)
        coeffs = np.array([0.0, np.sqrt(2.0) * np.pi])
        ga = generate_data(coeffs, 1e-14, model, np.random.default_rng(0)).y
        gb = generate_data(default_truth, 1e-14, model, np.random.default_rng(0)).y
        assert np.abs(ga - gb).max() < 1e-10
