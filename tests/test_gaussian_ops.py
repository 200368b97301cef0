from dataclasses import replace

import numpy as np
import pytest

from gpcn.gaussian_ops import (
    FactoredGamma,
    PriorSpec,
    admissible_exponent_bound,
    build_operator_pack,
    integrability_bound,
    log_pi_gamma,
    log_rho_gamma,
)
from helpers import (
    dense_operators,
    gaussian_logpdf,
    log_pi_cm,
    oracle_log_pi_gamma,
    oracle_log_rho_gamma,
    random_factor,
    sampler_operators,
)


def diag_prior():
    return PriorSpec(2, eigenvalues=np.array([1.0, 0.25]))


def random_pack(n, rng, s=None, scale=1.0):
    prior = PriorSpec(n)
    gamma = random_factor(n, rng, scale=scale)
    s = rng.uniform(0.1, 0.9) if s is None else s
    return build_operator_pack(prior, gamma, s)


class TestPriorSpec:
    def test_default_spectrum_is_inverse_squares(self):
        prior = PriorSpec(4)
        assert np.allclose(prior.eigenvalues, [1.0, 0.25, 1.0 / 9.0, 0.0625])

    def test_rejects_nonpositive_eigenvalues(self):
        with pytest.raises(ValueError):
            PriorSpec(2, eigenvalues=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_eigenvalues(self, bad):
        # NaN compares False with 0, and an infinite variance gives no Gaussian prior
        with pytest.raises(ValueError, match=r"eigenvalues\[0\] = (nan|inf)"):
            PriorSpec(2, eigenvalues=np.array([bad, 1.0]))

    def test_rejects_bad_dim(self):
        for bad in (0, -3, 2.5, 3.0, True, False, "3", None):
            with pytest.raises(ValueError, match=f"dim must be an integer >= 1, got {bad!r}"):
                PriorSpec(bad)
        assert PriorSpec(np.int64(3)).eigenvalues.shape == (3,)

    def test_equality_and_hash_do_not_raise(self):
        # ndarray fields: equality and hashing are by identity, not by value.
        prior = PriorSpec(3)
        assert (PriorSpec(3) == PriorSpec(3)) is False and prior == prior
        assert isinstance(hash(PriorSpec(3)), int)
        pack = build_operator_pack(prior, FactoredGamma(np.eye(3)), 0.5)
        assert pack == pack and isinstance(hash(pack), int)


class TestBuildOperatorPack:
    def test_zero_gamma_collapses_to_plain_operators(self):
        prior = PriorSpec(5)
        z = np.random.default_rng(1).standard_normal(5)
        for s in (0.0, 0.3, 0.9):
            pack = build_operator_pack(prior, FactoredGamma(np.zeros((0, 5))), s)
            assert np.array_equal(pack.apply_a(z), np.sqrt(1.0 - s * s) * z)
            assert np.array_equal(pack.scaled_noise(z), s * (prior.std * z))
            assert pack.h_norm == 0.0 and pack.logdet_ih == 0.0 and pack.cm_norm == 0.0

    def test_diagonal_case_scalar_values(self):
        # C = diag(1, 1/4), Gamma = diag(3, 4), s = 1/2: everything commutes, so
        # H = diag(3, 1), C_Gamma = diag(1/4, 1/8), A^2 = diag(15/16, 7/8).
        pack = build_operator_pack(diag_prior(), FactoredGamma(np.diag(np.sqrt([3.0, 4.0]))), 0.5)
        a, root = sampler_operators(pack)
        assert np.allclose((pack.v * pack.w) @ pack.v.T, np.diag([3.0, 1.0]))
        assert np.allclose(root @ root.T, np.diag([0.25, 0.125]))
        assert np.allclose(a @ a, np.diag([15.0 / 16.0, 7.0 / 8.0]))
        c = np.diag([1.0, 0.25])
        assert np.allclose(a @ c @ a.T + 0.25 * root @ root.T, c)

    def test_reversibility_identities_random_dense(self):
        rng = np.random.default_rng(11)
        prior = PriorSpec(10)
        pack = build_operator_pack(prior, random_factor(10, rng), 0.3)
        a, root = sampler_operators(pack)
        c = np.diag(prior.eigenvalues)
        resid = a @ c @ a.T + 0.3**2 * root @ root.T - c
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(c)
        assert np.linalg.norm(a @ c - c @ a.T) < 1e-10 * np.linalg.norm(c)

    def test_rejects_bad_inputs(self):
        prior = PriorSpec(3)
        zero = FactoredGamma(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            build_operator_pack(prior, zero, 1.0)
        with pytest.raises(ValueError):
            build_operator_pack(prior, zero, -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_factor(self, bad):
        # unchecked, NaN fails inside the SVD and inf yields a pack with w = [nan]
        factor = np.array([[1.0, 1.0, 2.0], [0.5, 0.0, 1.0]])
        factor[1, 2] = bad
        with pytest.raises(ValueError, match=r"factor\[1,2\] = (nan|inf)"):
            build_operator_pack(PriorSpec(3), FactoredGamma(factor), 0.5)

    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            gamma = random_factor(n, rng, scale=float(rng.uniform(0.2, 4.0)))
            pack = build_operator_pack(PriorSpec(n), gamma, rng.uniform(0.1, 0.9))
            a, root = sampler_operators(pack)
            ops = dense_operators(pack.prior, gamma, pack.s)
            c = ops["c"]
            cn = np.linalg.norm(c)
            assert np.linalg.norm(a @ c @ a.T + pack.s**2 * root @ root.T - c) < 1e-9 * cn
            assert np.linalg.norm(a @ c - c @ a.T) < 1e-9 * cn
            assert np.linalg.norm(ops["b_half"] @ ops["b_half"] - a) < 1e-9
            assert np.linalg.eigvalsh(0.5 * (ops["d"] + ops["d"].T)).min() >= -1e-10
            assert np.allclose(root @ root.T, ops["c_gamma"])

    def test_factor_pack_matches_dense_reference(self):
        # The sampling path (apply_a, scaled_noise, log_pi_gamma, log_rho_gamma)
        # against oracles built from Gamma itself, so a wrong V or w shows up.
        # r = 0, 0 < r < N, r = N, and r > N (stacked linearizations, as for averaged Gamma)
        rng = np.random.default_rng(37)
        for n, r in ((6, 0), (7, 3), (8, 12), (5, 5), (12, 4)):
            prior = PriorSpec(n)
            factor = rng.standard_normal((r, n))
            s0 = float(rng.uniform(0.1, 0.9))
            u, v = prior.sample(rng), prior.sample(rng)
            for s in (s0, 0.1, 0.5, 0.9):
                ops = dense_operators(prior, factor.T @ factor, s)
                pack = build_operator_pack(prior, FactoredGamma(factor), s)
                a, root = sampler_operators(pack)
                assert np.abs(a - ops["a"]).max() < 1e-12
                # R R^T = C_Gamma; R itself is not symmetric
                assert np.abs(root @ root.T - ops["c_gamma"]).max() < 1e-12
                for name in ("logdet_ih", "h_norm", "cm_norm"):
                    assert abs(getattr(pack, name) - ops[name]) < 1e-12, name
                for got, want in ((log_pi_gamma(pack, v), oracle_log_pi_gamma(ops, v)),
                                  (log_rho_gamma(pack, u, v), oracle_log_rho_gamma(ops, u, v))):
                    assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_pack_memory_is_linear_in_n(self):
        n, r = 2000, 4
        prior = PriorSpec(n)
        pack = build_operator_pack(prior, FactoredGamma(np.random.default_rng(41).standard_normal((r, n))), 0.5)
        arrays = [value for value in vars(pack).values() if isinstance(value, np.ndarray)]
        assert arrays and all(value.size <= n * r for value in arrays)
        assert sum(value.nbytes for value in arrays) <= 8 * 8 * n * r

    def test_larger_step_contracts_the_mean_operator(self):
        prior = PriorSpec(6)
        zero = FactoredGamma(np.zeros((0, 6)))
        diags = [np.diag(sampler_operators(build_operator_pack(prior, zero, s))[0])
                 for s in (0.1, 0.4, 0.8)]
        assert np.all(diags[0] > diags[1]) and np.all(diags[1] > diags[2])


def eager_factors(pack):
    """The pack's three factors, by the formulas once evaluated eagerly on construction."""
    std, w, s = pack.prior.std, pack.w, pack.s
    a0 = np.sqrt(1.0 - s * s)
    mean_coef = np.sqrt(1.0 - s * s / (1.0 + w)) - a0
    return {"_left": std[:, None] * pack.v,
            "_mean_right": mean_coef[:, None] * (pack.v.T / std[None, :]),
            "_noise_right": (s * (1.0 / np.sqrt(1.0 + w) - 1.0))[:, None] * pack.v.T}


class TestLazyFactors:
    def test_built_on_first_use_by_the_eager_formulas(self):
        rng = np.random.default_rng(43)
        for n, r in ((6, 0), (7, 3), (5, 5), (20, 4), (8, 12)):
            pack = build_operator_pack(PriorSpec(n), FactoredGamma(rng.standard_normal((r, n))),
                                       float(rng.uniform(0.05, 0.95)))
            assert set(vars(pack)) == {"prior", "s", "v", "w", "logdet_ih", "h_norm", "a0"}
            for name, want in eager_factors(pack).items():
                got = getattr(pack, name)
                assert np.array_equal(got, want), name
                assert getattr(pack, name) is got, name          # built once, then kept

    def test_eager_terms_equal_the_reduction_formulas(self):
        # __post_init__ calls the ufunc reductions without np.sum's wrapper
        # and takes a0 by math.sqrt: the same bits as these formulas
        rng = np.random.default_rng(44)
        for n, r in ((6, 0), (7, 3), (5, 5), (20, 4), (8, 12)):
            for s in (0.0, float(rng.uniform(0.05, 0.95)), 0.999):
                pack = build_operator_pack(PriorSpec(n), FactoredGamma(rng.standard_normal((r, n))), s)
                assert pack.logdet_ih == float(np.sum(np.log1p(pack.w)))
                assert pack.h_norm == float(pack.w.max(initial=0.0))
                assert pack.a0 == np.sqrt(1.0 - s * s)
                assert {type(pack.logdet_ih), type(pack.h_norm), type(pack.a0)} == {float}

    def test_replace_rebuilds_them_at_the_new_step(self):
        pack = build_operator_pack(PriorSpec(9), random_factor(9, np.random.default_rng(47)), 0.3)
        before = {name: getattr(pack, name) for name in eager_factors(pack)}
        moved = replace(pack, s=0.7)
        assert moved.v is pack.v and moved.w is pack.w
        for name, want in eager_factors(moved).items():
            assert np.array_equal(getattr(moved, name), want), name
        assert not np.array_equal(moved._mean_right, before["_mean_right"])
        assert not np.array_equal(moved._noise_right, before["_noise_right"])
        assert np.array_equal(pack._mean_right, before["_mean_right"])


class TestDensities:
    def test_pi_cm_zero_shift(self):
        prior = PriorSpec(4)
        rng = np.random.default_rng(1)
        assert np.exp(log_pi_cm(prior, np.zeros(4), rng.standard_normal(4))) == 1.0

    def test_pi_cm_scalar_value(self):
        prior = PriorSpec(1, eigenvalues=np.array([1.0]))
        assert np.isclose(np.exp(log_pi_cm(prior, np.array([1.0]), np.array([2.0]))), np.exp(1.5))

    def test_pi_cm_integrates_to_one(self):
        # The compensating exp(-||h||_C^2 / 2) factor makes E[pi_cm(h, .)] = 1.
        prior = PriorSpec(3)
        rng = np.random.default_rng(3)
        h = 0.5 * prior.sample(rng)
        vals = np.array([np.exp(log_pi_cm(prior, h, prior.sample(rng))) for _ in range(40000)])
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) < 3.0 * se

    def test_pi_gamma_zero_gamma_is_one(self):
        prior = PriorSpec(3)
        pack = build_operator_pack(prior, FactoredGamma(np.zeros((0, 3))), 0.5)
        rng = np.random.default_rng(5)
        assert np.exp(log_pi_gamma(pack, rng.standard_normal(3))) == 1.0

    def test_pi_gamma_diagonal_determinant(self):
        pack = build_operator_pack(diag_prior(), FactoredGamma(np.diag(np.sqrt([3.0, 4.0]))), 0.5)
        assert np.isclose(np.exp(log_pi_gamma(pack, np.zeros(2))), 1.0 / np.sqrt(8.0))

    def test_pi_gamma_matches_pdf_ratio(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            gamma = random_factor(n, rng)
            pack = build_operator_pack(PriorSpec(n), gamma, rng.uniform(0.1, 0.9))
            ops = dense_operators(pack.prior, gamma, pack.s)
            v = pack.prior.sample(rng) * 2.0
            oracle = (gaussian_logpdf(v, np.zeros(n), ops["c"])
                      - gaussian_logpdf(v, np.zeros(n), ops["c_gamma"]))
            assert abs(log_pi_gamma(pack, v) - oracle) < 1e-8

    def test_pi_gamma_rebuilds_prior_pdf(self):
        rng = np.random.default_rng(13)
        gamma = random_factor(6, rng)
        pack = build_operator_pack(PriorSpec(6), gamma, rng.uniform(0.1, 0.9))
        ops = dense_operators(pack.prior, gamma, pack.s)
        v = pack.prior.sample(rng)
        lhs = log_pi_gamma(pack, v) + gaussian_logpdf(v, np.zeros(6), ops["c_gamma"])
        rhs = gaussian_logpdf(v, np.zeros(6), ops["c"])
        assert abs(lhs - rhs) < 1e-8


class TestLogRhoGamma:
    def test_zero_gamma_gives_zero(self):
        prior = PriorSpec(4)
        pack = build_operator_pack(prior, FactoredGamma(np.zeros((0, 4))), 0.6)
        rng = np.random.default_rng(2)
        assert log_rho_gamma(pack, prior.sample(rng), prior.sample(rng)) == 0.0

    def test_matches_gaussian_pdf_ratio(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 21))
            gamma = random_factor(n, rng)
            pack = build_operator_pack(PriorSpec(n), gamma, rng.uniform(0.1, 0.9))
            ops = dense_operators(pack.prior, gamma, pack.s)
            u, v = pack.prior.sample(rng), pack.prior.sample(rng)
            s = pack.s
            oracle = (gaussian_logpdf(v, np.sqrt(1 - s * s) * u, s * s * ops["c"])
                      - gaussian_logpdf(v, ops["a"] @ u, s * s * ops["c_gamma"]))
            assert abs(log_rho_gamma(pack, u, v) - oracle) < 1e-8

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(19)
        pack = random_pack(8, rng)
        u, v = pack.prior.sample(rng), pack.prior.sample(rng)
        assert np.isclose(log_rho_gamma(pack, u, v), log_rho_gamma(pack, v, u), atol=1e-10)

    def test_value_at_proposal_mean(self):
        # At v = A u both factors collapse to their closed forms; the shift in
        # the mean-change factor carries the 1/s from the change of variables.
        rng = np.random.default_rng(21)
        pack = random_pack(7, rng, s=0.4)
        u = pack.prior.sample(rng)
        mean = pack.apply_a(u)
        shift = (pack.a0 * u - mean) / pack.prior.std / pack.s     # C^{-1/2} Delta u / s
        expected = -0.5 * shift @ shift - 0.5 * pack.logdet_ih
        assert np.isclose(log_rho_gamma(pack, u, mean), expected)

    def test_rejects_degenerate_step(self):
        rng = np.random.default_rng(4)
        pack = build_operator_pack(PriorSpec(3), random_factor(3, rng), 0.0)
        with pytest.raises(ValueError):
            log_rho_gamma(pack, np.zeros(3), np.zeros(3))

    def test_r_coordinates_match_the_composition_of_the_two_factors(self):
        # The reference is the N-space composition log_pi_cm(Delta u / s, t)
        # + log_pi_gamma(t), t = (v - A u) / s, evaluated at the proposal's
        # own draws v and at prior draws.
        rng = np.random.default_rng(59)
        for _ in range(300):
            n, r = int(rng.integers(2, 51)), int(rng.integers(0, 5))
            prior = PriorSpec(n)
            pack = build_operator_pack(prior, FactoredGamma(rng.standard_normal((r, n))),
                                       float(rng.uniform(0.05, 0.95)))
            u = prior.sample(rng)
            for v in (pack.apply_a(u) + pack.scaled_noise(rng.standard_normal(n)), prior.sample(rng)):
                range_part = pack._left @ (pack._mean_right @ u)        # A u - a0 u = -Delta u
                t = (v - pack.a0 * u - range_part) / pack.s
                want = log_pi_cm(prior, -range_part / pack.s, t) + log_pi_gamma(pack, t)
                got = log_rho_gamma(pack, u, v)
                assert abs(got - want) <= 1e-12 * abs(want), (n, r, got, want)


class TestIntegrabilityBound:
    def test_zero_gamma_equality_case(self):
        prior = PriorSpec(5)
        pack = build_operator_pack(prior, FactoredGamma(np.zeros((0, 5))), 0.5)
        for p in (0.3, 1.0, 5.0):
            assert integrability_bound(pack, p, np.ones(5)) == (1.0, 1.0)

    def test_admissible_range_from_diagonal_example(self):
        pack = build_operator_pack(diag_prior(), FactoredGamma(np.diag(np.sqrt([3.0, 4.0]))), 0.5)
        assert np.isclose(admissible_exponent_bound(pack), 7.0 / 6.0)
        with pytest.raises(ValueError, match="admissible"):
            integrability_bound(pack, 1.2, np.zeros(2))

    def test_moment_at_p_equal_one_is_one(self):
        rng = np.random.default_rng(29)
        pack = random_pack(6, rng)
        exact, bound = integrability_bound(pack, 1.0, pack.prior.sample(rng))
        assert np.isclose(exact, 1.0)
        assert exact <= bound + 1e-12

    def test_exact_below_bound_and_matches_monte_carlo(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(2, 11))
            pack = random_pack(n, rng)
            u = pack.prior.sample(rng)
            p = min(1.01, 0.5 * (1.0 + admissible_exponent_bound(pack)))
            exact, bound = integrability_bound(pack, p, u)
            assert exact <= bound * (1.0 + 1e-12)
            _, root = sampler_operators(pack)
            draws = pack.apply_a(u) + pack.s * (rng.standard_normal((20000, n)) @ root.T)
            vals = np.exp([p * log_rho_gamma(pack, u, v) for v in draws])
            se = vals.std() / np.sqrt(len(vals))
            assert abs(vals.mean() - exact) < 3.0 * se + 1e-12
