from dataclasses import replace

import numpy as np
import pytest

from gpcn.gaussian_ops import FactoredGamma, PriorSpec, build_operator_pack, log_rho_gamma
from gpcn.proposals import (
    LOCAL_VARIANTS,
    PACK_VARIANTS,
    VARIANTS,
    ProposalKernel,
    log_acceptance_correction,
    proposal_mean,
    proposal_noise,
    propose,
)
from helpers import (
    dense_operators,
    gaussian_logpdf,
    kernel_for,
    random_factor,
    sampler_operators,
)


def draw(kernel, u, rng):
    """One candidate from u: one standard normal draw and the pack at u."""
    return propose(kernel, u, rng.standard_normal(kernel.prior.dim), kernel.pack_at(u, None))


def correction(kernel, u, v):
    """The acceptance correction with the packs at u and v, as a chain looks them up."""
    return log_acceptance_correction(kernel, u, v, kernel.pack_at(u, None), kernel.pack_at(v, None))


def make_gamma_map(base):
    """(u, aux) -> Gamma(u) = base + u u^T / (1 + |u|^2), as the stacked factor."""
    def gamma_map(u, aux):
        return FactoredGamma(np.vstack([base.factor, u / np.sqrt(1.0 + u @ u)]))
    return gamma_map


def proposal_log_density(kernel, u, v, gamma=None):
    """Direct finite-dimensional proposal density q(u, v) for any variant, from
    the dense oracles; ``gamma`` is the curvature of gn-rw and gpcn."""
    prior, s = kernel.prior, kernel.s
    c = np.diag(prior.eigenvalues)
    if kernel.variant == "rw":
        return gaussian_logpdf(v, u, s * s * c)
    if kernel.variant == "pcn":
        return gaussian_logpdf(v, np.sqrt(1 - s * s) * u, s * s * c)
    if kernel.variant in ("gn-rw", "gpcn"):
        if gamma is None:
            raise ValueError(f"{kernel.variant} needs its gamma")
        ops = dense_operators(prior, gamma, s)
        mean = u if kernel.variant == "gn-rw" else ops["a"] @ u
        return gaussian_logpdf(v, mean, s * s * ops["c_gamma"])
    ops = dense_operators(prior, kernel.gamma_map(u, None), s)
    mean = ops["a"] @ u if kernel.variant == "local-gpcn" else np.sqrt(1 - s * s) * u
    return gaussian_logpdf(v, mean, s * s * ops["c_gamma"])


def prior_logpdf(prior, u):
    return gaussian_logpdf(u, np.zeros(prior.dim), np.diag(prior.eigenvalues))


def assert_hastings_identity(kernel, u, v, tol=1e-8, gamma=None):
    """The correction must equal the full finite-dimensional Hastings term
    log[pi(v) q(v,u)] - log[pi(u) q(u,v)] + phi(v) - phi(u), which reduces to
    the prior-density and proposal-density pieces below; this is exactly what
    makes min{1, exp(phi(u) - phi(v) + correction)} target the posterior.
    """
    prior = kernel.prior
    expected = (prior_logpdf(prior, v) - prior_logpdf(prior, u)
                + proposal_log_density(kernel, v, u, gamma) - proposal_log_density(kernel, u, v, gamma))
    assert abs(correction(kernel, u, v) - expected) < tol


class TestPropose:
    def test_pcn_zero_step_is_identity(self):
        prior = PriorSpec(5)
        rng = np.random.default_rng(0)
        u = prior.sample(rng)
        assert np.array_equal(draw(ProposalKernel("pcn", prior, 0.0), u, rng), u)

    def test_gpcn_with_zero_gamma_equals_pcn_pathwise(self):
        prior = PriorSpec(6)
        kernel = ProposalKernel("gpcn", prior, 0.45, gamma=FactoredGamma(np.zeros((0, 6))))
        u = PriorSpec(6).sample(np.random.default_rng(3))
        v_gpcn = draw(kernel, u, np.random.default_rng(99))
        v_pcn = draw(ProposalKernel("pcn", prior, 0.45), u, np.random.default_rng(99))
        assert np.array_equal(v_gpcn, v_pcn)

    def test_rw_replays_seeded_draw(self):
        prior = PriorSpec(2, eigenvalues=np.array([1.0, 0.25]))
        u = np.array([1.0, 1.0])
        v = draw(ProposalKernel("rw", prior, 0.5), u, np.random.default_rng(123))
        z = np.random.default_rng(123).standard_normal(2)
        assert np.allclose(v, u + 0.5 * np.array([1.0, 0.5]) * z)

    def test_gpcn_empirical_moments(self):
        rng = np.random.default_rng(8)
        prior = PriorSpec(2, eigenvalues=np.array([1.0, 0.25]))
        gamma = random_factor(2, rng, scale=2.0)
        kernel = ProposalKernel("gpcn", prior, 0.5, gamma=gamma)
        u = np.array([0.7, -0.4])
        draws = np.array([draw(kernel, u, rng) for _ in range(100000)])
        ops = dense_operators(prior, gamma, 0.5)
        assert np.allclose(draws.mean(axis=0), ops["a"] @ u, atol=0.01)
        assert np.allclose(np.cov(draws.T), 0.25 * ops["c_gamma"], rtol=0.05, atol=0.002)

    def test_local_variants_mean_structure(self):
        rng = np.random.default_rng(10)
        prior = PriorSpec(4)
        base = random_factor(4, rng)
        u = prior.sample(rng)
        for variant, uses_adapted_mean in (("local-gpcn", True), ("local-gpcn2", False)):
            kernel = ProposalKernel(variant, prior, 0.35, gamma_map=make_gamma_map(base))
            pack = kernel.pack_at(u, None)
            draws = np.array([propose(kernel, u, rng.standard_normal(4), pack) for _ in range(50000)])
            mean = pack.apply_a(u) if uses_adapted_mean else np.sqrt(1 - 0.35**2) * u
            assert np.allclose(draws.mean(axis=0), mean, atol=0.01)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_mean_and_noise_are_the_product_formulas(self, variant):
        # proposal_noise builds the noise in a new array, which mh_step adds
        # the mean into, and the pack's products call ndarray.dot: the same
        # bits as these formulas, with z left untouched
        rng = np.random.default_rng(14)
        for n, r in ((1, 1), (6, 0), (7, 3), (30, 4)):
            prior = PriorSpec(n)
            gamma = FactoredGamma(rng.standard_normal((r, n)))
            kernel = kernel_for(variant, prior, 0.43, gamma=gamma, gamma_map=make_gamma_map(gamma))
            for _ in range(20):
                u, z = prior.sample(rng), rng.standard_normal(n)
                pack = kernel.pack_at(u, None)
                z_before = z.copy()
                noise = proposal_noise(kernel, z, pack)
                if variant in ("rw", "pcn"):
                    want = kernel.s * (prior.std * z)
                else:
                    want = pack.s * (prior.std * z) + pack._left @ (pack._noise_right @ z)
                assert np.array_equal(noise, want)
                assert not np.shares_memory(noise, z) and np.array_equal(z, z_before)
                mean = proposal_mean(kernel, u, pack)
                if variant == "pcn":
                    assert np.array_equal(mean, np.sqrt(1.0 - kernel.s * kernel.s) * u)
                elif variant in ("gpcn", "local-gpcn"):
                    assert np.array_equal(mean, pack.a0 * u + pack._left @ (pack._mean_right @ u))
                v = propose(kernel, u, z, pack)
                assert np.array_equal(v, mean + want)
                assert np.array_equal(z, z_before)


class TestCorrections:
    def test_prior_reversible_variants_need_none(self):
        prior = PriorSpec(3)
        rng = np.random.default_rng(1)
        gamma = random_factor(3, rng)
        u, v = prior.sample(rng), prior.sample(rng)
        assert correction(ProposalKernel("pcn", prior, 0.4), u, v) == 0.0
        assert correction(ProposalKernel("gpcn", prior, 0.4, gamma=gamma), u, v) == 0.0

    def test_symmetric_walks_carry_prior_ratio(self):
        # rw / gn-rw are Lebesgue-symmetric, not prior-reversible; the prior
        # log-density ratio is exactly what restores reversibility for the
        # posterior, as the detailed-balance identity below verifies.
        prior = PriorSpec(4)
        rng = np.random.default_rng(2)
        gamma = random_factor(4, rng)
        u, v = prior.sample(rng), prior.sample(rng)
        expected = prior_logpdf(prior, v) - prior_logpdf(prior, u)
        for variant in ("rw", "gn-rw"):
            kernel = kernel_for(variant, prior, 0.4, gamma=gamma)
            assert np.isclose(correction(kernel, u, v), expected, atol=1e-10)
            assert_hastings_identity(kernel, u, v, gamma=gamma)

    def test_prior_reversibility_holds_for_pcn_gpcn_fails_for_rw(self):
        rng = np.random.default_rng(5)
        prior = PriorSpec(5)
        gamma = random_factor(5, rng)
        kernels = [kernel_for(variant, prior, 0.6, gamma=gamma) for variant in ("pcn", "gpcn")]
        for _ in range(10):
            u, v = prior.sample(rng), prior.sample(rng)
            for kernel in kernels:
                lhs = proposal_log_density(kernel, u, v, gamma) + prior_logpdf(prior, u)
                rhs = proposal_log_density(kernel, v, u, gamma) + prior_logpdf(prior, v)
                assert abs(lhs - rhs) < 1e-8
            kernel = ProposalKernel("rw", prior, 0.6)
            lhs = proposal_log_density(kernel, u, v) + prior_logpdf(prior, u)
            rhs = proposal_log_density(kernel, v, u) + prior_logpdf(prior, v)
            assert abs(lhs - rhs) > 1e-3

    def test_local_constant_map_reduces_to_global_gpcn(self):
        rng = np.random.default_rng(7)
        prior = PriorSpec(4)
        gamma = random_factor(4, rng)
        kernel = ProposalKernel("local-gpcn", prior, 0.5, gamma_map=lambda u, aux: gamma)
        u, v = prior.sample(rng), prior.sample(rng)
        assert correction(kernel, u, v) == 0.0
        # and the defining difference of density factors is itself ~0
        pack = build_operator_pack(prior, gamma, 0.5)
        assert abs(log_rho_gamma(pack, u, v) - log_rho_gamma(pack, v, u)) < 1e-8

    def test_local_correction_antisymmetric(self):
        rng = np.random.default_rng(9)
        prior = PriorSpec(5)
        gamma_map = make_gamma_map(random_factor(5, rng))
        for variant in LOCAL_VARIANTS:
            kernel = ProposalKernel(variant, prior, 0.4, gamma_map=gamma_map)
            u, v = prior.sample(rng), prior.sample(rng)
            fwd = correction(kernel, u, v)
            bwd = correction(kernel, v, u)
            assert np.isclose(fwd, -bwd, atol=1e-10)
            assert abs(fwd) > 1e-6  # genuinely state dependent

    def test_local_detailed_balance_density_identity(self):
        # q(u,v) pdf0(u) exp(correction part at (u,v)) symmetric in (u,v):
        # equivalently the correction equals the full Hastings term.
        rng = np.random.default_rng(13)
        prior = PriorSpec(4)
        gamma_map = make_gamma_map(random_factor(4, rng))
        for variant in LOCAL_VARIANTS:
            kernel = ProposalKernel(variant, prior, 0.45, gamma_map=gamma_map)
            for _ in range(10):
                u, v = prior.sample(rng), prior.sample(rng)
                assert_hastings_identity(kernel, u, v)

    def test_local_requires_positive_step(self):
        prior = PriorSpec(3)
        for variant in LOCAL_VARIANTS:
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                ProposalKernel(variant, prior, 0.0,
                               gamma_map=lambda u, aux: FactoredGamma(np.zeros((0, 3))))


class TestKernelPlumbing:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ProposalKernel("mala", PriorSpec(2), 0.5)

    def test_pack_required_for_adapted_variants(self):
        for variant in PACK_VARIANTS:
            with pytest.raises(ValueError, match="requires a gamma$"):
                ProposalKernel(variant, PriorSpec(2), 0.5)
        for variant in LOCAL_VARIANTS:
            with pytest.raises(ValueError, match="requires a gamma_map"):
                ProposalKernel(variant, PriorSpec(2), 0.5)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_curvature_the_variant_does_not_read_is_rejected(self, variant):
        # pcn given a gamma would otherwise run as plain pcn, and gpcn given a
        # gamma_map would never call it: the caller meant another sampler.
        prior = PriorSpec(2)
        eye = FactoredGamma(np.eye(2))
        read = {"gamma": eye if variant in PACK_VARIANTS else None,
                "gamma_map": (lambda u, aux: eye) if variant in LOCAL_VARIANTS else None}
        for name, value in (("gamma", eye), ("gamma_map", lambda u, aux: eye)):
            if read[name] is None:
                with pytest.raises(ValueError, match=f"^{variant} takes no {name}$"):
                    ProposalKernel(variant, prior, 0.5, **{**read, name: value})
        assert ProposalKernel(variant, prior, 0.5, **read).variant == variant

    @pytest.mark.parametrize("variant", PACK_VARIANTS)
    def test_pack_must_share_the_kernel_prior(self, variant):
        # The kernel builds its pack on its own prior, so a factor whose
        # column count is not the prior's dimension fails to build one.
        prior = PriorSpec(3)
        for cols in (2, 4):
            with pytest.raises(ValueError, match=r"shape \(r, 3\)"):
                ProposalKernel(variant, prior, 0.5, gamma=FactoredGamma(np.eye(cols)))
        kernel = ProposalKernel(variant, prior, 0.5, gamma=FactoredGamma(np.eye(3)))
        assert kernel.pack.prior is prior and kernel.pack.s == 0.5

    def test_replace_rebuilds_pack(self):
        rng = np.random.default_rng(3)
        prior = PriorSpec(4)
        gamma = random_factor(4, rng)
        u = prior.sample(rng)
        for variant in PACK_VARIANTS:
            kernel = ProposalKernel(variant, prior, 0.3, gamma=gamma)
            rescaled = replace(kernel, s=0.7)
            fresh = ProposalKernel(variant, prior, 0.7, gamma=gamma)
            assert rescaled.s == rescaled.pack.s == 0.7 and rescaled.gamma is gamma
            assert np.array_equal(rescaled.pack.v, fresh.pack.v)
            assert np.array_equal(rescaled.pack.w, fresh.pack.w)
            v = draw(rescaled, u, np.random.default_rng(5))
            assert np.array_equal(v, draw(fresh, u, np.random.default_rng(5)))
            assert not np.allclose(v, draw(kernel, u, np.random.default_rng(5)))
        # the rebuilt gpcn pack is prior-reversible at the new s: A C A^T + s^2 R R^T = C
        a, root = sampler_operators(replace(ProposalKernel("gpcn", prior, 0.3, gamma=gamma),
                                            s=0.7).pack)
        c = np.diag(prior.eigenvalues)
        assert np.linalg.norm(a @ c @ a.T + 0.49 * root @ root.T - c) < 1e-10

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_nonfinite_step_rejected(self, variant):
        prior = PriorSpec(3)
        eye = FactoredGamma(np.eye(3))
        for s in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                kernel_for(variant, prior, s, gamma=eye, gamma_map=lambda u, aux: eye)

    def test_dense_gamma_is_a_type_error(self):
        # An N x N array is also the (N, N) factor of another Gamma, so only a
        # FactoredGamma says which curvature is meant.
        prior = PriorSpec(3)
        with pytest.raises(TypeError, match="FactoredGamma, got ndarray"):
            build_operator_pack(prior, np.eye(3), 0.5)
        for variant in PACK_VARIANTS:
            with pytest.raises(TypeError, match="FactoredGamma, got ndarray"):
                ProposalKernel(variant, prior, 0.5, gamma=np.eye(3))
        for variant in LOCAL_VARIANTS:
            kernel = ProposalKernel(variant, prior, 0.5, gamma_map=lambda u, aux: np.eye(3))
            with pytest.raises(TypeError, match="FactoredGamma, got ndarray"):
                kernel.pack_at(np.zeros(3), None)

    def test_rw_allows_step_above_one(self):
        kernel = ProposalKernel("rw", PriorSpec(2), 1.7)
        assert kernel.s == 1.7
