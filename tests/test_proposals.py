import numpy as np
import pytest

from gpcn.gaussian_ops import FactoredGamma, PriorSpec, build_operator_pack, log_rho_gamma
from gpcn.proposals import (
    VARIANTS,
    ProposalKernel,
    gauss_newton_rw,
    gpcn,
    local_gpcn,
    local_gpcn2,
    log_acceptance_correction,
    pcn,
    propose,
    random_walk,
)
from helpers import dense_operators, gaussian_logpdf, random_factor, sampler_operators


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
        assert np.array_equal(draw(pcn(prior, 0.0), u, rng), u)

    def test_gpcn_with_zero_gamma_equals_pcn_pathwise(self):
        prior = PriorSpec(6)
        pack = build_operator_pack(prior, FactoredGamma(np.zeros((0, 6))), 0.45)
        u = PriorSpec(6).sample(np.random.default_rng(3))
        v_gpcn = draw(gpcn(pack), u, np.random.default_rng(99))
        v_pcn = draw(pcn(prior, 0.45), u, np.random.default_rng(99))
        assert np.array_equal(v_gpcn, v_pcn)

    def test_rw_replays_seeded_draw(self):
        prior = PriorSpec(2, eigenvalues=np.array([1.0, 0.25]))
        u = np.array([1.0, 1.0])
        v = draw(random_walk(prior, 0.5), u, np.random.default_rng(123))
        z = np.random.default_rng(123).standard_normal(2)
        assert np.allclose(v, u + 0.5 * np.array([1.0, 0.5]) * z)

    def test_gpcn_empirical_moments(self):
        rng = np.random.default_rng(8)
        prior = PriorSpec(2, eigenvalues=np.array([1.0, 0.25]))
        gamma = random_factor(2, rng, scale=2.0)
        pack = build_operator_pack(prior, gamma, 0.5)
        kernel = gpcn(pack)
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
        for factory, uses_adapted_mean in ((local_gpcn, True), (local_gpcn2, False)):
            kernel = factory(prior, make_gamma_map(base), 0.35)
            pack = kernel.pack_at(u, None)
            draws = np.array([propose(kernel, u, rng.standard_normal(4), pack) for _ in range(50000)])
            mean = pack.apply_a(u) if uses_adapted_mean else np.sqrt(1 - 0.35**2) * u
            assert np.allclose(draws.mean(axis=0), mean, atol=0.01)


class TestCorrections:
    def test_prior_reversible_variants_need_none(self):
        prior = PriorSpec(3)
        rng = np.random.default_rng(1)
        pack = build_operator_pack(prior, random_factor(3, rng), 0.4)
        u, v = prior.sample(rng), prior.sample(rng)
        assert correction(pcn(prior, 0.4), u, v) == 0.0
        assert correction(gpcn(pack), u, v) == 0.0

    def test_symmetric_walks_carry_prior_ratio(self):
        # rw / gn-rw are Lebesgue-symmetric, not prior-reversible; the prior
        # log-density ratio is exactly what restores reversibility for the
        # posterior, as the detailed-balance identity below verifies.
        prior = PriorSpec(4)
        rng = np.random.default_rng(2)
        gamma = random_factor(4, rng)
        pack = build_operator_pack(prior, gamma, 0.4)
        u, v = prior.sample(rng), prior.sample(rng)
        expected = prior_logpdf(prior, v) - prior_logpdf(prior, u)
        for kernel in (random_walk(prior, 0.4), gauss_newton_rw(pack)):
            assert np.isclose(correction(kernel, u, v), expected, atol=1e-10)
            assert_hastings_identity(kernel, u, v, gamma=gamma)

    def test_prior_reversibility_holds_for_pcn_gpcn_fails_for_rw(self):
        rng = np.random.default_rng(5)
        prior = PriorSpec(5)
        gamma = random_factor(5, rng)
        pack = build_operator_pack(prior, gamma, 0.6)
        for _ in range(10):
            u, v = prior.sample(rng), prior.sample(rng)
            for kernel in (pcn(prior, 0.6), gpcn(pack)):
                lhs = proposal_log_density(kernel, u, v, gamma) + prior_logpdf(prior, u)
                rhs = proposal_log_density(kernel, v, u, gamma) + prior_logpdf(prior, v)
                assert abs(lhs - rhs) < 1e-8
            kernel = random_walk(prior, 0.6)
            lhs = proposal_log_density(kernel, u, v) + prior_logpdf(prior, u)
            rhs = proposal_log_density(kernel, v, u) + prior_logpdf(prior, v)
            assert abs(lhs - rhs) > 1e-3

    def test_local_constant_map_reduces_to_global_gpcn(self):
        rng = np.random.default_rng(7)
        prior = PriorSpec(4)
        gamma = random_factor(4, rng)
        kernel = local_gpcn(prior, lambda u, aux: gamma, 0.5)
        u, v = prior.sample(rng), prior.sample(rng)
        assert correction(kernel, u, v) == 0.0
        # and the defining difference of density factors is itself ~0
        pack = build_operator_pack(prior, gamma, 0.5)
        assert abs(log_rho_gamma(pack, u, v) - log_rho_gamma(pack, v, u)) < 1e-8

    def test_local_correction_antisymmetric(self):
        rng = np.random.default_rng(9)
        prior = PriorSpec(5)
        gamma_map = make_gamma_map(random_factor(5, rng))
        for factory in (local_gpcn, local_gpcn2):
            kernel = factory(prior, gamma_map, 0.4)
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
        for factory in (local_gpcn, local_gpcn2):
            kernel = factory(prior, gamma_map, 0.45)
            for _ in range(10):
                u, v = prior.sample(rng), prior.sample(rng)
                assert_hastings_identity(kernel, u, v)

    def test_local_requires_positive_step(self):
        prior = PriorSpec(3)
        for factory in (local_gpcn, local_gpcn2):
            with pytest.raises(ValueError, match=r"\(0, 1\)"):
                factory(prior, lambda u, aux: FactoredGamma(np.zeros((0, 3))), 0.0)


class TestKernelPlumbing:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ProposalKernel("mala", PriorSpec(2), 0.5)

    def test_pack_required_for_adapted_variants(self):
        with pytest.raises(ValueError):
            ProposalKernel("gpcn", PriorSpec(2), 0.5)

    @pytest.mark.parametrize("variant", ("gn-rw", "gpcn"))
    def test_pack_must_share_the_kernel_prior(self, variant):
        prior = PriorSpec(3)
        for other in (PriorSpec(3, eigenvalues=[4.0, 4.0, 4.0]), PriorSpec(4)):
            pack = build_operator_pack(other, FactoredGamma(np.eye(other.dim)), 0.5)
            with pytest.raises(ValueError, match="prior spectrum"):
                ProposalKernel(variant, prior, 0.5, pack=pack)
        # an equal spectrum in another PriorSpec object is the same prior
        same = build_operator_pack(PriorSpec(3), FactoredGamma(np.eye(3)), 0.5)
        assert ProposalKernel(variant, prior, 0.5, pack=same).pack is same

    def test_with_step_size_rebuilds_pack(self):
        rng = np.random.default_rng(3)
        prior = PriorSpec(4)
        gamma = random_factor(4, rng)
        kernel = gpcn(build_operator_pack(prior, gamma, 0.3))
        rescaled = kernel.with_step_size(0.7)
        assert rescaled.s == 0.7 and rescaled.pack.s == 0.7
        a, root = sampler_operators(rescaled.pack)
        assert not np.allclose(a, sampler_operators(kernel.pack)[0])
        c = np.diag(prior.eigenvalues)
        resid = a @ c @ a.T + 0.49 * root @ root.T - c
        assert np.linalg.norm(resid) < 1e-10
        # matches a fresh build at the new step size, for both pack variants
        fresh = build_operator_pack(prior, gamma, 0.7)
        for got, want in zip((a, root), sampler_operators(fresh)):
            assert np.abs(got - want).max() < 1e-12
        for name in ("logdet_ih", "h_norm", "cm_norm"):
            assert abs(getattr(rescaled.pack, name) - getattr(fresh, name)) < 1e-12
        u = prior.sample(rng)
        for factory in (gpcn, gauss_newton_rw):
            v = draw(factory(kernel.pack).with_step_size(0.7), u, np.random.default_rng(5))
            v_fresh = draw(factory(fresh), u, np.random.default_rng(5))
            assert np.abs(v - v_fresh).max() < 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_nonfinite_step_rejected(self, variant):
        prior = PriorSpec(3)
        eye = FactoredGamma(np.eye(3))
        pack = build_operator_pack(prior, eye, 0.5)
        for s in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ProposalKernel(variant, prior, s, pack=pack, gamma_map=lambda u, aux: eye)

    def test_dense_gamma_is_a_type_error(self):
        # An N x N array is also the (N, N) factor of another Gamma, so only a
        # FactoredGamma says which curvature is meant.
        prior = PriorSpec(3)
        with pytest.raises(TypeError, match="FactoredGamma, got ndarray"):
            build_operator_pack(prior, np.eye(3), 0.5)
        for factory in (local_gpcn, local_gpcn2):
            kernel = factory(prior, lambda u, aux: np.eye(3), 0.5)
            with pytest.raises(TypeError, match="FactoredGamma, got ndarray"):
                kernel.pack_at(np.zeros(3), None)

    def test_rw_allows_step_above_one(self):
        kernel = random_walk(PriorSpec(2), 1.7)
        assert kernel.s == 1.7
