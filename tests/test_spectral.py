import re

import numpy as np
import pytest

from gpcn import elliptic, spectral
from gpcn.gaussian_ops import FactoredGamma, PriorSpec
from gpcn.proposals import PRIOR_REVERSIBLE, VARIANTS, ProposalKernel, propose
from gpcn.spectral import (
    FiniteChain,
    _proposal_law,
    asymptotic_variance,
    cheeger_check,
    comparison_check,
    conductance,
    discretize_kernel,
    discretize_metropolis,
    kappa_p,
    positivity_check,
    random_proposal,
    random_reversible_chain,
    restrict_chain,
    restriction_check,
    run_lab,
    spectral_gap,
)
from helpers import (
    dense_operators,
    full_grid_conductance,
    gaussian_logpdf,
    kernel_for,
    lab_grid_chain,
    lazy,
    stationary_distribution,
    subset_extremum,
)

TWO_STATE = FiniteChain(np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([0.4, 0.6]))


def rank_one_chain(pi):
    pi = np.asarray(pi, dtype=float)
    return FiniteChain(np.tile(pi, (len(pi), 1)), pi)


def oracle_conductance(chain):
    weight = chain.pi[:, None] * chain.p
    np.fill_diagonal(weight, 0.0)
    return subset_extremum(weight, chain.pi, maximize=False)


def oracle_kappa_p(q1, q2, pi, p):
    weight = (q1 / q2) ** p * q2 * pi[:, None]
    np.fill_diagonal(weight, 0.0)
    return subset_extremum(weight, pi, maximize=True)


class TestFiniteChain:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiniteChain(np.array([[0.5, 0.4], [0.5, 0.5]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            FiniteChain(np.eye(2), np.array([1.0, 0.0]))

    def test_nan_and_inf_entries_rejected(self):
        # a NaN compares False both ways, so a check of the form x <= 0 lets it through
        with pytest.raises(ValueError, match="NaN"):
            FiniteChain([[np.nan, 1], [0.5, 0.5]], [0.5, 0.5])
        with pytest.raises(ValueError, match="sum to one"):
            FiniteChain([[np.inf, 1], [0.5, 0.5]], [0.5, 0.5])
        for pi in ([np.nan, 0.5], [np.inf, 0.5]):
            with pytest.raises(ValueError, match="stationary vector"):
                FiniteChain(np.full((2, 2), 0.5), pi)

    def test_stationary_distribution(self):
        pi = stationary_distribution(TWO_STATE.p)
        assert np.allclose(pi, [0.4, 0.6])


class TestDiscretizeMetropolis:
    def test_uniform_target_symmetric_proposal_accepts_everything(self):
        q = np.full((4, 4), 0.25)
        chain = discretize_metropolis(np.full(4, 0.25), q)
        assert np.allclose(chain.p, q, atol=1e-15)

    def test_two_state_hand_values(self):
        q = np.full((2, 2), 0.5)
        chain = discretize_metropolis(np.array([0.4, 0.6]), q)
        assert np.isclose(chain.p[0, 1], 0.5)
        assert np.isclose(chain.p[1, 0], 0.5 * (0.4 / 0.6))
        assert np.isclose(0.4 * chain.p[0, 1], 0.6 * chain.p[1, 0])

    def test_reversible_by_construction(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            pi = rng.uniform(0.1, 1.0, n)
            chain = discretize_metropolis(pi / pi.sum(), random_proposal(n, rng))
            assert chain.balance_gap < 1e-12

    def test_nan_and_inf_inputs_rejected(self):
        q = np.full((2, 2), 0.5)
        for pmf in ([np.nan, 1.0], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="strictly positive"):
                discretize_metropolis(np.array(pmf), q)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="row-stochastic"):
                discretize_metropolis(np.array([0.5, 0.5]), np.array([[bad, 0.5], [0.5, 0.5]]))

    def test_one_way_support_gets_no_flow(self):
        # q_21 > 0 but q_12 = 0: min(pi_2 q_21, pi_1 q_12) = 0, so neither move is made,
        # as Metropolis-Hastings rejects a move that cannot be proposed back
        q = np.array([[0.5, 0.5, 0.0], [0.4, 0.6, 0.0], [0.0, 0.5, 0.5]])
        chain = discretize_metropolis(np.full(3, 1 / 3), q)
        assert chain.p[1, 2] == 0.0 and chain.p[2, 1] == 0.0
        assert chain.balance_gap == 0.0
        assert np.abs(chain.p.sum(axis=1) - 1.0).max() <= 1e-15


def grid_points(prior, n_axis, width=3.0):
    """An n_axis^N grid on +-width prior standard deviations, and its cell volume."""
    axes = [np.linspace(-width, width, n_axis) * sd for sd in prior.std]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, prior.dim)
    return points, float(np.prod([a[1] - a[0] for a in axes]))


def make_kernel(variant, prior, gamma, s, gamma_map=None):
    """A kernel of any variant: gn-rw and gpcn on ``gamma``, the local ones on
    ``gamma_map``, the constant ``gamma`` unless given."""
    return kernel_for(variant, prior, s, gamma=gamma,
                      gamma_map=gamma_map or (lambda u, aux: gamma))


def oracle_law(kernel, gamma, x):
    """The proposal's mean and covariance at x, from the dense operators of
    ``gamma`` (the local variants': ``kernel.gamma_map(x, None)``)."""
    s, prior, a0 = kernel.s, kernel.prior, np.sqrt(1 - kernel.s**2)
    if kernel.variant in ("rw", "pcn"):
        return (x if kernel.variant == "rw" else a0 * x), s * s * np.diag(prior.eigenvalues)
    ops = dense_operators(prior, kernel.gamma_map(x, None) if kernel.gamma_map else gamma, s)
    mean = {"gn-rw": x, "gpcn": ops["a"] @ x, "local-gpcn": ops["a"] @ x,
            "local-gpcn2": a0 * x}[kernel.variant]
    return mean, s * s * ops["c_gamma"]


@pytest.fixture(scope="module")
def elliptic_n2():
    """phi, the MAP curvature and the local curvature map of an N = 2 elliptic posterior."""
    model, prior = elliptic.ForwardModel(2), PriorSpec(2)
    obs = elliptic.generate_data(elliptic.default_truth, 0.3, model, np.random.default_rng(4))
    gamma = elliptic.build_gamma_from_map(elliptic.map_estimate(obs, model, prior).xi, obs, model)
    return (elliptic.make_posterior(obs, model), gamma,
            lambda u, solve: elliptic.build_gamma_from_map(u, obs, model, solve))


class TestDiscretizeKernel:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_read_off_law_matches_dense_oracle(self, dim, variant):
        rng = np.random.default_rng([18, dim])
        prior, base = PriorSpec(dim), FactoredGamma(rng.standard_normal((dim, dim)))
        def gamma_map(u, aux):
            return FactoredGamma(np.vstack([base.factor, u / np.sqrt(1.0 + u @ u)]))
        kernel = make_kernel(variant, prior, base, 0.6, gamma_map)
        for x in rng.standard_normal((3, dim)):
            mean, root = _proposal_law(kernel, x, None)
            want_mean, want_cov = oracle_law(kernel, base, x)
            np.testing.assert_allclose(mean, want_mean, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(root @ root.T, want_cov, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_law_is_read_with_one_propose_per_root_column(self, monkeypatch, dim, variant):
        rng = np.random.default_rng([19, dim])
        prior, base = PriorSpec(dim), FactoredGamma(rng.standard_normal((dim, dim)))
        kernel = make_kernel(variant, prior, base, 0.5)
        calls = []
        monkeypatch.setattr(spectral, "propose",
                            lambda *args: calls.append(args) or propose(*args))
        points, cell = grid_points(prior, 5)
        discretize_kernel(kernel, lambda u: (0.0, None), points, cell)
        assert len(calls) == len(points) * dim
        for x in points[:4]:
            pack = kernel.pack_at(x, None)
            noise = [pack.scaled_noise(e) for e in np.eye(dim)]
            _, root = _proposal_law(kernel, x, None)
            assert root.tobytes() == np.column_stack(noise).tobytes()

    @pytest.mark.parametrize("potential", ["linear", "elliptic"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_gives_a_reversible_chain(self, elliptic_n2, variant, potential):
        phi, gamma, gamma_map = elliptic_n2
        if potential == "linear":
            phi, gamma_map = (lambda u: (float(u @ [1.0, -0.5]), None)), None
        prior = PriorSpec(2)
        points, cell = grid_points(prior, 9)
        chain = discretize_kernel(make_kernel(variant, prior, gamma, 0.5, gamma_map),
                                  phi, points, cell)
        assert chain.n_states == 81
        assert chain.balance_gap < 1e-12

    @pytest.mark.parametrize("variant", ["rw", "pcn", "gn-rw", "gpcn"])
    def test_prior_reversible_flows_are_symmetric(self, variant):
        # with phi = 0 a symmetric flow prior_i q_ij accepts every move, so the
        # chain is the proposal pmf (density times cell) off the diagonal
        prior, gamma = PriorSpec(2), FactoredGamma(np.array([[1.0, 0.5], [0.0, 2.0]]))
        points, cell = grid_points(prior, 7)
        kernel = make_kernel(variant, prior, gamma, 0.5)
        chain = discretize_kernel(kernel, lambda u: (0.0, None), points, cell)
        q = np.array([[cell * np.exp(gaussian_logpdf(y, mean, cov)) for y in points]
                      for mean, cov in (oracle_law(kernel, gamma, x) for x in points)])
        off = ~np.eye(len(points), dtype=bool)
        accepted = chain.p[off] / q[off]
        if variant in PRIOR_REVERSIBLE:
            np.testing.assert_allclose(accepted, 1.0, rtol=1e-10, atol=0.0)
        else:
            assert accepted.min() < 0.5

    def test_one_way_underflow_builds(self):
        # pcn at s = 0.15: log q straddles exp's range between x = -0.15 and x = -6, so
        # q underflows one way only; the pair gets no flow either way and the chain builds
        points, cell = np.linspace(-6.0, 6.0, 81)[:, None], 0.15
        kernel = ProposalKernel("pcn", PriorSpec(1, np.ones(1)), 0.15)
        forth, back = (gaussian_logpdf(points[j], *oracle_law(kernel, None, points[i]))
                       + np.log(cell) for i, j in ((39, 0), (0, 39)))
        assert forth < -746.0 and back > -744.0
        chain = discretize_kernel(kernel, lambda u: (0.0, None), points, cell)
        assert chain.balance_gap < 1e-12
        assert chain.p[39, 0] == 0.0 and chain.p[0, 39] == 0.0

    @staticmethod
    def linear_toy(variant, sigma):
        """Prior N(0, diag(1, 1/4)) with y = 0.3 observed through u_1 at noise sigma, so one
        coordinate is informed by the data and one is not, on a 21 x 21 grid of [-3, 3]^2."""
        prior = PriorSpec(2, np.array([1.0, 0.25]))
        kernel = ProposalKernel(variant, prior, 0.5,
                                gamma=FactoredGamma([[1.0 / sigma, 0.0]]) if variant == "gpcn"
                                else None)
        axis = np.linspace(-3.0, 3.0, 21)
        points = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        return kernel, lambda u: (0.5 * ((0.3 - u[0]) / sigma) ** 2, None), points, 0.09

    @pytest.mark.parametrize("variant", ["pcn", "gpcn"])
    def test_linear_toy_builds(self, variant):
        # gpcn's q holds subnormal pairs that the Riemann-sum division rounds to 0 on
        # one side only; such a pair gets no flow either way, so the support stays symmetric
        chain = discretize_kernel(*self.linear_toy(variant, 0.1))
        assert chain.n_states == 441
        assert chain.balance_gap < 1e-12
        assert np.array_equal(chain.p > 0.0, (chain.p > 0.0).T)

    @classmethod
    def scaled_toy(cls, variant, sigma):
        """The linear toy on a 21 x 21 grid scaled to its posterior: the u_1 axis spans the
        posterior mean +- 4 posterior sd, the u_2 axis +-1.5 (three prior sd)."""
        kernel, phi, _, _ = cls.linear_toy(variant, sigma)
        precision = 1.0 + sigma**-2
        mean, sd = 0.3 * sigma**-2 / precision, precision**-0.5
        axes = np.linspace(mean - 4.0 * sd, mean + 4.0 * sd, 21), np.linspace(-1.5, 1.5, 21)
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        return kernel, phi, points, float(np.prod([a[1] - a[0] for a in axes]))

    def test_gpcn_gap_is_robust_to_the_noise_level(self):
        # the abstract's noise claim on exact gaps, s = 0.5; measured before these bounds
        # were set: pcn 0.0328, 0.0103, 0.0034, 0.0010, gpcn 0.0827, then 0.0823 three
        # times, every least eigenvalue >= 0.104, and 31 x 31 grids within 1%
        sigmas = (0.1, 0.03, 0.01, 0.003)
        gaps = {}
        for variant in ("pcn", "gpcn"):
            chains = [discretize_kernel(*self.scaled_toy(variant, sigma)) for sigma in sigmas]
            assert min(positivity_check(chain) for chain in chains) >= -1e-10
            gaps[variant] = np.array([spectral_gap(chain) for chain in chains])
        assert gaps["gpcn"].max() <= 1.02 * gaps["gpcn"].min()
        assert gaps["pcn"][0] >= 10.0 * gaps["pcn"][-1]

    def test_target_underflow_counts_the_zero_mass_points(self):
        with pytest.raises(ValueError, match=r"^378 of 441 grid points have zero target mass"):
            discretize_kernel(*self.linear_toy("gpcn", 0.01))

    @pytest.mark.parametrize("bad, problem", ((np.nan, "a NaN or -inf potential$"),
                                              (-np.inf, "a NaN or -inf potential$"),
                                              (np.inf, "zero target mass")))
    def test_nonfinite_potential_is_counted(self, bad, problem):
        # one such point: a NaN poisons the target, and a -inf one's infinite mass
        # would leave the 14 finite points with none; +inf is a point of zero mass
        points = np.linspace(-4.0, 4.0, 15)[:, None]
        kernel = ProposalKernel("pcn", PriorSpec(1, np.ones(1)), 0.5)
        with pytest.raises(ValueError, match=rf"^1 of 15 grid points have {problem}"):
            discretize_kernel(kernel, lambda u: (bad if u[0] > 3.5 else 0.0, None), points,
                              8.0 / 14.0)

    def test_unresolved_step_is_rejected_by_name(self):
        # too narrow for the cell: no state reaches another, so the chain is reducible
        points = np.linspace(-4.0, 4.0, 15)[:, None]
        kernel = ProposalKernel("pcn", PriorSpec(1, np.ones(1)), 0.05)
        with pytest.raises(ValueError, match=r"pcn at step size s = 0\.05 is reducible"):
            discretize_kernel(kernel, lambda u: (0.0, None), points, 8.0 / 14.0)

    @pytest.mark.parametrize("variant", ["rw", "pcn", "gn-rw", "gpcn"])
    def test_zero_step_is_rejected_by_name(self, variant):
        # at s = 0 every proposal stays put: the chain is reducible, and the noise
        # root it would read off is the zero matrix
        prior = PriorSpec(1, np.ones(1))
        kernel = make_kernel(variant, prior, FactoredGamma(np.sqrt([[2.0]])), 0.0)
        points = np.linspace(-4.0, 4.0, 15)[:, None]
        with pytest.raises(ValueError, match=rf"{variant} at step size s = 0\.0 is reducible"):
            discretize_kernel(kernel, lambda u: (0.0, None), points, 8.0 / 14.0)

    @pytest.mark.parametrize("variant", ["rw", "pcn", "gpcn"])
    @pytest.mark.parametrize("points, problem", [
        (np.zeros((7, 1)), r"^points must be an \(n, 2\) array with n >= 1, got shape \(7, 1\)$"),
        (np.zeros(7), r"^points must be an \(n, 2\) array with n >= 1, got shape \(7,\)$"),
        (np.zeros((0, 2)), r"^points must be an \(n, 2\) array with n >= 1, got shape \(0, 2\)$"),
        ([[0.0, 0.0], [np.nan, 1.0]], r"^points must be finite, got points\[1\] = \[nan  1\.\]$"),
        ([[0.0, -np.inf]], r"^points must be finite, got points\[0\] = \[  0\. -inf\]$")],
        ids=["one-column", "one-dim", "empty", "nan", "inf"])
    def test_bad_points_are_named_before_any_potential(self, variant, points, problem):
        kernel = make_kernel(variant, PriorSpec(2), FactoredGamma(np.eye(2)), 0.5)
        def phi(u):
            raise AssertionError("phi was called")
        with pytest.raises(ValueError, match=problem):
            discretize_kernel(kernel, phi, points, 0.1)

    @pytest.mark.parametrize("cell", [0.0, -0.5, np.inf, np.nan])
    def test_bad_cell_is_named_before_any_potential(self, cell):
        kernel = ProposalKernel("pcn", PriorSpec(1, np.ones(1)), 0.5)
        def phi(u):
            raise AssertionError("phi was called")
        with pytest.raises(ValueError, match=rf"^cell must be positive and finite, got {cell}$"):
            discretize_kernel(kernel, phi, np.linspace(-4.0, 4.0, 15)[:, None], cell)

    def test_riemann_overshoot_is_scaled_out(self):
        # pcn at s = 0.4 on a unit grid: from x = 12 the proposal is centred on x = 11 and
        # its off-diagonal grid mass passes 1; q is divided by the largest such mass c, so
        # every move is still accepted, at probability q_ij / c
        points = np.arange(-12.0, 13.0)[:, None]
        kernel = ProposalKernel("pcn", PriorSpec(1, np.ones(1)), 0.4)
        q = np.array([[np.exp(gaussian_logpdf(y, mean, cov)) for y in points]
                      for mean, cov in (oracle_law(kernel, None, x) for x in points)])
        off = ~np.eye(len(points), dtype=bool)
        c = (q * off).sum(axis=1).max()
        assert c > 1.01
        chain = discretize_kernel(kernel, lambda u: (0.0, None), points, 1.0)
        assert chain.p.diagonal().min() >= 0.0
        normal = off & (q > 1e-300)               # not a pair that underflows one way (no flow)
        np.testing.assert_allclose(chain.p[normal] * c, q[normal], rtol=1e-10, atol=0.0)


class TestSpectralGap:
    def test_each_chain_is_solved_once(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        chain = random_reversible_chain(8, np.random.default_rng(3))
        gap, min_eig, lam = (spectral_gap(chain), positivity_check(chain),
                             cheeger_check(chain)["lambda_max"])
        grid = lab_grid_chain()
        assert positivity_check(grid) == float(eigvalsh(calls[1]).min())
        assert len(calls) == 2
        want = eigvalsh(calls[0])
        assert (gap, min_eig, lam) == (1.0 - np.abs(want[:-1]).max(), want.min(), want[-2])

    def test_two_state_gap(self):
        assert np.isclose(spectral_gap(TWO_STATE), 0.5)

    def test_identity_has_no_gap(self):
        chain = FiniteChain(np.eye(3), np.full(3, 1 / 3))
        assert spectral_gap(chain) == 0.0

    def test_independent_sampler_has_full_gap(self):
        assert np.isclose(spectral_gap(rank_one_chain([0.2, 0.3, 0.5])), 1.0)

    def test_periodic_chain_gap_uses_absolute_spectrum(self):
        flip = FiniteChain(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
        assert np.isclose(spectral_gap(flip), 0.0)

    def test_rejects_nonreversible(self):
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        chain = FiniteChain(p, np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="reversible"):
            spectral_gap(chain)


class TestConductance:
    def test_two_state_hand_value(self):
        assert np.isclose(conductance(TWO_STATE), 0.3)

    def test_identity_has_zero_flow(self):
        chain = FiniteChain(np.eye(3), np.full(3, 1 / 3))
        assert conductance(chain) == 0.0

    def test_rank_one_uniform_four_states(self):
        assert np.isclose(conductance(rank_one_chain(np.full(4, 0.25))), 0.5)

    def test_budget_rejection(self):
        n = 23
        chain = FiniteChain(np.eye(n), np.full(n, 1 / n))
        with pytest.raises(ValueError, match="22"):
            conductance(chain)

    @pytest.mark.parametrize("n", [*range(1, 15), 16, 18, 22])
    def test_matches_oracle(self, n):
        rng = np.random.default_rng([21, n])
        q = random_proposal(n, rng)     # not reversible: an asymmetric flow matrix
        chains = [random_reversible_chain(n, rng), FiniteChain(q, stationary_distribution(q))]
        if n % 2 == 0:        # uniform pi: subsets of n/2 states have pi(A) = 1/2
            chains.append(discretize_metropolis(np.full(n, 1 / n), random_proposal(n, rng)))
        for chain in chains:
            got = conductance(chain)
            # the mass-sorted enumeration skips only entries the full grid masks out
            assert got == full_grid_conductance(chain)
            assert np.isclose(got, oracle_conductance(chain), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", [2, 6, 14, 22])
    def test_half_mass_subsets_count(self, n):
        # rank one, uniform pi: flow(A, A^c) / pi(A) = pi(A^c), least at pi(A) = 1/2
        chain = rank_one_chain(np.full(n, 1 / n))
        assert np.isclose(conductance(chain), 0.5, rtol=1e-14, atol=0.0)


class TestCheeger:
    def test_two_state_values(self):
        report = cheeger_check(TWO_STATE)
        assert np.isclose(report["phi"], 0.3)
        assert np.isclose(report["lambda_max"], 0.5)
        assert np.isclose(report["lower"], 0.045)
        assert np.isclose(report["upper"], 0.6)
        assert report["ok"]

    def test_rank_one_boundary_case(self):
        report = cheeger_check(rank_one_chain(np.full(4, 0.25)))
        assert np.isclose(report["lambda_max"], 0.0, atol=1e-12)
        assert np.isclose(report["one_minus_lambda"], 1.0)
        assert np.isclose(report["upper"], 1.0)   # equality side 1 <= 2 phi
        assert report["ok"]

    def test_random_reversible_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            chain = random_reversible_chain(int(rng.integers(2, 13)), rng)
            assert cheeger_check(chain)["ok"]


class TestKappaP:
    def test_identical_proposals_bounded_by_one(self):
        rng = np.random.default_rng(3)
        q = random_proposal(5, rng)
        pi = np.full(5, 0.2)
        # unit density ratio: kappa_p is a pure proposal-flow ratio, <= 1
        assert kappa_p(q, q, pi, 2.0) <= 1.0 + 1e-12

    def test_two_state_hand_value(self):
        q1 = np.array([[0.5, 0.5], [0.5, 0.5]])
        q2 = np.array([[0.75, 0.25], [0.25, 0.75]])
        pi = np.array([0.4, 0.6])
        # only A = {0} has mass <= 1/2: (0.5/0.25)^2 * 0.25 * pi_0 / pi_0 = 1
        assert np.isclose(kappa_p(q1, q2, pi, 2.0), 1.0)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_oracle(self, n):
        rng = np.random.default_rng([22, n])
        pmfs = [rng.uniform(0.2, 1.0, n)] + ([np.full(n, 1 / n)] if n % 2 == 0 else [])
        for pmf in pmfs:
            q1, q2 = random_proposal(n, rng), random_proposal(n, rng)
            for p in (1.5, 2.0):
                want = oracle_kappa_p(q1, q2, pmf / pmf.sum(), p)
                assert np.isclose(kappa_p(q1, q2, pmf, p), want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", [22, 23, 200])
    def test_runs_at_the_budget(self, n):
        # unit density ratio, rank one, uniform pi: the flow ratio is pi(A^c), largest at
        # |A| = 1; kappa_p enumerates no subsets, so conductance's 22-state limit is no bound
        q = np.full((n, n), 1 / n)
        assert np.isclose(kappa_p(q, q, np.full(n, 1 / n), 2.0), (n - 1) / n, rtol=1e-14)

    def test_rejects_a_pmf_that_is_not_a_positive_vector_of_n_states(self):
        q = np.full((4, 4), 0.25)
        with pytest.raises(ValueError, match="shape"):
            kappa_p(q, q, np.array([1.0]), 2.0)
        # pi > 0 holds for inf, which used to return nan with two RuntimeWarnings
        for pmf in ([0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.5, -0.2], [0.5, np.inf, 0.5, 0.5],
                    [0.5, 0.5, np.nan, 0.5]):
            with pytest.raises(ValueError, match="finite, strictly positive"):
                kappa_p(q, q, np.array(pmf), 2.0)

    @pytest.mark.parametrize("p", [np.nan, np.inf, 1.0, 0.5, -np.inf])
    def test_exponent_outside_one_to_infinity_rejected(self, p):
        # nan compares False with 1, so only a check that nan fails keeps it out
        q = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="1 < p < inf"):
            kappa_p(q, q, np.array([0.5, 0.5]), p)

    def test_absolute_continuity_violation_identifies_pair(self):
        q1 = np.array([[0.5, 0.5], [0.5, 0.5]])
        q2 = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"q1\[0,1\]"):
            kappa_p(q1, q2, np.array([0.5, 0.5]), 2.0)

    @pytest.mark.parametrize("name, i, j, bad", [
        ("q1", 0, 1, np.nan), ("q1", 1, 0, np.inf), ("q2", 1, 1, -0.25), ("q2", 0, 0, -np.inf)])
    def test_nonfinite_or_negative_entry_is_named(self, name, i, j, bad):
        # a NaN in q1 used to return NaN, and a negative q2 entry was used as given
        q = {"q1": np.full((2, 2), 0.5), "q2": np.full((2, 2), 0.5)}
        q[name][i, j] = bad
        with pytest.raises(ValueError, match=rf"{name}\[{i},{j}\] = {bad}"):
            kappa_p(q["q1"], q["q2"], np.array([0.5, 0.5]), 2.0)


class TestComparison:
    def test_identical_proposals_pass(self):
        rng = np.random.default_rng(5)
        q = random_proposal(6, rng)
        pi = rng.uniform(0.5, 1.0, 6)
        report = comparison_check(pi / pi.sum(), q, q, 2.0)
        assert report["lemma_ok"] and report["theorem_ok"]
        assert report["kappa_p"] <= 1.0 + 1e-12

    def test_random_instances_all_pass(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            pi = rng.uniform(0.1, 1.0, n)
            report = comparison_check(pi / pi.sum(), random_proposal(n, rng),
                                      random_proposal(n, rng), 2.0)
            assert report["lemma_ok"] and report["theorem_ok"]

    def test_nonfinite_exponent_rejected(self):
        # a nan kappa_p would read as a failed theorem: lemma_ok and theorem_ok False
        q = np.full((3, 3), 1 / 3)
        for p in (np.nan, np.inf):
            with pytest.raises(ValueError, match="1 < p < inf"):
                comparison_check(np.full(3, 1 / 3), q, q, p)
            with pytest.raises(ValueError, match="1 < p < inf"):
                run_lab(0, 1, 3, p)

    def test_negative_chain_is_lazified(self):
        # q1's Metropolis chain is the flip, whose least eigenvalue is -1
        q1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        q2 = np.array([[0.2, 0.8], [0.8, 0.2]])
        report = comparison_check(np.full(2, 0.5), q1, q2, 2.0)
        assert report["lazified"]
        assert report["min_eig1"] >= -1e-10 and report["min_eig2"] >= -1e-10
        assert report["theorem_ok"]
        assert np.isclose(report["kappa_p_used"], report["kappa_p"] / 2)


class TestPositivity:
    def test_identity_chain(self):
        chain = FiniteChain(np.eye(3), np.full(3, 1 / 3))
        assert np.isclose(positivity_check(chain), 1.0)

    def test_periodic_chain_is_certifiably_negative(self):
        flip = FiniteChain(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
        assert np.isclose(positivity_check(flip), -1.0)

    def test_grid_adapted_metropolis_is_positive(self):
        chain = lab_grid_chain()
        assert chain.balance_gap < 1e-12
        assert positivity_check(chain) >= -1e-10
        assert positivity_check(chain) == run_lab(0, 1, 2)["grid_gpcn_min_eig"]

    def test_lazification_makes_spectra_nonnegative(self):
        flip = FiniteChain(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
        assert positivity_check(lazy(flip)) >= -1e-12


class TestRestriction:
    def test_mass_moves_to_diagonal(self):
        p = np.array([[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.25, 0.25, 0.5]])
        pi = stationary_distribution(p)
        restricted = restrict_chain(FiniteChain(p, pi), [0, 1])
        assert np.allclose(restricted.p[0], [0.7, 0.3])

    def test_full_subset_is_identity_restriction(self):
        restricted = restrict_chain(TWO_STATE, [0, 1])
        assert np.array_equal(restricted.p, TWO_STATE.p)
        assert np.allclose(restricted.pi, TWO_STATE.pi)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            restrict_chain(TWO_STATE, [])

    @pytest.mark.parametrize("subset, message", [
        ([0.5, 2.7], r"integer .* got \[0.5, 2.7\]"),      # used to truncate to states {0, 2}
        ([0.0, np.nan], r"integer .* got \[0.0, nan\]"),
        ([True, False, True], r"integer .* got \[True, False, True\]"),    # read as states {1, 0}
        ([[0, 1]], r"1-D .* shape \(1, 2\)"),
        ([0, 3], r"\[0, 3\), got 0 to 3")], ids=["half", "nan", "mask", "2-d", "out_of_range"])
    def test_subset_that_is_not_integer_state_indices_is_named(self, subset, message):
        chain = random_reversible_chain(3, np.random.default_rng(2))
        for check in (restrict_chain, restriction_check):
            with pytest.raises(ValueError, match=f"subset.*{message}"):
                check(chain, subset)

    def test_norm_inequality_on_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            chain = random_reversible_chain(n, rng)
            size = int(rng.integers(1, n))
            subset = rng.choice(n, size=size, replace=False)
            report = restriction_check(chain, subset)
            assert report["ok"]
            assert report["db_gap_restricted"] < 1e-12


class TestAsymptoticVariance:
    def test_independent_sampler_gives_plain_variance(self):
        pi = np.array([0.2, 0.3, 0.5])
        chain = rank_one_chain(pi)
        f = np.array([1.0, -2.0, 0.5])
        report = asymptotic_variance(chain, f)
        var = pi @ (f - pi @ f) ** 2
        assert np.isclose(report["sigma2"], var)
        assert report["ok"]

    def test_constant_function_has_zero_variance(self):
        report = asymptotic_variance(TWO_STATE, np.array([3.0, 3.0]))
        assert abs(report["sigma2"]) < 1e-24

    def test_two_state_closed_form_and_simulation(self):
        # a = 0.3, b = 0.2: lambda = 0.5, pi = (0.4, 0.6), f = indicator of 0:
        # sigma^2 = Var(f) (1 + lambda)/(1 - lambda) = 0.24 * 3 = 0.72.
        f = np.array([1.0, 0.0])
        report = asymptotic_variance(TWO_STATE, f)
        assert np.isclose(report["sigma2"], 0.72)

        rng = np.random.default_rng(123)
        n_rep, length = 1500, 4000
        state = (rng.random(n_rep) >= 0.4).astype(int)   # start from pi
        means = np.zeros(n_rep)
        move = np.array([0.3, 0.2])                       # leave probabilities
        for _ in range(length):
            flip = rng.random(n_rep) < move[state]
            state = np.where(flip, 1 - state, state)
            means += (state == 0)
        means /= length
        empirical = length * means.var(ddof=1)
        assert abs(empirical - 0.72) < 0.072

    @pytest.mark.parametrize("f", [np.ones(3), np.ones((2, 1)), np.float64(1.0)],
                             ids=["three_states", "column", "scalar"])
    def test_function_of_the_wrong_shape_is_named(self, f):
        shape = re.escape(str(f.shape))
        with pytest.raises(ValueError, match=f"one value per state.*got shape {shape}"):
            asymptotic_variance(TWO_STATE, f)

    def test_gap_requirement(self):
        chain = FiniteChain(np.eye(2), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="gap"):
            asymptotic_variance(chain, np.array([1.0, 0.0]))


class TestLab:
    def test_default_battery_passes_and_is_deterministic(self):
        report = run_lab(seed=7, n_instances=4, n_states=8)
        assert report["all_pass"]
        again = run_lab(seed=7, n_instances=4, n_states=8)
        assert report == again

    def test_budget_violation_is_clean(self):
        with pytest.raises(ValueError, match="22"):
            run_lab(seed=0, n_instances=1, n_states=30)

    def test_empty_battery_rejected(self):
        with pytest.raises(ValueError, match="n_states"):
            run_lab(seed=0, n_instances=1, n_states=1)
        with pytest.raises(ValueError, match="n_instances"):
            run_lab(seed=0, n_instances=0, n_states=4)

    @pytest.mark.parametrize("counts, name", [
        ({"n_instances": 2.5}, "n_instances"), ({"n_instances": True}, "n_instances"),
        ({"n_states": 6.5}, "n_states"), ({"n_states": np.float64(4.0)}, "n_states"),
        ({"n_states": True}, "n_states")],
        ids=["float-instances", "bool-instances", "float-states", "numpy-float-states",
             "bool-states"])
    def test_counts_must_be_integers(self, counts, name):
        with pytest.raises(ValueError, match=rf"^run_lab needs an integer {name} >= [12], got"):
            run_lab(0, **{"n_instances": 1, "n_states": 4, **counts})
        assert run_lab(0, np.int64(1), np.int64(3))["all_pass"]

    def test_small_instances_pass(self):
        # proposals reversible w.r.t. one pmf; arbitrary row-stochastic ones
        # fail the comparison lemma for about one seed in six at n = 2
        for n in (2, 3):
            for seed in range(40):
                assert run_lab(seed, 1, n)["all_pass"], (n, seed)
