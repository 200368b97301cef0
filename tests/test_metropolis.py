import math

import numpy as np
import pytest

from gpcn import diagnostics, elliptic, metropolis
from gpcn.diagnostics import qoi_exp_integral
from gpcn.gaussian_ops import FactoredGamma, PriorSpec
from gpcn.metropolis import (
    PILOT_DELTA,
    S_HI,
    S_LO,
    ChainConfig,
    ChainTrace,
    State,
    mh_step,
    read_trace_csv,
    run_chain,
    tune_step_size,
    write_state_dump,
    write_trace_csv,
)
from gpcn.proposals import (
    LOCAL_VARIANTS,
    VARIANTS,
    ProposalKernel,
    prior_quadratic,
    proposal_mean,
    propose,
)
from helpers import (
    kernel_for,
    linear_posterior,
    reference_chain,
    reference_read_trace_csv,
    reference_tune,
    reference_write_trace_csv,
)


def flat_target(n):
    """A prior and the zero potential: the chain's target is the prior itself."""
    return PriorSpec(n), lambda u: (0.0, None)


def initial_record(kernel, phi, u):
    value, aux = phi(u)
    pack = kernel.pack_at(u, aux)
    return State(u, value, aux, pack, proposal_mean(kernel, u, pack), prior_quadratic(kernel, u))


def assert_record_fields(kernel, state):
    """The record's mean and prior quadratic are those computed afresh at its u."""
    assert np.array_equal(state.mean, proposal_mean(kernel, state.u, state.pack))
    want = prior_quadratic(kernel, state.u)
    assert state.quad == want and (want is None) == (kernel.variant not in ("rw", "gn-rw"))


def linear_gaussian_setup(n=6, sigma=0.3, seed=100):
    """Affine forward map: the prior, the potential, and the exact posterior
    moments of exp(-phi) d(prior)."""
    rng = np.random.default_rng(seed)
    prior = PriorSpec(n)
    L = rng.standard_normal((3, n))
    b = rng.standard_normal(3)
    y = L @ (0.5 * prior.sample(rng)) + b + sigma * rng.standard_normal(3)

    def potential(u):
        r = y - (L @ u + b)
        return float(0.5 * (r @ r) / sigma**2), None

    mean, cov = linear_posterior(L, b, y, sigma**2 * np.eye(3), prior)
    gamma = FactoredGamma(L / sigma)                  # Gamma = L^T L / sigma^2
    return prior, potential, mean, cov, gamma


def kernel_of(variant, prior, gamma, s):
    """A kernel of each variant on one curvature: fixed for gn-rw and gpcn,
    varied with the state for the local variants."""
    def gamma_map(u, aux):            # Gamma + u u^T / (1 + |u|^2)
        return FactoredGamma(np.vstack([gamma.factor, u / np.sqrt(1.0 + u @ u)]))
    return kernel_for(variant, prior, s, gamma=gamma, gamma_map=gamma_map)


class TestMhStep:
    @pytest.mark.parametrize("radius", (None, 0.6))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_step_draws_one_normal_then_one_uniform(self, variant, radius):
        prior, phi, _, _, gamma = linear_gaussian_setup()
        kernel = kernel_of(variant, prior, gamma, 0.5)
        rng, twin = np.random.default_rng(40), np.random.default_rng(40)
        state = initial_record(kernel, phi, np.zeros(prior.dim))
        accepted = outside = 0
        for _ in range(40):
            v = propose(kernel, state.mean, twin.standard_normal(prior.dim), state.pack)
            twin.random()
            outside += radius is not None and np.linalg.norm(v) >= radius
            state, step_accepted = mh_step(kernel, phi, state, rng, radius=radius)
            accepted += step_accepted
            assert rng.bit_generator.state == twin.bit_generator.state
            assert not step_accepted or np.array_equal(state.u, v)
        assert accepted > 0
        assert radius is None or outside > 0       # some steps were rejected at the ball

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_candidate_is_proposed_from_the_state_mean(self, variant, monkeypatch):
        # the chain forms every candidate through propose, the law function the
        # exact checks verify, fed from the record of the state it steps from
        prior, phi, _, _, gamma = linear_gaussian_setup()
        kernel = kernel_of(variant, prior, gamma, 0.5)
        proposed, stepped = [], []
        step = metropolis.mh_step

        def recording_propose(*args):
            proposed.append(args)
            return propose(*args)

        def recording_step(kernel, phi, state, rng, radius=None):
            stepped.append(state)
            return step(kernel, phi, state, rng, radius=radius)

        monkeypatch.setattr(metropolis, "propose", recording_propose)
        monkeypatch.setattr(metropolis, "mh_step", recording_step)
        trace = run_chain(ChainConfig(kernel, phi, n=30, n0=10, seed=41))
        assert 0 < trace.accepts.sum() < 40
        assert len(proposed) == len(stepped) == 40
        for (k, mean, _, pack), state in zip(proposed, stepped):
            assert k is kernel and mean is state.mean and pack is state.pack

    def test_flat_target_always_accepts(self):
        prior, phi = flat_target(4)
        kernel = ProposalKernel("pcn", prior, 0.7)
        rng = np.random.default_rng(0)
        state = initial_record(kernel, phi, np.zeros(4))
        for _ in range(50):
            state, accepted = mh_step(kernel, phi, state, rng)
            assert accepted

    def test_restriction_rejects_outside_ball(self):
        prior, phi = flat_target(3)
        kernel = ProposalKernel("rw", prior, 0.9)   # surely leaves the tiny ball
        rng = np.random.default_rng(1)
        start = initial_record(kernel, phi, np.zeros(3))
        state, accepted = mh_step(kernel, phi, start, rng, radius=1e-3)
        assert accepted is False
        assert state is start

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_nonfinite_correction_counts_as_rejection(self, bad, monkeypatch):
        # A flat target accepts every finite step; a non-finite correction
        # rejects, after the step has drawn its normal vector and its uniform.
        prior, phi = flat_target(3)
        kernel = ProposalKernel("pcn", prior, 0.7)
        calls = []
        monkeypatch.setattr(metropolis, "log_acceptance_correction",
                            lambda *args: calls.append(1) or bad)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        start = initial_record(kernel, phi, np.zeros(3))
        for k in range(50):
            state, accepted = mh_step(kernel, phi, start, rng)
            twin.standard_normal(prior.dim)
            twin.random()
            assert accepted is False and state is start
            assert rng.bit_generator.state == twin.bit_generator.state
        assert len(calls) == 50

    def test_nonfinite_phi_counts_as_rejection(self):
        prior = PriorSpec(2)
        phi = lambda u: (np.inf if u[0] > 0 else 0.0, None)
        kernel = ProposalKernel("pcn", prior, 0.9)
        rng = np.random.default_rng(2)
        start = initial_record(kernel, phi, np.array([-0.5, 0.0]))
        state, accepted = mh_step(kernel, phi, start, rng)
        if state.u[0] > 0:
            raise AssertionError("moved to a forbidden state")
        assert np.isfinite(state.phi)

    def test_adapted_kernel_accepts_more_on_linear_gaussian(self):
        prior, phi, _, _, gamma = linear_gaussian_setup(n=2)
        s = 0.5
        counts = {}
        for name in ("pcn", "gpcn"):
            kernel = kernel_for(name, prior, s, gamma=gamma)
            rng = np.random.default_rng(33)
            state = initial_record(kernel, phi, np.zeros(2))
            hits = 0
            for _ in range(10000):
                state, accepted = mh_step(kernel, phi, state, rng)
                hits += accepted
            counts[name] = hits
        assert counts["gpcn"] > counts["pcn"]


class TestRunChain:
    def test_empty_run(self):
        prior, phi = flat_target(3)
        cfg = ChainConfig(ProposalKernel("pcn", prior, 0.5), phi, n=0, n0=50, seed=4)
        trace = run_chain(cfg)
        assert trace.states.shape == (0, 3)
        assert trace.accepts.shape == (50,)
        assert trace.acceptance_rate == 1.0

    def test_seeded_determinism(self):
        prior, phi, _, _, gamma = linear_gaussian_setup()
        kernel = ProposalKernel("gpcn", prior, 0.4, gamma=gamma)
        cfg = ChainConfig(kernel, phi, n=500, n0=100, seed=9,
                          qoi={"first": lambda u, aux: float(u[0])})
        a, b = run_chain(cfg), run_chain(cfg)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.accepts, b.accepts)
        assert np.array_equal(a.qoi_series["first"], b.qoi_series["first"])

    def test_thinning_keeps_qoi_dense(self):
        prior, phi = flat_target(2)
        cfg = ChainConfig(ProposalKernel("pcn", prior, 0.5), phi, n=100, n0=10, seed=5,
                          thin=7, qoi={"norm": lambda u, aux: float(np.linalg.norm(u))})
        trace = run_chain(cfg)
        assert trace.states.shape == (15, 2)      # ceil(100 / 7)
        assert trace.qoi_series["norm"].shape == (100,)
        assert trace.accepts.shape == (110,)

    def test_thin_none_keeps_no_states_and_the_same_chain(self):
        prior, phi, _, _, gamma = linear_gaussian_setup()
        kernel = ProposalKernel("gpcn", prior, 0.4, gamma=gamma)
        qoi = {"first": lambda u, aux: float(u[0]),
               "norm": lambda u, aux: float(np.linalg.norm(u))}
        full, bare = (run_chain(ChainConfig(kernel, phi, n=300, n0=30, seed=9,
                                            thin=thin, qoi=qoi)) for thin in (1, None))
        assert full.states.shape == (300, prior.dim)
        assert bare.states.shape == (0, prior.dim)
        assert np.array_equal(bare.accepts, full.accepts)
        for name in qoi:
            assert np.array_equal(bare.qoi_series[name], full.qoi_series[name])

    @pytest.mark.parametrize(("name", "value"), [
        *(pytest.param("thin", value, id=str(value)) for value in (0, -3, 1.5, 2.0, True, "2")),
        *(pytest.param(name, value, id=f"{name}={value}")
          for name in ("n", "n0") for value in (-1, 2.5, 10.0, True, False, "10"))])
    def test_thin_must_be_none_or_a_positive_integer(self, name, value):
        # n and n0 are checked the same way: integers, bool excluded, >= 0
        prior, phi = flat_target(2)
        counts = {"n": 10, "n0": 0, "thin": 1, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            ChainConfig(ProposalKernel("pcn", prior, 0.5), phi, seed=0, **counts)

    def test_stop_ends_the_run_with_the_steps_it_ran(self):
        prior, phi = flat_target(2)
        cfg = ChainConfig(ProposalKernel("rw", prior, 0.9), phi, n=100, n0=10,
                          seed=5, thin=3, qoi={"norm": lambda u, aux: float(np.linalg.norm(u))})
        full = run_chain(cfg)
        for steps in (4, 10, 11, 47, 110):
            calls = []

            def stop(k, a):
                calls.append((k, a))
                return k == steps

            trace = run_chain(cfg, stop=stop)
            assert calls == [(k, int(full.accepts[:k].sum())) for k in range(1, steps + 1)]
            assert np.array_equal(trace.accepts, full.accepts[:steps])
            assert trace.n0 == min(steps, 10) and trace.n == steps - trace.n0
            assert trace.acceptance_rate == full.accepts[:steps].mean()
            assert np.array_equal(trace.qoi_series["norm"], full.qoi_series["norm"][:trace.n])
            assert np.array_equal(trace.states, full.states[:len(range(0, trace.n, 3))])
        assert 0 < full.acceptance_rate < 1

    def test_restricted_chain_stays_in_ball(self):
        prior, phi = flat_target(3)
        radius = 0.8
        cfg = ChainConfig(ProposalKernel("pcn", prior, 0.6), phi, n=2000, n0=0, seed=6,
                          restriction_radius=radius)
        trace = run_chain(cfg)
        assert np.linalg.norm(trace.states, axis=1).max() < radius
        assert not trace.accepts.all()      # some proposals left the ball

    def test_initial_state_must_respect_radius(self):
        prior, phi = flat_target(2)
        with pytest.raises(ValueError, match="radius"):
            ChainConfig(ProposalKernel("pcn", prior, 0.5), phi, n=10, n0=0, seed=0,
                        initial_state=np.array([2.0, 0.0]), restriction_radius=1.0)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_nonfinite_initial_state_is_named(self, bad):
        prior, phi = flat_target(3)
        for i in (0, 2):
            start = np.zeros(3)
            start[i] = bad
            with pytest.raises(ValueError, match=rf"initial_state\[{i}\] = {bad}"):
                ChainConfig(ProposalKernel("pcn", prior, 0.5), phi, n=5, n0=0, seed=0,
                            initial_state=start)
        start = [0.0, bad, bad]           # the first non-finite entry is named
        with pytest.raises(ValueError, match=r"initial_state\[1\]"):
            ChainConfig(ProposalKernel("pcn", prior, 0.5), phi, n=5, n0=0, seed=0,
                        initial_state=start)

    def test_nonfinite_radius_rejected(self):
        prior, phi = flat_target(2)
        for radius in (np.nan, np.inf):
            with pytest.raises(ValueError, match="radius"):
                ChainConfig(ProposalKernel("pcn", prior, 0.5), phi, n=10, n0=0, seed=0,
                            restriction_radius=radius)

    def test_qoi_evaluated_only_at_new_states(self):
        prior, phi, _, _, _ = linear_gaussian_setup()
        calls = []

        def first(u, aux):
            calls.append(u.copy())
            return float(u[0])

        n0 = 50
        cfg = ChainConfig(ProposalKernel("pcn", prior, 0.6), phi, n=400, n0=n0, seed=12,
                          qoi={"first": first})
        trace = run_chain(cfg)
        assert 0 < trace.accepts[n0 + 1:].sum() < 399        # some steps rejected
        assert len(calls) == 1 + trace.accepts[n0 + 1:].sum()
        assert np.array_equal(trace.qoi_series["first"], [first(u, None) for u in trace.states])

    def test_recovers_linear_gaussian_posterior_mean(self):
        prior, phi, mean, cov, gamma = linear_gaussian_setup()
        kernel = ProposalKernel("gpcn", prior, 0.5, gamma=gamma)
        cfg = ChainConfig(kernel, phi, n=40000, n0=2000, seed=21, initial_state=mean)
        trace = run_chain(cfg)
        err = np.abs(trace.states.mean(axis=0) - mean)
        marginal_sd = np.sqrt(np.diag(cov))
        assert np.all(err < 6.0 * marginal_sd / np.sqrt(1000))  # ~ess lower bound


class TestStateRecords:
    """Every variant carries the record State(u, phi, aux, pack, mean, quad) as
    the chain state."""

    def local_setup(self, n=20):
        model = elliptic.ForwardModel(n)
        prior = PriorSpec(n)
        obs = elliptic.generate_data(elliptic.default_truth, 0.1, model,
                                     np.random.default_rng(30), seed=30)
        phi = elliptic.make_posterior(obs, model)
        xi_map = elliptic.map_estimate(obs, model, prior).xi
        calls = []

        def gamma_map(u, solve):
            calls.append(1)
            return elliptic.build_gamma_from_map(u, obs, model, solve)

        qoi = {"exp_integral": lambda u, solve: qoi_exp_integral(u, model, solve)}
        return prior, phi, xi_map, gamma_map, calls, qoi

    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.replace("-", "_"))
    def test_chain_matches_the_step_rule_without_records(self, variant):
        prior, phi, xi_map, gamma_map, _, qoi = self.local_setup()
        gamma = gamma_map(xi_map, None)
        s = 0.05 if variant == "rw" else 0.3
        for radius in (None, np.linalg.norm(xi_map) + 0.05):
            kernel = kernel_for(variant, prior, s, gamma=gamma, gamma_map=gamma_map)
            cfg = ChainConfig(kernel, phi, n=50, n0=10, seed=31, initial_state=xi_map,
                              restriction_radius=radius, qoi=qoi)
            trace = run_chain(cfg)
            accepts, states, series, _ = reference_chain(cfg)
            assert 0 < trace.accepts.sum() < 60
            assert np.array_equal(trace.accepts, accepts)
            assert np.array_equal(trace.states, states)
            assert np.array_equal(trace.qoi_series["exp_integral"], series["exp_integral"])

    @pytest.mark.parametrize("variant", LOCAL_VARIANTS, ids=("local_gpcn", "local_gpcn2"))
    def test_one_curvature_evaluation_per_tested_candidate(self, variant):
        prior, phi, xi_map, gamma_map, calls, _ = self.local_setup()
        n0, n = 10, 50
        for radius in (None, np.linalg.norm(xi_map) + 0.05):
            kernel = ProposalKernel(variant, prior, 0.3, gamma_map=gamma_map)
            cfg = ChainConfig(kernel, phi, n=n, n0=n0, seed=31, initial_state=xi_map,
                              restriction_radius=radius)
            calls.clear()
            run_chain(cfg)
            chain_calls = len(calls)
            tested = reference_chain(cfg)[3]
            assert chain_calls <= n0 + n + 1
            # the initial record plus one per candidate inside the ball
            assert chain_calls == 1 + tested
            if radius is not None:
                assert tested < n0 + n          # some candidates left the ball

    def test_step_returns_the_candidate_record_on_accept(self):
        prior, phi, xi_map, gamma_map, calls, _ = self.local_setup()
        kernel = ProposalKernel("local-gpcn", prior, 0.3, gamma_map=gamma_map)
        rng = np.random.default_rng(5)
        state = initial_record(kernel, phi, xi_map)
        moves = 0
        for _ in range(20):
            new, accepted = mh_step(kernel, phi, state, rng)
            if accepted:
                moves += 1
                value, solve = phi(new.u)
                assert new.phi == value
                assert all(np.array_equal(a, b) for a, b in zip(new.aux, solve, strict=True))
                fresh = kernel.pack_at(new.u, solve)
                assert np.array_equal(new.pack.v, fresh.v) and np.array_equal(new.pack.w, fresh.w)
                assert_record_fields(kernel, new)
            else:
                assert new is state
            state = new
        assert 0 < moves < 20

    def test_non_local_records_carry_the_fixed_pack(self):
        prior, phi, _, _, gamma = linear_gaussian_setup()
        for variant in ("rw", "pcn", "gn-rw", "gpcn"):
            kernel = kernel_for(variant, prior, 0.4, gamma=gamma)
            rng = np.random.default_rng(3)
            state = initial_record(kernel, phi, np.zeros(prior.dim))
            assert state.pack is kernel.pack
            assert kernel.pack.w.size == (0 if variant in ("rw", "pcn") else gamma.factor.shape[0])
            moves = 0
            for _ in range(10):
                state, accepted = mh_step(kernel, phi, state, rng)
                moves += accepted
                assert state.pack is kernel.pack
                assert_record_fields(kernel, state)
            assert moves > 0


class TestRankZeroLaw:
    """On the zero-row factor, Gamma = 0, gpcn's operators are A = sqrt(1-s^2) I
    and C_Gamma = C: gpcn is pcn and gn-rw is rw, step for step."""

    @pytest.mark.parametrize("n_modes", [50, 100, 800])
    def test_adapted_chain_on_zero_curvature_is_the_plain_chain(self, n_modes):
        model = elliptic.ForwardModel(n_modes)
        assert (model.sine_table is None) == (n_modes == 800)      # N = 800 runs the FFT path
        prior = PriorSpec(n_modes)
        obs = elliptic.generate_data(elliptic.default_truth, 0.1, model,
                                     np.random.default_rng(1), seed=1)
        xi_map = elliptic.map_estimate(obs, model, prior).xi
        phi = elliptic.make_posterior(obs, model)
        qoi = {"exp_integral": lambda u, solve: qoi_exp_integral(u, model, solve)}
        zero = FactoredGamma(np.zeros((0, n_modes)))
        for plain, adapted, s in (("pcn", "gpcn", 0.5), ("rw", "gn-rw", 0.05)):
            want, got = (run_chain(ChainConfig(kernel, phi, n=300, n0=0, seed=7,
                                               initial_state=xi_map, qoi=qoi))
                         for kernel in (ProposalKernel(plain, prior, s),
                                        ProposalKernel(adapted, prior, s, gamma=zero)))
            assert 0 < want.acceptance_rate < 1
            assert np.array_equal(got.accepts, want.accepts)
            assert np.array_equal(got.qoi_series["exp_integral"], want.qoi_series["exp_integral"])
            assert np.array_equal(got.states, want.states)


class TestSharedSolve:
    """Over the elliptic posterior a chain synthesizes each field once: phi
    does, and the Jacobian of a local pack and the QoI read its solve."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_field_per_candidate_that_reaches_phi(self, variant, monkeypatch):
        n, n0, steps = 20, 10, 60
        model, prior = elliptic.ForwardModel(n), PriorSpec(n)
        obs = elliptic.generate_data(elliptic.default_truth, 0.1, model,
                                     np.random.default_rng(30), seed=30)
        xi_map = elliptic.map_estimate(obs, model, prior).xi
        gamma = elliptic.build_gamma_from_map(xi_map, obs, model)
        syntheses, within = {"phi": 0, "gamma_map": 0, "qoi": 0}, []
        phi_calls = []

        def counted(name, fn):
            def call(*args):
                within.append(name)
                try:
                    return fn(*args)
                finally:
                    within.pop()
            return call

        potential = elliptic.make_posterior(obs, model)
        phi = counted("phi", lambda u: phi_calls.append(1) or potential(u))
        qoi = {"exp_integral": counted("qoi", lambda u, solve: qoi_exp_integral(u, model, solve))}
        if variant in LOCAL_VARIANTS:
            gamma_map = counted("gamma_map", lambda u, solve: elliptic.build_gamma_from_map(
                u, obs, model, solve))
            kernel = ProposalKernel(variant, prior, 0.2, gamma_map=gamma_map)
        else:
            kernel = kernel_of(variant, prior, gamma, 0.2)

        synthesize = elliptic.kl_to_field

        def synthesis(xi, m):
            syntheses[within[-1]] += 1
            return synthesize(xi, m)

        for module in (elliptic, diagnostics):
            monkeypatch.setattr(module, "kl_to_field", synthesis)
        model_state = dict(vars(model))
        for radius in (None, np.linalg.norm(xi_map) + 0.05):
            phi_calls.clear()
            syntheses.update(dict.fromkeys(syntheses, 0))
            cfg = ChainConfig(kernel, phi, n=steps, n0=n0, seed=32, initial_state=xi_map,
                              restriction_radius=radius, qoi=qoi)
            trace = run_chain(cfg)
            counts, calls = dict(syntheses), len(phi_calls)
            assert 0 < trace.accepts.sum() < n0 + steps
            # once for the initial state, then once per candidate that reaches phi
            assert counts["phi"] == calls == 1 + reference_chain(cfg)[3]
            assert (calls < 1 + n0 + steps) == (radius is not None)   # some left the ball
            assert counts["gamma_map"] == 0
            # the QoI reads the field of the state's own solve, on accept or reject
            assert counts["qoi"] == 0
            # the model carries no state: every attribute is the object it was
            assert vars(model).keys() == model_state.keys()
            assert all(vars(model)[k] is v for k, v in model_state.items())


class TestTuner:
    def test_flat_target_returns_upper_boundary_with_warning(self):
        prior, phi = flat_target(3)
        result = tune_step_size(ProposalKernel("pcn", prior, 0.5), phi, 0.25, 1000,
                                np.random.default_rng(7))
        assert result.s == pytest.approx(0.999)
        assert result.acceptance_rate == 1.0
        assert not result.converged

    def test_hits_band_on_elliptic_problem(self):
        model = elliptic.ForwardModel(50)
        prior = PriorSpec(50)
        obs = elliptic.generate_data(elliptic.default_truth, 0.1, model,
                                     np.random.default_rng(8), seed=8)
        phi = elliptic.make_posterior(obs, model)
        start = elliptic.map_estimate(obs, model, prior).xi
        result = tune_step_size(ProposalKernel("pcn", prior, 0.5), phi, 0.25, 2000,
                                np.random.default_rng(9), initial_state=start)
        assert result.converged
        assert 0.20 <= result.acceptance_rate <= 0.30

    def test_acceptance_decreases_with_step(self):
        model = elliptic.ForwardModel(20)
        prior = PriorSpec(20)
        obs = elliptic.generate_data(elliptic.default_truth, 0.1, model,
                                     np.random.default_rng(10), seed=10)
        phi = elliptic.make_posterior(obs, model)
        start = elliptic.map_estimate(obs, model, prior).xi

        def median_rate(s):
            rates = []
            for seed in (1, 2, 3):
                cfg = ChainConfig(ProposalKernel("pcn", prior, s), phi, n=2000, n0=0, seed=seed,
                                  initial_state=start)
                rates.append(run_chain(cfg).acceptance_rate)
            return np.median(rates)

        for s in (0.2, 0.5, 0.8):
            assert median_rate(s / 2.0) >= median_rate(s)

    def test_validates_inputs(self):
        prior, phi = flat_target(2)
        kernel = ProposalKernel("pcn", prior, 0.5)
        with pytest.raises(ValueError):
            tune_step_size(kernel, phi, 1.5, 1000, np.random.default_rng(0))
        with pytest.raises(ValueError):
            tune_step_size(kernel, phi, 0.3, 100, np.random.default_rng(0))

    def test_early_stopped_pilots_match_full_pilots(self, monkeypatch):
        # Each case runs tune_step_size and its full-pilot oracle from the
        # same tune stream; the outcome must agree exactly, and only pilots
        # whose rate is not returned may end early.  Each case sets the
        # tuner's BAND_TOL and MAX_PILOTS to the oracle's tol and max_iters.
        model = elliptic.ForwardModel(20)
        prior = PriorSpec(20)
        cases = []
        for sigma, data_seed in ((0.1, 30), (0.01, 31)):
            obs = elliptic.generate_data(elliptic.default_truth, sigma, model,
                                         np.random.default_rng(data_seed), seed=data_seed)
            phi = elliptic.make_posterior(obs, model)
            xi_map = elliptic.map_estimate(obs, model, prior).xi
            gamma = elliptic.build_gamma_from_map(xi_map, obs, model)
            for variant in ("rw", "pcn", "gn-rw", "gpcn"):
                kernel = kernel_for(variant, prior, 0.5, gamma=gamma)
                for tol in (0.05, 0.02):
                    cases.append((kernel, phi, 0.25, xi_map, tol, 30))
            for max_iters in (1, 2, 3):
                cases.append((ProposalKernel("pcn", prior, 0.5), phi, 0.25, xi_map,
                              0.02, max_iters))
        flat_prior, flat = flat_target(3)
        cases.append((ProposalKernel("pcn", flat_prior, 0.5), flat, 0.25, None, 0.05, 30))
        # A potential so steep that even S_LO accepts only about half its
        # proposals, below the band around 0.9.
        cases.append((ProposalKernel("rw", PriorSpec(3), 0.5), lambda u: (1e7 * u[0], None), 0.9,
                      None, 0.05, 30))

        returned = set()
        steps_full = steps_stopped = 0
        for seed, (kernel, phi, target, start, tol, max_iters) in enumerate(cases):
            full = reference_tune(kernel, phi, target, 1000,
                                  np.random.default_rng(seed), start, tol, max_iters)
            monkeypatch.setattr(metropolis, "BAND_TOL", tol)
            monkeypatch.setattr(metropolis, "MAX_PILOTS", max_iters)
            fast = tune_step_size(kernel, phi, target, 1000, np.random.default_rng(seed), start)
            assert fast.s == full.s
            assert fast.acceptance_rate == full.acceptance_rate
            assert fast.converged == full.converged
            assert fast.pilots[-1] == full.pilots[-1]        # the returned pilot ran to its end
            for (s, k, a), (s_full, _, a_full) in zip(fast.pilots, full.pilots, strict=True):
                # a stopped pilot ran a prefix of the full pilot's steps
                assert s == s_full and 0 < k <= 1000 and a <= a_full <= a + 1000 - k
            steps_full += sum(k for _, k, _ in full.pilots)
            steps_stopped += sum(k for _, k, _ in fast.pilots)
            returned.add(fast.s if fast.s in (S_LO, S_HI) else "bisection")
        assert returned == {S_LO, S_HI, "bisection"}
        assert steps_stopped < 0.8 * steps_full

    def test_confidence_stop_ends_a_pilot_that_never_accepts(self):
        # S_HI never accepts on this potential, so after k steps the
        # Hoeffding interval is [-h(k), h(k)]; it falls below the target at
        # the first k above ln(2 n / delta) / (2 target^2), where the exact
        # rule alone needs k > (1 - target) n.
        steep = lambda u: (1e7 * float(u @ u), None)
        n, target = 1000, 0.25
        bound = math.ceil(math.log(2 * n / PILOT_DELTA) / (2 * target**2))
        assert bound == 117
        result = tune_step_size(ProposalKernel("pcn", PriorSpec(3), 0.5), steep, target, n,
                                np.random.default_rng(3))
        assert result.pilots[0] == (S_HI, bound, 0)
        assert result.converged and result.pilots[-1][1] == n   # the returned pilot ran to its end

    def test_adapted_kernel_acceptance_stable_across_dimension(self):
        # dimension robustness: the step tuned at N = 50 keeps its acceptance
        # rate (within the tuner band) when the problem grows to N = 200
        def cell(n_modes):
            model = elliptic.ForwardModel(n_modes)
            prior = PriorSpec(n_modes)
            obs = elliptic.generate_data(elliptic.default_truth, 0.1, model,
                                         np.random.default_rng(20), seed=20)
            phi = elliptic.make_posterior(obs, model)
            xi_map = elliptic.map_estimate(obs, model, prior).xi
            gamma = elliptic.build_gamma_from_map(xi_map, obs, model)
            return prior, phi, xi_map, gamma

        prior, phi, xi_map, gamma = cell(50)
        tuned = tune_step_size(ProposalKernel("gpcn", prior, 0.5, gamma=gamma), phi,
                               0.25, 2000, np.random.default_rng(21),
                               initial_state=xi_map)
        rates = {}
        for n_modes in (50, 200):
            prior, phi, xi_map, gamma = cell(n_modes)
            kernel = ProposalKernel("gpcn", prior, tuned.s, gamma=gamma)
            cfg = ChainConfig(kernel, phi, n=5000, n0=500, seed=22,
                              initial_state=xi_map, thin=None)
            rates[n_modes] = run_chain(cfg).acceptance_rate
        assert abs(rates[50] - rates[200]) <= 0.05


class TestExports:
    def make_trace(self, tmp_path):
        prior, phi = flat_target(2)
        model = elliptic.ForwardModel(2)
        cfg = ChainConfig(ProposalKernel("pcn", prior, 0.4), phi, n=200, n0=20, seed=12,
                          qoi={"exp_integral": lambda u, aux: qoi_exp_integral(u, model)})
        return run_chain(cfg)

    def test_csv_round_trip_is_exact(self, tmp_path):
        trace = self.make_trace(tmp_path)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, header={"seed": 12, "note": "test"})
        header, steps, accepts, qoi = read_trace_csv(path)
        assert header["seed"] == "12"
        assert steps.shape == (200,)
        assert np.array_equal(accepts, trace.accepts[20:])
        # 17 significant digits round-trip float64 exactly
        assert np.array_equal(qoi["exp_integral"], trace.qoi_series["exp_integral"])

    def test_csv_bytes_are_deterministic(self, tmp_path):
        trace = self.make_trace(tmp_path)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(trace, p1, header={"seed": 12})
        write_trace_csv(trace, p2, header={"seed": 12})
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("names", ((), ("f",), ("f", "g")), ids=("0-qoi", "1-qoi", "2-qoi"))
    def test_csv_bytes_match_the_row_writer(self, tmp_path, names):
        values = np.array([1.5, -2.25, np.nan, np.inf, -np.inf, 1e-300, -0.0, 0.1 + 0.2])
        accepts = np.array([True, False, True, True, False, False, True, True, False, True])
        for n0, n in ((2, 8), (10, 0)):          # the second keeps no post burn-in step
            series = {name: np.roll(values, k)[:n] for k, name in enumerate(names)}
            trace = ChainTrace(states=np.empty((0, 2)), accepts=accepts, qoi_series=series,
                               acceptance_rate=0.6, wall_time=0.0, n=n, n0=n0)
            for header in (None, {"seed": 12, "cell": "pcn_N2"}):
                got, want = tmp_path / "got.csv", tmp_path / "want.csv"
                write_trace_csv(trace, got, header=header)
                reference_write_trace_csv(trace, want, header=header)
                assert got.read_bytes() == want.read_bytes()
        if names:                                # a series one step short writes nothing
            short = ChainTrace(states=np.empty((0, 2)), accepts=accepts,
                               qoi_series={name: values[:7] for name in names},
                               acceptance_rate=0.6, wall_time=0.0, n=8, n0=2)
            with pytest.raises(ValueError):
                write_trace_csv(short, tmp_path / "short.csv")
            assert not (tmp_path / "short.csv").exists()

    def test_state_dump_round_trip(self, tmp_path):
        trace = self.make_trace(tmp_path)
        path = tmp_path / "states.npy"
        write_state_dump(trace, path)
        loaded = np.load(path)
        assert loaded.dtype == np.float64
        assert loaded.flags["C_CONTIGUOUS"]
        assert np.array_equal(loaded, trace.states)

    def test_csv_reader_matches_the_row_list_parser(self, tmp_path):
        prior, phi = flat_target(3)
        model = elliptic.ForwardModel(3)
        cfg = ChainConfig(ProposalKernel("pcn", prior, 0.6), phi, n=500, n0=50, seed=13,
                          thin=None,
                          qoi={"exp_integral": lambda u, aux: qoi_exp_integral(u, model),
                               "first": lambda u, aux: float(u[0])})
        path = tmp_path / "trace.csv"
        write_trace_csv(run_chain(cfg), path, header={"seed": 13, "cell": "pcn_N3"})
        header, steps, accepts, qoi = read_trace_csv(path)
        want_header, want_steps, want_accepts, want_qoi = reference_read_trace_csv(path)
        assert header == want_header == {"seed": "13", "cell": "pcn_N3"}
        assert steps.dtype == want_steps.dtype and np.array_equal(steps, want_steps)
        assert accepts.dtype == want_accepts.dtype and np.array_equal(accepts, want_accepts)
        assert list(qoi) == list(want_qoi) == ["exp_integral", "first"]
        for name in qoi:
            assert np.array_equal(qoi[name], want_qoi[name])

    def test_empty_trace_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("step,accept,qoi_f\n")
        with pytest.raises(ValueError, match="no samples"):
            read_trace_csv(path)
        path.write_text("# seed = 1\n")
        with pytest.raises(ValueError, match="no header row"):
            read_trace_csv(path)
        path.write_text("step,accept,qoi_f\n0,1\n1,0\n")
        with pytest.raises(ValueError, match="2 values per row but 3 column names"):
            read_trace_csv(path)
