"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The trend criteria (1-3) rerun the benchmark at reduced scale
(n = 5e4, n0 = 5e3, medians over 3 chain seeds) with step sizes tuned to a
0.25 acceptance target; all seeds derive from one pinned master seed.
Their cells run two at a time in worker processes.  Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to stream the
per-criterion lines).
"""

from unittest import mock

import numpy as np
import pytest

from gpcn import elliptic, metropolis
from gpcn.diagnostics import ess_batch_means, ess_ims, qoi_exp_integral
from gpcn.experiment import derive_seed, worker_pool
from gpcn.gaussian_ops import (
    FactoredGamma,
    PriorSpec,
    admissible_exponent_bound,
    build_operator_pack,
    integrability_bound,
    log_rho_gamma,
)
from gpcn.metropolis import ChainConfig, run_chain, tune_step_size
from gpcn.proposals import ProposalKernel, log_acceptance_correction
from gpcn.spectral import (
    cheeger_check,
    comparison_check,
    positivity_check,
    random_proposal,
    random_reversible_chain,
    restriction_check,
)
from helpers import (
    ar1_series,
    dense_operators,
    gaussian_logpdf,
    kernel_for,
    lab_grid_chain,
    linear_posterior,
    random_factor,
    sampler_operators,
)

MASTER = 2
N_SAMPLES = 50000
N_BURN = 5000
CHAIN_SEEDS = (0, 1, 2)
VARIANT_ID = {"rw": 0, "pcn": 1, "gn-rw": 2, "gpcn": 3}


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print("\n" + line, flush=True)
    assert ok, line


def _elliptic_problem(n_modes, sigma):
    model = elliptic.ForwardModel(n_modes)
    prior = PriorSpec(n_modes)
    data_seed = derive_seed(MASTER, 0, n_modes, int(sigma * 1000))
    obs = elliptic.generate_data(elliptic.default_truth, sigma, model,
                                 np.random.default_rng(data_seed), seed=data_seed)
    phi = elliptic.make_posterior(obs, model)
    xi_map = elliptic.map_estimate(obs, model, prior).xi
    gamma = elliptic.build_gamma_from_map(xi_map, obs, model)
    return model, prior, phi, xi_map, gamma


def median_ess(variant, n_modes, sigma):
    """Median IMS effective sample size over three tuned chains for one cell."""
    model, prior, phi, xi_map, gamma = _elliptic_problem(n_modes, sigma)
    tune_seed = derive_seed(MASTER, 1, VARIANT_ID[variant], n_modes, int(sigma * 1000))
    # The criteria tune to the band 0.23-0.27, narrower than the library's.
    # The cell runs in a spawned worker, so the band is set here, not by a fixture.
    with mock.patch.object(metropolis, "BAND_TOL", 0.02):
        tuned = tune_step_size(kernel_for(variant, prior, 0.5, gamma=gamma), phi, 0.25, 2000,
                               np.random.default_rng(tune_seed), initial_state=xi_map)
    kernel = kernel_for(variant, prior, tuned.s, gamma=gamma)
    esses = []
    for rep in CHAIN_SEEDS:
        seed = derive_seed(MASTER, 2, VARIANT_ID[variant], n_modes, int(sigma * 1000), rep)
        cfg = ChainConfig(kernel, phi, n=N_SAMPLES, n0=N_BURN, seed=seed,
                          initial_state=xi_map, thin=None,
                          qoi={"f": lambda xi, solve: qoi_exp_integral(xi, model, solve)})
        esses.append(ess_ims(run_chain(cfg).qoi_series["f"]).ess)
    return float(np.median(esses))


def median_esses(cells):
    """``median_ess(variant, N, sigma)`` of each cell, in order; the cells are
    independent, so two worker processes share them."""
    with worker_pool(2) as pool:
        return list(pool.map(median_ess, *zip(*cells)))


@pytest.mark.slow
def test_criterion_01_dimension_robustness():
    sigma = 0.1
    keys = [(v, n) for v in ("rw", "pcn", "gpcn") for n in (50, 200)]
    ess = dict(zip(keys, median_esses([(v, n, sigma) for v, n in keys])))
    pcn_ratio = ess[("pcn", 200)] / ess[("pcn", 50)]
    gpcn_ratio = ess[("gpcn", 200)] / ess[("gpcn", 50)]
    rw_ratio = ess[("rw", 200)] / ess[("rw", 50)]
    ok = (0.5 <= pcn_ratio <= 2.0) and (0.5 <= gpcn_ratio <= 2.0) and rw_ratio < 0.5
    report("criterion-01 dimension-robustness",
           ok, f"ESS(N200)/ESS(N50): pcn={pcn_ratio:.2f}, gpcn={gpcn_ratio:.2f} "
               f"(need within factor 2), rw={rw_ratio:.2f} (need < 0.5); medians={ess}")


@pytest.mark.slow
def test_criterion_02_noise_robustness():
    n_modes = 100
    keys = [(v, s) for v in ("rw", "pcn", "gn-rw", "gpcn") for s in (0.1, 0.01)]
    ess = dict(zip(keys, median_esses([(v, n_modes, s) for v, s in keys])))
    ratio = {v: ess[(v, 0.01)] / ess[(v, 0.1)] for v in ("rw", "pcn", "gn-rw", "gpcn")}
    ok = (0.5 <= ratio["gpcn"] <= 2.0 and 0.5 <= ratio["gn-rw"] <= 2.0
          and ratio["pcn"] < 0.5 and ratio["rw"] < 0.5)
    report("criterion-02 noise-robustness",
           ok, f"ESS(0.01)/ESS(0.1): gpcn={ratio['gpcn']:.2f}, gn-rw={ratio['gn-rw']:.2f} "
               f"(need within factor 2), pcn={ratio['pcn']:.2f}, rw={ratio['rw']:.2f} "
               f"(need < 0.5); medians={ess}")


@pytest.mark.slow
def test_criterion_03_gpcn_dominance():
    n_modes, sigma = 400, 0.01
    keys = ["rw", "pcn", "gn-rw", "gpcn"]
    ess = dict(zip(keys, median_esses([(v, n_modes, sigma) for v in keys])))
    ok = all(ess["gpcn"] >= ess[v] for v in ("rw", "pcn", "gn-rw"))
    report("criterion-03 gpcn-dominance",
           ok, f"median ESS at N=400, sigma=0.01: {ess}")


def test_criterion_04_linear_posterior_oracle():
    n = 10
    rng = np.random.default_rng(404)
    prior = PriorSpec(n)
    obs_matrix = rng.standard_normal((4, n))
    offset = rng.standard_normal(4)
    sigma = 0.3
    truth = 0.7 * prior.sample(rng)
    y = obs_matrix @ truth + offset + sigma * rng.standard_normal(4)
    post_mean, post_cov = linear_posterior(obs_matrix, offset, y, sigma**2 * np.eye(4), prior)

    def potential(u):
        r = y - (obs_matrix @ u + offset)
        return float(0.5 * (r @ r) / sigma**2), None

    gamma = FactoredGamma(obs_matrix / sigma)        # Gamma = L^T L / sigma^2
    marginals = np.diag(post_cov)

    details, ok = [], True
    for variant, s in (("pcn", 0.25), ("gpcn", 0.7)):
        kernel = kernel_for(variant, prior, s, gamma=gamma)
        cfg = ChainConfig(kernel, potential, n=200000, n0=10000, seed=17,
                          initial_state=post_mean)
        states = run_chain(cfg).states
        z_scores = np.empty(n)
        for j in range(n):
            iact = ess_ims(states[:, j]).iact
            se = states[:, j].std(ddof=1) * np.sqrt(iact / states.shape[0])
            z_scores[j] = abs(states[:, j].mean() - post_mean[j]) / se
        var_err = np.abs(states.var(axis=0, ddof=1) - marginals) / marginals
        ok = ok and z_scores.max() < 3.0 and var_err.max() < 0.10
        details.append(f"{variant}: max|z|={z_scores.max():.2f} (<3), "
                       f"max var err={var_err.max():.3f} (<0.10)")
    report("criterion-04 linear-posterior-oracle", ok, "; ".join(details))


def test_criterion_05_density_oracle():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        prior = PriorSpec(n)
        s = float(rng.uniform(0.05, 0.95))
        gamma = random_factor(n, rng, scale=rng.uniform(0.2, 3.0))
        pack = build_operator_pack(prior, gamma, s)
        ops = dense_operators(prior, gamma, s)
        u, v = prior.sample(rng), prior.sample(rng)
        oracle = (gaussian_logpdf(v, np.sqrt(1 - s * s) * u, s * s * ops["c"])
                  - gaussian_logpdf(v, ops["a"] @ u, s * s * ops["c_gamma"]))
        worst = max(worst, abs(log_rho_gamma(pack, u, v) - oracle))
    report("criterion-05 density-oracle", worst < 1e-8,
           f"max |log rho - log pdf ratio| = {worst:.3e} over 100 instances (< 1e-8)")


def test_criterion_06_operator_identities():
    rng = np.random.default_rng(606)
    worst_rev, worst_half, worst_psd = 0.0, 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 16))
        prior = PriorSpec(n)
        gamma = random_factor(n, rng, scale=rng.uniform(0.2, 4.0))
        pack = build_operator_pack(prior, gamma, float(rng.uniform(0.05, 0.95)))
        # A and C_Gamma = R R^T from the sampling path; B and D from the dense oracle
        a, root = sampler_operators(pack)
        ops = dense_operators(prior, gamma, pack.s)
        c = ops["c"]
        cn = np.linalg.norm(c)
        worst_rev = max(worst_rev,
                        np.linalg.norm(a @ c @ a.T + pack.s**2 * root @ root.T - c) / cn)
        worst_half = max(worst_half, np.linalg.norm(ops["b_half"] @ ops["b_half"] - a))
        worst_psd = min(worst_psd, np.linalg.eigvalsh(0.5 * (ops["d"] + ops["d"].T)).min())
    ok = worst_rev < 1e-9 and worst_half < 1e-9 and worst_psd >= -1e-10
    report("criterion-06 operator-identities", ok,
           f"max ||ACA*+s2C_G-C||/||C||={worst_rev:.2e} (<1e-9), "
           f"max ||B^2-A||={worst_half:.2e} (<1e-9), min eig(D)={worst_psd:.2e} (>=-1e-10)")


def test_criterion_07_integrability_bound():
    rng = np.random.default_rng(707)
    violations = 0
    for _ in range(50):
        n = int(rng.integers(2, 11))
        prior = PriorSpec(n)
        pack = build_operator_pack(prior, random_factor(n, rng, scale=rng.uniform(0.2, 4.0)),
                                   float(rng.uniform(0.1, 0.9)))
        p_max = admissible_exponent_bound(pack)
        p = float(rng.uniform(0.2, 0.999)) * p_max
        exact, bound = integrability_bound(pack, p, 2.0 * prior.sample(rng))
        if not exact <= bound * (1.0 + 1e-12):
            violations += 1
    zero_pack = build_operator_pack(PriorSpec(4), FactoredGamma(np.zeros((0, 4))), 0.5)
    equality = integrability_bound(zero_pack, 2.5, np.ones(4)) == (1.0, 1.0)
    report("criterion-07 integrability-bound", violations == 0 and equality,
           f"{violations} violations over 50 admissible instances; "
           f"zero-curvature equality case gives (1, 1): {equality}")


def test_criterion_08_jacobian_finite_differences():
    worst = {}
    for n_modes in (5, 20, 50):
        model = elliptic.ForwardModel(n_modes)
        rng = np.random.default_rng(800 + n_modes)
        xi = rng.standard_normal(n_modes) * 0.3
        jac = elliptic.jacobian(xi, model)
        h = 1e-6
        fd = np.empty_like(jac)
        for k in range(n_modes):
            e = np.zeros(n_modes)
            e[k] = h
            fd[:, k] = (elliptic.forward(xi + e, model)
                        - elliptic.forward(xi - e, model)) / (2.0 * h)
        worst[n_modes] = float(np.abs(jac - fd).max() / np.abs(jac).max())
    ok = all(v < 1e-5 for v in worst.values())
    report("criterion-08 jacobian-vs-finite-differences", ok,
           f"relative errors {worst} (each < 1e-5)")


def test_criterion_09_finite_state_lab():
    failures = []
    for k in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([909, k]))
        n = int(rng.integers(4, 13))
        chain = random_reversible_chain(n, rng)
        if chain.balance_gap >= 1e-12:
            failures.append(f"{k}: detailed balance")
        if not cheeger_check(chain)["ok"]:
            failures.append(f"{k}: cheeger")
        comparison = comparison_check(chain.pi, random_proposal(n, rng),
                                      random_proposal(n, rng), 2.0)
        if not (comparison["lemma_ok"] and comparison["theorem_ok"]):
            failures.append(f"{k}: comparison")
        subset = rng.choice(n, size=max(2, n // 2), replace=False)
        if not restriction_check(chain, subset)["ok"]:
            failures.append(f"{k}: restriction")
    grid_eig = positivity_check(lab_grid_chain())
    if grid_eig < -1e-10:
        failures.append("grid positivity")
    report("criterion-09 finite-state-lab", not failures,
           f"20 seeded instances (n <= 12): detailed balance < 1e-12, Cheeger, "
           f"comparison (lazified as needed), restriction all hold; the lab's grid "
           f"gpCN chain (read from propose) min eig = {grid_eig:.2e} (>= -1e-10); "
           f"failures: {failures or 'none'}")


def test_criterion_10_ess_estimators():
    n = 100000
    ar1 = ar1_series(n, 0.5, np.random.default_rng(1))
    iid = np.random.default_rng(11).standard_normal(n)
    target = n / 3.0
    errs = {
        "ims-ar1": abs(ess_ims(ar1).ess - target) / target,
        "bm-ar1": abs(ess_batch_means(ar1).ess - target) / target,
        "ims-iid": abs(ess_ims(iid).ess - n) / n,
        "bm-iid": abs(ess_batch_means(iid).ess - n) / n,
    }
    ok = errs["ims-ar1"] < 0.15 and errs["bm-ar1"] < 0.15 \
        and errs["ims-iid"] < 0.10 and errs["bm-iid"] < 0.10
    report("criterion-10 ess-estimators", ok,
           f"relative errors {({k: round(v, 4) for k, v in errs.items()})} "
           f"(AR(1) vs n/3 < 0.15, iid vs n < 0.10)")


def test_criterion_11_local_gpcn():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        prior = PriorSpec(n)
        base = random_factor(n, rng, scale=rng.uniform(0.2, 2.0)).factor
        s = float(rng.uniform(0.1, 0.9))
        # Gamma(u) = base^T base + u u^T / (1 + |u|^2)
        kernel = ProposalKernel("local-gpcn", prior, s,
                                gamma_map=lambda u, aux, b=base: FactoredGamma(
                                    np.vstack([b, u / np.sqrt(1.0 + u @ u)])))
        u, v = prior.sample(rng), prior.sample(rng)
        pack_u, pack_v = kernel.pack_at(u, None), kernel.pack_at(v, None)
        ops_u = dense_operators(prior, kernel.gamma_map(u, None), s)
        ops_v = dense_operators(prior, kernel.gamma_map(v, None), s)
        c = np.diag(prior.eigenvalues)
        # pointwise detailed balance: q(u,v) pdf0(u) rho_{G(u)}(u,v) symmetric
        lhs = (gaussian_logpdf(v, ops_u["a"] @ u, s * s * ops_u["c_gamma"])
               + gaussian_logpdf(u, np.zeros(n), c)
               + log_rho_gamma(pack_u, u, v))
        rhs = (gaussian_logpdf(u, ops_v["a"] @ v, s * s * ops_v["c_gamma"])
               + gaussian_logpdf(v, np.zeros(n), c)
               + log_rho_gamma(pack_v, v, u))
        worst = max(worst, abs(lhs - rhs))
    prior = PriorSpec(6)
    gamma = random_factor(6, rng)
    const_kernel = ProposalKernel("local-gpcn", prior, 0.4, gamma_map=lambda u, aux: gamma)
    u, v = prior.sample(rng), prior.sample(rng)
    exact_zero = log_acceptance_correction(const_kernel, u, v, const_kernel.pack_at(u, None),
                                           const_kernel.pack_at(v, None), None, None) == 0.0
    ok = worst < 1e-8 and exact_zero
    report("criterion-11 local-gpcn", ok,
           f"max detailed-balance log asymmetry = {worst:.3e} over 100 pairs (< 1e-8); "
           f"constant-curvature correction is exactly the global one (0): {exact_zero}")


def fixed_step_rates(n_modes, sigma, cells):
    """Acceptance rate of each (variant, s) of ``cells`` on the elliptic posterior with
    N modes (on their own grid) and noise sigma, data seed 1: one chain of 3000 steps
    after 500 burn-in steps from the MAP, chain seed 1."""
    model, prior = elliptic.ForwardModel(n_modes), PriorSpec(n_modes)
    obs = elliptic.generate_data(elliptic.default_truth, sigma, model,
                                 np.random.default_rng(1), seed=1)
    phi = elliptic.make_posterior(obs, model)
    xi_map = elliptic.map_estimate(obs, model, prior).xi
    gamma = elliptic.build_gamma_from_map(xi_map, obs, model)
    return {variant: run_chain(ChainConfig(kernel_for(variant, prior, s, gamma=gamma), phi,
                                           n=3000, n0=500, seed=1, initial_state=xi_map,
                                           thin=None)).acceptance_rate
            for variant, s in cells}


def test_criterion_12_fixed_step_acceptance():
    # Bands from chain seeds 1-5: pcn 0.607-0.651 and gpcn 0.251-0.278 over N, rw
    # 0.233-0.250 at N = 1600; gpcn 0.482-0.606 over sigma, pcn's fall 25-40x.
    dim = {n: fixed_step_rates(n, 0.1, (("rw", 0.05), ("pcn", 0.2), ("gpcn", 0.8)))
           for n in (25, 400, 1600)}
    noise = {sigma: fixed_step_rates(100, sigma, (("pcn", 0.2), ("gpcn", 0.5)))
             for sigma in (0.1, 0.01, 0.003)}
    pcn_fall = noise[0.1]["pcn"] / max(noise[0.003]["pcn"], 1e-12)
    ok = (all(0.55 <= r["pcn"] <= 0.72 and 0.22 <= r["gpcn"] <= 0.32 for r in dim.values())
          and dim[1600]["rw"] < 0.35
          and all(0.42 <= r["gpcn"] <= 0.67 for r in noise.values()) and pcn_fall >= 10.0)
    report("criterion-12 fixed-step-acceptance", ok,
           f"over N = 25, 400, 1600 at sigma = 0.1: pcn (s = 0.2) "
           f"{[round(r['pcn'], 3) for r in dim.values()]} (need in [0.55, 0.72]), gpcn "
           f"(s = 0.8) {[round(r['gpcn'], 3) for r in dim.values()]} (need in [0.22, 0.32]), "
           f"rw (s = 0.05) {[round(r['rw'], 3) for r in dim.values()]} (need < 0.35 at "
           f"N = 1600); over sigma = 0.1, 0.01, 0.003 at N = 100: gpcn (s = 0.5) "
           f"{[round(r['gpcn'], 3) for r in noise.values()]} (need in [0.42, 0.67]), pcn "
           f"(s = 0.2) {[round(r['pcn'], 3) for r in noise.values()]} falls {pcn_fall:.1f}x "
           f"(need >= 10)")
