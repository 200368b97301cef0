"""Shared oracles for the test suite, kept independent of the library paths."""

import csv
import json
from dataclasses import replace

import numpy as np


def gaussian_logpdf(x, mean, cov):
    """Dense multivariate normal log-density (direct slogdet/solve evaluation)."""
    d = np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (d.shape[0] * np.log(2.0 * np.pi) + logdet + d @ np.linalg.solve(cov, d))


def random_factor(n, rng, scale=1.0):
    """A random curvature Gamma = scale m m^T / n, m an n x n standard normal
    draw, as its factor sqrt(scale / n) m^T."""
    from gpcn.gaussian_ops import FactoredGamma

    m = rng.standard_normal((n, n))
    return FactoredGamma(np.sqrt(scale / n) * m.T)


def dense_gamma(gamma):
    """The dense N x N matrix Gamma = F^T F of a ``FactoredGamma``."""
    return gamma.factor.T @ gamma.factor


def dense_operators(prior, gamma, s):
    """The gpCN operators by dense N x N algebra from Gamma itself, never from
    an operator pack's V and w.  ``gamma`` is a ``FactoredGamma`` or its dense
    N x N matrix.  C_Gamma = inv(C^{-1} + Gamma); from an ``eigh`` of
    H = C^{1/2} Gamma C^{1/2} and f(H) = (I - s^2 (I + H)^{-1})^{1/2}:

        A = C^{1/2} f(H) C^{-1/2},      B = C^{1/2} f(H)^{1/2} C^{-1/2},
        Delta = sqrt(1 - s^2) I - A,    D = C - B C B^T.
    """
    gamma = dense_gamma(gamma) if hasattr(gamma, "factor") else np.asarray(gamma, dtype=float)
    lam, std = prior.eigenvalues, prior.std
    c = np.diag(lam)
    h = std[:, None] * gamma * std[None, :]
    w, vecs = np.linalg.eigh(0.5 * (h + h.T))
    w = np.clip(w, 0.0, None)
    f = 1.0 - s * s / (1.0 + w)

    def similar(values):                  # C^{1/2} g(H) C^{-1/2}, g(H) with eigenvalues values
        return (std[:, None] * vecs) @ (values[:, None] * (vecs.T / std[None, :]))

    a, b = similar(np.sqrt(f)), similar(np.sqrt(np.sqrt(f)))
    delta = np.sqrt(1.0 - s * s) * np.eye(prior.dim) - a
    return {"gamma": gamma, "s": s, "c": c, "h": h,
            "c_gamma": np.linalg.inv(np.diag(1.0 / lam) + gamma),
            "a": a, "b_half": b, "delta": delta, "d": c - b @ c @ b.T,
            "logdet_ih": float(np.linalg.slogdet(np.eye(prior.dim) + h)[1]),
            "h_norm": float(w[-1]), "cm_norm": float(np.linalg.norm(delta / std[:, None], 2))}


def log_pi_cm(prior, h, v):
    """log of the shifted-mean density dN(h, C)/dN(0, C) at v:
    -1/2 ||C^{-1/2} h||^2 + <C^{-1} h, v>."""
    lam = prior.eigenvalues
    return float(-0.5 * np.sum(h * h / lam) + np.sum(h * v / lam))


def oracle_log_pi_gamma(ops, v):
    """log dN(0, C)/dN(0, C_Gamma) at v = 1/2 <Gamma v, v> - 1/2 log det(I + H)."""
    return float(0.5 * v @ ops["gamma"] @ v - 0.5 * ops["logdet_ih"])


def oracle_log_rho_gamma(ops, u, v):
    """log dN(sqrt(1 - s^2) u, s^2 C)/dN(A u, s^2 C_Gamma) at v, with the two
    exponents written in the precisions C^{-1} and C^{-1} + Gamma."""
    s, lam = ops["s"], np.diag(ops["c"])
    plain, adapted = v - np.sqrt(1.0 - s * s) * u, v - ops["a"] @ u
    quad = adapted @ (adapted / lam + ops["gamma"] @ adapted) - plain @ (plain / lam)
    return float(0.5 * quad / (s * s) - 0.5 * ops["logdet_ih"])


def sampler_operators(pack):
    """The sampling path's A and noise root R as dense matrices, column by
    column: A e_i = ``pack.apply_a(e_i)`` and R e_i = ``pack.scaled_noise(e_i) / s``
    (s > 0), so a proposal draws A u + s R z."""
    eye = np.eye(pack.prior.dim)
    a = np.column_stack([pack.apply_a(e) for e in eye])
    root = np.column_stack([pack.scaled_noise(e) for e in eye]) / pack.s
    return a, root


def kernel_for(variant, prior, s, gamma=None, gamma_map=None):
    """A kernel of ``variant`` given only the curvature argument it reads:
    ``gamma`` for gn-rw and gpcn, ``gamma_map`` for the local variants."""
    from gpcn.proposals import LOCAL_VARIANTS, PACK_VARIANTS, ProposalKernel

    return ProposalKernel(variant, prior, s,
                          gamma=gamma if variant in PACK_VARIANTS else None,
                          gamma_map=gamma_map if variant in LOCAL_VARIANTS else None)


def lab_grid_chain():
    """The grid gpCN chain whose positivity ``run_lab`` certifies: prior N(0, 1),
    Gamma = 2, s = 0.5 and phi = 0.75 x^2 on 15 points of [-4, 4]."""
    from gpcn.gaussian_ops import FactoredGamma, PriorSpec
    from gpcn.proposals import ProposalKernel
    from gpcn.spectral import discretize_kernel

    kernel = ProposalKernel("gpcn", PriorSpec(1, np.ones(1)), 0.5,
                            gamma=FactoredGamma(np.sqrt([[2.0]])))
    return discretize_kernel(kernel, lambda u: (0.75 * float(u @ u), None),
                             np.linspace(-4.0, 4.0, 15)[:, None], 8.0 / 14.0)


def linear_posterior(L, b, y, Sigma, prior):
    """Exact Gaussian posterior (mean, covariance) for the affine model y = L xi + b + noise.

    mean = C L^T (L C L^T + Sigma)^{-1} (y - b),
    cov  = (C^{-1} + L^T Sigma^{-1} L)^{-1}.
    """
    L = np.asarray(L, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    lam = prior.eigenvalues
    cl = lam[None, :] * L                      # C L^T transposed
    gram = L @ cl.T + Sigma
    try:
        mean = cl.T @ np.linalg.solve(gram, np.asarray(y, dtype=float) - np.asarray(b, dtype=float))
        precision = np.diag(1.0 / lam) + L.T @ np.linalg.solve(Sigma, L)
        cov = np.linalg.inv(precision)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular observation system: {exc}") from exc
    return mean, cov


def observation_from_json(text):
    """The ``Observation`` that ``Observation.to_json`` wrote."""
    from gpcn.elliptic import Observation

    data = json.loads(text)
    return Observation(y=np.asarray(data["y"], dtype=float), sigma_eps=data["sigma_eps"],
                       truth=data["truth"], seed=data.get("seed"))


def stationary_distribution(p):
    """Left Perron eigenvector of a row-stochastic matrix, normalized to a pmf."""
    vals, vecs = np.linalg.eig(np.asarray(p, dtype=float).T)
    k = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.abs(np.real(vecs[:, k]))
    return pi / pi.sum()


def lazy(chain):
    """Half-lazy version (P + I)/2 of a finite chain; positive by construction."""
    from gpcn.spectral import FiniteChain

    return FiniteChain(0.5 * (chain.p + np.eye(chain.n_states)), chain.pi)


def simpson(f, a, b, n_intervals):
    """Composite Simpson quadrature of a callable; n_intervals must be even."""
    assert n_intervals % 2 == 0
    x = np.linspace(a, b, n_intervals + 1)
    y = f(x)
    h = (b - a) / n_intervals
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def ar1_series(n, rho, rng, sigma=1.0):
    """Stationary AR(1) sample path."""
    noise = rng.standard_normal(n) * sigma
    x = np.empty(n)
    x[0] = noise[0] / np.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


def trapezoid(values, dx):
    """Trapezoid rule over the last axis of values on a uniform grid."""
    return dx * (values[..., :-1].sum(axis=-1) + values[..., 1:].sum(axis=-1)) / 2.0


def cumulative_trapezoid(values, dx):
    """Running trapezoid integral from the first node, one value per node."""
    mid = 0.5 * dx * (values[..., :-1] + values[..., 1:])
    out = np.zeros(values.shape)
    np.cumsum(mid, axis=-1, out=out[..., 1:])
    return out


def interp_at(values, x, points):
    """Linear interpolation of grid values (last axis, uniform grid x) at points."""
    dx = x[1] - x[0]
    points = np.asarray(points, dtype=float)
    idx = np.minimum((points / dx).astype(int), x.shape[0] - 2)
    t = points / dx - idx
    return values[..., idx] * (1.0 - t) + values[..., idx + 1] * t


def sine_basis(model):
    """Dense (sqrt(2)/pi) sin(k pi x) table, k = 1..n_modes, at the model's nodes."""
    k = np.arange(1, model.n_modes + 1)
    return (np.sqrt(2.0) / np.pi) * np.sin(np.outer(k, np.pi * model.x))


def elliptic_pipeline(xi, model):
    """Forward map, Jacobian and QoI of the elliptic model by the full-grid
    pipeline: cumulative trapezoid over every node, then interpolation at
    the observation points.  Reads only the model's grid and dimensions, so
    it does not depend on how the model applies its sine basis."""
    from gpcn.elliptic import OBS_POINTS

    sine = sine_basis(model)
    u = np.asarray(xi, dtype=float) @ sine
    w = np.exp(-u)
    flux = cumulative_trapezoid(w, model.dx)
    p = 2.0 * flux / flux[-1]
    mode_flux = cumulative_trapezoid(sine * w[None, :], model.dx)
    dp = (-2.0 * mode_flux + p[None, :] * mode_flux[:, -1:]) / flux[-1]
    forward = interp_at(p, model.x, OBS_POINTS)
    jacobian = interp_at(dp, model.x, OBS_POINTS).T
    return forward, jacobian, trapezoid(np.exp(u), model.dx)


def reference_chain(config):
    """``run_chain`` by the step rule without state records: every step
    draws z and the uniform itself, and evaluates phi, looks up the packs
    with ``kernel.pack_at`` and computes the proposal mean and the prior
    quadratics at u and v afresh, so no record outlives its step; each QoI
    reads the aux of a fresh phi at its state.

    Returns (accepts, retained states, QoI series, steps that reached the
    acceptance test), with the QoI evaluated at every post burn-in state.
    """
    from gpcn.proposals import log_acceptance_correction, prior_quadratic, proposal_mean, propose

    rng = np.random.default_rng(config.seed)
    kernel, phi, radius = config.kernel, config.phi, config.restriction_radius
    u = config.initial_state.copy()
    accepts, states, tested = [], [], 0
    qoi = {name: [] for name in config.qoi}
    for i in range(config.n0 + config.n):
        z = rng.standard_normal(kernel.prior.dim)
        accept_u = rng.random()
        phi_u, aux_u = phi(u)
        pack_u = kernel.pack_at(u, aux_u)
        v = propose(kernel, proposal_mean(kernel, u, pack_u), z, pack_u)
        accepted = False
        if radius is None or np.linalg.norm(v) < radius:
            phi_v, aux_v = phi(v)
            if np.isfinite(phi_v):
                tested += 1
                correction = log_acceptance_correction(kernel, u, v, pack_u,
                                                       kernel.pack_at(v, aux_v),
                                                       prior_quadratic(kernel, u),
                                                       prior_quadratic(kernel, v))
                log_alpha = phi_u - phi_v + correction
                accepted = bool(np.log(accept_u) < log_alpha)
        if accepted:
            u = v
        accepts.append(accepted)
        j = i - config.n0
        if j >= 0:
            for name, fn in config.qoi.items():
                qoi[name].append(fn(u, phi(u)[1]))
            if j % config.thin == 0:
                states.append(u)
    states = np.array(states).reshape(-1, config.kernel.prior.dim)
    return np.array(accepts), states, {k: np.array(s) for k, s in qoi.items()}, tested


def reference_write_trace_csv(trace, path, header=None):
    """``write_trace_csv`` row by row through ``csv.writer``: the header
    comments, the column row, then per post burn-in step j the row
    [j, accept flag, each QoI formatted at 17 significant digits]."""
    names = list(trace.qoi_series)
    with open(path, "w", newline="") as fh:
        for key, value in (header or {}).items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh)
        writer.writerow(["step", "accept"] + [f"qoi_{name}" for name in names])
        for j in range(trace.n):
            row = [j, int(trace.accepts[trace.n0 + j])]
            row += [format(trace.qoi_series[name][j], ".17g") for name in names]
            writer.writerow(row)


def reference_read_trace_csv(path):
    """``read_trace_csv`` as a list parser: every line, then every row as a
    list of strings, converted by one ``np.asarray(..., dtype=float)``."""
    header = {}
    with open(path, newline="") as fh:
        rows = []
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
                continue
            rows.append(line)
    reader = csv.reader(rows)
    columns = next(reader)
    arr = np.asarray(list(reader), dtype=float)
    qoi = {name[len("qoi_"):]: arr[:, k] for k, name in enumerate(columns) if name.startswith("qoi_")}
    return header, arr[:, 0].astype(int), arr[:, 1].astype(bool), qoi


def reference_tune(kernel, phi, target_rate, pilot_n, rng, initial_state=None,
                   radius=None, tol=0.05, max_iters=30):
    """``tune_step_size`` with every pilot run to its end: the bisection on
    log s as it stood before pilots stopped early.  Each entry of
    ``pilots`` is (s, pilot_n, accepted)."""
    from gpcn.metropolis import S_HI, S_LO, ChainConfig, TuneResult, run_chain

    pilots = []

    def pilot(s):
        cfg = ChainConfig(replace(kernel, s=s), phi, n=pilot_n, n0=0,
                          seed=int(rng.integers(0, 2**63)),
                          initial_state=initial_state, restriction_radius=radius)
        trace = run_chain(cfg)
        pilots.append((s, pilot_n, int(trace.accepts.sum())))
        return trace.acceptance_rate

    def result(s, rate, converged):
        return TuneResult(s, rate, converged, tuple(pilots))

    hi_rate = pilot(S_HI)
    if hi_rate > target_rate + tol:
        return result(S_HI, hi_rate, False)
    if hi_rate >= target_rate:
        return result(S_HI, hi_rate, True)
    lo_rate = pilot(S_LO)
    if lo_rate < target_rate - tol:
        return result(S_LO, lo_rate, False)
    if lo_rate <= target_rate:
        return result(S_LO, lo_rate, True)

    lo, hi = S_LO, S_HI
    mid, rate = lo, lo_rate
    for _ in range(max_iters):
        mid = float(np.sqrt(lo * hi))
        rate = pilot(mid)
        if abs(rate - target_rate) <= tol:
            return result(mid, rate, True)
        if rate > target_rate:
            lo = mid
        else:
            hi = mid
    return result(mid, rate, False)


def subset_extremum(weight, pi, maximize):
    """Extremum of sum_{i in A, j notin A} weight_ij / pi(A) over pi(A) in (0, 1/2],
    by listing every subset's indicator row in chunks: flow(A, A^c) =
    b^T rowsums - b^T W b for each nonempty A."""
    n = pi.shape[0]
    row_sums = weight.sum(axis=1)
    best = -np.inf if maximize else np.inf
    chunk = 1 << 16
    for start in range(1, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)
        mass = bits @ pi
        valid = mass <= 0.5 + 1e-12
        if not valid.any():
            continue
        bits = bits[valid]
        cross = bits @ row_sums - ((bits @ weight) * bits).sum(axis=1)
        ratio = cross / mass[valid]
        best = max(best, ratio.max()) if maximize else min(best, ratio.min())
    return float(best)


def full_grid_conductance(chain):
    """Conductance by the meet-in-the-middle grid over every (high, low) pair of
    half subsets, 2^n entries, masking those of mass above 1/2 + 1e-12 after the
    division.  Each entry takes the same float operations as
    ``spectral.conductance``, so the two agree bit for bit."""
    weight = chain.pi[:, None] * chain.p
    np.fill_diagonal(weight, 0.0)
    pi, n = chain.pi, chain.n_states
    n_low = (n + 1) // 2
    low, high = slice(0, n_low), slice(n_low, n)
    row_sums = weight.sum(axis=1)

    def half_tables(k, part):
        bits = ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(float)
        w = weight[part, part]
        return bits, bits @ pi[part], bits @ row_sums[part] - ((bits @ w) * bits).sum(axis=1)

    bits_low, mass_low, flow_low = half_tables(n_low, low)
    bits_high, mass_high, flow_high = half_tables(n - n_low, high)
    coupling = (weight[high, low] + weight[low, high].T) @ bits_low.T
    best = np.inf
    block = max(1, (1 << 14) >> n_low)
    for start in range(0, bits_high.shape[0], block):
        rows = slice(start, start + block)
        mass = mass_high[rows, None] + mass_low[None, :]
        ratio = np.subtract(flow_low[None, :], bits_high[rows] @ coupling)
        ratio += flow_high[rows, None]
        if start == 0:
            mass[0, 0] = np.inf
        ratio /= mass
        np.copyto(ratio, np.inf, where=mass > 0.5 + 1e-12)
        best = min(best, ratio.min())
    return float(best)
