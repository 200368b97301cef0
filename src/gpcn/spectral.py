"""Finite-state verification lab for reversible Markov chains.

Spectral gaps, conductance, the Cheeger inequality, the proposal-comparison
constant kappa_p with its two comparison inequalities, positivity
certificates, ball restrictions and asymptotic variances are all computed
exactly on small transition matrices, so the corresponding operator
statements can be checked numerically instead of proved.

Conductance and kappa_p are extrema over every state subset of mass at most
1/2.  A singleton attains kappa_p's maximum, so it is an O(n^2) formula with
no state limit.  Conductance enumerates the subsets of mass at most 1/2
(n <= 22) by meet in the middle: each half of the states tabulates its
2^(n/2) subset masses and boundary flows once, sorted by mass, and pairs them
only up to the mass frontier, about half of the 2^n pairs; each pair it
evaluates costs O(1) elementwise work plus one length-n/2 product entry.

A note on the gap: it is defined through the operator norm on centered
square-integrable functions, which for a reversible chain is the largest
ABSOLUTE eigenvalue besides the Perron one; chains with negative spectrum
therefore have gap = 1 - max|lambda|, not 1 - lambda_2.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gaussian_ops import FactoredGamma, PriorSpec
from .proposals import PRIOR_REVERSIBLE, ProposalKernel, proposal_mean, propose

MAX_ENUM_STATES = 22       # subset enumeration budget (a conductance call: about 15 ms at n = 22)
_ENUM_BLOCK = 1 << 14      # subsets per block of the enumeration (cache-sized temporaries)
_STOCHASTIC_TOL = 1e-12
_REVERSIBLE_TOL = 1e-12
_EIG_SLACK = 1e-10
_HALF_MASS = 0.5 + 1e-12     # largest pi(A) a conductance or kappa_p subset may have


@dataclass(frozen=True)
class FiniteChain:
    """Row-stochastic transition matrix with its stationary probability vector; its
    detailed-balance gap and spectrum are computed on first use."""

    p: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        n = p.shape[0]
        if p.shape != (n, n):
            raise ValueError("transition matrix must be square")
        # Each check is written to fail for NaN, which compares False.
        if not np.all(p >= -_STOCHASTIC_TOL):
            raise ValueError("transition matrix has negative or NaN entries")
        if not np.max(np.abs(p.sum(axis=1) - 1.0)) <= _STOCHASTIC_TOL:
            raise ValueError("rows must sum to one")
        if pi.shape != (n,) or not np.all(pi > 0.0):
            raise ValueError("stationary vector must be strictly positive")
        if not abs(pi.sum() - 1.0) <= _STOCHASTIC_TOL:
            raise ValueError("stationary vector must sum to one")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "pi", pi)

    @property
    def n_states(self) -> int:
        return self.pi.shape[0]

    @cached_property
    def balance_gap(self) -> float:
        """The detailed-balance gap max |pi_i p_ij - pi_j p_ji|, 0 for a reversible chain."""
        flow = self.pi[:, None] * self.p
        return float(np.abs(flow - flow.T).max())

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the symmetrized operator, the Perron one last."""
        return np.linalg.eigvalsh(_symmetrized(self))


def _require_reversible(chain: FiniteChain, what: str) -> None:
    gap = chain.balance_gap
    if gap > _REVERSIBLE_TOL:
        raise ValueError(f"{what} requires a reversible chain (detailed balance gap {gap:.3e})")


def _symmetrized(chain: FiniteChain) -> np.ndarray:
    root = np.sqrt(chain.pi)
    s = (root[:, None] * chain.p) / root[None, :]
    return 0.5 * (s + s.T)


def spectral_gap(chain: FiniteChain) -> float:
    """1 minus the largest absolute eigenvalue on the centered subspace."""
    _require_reversible(chain, "spectral_gap")
    return float(1.0 - np.abs(chain.spectrum[:-1]).max(initial=0.0))


def _check_enum_budget(n: int, what: str) -> None:
    if n > MAX_ENUM_STATES:
        raise ValueError(f"{what} enumerates 2^n subsets and is limited to "
                         f"n <= {MAX_ENUM_STATES} states, got {n}")


def _subset_bits(k: int) -> np.ndarray:
    """Row m is the indicator vector of subset m of k states (bit i = state i)."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1).astype(float)


def _subset_extremum(weight: np.ndarray, pi: np.ndarray) -> float:
    """Minimize sum_{i in A, j notin A} weight_ij / pi(A) over pi(A) in (0, 1/2].

    Meet in the middle: with the states split into a low half L and a high
    half H and A = A_L + A_H (indicators b_l, b_h),

        pi(A)       = m_L[l] + m_H[h],
        flow(A, A^c) = c_L[l] + c_H[h] - b_l^T (W_LH + W_HL^T) b_h,

    where m and c are each half's subset masses and flows out of the subset
    (to all n states).  The tables cost O(2^{n/2} n^2) and are sorted by
    mass.  High-half subsets are taken in blocks of increasing mass, so that
    the temporaries stay near _ENUM_BLOCK entries; a block pairs its rows only
    with the prefix of low-half subsets that keeps its lightest row within
    mass 1/2, and the walk stops at the first row that alone exceeds 1/2.
    Every pair evaluated costs O(1) elementwise work plus its entry of the
    (block x |H|) @ (|H| x prefix) product, the same float operations as on
    the full 2^|H| x 2^|L| grid, so the minimum is the full grid's bit for bit.
    """
    n = pi.shape[0]
    n_low = (n + 1) // 2
    low, high = slice(0, n_low), slice(n_low, n)
    row_sums = weight.sum(axis=1)
    bits_low, bits_high = _subset_bits(n_low), _subset_bits(n - n_low)

    def half_tables(bits, part):
        """Subset masses, flows and indicator rows in order of increasing mass."""
        w = weight[part, part]
        mass = bits @ pi[part]
        flow = bits @ row_sums[part] - ((bits @ w) * bits).sum(axis=1)
        order = np.argsort(mass, kind="stable")     # the empty subset, mass 0, stays first
        return mass[order], flow[order], bits[order]

    mass_low, flow_low, bits_low = half_tables(bits_low, low)
    mass_high, flow_high, bits_high = half_tables(bits_high, high)
    coupling = (weight[high, low] + weight[low, high].T) @ bits_low.T      # |H| x 2^|L|
    best = np.inf
    block = max(1, _ENUM_BLOCK >> n_low)
    for start in range(0, bits_high.shape[0], block):
        # rows rise in mass and fl(a + b) is monotone in b, so no row of the block keeps a
        # column past its lightest row's prefix; a row over the limit alone ends the walk
        cols = np.count_nonzero(mass_high[start] + mass_low <= _HALF_MASS)
        if cols == 0:
            break
        rows = slice(start, start + block)
        mass = mass_high[rows, None] + mass_low[None, :cols]
        ratio = np.subtract(flow_low[None, :cols], bits_high[rows] @ coupling[:, :cols])
        ratio += flow_high[rows, None]
        if start == 0:
            mass[0, 0] = np.inf                 # drops the empty subset with the heavy ones
        ratio /= mass
        np.copyto(ratio, np.inf, where=mass > _HALF_MASS)
        best = min(best, ratio.min())
    return float(best)


def conductance(chain: FiniteChain) -> float:
    """Exact conductance by subset enumeration: min flow(A, A^c) / pi(A)."""
    _check_enum_budget(chain.n_states, "conductance")
    weight = chain.pi[:, None] * chain.p
    np.fill_diagonal(weight, 0.0)
    return _subset_extremum(weight, chain.pi)


def cheeger_check(chain: FiniteChain) -> dict:
    """Both sides of phi^2/2 <= 1 - Lambda <= 2 phi, with pass flag."""
    _require_reversible(chain, "cheeger_check")
    phi = conductance(chain)
    lam = float(chain.spectrum[:-1].max(initial=-1.0))
    lower, upper = 0.5 * phi * phi, 2.0 * phi
    ok = (lower <= 1.0 - lam + _EIG_SLACK) and (1.0 - lam <= upper + _EIG_SLACK)
    return {"phi": phi, "lambda_max": lam, "lower": lower, "upper": upper,
            "one_minus_lambda": 1.0 - lam, "ok": bool(ok)}


def kappa_p(q1: np.ndarray, q2: np.ndarray, target_pmf: np.ndarray, p: float) -> float:
    """Comparison constant between two proposal matrices over a shared target.

    kappa_p = max over pi(A) in (0, 1/2] of
        sum_{i in A, j in A^c} (q1_ij / q2_ij)^p q2_ij pi_i / pi(A)
    = max over pi_i <= 1/2 of r_i / pi_i (r the weight's row sums; -inf if no
    pi_i qualifies), since by the mediant inequality a singleton attains it.
    q2 must dominate q1 (q2_ij > 0 wherever q1_ij > 0).
    """
    if not 1.0 < p < np.inf:        # False for NaN, so NaN fails
        raise ValueError(f"kappa_p needs an exponent 1 < p < inf, got {p}")
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    pi = np.asarray(target_pmf, dtype=float)
    # pi > 0 holds for inf, so finiteness is checked on its own.
    if pi.ndim != 1 or not np.all((pi > 0.0) & np.isfinite(pi)):
        raise ValueError("target pmf must be a finite, strictly positive vector")
    if q1.shape != (pi.size, pi.size) or q2.shape != q1.shape:
        raise ValueError("proposal matrix shape mismatch")
    for name, q in (("q1", q1), ("q2", q2)):
        bad = np.argwhere(~(q >= 0.0) | np.isinf(q))        # q >= 0 is False for NaN
        if bad.size:
            raise ValueError(f"proposal entries must be finite and >= 0, got "
                             f"{name}[{bad[0, 0]},{bad[0, 1]}] = {q[tuple(bad[0])]}")
    pi = pi / pi.sum()
    bad = (q1 > 0.0) & (q2 == 0.0)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise ValueError(f"absolute continuity violated: q1[{i},{j}] > 0 but q2[{i},{j}] = 0")
    ratio = np.divide(q1, q2, out=np.zeros_like(q1), where=q2 > 0.0)
    weight = ratio**p * q2 * pi[:, None]
    np.fill_diagonal(weight, 0.0)
    return float(np.max(weight.sum(axis=1) / pi, where=pi <= _HALF_MASS, initial=-np.inf))


def discretize_metropolis(target_pmf: np.ndarray, proposal: np.ndarray) -> FiniteChain:
    """Discrete Metropolis chain: off-diagonal flow min(pi_i q_ij, pi_j q_ji)/pi_i,
    rejection mass on the diagonal.  The flow matrix is symmetric for any support of q
    (a move that cannot be proposed back has flow 0 both ways), so the chain is
    reversible w.r.t. the target by construction.
    """
    pi = np.asarray(target_pmf, dtype=float)
    # Each check is written to fail for NaN, which compares False.
    if not np.all((pi > 0.0) & np.isfinite(pi)):
        raise ValueError("target pmf must be finite and strictly positive")
    pi = pi / pi.sum()
    q = np.asarray(proposal, dtype=float)
    n = pi.shape[0]
    if q.shape != (n, n):
        raise ValueError("proposal matrix shape mismatch")
    if not (np.all(q >= 0.0) and np.max(np.abs(q.sum(axis=1) - 1.0)) <= _STOCHASTIC_TOL):
        raise ValueError("proposal must be row-stochastic")
    scaled = pi[:, None] * q
    flow = np.minimum(scaled, scaled.T)     # exactly symmetric accepted flow
    m = flow / pi[:, None]
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, 1.0 - m.sum(axis=1))
    return FiniteChain(m, pi)


def _proposal_law(kernel: ProposalKernel, x: np.ndarray, aux) -> tuple:
    """(mean, root) of the kernel's law at x: the mean ``proposal_mean(kernel, x, pack)``
    with the pack ``kernel.pack_at(x, aux)``, and the noise root whose column k is
    ``propose(kernel, 0, e_k, pack)``, the noise itself, since the mean it adds is 0."""
    pack = kernel.pack_at(x, aux)
    zero = np.zeros(x.size)
    return (proposal_mean(kernel, x, pack),
            np.column_stack([propose(kernel, zero, e, pack) for e in np.eye(x.size)]))


def discretize_kernel(kernel: ProposalKernel, phi, points, cell: float) -> FiniteChain:
    """Metropolis chain of ``kernel`` on ``points`` (n x N, cell volume ``cell``) for the target
    prior(x_i) exp(-phi(x_i)); phi returns (value, aux) as a chain's potential does, and each
    point's aux goes to ``kernel.pack_at``.  q_ij is the density at x_j of the law ``propose``
    gives at x_i times ``cell``; ``PRIOR_REVERSIBLE`` variants average log prior_i + log q_ij
    with its transpose (exactly prior-reversible).  q is divided by its largest off-diagonal
    row mass if that passes 1 (a coarse grid's Riemann sum), and the diagonal takes the rest
    of each row (the restricted chain).  ValueError, before any phi call, if ``points`` is not
    a finite (n, ``kernel.prior.dim``) array with n >= 1 or ``cell`` is not positive and
    finite; ValueError if a potential is NaN or -inf or the target underflows to 0 at a grid
    point, and one naming s if the chain is reducible (a second eigenvalue within 1e-10 of 1):
    the grid misses the step, or s = 0 and every proposal stays put."""
    x = np.asarray(points, dtype=float)
    dim = kernel.prior.dim
    if x.ndim != 2 or x.shape[1] != dim or len(x) < 1:
        raise ValueError(f"points must be an (n, {dim}) array with n >= 1, got shape {x.shape}")
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"points must be finite, got points[{i}] = {x[i]}")
    if not 0.0 < cell < np.inf:     # False for NaN, so NaN fails
        raise ValueError(f"cell must be positive and finite, got {cell}")
    reducible = f"the grid chain of {kernel.variant} at step size s = {kernel.s} is reducible"
    if kernel.s == 0.0:
        raise ValueError(reducible)
    potentials = [phi(u) for u in x]
    values = np.array([value for value, _ in potentials])
    bad = np.count_nonzero(np.isnan(values) | (values == -np.inf))
    if bad:
        raise ValueError(f"{bad} of {len(x)} grid points have a NaN or -inf potential")
    means, roots = map(np.array, zip(*(_proposal_law(kernel, u, aux)
                                       for u, (_, aux) in zip(x, potentials))))
    white = np.linalg.solve(roots, (x[None, :, :] - means[:, None, :]).transpose(0, 2, 1))
    log_q = (np.log(cell) - 0.5 * dim * np.log(2.0 * np.pi)
             - np.linalg.slogdet(roots)[1][:, None] - 0.5 * (white * white).sum(axis=1))
    log_prior = -0.5 * (x * x / kernel.prior.eigenvalues).sum(axis=1)
    if kernel.variant in PRIOR_REVERSIBLE:
        log_q = 0.5 * (log_q + log_q.T + log_prior[None, :] - log_prior[:, None])
    q = np.exp(log_q)
    np.fill_diagonal(q, 0.0)
    q /= max(1.0, q.sum(axis=1).max())
    q[np.diag_indices_from(q)] = np.maximum(1.0 - q.sum(axis=1), 0.0)    # >= 0 despite rounding
    log_target = log_prior - values
    target = np.exp(log_target - log_target.max())
    if np.any(target == 0.0):
        raise ValueError(f"{np.count_nonzero(target == 0.0)} of {len(x)} grid points have zero "
                         f"target mass: prior(x) exp(-phi(x)) underflows there")
    chain = discretize_metropolis(target, q)
    if chain.spectrum[:-1].max(initial=-1.0) < 1.0 - _EIG_SLACK:
        return chain
    raise ValueError(reducible)


def positivity_check(chain: FiniteChain) -> float:
    """Minimum eigenvalue of the symmetrized operator; >= -1e-10 certifies positivity."""
    return float(chain.spectrum[0])


def comparison_check(target_pmf, q1, q2, p: float) -> dict:
    """Check the conductance and spectral-gap comparison inequalities.

    Builds the two Metropolis chains for a shared target, computes kappa_p
    between the proposals and verifies

        phi(M1) <= kappa_p^{1/p} phi(M2)^{(p-1)/p}                (conductance)
        (gap(M1)/2)^p <= kappa_p (2 gap(M2))^{(p-1)/2}            (spectral gap)

    Both presume that q1 and q2 are reversible with respect to one common
    measure, as pCN and gpCN are with respect to the prior.  For arbitrary
    row-stochastic q1 and q2 they can fail, and the report then says so.
    The gap inequality presumes positive operators, so the pair is replaced
    by its half-lazy version when either chain fails the positivity
    certificate (and the report says so).
    """
    pi = np.asarray(target_pmf, dtype=float)
    pi = pi / pi.sum()
    m1 = discretize_metropolis(pi, q1)
    m2 = discretize_metropolis(pi, q2)
    kap = kappa_p(q1, q2, pi, p)
    phi1, phi2 = conductance(m1), conductance(m2)
    lemma_rhs = kap ** (1.0 / p) * phi2 ** ((p - 1.0) / p)

    min_eig1, min_eig2 = positivity_check(m1), positivity_check(m2)
    lazified = min(min_eig1, min_eig2) < -_EIG_SLACK
    tm1, tm2, tkap = m1, m2, kap
    if lazified:
        # Lazy Metropolis chains are Metropolis chains for the lazy proposals,
        # whose density ratio is unchanged off the diagonal.
        q1l, q2l = (0.5 * (np.asarray(q, dtype=float) + np.eye(pi.size)) for q in (q1, q2))
        tm1, tm2 = discretize_metropolis(pi, q1l), discretize_metropolis(pi, q2l)
        tkap = kappa_p(q1l, q2l, pi, p)
        min_eig1, min_eig2 = positivity_check(tm1), positivity_check(tm2)
    gap1, gap2 = spectral_gap(tm1), spectral_gap(tm2)
    theo_lhs = (gap1 / 2.0) ** p
    theo_rhs = tkap * (2.0 * gap2) ** ((p - 1.0) / 2.0)
    return {
        "p": p, "kappa_p": kap,
        "phi1": phi1, "phi2": phi2,
        "lemma_lhs": phi1, "lemma_rhs": lemma_rhs,
        "lemma_ok": bool(phi1 <= lemma_rhs + _EIG_SLACK),
        "lazified": lazified, "kappa_p_used": tkap,
        "min_eig1": min_eig1, "min_eig2": min_eig2,
        "gap1": gap1, "gap2": gap2,
        "theorem_lhs": theo_lhs, "theorem_rhs": theo_rhs,
        "theorem_ok": bool(theo_lhs <= theo_rhs + _EIG_SLACK),
    }


def _state_indices(chain: FiniteChain, subset) -> np.ndarray:
    """The sorted distinct states that ``subset`` names.  A ValueError names
    anything but a nonempty 1-D array of integral indices into the chain's
    states: a boolean mask, or a float like 0.5, would silently pick other states."""
    raw = np.asarray(subset)
    if raw.ndim != 1 or raw.size == 0:
        raise ValueError("subset must be a nonempty 1-D array of state indices, "
                         f"got shape {raw.shape}")
    kind = raw.dtype.kind
    if not (kind in "iu" or kind == "f" and np.all(np.isfinite(raw) & (raw == np.floor(raw)))):
        raise ValueError(f"subset must hold integer state indices, got {raw.tolist()}")
    if raw.min() < 0 or raw.max() >= chain.n_states:
        raise ValueError(f"subset indices must lie in [0, {chain.n_states}), "
                         f"got {raw.min()} to {raw.max()}")
    return np.unique(raw.astype(int))


def restrict_chain(chain: FiniteChain, subset) -> FiniteChain:
    """Restriction to a state subset: escaping mass moves to the diagonal,
    the stationary vector is renormalized.  Preserves reversibility exactly.
    """
    idx = _state_indices(chain, subset)
    sub = chain.p[np.ix_(idx, idx)].copy()
    escape = 1.0 - sub.sum(axis=1)
    sub[np.diag_indices_from(sub)] += escape
    pi = chain.pi[idx]
    return FiniteChain(sub, pi / pi.sum())


def restriction_check(chain: FiniteChain, subset) -> dict:
    """Verify the norm relation ||K_R|| <= ||K|| + sup escape mass."""
    _require_reversible(chain, "restriction_check")
    idx = _state_indices(chain, subset)
    restricted = restrict_chain(chain, idx)
    escape = 1.0 - chain.p[np.ix_(idx, idx)].sum(axis=1)
    max_escape = float(escape.max())
    norm_full = 1.0 - spectral_gap(chain)
    norm_restricted = 1.0 - spectral_gap(restricted)
    return {
        "subset_size": int(idx.size),
        "norm_full": norm_full,
        "norm_restricted": norm_restricted,
        "max_escape": max_escape,
        "db_gap_restricted": restricted.balance_gap,
        "ok": bool(norm_restricted <= norm_full + max_escape + _EIG_SLACK),
    }


def asymptotic_variance(chain: FiniteChain, f) -> dict:
    """CLT variance of the ergodic average of f, with its gap upper bound.

    sigma^2 = <(I + K)(I - K)^{-1} f0, f0>_pi on the centered subspace,
    computed in the eigenbasis of the symmetrized operator; the report also
    checks sigma^2 <= 2 ||f0||^2 / gap.
    """
    _require_reversible(chain, "asymptotic_variance")
    f = np.asarray(f, dtype=float)
    if f.shape != (chain.n_states,):
        raise ValueError(f"f must hold one value per state, shape ({chain.n_states},), "
                         f"got shape {f.shape}")
    w, vecs = np.linalg.eigh(_symmetrized(chain))
    root = np.sqrt(chain.pi)
    f0 = f - float(chain.pi @ f)
    y = vecs.T @ (root * f0)
    centered_w, centered_y = w[:-1], y[:-1]
    gap = 1.0 - float(np.abs(centered_w).max()) if centered_w.size else 1.0
    if gap <= 1e-12:
        raise ValueError(f"asymptotic variance needs a positive spectral gap, got {gap:.3e}")
    sigma2 = float(np.sum((1.0 + centered_w) / (1.0 - centered_w) * centered_y**2))
    var_f = float(chain.pi @ f0**2)
    bound = 2.0 * var_f / gap
    return {"sigma2": sigma2, "variance": var_f, "gap": gap, "bound": bound,
            "ok": bool(sigma2 <= bound + _EIG_SLACK)}


def random_reversible_chain(n: int, rng: np.random.Generator) -> FiniteChain:
    """Random reversible chain via Metropolis with a random symmetric-support proposal."""
    pi = rng.uniform(0.2, 1.0, n)
    pi /= pi.sum()
    q = rng.uniform(0.05, 1.0, (n, n))
    q = 0.5 * (q + q.T)
    q /= q.sum(axis=1, keepdims=True)
    return discretize_metropolis(pi, q)


def random_proposal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-support row-stochastic matrix."""
    q = rng.uniform(0.05, 1.0, (n, n))
    return q / q.sum(axis=1, keepdims=True)


def run_lab(seed: int, n_instances: int = 20, n_states: int = 10, p: float = 2.0) -> dict:
    """Randomized verification battery; the report is replayable from its seed.

    Each instance draws a reversible chain for the Cheeger, restriction and
    variance checks, and compares two proposals on the chain's target; the
    proposals are Metropolis kernels of one drawn pmf, so both are reversible
    with respect to it, as ``comparison_check`` presumes.
    """
    for name, count, least in (("n_states", n_states, 2), ("n_instances", n_instances, 1)):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < least:
            raise ValueError(f"run_lab needs an integer {name} >= {least}, got {count!r}")
    _check_enum_budget(n_states, "run_lab")
    instances = []
    for k in range(n_instances):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), k]))
        chain = random_reversible_chain(n_states, rng)
        db = chain.balance_gap
        cheeger = cheeger_check(chain)
        prior = rng.uniform(0.2, 1.0, n_states)
        q1, q2 = [discretize_metropolis(prior, random_proposal(n_states, rng)).p for _ in range(2)]
        comparison = comparison_check(chain.pi, q1, q2, p)
        subset = rng.choice(n_states, size=max(2, n_states // 2), replace=False)
        restriction = restriction_check(chain, subset)
        avar = asymptotic_variance(chain, rng.standard_normal(n_states))
        ok = (db <= _REVERSIBLE_TOL and cheeger["ok"] and comparison["lemma_ok"]
              and comparison["theorem_ok"] and restriction["ok"] and avar["ok"])
        instances.append({
            "instance": k, "db_gap": db, "cheeger": cheeger, "comparison": comparison,
            "restriction": restriction, "asymptotic_variance": avar, "ok": bool(ok),
        })
    kernel = ProposalKernel("gpcn", PriorSpec(1, np.ones(1)), 0.5,
                            gamma=FactoredGamma(np.sqrt([[2.0]])))
    grid = discretize_kernel(kernel, lambda u: (0.75 * float(u @ u), None),
                             np.linspace(-4.0, 4.0, 15)[:, None], 8.0 / 14.0)
    grid_min_eig = positivity_check(grid)
    grid_ok = grid_min_eig >= -_EIG_SLACK
    return {
        "seed": int(seed), "n_instances": n_instances, "n_states": n_states, "p": p,
        "instances": instances,
        "grid_gpcn_min_eig": grid_min_eig, "grid_gpcn_positive": bool(grid_ok),
        "all_pass": bool(grid_ok and all(inst["ok"] for inst in instances)),
    }
