"""Finite-dimensional Gaussian measure algebra for prior-reversible proposals.

Everything is realized in truncated spectral coordinates of the prior
covariance C = diag(lambda_1, ..., lambda_N).  The curvature enters as a
factor F (r x N), Gamma = F^T F (``FactoredGamma``); one thin SVD of
F C^{1/2} gives V (N x r, orthonormal columns) and w, with a0 = sqrt(1-s^2)
and f(t) = sqrt(1 - s^2/(1+t)):

    H       = C^{1/2} Gamma C^{1/2} = V diag(w) V^T   (prior-whitened curvature)
    C_Gamma = (C^{-1} + Gamma)^{-1} = C - C^{1/2} V diag(w/(1+w)) V^T C^{1/2}
    A       = C^{1/2} f(H) C^{-1/2} = a0 I + C^{1/2} V diag(f(w) - a0) V^T C^{-1/2}
    Delta   = a0 I - A                       (mean shift vs. plain pCN)

So applying an operator, and the Radon-Nikodym densities between N(0,C) and
N(0,C_Gamma) and between the plain and adapted autoregressive proposal
kernels, cost O(N r); no N x N matrix is formed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class PriorSpec:
    """Truncated spectral representation of the centered Gaussian prior N(0, C).

    C = diag(eigenvalues); the default spectrum is lambda_k = k^-2, a
    trace-class surrogate.  Immutable and safe to share between chains.
    """

    dim: int
    eigenvalues: np.ndarray = None

    def __post_init__(self):
        dim = self.dim
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
        if self.eigenvalues is None:
            lam = 1.0 / np.arange(1, self.dim + 1, dtype=float) ** 2
        else:
            lam = np.asarray(self.eigenvalues, dtype=float)
            if lam.shape != (self.dim,):
                raise ValueError(f"expected {self.dim} eigenvalues, got shape {lam.shape}")
            bad = ~((lam > 0.0) & np.isfinite(lam))      # lam > 0 is False for NaN
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError("prior eigenvalues must be finite and strictly positive, "
                                 f"got eigenvalues[{i}] = {lam[i]}")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "std", np.sqrt(lam))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One draw from N(0, C)."""
        return self.std * rng.standard_normal(self.dim)


@dataclass(frozen=True, eq=False)
class FactoredGamma:
    """A curvature Gamma = F^T F held as its factor F (r x N, any r >= 0),
    the one form in which a curvature reaches ``build_operator_pack``."""

    factor: np.ndarray


@dataclass(frozen=True, eq=False)
class OperatorPack:
    """All Gamma-derived operators for one (Gamma, s), from H = V diag(w) V^T.

    ``logdet_ih`` = log det(I + H), ``h_norm`` = ||H|| and ``a0`` are
    derived on construction, by the ufunc reductions that ``np.sum`` and
    ``ndarray.max`` run, without their Python wrappers (a local-variant
    step builds a pack per candidate).  The s-scaled factors of A and R are
    built on first use and kept, since a rejected local-variant candidate
    reads at most one of them; ``cm_norm`` = ||C^{-1/2} Delta|| is computed
    on access (only the moment bound reads it).  At rank r = 0 (rw and pcn)
    ``apply_a`` and ``scaled_noise`` skip their empty products.
    """

    prior: PriorSpec
    s: float
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        s, w = self.s, self.w
        if not 0.0 <= s < 1.0:
            raise ValueError(f"step size s must lie in [0, 1), got {s}")
        object.__setattr__(self, "logdet_ih", float(np.add.reduce(np.log1p(w))))
        object.__setattr__(self, "h_norm", float(np.maximum.reduce(w, initial=0.0)))
        object.__setattr__(self, "a0", math.sqrt(1.0 - s * s))

    @cached_property
    def _left(self) -> np.ndarray:
        """C^{1/2} V, N x r."""
        return self.prior.std[:, None] * self.v

    @cached_property
    def _mean_right(self) -> np.ndarray:
        """(f(w) - a0) V^T C^{-1/2}, r x N."""
        mean_coef = np.sqrt(1.0 - self.s * self.s / (1.0 + self.w)) - self.a0
        return mean_coef[:, None] * (self.v.T / self.prior.std[None, :])

    @cached_property
    def _noise_right(self) -> np.ndarray:
        """s ((1 + w)^{-1/2} - 1) V^T, r x N."""
        return (self.s * (1.0 / np.sqrt(1.0 + self.w) - 1.0))[:, None] * self.v.T

    @property
    def cm_norm(self) -> float:
        # ||C^{-1/2} Delta|| = ||diag(f(w) - a0) V^T C^{-1/2}||, an r x N norm.
        return float(np.linalg.norm(self._mean_right, 2))

    def apply_a(self, u: np.ndarray) -> np.ndarray:
        """A u = a0 u + C^{1/2} V (f(w) - a0) V^T C^{-1/2} u."""
        if self.w.size == 0:
            return self.a0 * u
        return self.a0 * u + self._left.dot(self._mean_right.dot(u))

    def scaled_noise(self, z: np.ndarray) -> np.ndarray:
        """s R z with R = C^{1/2}(I + V((1+w)^{-1/2} - 1) V^T).

        R R^T = C_Gamma, so s R z ~ N(0, s^2 C_Gamma); R is not symmetric.
        Returns a new array, which the caller may update in place.  Here and
        in ``apply_a``, ``ndarray.dot`` makes the BLAS call of ``@`` (the
        same bits) with less call overhead, since a step makes it."""
        noise = self.prior.std * z
        noise *= self.s
        if self.w.size:
            noise += self._left.dot(self._noise_right.dot(z))
        return noise


def build_operator_pack(prior: PriorSpec, gamma: FactoredGamma, s: float) -> OperatorPack:
    """Construct the operator pack for step size ``s`` and curvature ``gamma``.

    ``gamma`` is a ``FactoredGamma`` F (r x N, r = 0 is plain pCN); the pack
    costs one thin SVD of F C^{1/2}.  Raises TypeError for any other type
    (a bare array is ambiguous: an N x N Gamma is also an (r, N) factor of
    another Gamma), and ValueError if ``s`` is outside [0, 1) or the factor
    does not have N columns or has a NaN or infinite entry.
    """
    n = prior.dim
    if not isinstance(gamma, FactoredGamma):
        raise TypeError(f"gamma must be a FactoredGamma, got {type(gamma).__name__}")
    factor = np.asarray(gamma.factor, dtype=float)
    if factor.ndim != 2 or factor.shape[1] != n:
        raise ValueError(f"factor must have shape (r, {n}), got {factor.shape}")
    finite = np.isfinite(factor)
    if not finite.all():
        i, j = map(int, np.argwhere(~finite)[0])
        raise ValueError(f"gamma factor must be finite, got factor[{i},{j}] = {factor[i, j]}")
    _, sv, vt = np.linalg.svd(factor * prior.std, full_matrices=False)
    return OperatorPack(prior, s, vt.T, sv * sv)


def log_pi_gamma(pack: OperatorPack, v: np.ndarray) -> float:
    """log of dN(0,C)/dN(0,C_Gamma) at v: 1/2 <Gamma v, v> - 1/2 log det(I+H)."""
    x = pack.v.T @ (v / pack.prior.std)               # <Gamma v, v> = sum w x^2
    return float(0.5 * (pack.w @ (x * x)) - 0.5 * pack.logdet_ih)


def log_rho_gamma(pack: OperatorPack, u: np.ndarray, v: np.ndarray) -> float:
    """Log density at v between the plain and adapted proposals started at u.

    rho(u, v) = dN(sqrt(1-s^2) u, s^2 C) / dN(A u, s^2 C_Gamma) evaluated at
    v.  With the residual t = (v - A u)/s it is the composition

        log rho = log pi_C(Delta u / s, t) + log_pi_gamma(t),

    with log pi_C(h, t) = -1/2 ||C^{-1/2} h||^2 + <C^{-1} h, t>, the log of
    the shifted-mean density dN(h, C)/dN(0, C) at t, and the shift carrying
    the 1/s from the change of variables.  Both factors
    live in range(V): C^{-1/2} Delta u / s = -V c with c = (f(w) - a0)
    V^T C^{-1/2} u / s, and x = V^T C^{-1/2} t = V^T C^{-1/2} (v - a0 u) / s - c,
    so in those r coordinates

        log rho = -1/2 |c|^2 - c.x + 1/2 w.x^2 - 1/2 log det(I + H),

    two r x N products, reading neither C^{1/2} V nor the noise factor.  rho
    is symmetric in (u, v).
    """
    if pack.s <= 0.0:
        raise ValueError("proposal density requires s > 0 (degenerate proposals at s = 0)")
    c = (pack._mean_right @ u) / pack.s
    x = (pack.v.T @ ((v - pack.a0 * u) / pack.prior.std)) / pack.s - c
    return float(0.5 * (pack.w @ (x * x)) - c @ (0.5 * c + x) - 0.5 * pack.logdet_ih)


def admissible_exponent_bound(pack: OperatorPack) -> float:
    """Largest admissible moment exponent, 1 + 1/(2 ||H||)."""
    if pack.h_norm == 0.0:
        return np.inf
    return 1.0 + 0.5 / pack.h_norm


def integrability_bound(pack: OperatorPack, p: float, u: np.ndarray) -> tuple[float, float]:
    """p-th moment of rho(u, .) under the adapted proposal, with its envelope.

    Returns ``(exact, bound)`` where ``exact`` is the closed-form Gaussian
    integral of rho^p over N(A u, s^2 C_Gamma) and ``bound`` is the envelope
    c * exp(b ||u||^2 / 2) with

        b = max(2p^2 - p, 0) * (||C^{-1/2} Delta|| / s)^2,
        c = (det(I - (2p-2) H) * det(I + H)^{2p-2})^{-1/4}.

    The moment is finite exactly for 0 < p < 1 + 1/(2||H||); exponents
    outside that range are rejected.
    """
    p_max = admissible_exponent_bound(pack)
    if not 0.0 < p < p_max:
        raise ValueError(f"exponent p = {p} is outside the admissible range (0, {p_max})")

    w = pack.w
    if pack.cm_norm == 0.0 and pack.h_norm == 0.0:
        return 1.0, 1.0                              # rho == 1 identically
    if pack.s <= 0.0:
        raise ValueError("moment computation requires s > 0")

    # C^{-1/2} Delta u / s lies in range(V), with coordinates shift_h; the
    # complement (w = 0, q = 1) carries no shift and adds nothing below.
    shift_h = -(pack._mean_right @ u) / pack.s
    q = 1.0 - (p - 1.0) * w                              # > 0 on the admissible range
    log_exact = (
        -0.5 * np.sum(np.log(q))
        - 0.5 * (p - 1.0) * np.sum(np.log1p(w))
        + 0.5 * p * p * np.sum(shift_h * shift_h / q)
        - 0.5 * p * np.sum(shift_h * shift_h)
    )
    b = max(2.0 * p * p - p, 0.0) * (pack.cm_norm / pack.s) ** 2
    log_c = -0.25 * (np.sum(np.log(1.0 - (2.0 * p - 2.0) * w))
                     + (2.0 * p - 2.0) * np.sum(np.log1p(w)))
    log_bound = log_c + 0.5 * b * float(u @ u)
    return float(np.exp(log_exact)), float(np.exp(log_bound))
