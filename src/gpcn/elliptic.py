"""One-dimensional elliptic flow inverse problem on [0, 1].

The log-diffusivity field u is expanded in the sine basis
phi_k(x) = (sqrt(2)/pi) sin(k pi x) with coefficients xi; the flow equation
(e^u p')' = 0 with p(0) = 0, p(1) = 2 has the closed-form solution

    p(x) = 2 S_x(e^{-u}) / S_1(e^{-u}),      S_x(f) = int_0^x f,

observed at x = 0.2, 0.4, 0.6, 0.8 under additive Gaussian noise.  Integrals
use the trapezoidal rule on a uniform grid; the observation points are not
grid nodes, so the cumulative integrals are evaluated there by linear
interpolation (the O(dx^2) interpolation error is far below the noise level).
Both are folded into one weight matrix W with a row per observation point
plus a full-interval row, so every integral the forward map, its Jacobian and
the QoI need is one product with W.

The sine basis is applied in one of two ways, chosen once per model from its
size: a product with a dense n_modes x n_nodes table for small models, and a
type-I discrete sine transform through one real FFT of length 2/dx for large
ones.  Both give the same values up to round-off; the Nyquist limit
n_modes < 1/dx keeps the transform exact.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .gaussian_ops import FactoredGamma, PriorSpec

OBS_POINTS = (0.2, 0.4, 0.6, 0.8)
# Models with n_modes * n_nodes at or above this apply the sine basis by FFT
# instead of a dense table.  Measured on a 2-core Xeon VM, 1 BLAS thread, field
# synthesis (called at every step) by table vs FFT: 22 vs 24 us at N = 224 and
# 30 vs 28 us at N = 256 on 513 nodes; 23 vs 23 us at N = 128 and 45 vs 38 us
# at N = 192 on 1025 nodes.  The Jacobian (MAP solve and local curvature)
# crosses near N = 200 on both grids; at N = 800 on 1025 nodes the FFT takes
# 35 us for the field (table 340 us) and 121 us for the Jacobian (table 1.14 ms).
FFT_MIN_SIZE = 2 ** 17
# MAP solves on the benchmark's problems stop by the step or gradient rule in
# 26-38 iterations (N = 10-800, sigma = 0.1-0.001), so the cap ends only a stall.
MAP_MAX_ITER = 500


def default_truth(x):
    """Data-generating log-diffusivity used by the benchmark harness."""
    return 2.0 * np.sin(2.0 * np.pi * x)


def grid_steps(dx: float) -> int:
    """The number of intervals 1/dx of the uniform grid on [0, 1] with step
    dx; ValueError unless dx evenly divides [0, 1]."""
    if not 0.0 < dx <= 1.0 or abs(round(1.0 / dx) * dx - 1.0) > 1e-12:
        raise ValueError(f"dx = {dx} does not evenly divide [0, 1]")
    return round(1.0 / dx)


@dataclass(frozen=True)
class ForwardModel:
    """Grid, sine basis and quadrature weights; immutable and shareable.

    ``sine_table`` holds phi_k at every node (n_modes x n_nodes) when
    ``n_modes * n_nodes < FFT_MIN_SIZE``, and is None otherwise: the larger
    models apply the basis by FFT and allocate no table.

    ``weights`` (W) has one row per observation point x, holding the
    cumulative trapezoid weights to x with the linear interpolation between
    the two nearest nodes folded in, and a last row of full trapezoid
    weights, so ``W @ f`` gives S_x(f) at every observation point and S_1(f).

    ``dx`` defaults to 2^-max(9, bit_length(n_modes)): the largest 2^-k <=
    2^-9 whose grid resolves every mode, so N <= 511 runs on 513 nodes and
    N = 800 on 1025.
    """

    n_modes: int
    dx: Optional[float] = None

    def __post_init__(self):
        n_modes = self.n_modes
        if isinstance(n_modes, bool) or not isinstance(n_modes, numbers.Integral) or n_modes < 1:
            raise ValueError(f"n_modes must be an integer >= 1, got {n_modes!r}")
        if self.dx is None:
            object.__setattr__(self, "dx", 2.0 ** -max(9, int(n_modes).bit_length()))
        steps = grid_steps(self.dx)
        if self.n_modes >= steps:
            # mode steps + m aliases to -(mode steps - m) on the grid
            raise ValueError(f"{self.n_modes} modes at or above the Nyquist limit of a "
                             f"{steps}-interval grid (dx = {self.dx:g}); use n_modes < {steps}")
        x = np.linspace(0.0, 1.0, steps + 1)
        sine = None
        if self.n_modes * (steps + 1) < FFT_MIN_SIZE:
            k = np.arange(1, self.n_modes + 1)
            sine = (np.sqrt(2.0) / np.pi) * np.sin(np.outer(k, np.pi * x))
        obs = np.asarray(OBS_POINTS)
        idx = np.minimum((obs / self.dx).astype(int), steps - 1)
        frac = (obs / self.dx - idx)[:, None]
        nodes = np.arange(steps + 1)

        def prefix(end):                      # trapezoid weights of int_0^{x_end}, a row per end
            end = end[:, None]
            return 0.5 * self.dx * ((nodes < end).astype(float) + ((nodes >= 1) & (nodes <= end)))

        weights = np.vstack([(1.0 - frac) * prefix(idx) + frac * prefix(idx + 1),
                             prefix(np.array([steps]))])
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "sine_table", sine)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]


def _sine_transform(values: np.ndarray, steps: int) -> np.ndarray:
    """(sqrt(2)/pi) sum_m values_m sin(m j pi / steps) for j = 0..steps, along
    the last axis (values indexed from m = 0, at most steps + 1 of them).

    This is a type-I DST, taken as -(sqrt(2)/pi) Im(rfft(values, 2 steps)).
    The sine matrix is symmetric, so the same helper synthesizes a field
    (values = [0, xi]) and applies the basis to nodal values."""
    return (-np.sqrt(2.0) / np.pi) * np.fft.rfft(values, n=2 * steps).imag


def kl_to_field(xi: np.ndarray, model: ForwardModel) -> np.ndarray:
    """Evaluate u(x) = sum_k xi_k phi_k(x) on the grid."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (model.n_modes,):
        raise ValueError(f"expected {model.n_modes} coefficients, got shape {xi.shape}")
    if model.sine_table is None:
        return _sine_transform(np.concatenate(([0.0], xi)), model.n_nodes - 1)
    return xi.dot(model.sine_table)


def forward_solve(xi, model: ForwardModel) -> tuple:
    """The forward solve at xi, ``(field, w, flux)``: the field u on the
    grid, w = e^{-u} and flux = W w, which holds S_x(w) at each observation
    point and then S_1(w).  ``phi`` returns it with its value, and a chain
    carries it with its state to ``jacobian`` and the QoI.  A plain tuple,
    because one is built at every MH step: constructing a named tuple took
    0.6 us on a 2-core Xeon VM, where a pcn step at N = 100 takes 20-40 us.
    For the same reason its products, and ``kl_to_field``'s and ``phi``'s,
    call ``ndarray.dot``: on these contiguous float operands it makes the
    BLAS call that ``@`` makes, so the same bits, for 0.2-0.4 us less per
    product there."""
    field = kl_to_field(xi, model)
    w = np.negative(field)
    np.exp(w, out=w)
    return field, w, model.weights.dot(w)


def forward_from_field(u_grid: np.ndarray, model: ForwardModel) -> np.ndarray:
    """Pressure p(x) = 2 S_x(e^{-u}) / S_1(e^{-u}) at the observation points."""
    flux = model.weights @ np.exp(-u_grid)
    return 2.0 * flux[:-1] / flux[-1]


def forward(xi: np.ndarray, model: ForwardModel, solve: Optional[tuple] = None) -> np.ndarray:
    """Observation operator G(xi): pressure at the four observation points,
    from ``solve``, the ``forward_solve`` at xi, when given."""
    _, _, flux = forward_solve(xi, model) if solve is None else solve
    return 2.0 * flux[:-1] / flux[-1]


@dataclass(frozen=True)
class Observation:
    """Observed data, noise level and provenance of the generating truth;
    ``y`` holds one finite datum per point of ``OBS_POINTS``."""

    y: np.ndarray
    sigma_eps: float
    truth: dict
    seed: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.sigma_eps < np.inf:
            raise ValueError(f"sigma_eps must be positive and finite, got {self.sigma_eps}")
        y = np.asarray(self.y, dtype=float)
        if y.shape != (len(OBS_POINTS),):
            raise ValueError(f"y must hold one datum per observation point, shape "
                             f"({len(OBS_POINTS)},), got shape {y.shape}")
        bad = ~np.isfinite(y)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"y must be finite, got y[{i}] = {y[i]}")
        object.__setattr__(self, "y", y)

    def to_json(self) -> str:
        return json.dumps({"y": self.y.tolist(), "sigma_eps": self.sigma_eps,
                           "truth": self.truth, "seed": self.seed}, indent=2)


def generate_data(truth, sigma_eps: float, model: ForwardModel,
                  rng: np.random.Generator, seed: Optional[int] = None) -> Observation:
    """Synthesize y = G(truth) + sigma_eps * z with 4 iid standard normal z.

    ``truth`` is either a callable u(x) evaluated on the grid or a
    coefficient vector in the sine basis.
    """
    if callable(truth):
        u_grid = np.asarray(truth(model.x), dtype=float)
        spec = {"kind": "function", "detail": getattr(truth, "__name__", repr(truth))}
    else:
        coeffs = np.asarray(truth, dtype=float)
        if coeffs.shape[0] > model.n_modes:
            raise ValueError("truth coefficients exceed the model's mode count")
        xi = np.zeros(model.n_modes)
        xi[: coeffs.shape[0]] = coeffs
        u_grid = kl_to_field(xi, model)
        spec = {"kind": "coefficients", "detail": coeffs.tolist()}
    y_clean = forward_from_field(u_grid, model)
    y = y_clean + sigma_eps * rng.standard_normal(y_clean.shape[0])
    return Observation(y=y, sigma_eps=sigma_eps, truth=spec, seed=seed)


def phi(xi: np.ndarray, obs: Observation, model: ForwardModel) -> tuple:
    """Data misfit potential 1/2 sigma^-2 |y - G(xi)|^2, returned with the
    ``forward_solve`` at xi that it was computed from: ``(value, solve)``.

    The residual is formed in Python floats, by the IEEE operations that
    ``obs.y - forward(xi, model, solve)`` applies elementwise; only its dot
    product runs in numpy.  Python float division raises only on a zero
    divisor, and S_1(w) >= dx / 2 unless it is NaN, since u vanishes at
    x = 0; an overflowing or NaN solve gives the non-finite value that
    numpy gives."""
    solve = forward_solve(xi, model)
    s0, s1, s2, s3, total = solve[2].tolist()
    y0, y1, y2, y3 = obs.y.tolist()
    r = np.array((y0 - 2.0 * s0 / total, y1 - 2.0 * s1 / total,
                  y2 - 2.0 * s2 / total, y3 - 2.0 * s3 / total))
    return 0.5 * float(r.dot(r)) / obs.sigma_eps**2, solve


def make_posterior(obs: Observation, model: ForwardModel) -> Callable[[np.ndarray], tuple]:
    """The potential xi -> phi(xi, obs, model) of the posterior: the target is
    exp(-phi) times the prior of the kernel that samples it."""
    return lambda xi: phi(xi, obs, model)


def jacobian(xi: np.ndarray, model: ForwardModel, solve: Optional[tuple] = None) -> np.ndarray:
    """4 x N derivative of the observation operator.

    Differentiating p = 2 S_x(w)/S_1(w) with w = e^{-u} and
    du/dxi_k = phi_k gives

        dp/dxi_k = (-2 S_x(phi_k w) + p(x) S_1(phi_k w)) / S_1(w),

    with S_x and S_1 taken by the forward map's own weights W, so finite
    differences of ``forward`` match exactly in the limit.  All N modes'
    integrals come from one (W * w) @ sine_table^T product, or from the sine
    transform of the rows of W * w when the model has no table.  w and W w
    come from ``solve``, the ``forward_solve`` at xi, computed when not given.
    """
    _, w, flux = forward_solve(xi, model) if solve is None else solve
    if model.sine_table is None:
        mode_flux = _sine_transform(model.weights * w, model.n_nodes - 1)[:, 1:model.n_modes + 1]
    else:
        mode_flux = (model.weights * w) @ model.sine_table.T
    p = 2.0 * flux[:-1] / flux[-1]
    return (-2.0 * mode_flux[:-1] + p[:, None] * mode_flux[-1]) / flux[-1]


@dataclass
class MapResult:
    xi: np.ndarray
    converged: bool
    iterations: int
    gradient_norm: float
    stop: str               # "gradient", "step", "damping" or "max_iter"


def map_estimate(obs: Observation, model: ForwardModel, prior: PriorSpec) -> MapResult:
    """Levenberg-Marquardt minimizer of the regularized misfit.

    Minimizes 1/2 ||r(xi)||^2 with the stacked residual
    r = [sigma^-1 (y - G(xi)); C^{-1/2} xi], starting from xi = 0.  Damping
    starts at 1e-3, x10 on a failed step and /10 on success; convergence is
    declared at gradient norm < 1e-8 or step norm < 1e-12, with an iteration
    cap of ``MAP_MAX_ITER`` and a damping cap of 1e14 (``converged=False``
    flags a hit cap).  Each damped normal system (L = J/sigma, r x N) is solved by
    Woodbury with one r x r solve.

    ``stop`` says which rule ended the solve: ``"gradient"`` (gradient norm
    below tolerance), ``"step"`` (collapsed step, flagged converged whatever
    the gradient norm), ``"damping"`` (damping above 1e14) or ``"max_iter"``.
    """
    inv_sigma = 1.0 / obs.sigma_eps
    inv_std = 1.0 / prior.std

    def residual(x):
        solve = forward_solve(x, model)            # an accepted x's Jacobian reads it
        return np.concatenate([inv_sigma * (obs.y - forward(x, model, solve)), inv_std * x]), solve

    def linearize(x, r, solve):
        # L = sigma^-1 J(x) and the gradient J_r^T r = -L^T r_data + C^{-1/2} r_prior
        l = inv_sigma * jacobian(x, model, solve)
        return l, inv_std * r[l.shape[0]:] - l.T @ r[:l.shape[0]]

    xi = np.zeros(prior.dim)
    r, solve = residual(xi)
    cost = 0.5 * (r @ r)
    l, grad = linearize(xi, r, solve)
    damping = 1e-3
    for it in range(1, MAP_MAX_ITER + 1):
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < 1e-8:
            return MapResult(xi, True, it - 1, grad_norm, "gradient")
        d_inv = 1.0 / (inv_std * inv_std + damping)
        ld = l * d_inv                                 # L D^{-1}; solve with I + L D^{-1} L^T
        step = ld.T @ np.linalg.solve(np.eye(len(l)) + ld @ l.T, ld @ grad) - d_inv * grad
        candidate = xi + step
        r_new, solve = residual(candidate)
        cost_new = 0.5 * (r_new @ r_new)
        if cost_new < cost:
            xi, r, cost = candidate, r_new, cost_new
            l, grad = linearize(xi, r, solve)
            damping = max(damping / 10.0, 1e-12)
        else:
            damping *= 10.0
        # A collapsed trust-region step means no further progress is possible.
        if np.linalg.norm(step) < 1e-12:
            return MapResult(xi, True, it, grad_norm, "step")
        if damping > 1e14:
            # only a failed step raises the damping, so grad_norm is current
            return MapResult(xi, False, it, grad_norm, "damping")
    grad_norm = float(np.linalg.norm(grad))
    return MapResult(xi, grad_norm < 1e-8, MAP_MAX_ITER, grad_norm, "max_iter")


def build_gamma_from_map(xi_map: np.ndarray, obs: Observation, model: ForwardModel,
                         solve: Optional[tuple] = None) -> FactoredGamma:
    """Curvature sigma^-2 J^T J of the linearized misfit at the MAP point, as
    its factor J / sigma (4 x N, so rank <= 4); ``solve`` as for ``jacobian``."""
    return FactoredGamma(jacobian(xi_map, model, solve) / obs.sigma_eps)


def build_gamma_averaged(points: Sequence[np.ndarray], sigma_eps: float,
                         model: ForwardModel) -> FactoredGamma:
    """Average of the linearized curvatures over P expansion points, as the
    factor stacking J(xi_i) / (sigma sqrt(P)) (4P x N)."""
    points = list(points)
    if not points:
        raise ValueError("need at least one linearization point")
    jacobians = [jacobian(np.asarray(xi, dtype=float), model) for xi in points]
    return FactoredGamma(np.vstack(jacobians) / (sigma_eps * np.sqrt(len(points))))
