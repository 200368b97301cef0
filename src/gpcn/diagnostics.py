"""Autocorrelation, effective sample size and QoI functionals.

Two ESS estimators are provided: the initial-monotone-sequence estimator
(paired autocovariances summed while positive, then forced non-increasing)
and batch means.  The ACF uses the 1/n-normalized (biased) sample
autocovariance, which is the standard choice for the pair-sum estimator.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elliptic import ForwardModel, kl_to_field


def _finite(series) -> np.ndarray:
    """The series as a flat float array; ValueError at its first non-finite entry."""
    x = np.asarray(series, dtype=float).ravel()
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x)))
        raise ValueError(f"series must be finite, got series[{i}] = {x[i]}")
    return x


def _acf_full(series: np.ndarray) -> np.ndarray:
    """Biased-normalized ACF at all lags 0..n-1 via FFT; rejects constant or non-finite input."""
    x = _finite(series)
    n = x.shape[0]
    x = x - x.mean()
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[:n] / n
    if acov[0] <= 0.0:
        raise ValueError("series has zero variance; autocorrelation undefined")
    return acov / acov[0]


def autocorrelation(series, max_lag: int) -> np.ndarray:
    """Sample ACF gamma(0..max_lag) with gamma(0) = 1."""
    n = len(series)
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    if n <= max_lag:
        raise ValueError(f"series of length {n} is too short for max_lag {max_lag}")
    return _acf_full(series)[: max_lag + 1]


@dataclass
class DiagnosticsReport:
    iact: float
    ess: float
    method: str
    n: int
    n_pairs: Optional[int] = None     # pair sums kept by the monotone truncation

    def to_dict(self) -> dict:
        out = {"iact": self.iact, "ess": self.ess, "method": self.method, "n": self.n}
        if self.n_pairs is not None:
            out["n_pairs"] = self.n_pairs
        return out


def _clip_report(n: int, iact_raw: float, method: str, **kw) -> DiagnosticsReport:
    # Estimator noise can push iact below 1; clip so ess stays in (0, n].
    iact = max(iact_raw, 1.0)
    return DiagnosticsReport(iact=iact, ess=n / iact, method=method, n=n, **kw)


def ess_ims(series) -> DiagnosticsReport:
    """Initial-monotone-sequence ESS.

    Pair sums G_m = gamma(2m) + gamma(2m+1) are accumulated while positive
    and capped to be non-increasing; iact = 2 sum(G) - 1.
    """
    n = len(series)
    if n < 100:
        raise ValueError("need at least 100 samples for the pair-sum estimator")
    acf = _acf_full(series)
    n_even = acf.shape[0] - (acf.shape[0] % 2)
    pair_sums = acf[:n_even:2] + acf[1:n_even:2]
    total = 0.0
    ceiling = np.inf
    used = 0
    for g in pair_sums:
        if g <= 0.0:
            break
        g = min(g, ceiling)
        total += g
        ceiling = g
        used += 1
    return _clip_report(n, 2.0 * total - 1.0, "initial-monotone-sequence", n_pairs=used)


def ess_batch_means(series, n_batches: int = 100) -> DiagnosticsReport:
    """Batch-means ESS with ``n_batches`` equal batches (tail truncated if
    ragged); ``n_batches`` must be an integer >= 2, since one batch mean has
    no variance."""
    if (isinstance(n_batches, bool) or not isinstance(n_batches, numbers.Integral)
            or n_batches < 2):
        raise ValueError(f"n_batches must be an integer >= 2, got {n_batches!r}")
    x = _finite(series)
    n = x.shape[0]
    size = n // n_batches
    if size < 10:
        raise ValueError(f"series of length {n} is too short for {n_batches} batches")
    used = size * n_batches
    blocks = x[:used].reshape(n_batches, size)
    var = x[:used].var(ddof=1)
    if var <= 0.0:
        raise ValueError("series has zero variance; ESS undefined")
    sigma2 = size * blocks.mean(axis=1).var(ddof=1)
    return _clip_report(used, sigma2 / var, "batch-means")


def qoi_exp_integral(xi, model: ForwardModel, solve: Optional[tuple] = None) -> float:
    """Quantity of interest int_0^1 exp(u(x)) dx by the trapezoidal rule,
    on the field of ``solve``, the ``elliptic.forward_solve`` at xi, when given."""
    field = kl_to_field(xi, model) if solve is None else solve[0]
    return float(model.weights[-1] @ np.exp(field))
