"""The five Gaussian proposal families behind one interface.

Variants
--------
rw           v = u + s C^{1/2} z                     (prior-scaled random walk)
pcn          v = sqrt(1-s^2) u + s C^{1/2} z         (autoregressive, prior-reversible)
gn-rw        v = u + s C_Gamma^{1/2} z               (curvature-adapted random walk)
gpcn         v = A u + s C_Gamma^{1/2} z             (adapted autoregressive, prior-reversible)
local-gpcn   v = A_{Gamma(u)} u + s C_{Gamma(u)}^{1/2} z
local-gpcn2  v = sqrt(1-s^2) u + s C_{Gamma(u)}^{1/2} z

``ProposalKernel.pack_at(u, aux)`` is the one source of a state's operator
pack; aux is what the chain's potential returned at u with phi(u).
``propose`` is the one place a candidate is formed: it maps the law's mean
at u, ``proposal_mean``, a standard normal draw z and the pack at u to the
candidate v, the mean plus the law's centred draw.  ``log_acceptance_correction``
reads the packs at u and v and gives the additive log term completing
phi(u) - phi(v) + correction(u, v); for rw and gn-rw it reads the states'
``prior_quadratic`` terms.  A chain computes the mean and the quadratic once
per state, so a step computes them only for its candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .gaussian_ops import (
    FactoredGamma,
    OperatorPack,
    PriorSpec,
    build_operator_pack,
    log_pi_gamma,
    log_rho_gamma,
)

VARIANTS = ("rw", "pcn", "gn-rw", "gpcn", "local-gpcn", "local-gpcn2")
PACK_VARIANTS = ("gn-rw", "gpcn")
LOCAL_VARIANTS = ("local-gpcn", "local-gpcn2")
PRIOR_REVERSIBLE = ("pcn", "gpcn")     # reversible for the prior: zero acceptance correction
WALK_VARIANTS = ("rw", "gn-rw")        # mean u; the correction is the prior density ratio


def check_step_size(variant: str, s: float) -> None:
    """Raise ValueError, naming the admissible range, if ``variant`` cannot run at ``s``.

    rw takes any s >= 0.  Every other variant needs s < 1: pcn and the gpCN
    means take sqrt(1 - s^2), and an ``OperatorPack`` (gn-rw's too) exists
    only for s in [0, 1).  The local corrections divide by s, so those
    variants also need s > 0.
    """
    if not np.isfinite(s):
        raise ValueError(f"step size s must be finite, got {s}")
    if variant == "rw":
        ok, span = s >= 0.0, "[0, inf)"
    elif variant in LOCAL_VARIANTS:
        ok, span = 0.0 < s < 1.0, "(0, 1)"
    else:
        ok, span = 0.0 <= s < 1.0, "[0, 1)"
    if not ok:
        raise ValueError(f"step size s must lie in {span} for {variant}, got {s}")


@dataclass(frozen=True)
class ProposalKernel:
    """One proposal law, fixed by its variant, ``prior`` (its chain's one
    prior) and step size ``s``.  ``gn-rw``/``gpcn`` take the curvature
    ``gamma`` (a ``FactoredGamma``) and build their operator pack from it on
    construction, so ``dataclasses.replace(kernel, s=...)`` rebuilds the pack
    at the new s.  The local variants take a ``gamma_map`` (u, aux) -> Gamma(u)
    that returns a ``FactoredGamma``, aux being what the potential returned at u.
    Either argument given to a variant that does not read it is a ValueError."""

    variant: str
    prior: PriorSpec
    s: float
    gamma: Optional[FactoredGamma] = None
    gamma_map: Optional[Callable[[np.ndarray, object], FactoredGamma]] = None
    pack: Optional[OperatorPack] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown proposal variant {self.variant!r}; expected one of {VARIANTS}")
        check_step_size(self.variant, self.s)
        for name, readers in (("gamma", PACK_VARIANTS), ("gamma_map", LOCAL_VARIANTS)):
            given = getattr(self, name) is not None
            if given != (self.variant in readers):
                raise ValueError(f"{self.variant} {'takes no' if given else 'requires a'} {name}")
        object.__setattr__(self, "pack", build_operator_pack(self.prior, self.gamma, self.s)
                           if self.variant in PACK_VARIANTS else None)

    def pack_at(self, u: np.ndarray, aux) -> Optional[OperatorPack]:
        """The operator pack at u: built from Gamma(u) = ``gamma_map(u, aux)``
        for the local variants, the kernel's fixed pack otherwise (None for rw
        and pcn)."""
        if self.variant in LOCAL_VARIANTS:
            return build_operator_pack(self.prior, self.gamma_map(u, aux), self.s)
        return self.pack


def proposal_mean(kernel: ProposalKernel, u: np.ndarray,
                  pack: Optional[OperatorPack]) -> np.ndarray:
    """The mean of the kernel's law at u; ``pack`` is ``kernel.pack_at(u, aux)``.
    rw and gn-rw return u itself."""
    variant = kernel.variant
    if variant in WALK_VARIANTS:
        return u
    if variant == "pcn":
        return math.sqrt(1.0 - kernel.s * kernel.s) * u
    if variant == "local-gpcn2":
        return pack.a0 * u
    return pack.apply_a(u)


def propose(kernel: ProposalKernel, mean: np.ndarray, z: np.ndarray,
            pack: Optional[OperatorPack]) -> np.ndarray:
    """The candidate that the standard normal draw z gives under the kernel's
    law at u, whose mean is ``mean = proposal_mean(kernel, u, pack)`` and
    whose pack is ``pack = kernel.pack_at(u, aux)``: the centred draw, in a
    new array, plus the mean.  Neither ``mean`` (for rw and gn-rw, u itself)
    nor z is written."""
    if kernel.variant in ("rw", "pcn"):
        v = kernel.prior.std * z
        v *= kernel.s
    else:
        v = pack.scaled_noise(z)
    v += mean
    return v


def prior_quadratic(kernel: ProposalKernel, u: np.ndarray) -> Optional[float]:
    """sum(u^2 / lambda), the prior term of the rw and gn-rw correction at u;
    None for the variants whose correction does not read it."""
    if kernel.variant not in WALK_VARIANTS:
        return None
    return (u * u / kernel.prior.eigenvalues).sum()


def _equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal(a, b)`` for two arrays, without its input conversion."""
    return a.shape == b.shape and bool((a == b).all())


def log_acceptance_correction(kernel: ProposalKernel, u: np.ndarray, v: np.ndarray,
                              pack_u: Optional[OperatorPack],
                              pack_v: Optional[OperatorPack],
                              quad_u: Optional[float],
                              quad_v: Optional[float]) -> float:
    """Additive log term completing the acceptance ratio phi(u) - phi(v) + correction.

    pcn and gpcn are prior-reversible, so their correction vanishes.  rw and
    gn-rw are symmetric Lebesgue proposals; keeping the chain reversible for
    the posterior requires the prior log-density ratio, read from
    ``quad_u`` and ``quad_v``, ``prior_quadratic`` at u and v (None for the
    variants that do not read them).
    The local variants carry the density ratio of their state-dependent
    laws, from their packs at u and v, ``kernel.pack_at(u, aux_u)`` and
    ``kernel.pack_at(v, aux_v)``.
    """
    variant = kernel.variant
    if variant in PRIOR_REVERSIBLE:
        return 0.0
    if variant in WALK_VARIANTS:
        return float(0.5 * (quad_u - quad_v))
    if variant == "local-gpcn" and _equal(pack_u.w, pack_v.w) and _equal(pack_u.v, pack_v.v):
        # Constant curvature map: one Gamma gives bit-identical packs, the two
        # density factors coincide and the correction is exactly the
        # global-gpcn one (zero).
        return 0.0
    if variant == "local-gpcn":
        return log_rho_gamma(pack_u, u, v) - log_rho_gamma(pack_v, v, u)
    # local-gpcn2: only the covariance is state dependent, the mean is the
    # plain autoregressive one, so the correction reduces to the two
    # covariance-change factors at the scaled residuals.
    tu = (v - pack_u.a0 * u) / kernel.s
    tv = (u - pack_u.a0 * v) / kernel.s
    return log_pi_gamma(pack_u, tu) - log_pi_gamma(pack_v, tv)
