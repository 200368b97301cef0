"""The five Gaussian proposal families behind one interface.

Variants
--------
rw           v = u + s C^{1/2} z                     (prior-scaled random walk)
pcn          v = sqrt(1-s^2) u + s C^{1/2} z         (autoregressive, prior-reversible)
gn-rw        v = u + s C_Gamma^{1/2} z               (curvature-adapted random walk)
gpcn         v = A u + s C_Gamma^{1/2} z             (adapted autoregressive, prior-reversible)
local-gpcn   v = A_{Gamma(u)} u + s C_{Gamma(u)}^{1/2} z
local-gpcn2  v = sqrt(1-s^2) u + s C_{Gamma(u)}^{1/2} z

``ProposalKernel.pack_at(u)`` is the one source of a state's operator pack.
``propose`` is pure: it maps u, a standard normal draw z and the pack at u
to the candidate v.  ``log_acceptance_correction`` reads the packs at u and v
and gives the additive log term completing phi(u) - phi(v) + correction(u, v).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    """One proposal family at step size ``s`` on ``prior``, its chain's one prior.
    ``gn-rw``/``gpcn`` carry a pack built at ``s`` on that prior; the local
    variants a ``gamma_map`` u -> Gamma(u) that returns a ``FactoredGamma``."""

    variant: str
    prior: PriorSpec
    s: float
    pack: Optional[OperatorPack] = None
    gamma_map: Optional[Callable[[np.ndarray], FactoredGamma]] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown proposal variant {self.variant!r}; expected one of {VARIANTS}")
        check_step_size(self.variant, self.s)
        if self.variant in PACK_VARIANTS and self.pack is None:
            raise ValueError(f"{self.variant} requires an OperatorPack")
        if self.pack is not None and self.pack.s != self.s:
            raise ValueError(f"pack step size {self.pack.s} differs from kernel step size {self.s}")
        if self.pack is not None and not np.array_equal(self.pack.prior.eigenvalues,
                                                        self.prior.eigenvalues):
            raise ValueError(f"pack built on another prior spectrum than the kernel's "
                             f"(dim {self.pack.prior.dim} vs {self.prior.dim})")
        if self.variant in LOCAL_VARIANTS and self.gamma_map is None:
            raise ValueError(f"{self.variant} requires a gamma_map")

    def with_step_size(self, s: float) -> "ProposalKernel":
        """Copy of this kernel at a new step size; a pack keeps its V and w."""
        pack = None if self.pack is None else replace(self.pack, s=s)
        return replace(self, s=s, pack=pack)

    def pack_at(self, u: np.ndarray) -> Optional[OperatorPack]:
        """The operator pack at u: built from Gamma(u) for the local variants,
        the kernel's fixed pack otherwise (None for rw and pcn)."""
        if self.variant in LOCAL_VARIANTS:
            return build_operator_pack(self.prior, self.gamma_map(u), self.s)
        return self.pack


def random_walk(prior: PriorSpec, s: float) -> ProposalKernel:
    return ProposalKernel("rw", prior, s)


def pcn(prior: PriorSpec, s: float) -> ProposalKernel:
    return ProposalKernel("pcn", prior, s)


def gauss_newton_rw(pack: OperatorPack) -> ProposalKernel:
    return ProposalKernel("gn-rw", pack.prior, pack.s, pack=pack)


def gpcn(pack: OperatorPack) -> ProposalKernel:
    return ProposalKernel("gpcn", pack.prior, pack.s, pack=pack)


def local_gpcn(prior: PriorSpec, gamma_map, s: float) -> ProposalKernel:
    return ProposalKernel("local-gpcn", prior, s, gamma_map=gamma_map)


def local_gpcn2(prior: PriorSpec, gamma_map, s: float) -> ProposalKernel:
    return ProposalKernel("local-gpcn2", prior, s, gamma_map=gamma_map)


def propose(kernel: ProposalKernel, u: np.ndarray, z: np.ndarray,
            pack: Optional[OperatorPack]) -> np.ndarray:
    """The candidate that the standard normal draw z gives from u under the
    kernel's law at u; ``pack`` is ``kernel.pack_at(u)``."""
    s = kernel.s
    v = kernel.variant
    if v == "rw":
        return u + s * (kernel.prior.std * z)
    if v == "pcn":
        return np.sqrt(1.0 - s * s) * u + s * (kernel.prior.std * z)
    if v == "gn-rw":
        return u + pack.scaled_noise(z)
    if v == "local-gpcn2":
        return pack.a0 * u + pack.scaled_noise(z)
    return pack.apply_a(u) + pack.scaled_noise(z)


def log_acceptance_correction(kernel: ProposalKernel, u: np.ndarray, v: np.ndarray,
                              pack_u: Optional[OperatorPack],
                              pack_v: Optional[OperatorPack]) -> float:
    """Additive log term completing the acceptance ratio phi(u) - phi(v) + correction.

    pcn and gpcn are prior-reversible, so their correction vanishes.  rw and
    gn-rw are symmetric Lebesgue proposals; keeping the chain reversible for
    the posterior requires the prior log-density ratio.  The local variants
    carry the density ratio of their state-dependent laws, from their packs
    at u and v, ``kernel.pack_at(u)`` and ``kernel.pack_at(v)``.
    """
    variant = kernel.variant
    if variant in ("pcn", "gpcn"):
        return 0.0
    lam = kernel.prior.eigenvalues
    if variant in ("rw", "gn-rw"):
        return float(0.5 * ((u * u / lam).sum() - (v * v / lam).sum()))
    if variant == "local-gpcn" and np.array_equal(pack_u.w, pack_v.w) and np.array_equal(
            pack_u.v, pack_v.v):
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
