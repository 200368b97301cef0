"""Function-space MCMC with curvature-adapted Crank-Nicolson proposals.

Samplers and operator algebra for Gaussian-prior Bayesian inverse problems,
an analytic 1-D elliptic benchmark, ESS diagnostics, and a finite-state lab
that verifies the spectral-gap, conductance and positivity statements the
method relies on.
"""

from .diagnostics import (
    DiagnosticsReport,
    ess_batch_means,
    ess_ims,
    qoi_exp_integral,
)
from .elliptic import (
    ForwardModel,
    MapResult,
    Observation,
    build_gamma_averaged,
    build_gamma_from_map,
    default_truth,
    forward,
    generate_data,
    jacobian,
    kl_to_field,
    make_posterior,
    map_estimate,
    phi,
)
from .gaussian_ops import (
    FactoredGamma,
    OperatorPack,
    PriorSpec,
    build_operator_pack,
    integrability_bound,
    log_pi_gamma,
    log_rho_gamma,
)
from .metropolis import (
    ChainConfig,
    ChainTrace,
    State,
    TuneResult,
    mh_step,
    run_chain,
    tune_step_size,
    write_state_dump,
    write_trace_csv,
)
from .proposals import ProposalKernel, log_acceptance_correction, propose
from .spectral import (
    FiniteChain,
    asymptotic_variance,
    cheeger_check,
    comparison_check,
    conductance,
    discretize_kernel,
    discretize_metropolis,
    kappa_p,
    positivity_check,
    restrict_chain,
    restriction_check,
    run_lab,
    spectral_gap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
