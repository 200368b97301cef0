"""Function-space MCMC with curvature-adapted Crank-Nicolson proposals.

Samplers and operator algebra for Gaussian-prior Bayesian inverse problems,
an analytic 1-D elliptic benchmark, ESS diagnostics, and a finite-state lab
that verifies the spectral-gap, conductance and positivity statements the
method relies on.
"""

from .diagnostics import (
    DiagnosticsReport,
    autocorrelation,
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
    log_pi_cm,
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
from .proposals import (
    ProposalKernel,
    gauss_newton_rw,
    gpcn,
    local_gpcn,
    local_gpcn2,
    log_acceptance_correction,
    pcn,
    propose,
    random_walk,
)
from .spectral import (
    FiniteChain,
    asymptotic_variance,
    cheeger_check,
    comparison_check,
    conductance,
    detailed_balance_gap,
    discretize_metropolis,
    grid_gpcn_metropolis,
    kappa_p,
    positivity_check,
    restrict_chain,
    restriction_check,
    run_lab,
    spectral_gap,
)

__all__ = [name for name in dir() if not name.startswith("_")]
