"""Which gpcn functions the traced run wraps, and the per-layer metrics it derives.

Span labels are ``<defining module>.<name>``; metric names follow the layer
table in NOTES.md.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import numpy as np

_DENSE_MATVECS = {"gpcn": 2, "local-gpcn": 2, "gn-rw": 1, "local-gpcn2": 1}


def _propose_flops(args, kwargs, result) -> float:
    kernel = args[0]
    n = kernel.prior.dim
    return 2.0 * n * n * _DENSE_MATVECS[kernel.variant] if kernel.variant in _DENSE_MATVECS else 2.0 * n


def _pack_nbytes(args, kwargs, pack) -> float:
    return float(sum(v.nbytes for v in vars(pack).values() if isinstance(v, np.ndarray)))


# "module:qualname" -> hook storing one number per call (None: no number).
TARGETS = {
    "gaussian_ops:build_operator_pack": _pack_nbytes,
    "gaussian_ops:log_rho_gamma": None,
    "gaussian_ops:log_pi_gamma": None,
    "proposals:propose": _propose_flops,
    "proposals:log_acceptance_correction": None,
    "proposals:ProposalKernel.pack_at": None,
    "elliptic:ForwardModel.__post_init__": None,
    "elliptic:kl_to_field": None,
    "elliptic:forward": None,
    "elliptic:phi": None,
    "elliptic:make_posterior": None,
    "elliptic:jacobian": None,
    "elliptic:map_estimate": lambda a, k, r: float(r.iterations),
    "elliptic:build_gamma_from_map": None,
    "elliptic:build_gamma_averaged": None,
    "elliptic:generate_data": None,
    "metropolis:mh_step": lambda a, k, r: float(r[1]),
    "metropolis:run_chain": lambda a, k, r: float(r.accepts.size),
    "metropolis:tune_step_size": lambda a, k, r: 0.0 if r.converged else 1.0,
    "metropolis:write_trace_csv": None,
    "metropolis:write_state_dump": None,
    "diagnostics:qoi_exp_integral": None,
    "diagnostics:ess_ims": None,
    "diagnostics:ess_batch_means": None,
    "experiment:run_cell": None,
    "experiment:write_summary_csv": None,
    "spectral:run_lab": None,
    "spectral:conductance": lambda a, k, r: float(2 ** a[0].n_states),
    "spectral:kappa_p": lambda a, k, r: float(2 ** len(a[2])),
    "spectral:spectral_gap": None,
    "spectral:positivity_check": None,
    "spectral:discretize_metropolis": None,
}

# run_cell phase -> spans that are direct children of run_cell.
PHASES = {
    "data": ("elliptic.ForwardModel", "elliptic.generate_data", "elliptic.make_posterior"),
    "map": ("elliptic.map_estimate",),
    "tune": ("metropolis.tune_step_size",),
    "pack": ("elliptic.build_gamma_from_map", "elliptic.build_gamma_averaged",
             "gaussian_ops.build_operator_pack"),
    "chain": ("metropolis.run_chain",),
    "ess": ("diagnostics.ess_ims", "diagnostics.ess_batch_means"),
    "write": ("metropolis.write_trace_csv", "metropolis.write_state_dump"),
}

# metric name -> (span label, statistic), statistic one of calls / self_s / value_sum / value_max.
_SPAN_METRICS = {
    "gaussian_ops.build_operator_pack.calls": ("gaussian_ops.build_operator_pack", "calls"),
    "gaussian_ops.build_operator_pack.self_s": ("gaussian_ops.build_operator_pack", "self_s"),
    "gaussian_ops.pack_nbytes": ("gaussian_ops.build_operator_pack", "value_max"),
    "gaussian_ops.log_rho_gamma.self_s": ("gaussian_ops.log_rho_gamma", "self_s"),
    "gaussian_ops.log_pi_gamma.self_s": ("gaussian_ops.log_pi_gamma", "self_s"),
    "proposals.propose.calls": ("proposals.propose", "calls"),
    "proposals.propose.self_s": ("proposals.propose", "self_s"),
    "proposals.propose.flops": ("proposals.propose", "value_sum"),
    "proposals.log_acceptance_correction.calls": ("proposals.log_acceptance_correction", "calls"),
    "proposals.log_acceptance_correction.self_s": ("proposals.log_acceptance_correction", "self_s"),
    "proposals.pack_at.calls": ("proposals.ProposalKernel.pack_at", "calls"),
    "proposals.pack_at.self_s": ("proposals.ProposalKernel.pack_at", "self_s"),
    "elliptic.phi.calls": ("elliptic.phi", "calls"),
    "elliptic.phi.self_s": ("elliptic.phi", "self_s"),
    "elliptic.forward.self_s": ("elliptic.forward", "self_s"),
    "elliptic.kl_to_field.calls": ("elliptic.kl_to_field", "calls"),
    "elliptic.kl_to_field.self_s": ("elliptic.kl_to_field", "self_s"),
    "elliptic.jacobian.calls": ("elliptic.jacobian", "calls"),
    "elliptic.jacobian.self_s": ("elliptic.jacobian", "self_s"),
    "elliptic.map_estimate.self_s": ("elliptic.map_estimate", "self_s"),
    "elliptic.map_estimate.iterations": ("elliptic.map_estimate", "value_sum"),
    "elliptic.build_gamma_from_map.self_s": ("elliptic.build_gamma_from_map", "self_s"),
    "elliptic.generate_data.self_s": ("elliptic.generate_data", "self_s"),
    "elliptic.ForwardModel.self_s": ("elliptic.ForwardModel", "self_s"),
    "metropolis.mh_step.calls": ("metropolis.mh_step", "calls"),
    "metropolis.mh_step.self_s": ("metropolis.mh_step", "self_s"),
    "metropolis.accepted": ("metropolis.mh_step", "value_sum"),
    "metropolis.run_chain.self_s": ("metropolis.run_chain", "self_s"),
    "metropolis.tune_step_size.self_s": ("metropolis.tune_step_size", "self_s"),
    "metropolis.tune_step_size.unconverged": ("metropolis.tune_step_size", "value_sum"),
    "diagnostics.qoi_exp_integral.calls": ("diagnostics.qoi_exp_integral", "calls"),
    "diagnostics.qoi_exp_integral.self_s": ("diagnostics.qoi_exp_integral", "self_s"),
    "diagnostics.ess_ims.self_s": ("diagnostics.ess_ims", "self_s"),
    "diagnostics.ess_batch_means.self_s": ("diagnostics.ess_batch_means", "self_s"),
    "experiment.run_cell.calls": ("experiment.run_cell", "calls"),
    "experiment.run_cell.self_s": ("experiment.run_cell", "self_s"),
    "experiment.write_trace_csv.self_s": ("metropolis.write_trace_csv", "self_s"),
    "spectral.run_lab.self_s": ("spectral.run_lab", "self_s"),
    "spectral.conductance.calls": ("spectral.conductance", "calls"),
    "spectral.conductance.self_s": ("spectral.conductance", "self_s"),
    "spectral.kappa_p.calls": ("spectral.kappa_p", "calls"),
    "spectral.kappa_p.self_s": ("spectral.kappa_p", "self_s"),
    "spectral.spectral_gap.self_s": ("spectral.spectral_gap", "self_s"),
    "spectral.positivity_check.self_s": ("spectral.positivity_check", "self_s"),
    "spectral.discretize_metropolis.self_s": ("spectral.discretize_metropolis", "self_s"),
}

# Metrics computed from several spans or from the workload's own records.
_DERIVED = {
    "proposals.gamma_map.calls": "count",
    "proposals.gamma_map.per_mh_step": "1/step",
    "metropolis.attempted": "count",
    "metropolis.accept_ratio": "ratio",
    "metropolis.tune_step_size.pilots": "count",
    "metropolis.tune_step_size.pilot_steps": "count",
    "diagnostics.ess": "count",
    "diagnostics.iact": "steps",
    **{f"experiment.phase.{phase}_s": "s" for phase in PHASES},
    "experiment.artifact_bytes": "bytes",
    "spectral.subsets": "count",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.absent": "count",
}

ESS_VARIANTS = ("rw", "pcn", "gn-rw", "gpcn", "local-gpcn", "local-gpcn2")
ESS_METRICS = ("ess_per_s",) + tuple(f"ess_per_s.{v}" for v in ESS_VARIANTS)

_STAT_UNITS = {"calls": "count", "self_s": "s"}
_VALUE_UNITS = {"gaussian_ops.pack_nbytes": "bytes", "proposals.propose.flops": "flop",
                "elliptic.map_estimate.iterations": "count", "metropolis.accepted": "count",
                "metropolis.tune_step_size.unconverged": "count"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, (_, stat) in _SPAN_METRICS.items():
        units[name] = _STAT_UNITS.get(stat) or _VALUE_UNITS[name]
    units.update(_DERIVED)
    units.update({name: "1/s" for name in ESS_METRICS})
    return units


def layer_metrics(spans: dict, labels: list) -> dict:
    """Per-layer metrics of one traced round from its spans."""
    name, parent = spans["name"], spans["parent"]
    parent_name = np.where(parent >= 0, name[parent], -1)
    ids = {label: i for i, label in enumerate(labels)}

    def is_(array, *wanted):
        """Mask of spans whose (parent) label is one of ``wanted``; absent labels match nothing."""
        return np.isin(array, [ids[w] for w in wanted if w in ids])

    out = {}
    for metric, (label, stat) in _SPAN_METRICS.items():
        mask = is_(name, label)
        if stat == "calls":
            out[metric] = int(mask.sum())
        elif stat == "self_s":
            out[metric] = float(spans["self"][mask].sum())
        elif stat == "value_sum":
            out[metric] = float(spans["value"][mask].sum())
        else:
            out[metric] = float(spans["value"][mask].max()) if mask.any() else 0.0

    proposal_spans = [label for label in labels if label.startswith("proposals.")]
    gamma_builds = int((is_(name, "elliptic.build_gamma_from_map") & is_(parent_name, *proposal_spans)).sum())
    steps = out["metropolis.mh_step.calls"]
    out["proposals.gamma_map.calls"] = gamma_builds
    out["proposals.gamma_map.per_mh_step"] = gamma_builds / steps if steps else 0.0
    out["metropolis.attempted"] = steps
    out["metropolis.accept_ratio"] = out["metropolis.accepted"] / steps if steps else 0.0
    pilots = is_(name, "metropolis.run_chain") & is_(parent_name, "metropolis.tune_step_size")
    out["metropolis.tune_step_size.pilots"] = int(pilots.sum())
    out["metropolis.tune_step_size.pilot_steps"] = int(spans["value"][pilots].sum())
    in_cell = is_(parent_name, "experiment.run_cell")
    for phase, members in PHASES.items():
        out[f"experiment.phase.{phase}_s"] = float(spans["duration"][in_cell & is_(name, *members)].sum())
    enumerations = is_(name, "spectral.conductance", "spectral.kappa_p")
    out["spectral.subsets"] = int(spans["value"][enumerations].sum())
    out["trace.spans"] = int(name.size)
    return out
