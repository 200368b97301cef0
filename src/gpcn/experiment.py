"""Configuration-driven experiment harness.

Configs are flat ``key = value`` text with dotted section prefixes; lists are
comma separated.  A single master seed is split into data / tuning / chain /
linearization-point streams via ``numpy.random.SeedSequence([master, tag,
*cell indices])`` (tags 0..3), so every artifact records explicit derived
seeds and reruns are bit-reproducible.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import elliptic
from .diagnostics import ess_batch_means, ess_ims, qoi_exp_integral
from .gaussian_ops import FactoredGamma, PriorSpec, build_operator_pack
from .metropolis import ChainConfig, run_chain, tune_step_size, write_state_dump, write_trace_csv
from .proposals import LOCAL_VARIANTS, PACK_VARIANTS, VARIANTS, ProposalKernel, check_step_size

QOI_NAME = "exp_integral"
_SEED_DATA, _SEED_TUNE, _SEED_CHAIN, _SEED_POINTS = 0, 1, 2, 3


class ConfigError(Exception):
    pass


def parse_kv(text: str):
    """Parse flat key = value lines; returns (values, line numbers)."""
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
        lines[key] = lineno
    return values, lines


@dataclass
class ExperimentConfig:
    seed: int
    n_modes: list
    sigma_eps: list
    variants: list
    n: int
    n0: int
    dx: float
    truth: str = "default"
    s: Optional[float] = None
    target_acceptance: float = 0.25
    gamma_source: str = "map"
    gamma_points: int = 5
    thin: int = 1
    replicates: int = 1
    pilot_n: int = 2000
    out_dir: str = "out"
    formats: list = field(default_factory=lambda: ["csv", "json"])

    def items(self):
        """Fully resolved flat view, defaults included."""
        return [(key, show(getattr(self, name))) for key, name, _, show in _FIELDS]


def _typed(values, lines, key, cast):
    try:
        return cast(values[key])
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"line {lines[key]}: bad value for {key!r}: {exc}") from exc


def _int_list(text):
    return [int(v) for v in text.split(",") if v.strip()]


def _float_list(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _str_list(text):
    return [v.strip() for v in text.split(",") if v.strip()]


def _as_is(value):
    return value


def _joined(show):
    return lambda values: ",".join(show(v) for v in values)


# config key, ExperimentConfig field, parser, formatter for ``items()``; a
# key that is absent leaves the field at its default.
_FIELDS = (
    ("seed", "seed", int, _as_is),
    ("problem.N", "n_modes", _int_list, _joined(str)),
    ("problem.sigma_eps", "sigma_eps", _float_list, _joined("{:g}".format)),
    ("problem.dx", "dx", float, "{:.17g}".format),
    ("problem.truth", "truth", str, _as_is),
    ("sampler.variant", "variants", _str_list, _joined(str)),
    ("sampler.s", "s", float, lambda s: "tuned" if s is None else f"{s:.17g}"),
    ("sampler.target_acceptance", "target_acceptance", float, "{:g}".format),
    ("sampler.gamma", "gamma_source", str, _as_is),
    ("sampler.gamma_points", "gamma_points", int, _as_is),
    ("run.n", "n", int, _as_is),
    ("run.n0", "n0", int, _as_is),
    ("run.thin", "thin", int, _as_is),
    ("run.replicates", "replicates", int, _as_is),
    ("run.pilot_n", "pilot_n", int, _as_is),
    ("output.dir", "out_dir", str, _as_is),
    ("output.formats", "formats", _str_list, _joined(str)),
)
_REQUIRED = ("seed", "problem.N", "problem.sigma_eps", "sampler.variant", "run.n", "run.n0")


def resolve_config(text: str) -> ExperimentConfig:
    values, lines = parse_kv(text)
    fields = {}
    for key, name, cast, _ in _FIELDS:
        if key in values:
            fields[name] = _typed(values, lines, key, cast)
        elif key in _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
    # A cell's artifacts are named by its variant, N and sigma_eps as printed
    # (``run_cell``'s stem), so entries that print alike would overwrite
    # each other's files.
    for key, name, show in (("problem.N", "n_modes", str),
                            ("problem.sigma_eps", "sigma_eps", "{:g}".format),
                            ("sampler.variant", "variants", str)):
        shown = [show(v) for v in fields[name]]
        if not shown:
            raise ConfigError(f"line {lines[key]}: {key} lists no values")
        repeated = [v for i, v in enumerate(shown) if v in shown[:i]]
        if repeated:
            raise ConfigError(f"line {lines[key]}: {key} lists {repeated[0]} more than once; "
                              f"its cells would share artifact names")
    n_max = max(fields["n_modes"])
    dx = fields.pop("dx", None)
    if dx is None:
        # one dx for every cell: the largest 2^-k <= 2^-9 whose grid resolves n_max modes
        dx = 2.0 ** -max(9, n_max.bit_length())
    else:
        try:
            steps = elliptic.grid_steps(dx)
        except ValueError as exc:
            raise ConfigError(f"line {lines['problem.dx']}: {exc}") from None
        if n_max >= steps:
            raise ConfigError(f"line {lines['problem.dx']}: dx = {dx:g} does not resolve "
                              f"problem.N = {n_max} modes (need N < 1/dx)")
    cfg = ExperimentConfig(dx=dx, **fields)
    known = {key for key, *_ in _FIELDS}
    for key in values:
        if key not in known:
            raise ConfigError(f"line {lines[key]}: unknown key {key!r}")
    for v in cfg.variants:
        if v not in VARIANTS:
            raise ConfigError(f"line {lines['sampler.variant']}: unknown variant {v!r}")
    if cfg.gamma_source not in ("map", "zero", "averaged"):
        raise ConfigError(f"line {lines['sampler.gamma']}: gamma source must be map, zero or averaged")
    if cfg.s is not None:
        for v in cfg.variants:
            try:
                check_step_size(v, cfg.s)
            except ValueError as exc:
                raise ConfigError(f"line {lines['sampler.s']}: sampler.s: {exc}") from None
    if not 0.0 < cfg.target_acceptance < 1.0:
        raise ConfigError(f"line {lines['sampler.target_acceptance']}: target_acceptance must be in (0, 1)")
    if not all(0.0 < v < np.inf for v in cfg.sigma_eps):
        raise ConfigError(f"line {lines['problem.sigma_eps']}: sigma_eps must be positive "
                          f"and finite")
    if any(v < 1 for v in cfg.n_modes):
        raise ConfigError(f"line {lines['problem.N']}: N must be positive")
    if cfg.truth != "default":
        where = f"line {lines['problem.truth']}: problem.truth"
        try:
            truth = truth_object(cfg)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        n_min = min(cfg.n_modes)
        if truth.size > n_min:
            raise ConfigError(f"{where} has {truth.size} coefficients, more than "
                              f"min(problem.N) = {n_min}")
    for key, value, low in (("seed", cfg.seed, 0), ("run.n", cfg.n, 0), ("run.n0", cfg.n0, 0),
                            ("run.thin", cfg.thin, 1), ("run.replicates", cfg.replicates, 1)):
        if value < low:
            raise ConfigError(f"line {lines[key]}: {key} must be at least {low}, got {value}")
    if cfg.s is None and cfg.pilot_n < 1000:
        raise ConfigError(f"line {lines['run.pilot_n']}: run.pilot_n must be at least 1000 "
                          f"when sampler.s is tuned, got {cfg.pilot_n}")
    if cfg.gamma_source == "averaged" and cfg.gamma_points < 1:
        raise ConfigError(f"line {lines['sampler.gamma_points']}: sampler.gamma_points must be "
                          f"at least 1 for sampler.gamma = averaged, got {cfg.gamma_points}")
    for fmt in cfg.formats:
        if fmt not in ("csv", "json", "npy"):
            raise ConfigError(f"line {lines['output.formats']}: unknown format {fmt!r}")
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return resolve_config(fh.read())


def derive_seed(master: int, tag: int, *indices: int) -> int:
    """Deterministic child seed for one named stream of the master seed."""
    ss = np.random.SeedSequence([int(master), int(tag), *[int(i) for i in indices]])
    return int(ss.generate_state(2, dtype=np.uint64)[0])


def truth_object(cfg: ExperimentConfig):
    """The truth ``problem.truth`` names: the default field or sine coefficients;
    ValueError for any other spec."""
    if cfg.truth == "default":
        return elliptic.default_truth
    if cfg.truth.startswith("coeffs:"):
        coeffs = np.asarray(_float_list(cfg.truth[len("coeffs:"):]), dtype=float)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(f"truth coefficients must be finite, got {coeffs.tolist()}")
        return coeffs
    raise ValueError(f"unknown truth spec {cfg.truth!r}; use 'default' or 'coeffs:v1,v2,...'")


def build_problem(cfg: ExperimentConfig, i_n: int, i_sig: int) -> tuple:
    """Data and MAP point of cell (i_n, i_sig): (model, prior, data_seed, obs,
    phi, map_result), phi the potential of the target exp(-phi) d(prior)."""
    n_modes = cfg.n_modes[i_n]
    model = elliptic.ForwardModel(n_modes, dx=cfg.dx)
    prior = PriorSpec(n_modes)
    data_seed = derive_seed(cfg.seed, _SEED_DATA, i_n, i_sig)
    obs = elliptic.generate_data(truth_object(cfg), cfg.sigma_eps[i_sig], model,
                                 np.random.default_rng(data_seed), seed=data_seed)
    phi = elliptic.make_posterior(obs, model)
    map_result = elliptic.map_estimate(obs, model, prior)
    return model, prior, data_seed, obs, phi, map_result


def build_curvature(cfg: ExperimentConfig, prior, model, obs, xi_map) -> FactoredGamma:
    """The fixed curvature Gamma that ``sampler.gamma`` selects: at the MAP
    point, zero, or averaged over prior draws from the points stream."""
    if cfg.gamma_source == "zero":
        return FactoredGamma(np.zeros((0, prior.dim)))
    if cfg.gamma_source == "averaged":
        rng = np.random.default_rng(derive_seed(cfg.seed, _SEED_POINTS, prior.dim))
        points = [prior.sample(rng) for _ in range(cfg.gamma_points)]
        return elliptic.build_gamma_averaged(points, obs.sigma_eps, model)
    return elliptic.build_gamma_from_map(xi_map, obs, model)


def _build_kernel(cfg, variant, prior, model, obs, xi_map, s):
    if variant in PACK_VARIANTS:
        gamma = build_curvature(cfg, prior, model, obs, xi_map)
        return ProposalKernel(variant, prior, s, pack=build_operator_pack(prior, gamma, s))
    if variant in LOCAL_VARIANTS:
        gamma_map = lambda u: elliptic.build_gamma_from_map(u, obs, model)
        return ProposalKernel(variant, prior, s, gamma_map=gamma_map)
    return ProposalKernel(variant, prior, s)


def ess_summary(series) -> dict:
    """Both ESS estimators on one QoI series, keyed ``ims`` and ``batch_means``:
    each report's ``to_dict()``, or ``{"error": message}`` for a series the
    estimator cannot take (too short, or constant)."""
    summary = {}
    for name, estimator in (("ims", ess_ims), ("batch_means", ess_batch_means)):
        try:
            summary[name] = estimator(series).to_dict()
        except ValueError as exc:
            summary[name] = {"error": str(exc)}
    return summary


def run_cell(cfg: ExperimentConfig, iv: int, i_n: int, i_sig: int, rep: int) -> dict:
    """Run one (variant, N, sigma_eps, replicate) cell and write its artifacts."""
    variant = cfg.variants[iv]
    n_modes = cfg.n_modes[i_n]
    sigma = cfg.sigma_eps[i_sig]
    model, prior, data_seed, obs, phi, map_result = build_problem(cfg, i_n, i_sig)
    xi_map = map_result.xi

    tuned = cfg.s is None
    kernel = _build_kernel(cfg, variant, prior, model, obs, xi_map, 0.5 if tuned else cfg.s)
    if tuned:
        tune_seed = derive_seed(cfg.seed, _SEED_TUNE, iv, i_n, i_sig)
        result = tune_step_size(kernel, phi, cfg.target_acceptance, cfg.pilot_n,
                                np.random.default_rng(tune_seed), initial_state=xi_map)
        kernel = kernel.with_step_size(result.s)
    s = kernel.s

    chain_seed = derive_seed(cfg.seed, _SEED_CHAIN, iv, i_n, i_sig, rep)
    # Only the npy dump reads the states, so without it the chain keeps none.
    chain_cfg = ChainConfig(kernel, phi, n=cfg.n, n0=cfg.n0, seed=chain_seed,
                            initial_state=xi_map,
                            thin=cfg.thin if "npy" in cfg.formats else None,
                            qoi={QOI_NAME: lambda xi: qoi_exp_integral(xi, model)})
    trace = run_chain(chain_cfg)

    series = trace.qoi_series[QOI_NAME]
    ess = ess_summary(series)
    nan = float("nan")
    ess_ims_value, iact_ims = ess["ims"].get("ess", nan), ess["ims"].get("iact", nan)
    ess_bm = ess["batch_means"].get("ess", nan)

    stem = f"{variant}_N{n_modes}_sig{sigma:g}_r{rep}"
    cell_seeds = {"data_seed": data_seed, "chain_seed": chain_seed}
    header = dict(cfg.items())
    header.update({"cell": stem, "cell.s": format(s, ".17g"), **cell_seeds})
    os.makedirs(cfg.out_dir, exist_ok=True)
    if "csv" in cfg.formats:
        write_trace_csv(trace, os.path.join(cfg.out_dir, f"trace_{stem}.csv"), header=header)
    if "npy" in cfg.formats:
        write_state_dump(trace, os.path.join(cfg.out_dir, f"states_{stem}.npy"))
    if "json" in cfg.formats:
        report = {
            "config": dict((k, v) for k, v in cfg.items()), "cell": stem,
            "variant": variant, "N": n_modes, "sigma_eps": sigma, "replicate": rep,
            **cell_seeds, "s": s, "tuned": tuned,
            "acceptance_rate": trace.acceptance_rate,
            "phi_at_map": phi(xi_map),
            "map": {"iterations": map_result.iterations,
                    "gradient_norm": map_result.gradient_norm,
                    "converged": map_result.converged,
                    "stop": map_result.stop},
            "observation": json.loads(obs.to_json()),
            "ess": {"ims": ess["ims"], "batch_means": ess_bm},
        }
        if tuned:
            report["tune"] = {"converged": result.converged,
                              "acceptance_rate": result.acceptance_rate,
                              "pilots": [list(p) for p in result.pilots]}
        with open(os.path.join(cfg.out_dir, f"diagnostics_{stem}.json"), "w") as fh:
            json.dump(report, fh, indent=2)

    return {
        "variant": variant, "N": n_modes, "sigma_eps": sigma, "replicate": rep,
        "chain_seed": chain_seed, "s": s, "tuned": int(tuned),
        "acceptance_rate": trace.acceptance_rate,
        "ess_ims": ess_ims_value, "iact_ims": iact_ims, "ess_batch_means": ess_bm,
        "qoi_mean": float(series.mean()) if series.size else float("nan"),
        "wall_time_s": trace.wall_time,
    }


_SUMMARY_COLUMNS = ("variant", "N", "sigma_eps", "replicate", "chain_seed", "s", "tuned",
                    "acceptance_rate", "ess_ims", "iact_ims", "ess_batch_means",
                    "qoi_mean", "wall_time_s")


def write_summary_csv(rows, path, header_items) -> None:
    with open(path, "w") as fh:
        for key, value in header_items:
            fh.write(f"# {key} = {value}\n")
        fh.write(",".join(_SUMMARY_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in _SUMMARY_COLUMNS:
                value = row[col]
                cells.append(format(value, ".17g") if isinstance(value, float) else str(value))
            fh.write(",".join(cells) + "\n")


def _cell_args(cfg):
    for iv in range(len(cfg.variants)):
        for i_n in range(len(cfg.n_modes)):
            for i_sig in range(len(cfg.sigma_eps)):
                for rep in range(cfg.replicates):
                    yield (cfg, iv, i_n, i_sig, rep)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def worker_pool(workers: int):
    """A process pool whose workers each run BLAS on one thread.

    Forked workers would share the parent's loaded BLAS and its thread
    pool, so the workers are spawned: each imports numpy afresh and reads
    ``BLAS_THREAD_VARS``, which are set to 1 in the environment for as long
    as the pool lives (the pool starts its workers on demand) and restored
    afterwards.
    """
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list:
    """Run every sweep cell, write per-cell artifacts and the summary table;
    ``threads > 1`` runs cells in that many worker processes."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    args = list(_cell_args(cfg))
    if threads > 1:
        with worker_pool(threads) as pool:
            rows = list(pool.map(run_cell, *zip(*args)))
    else:
        rows = [run_cell(*a) for a in args]
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_summary_csv(rows, os.path.join(cfg.out_dir, "summary.csv"), cfg.items())
    return rows


def run_map_command(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> dict:
    """Compute and persist the MAP point and the curvature ``sampler.gamma``
    selects for the first sweep cell, the latter as its r x N factor F
    (Gamma = F^T F) in ``gamma_factor.npy``."""
    out = out_dir or cfg.out_dir
    model, prior, data_seed, obs, phi, result = build_problem(cfg, 0, 0)
    os.makedirs(out, exist_ok=True)
    np.save(os.path.join(out, "xi_map.npy"), result.xi)
    gamma = build_curvature(cfg, prior, model, obs, result.xi)
    np.save(os.path.join(out, "gamma_factor.npy"), gamma.factor)
    summary = {
        "config": dict((k, v) for k, v in cfg.items()),
        "N": cfg.n_modes[0], "sigma_eps": cfg.sigma_eps[0], "data_seed": data_seed,
        "phi_at_map": phi(result.xi),
        "converged": result.converged, "iterations": result.iterations,
        "gradient_norm": result.gradient_norm, "stop": result.stop,
        "observation": json.loads(obs.to_json()),
    }
    with open(os.path.join(out, "map.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def diagnose_trace(path) -> dict:
    """Recompute both ESS estimators from a trace CSV's QoI columns, as
    ``ess_summary`` reports them for ``run_cell``."""
    from .metropolis import read_trace_csv

    header, _, accepts, qoi = read_trace_csv(path)
    report = {"trace": str(path), "n": int(len(accepts)),
              "acceptance_rate_post_burnin": float(np.mean(accepts)), "qoi": {}}
    for name, series in qoi.items():
        report["qoi"][name] = ess_summary(series)
    if header:
        report["trace_header"] = header
    return report
