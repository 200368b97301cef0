"""Configuration-driven experiment harness.

Configs are flat ``key = value`` text with dotted section prefixes; lists are
comma separated.  A single master seed is split into data / tuning / chain /
linearization-point streams via ``numpy.random.SeedSequence([master, tag,
*cell indices])`` (tags 0..3), so every artifact records explicit derived
seeds and reruns are bit-reproducible.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import NamedTuple, Optional

import numpy as np

from . import elliptic
from .diagnostics import ess_batch_means, ess_ims, qoi_exp_integral
from .gaussian_ops import FactoredGamma, PriorSpec
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


def _key(key, parse, show=_as_is, at_least=None, **default):
    """A field read from config ``key`` by ``parse`` and printed by ``show`` in
    ``items()``; a field without a default is a required key, and a key that is
    absent leaves the field at its default."""
    return field(**default, metadata={"key": key, "parse": parse, "show": show,
                                      "at_least": at_least})


@dataclass(kw_only=True)
class ExperimentConfig:
    seed: int = _key("seed", int, at_least=0)
    n_modes: list = _key("problem.N", _int_list, _joined(str))
    sigma_eps: list = _key("problem.sigma_eps", _float_list, _joined("{:g}".format))
    dx: Optional[float] = _key("problem.dx", float,
                               lambda dx: "auto" if dx is None else f"{dx:.17g}", default=None)
    truth: str = _key("problem.truth", str, default="default")
    variants: list = _key("sampler.variant", _str_list, _joined(str))
    s: Optional[float] = _key("sampler.s", float,
                              lambda s: "tuned" if s is None else f"{s:.17g}", default=None)
    target_acceptance: float = _key("sampler.target_acceptance", float, "{:g}".format,
                                    default=0.25)
    gamma_source: str = _key("sampler.gamma", str, default="map")
    gamma_points: int = _key("sampler.gamma_points", int, default=5)
    n: int = _key("run.n", int, at_least=0)
    n0: int = _key("run.n0", int, at_least=0)
    thin: int = _key("run.thin", int, at_least=1, default=1)
    replicates: int = _key("run.replicates", int, at_least=1, default=1)
    pilot_n: int = _key("run.pilot_n", int, default=2000)
    out_dir: str = _key("output.dir", str, default="out")
    formats: list = _key("output.formats", _str_list, _joined(str),
                         default_factory=lambda: ["csv", "json"])

    def items(self):
        """Fully resolved flat view, defaults included."""
        return [(f.metadata["key"], f.metadata["show"](getattr(self, f.name)))
                for f in fields(self)]


def resolve_config(text: str) -> ExperimentConfig:
    values, lines = parse_kv(text)
    parsed = {}
    for f in fields(ExperimentConfig):
        key = f.metadata["key"]
        if key in values:
            try:
                parsed[f.name] = f.metadata["parse"](values[key])
            except ValueError as exc:
                raise ConfigError(f"line {lines[key]}: bad value for {key!r}: {exc}") from exc
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required key {key!r}")
    # A cell's artifacts are named by its variant, N and sigma_eps as printed
    # (``run_group``'s stem), so entries that print alike would overwrite
    # each other's files.
    for key, name, show in (("problem.N", "n_modes", str),
                            ("problem.sigma_eps", "sigma_eps", "{:g}".format),
                            ("sampler.variant", "variants", str)):
        shown = [show(v) for v in parsed[name]]
        if not shown:
            raise ConfigError(f"line {lines[key]}: {key} lists no values")
        repeated = [v for i, v in enumerate(shown) if v in shown[:i]]
        if repeated:
            raise ConfigError(f"line {lines[key]}: {key} lists {repeated[0]} more than once; "
                              f"its cells would share artifact names")
    # without problem.dx each ForwardModel picks the grid of its own N
    dx = parsed.get("dx")
    if dx is not None:
        try:
            steps = elliptic.grid_steps(dx)
        except ValueError as exc:
            raise ConfigError(f"line {lines['problem.dx']}: {exc}") from None
        n_max = max(parsed["n_modes"])
        if n_max >= steps:
            raise ConfigError(f"line {lines['problem.dx']}: dx = {dx:g} does not resolve "
                              f"problem.N = {n_max} modes (need N < 1/dx)")
    cfg = ExperimentConfig(**parsed)
    known = {f.metadata["key"] for f in fields(cfg)}
    for key in values:
        if key not in known:
            raise ConfigError(f"line {lines[key]}: unknown key {key!r}")
    for v in cfg.variants:
        if v not in VARIANTS:
            raise ConfigError(f"line {lines['sampler.variant']}: unknown variant {v!r}")
    if cfg.gamma_source not in ("map", "averaged"):
        raise ConfigError(f"line {lines['sampler.gamma']}: gamma source must be map or averaged")
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
    for f in fields(cfg):
        key, low, value = f.metadata["key"], f.metadata["at_least"], getattr(cfg, f.name)
        if low is not None and value < low:
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


class Problem(NamedTuple):
    """Problem (i_n, i_sig) of the sweep: grid, prior, data (``obs.seed`` is its
    data seed), MAP solve and the curvature that ``sampler.gamma`` selects.  It
    holds no closure, so it pickles to a worker, which makes its own potential."""

    i_n: int
    i_sig: int
    model: elliptic.ForwardModel
    prior: PriorSpec
    obs: elliptic.Observation
    map_result: elliptic.MapResult
    gamma: FactoredGamma


def build_problem(cfg: ExperimentConfig, i_n: int, i_sig: int) -> Problem:
    """Data, MAP point and curvature of problem (i_n, i_sig); Gamma is taken at
    the MAP point, or averaged over prior draws from the points stream."""
    n_modes = cfg.n_modes[i_n]
    model = elliptic.ForwardModel(n_modes, dx=cfg.dx)
    prior = PriorSpec(n_modes)
    data_seed = derive_seed(cfg.seed, _SEED_DATA, i_n, i_sig)
    obs = elliptic.generate_data(truth_object(cfg), cfg.sigma_eps[i_sig], model,
                                 np.random.default_rng(data_seed), seed=data_seed)
    map_result = elliptic.map_estimate(obs, model, prior)
    if cfg.gamma_source == "averaged":
        rng = np.random.default_rng(derive_seed(cfg.seed, _SEED_POINTS, prior.dim))
        points = [prior.sample(rng) for _ in range(cfg.gamma_points)]
        gamma = elliptic.build_gamma_averaged(points, obs.sigma_eps, model)
    else:
        gamma = elliptic.build_gamma_from_map(map_result.xi, obs, model)
    return Problem(i_n, i_sig, model, prior, obs, map_result, gamma)


def write_problem(cfg: ExperimentConfig, problem: Problem) -> None:
    """Write the problem's MAP point, its curvature as the r x N factor F
    (Gamma = F^T F) and the MAP report: ``xi_map_<stem>.npy``,
    ``gamma_factor_<stem>.npy`` and ``map_<stem>.json``, stem N{N}_sig{sigma:g}."""
    model, obs, result = problem.model, problem.obs, problem.map_result
    stem = f"N{model.n_modes}_sig{obs.sigma_eps:g}"
    np.save(os.path.join(cfg.out_dir, f"xi_map_{stem}.npy"), result.xi)
    np.save(os.path.join(cfg.out_dir, f"gamma_factor_{stem}.npy"), problem.gamma.factor)
    summary = {
        "config": dict(cfg.items()), "N": model.n_modes, "dx": model.dx, "sigma_eps": obs.sigma_eps,
        "data_seed": obs.seed, "phi_at_map": elliptic.phi(result.xi, obs, model)[0],
        "converged": result.converged, "iterations": result.iterations,
        "gradient_norm": result.gradient_norm, "stop": result.stop,
        "observation": json.loads(obs.to_json()),
    }
    with open(os.path.join(cfg.out_dir, f"map_{stem}.json"), "w") as fh:
        json.dump(summary, fh, indent=2)


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


def run_group(cfg: ExperimentConfig, problem: Problem, iv: int, reps) -> list:
    """Run variant ``iv`` on ``problem``: build its kernel and tune s once (the
    tune seed has no replicate index), then run each replicate in ``reps`` and
    write its artifacts; returns the replicates' summary rows."""
    variant, model, obs = cfg.variants[iv], problem.model, problem.obs
    map_result, xi_map = problem.map_result, problem.map_result.xi
    n_modes, sigma = model.n_modes, obs.sigma_eps
    phi = elliptic.make_posterior(obs, model)
    qoi = {QOI_NAME: lambda xi, solve: qoi_exp_integral(xi, model, solve)}

    tuned = cfg.s is None
    gamma_map = lambda u, solve: elliptic.build_gamma_from_map(u, obs, model, solve)
    kernel = ProposalKernel(variant, problem.prior, 0.5 if tuned else cfg.s,
                            gamma=problem.gamma if variant in PACK_VARIANTS else None,
                            gamma_map=gamma_map if variant in LOCAL_VARIANTS else None)
    if tuned:
        tune_seed = derive_seed(cfg.seed, _SEED_TUNE, iv, problem.i_n, problem.i_sig)
        result = tune_step_size(kernel, phi, cfg.target_acceptance, cfg.pilot_n,
                                np.random.default_rng(tune_seed), initial_state=xi_map)
        kernel = replace(kernel, s=result.s)
    s = kernel.s

    rows = []
    for rep in reps:
        chain_seed = derive_seed(cfg.seed, _SEED_CHAIN, iv, problem.i_n, problem.i_sig, rep)
        # Only the npy dump reads the states, so without it the chain keeps none.
        chain_cfg = ChainConfig(kernel, phi, n=cfg.n, n0=cfg.n0, seed=chain_seed,
                                initial_state=xi_map,
                                thin=cfg.thin if "npy" in cfg.formats else None, qoi=qoi)
        trace = run_chain(chain_cfg)

        series = trace.qoi_series[QOI_NAME]
        ess = ess_summary(series)
        nan = float("nan")
        ess_ims_value, iact_ims = ess["ims"].get("ess", nan), ess["ims"].get("iact", nan)
        ess_bm = ess["batch_means"].get("ess", nan)

        stem = f"{variant}_N{n_modes}_sig{sigma:g}_r{rep}"
        cell_seeds = {"data_seed": obs.seed, "chain_seed": chain_seed}
        header = dict(cfg.items())
        header.update({"cell": stem, "cell.s": format(s, ".17g"),
                       "cell.dx": format(model.dx, ".17g"), **cell_seeds})
        os.makedirs(cfg.out_dir, exist_ok=True)
        if "csv" in cfg.formats:
            write_trace_csv(trace, os.path.join(cfg.out_dir, f"trace_{stem}.csv"), header=header)
        if "npy" in cfg.formats:
            write_state_dump(trace, os.path.join(cfg.out_dir, f"states_{stem}.npy"))
        if "json" in cfg.formats:
            report = {
                "config": dict(cfg.items()), "cell": stem,
                "variant": variant, "N": n_modes, "dx": model.dx, "sigma_eps": sigma,
                "replicate": rep, **cell_seeds, "s": s, "tuned": tuned,
                "acceptance_rate": trace.acceptance_rate,
                "phi_at_map": phi(xi_map)[0],
                "map": {"iterations": map_result.iterations,
                        "gradient_norm": map_result.gradient_norm,
                        "converged": map_result.converged,
                        "stop": map_result.stop},
                "observation": json.loads(obs.to_json()),
                "ess": ess,
            }
            if tuned:
                report["tune"] = {"converged": result.converged,
                                  "acceptance_rate": result.acceptance_rate,
                                  "pilots": [list(p) for p in result.pilots]}
            with open(os.path.join(cfg.out_dir, f"diagnostics_{stem}.json"), "w") as fh:
                json.dump(report, fh, indent=2)

        rows.append({
            "variant": variant, "N": n_modes, "sigma_eps": sigma, "replicate": rep,
            "chain_seed": chain_seed, "s": s, "tuned": int(tuned),
            "acceptance_rate": trace.acceptance_rate,
            "ess_ims": ess_ims_value, "iact_ims": iact_ims, "ess_batch_means": ess_bm,
            "qoi_mean": float(series.mean()) if series.size else float("nan"),
            "wall_time_s": trace.wall_time,
        })
    return rows


def run_cell(cfg: ExperimentConfig, iv: int, i_n: int, i_sig: int, rep: int) -> dict:
    """Run one (variant, N, sigma_eps, replicate) cell and write its artifacts."""
    return run_group(cfg, build_problem(cfg, i_n, i_sig), iv, (rep,))[0]


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
    # Imported on first use, not with the module: they take about 15 ms to
    # import (2-core VM), and only a pool needs them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

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
    """Run the sweep: build and write each (N, sigma_eps) problem once, run each
    (variant, N, sigma_eps) group on it, then write the summary table;
    ``threads > 1`` runs the groups in that many worker processes."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    problems = [build_problem(cfg, i_n, i_sig)
                for i_n in range(len(cfg.n_modes)) for i_sig in range(len(cfg.sigma_eps))]
    for problem in problems:
        write_problem(cfg, problem)
    groups = [(cfg, problem, iv, range(cfg.replicates))
              for iv in range(len(cfg.variants)) for problem in problems]
    if threads > 1:
        with worker_pool(threads) as pool:
            groups = list(pool.map(run_group, *zip(*groups)))
    else:
        groups = [run_group(*group) for group in groups]
    rows = [row for group in groups for row in group]
    write_summary_csv(rows, os.path.join(cfg.out_dir, "summary.csv"), cfg.items())
    return rows


def diagnose_trace(path) -> dict:
    """Recompute both ESS estimators from a trace CSV's QoI columns, as
    ``ess_summary`` reports them for ``run_group``."""
    from .metropolis import read_trace_csv

    header, _, accepts, qoi = read_trace_csv(path)
    report = {"trace": str(path), "n": int(len(accepts)),
              "acceptance_rate_post_burnin": float(np.mean(accepts)), "qoi": {}}
    for name, series in qoi.items():
        report["qoi"][name] = ess_summary(series)
    if header:
        report["trace_header"] = header
    return report
