"""The four benchmark workloads and the output check for every op.

An op is one ``run_cell`` call (one sweep cell) or one ``run_lab`` call
(one lab instance), with the artifacts it writes.  A round is the
workload's whole op set for workload seed ``s``; its inputs come from
master seeds derived from ``s`` alone, so the same seed always gives the
same inputs.  Why each workload exists is written in NOTES.md.
"""

from __future__ import annotations

import json
import math
import os
import time
import traceback
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Calls go through the module attributes, which the tracer patches.
from gpcn import experiment, spectral


@dataclass
class Op:
    label: str
    seconds: float
    result: Optional[object]          # run_cell row or run_lab report; None if it raised
    error: Optional[str] = None


def master_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence([int(e) for e in entropy]).generate_state(1)[0])


def _no_op(seconds: float) -> None:
    pass


def _timed(label, fn, *args):
    t0 = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception:               # an op that raises is counted as failed, not fatal
        result, error = None, traceback.format_exc()
    return Op(label, time.perf_counter() - t0, result, error)


@dataclass(frozen=True)
class ChainWorkload:
    """A ``gpcn run`` sweep driven cell by cell, as ``run_experiment(threads=1)`` does.

    The sweep runs once per data set; data set ``k`` of workload seed ``s``
    uses master seed ``SeedSequence([s, k])`` and writes to ``data<k>/``.
    """

    name: str
    config: str
    elasticity: float           # of op time in the calibration loop's time; see run.timed_run
    datasets: int = 1

    def plan(self, seed: int):
        return [experiment.resolve_config(f"seed = {master_seed(seed, k)}\n{self.config}")
                for k in range(self.datasets)]

    def run_round(self, cfgs, out_dir: str, after_op=_no_op):
        """Run every cell into ``out_dir``, calling ``after_op(seconds)`` untimed after each;
        returns the ops and the seconds spent outside them (the summary writes)."""
        ops, tail_s = [], 0.0
        for k, cfg in enumerate(cfgs):
            cfg.out_dir = os.path.join(out_dir, f"data{k}")
            os.makedirs(cfg.out_dir, exist_ok=True)
            cells = []
            for iv in range(len(cfg.variants)):
                for i_n in range(len(cfg.n_modes)):
                    for i_sig in range(len(cfg.sigma_eps)):
                        for rep in range(cfg.replicates):
                            stem = f"{cfg.variants[iv]}_N{cfg.n_modes[i_n]}_sig{cfg.sigma_eps[i_sig]:g}_r{rep}"
                            cells.append(_timed(f"data{k}/{stem}", experiment.run_cell,
                                                cfg, iv, i_n, i_sig, rep))
                            after_op(cells[-1].seconds)
            t0 = time.perf_counter()
            experiment.write_summary_csv([op.result for op in cells if op.result is not None],
                                         os.path.join(cfg.out_dir, "summary.csv"), cfg.items())
            tail_s += time.perf_counter() - t0
            ops.extend(cells)
        return ops, tail_s

    def check(self, cfgs, op: Op, out_dir: str) -> list:
        """Problems with one cell's row and artifacts; empty when the cell is correct."""
        subdir, stem = op.label.split("/")
        cfg = cfgs[int(subdir[len("data"):])]
        row = op.result
        problems = []
        if not 0.0 < row["acceptance_rate"] <= 1.0:
            problems.append(f"acceptance rate {row['acceptance_rate']} outside (0, 1]")
        for key in ("ess_ims", "qoi_mean"):
            if not math.isfinite(row[key]):
                problems.append(f"{key} = {row[key]} is not finite")
        trace_path = os.path.join(out_dir, subdir, f"trace_{stem}.csv")
        diag_path = os.path.join(out_dir, subdir, f"diagnostics_{stem}.json")
        if not (os.path.isfile(trace_path) and os.path.isfile(diag_path)):
            return problems + ["trace CSV or diagnostics JSON missing"]
        with open(trace_path) as fh:
            rows = sum(1 for line in fh if not line.startswith("#")) - 1
        if rows != cfg.n:
            problems.append(f"trace CSV has {rows} rows, expected {cfg.n}")
        with open(diag_path) as fh:
            diag = json.load(fh)
        if diag["ess"]["ims"].get("n") != cfg.n:
            problems.append(f"diagnostics JSON covers {diag['ess']['ims'].get('n')} samples, expected {cfg.n}")
        replayed = experiment.diagnose_trace(trace_path)["qoi"][experiment.QOI_NAME]["ims"]["ess"]
        if replayed != row["ess_ims"]:
            problems.append(f"diagnose_trace gives ess {replayed!r}, summary has {row['ess_ims']!r}")
        return problems


@dataclass(frozen=True)
class LabWorkload:
    """``run_lab`` one instance per op, each report written as the ``gpcn lab`` JSON."""

    name: str
    instances: int
    n_states: int
    elasticity: float

    def plan(self, seed: int):
        master = master_seed(seed)
        return [master_seed(master, k) for k in range(self.instances)]

    def _lab(self, lab_seed: int, path: str) -> dict:
        report = spectral.run_lab(lab_seed, 1, self.n_states)
        with open(path, "w") as fh:
            fh.write(json.dumps(report, indent=2) + "\n")
        return report

    def run_round(self, seeds, out_dir: str, after_op=_no_op):
        """Run every instance into ``out_dir``, calling ``after_op(seconds)`` untimed after each;
        returns the ops and 0.0 (nothing runs after them)."""
        os.makedirs(out_dir, exist_ok=True)
        ops = []
        for k, lab_seed in enumerate(seeds):
            ops.append(_timed(f"lab_{k}", self._lab, lab_seed, os.path.join(out_dir, f"lab_{k}.json")))
            after_op(ops[-1].seconds)
        return ops, 0.0

    def check(self, seeds, op: Op, out_dir: str) -> list:
        report = op.result
        problems = []
        if not report["instances"][0]["ok"]:
            problems.append("lab instance failed its checks")
        if not report["all_pass"]:
            problems.append("lab report all_pass is false")
        if not os.path.isfile(os.path.join(out_dir, f"{op.label}.json")):
            problems.append("lab report JSON missing")
        return problems


_SWEEP_SMALL = """
problem.N = 50, 100
problem.sigma_eps = 0.1, 0.01
sampler.variant = rw, pcn, gn-rw, gpcn
sampler.target_acceptance = 0.25
sampler.gamma = map
run.n = 2000
run.n0 = 200
run.pilot_n = 1000
run.replicates = 1
"""

# dx = 2^-10: at the default 2^-9 the grid has 512 intervals, so mode 512 + m
# aliases to -(mode 512 - m) and N = 800 would sample 288 modes the data
# cannot tell apart.  Setting dx explicitly also keeps the input byte-for-byte
# the same once the package derives its default dx from N.
# Target 0.15, not 0.25: gpcn's pilot acceptance at the s = 0.999 boundary
# is 0.18-0.33 here, so at 0.25 (or 0.2) the tuner flips by seed between one
# pilot and eight to ten, and the round time between about 13 s and 27 s.
# At 0.15 gpcn stops after its boundary pilot.
_CELL_HIGHDIM = """
problem.N = 800
problem.dx = 0.0009765625
problem.sigma_eps = 0.01
sampler.variant = pcn, gpcn
sampler.target_acceptance = 0.15
sampler.gamma = map
run.n = 2000
run.n0 = 200
run.pilot_n = 1000
"""

# Fixed s: tuning the local variants would cost minutes per cell.
_LOCAL_CURVATURE = """
problem.N = 100
problem.sigma_eps = 0.1
sampler.variant = local-gpcn, local-gpcn2
sampler.s = 0.2
run.n = 200
run.n0 = 20
"""

# Elasticity 0.7: the three interpreter-bound workloads follow the calibration
# loop with slopes of 0.6-0.9; cell-highdim, dense BLAS, does not follow it
# (NOTES.md, "Timing on a shared machine").
WORKLOADS = {
    "sweep-small": ChainWorkload("sweep-small", _SWEEP_SMALL, elasticity=0.7),
    "cell-highdim": ChainWorkload("cell-highdim", _CELL_HIGHDIM, elasticity=0.0, datasets=2),
    "local-curvature": ChainWorkload("local-curvature", _LOCAL_CURVATURE, elasticity=0.7),
    "spectral-lab": LabWorkload("spectral-lab", instances=16, n_states=18, elasticity=0.7),
}
