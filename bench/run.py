"""gpcn benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures set-up with separate probe processes, then repeats
the seed's round of the workload untraced for about S seconds and reports
the end-to-end metrics from each op's fastest repetition.  ``--trace 1``
runs the round untraced and then traced, with every layer wrapped by the
tracer, checks that both wrote identical artifacts, and reports the
per-layer metrics.  Every op's output is checked in both modes.
Human-readable lines come first; the last stdout line is the JSON result.
Spans, per-repetition figures and provenance go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import env

env.pin_and_locate()      # before anything imports numpy

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 9
ROUND_SLACK = 1.2
# The calibration loop's iterations, and its median time on the reference
# machine (2-core Intel Xeon VM, Python 3.11): calibrated seconds are seconds
# at the speed where one sample takes CALIBRATION_NOMINAL_S.
CALIBRATION_LOOP = 40_000
CALIBRATION_NOMINAL_S = 0.006
CALIBRATION_SHARE = 0.03
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.join(env.BENCH_DIR, "probe.py"), workload, str(seed)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - t0


def _files(root: str) -> list:
    """Paths of every file under ``root``, relative to it, sorted."""
    return sorted(os.path.relpath(os.path.join(d, name), root)
                  for d, _, names in os.walk(root) for name in names)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in _files(path))


def _strip_last_column(text: str) -> str:
    return "\n".join(line if line.startswith("#") else line.rsplit(",", 1)[0]
                     for line in text.splitlines())


def differing_artifacts(dir_a: str, dir_b: str) -> list:
    """Files whose bytes differ between two rounds; summary.csv without its wall-time column."""
    names_a, names_b = _files(dir_a), _files(dir_b)
    if names_a != names_b:
        return sorted(set(names_a) ^ set(names_b))
    differ = []
    for name in names_a:
        with open(os.path.join(dir_a, name)) as fa, open(os.path.join(dir_b, name)) as fb:
            a, b = fa.read(), fb.read()
        if os.path.basename(name) == "summary.csv":
            a, b = _strip_last_column(a), _strip_last_column(b)
        if a != b:
            differ.append(name)
    return differ


def check_round(workload, plan, ops, out_dir: str) -> dict:
    """op label -> problems, for every op that raised or failed its output check."""
    failures = {}
    for op in ops:
        if op.error is not None:
            failures[op.label] = [op.error]
            continue
        try:
            problems = workload.check(plan, op, out_dir)
        except Exception as exc:      # a check that cannot read the artifacts is a failure
            problems = [f"output check raised {exc!r}"]
        if problems:
            failures[op.label] = problems
    return failures


def chain_rows(ops, seconds=None) -> list:
    """(summary row, seconds) of every chain cell; ``seconds`` defaults to the ops' own times."""
    seconds = [op.seconds for op in ops] if seconds is None else seconds
    return [(op.result, s) for op, s in zip(ops, seconds)
            if isinstance(op.result, dict) and "ess_ims" in op.result]


def ess_rates(ops, seconds=None) -> dict:
    """IMS ESS of the QoI summed over cells per summed run_cell second, pooled and
    per variant; variants the ops did not run are left out."""
    rows = chain_rows(ops, seconds)
    rates = {}
    for name, variant in [("ess_per_s", None)] + [(f"ess_per_s.{v}", v) for v in layers.ESS_VARIANTS]:
        picked = [(row["ess_ims"], s) for row, s in rows if variant in (None, row["variant"])]
        if picked:
            rates[name] = sum(e for e, _ in picked) / sum(s for _, s in picked)
    return rates


def calibration_sample() -> float:
    """Seconds for a fixed gpcn-free interpreter loop; its median tracks the machine's speed."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
        seen[i & 1023] = acc
    return time.perf_counter() - t0


def timed_run(workload, seed: int, seconds: float) -> dict:
    """The seed's round, untraced, repeated in the current directory for about ``seconds``.

    Every repetition runs the same inputs and must write the same artifacts.
    The reported times are the per-op medians over the repetitions.  If the
    workload's ``elasticity`` is not 0, calibration samples take about
    CALIBRATION_SHARE of each op's time, untimed, after it, and each op's
    time is first divided by ``slowdown ** elasticity``, where the slowdown
    is the repetition's median calibration sample over CALIBRATION_NOMINAL_S.
    """
    setup = [_probe_setup(workload.name, seed) for _ in range(SETUP_PROBES)]
    plan = workload.plan(seed)
    first_dir, round_dir = "first", "round"
    op_seconds, tail_seconds, slowdowns, round_s, failures = [], [], [], [], {}

    def calibrate(op_s: float) -> None:
        if workload.elasticity:
            for _ in range(max(2, round(CALIBRATION_SHARE * op_s / CALIBRATION_NOMINAL_S))):
                samples.append(calibration_sample())

    t_start = time.perf_counter()
    while True:
        rep, samples = len(round_s), []
        ops, tail_s = workload.run_round(plan, round_dir, calibrate)
        for label, problems in check_round(workload, plan, ops, round_dir).items():
            failures[f"rep{rep}/{label}"] = problems
        if rep:
            for name in differing_artifacts(first_dir, round_dir):
                failures[f"rep{rep}/{name}"] = ["artifact differs from the first repetition"]
            shutil.rmtree(round_dir)
        else:
            first_ops = ops
            os.rename(round_dir, first_dir)
        slowdown = statistics.median(samples) / CALIBRATION_NOMINAL_S if samples else 1.0
        slowdowns.append(slowdown)
        factor = slowdown ** workload.elasticity
        op_seconds.append([op.seconds / factor for op in ops])
        tail_seconds.append(tail_s / factor)
        round_s.append(sum(op.seconds for op in ops) + tail_s)
        # Another repetition starts only if it should end within ROUND_SLACK * seconds.
        if time.perf_counter() - t_start + statistics.fmean(round_s) > ROUND_SLACK * seconds:
            break
    per_op = [statistics.median(times) for times in zip(*op_seconds)]
    wall = sum(per_op) + statistics.median(tail_seconds)
    completed = sum(op.result is not None for op in first_ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": completed / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"ops_failed": len(failures), "ops_attempted": len(first_ops) * len(round_s),
             "repetitions": len(round_s), "raw_wall_s": statistics.median(round_s),
             "machine_slowdown": statistics.median(slowdowns), "round_s": round_s,
             "slowdowns": slowdowns, "op_s": per_op, "setup_probes_s": setup}
    extra.update(ess_rates(first_ops, per_op))
    return {"metrics": metrics, "units": dict(END_TO_END_UNITS), "extra": extra,
            "attempted": len(first_ops) * len(round_s), "failures": failures}


def traced_run(workload, seed: int, spans_path: str) -> dict:
    """The seed's round untraced, then traced, in the current directory; per-layer metrics of the traced one."""
    plan = workload.plan(seed)
    round_dir, untraced_dir, traced_dir = "round", "untraced", "traced"
    ops_u, tail_u = workload.run_round(plan, round_dir)
    secs_u = sum(op.seconds for op in ops_u) + tail_u
    failures = {f"untraced/{k}": v for k, v in check_round(workload, plan, ops_u, round_dir).items()}
    os.rename(round_dir, untraced_dir)

    tracer = Tracer(layers.TARGETS)
    with tracer:
        ops_t, tail_t = workload.run_round(plan, round_dir)
    secs_t = sum(op.seconds for op in ops_t) + tail_t
    failures.update({f"traced/{k}": v for k, v in check_round(workload, plan, ops_t, round_dir).items()})
    os.rename(round_dir, traced_dir)
    for name in differing_artifacts(untraced_dir, traced_dir):
        failures[f"traced/{name}"] = ["artifact differs from the untraced round"]

    metrics = layers.layer_metrics(tracer.spans(), tracer.names)
    rows = chain_rows(ops_t)
    total_ess = sum(row["ess_ims"] for row, _ in rows)
    metrics["diagnostics.ess"] = total_ess
    metrics["diagnostics.iact"] = len(rows) * plan[0].n / total_ess if rows else 0.0
    metrics["experiment.artifact_bytes"] = _dir_bytes(traced_dir)
    metrics["trace.overhead_frac"] = secs_t / secs_u - 1.0
    metrics["trace.absent"] = len(tracer.absent)
    metrics.update(dict.fromkeys(layers.ESS_METRICS, 0.0))
    metrics.update(ess_rates(ops_u))
    units = layers.metric_units()
    tracer.save(spans_path)
    extra = {"absent": tracer.absent, "untraced_s": secs_u, "traced_s": secs_t,
             "binding_sites": tracer.sites}
    return {"metrics": {name: metrics[name] for name in units}, "units": units, "extra": extra,
            "attempted": len(ops_u) + len(ops_t), "failures": failures}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = os.path.join(env.OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)        # relative artifact paths keep artifact bytes independent of the checkout path
    try:
        if args.trace:
            result = traced_run(workload, args.seed, os.path.join(env.OUT_DIR, f"spans-{workload.name}.npz"))
        else:
            result = timed_run(workload, args.seed, args.seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    failures = result["failures"]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": env.provenance(), **result}
    results_dir = os.path.join(env.OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    for label, problems in failures.items():
        print(f"FAILED {label}: {problems[0].strip().splitlines()[-1]}", file=sys.stderr)
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {result['units'][name]}")
    for name, value in result["extra"].items():
        if isinstance(value, (int, float)):
            unit = ("1/s" if "per_s" in name else "s" if name.endswith("_s")
                    else "ratio" if name == "machine_slowdown" else "count")
            print(f"{name} = {value:.6g} {unit}")
    if result["extra"].get("absent"):
        print("absent: " + ", ".join(result["extra"]["absent"]))
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
