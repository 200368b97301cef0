"""Checks of the benchmark itself: tracing hygiene, span accounting and output checks.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import itertools
import os
import sys
import types

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import env  # noqa: E402

env.pin_and_locate()

import gpcn  # noqa: E402
import layers  # noqa: E402
import pytest  # noqa: E402
import run  # noqa: E402
from gpcn import diagnostics, elliptic, experiment, metropolis, proposals  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ChainWorkload, LabWorkload  # noqa: E402

TINY_SWEEP = ChainWorkload("tiny", """
problem.N = 10
problem.sigma_eps = 0.1
sampler.variant = pcn, gpcn, local-gpcn
sampler.target_acceptance = 0.25
run.n = 150
run.n0 = 10
run.pilot_n = 1000
""", elasticity=0.5)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_traced_round_writes_the_same_artifacts_as_untraced(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run.traced_run(TINY_SWEEP, seed=3, spans_path=str(tmp_path / "spans.npz"))
    assert result["failures"] == {}
    names = sorted(os.listdir(os.path.join("untraced", "data0")))
    compared = [n for n in names if n.startswith(("trace_", "diagnostics_"))]
    assert len(compared) == 6
    for name in compared:
        traced, untraced = (os.path.join(side, "data0", name) for side in ("traced", "untraced"))
        assert _read(traced) == _read(untraced), name
    metrics = result["metrics"]
    assert metrics["experiment.run_cell.calls"] == 3
    assert metrics["metropolis.mh_step.calls"] == metrics["metropolis.attempted"] > 3 * 160
    assert metrics["proposals.gamma_map.calls"] > 0
    assert metrics["trace.absent"] == 0
    assert set(metrics) == set(layers.metric_units())


def test_artifact_comparison_sees_a_changed_byte(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side / "data0").mkdir(parents=True)
        (tmp_path / side / "data0" / "summary.csv").write_text("# k = v\nx,wall_time_s\n1,0.5\n")
        (tmp_path / side / "data0" / "trace_x.csv").write_text("step,accept\n0,1\n")
    (tmp_path / "b" / "data0" / "summary.csv").write_text("# k = v\nx,wall_time_s\n1,0.7\n")
    assert run.differing_artifacts(str(tmp_path / "a"), str(tmp_path / "b")) == []
    (tmp_path / "b" / "data0" / "trace_x.csv").write_text("step,accept\n0,0\n")
    assert run.differing_artifacts(str(tmp_path / "a"), str(tmp_path / "b")) == ["data0/trace_x.csv"]
    (tmp_path / "b" / "data1").mkdir()
    (tmp_path / "b" / "data1" / "trace_x.csv").write_text("step,accept\n0,1\n")
    assert run.differing_artifacts(str(tmp_path / "a"), str(tmp_path / "b")) == ["data1/trace_x.csv"]


def test_each_data_set_gets_its_own_data(tmp_path):
    two = ChainWorkload("tiny2", TINY_SWEEP.config, elasticity=0.5, datasets=2)
    cfgs = two.plan(5)
    assert [cfg.seed for cfg in cfgs] == [cfg.seed for cfg in two.plan(5)]
    assert cfgs[0].seed != cfgs[1].seed
    ops, _ = two.run_round(cfgs, str(tmp_path))
    assert [op.label.split("/")[0] for op in ops] == ["data0"] * 3 + ["data1"] * 3
    assert run.check_round(two, cfgs, ops, str(tmp_path)) == {}
    stem = ops[0].label.split("/")[1]
    assert _read(tmp_path / "data0" / f"trace_{stem}.csv") != _read(tmp_path / "data1" / f"trace_{stem}.csv")


def test_lab_round_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run.traced_run(LabWorkload("tiny-lab", instances=2, n_states=6, elasticity=0.5), seed=1,
                            spans_path=str(tmp_path / "spans.npz"))
    assert result["failures"] == {}
    assert result["metrics"]["spectral.subsets"] == 2 ** 6 * (
        result["metrics"]["spectral.conductance.calls"] + result["metrics"]["spectral.kappa_p.calls"])


def test_tracer_wraps_every_binding_site():
    originals = {
        "run_chain": metropolis.run_chain,
        "kl_to_field": elliptic.kl_to_field,
        "build_operator_pack": gpcn.gaussian_ops.build_operator_pack,
    }
    with Tracer(layers.TARGETS) as tracer:
        for name, original in originals.items():
            for module in (gpcn, metropolis, experiment, elliptic, diagnostics, proposals):
                bound = vars(module).get(name)
                assert bound is not original, f"{module.__name__}.{name} left unwrapped"
        assert metropolis.run_chain is experiment.run_chain
        assert elliptic.kl_to_field is diagnostics.kl_to_field
        assert {"gpcn.metropolis.run_chain", "gpcn.experiment.run_chain"} <= set(
            tracer.sites["metropolis.run_chain"])
        assert {"gpcn.elliptic.kl_to_field", "gpcn.diagnostics.kl_to_field"} <= set(
            tracer.sites["elliptic.kl_to_field"])
    assert metropolis.run_chain is originals["run_chain"]
    assert experiment.run_chain is originals["run_chain"]
    assert diagnostics.kl_to_field is originals["kl_to_field"]


def test_removed_names_are_reported_absent(monkeypatch):
    monkeypatch.delattr(proposals.ProposalKernel, "pack_at")
    targets = dict(layers.TARGETS, **{"elliptic:no_such_function": None, "no_such_module:f": None})
    with Tracer(targets) as tracer:
        pass
    assert tracer.absent == ["proposals:ProposalKernel.pack_at", "elliptic:no_such_function",
                             "no_such_module:f"]
    metrics = layers.layer_metrics(tracer.spans(), tracer.names)
    assert metrics["proposals.pack_at.calls"] == 0
    assert metrics["trace.spans"] == 0


def test_self_time_excludes_child_spans(monkeypatch):
    fake = types.ModuleType("fakepkg.mod")

    def inner():
        return sum(range(20000))

    def outer():
        return fake.inner() + fake.inner()

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fakepkg.mod", fake)
    with Tracer({"mod:outer": None, "mod:inner": None}, package="fakepkg") as tracer:
        fake.outer()
        fake.outer()
    spans = tracer.spans()
    assert list(spans["name"]) == [0, 1, 1, 0, 1, 1]
    assert list(spans["parent"]) == [-1, 0, 0, -1, 3, 3]
    assert list(spans["op"]) == [0, 0, 0, 3, 3, 3]
    dur = spans["duration"]
    assert spans["self"][0] == dur[0] - dur[1] - dur[2]
    assert spans["self"][1] == dur[1]


def test_failed_output_check_is_counted(tmp_path):
    plan = TINY_SWEEP.plan(5)
    plan_dir = str(tmp_path / "round")
    ops, _ = TINY_SWEEP.run_round(plan, plan_dir)
    assert run.check_round(TINY_SWEEP, plan, ops, plan_dir) == {}
    subdir, stem = ops[0].label.split("/")
    path = os.path.join(plan_dir, subdir, f"trace_{stem}.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])
    failures = run.check_round(TINY_SWEEP, plan, ops, plan_dir)
    assert list(failures) == [ops[0].label]
    assert any("rows" in problem for problem in failures[ops[0].label])


def test_timed_run_repeats_the_round_and_calibrates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "_probe_setup", lambda name, seed: 0.1)
    result = run.timed_run(TINY_SWEEP, seed=3, seconds=0.5)
    assert result["failures"] == {}
    extra = result["extra"]
    assert extra["repetitions"] >= 1 and result["attempted"] == 3 * extra["repetitions"]
    assert all(s > 0 for s in extra["slowdowns"])
    metrics = result["metrics"]
    assert metrics["wall_s"] == pytest.approx(sum(extra["op_s"]), rel=0.05)
    assert metrics["ops_per_s"] == pytest.approx(3 / metrics["wall_s"])
    assert set(metrics) == set(run.END_TO_END_UNITS)


def test_a_repetition_with_other_output_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "_probe_setup", lambda name, seed: 0.1)
    lab_seeds = itertools.count()
    run_round = LabWorkload.run_round

    def drifting(self, seeds, out_dir, after_op):
        return run_round(self, [next(lab_seeds)], out_dir, after_op)

    monkeypatch.setattr(LabWorkload, "run_round", drifting)
    lab = LabWorkload("tiny-lab", instances=1, n_states=6, elasticity=0.5)
    result = run.timed_run(lab, seed=1, seconds=0.3)
    reps = result["extra"]["repetitions"]
    assert reps >= 2
    assert list(result["failures"]) == [f"rep{r}/lab_0.json" for r in range(1, reps)]


def test_zero_elasticity_takes_no_calibration_samples(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "_probe_setup", lambda name, seed: 0.1)
    monkeypatch.setattr(run, "calibration_sample", lambda: pytest.fail("calibration sample taken"))
    result = run.timed_run(LabWorkload("tiny-lab", instances=2, n_states=6, elasticity=0.0),
                           seed=1, seconds=0.1)
    assert result["failures"] == {}
    assert set(result["extra"]["slowdowns"]) == {1.0}


def test_unknown_workload_is_refused(capsys):
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 2
    assert "unknown workload" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sweep-small", "cell-highdim", "local-curvature", "spectral-lab"])
def test_every_workload_resolves(name):
    from workloads import WORKLOADS

    assert WORKLOADS[name].plan(0) == WORKLOADS[name].plan(0)


def test_benchmark_json_lists_the_reported_metrics():
    import json

    from workloads import WORKLOADS

    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
