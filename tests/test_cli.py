import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from gpcn import elliptic, experiment
from gpcn.cli import main
from gpcn.experiment import (
    BLAS_THREAD_VARS,
    ConfigError,
    build_problem,
    derive_seed,
    diagnose_trace,
    resolve_config,
    run_cell,
    run_experiment,
    worker_pool,
)
from gpcn.metropolis import ChainConfig, ChainTrace, read_trace_csv, run_chain, write_trace_csv
from gpcn.proposals import ProposalKernel
from helpers import ar1_series, dense_gamma, observation_from_json

MINIMAL = """
seed = 7
problem.N = 10
problem.sigma_eps = 0.1
sampler.variant = gpcn
sampler.s = 0.5
run.n = 1000
run.n0 = 100
output.dir = {out}
"""


def write_config(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def summary_without_wall_time(path):
    # wall time is the single timing column; everything else is bit-reproducible
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return ["," .join(line.split(",")[:-1]) for line in lines]


class TestConfigParsing:
    def test_unknown_key_has_line_number(self):
        text = "seed = 1\nbogus.key = 3\nproblem.N = 4\nproblem.sigma_eps = 0.1\n" \
               "sampler.variant = pcn\nrun.n = 10\nrun.n0 = 0\n"
        with pytest.raises(ConfigError, match="line 2"):
            resolve_config(text)

    def test_bad_value_has_line_number(self):
        text = "seed = 1\nproblem.N = ten\nproblem.sigma_eps = 0.1\n" \
               "sampler.variant = pcn\nrun.n = 10\nrun.n0 = 0\n"
        with pytest.raises(ConfigError, match="line 2"):
            resolve_config(text)
        base = "seed = 1\nproblem.N = 20, 10\nproblem.sigma_eps = 0.1\n" \
               "sampler.variant = pcn\nrun.n = 10\nrun.n0 = 0\n"
        twelve = ",".join(["0.1"] * 12)
        for truth, match in (("bogus", "unknown truth spec"), ("coeffs:1,x", "could not convert"),
                             ("coeffs:1,nan", "must be finite"),
                             (f"coeffs:{twelve}", r"12 coefficients.*min\(problem.N\) = 10")):
            with pytest.raises(ConfigError, match=f"line 7: problem.truth.*{match}"):
                resolve_config(base + f"problem.truth = {truth}\n")
        assert resolve_config(base.replace("20, 10", "20, 12")
                              + f"problem.truth = coeffs:{twelve}\n").truth == f"coeffs:{twelve}"

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="problem.N"):
            resolve_config("seed = 1\n")

    def test_unknown_variant_rejected(self):
        text = "seed = 1\nproblem.N = 4\nproblem.sigma_eps = 0.1\n" \
               "sampler.variant = hmc\nrun.n = 10\nrun.n0 = 0\n"
        with pytest.raises(ConfigError, match="hmc"):
            resolve_config(text)

    def test_resolved_items_include_defaults(self):
        cfg = resolve_config("seed = 1\nproblem.N = 4\nproblem.sigma_eps = 0.1\n"
                             "sampler.variant = pcn\nrun.n = 10\nrun.n0 = 0\n")
        items = dict(cfg.items())
        assert items["run.thin"] == 1
        assert items["sampler.target_acceptance"] == "0.25"
        assert items["problem.dx"] == "auto" and cfg.dx is None

    def test_config_fields_declare_every_key_once_in_print_order(self):
        required = ("seed", "problem.N", "problem.sigma_eps", "sampler.variant",
                    "run.n", "run.n0")
        text = "seed = 1\nproblem.N = 4\nproblem.sigma_eps = 0.1\n" \
               "sampler.variant = pcn\nrun.n = 10\nrun.n0 = 0\n"
        assert resolve_config(text).items() == [
            ("seed", 1), ("problem.N", "4"), ("problem.sigma_eps", "0.1"),
            ("problem.dx", "auto"), ("problem.truth", "default"), ("sampler.variant", "pcn"),
            ("sampler.s", "tuned"), ("sampler.target_acceptance", "0.25"),
            ("sampler.gamma", "map"), ("sampler.gamma_points", 5), ("run.n", 10),
            ("run.n0", 0), ("run.thin", 1), ("run.replicates", 1), ("run.pilot_n", 2000),
            ("output.dir", "out"), ("output.formats", "csv,json")]
        config_fields = dataclasses.fields(experiment.ExperimentConfig)
        keys = [f.metadata["key"] for f in config_fields]
        assert len(keys) == 17 and len(set(keys)) == 17
        assert tuple(f.metadata["key"] for f in config_fields
                     if f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING) == required
        for i, key in enumerate(required):
            lines = text.splitlines(keepends=True)
            with pytest.raises(ConfigError, match=f"^missing required key '{key}'$"):
                resolve_config("".join(lines[:i] + lines[i + 1:]))
        with pytest.raises(ConfigError, match=r"^line 7: unknown key 'bogus\.key'$"):
            resolve_config(text + "bogus.key = 3\n")

    def test_explicit_dx_must_resolve_every_mode_of_the_sweep(self):
        base = ("seed = 1\nproblem.sigma_eps = 0.1\nsampler.variant = pcn\n"
                "run.n = 10\nrun.n0 = 0\n")
        cfg = resolve_config(base + "problem.N = 50, 800\nproblem.dx = 0.0009765625\n")
        assert cfg.dx == 2.0**-10 and dict(cfg.items())["problem.dx"] == "0.0009765625"
        with pytest.raises(ConfigError, match="line 7: .* does not resolve problem.N = 800"):
            resolve_config(base + "problem.N = 50, 800\nproblem.dx = 0.001953125\n")

    def test_nonfinite_or_negative_step_size_names_its_line(self):
        base = ("seed = 1\nproblem.N = 4\nproblem.sigma_eps = 0.1\nsampler.variant = pcn\n"
                "run.n = 10\nrun.n0 = 0\n")
        for value in ("nan", "inf", "-0.1"):
            with pytest.raises(ConfigError, match="line 7.*sampler.s"):
                resolve_config(base + f"sampler.s = {value}\n")

    @pytest.mark.parametrize("variants, value, rejecter", [
        ("rw", "1", "rw"), ("pcn", "1.5", "pcn"), ("gpcn", "1.0", "gpcn"), ("gn-rw", "1.5", "gn-rw"),
        ("local-gpcn", "1.2", "local-gpcn"), ("local-gpcn2", "1", "local-gpcn2"),
        ("rw, local-gpcn", "0", "local-gpcn"), ("pcn, gpcn, local-gpcn2", "0.0", "local-gpcn2")])
    def test_step_size_outside_the_variants_range_names_its_line(self, variants, value, rejecter):
        # s >= 1 is outside every variant's range, s = 0 only outside the local
        # ones': the message names the variant that rejects s, not the first listed.
        base = ("seed = 1\nproblem.N = 4\nproblem.sigma_eps = 0.1\n"
                f"sampler.variant = {variants}\nrun.n = 10\nrun.n0 = 0\n")
        with pytest.raises(ConfigError, match=f"line 7.*sampler.s.* for {rejecter},"):
            resolve_config(base + f"sampler.s = {value}\n")

    def test_step_size_within_the_variants_range_accepted(self):
        base = ("seed = 1\nproblem.N = 4\nproblem.sigma_eps = 0.1\n"
                "run.n = 10\nrun.n0 = 0\n")
        for variants, value in (("rw", 0.5), ("pcn, gpcn", 0.0), ("gn-rw", 0.999),
                                ("local-gpcn, local-gpcn2", 0.999)):
            cfg = resolve_config(base + f"sampler.variant = {variants}\nsampler.s = {value}\n")
            assert cfg.s == value

    @pytest.mark.parametrize("key", ["problem.N", "problem.sigma_eps", "sampler.variant"])
    def test_empty_sweep_list_names_its_line(self, key):
        lines = {"seed": "1", "problem.N": "4", "problem.sigma_eps": "0.1",
                 "sampler.variant": "gpcn", "run.n": "10", "run.n0": "0", key: ","}
        text = "".join(f"{k} = {v}\n" for k, v in lines.items())
        where = f"line {list(lines).index(key) + 1}: {key}"
        with pytest.raises(ConfigError, match=f"{where} lists no values"):
            resolve_config(text)

    @pytest.mark.parametrize("key, value", [
        ("problem.N", "4, 4"), ("problem.N", "4, 6, 04"),
        ("problem.sigma_eps", "0.1, 0.1"), ("problem.sigma_eps", "0.1, 0.100000001"),
        ("sampler.variant", "pcn, gpcn, pcn")])
    def test_entries_sharing_an_artifact_name_name_their_line(self, key, value):
        # A cell's files are named {variant}_N{N}_sig{sigma:g}_r{rep}, so two
        # entries that print alike would overwrite each other's trace and
        # diagnostics while both rows reach the summary.
        lines = {"seed": "1", "problem.N": "4", "problem.sigma_eps": "0.1",
                 "sampler.variant": "pcn", "sampler.s": "0.4", "run.n": "10", "run.n0": "0",
                 key: value}
        text = "".join(f"{k} = {v}\n" for k, v in lines.items())
        with pytest.raises(ConfigError,
                           match=f"line {list(lines).index(key) + 1}: {key} lists .* more than once"):
            resolve_config(text)

    def test_repeated_sigma_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        text = MINIMAL.format(out=out).replace("sigma_eps = 0.1", "sigma_eps = 0.1, 0.100000001")
        assert main(["run", "--config", str(write_config(tmp_path, text))]) == 2
        assert "line 4: problem.sigma_eps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "0.1, inf", "-inf"])
    def test_nonfinite_noise_names_its_line(self, value):
        text = ("seed = 1\nproblem.N = 4\nproblem.sigma_eps = " + value
                + "\nsampler.variant = pcn\nrun.n = 10\nrun.n0 = 0\n")
        with pytest.raises(ConfigError, match="line 3: sigma_eps must be positive and finite"):
            resolve_config(text)

    @pytest.mark.parametrize("dx", ["0.3", "0.15", "0", "-0.5", "2", "inf", "nan"])
    def test_dx_that_does_not_divide_the_interval_names_its_line(self, dx):
        text = ("seed = 1\nproblem.N = 2\nproblem.sigma_eps = 0.1\nsampler.variant = pcn\n"
                f"run.n = 10\nrun.n0 = 0\nproblem.dx = {dx}\n")
        with pytest.raises(ConfigError, match="line 7: dx = .* does not evenly divide"):
            resolve_config(text)

    @pytest.mark.parametrize("key, value, context", [
        ("run.pilot_n", "500", {}),
        ("run.thin", "0", {}),
        ("run.replicates", "0", {}),
        ("sampler.gamma_points", "0", {"sampler.gamma": "averaged"}),
        ("run.n", "-1", {}),
        ("run.n0", "-5", {}),
        ("seed", "-3", {})])
    def test_count_below_its_minimum_names_its_line(self, key, value, context):
        lines = {"seed": "1", "problem.N": "4", "problem.sigma_eps": "0.1",
                 "sampler.variant": "gpcn", "run.n": "10", "run.n0": "0", **context, key: value}
        text = "".join(f"{k} = {v}\n" for k, v in lines.items())
        with pytest.raises(ConfigError, match=f"line {list(lines).index(key) + 1}: {key}"):
            resolve_config(text)

    @pytest.mark.parametrize("source", ["zero", "dense"])
    def test_unknown_gamma_source_names_its_line(self, source):
        # zero curvature is plain pcn (rw for gn-rw), so it is no gamma source
        text = ("seed = 1\nproblem.N = 4\nproblem.sigma_eps = 0.1\nsampler.variant = gpcn\n"
                f"sampler.gamma = {source}\nrun.n = 10\nrun.n0 = 0\n")
        with pytest.raises(ConfigError, match="line 5: gamma source must be map or averaged"):
            resolve_config(text)

    def test_short_pilots_and_single_points_accepted_where_unused(self):
        base = ("seed = 1\nproblem.N = 4\nproblem.sigma_eps = 0.1\nsampler.variant = gpcn\n"
                "run.n = 0\nrun.n0 = 0\n")
        assert resolve_config(base + "sampler.s = 0.5\nrun.pilot_n = 500\n").pilot_n == 500
        assert resolve_config(base + "sampler.gamma = map\nsampler.gamma_points = 0\n") \
            .gamma_points == 0
        assert resolve_config(base + "sampler.gamma = averaged\nsampler.gamma_points = 1\n") \
            .gamma_points == 1

    def test_seed_split_is_deterministic_and_stream_separated(self):
        assert derive_seed(5, 0, 1, 2) == derive_seed(5, 0, 1, 2)
        assert derive_seed(5, 0, 1, 2) != derive_seed(5, 1, 1, 2)
        assert derive_seed(5, 0, 1, 2) != derive_seed(6, 0, 1, 2)


class TestRunCommand:
    def test_minimal_config_emits_declared_files(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, MINIMAL.format(out=out))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (out / "summary.csv").exists()
        assert (out / "trace_gpcn_N10_sig0.1_r0.csv").exists()
        assert (out / "diagnostics_gpcn_N10_sig0.1_r0.json").exists()
        report = json.loads((out / "diagnostics_gpcn_N10_sig0.1_r0.json").read_text())
        assert report["chain_seed"] == derive_seed(7, 2, 0, 0, 0, 0)
        assert report["config"]["run.n"] == 1000
        assert set(report["map"]) == {"iterations", "gradient_norm", "converged", "stop"}
        assert "tune" not in report               # s is fixed
        # the config block records run.n0; the ESS block covers the post burn-in series
        assert "n0" not in report["ess"]["ims"] and report["ess"]["ims"]["n"] == 1000

    def test_tuned_cell_records_the_tuner_outcome(self, tmp_path):
        out = tmp_path / "tuned"
        text = (f"seed = 5\nproblem.N = 6\nproblem.sigma_eps = 0.1\nsampler.variant = pcn\n"
                f"run.n = 200\nrun.n0 = 0\nrun.pilot_n = 1000\noutput.dir = {out}\n")
        rows = run_experiment(resolve_config(text))
        report = json.loads((out / "diagnostics_pcn_N6_sig0.1_r0.json").read_text())
        assert report["tuned"] is True
        assert set(report["tune"]) == {"converged", "acceptance_rate", "pilots"}
        pilots = report["tune"]["pilots"]
        assert pilots and all(len(p) == 3 and 0 <= p[2] <= p[1] <= 1000 for p in pilots)
        s_last, steps_last, accepted_last = pilots[-1]
        assert s_last == report["s"]
        assert steps_last == 1000 and accepted_last / 1000 == report["tune"]["acceptance_rate"]
        assert isinstance(report["tune"]["converged"], bool)
        assert 0.0 <= report["tune"]["acceptance_rate"] <= 1.0
        if report["tune"]["converged"]:
            assert abs(report["tune"]["acceptance_rate"] - 0.25) <= 0.05
        assert report["s"] == rows[0]["s"]

    def test_sweep_emits_row_per_cell(self, tmp_path):
        out = tmp_path / "sweep"
        text = (f"seed = 3\nproblem.N = 50, 100, 200, 400, 800\n"
                f"problem.sigma_eps = 0.1\nsampler.variant = pcn\nsampler.s = 0.3\n"
                f"run.n = 200\nrun.n0 = 20\noutput.dir = {out}\noutput.formats = csv\n")
        cfg = resolve_config(text)
        rows = run_experiment(cfg)
        assert [row["N"] for row in rows] == [50, 100, 200, 400, 800]
        lines = [l for l in (out / "summary.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 1 + 5

    def test_each_n_runs_on_its_own_grid_unless_dx_is_set(self, tmp_path):
        # dx = 2^-max(9, bit_length(N)) per N, so next to N = 800 (1025 nodes)
        # N = 50 keeps its 513 nodes and the trace it has in a sweep of its own
        base = ("seed = 3\nproblem.sigma_eps = 0.1\nsampler.variant = pcn\nsampler.s = 0.3\n"
                "run.n = 200\nrun.n0 = 0\n")
        runs = {"mixed": "problem.N = 50, 800\n", "alone": "problem.N = 50\n",
                "explicit": "problem.N = 50, 800\nproblem.dx = 0.0009765625\n"}
        for name, extra in runs.items():
            run_experiment(resolve_config(base + extra + f"output.dir = {tmp_path / name}\n"))

        def grid(name, n_modes):
            out = tmp_path / name
            dx = float(read_trace_csv(out / f"trace_pcn_N{n_modes}_sig0.1_r0.csv")[0]["cell.dx"])
            for report in (f"diagnostics_pcn_N{n_modes}_sig0.1_r0.json", f"map_N{n_modes}_sig0.1.json"):
                assert json.loads((out / report).read_text())["dx"] == dx
            return round(1.0 / dx) + 1

        def rows(name):
            text = (tmp_path / name / "trace_pcn_N50_sig0.1_r0.csv").read_text()
            return [line for line in text.splitlines() if not line.startswith("#")]

        assert (grid("mixed", 50), grid("mixed", 800)) == (513, 1025)
        assert rows("mixed") == rows("alone")
        assert (grid("explicit", 50), grid("explicit", 800)) == (1025, 1025)
        assert rows("explicit") != rows("alone")

    def test_rerun_reproduces_identical_artifacts(self, tmp_path):
        # N = 10 applies the sine basis by table, N = 300 (dx 2^-9) by FFT;
        # local-gpcn carries a per-state pack through the chain; the npy case
        # dumps the chain's thinned states
        for variant, n_modes, extra in (("gpcn", 10, ""), ("gpcn", 300, ""), ("local-gpcn", 10, ""),
                                        ("gpcn", 10, "run.thin = 3\noutput.formats = csv, json, npy\n")):
            out = tmp_path / f"{variant}_N{n_modes}{'_npy' if extra else ''}"
            text = (MINIMAL.format(out=out).replace("problem.N = 10", f"problem.N = {n_modes}")
                    .replace("sampler.variant = gpcn", f"sampler.variant = {variant}")) + extra
            cfg = write_config(tmp_path, text)
            assert main(["run", "--config", str(cfg)]) == 0
            stem = f"{variant}_N{n_modes}_sig0.1_r0"
            paths = [out / f"trace_{stem}.csv", out / f"diagnostics_{stem}.json"]
            if extra:
                paths.append(out / f"states_{stem}.npy")
            first = [path.read_bytes() for path in paths]
            first_summary = summary_without_wall_time(out / "summary.csv")
            assert main(["run", "--config", str(cfg)]) == 0
            assert [path.read_bytes() for path in paths] == first
            assert summary_without_wall_time(out / "summary.csv") == first_summary
        chain_cfg = resolve_config(text)
        problem = build_problem(chain_cfg, 0, 0)
        xi_map, obs, model = problem.map_result.xi, problem.obs, problem.model
        kernel = ProposalKernel("gpcn", problem.prior, chain_cfg.s,
                                gamma=elliptic.build_gamma_from_map(xi_map, obs, model))
        chain = run_chain(ChainConfig(kernel, elliptic.make_posterior(obs, model), n=1000, n0=100,
                                      seed=json.loads(first[1])["chain_seed"],
                                      initial_state=xi_map, thin=3))
        assert chain.states.shape == (334, 10)
        assert np.array_equal(np.load(paths[2]), chain.states)

    def test_cell_without_a_state_dump_holds_no_states(self, tmp_path):
        # n * N * 8 bytes is what a chain that stored every state would hold
        n, n_modes = 10_000, 400
        text = (f"seed = 5\nproblem.N = {n_modes}\nproblem.sigma_eps = 0.1\n"
                f"sampler.variant = pcn\nsampler.s = 0.2\nrun.n = {n}\nrun.n0 = 0\n"
                f"output.dir = {tmp_path / 'out'}\n")
        cfg = resolve_config(text)
        tracemalloc.start()
        try:
            row = run_cell(cfg, 0, 0, 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < row["acceptance_rate"] < 1
        assert peak < n * n_modes * 8 / 4

    def test_worker_processes_write_the_same_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with worker_pool(2) as pool:
            assert list(pool.map(os.getenv, BLAS_THREAD_VARS, timeout=60)) == ["1"] * 3
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4" and "MKL_NUM_THREADS" not in os.environ

        text = (MINIMAL.replace("sampler.variant = gpcn", "sampler.variant = pcn, gpcn")
                .replace("problem.sigma_eps = 0.1", "problem.sigma_eps = 0.1, 0.01"))
        out, outputs = tmp_path / "out", {}
        for threads in (1, 2):      # one output dir: the trace headers record it
            rows = run_experiment(resolve_config(text.format(out=out)), threads=threads)
            assert len(rows) == 4
            outputs[threads] = {path.name: path.read_bytes() for path in out.iterdir()
                                if path.name.startswith(("trace_", "diagnostics_"))}
            outputs[threads]["summary"] = summary_without_wall_time(out / "summary.csv")
        assert len(outputs[1]) == 9 and outputs[2] == outputs[1]

    def test_invalid_config_is_nonzero_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "seed = 1\nnonsense\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("run", "--seed", "-1"), ("lab", "--seed", "-1"),
        ("run", "--threads", "0"), ("run", "--threads", "-2")])
    def test_negative_seed_and_threads_below_one_exit_2(self, tmp_path, capsys, command, flag,
                                                        value):
        out = tmp_path / "out"
        config = [] if command == "lab" else \
            ["--config", str(write_config(tmp_path, MINIMAL.format(out=out)))]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *config, flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err
        assert not out.exists()                   # no summary.csv, no cell artifacts

    def test_map_is_an_unknown_command(self, tmp_path, capsys):
        # run writes each problem's MAP artifacts, so the map command is gone
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(["map", "--config", str(write_config(tmp_path, MINIMAL.format(out=out)))])
        assert exit_info.value.code == 2
        assert "invalid choice: 'map'" in capsys.readouterr().err
        assert not out.exists()

    def test_run_experiment_needs_a_thread(self, tmp_path):
        out = tmp_path / "out"
        cfg = resolve_config(MINIMAL.format(out=out))
        for threads in (0, -2):
            with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
                run_experiment(cfg, threads=threads)
        assert not out.exists()

    def test_short_run_reports_nan_ess(self, tmp_path):
        # runs too short for the estimators still produce all artifacts
        out = tmp_path / "short"
        text = (f"seed = 2\nproblem.N = 6\nproblem.sigma_eps = 0.1\n"
                f"sampler.variant = pcn\nsampler.s = 0.4\n"
                f"run.n = 50\nrun.n0 = 0\noutput.dir = {out}\n")
        rows = run_experiment(resolve_config(text))
        assert np.isnan(rows[0]["ess_ims"]) and np.isnan(rows[0]["ess_batch_means"])
        assert (out / "summary.csv").exists()
        report = json.loads((out / "diagnostics_pcn_N6_sig0.1_r0.json").read_text())
        assert "error" in report["ess"]["ims"]

    def test_averaged_gamma_source_runs(self, tmp_path):
        # averaged linearizations build a usable curvature without a MAP point
        text = (f"seed = 9\nproblem.N = 8\nproblem.sigma_eps = 0.1\n"
                f"sampler.variant = gpcn\nsampler.s = 0.4\nsampler.gamma = averaged\n"
                f"sampler.gamma_points = 3\nrun.n = 300\nrun.n0 = 30\n"
                f"output.dir = {tmp_path / 'averaged'}\noutput.formats = csv\n")
        rows = run_experiment(resolve_config(text))
        assert len(rows) == 1 and np.isfinite(rows[0]["acceptance_rate"])

    def test_trace_header_contains_resolved_config(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, MINIMAL.format(out=out))
        main(["run", "--config", str(cfg_path)])
        head = (out / "trace_gpcn_N10_sig0.1_r0.csv").read_text().splitlines()
        keys = {line[1:].split("=")[0].strip() for line in head if line.startswith("#")}
        assert {"seed", "problem.N", "run.thin", "cell.s", "chain_seed"} <= keys


GROUPS = """
seed = 13
problem.N = 10, 20
problem.sigma_eps = 0.1
sampler.variant = pcn, gpcn
run.n = 2000
run.n0 = 200
run.pilot_n = 1000
run.replicates = 3
output.dir = {out}
"""


def artifacts(out):
    """Every file of a run by name: bytes, and summary.csv less its wall-time column."""
    files = {path.name: path.read_bytes() for path in out.iterdir() if path.name != "summary.csv"}
    files["summary.csv"] = summary_without_wall_time(out / "summary.csv")
    return files


class TestGroups:
    """A sweep builds each (N, sigma) problem once, tunes each (variant, N,
    sigma) group once and runs the group's replicates on that tuning."""

    def test_each_problem_and_group_is_built_once(self, tmp_path, monkeypatch):
        calls = {"map_estimate": 0, "tune_step_size": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(elliptic, "map_estimate")
        counted(experiment, "tune_step_size")
        rows = run_experiment(resolve_config(GROUPS.format(out=tmp_path / "out")))
        assert len(rows) == 2 * 2 * 3
        assert calls == {"map_estimate": 2, "tune_step_size": 4}
        # the three replicates of a group run at its one tuned s
        assert len({(row["variant"], row["N"], row["s"]) for row in rows}) == \
            len({(row["variant"], row["N"]) for row in rows}) == 4

    def test_two_threads_write_the_artifacts_of_one(self, tmp_path):
        out, outputs = tmp_path / "out", {}
        for threads in (1, 2):      # one output dir: the trace headers record it
            run_experiment(resolve_config(GROUPS.format(out=out)), threads=threads)
            outputs[threads] = artifacts(out)
        # 12 traces, 12 diagnostics and 3 files for each of the 2 problems
        assert len(outputs[1]) == 12 + 12 + 6 + 1 and outputs[2] == outputs[1]

    def test_each_replicate_matches_its_cell(self, tmp_path):
        out = tmp_path / "out"
        cfg = resolve_config(GROUPS.format(out=out))
        rows = run_experiment(cfg)
        swept = artifacts(out)
        cells = [(iv, i_n, 0, rep) for iv in range(2) for i_n in range(2) for rep in range(3)]
        for row, (iv, i_n, i_sig, rep) in zip(rows, cells):
            cell_row = run_cell(cfg, iv, i_n, i_sig, rep)
            assert cell_row.pop("wall_time_s") > 0 and np.isfinite(cell_row["ess_batch_means"])
            assert cell_row == {k: v for k, v in row.items() if k != "wall_time_s"}
            stem = f"{cfg.variants[iv]}_N{cfg.n_modes[i_n]}_sig0.1_r{rep}"
            for name in (f"trace_{stem}.csv", f"diagnostics_{stem}.json"):
                assert (out / name).read_bytes() == swept[name]


class TestProblemArtifacts:
    """``run`` writes each (N, sigma) problem's MAP point, curvature factor and
    MAP report, named by the problem's N and sigma."""

    def test_outputs_round_trip_and_phi_consistency(self, tmp_path):
        out = tmp_path / "map"
        text = (f"seed = 11\nproblem.N = 12\nproblem.sigma_eps = 0.1\n"
                f"sampler.variant = gpcn\nrun.n = 10\nrun.n0 = 0\noutput.dir = {out}\n")
        cfg = resolve_config(text)
        run_experiment(cfg)
        summary = json.loads((out / "map_N12_sig0.1.json").read_text())
        xi = np.load(out / "xi_map_N12_sig0.1.npy")
        factor = np.load(out / "gamma_factor_N12_sig0.1.npy")
        from gpcn.gaussian_ops import PriorSpec

        model = elliptic.ForwardModel(12)
        obs = observation_from_json(json.dumps(summary["observation"]))
        assert summary["phi_at_map"] == elliptic.phi(xi, obs, model)[0]
        rebuilt = elliptic.build_gamma_from_map(xi, obs, model)
        assert factor.shape == (4, 12) and np.array_equal(factor, rebuilt.factor)
        assert not (out / "gamma.npy").exists()
        assert np.array_equal(factor.T @ factor, dense_gamma(rebuilt))
        assert json.loads((out / "map_N12_sig0.1.json").read_text())["converged"] is True
        assert summary["stop"] in ("gradient", "step")
        assert PriorSpec(12).dim == xi.shape[0]
        # the cells on the problem report the same MAP solve and data
        cell = json.loads((out / "diagnostics_gpcn_N12_sig0.1_r0.json").read_text())
        assert cell["phi_at_map"] == summary["phi_at_map"]
        assert cell["observation"] == summary["observation"]
        assert cell["data_seed"] == summary["data_seed"]

    def test_curvature_follows_sampler_gamma(self, tmp_path):
        from gpcn.gaussian_ops import PriorSpec

        out = tmp_path / "averaged"
        text = (f"seed = 11\nproblem.N = 12\nproblem.sigma_eps = 0.1\n"
                f"sampler.variant = gpcn\nsampler.gamma = averaged\n"
                f"sampler.gamma_points = 3\nrun.n = 10\nrun.n0 = 0\noutput.dir = {out}\n")
        run_experiment(resolve_config(text))
        averaged = np.load(out / "gamma_factor_N12_sig0.1.npy")
        prior = PriorSpec(12)
        rng = np.random.default_rng(derive_seed(11, 3, 12))
        points = [prior.sample(rng) for _ in range(3)]
        expected = elliptic.build_gamma_averaged(points, 0.1, elliptic.ForwardModel(12))
        assert averaged.shape == (4 * 3, 12) and np.array_equal(averaged, expected.factor)
        assert np.array_equal(averaged.T @ averaged, dense_gamma(expected))

    def test_consistent_data_gives_near_zero_map(self, tmp_path):
        out = tmp_path / "map0"
        text = (f"seed = 4\nproblem.N = 8\nproblem.sigma_eps = 1e-12\n"
                f"problem.truth = coeffs:0\nsampler.variant = pcn\n"
                f"run.n = 10\nrun.n0 = 0\noutput.dir = {out}\n")
        run_experiment(resolve_config(text))
        xi = np.load(out / "xi_map_N8_sig1e-12.npy")
        assert np.linalg.norm(xi) < 1e-6


class TestDiagnoseCommand:
    def write_synthetic_trace(self, path, series):
        n = len(series)
        trace = ChainTrace(states=np.zeros((n, 1)), accepts=np.ones(n, dtype=bool),
                           qoi_series={"f": np.asarray(series)}, acceptance_rate=1.0,
                           wall_time=0.0, n=n, n0=0)
        write_trace_csv(trace, path)

    def test_iid_trace(self, tmp_path):
        path = tmp_path / "iid.csv"
        self.write_synthetic_trace(path, np.random.default_rng(0).standard_normal(20000))
        report = diagnose_trace(path)
        ess = report["qoi"]["f"]["ims"]["ess"]
        assert 0.9 * 20000 <= ess <= 20000

    def test_ar1_trace(self, tmp_path):
        path = tmp_path / "ar1.csv"
        rho, n = 0.5, 20000
        self.write_synthetic_trace(path, ar1_series(n, rho, np.random.default_rng(3)))
        report = diagnose_trace(path)
        target = n * (1 - rho) / (1 + rho)
        assert abs(report["qoi"]["f"]["ims"]["ess"] - target) < 0.2 * target

    @staticmethod
    def cell_and_diagnose_reports(tmp_path, n):
        """The diagnostics JSON's ``ess`` block and ``gpcn diagnose``'s entry for the trace
        of one gpcn cell run for n steps, both parsed as strict JSON."""
        out = tmp_path / "short"
        cfg = write_config(tmp_path, MINIMAL.format(out=out).replace("run.n = 1000", f"run.n = {n}"))
        assert main(["run", "--config", str(cfg)]) == 0
        report_path = tmp_path / "diag.json"
        trace = out / "trace_gpcn_N10_sig0.1_r0.csv"
        assert main(["diagnose", str(trace), "--out", str(report_path)]) == 0

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        entry = json.loads(report_path.read_text(), parse_constant=reject)["qoi"]["exp_integral"]
        cell = json.loads((out / "diagnostics_gpcn_N10_sig0.1_r0.json").read_text(),
                          parse_constant=reject)
        return cell["ess"], entry

    def test_short_run_trace_reports_the_estimator_errors(self, tmp_path):
        cell, entry = self.cell_and_diagnose_reports(tmp_path, 50)
        assert cell == entry
        assert "at least 100 samples" in entry["ims"]["error"]
        assert "too short" in entry["batch_means"]["error"]

    def test_trace_too_short_for_batch_means_only(self, tmp_path):
        cell, entry = self.cell_and_diagnose_reports(tmp_path, 500)
        assert cell == entry
        assert entry["ims"]["n"] == 500 and entry["ims"]["ess"] > 0
        assert "too short" in entry["batch_means"]["error"]

    def test_nonfinite_qoi_gives_strict_json(self, tmp_path, capsys):
        # a nan QoI row made both estimators return NaN, printed as a bare NaN
        path = tmp_path / "nan.csv"
        series = np.random.default_rng(0).standard_normal(2000)
        series[10] = np.nan
        self.write_synthetic_trace(path, series)
        assert main(["diagnose", str(path)]) == 0

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        entry = report["qoi"]["f"]
        assert entry["ims"]["error"] == entry["batch_means"]["error"]
        assert "series[10] = nan" in entry["ims"]["error"]

    def test_empty_trace_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("step,accept,qoi_f\n")
        assert main(["diagnose", str(path)]) == 2
        assert "no samples" in capsys.readouterr().err


class TestLabCommand:
    def test_report_passes_and_is_seed_stable(self, tmp_path, capsys):
        out1, out2 = tmp_path / "lab1.json", tmp_path / "lab2.json"
        assert main(["lab", "--seed", "5", "--instances", "3", "--states", "7",
                     "--out", str(out1)]) == 0
        assert main(["lab", "--seed", "5", "--instances", "3", "--states", "7",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["all_pass"] and report["grid_gpcn_positive"]

    def test_budget_violation_rejected(self, capsys):
        assert main(["lab", "--states", "30"]) == 2
        assert "22" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [
        ("--states", "1", "n_states"), ("--states", "0", "n_states"),
        ("--instances", "0", "n_instances")])
    def test_empty_battery_rejected(self, capsys, flag, value, name):
        assert main(["lab", flag, value]) == 2
        assert name in capsys.readouterr().err

    def test_two_states_pass(self, capsys):
        assert main(["lab", "--seed", "0", "--instances", "1", "--states", "2"]) == 0

    def test_failed_check_exits_1_and_still_emits_the_report(self, tmp_path, capsys,
                                                             monkeypatch):
        report = {"all_pass": False, "checks": ["one failed"]}
        monkeypatch.setattr("gpcn.cli.run_lab", lambda seed, n_instances, n_states: report)
        out = tmp_path / "lab.json"
        assert main(["lab", "--out", str(out)]) == 1
        assert json.loads(out.read_text()) == report
        assert capsys.readouterr().out == ""
        assert main(["lab"]) == 1
        assert json.loads(capsys.readouterr().out) == report
