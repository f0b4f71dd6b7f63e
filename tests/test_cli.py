import json
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from samsbo import cli, verify
from samsbo.cli import (
    AGGREGATE_HEADER,
    PLOTDATA_HEADER,
    RAW_HEADER,
    best_curves,
    build_problem,
    cmd_plotdata,
    cmd_run,
    main,
)
from samsbo.config import (
    TAU,
    ConfigError,
    ExperimentConfig,
    LoopConfig,
    parse_config_text,
    serialize_config,
)

# settings the loop cannot run, each with the key its error must name
BAD_VALUES = [
    ("rho", 1.5), ("seed_points", 0),
    ("frequentist_trials", -2), ("bayesian_trials", -1), ("grid_size", 0), ("jobs", 0),
    ("algorithm", ","), ("algorithm", "ucb, ucb"), ("seed", -1),
    ("eta", "nan"), ("eta", "inf"), ("threshold", "inf"), ("threshold", "nan"),
    ("threshold", -1.0),
    ("disturbance", "nan"), ("disturbance", "-inf"),
]
REMOVED_KEYS = ["refresh_every", "mcmc_chains", "mcmc_burn_in", "mcmc_target_acceptance",
                "include_psi", "mcmc_samples", "supplementary_batch",
                "tau", "lengthscale", "signal_variance", "noise_variance", "observation_noise"]
# problem settings no problem can be built with: (key named, config text)
BAD_PROBLEMS = [
    ("n_tasks", "n_tasks = 0"), ("n_tasks", "problem = powell\nn_tasks = -1"),
    ("dimension", "problem = powell\ndimension = 6"),
    ("dimension", "problem = powell\ndimension = -4"),
    ("dimension", "dimension = 5"), ("dimension", "problem = laser\ndimension = 4"),
]


class TestParseConfig:
    def test_empty_file_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg == ExperimentConfig()
        assert cfg.delta == 0.05 and cfg.rho == 0.15
        assert TAU == 0.001 and cfg.eta == 0.1
        assert cfg.iterations == 40 and cfg.repetitions == 15
        assert cfg.disturbance == 0.3

    def test_values_and_comments(self):
        cfg = parse_config_text("""
        # campaign setup
        problem = powell
        iterations = 10   # short run
        delta = 0.1
        eta = 0.5
        algorithm = samsbo,safe-ucb
        """)
        assert cfg.problem == "powell"
        assert cfg.iterations == 10
        assert cfg.delta == 0.1 and cfg.eta == 0.5
        assert cfg.algorithms() == ["samsbo", "safe-ucb"]

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("problem = branin\nbogus = 1\n")

    def test_out_of_range_names_key(self):
        for key, value in BAD_VALUES:
            with pytest.raises(ConfigError, match=key):
                parse_config_text(f"{key} = {value}\n")
        for key, text in BAD_PROBLEMS:
            with pytest.raises(ConfigError, match=key):
                parse_config_text(text + "\n")
        for text in ("problem = powell\ndimension = 8", "problem = laser\ndimension = 10",
                     "dimension = 2", "n_tasks = 1"):
            parse_config_text(text + "\n")

    def test_campaign_extends_loop_settings(self):
        cfg = parse_config_text("algorithm = samsbo,ucb\ngrid_size = 256\n")
        assert isinstance(cfg, LoopConfig)
        single = replace(cfg, algorithm="ucb")
        assert single.algorithm == "ucb" and single.grid_size == 256
        with pytest.raises(ConfigError, match="unknown algorithm"):
            LoopConfig(algorithm="samsbo,ucb")

    def test_bad_type_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("iterations = soon\n")

    def test_roundtrip(self):
        cfg = parse_config_text("problem = laser\nseed = 9\neta = 0.5\n")
        again = parse_config_text(serialize_config(cfg))
        assert again == cfg


def small_config(tmp_path, **overrides):
    base = dict(
        problem="branin", algorithm="samsbo", iterations=2, repetitions=2,
        grid_size=128, seed=3, seed_points=2,
        out=str(tmp_path / "results"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestCmdRun:
    def test_writes_expected_files_and_schema(self, tmp_path):
        cfg = small_config(tmp_path)
        assert cmd_run(cfg) == 0
        out = Path(cfg.out)
        raw = (out / "samsbo_raw.csv").read_text().splitlines()
        assert raw[0] == ",".join(RAW_HEADER)
        agg = (out / "samsbo_aggregate.csv").read_text().splitlines()
        assert agg[0] == ",".join(AGGREGATE_HEADER)
        assert len(agg) == 1 + cfg.iterations
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 3
        assert len(manifest["repetition_seeds"]) == 2
        assert "samsbo" in manifest["algorithms"]
        assert manifest["versions"]["scipy"] == scipy.__version__

    def test_manifest_records_the_problem_in_use(self, tmp_path):
        # a zero threshold or dimension is the sentinel for the problem's own
        for problem, threshold, dimension, want in (("branin", 0.0, 0, (150.0, 2)),
                                                    ("powell", 0.0, 8, (35_000.0, 8)),
                                                    ("branin", 99.0, 0, (99.0, 2))):
            cfg = small_config(tmp_path / f"{problem}{threshold}", problem=problem,
                               threshold=threshold, dimension=dimension, iterations=0,
                               repetitions=1)
            assert cmd_run(cfg) == 0
            manifest = json.loads((Path(cfg.out) / "manifest.json").read_text())
            assert manifest["problem"] == {"threshold": want[0], "dimension": want[1]}

    def test_zero_iterations_only_seed_rows(self, tmp_path):
        cfg = small_config(tmp_path, iterations=0, repetitions=1)
        cmd_run(cfg)
        rows = (Path(cfg.out) / "samsbo_raw.csv").read_text().splitlines()
        assert len(rows) == 1 + cfg.seed_points

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = small_config(tmp_path / "a")
        cfg_b = small_config(tmp_path / "b")
        cmd_run(cfg_a)
        cmd_run(cfg_b)
        for name in ("samsbo_raw.csv", "samsbo_aggregate.csv"):
            assert (Path(cfg_a.out) / name).read_bytes() == \
                (Path(cfg_b.out) / name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = small_config(tmp_path / "serial", jobs=1)
        parallel = small_config(tmp_path / "parallel", jobs=2)
        cmd_run(serial)
        cmd_run(parallel)
        assert (Path(serial.out) / "samsbo_raw.csv").read_bytes() == \
            (Path(parallel.out) / "samsbo_raw.csv").read_bytes()

    def test_multiple_algorithms(self, tmp_path):
        cfg = small_config(tmp_path, algorithm="safe-ucb,ucb", iterations=1)
        cmd_run(cfg)
        out = Path(cfg.out)
        assert (out / "safe-ucb_raw.csv").exists()
        assert (out / "ucb_raw.csv").exists()
        assert (out / "safe-ucb_aggregate.csv").exists()


class TestPlotdata:
    def test_quantile_convention(self, tmp_path):
        # one algorithm, ten repetitions with best-so-far 1..10 at iteration 1
        raw = tmp_path / "alg_raw.csv"
        lines = [",".join(RAW_HEADER)]
        for rep, value in enumerate(range(1, 11)):
            lines.append(f"alg,{rep},1,1,0.5,{value}.0,{value}.0,1.0,1,1.0,0.0,4,0")
        raw.write_text("\n".join(lines) + "\n")
        out = tmp_path / "plot.csv"
        assert cmd_plotdata([str(raw)], str(out)) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == ",".join(PLOTDATA_HEADER)
        record = dict(zip(PLOTDATA_HEADER, rows[1].split(",")))
        assert float(record["q10"]) == pytest.approx(1.9)
        assert float(record["median"]) == pytest.approx(5.5)
        assert float(record["mean"]) == pytest.approx(5.5)

    def test_single_repetition_median_equals_mean(self, tmp_path):
        cfg = small_config(tmp_path, repetitions=1)
        cmd_run(cfg)
        out = tmp_path / "plot.csv"
        cmd_plotdata([str(Path(cfg.out) / "samsbo_raw.csv")], str(out))
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == cfg.iterations
        for row in rows:
            record = dict(zip(PLOTDATA_HEADER, row.split(",")))
            assert float(record["median"]) == pytest.approx(float(record["mean"]))

    def test_schema_mismatch_names_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SAMSBO_OUT", raising=False)
        header = ",".join(RAW_HEADER)
        contents = {
            "bad.csv": "nope,nope\n1,2\n",
            "short.csv": f"{header}\nalg,0,1\n",
            "noint.csv": f"{header}\nalg,0,one,1,0.5,1.0,1.0,1.0,1,1.0,0.0,4,0\n",
        }
        for name, text in contents.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "bin.csv").write_bytes(b"\xff\xfe\n")
        (tmp_path / "dir").mkdir()
        out = tmp_path / "out.csv"
        # each error names the path, and the line of a bad row
        for name, where in [("bad.csv", ""), ("short.csv", ": line 2"), ("noint.csv", ": line 2"),
                            ("bin.csv", ""), ("missing.csv", ""), ("dir", "")]:
            path = str(tmp_path / name)
            with pytest.raises(ConfigError, match=re.escape(path + where)):
                cmd_plotdata([path], str(out))
            assert main(["plotdata", path, "--out", str(out)]) == 2
            assert path + where in capsys.readouterr().err
            assert not out.exists()


class TestBestCurves:
    def test_forward_fill_on_stall(self):
        from samsbo.safeopt import TraceRecord

        def row(iteration, observed):
            return TraceRecord(0, iteration, 1, np.zeros(1), observed,
                               observed, 1.0, 1, 1.0, 0.0, 4, False)

        trace = [row(0, 5.0), row(1, 4.0), row(3, 3.0)]  # iteration 2 stalled
        curves = best_curves([trace], 4)
        assert np.allclose(curves[0], [4.0, 4.0, 3.0, 3.0])


class TestMainEntry:
    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(
            "iterations = 1\nrepetitions = 1\ngrid_size = 128\nseed_points = 2\n")
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("SAMSBO_OUT", str(env_out))
        code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "ignored")])
        assert code == 0
        assert (env_out / "samsbo_raw.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_verify_bounds_zero_trials(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SAMSBO_OUT", raising=False)
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(
            f"frequentist_trials = 0\nbayesian_trials = 0\nout = {tmp_path / 'v'}\n")
        assert main(["verify-bounds", "--config", str(cfg_file)]) == 0
        report = json.loads((tmp_path / "v" / "coverage.json").read_text())
        assert all(r["trials"] == 0 and r["passed"] for r in report)

    def test_bad_config_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SAMSBO_OUT", raising=False)
        cfg_file = tmp_path / "cfg.txt"
        out = tmp_path / "results"
        cases = [("rho", "rho = 2.0")] + [(k, f"{k} = {v}") for k, v in BAD_VALUES] + \
            [(k, f"{k} = 0") for k in REMOVED_KEYS] + BAD_PROBLEMS + \
            [("threshold", "problem = laser\nthreshold = 5")]    # below the seed's cost
        for key, text in cases:
            cfg_file.write_text(text + "\n")
            assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
            assert key in capsys.readouterr().err
            assert not out.exists()          # no repetition started
        for path in (tmp_path / "missing.cfg", tmp_path):     # absent, and not a file
            assert main(["run", "--config", str(path), "--out", str(out)]) == 2
            assert str(path) in capsys.readouterr().err
            assert not out.exists()

    def test_non_finite_eta_stops_verify_bounds(self, tmp_path, monkeypatch, capsys):
        # eta = inf used to spin forever in the Bayesian suite's prior draw
        monkeypatch.delenv("SAMSBO_OUT", raising=False)
        cfg_file = tmp_path / "cfg.txt"
        out = tmp_path / "v"
        for value in ("inf", "nan"):
            cfg_file.write_text(f"eta = {value}\nfrequentist_trials = 0\nbayesian_trials = 1\n")
            assert main(["verify-bounds", "--config", str(cfg_file), "--out", str(out)]) == 2
            assert "eta" in capsys.readouterr().err
            assert not out.exists()

    def test_eta_without_prior_mass_stops_verify_bounds(self, tmp_path):
        # eta = 1e-10 passes parsing, but its prior draw needs about 1.4e9 proposals
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("eta = 1e-10\nfrequentist_trials = 0\nbayesian_trials = 1\n")
        path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-m", "samsbo.cli", "verify-bounds", "--config",
                              str(cfg_file), "--out", str(tmp_path / "v")],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": path, "SAMSBO_OUT": ""})
        assert run.returncode != 0
        assert "eta = 1e-10" in run.stderr

    def test_negative_seed_flag_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SAMSBO_OUT", raising=False)
        out = tmp_path / "results"
        for command in ("run", "verify-bounds"):
            assert main([command, "--seed", "-1", "--out", str(out)]) == 2
            assert "seed" in capsys.readouterr().err
            assert not out.exists()

    def test_unwritable_output_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SAMSBO_OUT", raising=False)
        called = []
        report = verify.CoverageReport("stub", 0, 0, 1.0, 0.0)
        for module, name, result in ((cli, "run_repetition", []),
                                     (verify, "frequentist_coverage", report),
                                     (verify, "bayesian_coverage", report)):
            monkeypatch.setattr(module, name, lambda *a, _name=name, _result=result, **k:
                                called.append(_name) or _result)
        taken = tmp_path / "taken"
        taken.write_text("")
        for command in ("run", "verify-bounds"):
            assert main([command, "--out", str(taken)]) == 2
            assert f"cannot write {taken}" in capsys.readouterr().err
        assert called == []              # nothing ran before the output was refused
        raw = tmp_path / "raw.csv"
        raw.write_text(",".join(RAW_HEADER) + "\n")
        missing = tmp_path / "missing" / "plot.csv"
        assert main(["plotdata", str(raw), "--out", str(missing)]) == 2
        assert f"cannot write {missing}" in capsys.readouterr().err
        # a file inside the directory is only opened after the work
        out = tmp_path / "results"
        for command, name in (("run", "samsbo_raw.csv"), ("verify-bounds", "coverage.json")):
            (out / name).mkdir(parents=True)
            assert main([command, "--out", str(out)]) == 2
            assert f"cannot write {out / name}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_repetitions_print_their_reason(self, tmp_path, monkeypatch, capsys, jobs):
        monkeypatch.delenv("SAMSBO_OUT", raising=False)
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("problem = branin\nthreshold = 0.1\nrepetitions = 2\n")
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_file), "--out", str(out),
                     "--jobs", str(jobs)]) == 1
        captured = capsys.readouterr()
        reason = "no safe seed found within the draw budget"
        assert captured.out == ""
        assert captured.err.splitlines() == [f"samsbo: repetition {rep} failed: {reason}"
                                             for rep in (0, 1)]
        errors = json.loads((out / "manifest.json").read_text())["algorithms"]["samsbo"]["errors"]
        assert errors == {"0": reason, "1": reason}


    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched run_repetition")
    def test_dead_worker_fails_every_repetition(self, tmp_path, monkeypatch, capsys):
        # a worker that exits breaks the pool, so each repetition's result() raises
        monkeypatch.delenv("SAMSBO_OUT", raising=False)
        monkeypatch.setattr(cli, "run_repetition", lambda *args, **kwargs: os._exit(3))
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("repetitions = 3\n")
        out = tmp_path / "results"
        assert main(["run", "--config", str(cfg_file), "--out", str(out), "--jobs", "2"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[1] for line in lines] == [f" repetition {rep} failed"
                                                          for rep in range(3)]
        errors = json.loads((out / "manifest.json").read_text())["algorithms"]["samsbo"]["errors"]
        assert sorted(errors) == ["0", "1", "2"]
        assert (out / "samsbo_raw.csv").read_text().splitlines() == [",".join(RAW_HEADER)]
        assert (out / "samsbo_aggregate.csv").read_text().splitlines() == \
            [",".join(AGGREGATE_HEADER)]


class TestBuildProblem:
    def test_each_problem_constructs(self):
        for name, dim in (("branin", 2), ("powell", 4), ("laser", 10)):
            cfg = ExperimentConfig(problem=name)
            problem = build_problem(cfg, disturbance_seed=1)
            assert problem.dimension == dim

    def test_threshold_override(self):
        cfg = ExperimentConfig(problem="branin", threshold=99.0)
        assert build_problem(cfg, 1).threshold == 99.0
