import importlib.util
import inspect
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy

from samsbo import benchmarks, bounds, cli, hyperposterior, safeopt, verify
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
    kernel_params,
    parse_config_text,
    serialize_config,
)

ROOT = Path(__file__).resolve().parents[1]

# settings the loop cannot run, each with the key its error must name
BAD_VALUES = [
    ("rho", 1.5), ("seed_points", 0),
    ("frequentist_trials", -2), ("bayesian_trials", -1), ("jobs", 0),
    ("algorithm", ","), ("algorithm", "ucb, ucb"), ("seed", -1),
    ("eta", "nan"), ("eta", "inf"), ("disturbance", "nan"), ("disturbance", "-inf"),
]
REMOVED_KEYS = ["refresh_every", "mcmc_chains", "mcmc_burn_in", "mcmc_target_acceptance",
                "include_psi", "mcmc_samples", "supplementary_batch",
                "tau", "lengthscale", "signal_variance", "noise_variance", "observation_noise",
                "threshold", "grid_size"]
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

    def test_problem_must_be_a_key_of_the_problem_table(self, monkeypatch):
        for name in benchmarks.PROBLEMS:
            assert ExperimentConfig(problem=name).problem == name
        for name in ("", "Branin", "branin ", "rosenbrock"):
            with pytest.raises(ConfigError, match="unknown problem"):
                ExperimentConfig(problem=name)
        # the table itself decides: an added entry parses, a removed one does not
        monkeypatch.setitem(benchmarks.PROBLEMS, "rosenbrock", benchmarks.branin_problem)
        monkeypatch.delitem(benchmarks.PROBLEMS, "laser")
        assert parse_config_text("problem = rosenbrock\n").problem == "rosenbrock"
        with pytest.raises(ConfigError, match="unknown problem"):
            parse_config_text("problem = laser\n")

    def test_campaign_extends_loop_settings(self):
        cfg = parse_config_text("algorithm = samsbo,ucb\nseed_points = 5\n")
        assert isinstance(cfg, LoopConfig)
        single = replace(cfg, algorithm="ucb")
        assert single.algorithm == "ucb" and single.seed_points == 5
        with pytest.raises(ConfigError, match="unknown algorithm"):
            LoopConfig(algorithm="samsbo,ucb")

    def test_bad_type_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("iterations = soon\n")

    def test_roundtrip(self):
        cfg = parse_config_text("problem = laser\nseed = 9\neta = 0.5\n")
        again = parse_config_text(serialize_config(cfg))
        assert again == cfg

    def test_every_field_roundtrips_at_a_non_default_value(self):
        cfg = ExperimentConfig(
            algorithm="safe-ucb, ucb", iterations=7, delta=0.1, rho=0.2, eta=0.3,
            seed_points=2, problem="powell", dimension=8, n_tasks=3,
            disturbance=-0.25, repetitions=2, seed=9, frequentist_trials=10, bayesian_trials=11,
            jobs=2, out="runs/a b=c")
        for f in fields(ExperimentConfig):
            assert getattr(cfg, f.name) != f.default, f.name
        assert parse_config_text(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("key, value", [
        ("out", "res#1"), ("out", " res"), ("out", "res "), ("out", "res\nseed = 1"),
        ("out", "a\rb"), ("algorithm", "samsbo "), ("algorithm", "\tucb")])
    def test_string_the_text_form_cannot_hold_is_refused(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} cannot hold"):
            ExperimentConfig(**{key: value})

    def test_every_fixed_seed_run_parses(self):
        """A key that is gone fails here in seconds, not partway through a fixed-seed comparison."""
        runner = fixed_seed_runner()
        runs = runner.RUNS
        assert {"branin", "laser10", "powell8", "branin3", "verify"} <= {r[0] for r in runs}
        for _, _, settings in runs:
            parse_config_text(runner.config_text(settings))

    def test_key_set_twice_names_both_lines(self):
        with pytest.raises(ConfigError, match="line 3: seed is already set on line 1"):
            parse_config_text("seed = 1\neta = 0.5\nseed = 2\n")
        with pytest.raises(ConfigError, match="line 2: out is already set on line 1"):
            parse_config_text("out = a\n out = a  # the same value\n")


def fixed_seed_runner():
    """scripts/fixed_seed.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("fixed_seed", ROOT / "scripts" / "fixed_seed.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def test_fixed_seed_runner_pins_blas_before_numpy_or_samsbo_loads(tmp_path):
    """The set's bits hold with one BLAS thread only, so loading the runner must not load
    numpy or samsbo, and its main must pin the threads and drop SAMSBO_OUT before either loads.

    In a fresh interpreter whose environment asks for four threads, an import hook records
    the environment at the first import of numpy or samsbo and stops the run there.
    """
    code = (
        "import importlib.util, json, os, sys\n"
        "spec = importlib.util.spec_from_file_location('fixed_seed', sys.argv[1])\n"
        "runner = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(runner)\n"
        "loaded = sorted({'numpy', 'samsbo'} & set(sys.modules))\n"
        "class Stop(Exception):\n"
        "    pass\n"
        "class Hook:\n"
        "    seen = None\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name in ('numpy', 'samsbo'):\n"
        "            names = (*runner.THREAD_VARIABLES, 'SAMSBO_OUT')\n"
        "            Hook.seen = [name, {v: os.environ.get(v) for v in names}]\n"
        "            raise Stop\n"
        "sys.meta_path.insert(0, Hook())\n"
        "try:\n"
        "    runner.main([sys.argv[2]])\n"
        "except Stop:\n"
        "    pass\n"
        "print(json.dumps([loaded, Hook.seen]))\n"
    )
    asked = {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "4", "MKL_NUM_THREADS": "4",
             "SAMSBO_OUT": str(tmp_path / "elsewhere")}
    run = subprocess.run([sys.executable, "-c", code, str(ROOT / "scripts" / "fixed_seed.py"),
                          str(tmp_path / "out")],
                         capture_output=True, text=True, env={**os.environ, **asked}, timeout=60)
    assert run.returncode == 0, run.stderr
    loaded, (first, environment) = json.loads(run.stdout)
    assert loaded == []
    assert first == "samsbo"
    assert environment == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                           "MKL_NUM_THREADS": "1", "SAMSBO_OUT": None}


def test_runner_report_reads_back_as_printed():
    runner = fixed_seed_runner()
    report = runner.Report({"cli": (172, [(12, "x = 1"), (123456, "return a  # two  spaces")]),
                            "gp": (238, [])}, 4.4)
    text = runner.format_report(report)
    assert text.splitlines()[-2:] == [
        "total: 2 of 410 statements unreached (raise statements left out)", "wall time: 4.4 s"]
    assert runner.read_report("25 files in /out\n" + text) == report


def comparer(monkeypatch):
    """scripts/compare_fixed_seed.py, loaded as a module; it imports the runner beside it."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("compare_fixed_seed")


class TestCompareFixedSeed:
    def test_csv_summary_gives_float_differences_and_first_differing_row(self, monkeypatch):
        compare = comparer(monkeypatch)
        a = "task,iteration,observed\n1,0,1.0\n1,1,2.0\n2,2,4.0\n"
        b = "task,iteration,observed\n1,0,1.0\n1,1,2.5\n1,2,3.0\n"
        assert compare.csv_summary("x.csv", a, b) == [
            "x.csv: 3 rows against 3",
            "  observed: max abs diff 1, max rel diff 0.25",
            "  first differing row 3: task 2 -> 1",
        ]
        assert compare.csv_summary("y.csv", "a,b\n1,2\n", "a,c\n1,2\n1,3\n") == [
            "y.csv: 1 rows against 2",
            "  headers differ: ['a', 'b'] against ['a', 'c']",
        ]

    def test_difference_names_each_file_and_diffs_coverage(self, tmp_path, monkeypatch):
        compare = comparer(monkeypatch)
        ref, tree = tmp_path / "ref", tmp_path / "tree"
        for side, coverage, value in ((ref, '{"rate": 0.9}\n', "1.0"),
                                      (tree, '{"rate": 0.8}\n', "1.5")):
            (side / "verify").mkdir(parents=True)
            (side / "verify" / "coverage.json").write_text(coverage)
            (side / "same.csv").write_text("observed\n1.0\n")
            (side / "run.csv").write_text(f"observed\n{value}\n")
        (ref / "gone.csv").write_text("observed\n1.0\n")
        assert compare.compare_sets(ref, tree, "abc1234") == [
            "only in abc1234: gone.csv",
            "differs: run.csv",
            "differs: verify/coverage.json",
            "--- abc1234/verify/coverage.json",
            "+++ working tree/verify/coverage.json",
            "@@ -1 +1 @@",
            '-{"rate": 0.9}',
            '+{"rate": 0.8}',
            "run.csv: 1 rows against 1",
            "  observed: max abs diff 0.5, max rel diff 0.333",
            "  every other column is identical on the common rows",
        ]
        assert compare.compare_sets(ref, ref, "abc1234") == []

    def test_statement_unreached_twice_against_once_is_named_once(self, monkeypatch):
        compare = comparer(monkeypatch)
        probe = {"fields": ["ExperimentConfig.seed"], "imports": "", "problems": ""}
        ref = compare.Report({"safeopt": (10, [(5, "return None"), (9, "return None")])}, 1.0)
        tree = compare.Report({"safeopt": (9, [(7, "return None")])}, 1.0)
        lines = compare.summary("abc1234", compare.side_facts(ROOT, probe, ref),
                                compare.side_facts(ROOT, probe, tree))
        start = lines.index("unreached statements only in abc1234:")
        assert lines[start - 1] == "unreached statements: abc1234 2 of 10, working tree 1 of 9"
        assert lines[start:] == [
            "unreached statements only in abc1234:",
            "    safeopt: return None",
            "unreached statements only in the working tree:",
            "    none",
            "statements per module where they differ:",
            "    safeopt: abc1234 10, working tree 9",
        ]

    def test_facts_count_the_problem_and_state_fields(self, monkeypatch):
        """The fresh-interpreter probe names each type with its field count and each scipy
        module the import loads, and the summary prints the types on one line per side."""
        compare = comparer(monkeypatch)
        run = subprocess.run([sys.executable, "-c", compare.FACTS, str(ROOT / "src")],
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        probe = json.loads(run.stdout)
        counts = [(cls.__name__, len(fields(cls))) for cls in (
            benchmarks.SyntheticProblem, benchmarks.LaserChainProblem, safeopt.OptimizationState,
            bounds.ScalingBundle, bounds.RobustModel, hyperposterior.EmpiricalHyperPosterior)]
        assert probe["problems"] == ", ".join(f"{name} {n}" for name, n in counts)
        assert counts[2:] == [("OptimizationState", 8), ("ScalingBundle", 4), ("RobustModel", 3),
                              ("EmpiricalHyperPosterior", 4)]
        # the scipy modules by name: the two compiled ones, without the scipy package
        assert re.fullmatch(r"\d+ modules, scipy modules scipy\.linalg\._flapack, "
                            r"scipy\.spatial\._distance_pybind, (VmHWM|ru_maxrss) \d+\.\d MB",
                            probe["imports"]), probe["imports"]
        report = compare.Report({"safeopt": (1, [])}, 1.0)
        facts = compare.side_facts(ROOT, probe, report)
        assert (f"problem, state and value fields: abc1234 {probe['problems']}, working tree "
                f"{probe['problems']}") in compare.summary("abc1234", facts, facts)

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_facts_peak_is_the_probes_own_under_a_large_parent(self, monkeypatch):
        """A parent holding over 100 MB resident does not lift the probe's peak, which
        ``ru_maxrss`` would carry across the fork and exec."""
        compare = comparer(monkeypatch)
        parent = (
            "import subprocess, sys\n"
            "held = b'x' * (128 << 20)\n"
            "with open('/proc/self/status') as status:\n"
            "    rss = next(int(line.split()[1]) for line in status if line.startswith('VmRSS:'))\n"
            "print(rss // 1024)\n"
            "sys.stdout.flush()\n"
            "subprocess.run([sys.executable, '-c', sys.argv[1], sys.argv[2]], check=True)\n"
        )
        run = subprocess.run([sys.executable, "-c", parent, compare.FACTS, str(ROOT / "src")],
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        held, probe = run.stdout.splitlines()
        assert int(held) >= 100
        peak = re.search(r", VmHWM (\d+\.\d) MB$", json.loads(probe)["imports"])
        assert peak and float(peak.group(1)) < 100.0, probe

    def test_bad_usage_or_a_ref_that_is_no_commit_exits_2(self, monkeypatch, capsys):
        compare = comparer(monkeypatch)
        assert compare.main([]) == 2
        assert compare.main(["no-such-ref-anywhere"]) == 2
        assert "no-such-ref-anywhere is not a commit" in capsys.readouterr().err


def bench_pairs(monkeypatch):
    """scripts/bench_pairs.py, loaded as a module."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module("bench_pairs")


def pair_result(value, failed=0, correct=True):
    """A run.py result line of one lower-is-better metric ``m`` and 10 operations."""
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"m": {"value": value, "unit": "s"}}}


LOWER = [{"name": "m", "unit": "s", "better": "lower", "bound": 0.2}]


class TestBenchPairs:
    def test_each_verdict(self, monkeypatch):
        verdict = bench_pairs(monkeypatch).verdict
        flat = [1.0] * 10
        assert verdict(flat, [1.3] * 10, 0.2) == "worse"
        assert verdict(flat, [0.9] * 10, 0.2) == "gain"
        # 8 of 10 pairs better is not enough for a gain
        assert verdict(flat, [0.9] * 8 + [1.0] * 2, 0.2) == "within bound"
        # better in every pair, but by less than REF's interquartile range
        spread = [0.8, 0.9, 1.0, 1.1, 1.2] * 2
        assert verdict(spread, [x - 0.05 for x in spread], 0.3) == "within bound"
        wide = [0.5, 1.0, 1.5, 2.0]
        assert verdict(wide, wide, 0.2) == "unresolved"
        assert verdict(wide, [0.4], 0.2) == "within bound"  # no run of the tree is as high
        assert verdict(flat, [1.1] * 10, 0.2) == "within bound"

    def test_ties_count_for_neither_side(self, monkeypatch):
        summarize = bench_pairs(monkeypatch).summarize
        before = {"w": [pair_result(1.0) for _ in range(10)]}
        for values, better, ruling in (([1.0] * 10, 0, "within bound"),
                                       ([0.9] * 9 + [1.0], 9, "gain"),
                                       ([0.9] * 8 + [1.0] * 2, 8, "within bound")):
            _, record = summarize("abc1234", 1, LOWER, before,
                                  {"w": [pair_result(v) for v in values]})
            entry = record["workloads"]["w"]["metrics"]["m"]
            assert (entry["tree_better"], entry["verdict"]) == (better, ruling)

    def test_a_higher_is_better_metric_flips_sign(self, monkeypatch):
        summarize = bench_pairs(monkeypatch).summarize
        higher = [{**LOWER[0], "better": "higher", "bound": 0.1}]
        before = {"w": [pair_result(1.0) for _ in range(10)]}
        lines, record = summarize("abc1234", 1, higher, before,
                                  {"w": [pair_result(1.2) for _ in range(10)]})
        assert record["workloads"]["w"]["metrics"]["m"] == {
            "ref_median": 1.0, "ref_iqr": 0.0, "tree_median": 1.2, "tree_iqr": 0.0,
            "tree_better": 10, "pairs": 10, "verdict": "gain",
            "ref_values": [1.0] * 10, "tree_values": [1.2] * 10}
        assert lines[2].split()[-3:] == ["+20.0%", "10/10", "gain"]
        _, record = summarize("abc1234", 1, higher, before,
                              {"w": [pair_result(0.8) for _ in range(10)]})
        entry = record["workloads"]["w"]["metrics"]["m"]
        assert (entry["tree_better"], entry["verdict"]) == (0, "worse")

    def test_a_missing_value_or_pair_is_not_measured(self, monkeypatch):
        summarize = bench_pairs(monkeypatch).summarize
        before = {"w": [pair_result(1.0), pair_result(1.0)]}
        for after in ([pair_result(1.0), pair_result(None)], [pair_result(1.0)]):
            lines, record = summarize("abc1234", 1, LOWER, before, {"w": after})
            assert "w                m            not measured on every run" in lines
            assert record["workloads"]["w"]["metrics"] == {}

    def test_record_schema_and_incorrect_runs(self, monkeypatch):
        summarize = bench_pairs(monkeypatch).summarize
        before = {"w": [pair_result(1.0), pair_result(3.0, failed=2)]}
        after = {"w": [pair_result(1.0, correct=False), pair_result(2.0)]}
        lines, record = summarize("abc1234", 101, LOWER, before, after)
        assert record == {"ref": "abc1234", "seeds": [101, 102], "workloads": {"w": {
            "metrics": {"m": {"ref_median": 2.0, "ref_iqr": 1.0, "tree_median": 1.5,
                              "tree_iqr": 0.5, "tree_better": 1, "pairs": 2,
                              "verdict": "unresolved", "ref_values": [1.0, 3.0],
                              "tree_values": [1.0, 2.0]}},
            "failed_ref": [0, 2], "incorrect_ref": [],
            "failed_tree": [0, 0], "incorrect_tree": [101]}}}
        assert lines[0] == "2 alternated pair(s), seeds 101-102: abc1234 against the working tree"
        assert lines[-4:] == [
            "w                failed operations of abc1234: 2 of 20 (per pair [0, 2])",
            "w                incorrect runs of abc1234: none",
            "w                failed operations of tree: 0 of 20 (per pair [0, 0])",
            "w                incorrect runs of tree: seeds [101]",
        ]

    def test_only_all_from_seed_1_writes_the_plain_record(self, monkeypatch):
        name = bench_pairs(monkeypatch).record_name
        assert name("abc1234", "all", 1) == "BENCH_abc1234.json"
        assert name("abc1234", "all", 101) == "BENCH_abc1234_all_101.json"
        assert name("abc1234", "safeucb-branin", 1) == "BENCH_abc1234_safeucb-branin_1.json"

    def test_run_reads_the_last_line_from_the_sides_root(self, tmp_path, monkeypatch):
        pairs = bench_pairs(monkeypatch)
        monkeypatch.setattr(pairs, "WORK", tmp_path / "pairs")
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(
            "import json, os, sys\n"
            "print('== progress')\n"
            "print(json.dumps({'argv': sys.argv[1:], 'cwd': os.getcwd()}))\n")
        result = pairs.run("ref", tmp_path, "w", 3, 34)
        assert result == {"argv": ["--workload", "w", "--seed", "3", "--seconds", "34",
                                   "--trace", "0"], "cwd": str(tmp_path)}
        kept = (tmp_path / "pairs" / "ref" / "seed3" / "w.txt").read_text()
        assert kept.startswith("== progress\n")

    def test_sides_alternate_and_the_record_is_named_by_what_ran(self, tmp_path, monkeypatch,
                                                                  capsys):
        pairs = bench_pairs(monkeypatch)
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 34, "end_to_end": LOWER,
            "workloads": [{"name": "w2"}, {"name": "w1"}]}))
        monkeypatch.setattr(pairs, "ROOT", tmp_path)
        monkeypatch.setattr(pairs, "WORK", tmp_path / "pairs")

        def export(ref, paths, dest):
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            return "abc1234" + "0" * 33

        calls = []

        def run(side, root, workload, seed, seconds):
            calls.append((seed, side, workload))
            assert root == {"ref": tmp_path / "pairs" / "ref", "tree": tmp_path}[side]
            return pair_result(1.0)

        monkeypatch.setattr(pairs, "export_commit", export)
        monkeypatch.setattr(pairs, "run", run)
        assert pairs.main(["HEAD", "2", "all", "5"]) == 0
        assert calls == [(5, "ref", "w2"), (5, "ref", "w1"), (5, "tree", "w2"),
                         (5, "tree", "w1"), (6, "tree", "w2"), (6, "tree", "w1"),
                         (6, "ref", "w2"), (6, "ref", "w1")]
        record = json.loads((tmp_path / "BENCH_abc1234_all_5.json").read_text())
        assert (record["seeds"], list(record["workloads"])) == ([5, 6], ["w2", "w1"])
        assert capsys.readouterr().out.endswith(
            f"summary written to {tmp_path / 'BENCH_abc1234_all_5.json'}\n")

        def failing(side, root, workload, seed, seconds):
            raise subprocess.CalledProcessError(3, "run.py")

        monkeypatch.setattr(pairs, "run", failing)
        assert pairs.main(["HEAD", "1", "w1"]) == 3
        assert not (tmp_path / "BENCH_abc1234_w1_1.json").exists()

    def test_bad_usage_or_a_ref_that_is_no_commit_exits_2(self, tmp_path, monkeypatch, capsys):
        pairs = bench_pairs(monkeypatch)
        monkeypatch.setattr(pairs, "WORK", tmp_path / "pairs")
        for argv, message in ((["HEAD"], "usage:"),
                              (["HEAD", "1", "all", "1", "extra"], "usage:"),
                              (["HEAD", "0"], "PAIRS must be a positive integer"),
                              (["HEAD", "x"], "PAIRS must be a positive integer"),
                              (["HEAD", "1", "all", "-1"], "FIRST must be a nonnegative integer"),
                              (["no-such-ref-anywhere", "1"],
                               "no-such-ref-anywhere is not a commit")):
            assert pairs.main(argv) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "pairs").exists()


def small_config(tmp_path, **overrides):
    base = dict(
        problem="branin", algorithm="samsbo", iterations=2, repetitions=2,
        seed=3, seed_points=2, out=str(tmp_path / "results"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture
def small_grid(monkeypatch):
    """A 128-point candidate grid for the loops run in this process."""
    monkeypatch.setattr(safeopt, "GRID_SIZE", 128)


class TestCmdRun:
    def test_writes_expected_files_and_schema(self, tmp_path, small_grid):
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

    def test_manifest_records_the_problem_in_use(self, tmp_path, small_grid):
        # a zero dimension is the sentinel for the problem's own
        for problem, dimension, want in (("branin", 0, (150.0, 2)),
                                         ("powell", 8, (35_000.0, 8))):
            cfg = small_config(tmp_path / problem, problem=problem, dimension=dimension,
                               iterations=0, repetitions=1)
            assert cmd_run(cfg) == 0
            manifest = json.loads((Path(cfg.out) / "manifest.json").read_text())
            assert manifest["problem"] == {"threshold": want[0], "dimension": want[1]}

    def test_zero_iterations_only_seed_rows(self, tmp_path, small_grid):
        cfg = small_config(tmp_path, iterations=0, repetitions=1)
        cmd_run(cfg)
        rows = (Path(cfg.out) / "samsbo_raw.csv").read_text().splitlines()
        assert len(rows) == 1 + cfg.seed_points

    def test_byte_identical_reruns(self, tmp_path, small_grid):
        cfg_a = small_config(tmp_path / "a")
        cfg_b = small_config(tmp_path / "b")
        cmd_run(cfg_a)
        cmd_run(cfg_b)
        for name in ("samsbo_raw.csv", "samsbo_aggregate.csv"):
            assert (Path(cfg_a.out) / name).read_bytes() == \
                (Path(cfg_b.out) / name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        # at the default grid, so that no worker needs to inherit a patch
        serial = small_config(tmp_path / "serial", jobs=1)
        parallel = small_config(tmp_path / "parallel", jobs=2)
        cmd_run(serial)
        cmd_run(parallel)
        assert (Path(serial.out) / "samsbo_raw.csv").read_bytes() == \
            (Path(parallel.out) / "samsbo_raw.csv").read_bytes()

    def test_multiple_algorithms(self, tmp_path, small_grid):
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

    def test_single_repetition_median_equals_mean(self, tmp_path, small_grid):
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

    def test_repetition_in_two_files_is_refused(self, tmp_path, monkeypatch, capsys):
        """Two runs' repetition 0 of one algorithm would splice into one curve neither had."""
        monkeypatch.delenv("SAMSBO_OUT", raising=False)
        header = ",".join(RAW_HEADER)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(header + "\n" + "".join(
            f"samsbo,0,{i},1,0.5,{v}.0,{v}.0,1.0,1,1.0,0.0,4,0\n" for i, v in enumerate((5, 4, 3))))
        b.write_text(header + "\n" + "".join(
            f"samsbo,0,{i},1,0.5,{v}.0,{v}.0,1.0,1,1.0,0.0,4,0\n" for i, v in enumerate((100, 90))))
        out = tmp_path / "plot.csv"
        message = f"{b}: line 2: samsbo repetition 0 is already in {a}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            cmd_plotdata([str(a), str(b)], str(out))
        assert main(["plotdata", str(a), str(b), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
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
    def test_env_var_overrides_out(self, tmp_path, monkeypatch, small_grid):
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("iterations = 1\nrepetitions = 1\nseed_points = 2\n")
        env_out = tmp_path / "from_env"
        monkeypatch.setenv("SAMSBO_OUT", str(env_out))
        code = main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "ignored")])
        assert code == 0
        assert (env_out / "samsbo_raw.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_env_var_out_is_created_for_plotdata(self, tmp_path, monkeypatch):
        raw = tmp_path / "raw.csv"
        raw.write_text(",".join(RAW_HEADER) + "\nalg,0,1,1,0.5,1.0,1.0,1.0,1,1.0,0.0,4,0\n")
        env_out = tmp_path / "missing" / "from_env"
        monkeypatch.setenv("SAMSBO_OUT", str(env_out))
        assert main(["plotdata", str(raw), "--out", str(tmp_path / "ignored.csv")]) == 0
        assert (env_out / "plotdata.csv").read_text().splitlines()[0] == ",".join(PLOTDATA_HEADER)
        assert not (tmp_path / "ignored.csv").exists()

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
            BAD_PROBLEMS
        for key, text in cases:
            cfg_file.write_text(text + "\n")
            assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
            assert key in capsys.readouterr().err
            assert not out.exists()          # no repetition started
        for key in REMOVED_KEYS:             # a key that is gone is named with its line
            cfg_file.write_text(f"problem = laser\n{key} = 5\n")
            assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
            assert f"line 2: unknown key {key!r}" in capsys.readouterr().err
            assert not out.exists()
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
        # eta = 1e-10 passes parsing, but its prior draw needs about 1.4e9 proposals;
        # without Bayesian trials nothing draws from the prior, so the same eta runs
        path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        for bayesian_trials, code in ((1, 2), (0, 0)):
            cfg_file = tmp_path / "cfg.txt"
            cfg_file.write_text(
                f"eta = 1e-10\nfrequentist_trials = 0\nbayesian_trials = {bayesian_trials}\n")
            out = tmp_path / f"v{bayesian_trials}"
            run = subprocess.run([sys.executable, "-m", "samsbo.cli", "verify-bounds", "--config",
                                  str(cfg_file), "--out", str(out)],
                                 capture_output=True, text=True, timeout=60,
                                 env={**os.environ, "PYTHONPATH": path, "SAMSBO_OUT": ""})
            assert run.returncode == code
            assert "Traceback" not in run.stderr
            if code:
                assert run.stderr.startswith("error: eta = 1e-10")
                assert not out.exists()
            else:
                assert (out / "coverage.json").exists()

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
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the workers must inherit the patched threshold")
        monkeypatch.delenv("SAMSBO_OUT", raising=False)
        monkeypatch.setattr(benchmarks, "BRANIN_THRESHOLD", 0.1)     # below Branin's minimum
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text("problem = branin\nrepetitions = 2\n")
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


class TestSharedDefaults:
    """The suites and the problem factories read their defaults from one statement.

    The benchmark calls them at their defaults and ``samsbo verify-bounds`` /
    ``samsbo run`` pass config values, so the two agree only if these match.
    """

    @staticmethod
    def defaults(function) -> dict:
        return {name: p.default for name, p in inspect.signature(function).parameters.items()
                if p.default is not inspect.Parameter.empty}

    def test_coverage_suites_default_to_the_config(self):
        cfg = ExperimentConfig()
        assert self.defaults(verify.frequentist_coverage) == {
            "trials": cfg.frequentist_trials, "delta": cfg.delta, "seed": cfg.seed}
        assert self.defaults(verify.bayesian_coverage) == {
            "trials": cfg.bayesian_trials, "delta": cfg.delta, "rho": cfg.rho, "eta": cfg.eta,
            "seed": cfg.seed}
        assert list(inspect.signature(verify.frequentist_coverage).parameters) == [
            "trials", "delta", "seed"]
        assert list(inspect.signature(verify.bayesian_coverage).parameters) == [
            "trials", "delta", "rho", "eta", "seed"]
        assert verify.GRID_SIZE == 200 and verify.BAYESIAN_OBSERVATIONS_PER_TASK == 20

    @pytest.mark.parametrize("name", sorted(benchmarks.PROBLEMS))
    def test_problem_factories_default_to_the_config(self, name):
        cfg = ExperimentConfig()
        defaults = self.defaults(benchmarks.PROBLEMS[name])
        assert defaults["disturbance"] == cfg.disturbance
        assert defaults["n_tasks"] == cfg.n_tasks


class TestKernelParams:
    def test_one_read_only_instance_per_dimension(self):
        first = kernel_params(2)
        assert kernel_params(2) is first
        assert kernel_params(3) is not first and kernel_params(3).dim == 3
        assert not first.lengthscales.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first.lengthscales[0] = 1.0
        with pytest.raises(FrozenInstanceError):
            first.signal_variance = 2.0


class TestBuildProblem:
    def test_each_problem_constructs(self):
        for name, factory in benchmarks.PROBLEMS.items():
            problem = build_problem(ExperimentConfig(problem=name), disturbance_seed=1)
            own = factory(disturbance_seed=1)
            assert type(problem) is type(own)
            assert problem.dimension == own.dimension
            assert problem.dimension == benchmarks.FIXED_DIMENSIONS.get(name, 4)
            assert np.array_equal(problem.signs, own.signs)
            if name not in benchmarks.FIXED_DIMENSIONS:
                wide = build_problem(ExperimentConfig(problem=name, dimension=8), 1)
                assert wide.dimension == 8
