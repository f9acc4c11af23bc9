import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from ansearch import benchmarks, cli, harness
from ansearch.harness import (ConfigError, compare, derive_run_seed, load_config,
                              parse_config_text, read_results_csv, recompute_summaries,
                              run_batch, sweep, trace, validate_config)

MINIMAL = """
algorithm = ans
functions = f1
dimensions = 30
"""

TINY = """
algorithm = ans
functions = f1,f5
dimensions = 4
runs = 3
max_evals = 400
master_seed = 321
output_dir = {out}
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def tiny_config(tmp_path, **overrides):
    config = parse_config_text(TINY.format(out=tmp_path / "out"))
    return validate_config(replace(config, **overrides)) if overrides else config


def read_tree(root):
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def test_minimal_config_defaults(tmp_path):
    config = load_config(write_config(tmp_path, MINIMAL))
    assert config.runs == 25
    assert config.budget() == 300_000
    assert config.population_size == 20
    assert config.sigma == 0.5
    assert config.across_degree == 1
    assert config.boundary_policy == "clamp"
    assert config.finner_mode == "step_down"


def test_default_budget_scales_with_dimensionality():
    config = parse_config_text("functions = f1\ndimensions = 100\n")
    assert config.budget() == 600_000
    explicit = parse_config_text("functions = f1\ndimensions = 100\nmax_evals = 1000\n")
    assert explicit.budget() == 1_000


def test_n_per_function_override():
    config = parse_config_text(
        "functions = f1,f7\ndimensions = 30\nn_per_function = f1:28\n")
    assert config.ans_params("f1").across_degree == 28
    assert config.ans_params("f7").across_degree == 1


def test_config_error_codes(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "missing.cfg")
    assert err.value.code == "missing_file"
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f1\ndimensions = 5\nthis is not a pair\n")
    assert err.value.code == "syntax"
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f1\ndimensions = 5\nswarmsize = 10\n")
    assert err.value.code == "unknown_key"
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f99\ndimensions = 5\n")
    assert err.value.code == "invalid_value"
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f1\ndimensions = 5\nruns = four\n")
    assert err.value.code == "invalid_value"
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f1\ndimensions = 5\nruns = 2\nruns = 3\n")
    assert err.value.code == "syntax"
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f1\n")  # dimensions missing
    assert err.value.code == "invalid_value"
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f1\ndimensions = 5\nacross_degree = 9\n")
    assert err.value.code == "invalid_value"
    # The superior pool is always population_size strong; no key sets it.
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f1\ndimensions = 5\nsuperior_count = 20\n")
    assert err.value.code == "unknown_key"


def test_config_comments_and_blank_lines():
    config = parse_config_text("# a comment\n\nfunctions = f1 # trailing\ndimensions = 5\n")
    assert config.functions == ("f1",)


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------

def test_seed_derivation_pure_and_distinct():
    seed = derive_run_seed(100, "ans", "f3", 7)
    assert seed == derive_run_seed(100, "ans", "f3", 7)
    variants = {
        derive_run_seed(100, "ans", "f3", 8),
        derive_run_seed(100, "pso", "f3", 7),
        derive_run_seed(100, "ans", "f4", 7),
        derive_run_seed(101, "ans", "f3", 7),
    }
    assert seed not in variants and len(variants) == 4


def test_rotation_seed_is_algorithm_independent():
    a = harness.derive_rotation_seed(55, "f13")
    assert a == harness.derive_rotation_seed(55, "f13")
    assert a != harness.derive_rotation_seed(55, "f14")
    assert a != harness.derive_rotation_seed(56, "f13")


# ---------------------------------------------------------------------------
# run_batch
# ---------------------------------------------------------------------------

def test_run_batch_files_and_budget(tmp_path):
    config = tiny_config(tmp_path)
    batch = run_batch(config)
    out = config.output_dir
    assert sorted(os.listdir(out)) == ["results_ans_f1.csv", "results_ans_f5.csv",
                                       "summary_ans.csv"]
    rows = read_results_csv(os.path.join(out, "results_ans_f1.csv"))
    assert len(rows) == 3
    for idx, seed, fit, nfe, used in rows:
        assert used <= config.budget()
        assert seed == derive_run_seed(321, "ans", "f1", idx)
        if nfe is not None:
            assert nfe <= used
    assert set(batch.summaries) == {"f1", "f5"}
    assert not batch.failures


def test_run_batch_deterministic_across_workers_and_invocations(tmp_path):
    config = tiny_config(tmp_path)
    run_batch(config, workers=1, output_dir=str(tmp_path / "a"))
    run_batch(config, workers=2, output_dir=str(tmp_path / "b"))
    run_batch(config, workers=1, output_dir=str(tmp_path / "c"))
    a, b, c = read_tree(tmp_path / "a"), read_tree(tmp_path / "b"), read_tree(tmp_path / "c")
    assert a == b == c and a


def test_run_batch_rotated_function_writes_matrix(tmp_path):
    config = tiny_config(tmp_path, functions=("f13",), dimensions=3)
    run_batch(config)
    path = os.path.join(config.output_dir, "rotation_f13_D3.txt")
    rm = benchmarks.load_rotation_matrix(path)
    assert rm.dim == 3
    assert np.max(np.abs(rm.matrix.T @ rm.matrix - np.eye(3))) < 1e-10


def test_run_batch_history_files(tmp_path):
    config = tiny_config(tmp_path, write_history=True, runs=2)
    batch = run_batch(config)
    hist = os.path.join(config.output_dir, "history_ans_f1_run0.csv")
    with open(hist) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "evals_used,global_best_fitness"
    assert len(lines) - 1 == len(batch.results["f1"][0].history)


def test_run_batch_records_failures_and_continues(tmp_path, monkeypatch):
    def boom(x):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(benchmarks._BASE_EVALUATORS, "f1", boom)
    config = tiny_config(tmp_path)
    batch = run_batch(config)
    assert len(batch.failures) == 3
    assert all(fid == "f1" for fid, _, _ in batch.failures)
    assert "f5" in batch.summaries and "f1" not in batch.summaries
    with open(os.path.join(config.output_dir, "failures.csv")) as fh:
        assert len(fh.read().splitlines()) == 4


def test_failures_csv_keeps_one_row_per_multiline_error(tmp_path, monkeypatch):
    def boom(job):
        raise ValueError("a,b\nc")

    monkeypatch.setattr(harness, "execute_job", boom)
    config = tiny_config(tmp_path, functions=("f1",), runs=1)
    batch = run_batch(config, workers=1)
    assert len(batch.failures) == 1
    with open(os.path.join(config.output_dir, "failures.csv"), newline="") as fh:
        lines = fh.read().split("\n")
    assert lines[-1] == ""
    header, row = lines[:-1]
    assert header == "function,run_index,error"
    fields = row.split(",")
    assert len(fields) == 3 and "\r" not in row
    assert fields[:2] == ["f1", "0"]


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and maps
    in this process, so no worker process is started."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_workers_clamped_to_cores_and_jobs(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "created", [])
    config = tiny_config(tmp_path, max_evals=60)  # 2 functions x 3 runs = 6 jobs
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run_batch(config, workers=1000, write_files=False)
    run_batch(config, workers=3, write_files=False)
    run_batch(config, workers=1, write_files=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    run_batch(config, workers=1000, write_files=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_batch(config, workers=1000, write_files=False)
    # cores, the request, (serial: no pool), jobs, (unknown core count: serial)
    assert RecordingPool.created == [4, 3, 6]


def test_summary_format_nfe_dashes(tmp_path):
    # f2 at this tiny budget never reaches the success threshold.
    config = tiny_config(tmp_path, functions=("f2",), max_evals=200)
    run_batch(config)
    with open(os.path.join(config.output_dir, "summary_ans.csv")) as fh:
        header, row = fh.read().splitlines()
    assert header == "function,mean,std,nfe,sr,rank"
    fields = row.split(",")
    assert fields[0] == "f2" and fields[3] == "---" and fields[4] == "0%"


def test_recompute_summaries_skips_blank_lines(tmp_path):
    config = tiny_config(tmp_path)
    run_batch(config)
    out = config.output_dir
    with open(os.path.join(out, "summary_ans.csv"), "rb") as fh:
        original = fh.read()
    path = os.path.join(out, "results_ans_f1.csv")
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join([header, rows[0], "", *rows[1:]]) + "\n\n")
    assert len(read_results_csv(path)) == 3
    found = recompute_summaries(out)
    assert set(found["ans"]) == {"f1", "f5"}
    with open(os.path.join(out, "summary_ans.csv"), "rb") as fh:
        assert fh.read() == original


def test_recompute_summaries_round_trip(tmp_path):
    config = tiny_config(tmp_path)
    run_batch(config)
    out = config.output_dir
    with open(os.path.join(out, "summary_ans.csv"), "rb") as fh:
        original = fh.read()
    found = recompute_summaries(out)
    assert set(found["ans"]) == {"f1", "f5"}
    with open(os.path.join(out, "summary_ans.csv"), "rb") as fh:
        assert fh.read() == original


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_marks_best_value(tmp_path):
    config = tiny_config(tmp_path, functions=("f1",), max_evals=600)
    rows = sweep(config, "sigma", [0.5, 12.0])
    assert [r.value for r in rows] == [0.5, 12.0]
    assert rows[0].best and not rows[1].best
    with open(os.path.join(config.output_dir, "sweep_sigma.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "function,sigma,mean,std,nfe,sr,best"
    assert len(lines) == 3


def test_sweep_rejects_invalid_values_before_running(tmp_path):
    config = tiny_config(tmp_path)
    with pytest.raises(ConfigError):
        sweep(config, "n", [10])  # exceeds dimensionality 4
    with pytest.raises(ConfigError):
        sweep(config, "w", [0.5])
    with pytest.raises(ConfigError):
        sweep(config, "n", [])
    with pytest.raises(ConfigError):
        sweep(replace(config, algorithm="de"), "n", [1])


def test_sweep_n_overrides_per_function_map(tmp_path):
    config = tiny_config(tmp_path, functions=("f1",), n_per_function={"f1": 3},
                         max_evals=200, runs=2)
    rows = sweep(config, "n", [0, 2])
    assert {r.value for r in rows} == {0, 2}


def test_sweep_population_size(tmp_path):
    config = tiny_config(tmp_path, functions=("f5",), max_evals=300, runs=2)
    rows = sweep(config, "m", [5, 10])
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_files_and_warnings(tmp_path):
    config = tiny_config(tmp_path, functions=("f7",), dimensions=2,
                         max_evals=20 * 6, max_generations=5, runs=1)
    result, snapshots, warnings = trace(config, gens=[0, 3, 9])
    out = config.output_dir
    assert sorted(os.listdir(out)) == ["trace_gen0.csv", "trace_gen3.csv"]
    assert len(warnings) == 1 and "9" in warnings[0]
    with open(os.path.join(out, "trace_gen3.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "generation,kind,index,x1,x2"
    assert len(lines) - 1 == 2 * config.population_size
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds == {"individual", "superior"}


def test_trace_initial_snapshot_is_uniform_scatter(tmp_path):
    config = tiny_config(tmp_path, functions=("f7",), dimensions=2,
                         max_evals=40, runs=1)
    _, snapshots, _ = trace(config, gens=[0])
    snap = snapshots[0]
    np.testing.assert_array_equal(snap.positions, snap.superiors)
    assert snap.positions.min() >= -5.12 and snap.positions.max() <= 5.12


def test_trace_superiors_converge_to_origin_by_generation_80(tmp_path):
    # 2-D Rastrigin with default parameters: by generation 80 every superior
    # solution of this seeded run has collapsed onto the global optimum.
    config = tiny_config(tmp_path, functions=("f7",), dimensions=2, runs=1,
                         max_evals=20 * 85, master_seed=1)
    _, snapshots, warnings = trace(config, gens=[80], write_files=False)
    assert not warnings
    superiors = snapshots[0].superiors
    assert np.max(np.abs(superiors)) < 1e-2


def test_trace_requires_ans_and_gens(tmp_path):
    config = tiny_config(tmp_path, functions=("f7",), dimensions=2)
    with pytest.raises(ConfigError):
        trace(replace(config, algorithm="pso"), gens=[1])
    with pytest.raises(ConfigError):
        trace(config, gens=[])
    with pytest.raises(ConfigError):
        trace(config, gens=None)  # no snapshot_gens configured either


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_self_is_all_approx(tmp_path):
    config = tiny_config(tmp_path, functions=("f1", "f5"))
    report = compare([config, config], reference="ans", output_dir=str(tmp_path / "cmp"))
    assert report.labels == ["ans", "ans2"]
    for fid in report.function_ids:
        assert report.verdicts["ans2"][fid].symbol == "approx"
    assert report.signed_rank_p["ans2"] == 1.0
    assert report.adjusted_p["ans2"] == 1.0
    assert report.tallies["ans2"]["approx"] == 2
    assert report.mean_rank["ans"] == report.mean_rank["ans2"] == 1.0


def test_compare_direction_against_weak_baseline(tmp_path):
    # At this budget the canonical DE is far behind on 10-D Rastrigin
    # (samples do not even overlap), so the peer verdict must be "minus".
    ans_config = tiny_config(tmp_path, functions=("f7",), dimensions=10,
                             max_evals=6_000, runs=5)
    de_config = replace(ans_config, algorithm="de", de_pop_size=50)
    report = compare([ans_config, de_config], reference="ans",
                     output_dir=str(tmp_path / "cmp"))
    assert report.verdicts["de"]["f7"].symbol == "minus"
    assert report.overall_rank["ans"] == 1
    assert sum(report.tallies["de"].values()) == 1
    out = tmp_path / "cmp"
    for name in ("comparison.csv", "ranks.csv", "verdicts.csv", "posthoc.csv"):
        assert (out / name).exists()
    assert (out / "ans" / "results_ans_f7.csv").exists()
    assert (out / "de" / "results_de_f7.csv").exists()


def test_compare_mean_rank_consistency(tmp_path):
    ans_config = tiny_config(tmp_path, functions=("f1", "f5"), max_evals=600, runs=3)
    pso_config = replace(ans_config, algorithm="pso", swarm_size=10)
    report = compare([ans_config, pso_config], reference="ans",
                     output_dir=str(tmp_path / "cmp2"))
    for label in report.labels:
        ranks = [report.summaries[label][fid].rank for fid in report.function_ids]
        assert report.mean_rank[label] == np.mean(ranks)
    ordered = sorted(report.labels, key=lambda l: report.mean_rank[l])
    assert report.overall_rank[ordered[0]] == 1


def test_compare_rejects_protocol_mismatch(tmp_path):
    config = tiny_config(tmp_path)
    with pytest.raises(ConfigError) as err:
        compare([config, replace(config, runs=4)])
    assert err.value.code == "protocol_mismatch"
    with pytest.raises(ConfigError) as err:
        compare([config, replace(config, max_evals=999)])
    assert err.value.code == "protocol_mismatch"
    with pytest.raises(ConfigError):
        compare([config])
    with pytest.raises(ConfigError):
        compare([config, config], reference="pso")


def test_compare_shares_rotation_across_algorithms(tmp_path):
    ans_config = tiny_config(tmp_path, functions=("f13",), dimensions=3,
                             max_evals=300, runs=2)
    de_config = replace(ans_config, algorithm="de", de_pop_size=20)
    compare([ans_config, de_config], output_dir=str(tmp_path / "cmp3"))
    a = benchmarks.load_rotation_matrix(tmp_path / "cmp3" / "ans" / "rotation_f13_D3.txt")
    b = benchmarks.load_rotation_matrix(tmp_path / "cmp3" / "de" / "rotation_f13_D3.txt")
    np.testing.assert_array_equal(a.matrix, b.matrix)


# This digest pins the report bytes of a small ans/pso/de comparison, so a
# refactor that should not change any result can be checked against it.  It
# also pins the numpy/OpenBLAS build it was computed with (rotation matrices
# come from a QR factorization).  A deliberate change of the RNG stream order
# (a STREAM_VERSION bump, ROADMAP item 3) is the only expected reason to
# update it.
GOLDEN_COMPARE_SHA256 = "487be7c45b4ed501aed44122dd80c08b386cc71d521628e425a004b096dc36d8"


def tree_sha256(root):
    digest = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(dirpath, name), root)
                   for dirpath, _, files in os.walk(root) for name in files)
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as fh:
            digest.update(rel.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def test_compare_report_golden_digest(tmp_path):
    ans = parse_config_text("algorithm = ans\nfunctions = f1,f6,f7,f13\ndimensions = 4\n"
                            "runs = 3\nmax_evals = 300\nmaster_seed = 321\n")
    configs = [ans, replace(ans, algorithm="pso"), replace(ans, algorithm="de")]
    compare(configs, reference="ans", output_dir=str(tmp_path / "cmp"))
    assert tree_sha256(tmp_path / "cmp") == GOLDEN_COMPARE_SHA256


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_stats(tmp_path, capsys):
    path = write_config(tmp_path, TINY.format(out=tmp_path / "cli_out"))
    assert cli.main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "f1" in out and "f5" in out
    assert cli.main(["stats", str(tmp_path / "cli_out")]) == 0


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 2
    bad = write_config(tmp_path, "functions = f1\ndimensions = 5\nbogus = 1\n", "bad.cfg")
    assert cli.main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_on_run_failure(tmp_path, monkeypatch, capsys):
    def boom(x):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(benchmarks._BASE_EVALUATORS, "f5", boom)
    path = write_config(tmp_path, TINY.format(out=tmp_path / "fail_out"))
    assert cli.main(["run", str(path)]) == 1
    assert "FAILED" in capsys.readouterr().err


def test_cli_sweep_trace_compare(tmp_path, capsys):
    base = TINY.format(out=tmp_path / "c_out")
    sweep_cfg = write_config(tmp_path, base, "sw.cfg")
    assert cli.main(["sweep", str(sweep_cfg), "--param", "sigma",
                     "--values", "0.4,0.6"]) == 0
    trace_cfg = write_config(
        tmp_path,
        "algorithm = ans\nfunctions = f7\ndimensions = 2\nruns = 1\n"
        f"max_evals = 120\nmaster_seed = 3\noutput_dir = {tmp_path / 't_out'}\n",
        "tr.cfg")
    assert cli.main(["trace", str(trace_cfg), "--gens", "0,2"]) == 0
    de_cfg = write_config(tmp_path, base.replace("algorithm = ans", "algorithm = de"),
                          "de.cfg")
    ans_cfg = write_config(tmp_path, base, "ans.cfg")
    assert cli.main(["compare", str(ans_cfg), str(de_cfg), "--reference", "ans",
                     "--output-dir", str(tmp_path / "cmp_out")]) == 0
    out = capsys.readouterr().out
    assert "signed-rank" in out
