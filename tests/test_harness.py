import concurrent.futures
import hashlib
import os
import subprocess
import sys
from dataclasses import fields, replace
from typing import Union, get_args, get_origin

import numpy as np
import pytest

from ansearch import benchmarks, cli, engine, harness
from ansearch.baselines import PsoParams
from ansearch.engine import AnsParams
from ansearch.harness import (ConfigError, ExperimentConfig, compare, derive_run_seed, load_config,
                              parse_config_text, read_results_csv, recompute_summaries,
                              run_batch, sweep, trace)

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
    return replace(config, **overrides) if overrides else config


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
    params = config.params_for("f1")
    assert params.population_size == 20
    assert params.sigma == 0.5
    assert params.across_degree == 1
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
    assert config.params_for("f1").across_degree == 28
    assert config.params_for("f7").across_degree == 1


def test_degree_is_checked_at_the_degree_each_function_runs_at():
    # A function's n_per_function entry replaces across_degree for it.  The
    # degree keys are read by ans alone, so a pso config that sets one is
    # refused (it was accepted and ignored).
    config = parse_config_text("functions = f1\ndimensions = 5\nacross_degree = 9\n"
                               "n_per_function = f1:2\n")
    assert config.params_for("f1").across_degree == 2
    with pytest.raises(ConfigError) as err:
        parse_config_text("algorithm = pso\nfunctions = f1\ndimensions = 5\n"
                          "across_degree = 9\n")
    assert err.value.code == "invalid_value"


def test_config_error_codes(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(tmp_path / "missing.cfg")
    assert err.value.code == "missing_file"
    # Bytes that are not UTF-8 raised UnicodeDecodeError, a traceback.
    not_text = tmp_path / "not_text.cfg"
    not_text.write_bytes(b"functions = f1\ndimensions = 3 \xff\xfe\n")
    with pytest.raises(ConfigError) as err:
        load_config(not_text)
    assert err.value.code == "syntax" and f"{not_text} line 2:" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f1\ndimensions = 5\nthis is not a pair\n")
    assert err.value.code == "syntax"
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f1\ndimensions = 5\nswarmsize = 10\n")
    assert err.value.code == "unknown_key"
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f99\ndimensions = 5\n")
    assert err.value.code == "invalid_value"
    # A repeated id would run its jobs twice and write its summary row twice.
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f1,f7,f1\ndimensions = 5\n")
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
    # max_evals is the one budget; a generation cap is the budget m * (G + 1).
    with pytest.raises(ConfigError) as err:
        parse_config_text("functions = f1\ndimensions = 5\nmax_generations = 10\n")
    assert err.value.code == "unknown_key"
    # Values the params used to accept: a negative v_max pinned every velocity
    # to -v_max, a NaN weight gave NaN trials, an infinite sigma gave
    # inf * 0 = NaN positions, and a repeated n_per_function id kept only
    # its last entry.  A negative master seed failed every run.
    for extra in ("algorithm = pso\nv_max = -1\n",
                  "algorithm = de\nweight = nan\n",
                  "sigma = inf\n",
                  "n_per_function = f1:1,f1:2\n",
                  "master_seed = -1\n",
                  # An entry for an unlisted function was accepted and never read.
                  "n_per_function = f7:3\n",
                  "across_degree = -1\n",
                  "n_per_function = f1:6\n",
                  "n_per_function = f1:-1\n"):
        with pytest.raises(ConfigError) as err:
            parse_config_text("functions = f1\ndimensions = 5\n" + extra)
        assert err.value.code == "invalid_value", extra


@pytest.mark.parametrize("overrides,message", [
    (dict(functions=("f99",)), "functions: unknown function id 'f99'"),
    (dict(functions=("f1", "f1")), "functions: function id 'f1' is repeated"),
    (dict(n_per_function={"f99": 1}), "n_per_function: unknown function id 'f99'"),
    (dict(n_per_function={"f7": 3}), "n_per_function: function id 'f7' is not in functions"),
    (dict(n_per_function={"f1": 4}), "f1: across_degree 4 exceeds dimensions 3"),
])
def test_validate_config_checks_function_ids_of_library_configs(tmp_path, overrides, message):
    # A config built in Python never meets the file parsers: an unknown id
    # used to end in a KeyError traceback or be ignored, and a repeated id
    # wrote its summary row twice.
    with pytest.raises(ConfigError) as err:
        config = ExperimentConfig(dimensions=3, output_dir=str(tmp_path / "lib"),
                                  **{"functions": ("f1",), **overrides})
        run_batch(config)
    assert err.value.code == "invalid_value" and str(err.value) == message
    assert not (tmp_path / "lib").exists()


def test_config_keeps_functions_in_number_order():
    # A function list is a set: every job, report and printout lists it in
    # one order, so stats, which reads it back from file names, rebuilds the same rows.
    config = ExperimentConfig(functions=("f7", "f1"), dimensions=3)
    assert config.functions == ("f1", "f7")
    assert replace(config, functions=("f13", "f2", "f10")).functions == ("f2", "f10", "f13")
    assert parse_config_text("functions = f10,f2,f1\ndimensions = 3\n").functions == (
        "f1", "f2", "f10")


# Each algorithm's block of keys, one valid setting a line.
BLOCK_KEYS = {
    "ans": "population_size = 10\nacross_degree = 2\nsigma = 0.4\nfrozen_superiors = true\n"
           "n_per_function = f1:2\n",
    "pso": "swarm_size = 10\ninertia = 0.6\nc1 = 1.5\nc2 = 1.5\nv_max = 1.0\n",
    "de": "pop_size = 10\nweight = 0.6\ncrossover = 0.5\n",
}
FOREIGN_KEYS = [pytest.param(alg, line, id=f"{alg}-{line.split()[0]}")
                for alg in BLOCK_KEYS for other, block in BLOCK_KEYS.items()
                if other != alg for line in block.splitlines()]
# An empty n_per_function is still the key of another block: it was accepted.
FOREIGN_KEYS += [pytest.param(alg, "n_per_function =", id=f"{alg}-n_per_function-empty")
                 for alg in ("pso", "de")]


def test_each_block_is_valid_for_its_own_algorithm():
    for alg, block in BLOCK_KEYS.items():
        config = parse_config_text(f"algorithm = {alg}\nfunctions = f1\ndimensions = 5\n" + block)
        params = config.params_for("f1")
        assert type(params) is harness.PARAMS[alg]
        assert params.max_evals == config.budget()
        for line in block.splitlines():
            key = line.split(" = ")[0]
            assert key == "n_per_function" or key in config.params, key


@pytest.mark.parametrize("alg,line", FOREIGN_KEYS)
def test_key_of_another_algorithm_is_refused(tmp_path, capsys, alg, line):
    # A pso config that set sigma, or a de config that set population_size,
    # was accepted and the key ignored.
    path = write_config(tmp_path, f"algorithm = {alg}\nfunctions = f1\ndimensions = 5\n"
                                  f"runs = 2\nmax_evals = 50\noutput_dir = {tmp_path / 'out'}\n"
                                  + line + "\n")
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    key = line.split("=")[0].strip()
    assert err == f"config error [invalid_value]: {key}: not a parameter of the {alg} algorithm\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["de_pop_size", "de_weight", "de_crossover"])
def test_old_de_key_spellings_are_unknown(key):
    # DE's keys are its DeParams field names; an old spelling must not be
    # read as something else.
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"algorithm = de\nfunctions = f1\ndimensions = 5\n{key} = 20\n")
    assert err.value.code == "unknown_key" and repr(key) in str(err.value)


@pytest.mark.parametrize("params,named", [({"max_evals": 5}, "max_evals"),
                                          ({"bogus": 1}, "bogus"),
                                          ({"sigma": "x"}, None),
                                          ({"population_size": 5.0}, None),
                                          ({"frozen_superiors": "no"}, None),
                                          ({"sigma": True}, None)])
def test_library_config_params_are_checked(tmp_path, params, named):
    # A config built in Python holds any params mapping: the budget is the
    # config's max_evals, and a value of a wrong type raised a TypeError, or
    # failed every run (population_size = 5.0), or ran as a truthy value
    # ("no" for frozen_superiors, True for sigma).
    with pytest.raises(ConfigError) as err:
        config = ExperimentConfig(functions=("f1",), dimensions=3,
                                  output_dir=str(tmp_path / "lib"), params=params)
        run_batch(config)
    assert err.value.code == "invalid_value"
    if named:
        assert str(err.value) == f"{named}: not a parameter of the ans algorithm"
    else:   # refused by the type of its field
        (key, value), = params.items()
        assert str(err.value).startswith(f"{key}: expected ")
        assert str(err.value).endswith(f", got {value!r}")
    assert not (tmp_path / "lib").exists()


@pytest.mark.parametrize("key,value,noun", [("master_seed", 1.5, "an integer"),
                                            ("master_seed", True, "an integer"),
                                            ("runs", 2.5, "an integer"),
                                            ("dimensions", 3.0, "an integer"),
                                            ("write_history", "no", "true/false"),
                                            ("f8_narrow_range", "no", "true/false"),
                                            ("functions", ["f1"], "a tuple"),
                                            ("functions", "f1", "a tuple"),
                                            ("params", None, "a dict")])
def test_config_fields_are_checked_against_their_types(tmp_path, key, value, noun):
    # The config's own fields had no type check: master_seed 1.5 or True ran
    # as 1, runs = 2.5 ran 3 runs, write_history = "no" wrote history files,
    # and dimensions = 3.0 failed every run with a TypeError.  A list of ids
    # was taken, then failed compare against a tuple of them (protocol_mismatch),
    # the ids of a string were its letters, and params None was a TypeError.
    valid = ExperimentConfig(functions=("f1",), dimensions=3, runs=2, max_evals=50,
                             output_dir=str(tmp_path / "lib"))
    with pytest.raises(ConfigError) as built:
        run_batch(ExperimentConfig(**{**vars(valid), key: value}))
    with pytest.raises(ConfigError) as replaced:
        run_batch(replace(valid, **{key: value}))
    for err in (built, replaced):
        assert err.value.code == "invalid_value"
        assert str(err.value) == f"{key}: expected {noun}, got {value!r}"
    assert not (tmp_path / "lib").exists()


def test_config_takes_numpy_integers(tmp_path):
    config = tiny_config(tmp_path, dimensions=np.int64(4), runs=np.int64(3),
                         master_seed=np.int64(321))
    assert run_batch(config).summaries == run_batch(tiny_config(tmp_path)).summaries


def test_every_config_field_type_is_in_the_type_table():
    # check_field_types checks a tuple or dict field's type, not its contents,
    # which are checked where they are read; every type must be in the table.
    for cls in (ExperimentConfig, *harness.PARAMS.values()):
        for name, hint in engine._type_hints(cls).items():
            kinds = get_args(hint) if get_origin(hint) is Union else (hint,)
            assert all((get_origin(kind) or kind) in engine._KINDS
                       for kind in kinds), f"{cls.__name__}.{name}: {hint}"


def test_params_fields_are_checked_against_their_types(tmp_path, capsys):
    # numpy integers are integers, and an int is a number.
    assert PsoParams(swarm_size=np.int64(10)).swarm_size == 10
    assert AnsParams(sigma=1).sigma == 1
    assert PsoParams(v_max=None).v_max is None and PsoParams(v_max=2).v_max == 2
    with pytest.raises(ValueError, match="^v_max: expected a number or None, got 'a'$"):
        PsoParams(v_max="a")
    # A swept value is checked by its field's type; the sweep's own rule
    # for m and n said "m values must be integers".
    config = tiny_config(tmp_path)
    with pytest.raises(ConfigError) as err:
        sweep(config, "m", [5.5])
    assert err.value.code == "invalid_value"
    assert str(err.value) == "population_size: expected an integer, got 5.5"
    # The CLI parses --values by the key's type, so m = 5.0 is not an integer.
    path = write_config(tmp_path, TINY.format(out=tmp_path / "out"))
    assert cli.main(["sweep", str(path), "--param", "m", "--values", "5.0"]) == 2
    assert capsys.readouterr().err == ("config error [invalid_value]: --values: expected an "
                                       "integer, got '5.0'\n")
    assert not (tmp_path / "out").exists()


def test_config_classes_share_no_field_but_max_evals():
    # parse_config_text sends each key to the config or to its params in one
    # pass, so no key may name a field of two of these classes.
    classes = (ExperimentConfig, *harness.PARAMS.values())
    names = [f.name for cls in classes for f in fields(cls) if f.name != "max_evals"]
    assert len(names) == len(set(names))
    assert all("max_evals" in {f.name for f in fields(cls)} for cls in classes)


def read_readme():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        return fh.read()


def test_readme_example_config_parses():
    block = read_readme().split("```ini\n", 1)[1].split("```", 1)[0]
    config = parse_config_text(block)
    assert config.functions == ("f7", "f9") and config.params_for("f9").across_degree == 28


def test_readme_config_keys_table_names_every_config_field():
    # Each key is read off its field of ExperimentConfig or of a params
    # class; the README table must name exactly those keys.
    section = read_readme().split("### Config keys", 1)[1].split("\n#", 1)[0]
    keys = [key.strip().strip("`") for line in section.splitlines()
            if line.startswith("| `") for key in line.split("|")[1].split(",")]
    assert sorted(keys) == sorted(harness._KEY_PARSERS)


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
    # The algorithm's word is its place in harness.ALGORITHMS plus one.
    assert {alg: derive_run_seed(12345, alg, "f1", 0) for alg in harness.ALGORITHMS} == {
        "ans": 4452639812908418939, "pso": 8664862668333624240, "de": 2634360631818402142}


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


# Lockstep runs: every run keeps its own stream, so a run's result must not
# depend on which runs share its call, nor on how runs are split over workers.
LOCKSTEP_CASES = [
    ("ans", dict(params={"frozen_superiors": True}, boundary_policy="none", max_evals=107)),
    ("ans", dict(max_evals=20 * 121, n_per_function={"f13": 3})),
    ("pso", dict(boundary_policy="none", max_evals=107)),
    ("pso", dict(max_evals=12 * 301, params={"swarm_size": 12})),
    ("de", dict(boundary_policy="none", params={"pop_size": 12}, max_evals=107)),
    ("de", dict(max_evals=12 * 351, params={"pop_size": 12})),
]


def lockstep_config(alg, overrides):
    base = parse_config_text("functions = f6,f13\ndimensions = 3\nruns = 4\nmaster_seed = 8\n"
                             "write_history = true\n")
    return replace(base, algorithm=alg, **overrides)


@pytest.mark.parametrize("alg,overrides", LOCKSTEP_CASES)
def test_lockstep_batch_matches_one_run_batches(alg, overrides):
    successes = 0
    for job in harness._make_jobs(lockstep_config(alg, overrides)):
        together = harness.execute_job(job).runs
        assert len(together) == 4
        for idx, result in zip(job.run_indices, together):
            alone = harness.execute_job(replace(job, run_indices=(idx,))).runs[0]
            assert result.best_fitness == alone.best_fitness
            np.testing.assert_array_equal(result.best_position, alone.best_position)
            assert result.evals_to_success == alone.evals_to_success
            assert result.history == alone.history
            successes += result.evals_to_success is not None
    if overrides["max_evals"] > 107:
        assert successes  # the long runs exercise the first-success record too


@pytest.mark.parametrize("alg", ["pso", "de"])
def test_run_batch_worker_count_invariant_for_baselines(tmp_path, alg):
    size_key = {"pso": "swarm_size", "de": "pop_size"}[alg]
    config = lockstep_config(alg, dict(max_evals=250, params={size_key: 12}))
    run_batch(config, workers=1, output_dir=str(tmp_path / "w1"))
    run_batch(config, workers=2, output_dir=str(tmp_path / "w2"))
    one, two = read_tree(tmp_path / "w1"), read_tree(tmp_path / "w2")
    assert one == two and len(one) == 12


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

    monkeypatch.setitem(benchmarks.SPECS, "f1", replace(benchmarks.SPECS["f1"], function=boom))
    config = tiny_config(tmp_path)
    batch = run_batch(config)
    assert len(batch.failures) == 3
    assert all(fid == "f1" for fid, _, _ in batch.failures)
    assert "f5" in batch.summaries and "f1" not in batch.summaries
    with open(os.path.join(config.output_dir, "failures.csv")) as fh:
        assert len(fh.read().splitlines()) == 4


def test_clean_rerun_removes_a_stale_failures_csv(tmp_path, monkeypatch, capsys):
    # A failed batch's failures.csv survived a clean rerun into the same
    # directory, listing runs that no longer failed, while the rerun exited 0.
    def boom(x):
        raise RuntimeError("synthetic failure")

    out = tmp_path / "out"
    path = write_config(tmp_path, TINY.format(out=out))
    # f1's 3 runs fail, once in the run and once per value in the sweep.
    for argv, failed in ((["run", str(path)], 3),
                         (["sweep", str(path), "--param", "m", "--values", "5,10"], 6)):
        with monkeypatch.context() as patch:
            patch.setitem(benchmarks.SPECS, "f1", replace(benchmarks.SPECS["f1"], function=boom))
            assert cli.main(argv) == 1, argv
        assert len(read_lines(out / "failures.csv")) == 1 + failed, argv
        assert cli.main(argv) == 0, argv
        assert not (out / "failures.csv").exists(), argv
    capsys.readouterr()


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


def test_import_loads_no_process_pool():
    # A serial batch never starts a pool, so importing the package (and the
    # CLI) must not pay for concurrent.futures.process and multiprocessing.
    code = ("import sys, ansearch\nfrom ansearch import cli, harness\n"
            "print('concurrent.futures.process' in sys.modules)")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


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
    # The harness imports the pool class only when a pool runs.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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

    # A sweep and a compare each start one pool, without run_batch; a config
    # checks itself when built, so a sweep builds one per value and a compare
    # none.  With at least as many (config, function) pairs as workers, each
    # job holds all of a function's runs.
    monkeypatch.setattr(RecordingPool, "created", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    compared = [config, replace(config, algorithm="pso"), replace(config, algorithm="de")]
    jobs, built = [], []
    execute_job = harness.execute_job
    monkeypatch.setattr(harness, "execute_job", lambda job: jobs.append(job) or execute_job(job))
    post_init = ExperimentConfig.__post_init__
    monkeypatch.setattr(ExperimentConfig, "__post_init__",
                        lambda cfg: built.append(cfg) or post_init(cfg))
    monkeypatch.setattr(harness, "run_batch", None)
    sweep(config, "sigma", [0.4, 0.6], workers=2)
    compare(compared, workers=2, output_dir=str(tmp_path / "cmp"))
    assert RecordingPool.created == [2, 2]
    assert len(built) == 2
    assert len(jobs) == 2 * 2 + 3 * 2
    assert all(job.run_indices == (0, 1, 2) for job in jobs)


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


RESULTS_HEADER = "run_index,seed,final_fitness,evals_to_success,evals_used\n"
MALFORMED_RESULTS = {
    # name: (file text, line named in the error)
    "wrong_header": ("run,seed,fitness\n0,1,2.0\n", 1),
    "too_few_fields": (RESULTS_HEADER + "0,11,1.5,,400\n1,12,2.5,400\n", 3),
    "non_numeric_field": (RESULTS_HEADER + "0,11,1.5,,400\n1,12,low,,400\n", 3),
    # A repeated run counted twice: stats wrote mean 1.666667 for two runs of mean 2.
    "repeated_run_index": (RESULTS_HEADER + "0,11,1.0,,400\n0,11,1.0,,400\n1,12,3.0,,400\n", 3),
    # The byte 0xff, which is not UTF-8, raised UnicodeDecodeError.
    "not_utf8": (RESULTS_HEADER + "0,11,1.0,,400\n1,12,3.0\udcff,,400\n", 3),
    # No run writes the rows below; stats summarized each and exited 0.
    "nan_final_fitness": (RESULTS_HEADER + "0,11,1.0,,400\n1,12,nan,,400\n", 3),
    "negative_evals_used": (RESULTS_HEADER + "0,11,1.0,,-3\n", 2),
    "success_after_budget": (RESULTS_HEADER + "0,11,1.0,500,100\n", 2),
    "success_at_zero": (RESULTS_HEADER + "0,11,1.0,0,100\n", 2),
    # A run's best never rises after the evaluation that succeeded.
    "success_above_threshold": (RESULTS_HEADER + "0,11,5.0,40,400\n", 2),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RESULTS))
def test_stats_rejects_malformed_results_file(tmp_path, capsys, case):
    text, line = MALFORMED_RESULTS[case]
    path = tmp_path / "results_ans_f1.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))   # "\udcff" is the byte 0xff
    with pytest.raises(ConfigError) as err:
        read_results_csv(str(path))
    assert err.value.code == "syntax" and f"{path} line {line}:" in str(err.value)
    assert cli.main(["stats", str(tmp_path)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["results_ans_f1.csv"]


def test_stats_accepts_an_infinite_final_fitness(tmp_path):
    # A run whose every evaluation was NaN ends at +inf, and writes it.
    path = tmp_path / "results_ans_f1.csv"
    path.write_text(RESULTS_HEADER + "0,11,inf,,400\n1,12,1.0,,400\n")
    assert read_results_csv(str(path)) == [(0, 11, np.inf, None, 400), (1, 12, 1.0, None, 400)]
    assert cli.main(["stats", str(tmp_path)]) == 0
    assert (tmp_path / "summary_ans.csv").read_text().splitlines()[1].startswith("f1,INF,INF,")


def test_recompute_summaries_skips_functions_whose_runs_all_failed(tmp_path, monkeypatch):
    # A function whose every run failed leaves a header-only results file
    # and no summary row; recomputing must reproduce that summary.
    def boom(x):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(benchmarks.SPECS, "f1", replace(benchmarks.SPECS["f1"], function=boom))
    config = tiny_config(tmp_path)
    run_batch(config)
    out = config.output_dir
    assert read_results_csv(os.path.join(out, "results_ans_f1.csv")) == []
    with open(os.path.join(out, "summary_ans.csv"), "rb") as fh:
        original = fh.read()
    assert set(recompute_summaries(out)["ans"]) == {"f5"}
    with open(os.path.join(out, "summary_ans.csv"), "rb") as fh:
        assert fh.read() == original


def test_recompute_summaries_round_trip(tmp_path):
    # f5,f1 is out of number order: its summary rows used to come back swapped.
    for functions in (("f1", "f5"), ("f5", "f1")):
        config = tiny_config(tmp_path, functions=functions,
                             output_dir=str(tmp_path / "_".join(functions)))
        run_batch(config)
        out = config.output_dir
        with open(os.path.join(out, "summary_ans.csv"), "rb") as fh:
            original = fh.read()
        found = recompute_summaries(out)
        assert list(found["ans"]) == ["f1", "f5"]
        with open(os.path.join(out, "summary_ans.csv"), "rb") as fh:
            assert fh.read() == original


def test_rerun_into_a_directory_leaves_only_its_own_rows(tmp_path):
    # A second run of fewer functions and runs used to leave the first
    # run's results_ans_f7.csv and its history files behind, and stats then
    # put f7 back into the summary.
    first = tiny_config(tmp_path, functions=("f1", "f7"), write_history=True)
    second = replace(first, functions=("f1",), runs=2)
    run_batch(first)
    run_batch(second)
    run_batch(second, output_dir=str(tmp_path / "fresh"))
    assert read_tree(first.output_dir) == read_tree(tmp_path / "fresh")
    assert cli.main(["stats", first.output_dir]) == 0
    assert read_tree(first.output_dir) == read_tree(tmp_path / "fresh")


def test_rerun_keeps_another_algorithms_rows(tmp_path):
    config = tiny_config(tmp_path, functions=("f13",), dimensions=3, runs=2, max_evals=100)
    run_batch(config)
    run_batch(replace(config, algorithm="pso"))
    run_batch(replace(config, runs=3))
    names = sorted(os.listdir(config.output_dir))
    assert names == ["results_ans_f13.csv", "results_pso_f13.csv", "rotation_f13_D3.txt",
                     "summary_ans.csv", "summary_pso.csv"]
    assert len(read_results_csv(os.path.join(config.output_dir, "results_pso_f13.csv"))) == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_marks_best_value(tmp_path):
    config = tiny_config(tmp_path, functions=("f1",), max_evals=600)
    rows, failures = sweep(config, "sigma", [0.5, 12.0])
    assert failures == []
    assert [r.value for r in rows] == [0.5, 12.0]
    assert rows[0].best and not rows[1].best
    with open(os.path.join(config.output_dir, "sweep_sigma.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "function,sigma,mean,std,nfe,sr,best"
    assert len(lines) == 3


def test_sweep_values_written_exactly(tmp_path):
    config = tiny_config(tmp_path, functions=("f1",), max_evals=100, runs=2)
    sweep(config, "sigma", [0.5, 0.1234567, 2.0])
    with open(os.path.join(config.output_dir, "sweep_sigma.csv")) as fh:
        values = [line.split(",")[1] for line in fh.read().splitlines()[1:]]
    assert values == ["0.5", "0.1234567", "2"]


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
    rows, _ = sweep(config, "n", [0, 2])
    assert {r.value for r in rows} == {0, 2}


def test_sweep_population_size(tmp_path):
    config = tiny_config(tmp_path, functions=("f5",), max_evals=300, runs=2)
    rows, _ = sweep(config, "m", [5, 10])
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_files_and_warnings(tmp_path):
    config = tiny_config(tmp_path, functions=("f7",), dimensions=2,
                         max_evals=20 * 6, runs=1)
    result, snapshots, warnings = trace(config, gens=[0, 3, 9])
    out = config.output_dir
    assert sorted(os.listdir(out)) == ["trace_gen0.csv", "trace_gen3.csv"]
    assert len(warnings) == 1 and "9" in warnings[0]
    with open(os.path.join(out, "trace_gen3.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "generation,kind,index,x1,x2"
    assert len(lines) - 1 == 2 * config.params_for("f7").population_size
    kinds = {line.split(",")[1] for line in lines[1:]}
    assert kinds == {"individual", "superior"}


def test_trace_initial_snapshot_is_uniform_scatter(tmp_path):
    config = tiny_config(tmp_path, functions=("f7",), dimensions=2,
                         max_evals=40, runs=1)
    _, snapshots, _ = trace(config, gens=[0])
    snap = snapshots[0]
    np.testing.assert_array_equal(snap.positions, snap.superiors)
    assert snap.positions.min() >= -5.12 and snap.positions.max() <= 5.12


def test_trace_budget_below_population_leaves_undrawn_rows_nan(tmp_path):
    # Initialization stops with the budget: individuals 3 and 4 are never
    # drawn, so their position and superior are written as nan.
    config = tiny_config(tmp_path, functions=("f7",), dimensions=2, runs=1,
                         max_evals=3, params={"population_size": 5})
    result, _, _ = trace(config, gens=[0])
    assert result.evals_used == 3 and result.generations == 0
    rows = read_lines(os.path.join(config.output_dir, "trace_gen0.csv"))[1:]
    assert len(rows) == 10
    for row in rows:
        _, kind, idx, *coords = row.split(",")
        assert (coords == ["nan", "nan"]) == (int(idx) >= 3), row
        assert all(-5.12 <= float(v) <= 5.12 for v in coords if v != "nan"), row
    individuals = [row.split(",", 3)[3] for row in rows[:5]]
    assert individuals == [row.split(",", 3)[3] for row in rows[5:]]


def test_trace_superiors_converge_to_origin_by_generation_80(tmp_path):
    # 2-D Rastrigin with default parameters: by generation 80 every superior
    # solution of a seeded run has collapsed onto the global optimum in
    # about four runs of five (233 of master seeds 0-299 under stream
    # version 2); the others settle at a local minimum.  So the check is a
    # rate: at a true rate of 0.777, fewer than 24 of 40 converge with
    # probability 0.003.
    converged = 0
    for seed in range(40):
        config = tiny_config(tmp_path, functions=("f7",), dimensions=2, runs=1,
                             max_evals=20 * 85, master_seed=seed)
        _, snapshots, warnings = trace(config, gens=[80])
        assert not warnings
        converged += bool(np.max(np.abs(snapshots[0].superiors)) < 1e-2)
    assert converged >= 24


def test_trace_requires_valid_gens(tmp_path):
    config = tiny_config(tmp_path, functions=("f7",), dimensions=2)
    with pytest.raises(ConfigError):
        trace(config, gens=[])
    with pytest.raises(ConfigError) as err:
        trace(config, gens=[-1, 0])
    assert err.value.code == "invalid_value"


# Per algorithm: a key of its own block with two values, and its population size key.
REGISTRY_CASES = {"ans": ("sigma", [0.4, 0.6], "population_size"),
                  "pso": ("inertia", [0.6, 0.7], "swarm_size"),
                  "de": ("crossover", [0.5, 0.9], "pop_size")}


@pytest.mark.parametrize("alg", harness.ALGORITHMS)
def test_sweep_and_trace_serve_every_algorithm(tmp_path, alg):
    # sweep and trace refused pso and de.
    key, values, size_key = REGISTRY_CASES[alg]
    config = tiny_config(tmp_path, algorithm=alg, runs=2, max_evals=300)
    rows, failures = sweep(config, key, values)
    assert failures == []
    assert [(r.function_id, r.value) for r in rows] == [(fid, v) for fid in ("f1", "f5")
                                                        for v in values]
    assert read_lines(os.path.join(config.output_dir, f"sweep_{key}.csv"))[0] == \
        f"function,{key},mean,std,nfe,sr,best"
    # A trace is run 0 of the batch of its config, bit for bit.
    one = replace(config, functions=("f7",), dimensions=2, output_dir=str(tmp_path / "tr"))
    result, snapshots, warnings = trace(one, gens=[0, 2])
    run0 = run_batch(one, write_files=False).results["f7"][0]
    assert result.best_fitness.hex() == run0.best_fitness.hex()
    np.testing.assert_array_equal(result.best_position, run0.best_position)
    size = getattr(one.params_for("f7"), size_key)
    assert warnings == [] and [snap.generation for snap in snapshots] == [0, 2]
    for snap in snapshots:
        assert snap.positions.shape == snap.superiors.shape == (size, 2)
        assert len(read_lines(tmp_path / "tr" / f"trace_gen{snap.generation}.csv")) == 1 + 2 * size


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
    de_config = replace(ans_config, algorithm="de", params={"pop_size": 50})
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
    # One budget at population sizes 20 (ans), 30 (pso) and 100 (de).
    equal = replace(ans_config, max_evals=250)
    for name, configs in (
            ("cmp2", [ans_config, replace(ans_config, algorithm="pso",
                                          params={"swarm_size": 10})]),
            ("cmp3", [equal, replace(equal, algorithm="pso"), replace(equal, algorithm="de")])):
        report = compare(configs, reference="ans", output_dir=str(tmp_path / name))
        for label in report.labels:
            ranks = [report.summaries[label][fid].rank for fid in report.function_ids]
            assert report.mean_rank[label] == np.mean(ranks)
        ordered = sorted(report.labels, key=lambda l: report.mean_rank[l])
        assert report.overall_rank[ordered[0]] == 1
    # Every run of every algorithm uses exactly its budget.
    paths = sorted((tmp_path / "cmp3").glob("*/results_*.csv"))
    assert len(paths) == 6
    assert {row[4] for path in paths for row in read_results_csv(str(path))} == {250}


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
    # The rank-sum test needs two runs per algorithm.
    with pytest.raises(ConfigError) as err:
        compare([replace(config, runs=1)] * 2)
    assert err.value.code == "invalid_value"
    assert not os.path.exists(config.output_dir)


def test_compare_accepts_function_lists_in_different_orders(tmp_path):
    ans = tiny_config(tmp_path, functions=("f5", "f1"), max_evals=100, runs=2)
    pso = replace(ans, algorithm="pso", functions=("f1", "f5"))
    report = compare([ans, pso], output_dir=str(tmp_path / "cmp"))
    assert report.function_ids == ["f1", "f5"]


def test_compare_without_a_comparable_function_removes_old_comparison_files(tmp_path,
                                                                           monkeypatch):
    config = tiny_config(tmp_path, functions=("f1",), max_evals=100, runs=2)
    configs = [config, replace(config, algorithm="pso")]
    out = tmp_path / "cmp"
    compare(configs, output_dir=str(out))
    assert (out / "comparison.csv").exists()

    def boom(x):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(benchmarks.SPECS, "f1", replace(benchmarks.SPECS["f1"], function=boom))
    report = compare(configs, output_dir=str(out))
    assert report.function_ids == [] and len(report.failures["ans"]) == 2
    assert sorted(os.listdir(out)) == ["ans", "pso"]
    assert sorted(os.listdir(out / "ans")) == ["failures.csv", "results_ans_f1.csv",
                                               "summary_ans.csv"]


def test_compare_shares_rotation_across_algorithms(tmp_path):
    ans_config = tiny_config(tmp_path, functions=("f13",), dimensions=3,
                             max_evals=300, runs=2)
    de_config = replace(ans_config, algorithm="de", params={"pop_size": 20})
    compare([ans_config, de_config], output_dir=str(tmp_path / "cmp3"))
    a = benchmarks.load_rotation_matrix(tmp_path / "cmp3" / "ans" / "rotation_f13_D3.txt")
    b = benchmarks.load_rotation_matrix(tmp_path / "cmp3" / "de" / "rotation_f13_D3.txt")
    np.testing.assert_array_equal(a.matrix, b.matrix)


# This digest pins the report bytes of a small ans/pso/de comparison, so a
# refactor that should not change any result can be checked against it.  It
# also pins the numpy/OpenBLAS build it was computed with (rotation matrices
# come from a QR factorization).  A deliberate change of the RNG stream order
# (a STREAM_VERSION bump, ROADMAP item 1) is the only expected reason to
# update it.
GOLDEN_COMPARE_SHA256 = "bf9b8db8fb0bc0ad09d222250d46cebe0b27898e6545b2a3e21cfd4090c9b67e"


def tree_sha256(root, skip=()):
    """SHA-256 over every file's relative path and bytes, in path order,
    leaving out the files whose name contains a string of ``skip``."""
    digest = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(dirpath, name), root)
                   for dirpath, _, files in os.walk(root) for name in files
                   if not any(part in name for part in skip))
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as fh:
            digest.update(rel.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
def test_compare_report_golden_digest(tmp_path, workers):
    ans = parse_config_text("algorithm = ans\nfunctions = f1,f6,f7,f13\ndimensions = 4\n"
                            "runs = 3\nmax_evals = 300\nmaster_seed = 321\n")
    configs = [ans, replace(ans, algorithm="pso"), replace(ans, algorithm="de")]
    compare(configs, reference="ans", workers=workers, output_dir=str(tmp_path / "cmp"))
    assert tree_sha256(tmp_path / "cmp") == GOLDEN_COMPARE_SHA256


# Pins the run_batch report trees (results, history, summaries, rotation
# files) of ans, pso and de on the paths the compare digest does not reach:
# no box clamp, frozen superiors, a budget of whole generations (with runs
# that reach the success threshold on f5), a budget that ends during
# initialization and one that ends mid-sweep.  Same provenance and update
# rule as GOLDEN_COMPARE_SHA256.
GOLDEN_BATCH_SHA256 = "c1a52fe0e48b0e6ccbae77db3b87ba314cfee041d9ec411c8ec504e0a25a58b3"
GOLDEN_BATCH_CASES = [
    ("ans", dict(boundary_policy="none", params={"frozen_superiors": True}, max_evals=107)),
    ("ans", dict(max_evals=7)),
    ("ans", dict(max_evals=20 * 31)),
    ("pso", dict(boundary_policy="none", max_evals=107)),
    ("pso", dict(max_evals=7)),
    ("pso", dict(max_evals=30 * 26)),
    ("de", dict(boundary_policy="none", params={"pop_size": 20}, max_evals=107)),
    ("de", dict(max_evals=7)),
    ("de", dict(max_evals=20 * 31, params={"pop_size": 20})),
]


def test_batch_report_golden_digest(tmp_path):
    base = parse_config_text("functions = f1,f5,f7,f8,f13\ndimensions = 3\nruns = 2\n"
                             "master_seed = 77\nwrite_history = true\n")
    for k, (alg, overrides) in enumerate(GOLDEN_BATCH_CASES):
        config = replace(base, algorithm=alg, **overrides)
        run_batch(config, output_dir=str(tmp_path / "batch" / f"{k}_{alg}"))
    assert tree_sha256(tmp_path / "batch") == GOLDEN_BATCH_SHA256


# Pins the run_batch report trees of ans, pso and de on all 18 functions at
# D = 12 and D = 30, so every objective is pinned at sizes above the 8-term
# unrolled block of numpy's pairwise summation, f11/f12's boundary penalty
# included (a masked sum over all D columns of each row); the two digests
# above reach only f1, f5-f8 and f13 at D <= 4.  ans covers the argsort path
# (degree k > 1) of the dimension draw on f1 and f13.  Same provenance and
# update rule as GOLDEN_COMPARE_SHA256, and moved on purpose once more: the
# penalty's per-row loop became one masked reduction, which regroups its
# pairwise sum (CHANGES.md gives the old digest).
GOLDEN_ALL18_SHA256 = "e1ab3e25f7ed0e6e0b4fe447de3c047497d0c00c766d817e49bc3a4add807772"
# The same tree without the f11/f12 files, as it hashed before that move.
GOLDEN_ALL18_WITHOUT_F11_F12_SHA256 = \
    "2520f4d8d9f3992c04e9a1a7adf49c9db8434821cd8d04075f4b155b4105b55f"
GOLDEN_ALL18_CASES = [
    ("ans", dict(n_per_function={"f1": 5, "f13": 12})),
    ("pso", dict()),
    ("de", dict(params={"pop_size": 20})),
]


@pytest.fixture(scope="module")
def all18_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("all18")
    base = parse_config_text("functions = " + ",".join(benchmarks.FUNCTION_IDS) +
                             "\ndimensions = 12\nruns = 2\nmax_evals = 150\n"
                             "master_seed = 2026\nwrite_history = true\n")
    for dim in (12, 30):
        for alg, overrides in GOLDEN_ALL18_CASES:
            config = replace(base, algorithm=alg, dimensions=dim, **overrides)
            run_batch(config, output_dir=str(root / f"D{dim}_{alg}"))
    return root


def test_all18_report_golden_digest(all18_tree):
    assert tree_sha256(all18_tree) == GOLDEN_ALL18_SHA256


def test_all18_golden_move_is_confined_to_f11_f12(all18_tree):
    # Every summary and every other function's file kept its bytes.
    assert (tree_sha256(all18_tree, skip=("_f11", "_f12"))
            == GOLDEN_ALL18_WITHOUT_F11_F12_SHA256)


# Pins the report trees the three digests above do not reach: a sweep over
# sigma (with a value ``:g`` would round) and one over m, a trace with a
# generation beyond termination, and the reports of a batch whose every job
# failed with a message holding a field and a line separator.  Same
# provenance and update rule as GOLDEN_COMPARE_SHA256.
GOLDEN_SWEEP_TRACE_SHA256 = "8c172feba49d342b7b21db812b0f4824cec0e50e3dd4e70c0855be846c55c115"


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_trace_failures_golden_digest(tmp_path, monkeypatch, workers):
    root = tmp_path / "tree"
    base = parse_config_text("functions = f1,f5\ndimensions = 4\nruns = 3\nmax_evals = 300\n"
                             "master_seed = 321\n")
    sweep(replace(base, output_dir=str(root / "sweep_sigma")), "sigma", [0.5, 0.1234567, 2.0],
          workers=workers)
    sweep(replace(base, output_dir=str(root / "sweep_m")), "m", [5, 10], workers=workers)
    trace(replace(base, functions=("f7",), dimensions=2, runs=1, max_evals=120,
                  output_dir=str(root / "trace")), gens=[0, 3, 999])

    def boom(job):
        raise ValueError("a,b\nc")

    monkeypatch.setattr(harness, "execute_job", boom)
    run_batch(base, output_dir=str(root / "failed"))
    assert tree_sha256(root) == GOLDEN_SWEEP_TRACE_SHA256


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_stats(tmp_path, capsys):
    path = write_config(tmp_path, TINY.format(out=tmp_path / "cli_out"))
    assert cli.main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "f1" in out and "f5" in out
    assert cli.main(["stats", str(tmp_path / "cli_out")]) == 0


def test_cli_stats_prints_functions_in_number_order(tmp_path, capsys):
    out = tmp_path / "order_out"
    path = write_config(tmp_path, TINY.format(out=out).replace("f1,f5", "f10,f1,f2"))
    assert cli.main(["run", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["stats", str(out)]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == ["f1", "f2", "f10"]


STATS_ORDER_CONFIG = """\
algorithm = {alg}
functions = f7,f1,f13
dimensions = 3
runs = 3
max_evals = 150
master_seed = 5
output_dir = {out}
"""


def test_cli_stats_rebuilds_run_and_compare_trees_byte_for_byte(tmp_path, capsys):
    # stats used to reorder a run's summary rows to function-number order,
    # and to exit 1 on a compare directory, whose results sit in its label
    # directories.
    paths = [write_config(tmp_path, STATS_ORDER_CONFIG.format(alg=alg, out=tmp_path / "run"),
                          f"{alg}.cfg") for alg in harness.ALGORITHMS]
    assert cli.main(["run", str(paths[0])]) == 0
    assert cli.main(["compare", *map(str, paths), "--output-dir", str(tmp_path / "cmp")]) == 0
    for name in ("run", "cmp"):
        before = read_tree(tmp_path / name)
        capsys.readouterr()
        assert cli.main(["stats", str(tmp_path / name)]) == 0
        assert read_tree(tmp_path / name) == before
    lines = capsys.readouterr().out.splitlines()   # the compare's labels, each with its rows
    assert [line for line in lines if line.startswith("algorithm:")] == [
        "algorithm: ans", "algorithm: de", "algorithm: pso"]
    assert [line.split()[0] for line in lines if line[1:2].isdigit()] == ["f1", "f7", "f13"] * 3
    (tmp_path / "cmp" / "de" / "summary_de.csv").unlink()
    assert cli.main(["stats", str(tmp_path / "cmp")]) == 0
    assert read_tree(tmp_path / "cmp") == before


def test_recompute_summaries_keys_label_directories(tmp_path):
    # A subdirectory's summaries are keyed by its name, as a compare's label
    # directories are, or by name and algorithm where the name alone is ambiguous.
    config = tiny_config(tmp_path, functions=("f1",), max_evals=100, runs=2)
    pso = replace(config, algorithm="pso")
    for cfg, sub in ((config, ""), (pso, ""), (config, "ans"), (config, "ans2"),
                     (pso, "both"), (config, "both")):
        run_batch(cfg, output_dir=os.path.join(config.output_dir, sub))
    found = recompute_summaries(config.output_dir)
    assert list(found) == ["ans", "pso", "ans/ans", "ans2", "both/ans", "both/pso"]
    assert all(list(by_fid) == ["f1"] for by_fid in found.values())


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 2
    bad = write_config(tmp_path, "functions = f1\ndimensions = 5\nbogus = 1\n", "bad.cfg")
    assert cli.main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    trace_cfg = write_config(tmp_path, "functions = f7\ndimensions = 2\nruns = 1\n"
                                       f"max_evals = 60\noutput_dir = {tmp_path / 't'}\n",
                             "tr.cfg")
    sweep_cfg = write_config(tmp_path, TINY.format(out=tmp_path / "s"), "sw.cfg")
    # population_size = 1 leaves no peer for an across-search degree >= 1,
    # also when only n_per_function asks for one.
    lone_cfg = write_config(tmp_path, TINY.format(out=tmp_path / "s") + "population_size = 1\n",
                            "lone.cfg")
    neg_seed_cfg = write_config(tmp_path, TINY.format(out=tmp_path / "s").replace(
        "master_seed = 321", "master_seed = -1").replace("f1,f5", "f1,f13"), "neg.cfg")
    lone_n_cfg = write_config(tmp_path, TINY.format(out=tmp_path / "s") + "population_size = 1\n"
                              "across_degree = 0\nn_per_function = f5:1\n", "lone_n.cfg")
    # Malformed or non-integer list arguments and invalid values, before
    # anything runs.
    for argv in (["trace", str(trace_cfg), "--gens=-1,0"],
                 ["trace", str(trace_cfg), "--gens", "a"],
                 ["sweep", str(sweep_cfg), "--param", "sigma", "--values", "x"],
                 ["sweep", str(sweep_cfg), "--param", "m", "--values", "nan"],
                 ["sweep", str(sweep_cfg), "--param", "m", "--values", "5,inf"],
                 ["sweep", str(sweep_cfg), "--param", "n", "--values", "1.5"],
                 ["sweep", str(sweep_cfg), "--param", "m", "--values", "1,5"],
                 # A repeated value ran its batch again and wrote a second row.
                 ["sweep", str(sweep_cfg), "--param", "sigma", "--values", "0.5,0.5"],
                 ["sweep", str(sweep_cfg), "--param", "m", "--values", "5,5.0"],
                 ["sweep", str(sweep_cfg), "--param", "m", "--values", "5,5"],
                 # Only a key of the config's algorithm, max_evals not among them.
                 ["sweep", str(sweep_cfg), "--param", "max_evals", "--values", "100"],
                 ["sweep", str(sweep_cfg), "--param", "swarm_size", "--values", "10"],
                 ["sweep", str(sweep_cfg), "--param", "w", "--values", "0.5"],
                 ["run", str(neg_seed_cfg)],
                 ["run", str(lone_cfg)],
                 ["run", str(lone_n_cfg)]):
        assert cli.main(argv) == 2, argv
        assert "invalid_value" in capsys.readouterr().err, argv
    assert not (tmp_path / "t").exists() and not (tmp_path / "s").exists()
    assert cli.main(["stats", str(tmp_path / "no_such_dir")]) == 2
    assert "missing_file" in capsys.readouterr().err


def test_cli_rejects_workers_below_one_before_any_run(tmp_path, monkeypatch, capsys):
    # --workers 0 or below used to be accepted and run serially.
    calls = []
    monkeypatch.setattr(harness, "execute_job", calls.append)
    base = TINY.format(out=tmp_path / "out")
    cfg = write_config(tmp_path, base, "ans.cfg")
    de_cfg = write_config(tmp_path, base.replace("algorithm = ans", "algorithm = de"), "de.cfg")
    for argv in (["run", str(cfg), "--workers", "0"],
                 ["run", str(cfg), "--workers", "-3"],
                 ["sweep", str(cfg), "--param", "sigma", "--values", "0.5", "--workers", "0"],
                 ["compare", str(cfg), str(de_cfg), "--workers", "-1"]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "invalid_value" in err[0] and "workers" in err[0], argv
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("output_dir", ["file/sub", ""])
def test_cli_unmakeable_output_dir_is_a_config_error_before_any_run(tmp_path, monkeypatch,
                                                                    capsys, output_dir):
    # A directory that cannot be made used to end in a traceback after all
    # the runs were done.
    (tmp_path / "file").write_text("")
    (tmp_path / "cmp").mkdir()
    (tmp_path / "cmp" / "de").write_text("")   # compare's directory for its de batch
    calls = []
    monkeypatch.setattr(harness, "execute_job", calls.append)
    monkeypatch.setattr(harness, "ans_run", lambda *args, **kw: calls.append(args))  # trace's run
    base = TINY.format(out=tmp_path / output_dir if output_dir else "")
    cfg = write_config(tmp_path, base, "ans.cfg")
    de_cfg = write_config(tmp_path, base.replace("algorithm = ans", "algorithm = de"), "de.cfg")
    trace_cfg = write_config(tmp_path, base.replace("f1,f5", "f7"), "tr.cfg")
    for argv in (["run", str(cfg)],
                 ["sweep", str(cfg), "--param", "sigma", "--values", "0.4,0.6"],
                 ["trace", str(trace_cfg), "--gens", "0"],
                 ["compare", str(cfg), str(de_cfg)],
                 ["compare", str(cfg), str(de_cfg), "--output-dir", str(tmp_path / "cmp")]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "invalid_value" in err[0], argv
    assert calls == []
    assert os.listdir(tmp_path / "cmp" / "ans") == []   # made, but nothing written


def test_cli_exit_code_on_run_failure(tmp_path, monkeypatch, capsys):
    def boom(x):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(benchmarks.SPECS, "f5", replace(benchmarks.SPECS["f5"], function=boom))
    path = write_config(tmp_path, TINY.format(out=tmp_path / "fail_out"))
    assert cli.main(["run", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"FAILED ans f5 run {idx}: RuntimeError: synthetic failure" for idx in range(3)]


def fail_jobs(monkeypatch, fails, chunks=1):
    """Make every job ``fails(job)`` picks raise, and split each function's
    runs into ``chunks`` jobs."""
    execute_job, make_jobs = harness.execute_job, harness._make_jobs

    def flaky(job):
        if fails(job):
            raise RuntimeError("synthetic failure")
        return execute_job(job)

    monkeypatch.setattr(harness, "execute_job", flaky)
    monkeypatch.setattr(harness, "_make_jobs", lambda config, _: make_jobs(config, chunks))


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize("failed_fids,chunks", [(("f5",), 1), (("f5",), 2), (("f1", "f5"), 1)])
def test_cli_compare_reports_failed_runs(tmp_path, monkeypatch, capsys, failed_fids, chunks):
    # The chunk holding de's run 0 of a function fails: all four runs (one
    # chunk) or runs 0 and 1 (two chunks).
    fail_jobs(monkeypatch, lambda job: job.algorithm == "de" and 0 in job.run_indices
              and job.function_id in failed_fids, chunks)
    failed_runs = range(4) if chunks == 1 else range(2)
    base = TINY.format(out=tmp_path / "unused").replace("runs = 3", "runs = 4")
    ans_cfg = write_config(tmp_path, base, "ans.cfg")
    de_cfg = write_config(tmp_path, base.replace("algorithm = ans", "algorithm = de"), "de.cfg")
    out = tmp_path / "cmp"
    assert cli.main(["compare", str(ans_cfg), str(de_cfg), "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"FAILED de {fid} run {idx}: RuntimeError: synthetic failure"
        for fid in failed_fids for idx in failed_runs]
    assert read_lines(out / "de" / "failures.csv")[1:] == [
        f"{fid},{idx},RuntimeError: synthetic failure"
        for fid in failed_fids for idx in failed_runs]
    assert not (out / "ans" / "failures.csv").exists()
    # A function is compared only when de completed two runs of it.
    compared = {fid for fid in ("f1", "f5") if fid not in failed_fids or chunks == 2}
    if compared:
        rows = read_lines(out / "comparison.csv")[1:]
        assert {row.split(",")[0] for row in rows} == compared
        assert "signed-rank" in captured.out
    else:
        assert not (out / "comparison.csv").exists() and captured.out == ""


def test_cli_sweep_reports_failed_runs(tmp_path, monkeypatch, capsys):
    fail_jobs(monkeypatch, lambda job: job.function_id == "f1"
              and job.config.params.get("sigma") == 0.6)
    out = tmp_path / "sw"
    path = write_config(tmp_path, TINY.format(out=out))
    assert cli.main(["sweep", str(path), "--param", "sigma", "--values", "0.4,0.6"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"FAILED ans f1 run {idx}: sigma = 0.6: RuntimeError: synthetic failure"
        for idx in range(3)]
    assert len(read_lines(out / "failures.csv")) == 4
    # f1 has no row at the value none of its runs completed.
    rows = [line.split(",") for line in read_lines(out / "sweep_sigma.csv")[1:]]
    assert [(row[0], row[1]) for row in rows] == [("f1", "0.4"), ("f5", "0.4"), ("f5", "0.6")]
    assert rows[0][-1] == "1"


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


def test_cli_sweep_prints_values_as_the_sweep_table_writes_them(tmp_path, capsys):
    # stdout used ``:8g`` and printed 0.123457 for both of these values.
    path = write_config(tmp_path, TINY.format(out=tmp_path / "sw").replace("f1,f5", "f1"))
    assert cli.main(["sweep", str(path), "--param", "sigma",
                     "--values", "0.1234567,0.1234568"]) == 0
    printed = [line.split()[1] for line in capsys.readouterr().out.splitlines()[1:3]]
    written = [line.split(",")[1] for line in read_lines(tmp_path / "sw" / "sweep_sigma.csv")[1:]]
    assert printed == written == ["0.1234567", "0.1234568"]


def test_cli_trace_requires_gens(tmp_path, capsys):
    trace_cfg = write_config(tmp_path, "functions = f7\ndimensions = 2\nruns = 1\n"
                                       f"max_evals = 60\noutput_dir = {tmp_path / 't'}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", str(trace_cfg)])
    assert exc.value.code == 2 and "--gens" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()
