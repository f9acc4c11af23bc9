"""The benchmark's tracer finds every function it wraps.

``perfbench/tracer.py`` wraps package functions by name and silently skips a
name the package no longer has, so a rename would read 0 in a per-layer
metric and fail nothing.  This test imports the tracer (it only reads it),
traces a small run and compare, and checks that every name is there and
every count moves.
"""

import importlib.util
import os
from dataclasses import replace

from ansearch import harness

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")

# Names the tracer still asks for that stream v2 removed.
GONE = {("RngStream", "integer"), ("RngStream", "permutation")}


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_hook_and_counts_every_layer(tmp_path):
    tracer_module = load_tracer_module()
    asked = []

    class RecordingTracer(tracer_module.Tracer):
        def _patch(self, owner, name, make_wrapper):
            present = getattr(owner, name, None) is not None
            asked.append((getattr(owner, "__name__", owner).rpartition(".")[2], name, present))
            super()._patch(owner, name, make_wrapper)

    config_path = tmp_path / "ans.cfg"
    config_path.write_text("functions = f1,f6,f13\ndimensions = 3\nruns = 2\nmax_evals = 120\n"
                           f"master_seed = 9\noutput_dir = {tmp_path / 'run'}\n")
    tracer = RecordingTracer(fine=True).install()
    try:
        config = harness.load_config(config_path)
        harness.run_batch(config)
        before = tracer.evals()
        configs = [config, replace(config, algorithm="pso"), replace(config, algorithm="de")]
        harness.compare(configs, output_dir=str(tmp_path / "cmp"))
        compared = tracer.evals() - before
    finally:
        tracer.uninstall()

    missing = {(owner, name) for owner, name, present in asked if not present}
    assert missing == GONE
    assert len(asked) - len(GONE) == 21
    counts = tracer.counts()
    expected = {"harness.compare", "harness.run_batch", "harness.load_config",
                "harness.write_batch_files", "harness.write_comparison_files",
                "harness.execute_job", "run.ans", "run.pso", "run.de",
                "benchmarks.make_problem", "benchmarks.make_rotation_matrix",
                "stats.rank_sum_p_value", "stats.wilcoxon_signed_rank", "stats.summarize",
                "stats.finner_adjust", "core.evaluate.calls", "core.rng.calls",
                "engine.update_position.calls"}
    assert expected <= set(counts)
    assert all(count > 0 for count in counts.values()), counts
    # 3 algorithms x 3 functions x 2 runs x 120 evaluations
    assert compared == sum(cfg.runs * len(cfg.functions) * cfg.budget() for cfg in configs) == 2160
