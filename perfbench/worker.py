"""One workload process: repeats a workload's harness call and checks it.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one
thread; not meant to be run by hand.  It drives the public harness API the
way ``ansearch run`` / ``ansearch compare`` do (``harness.load_config``, then
``harness.run_batch`` or ``harness.compare`` with one worker), repeats the
call until its time is used, checks every repetition's report files and
writes what it measured as JSON to ``--out``.

Tracing levels of a repetition:

* untraced: the only level with ``--trace 0``; it gives the end-to-end
  metrics.
* coarse (``--trace 1``): spans at layer boundaries; gives per-layer times.
* fine (``--trace 1``): coarse plus per-evaluation counters; gives the
  evaluate / RNG / position-update numbers, and with the untraced
  repetition of the same round the tracing overhead.

With ``--trace 1`` the three levels take turns, one repetition each per
round, so machine speed drift hits them alike.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from dataclasses import replace
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import RUN_FUNCTIONS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_ROUNDS = 200


def machine_probe() -> float:
    """Fixed pure-Python plus small-array numpy loop, the same mix of work
    the optimizers do.  Reported beside each workload to show machine speed
    drift; never used to normalise a metric."""
    import numpy as np

    start = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += (i * i) % 7
    x = np.linspace(-1.0, 1.0, 30)
    y = np.zeros(30)
    for _ in range(3_000):
        y = np.clip(x + 0.5 * np.abs(y - x), -5.0, 5.0)
        x = y * 0.999 - float(np.dot(y, y)) * 1e-6
    return perf_counter() - start


class Runner:
    def __init__(self, workload, config_paths, smoke, work_dir):
        from ansearch import harness

        self.harness = harness
        self.workload = workload
        self.config_paths = config_paths
        self.budget = workload.budget(smoke)
        self.work_dir = work_dir
        self.runs_per_rep = workload.runs * len(workload.functions) * len(workload.algorithms)
        self.rep_index = 0
        self.reference_digest = None
        self.problems = []

    def label_dirs(self, out_dir):
        if self.workload.kind == "compare":
            return [(alg, os.path.join(out_dir, alg)) for alg in self.workload.algorithms]
        return [(self.workload.algorithms[0], out_dir)]

    def call(self, configs, out_dir):
        if self.workload.kind == "compare":
            return self.harness.compare(configs, reference="ans", workers=1, output_dir=out_dir)
        return self.harness.run_batch(configs[0], workers=1, output_dir=out_dir)

    def warm_up(self):
        """One small call, so lazy imports and first-use set-up are not timed."""
        configs = [replace(self.harness.load_config(p), runs=2, max_evals=self.workload.smoke_evals)
                   for p in self.config_paths]
        out_dir = os.path.join(self.work_dir, "warm")
        self.call(configs, out_dir)
        shutil.rmtree(out_dir)

    def rep(self, tracer=None):
        """One timed repetition; returns its record."""
        out_dir = os.path.join(self.work_dir, f"rep{self.rep_index}")
        self.rep_index += 1
        if tracer is not None:
            tracer.install()
        try:
            configs = [self.harness.load_config(p) for p in self.config_paths]
            start = perf_counter()
            report = self.call(configs, out_dir)
            wall = perf_counter() - start
        except Exception as exc:  # the batch as a whole failed: record it, keep going
            self.problems.append(f"rep {self.rep_index - 1}: {type(exc).__name__}: {exc}")
            shutil.rmtree(out_dir, ignore_errors=True)
            return {"wall_s": None, "evals": 0, "attempted": self.runs_per_rep,
                    "failed": self.runs_per_rep}
        finally:
            if tracer is not None:
                tracer.uninstall()
        record = self.check(report, out_dir)
        record["wall_s"] = wall
        shutil.rmtree(out_dir)
        return record

    # -- output checks ------------------------------------------------------

    def check(self, report, out_dir):
        wl, harness, problems = self.workload, self.harness, self.problems
        tag = f"rep {self.rep_index - 1}"
        evals = failed = 0
        medians = {}
        for alg, label_dir in self.label_dirs(out_dir):
            failures_path = os.path.join(label_dir, "failures.csv")
            if os.path.exists(failures_path):
                with open(failures_path) as fh:
                    failed += sum(1 for _ in fh) - 1
            for fid in wl.functions:
                rows = harness.read_results_csv(harness.results_file(label_dir, alg, fid))
                if len(rows) != wl.runs:
                    problems.append(f"{tag}: {alg}/{fid} has {len(rows)} result rows, "
                                    f"expected {wl.runs}")
                for _, _, final, _, used in rows:
                    evals += used
                    if used != self.budget:
                        problems.append(f"{tag}: {alg}/{fid} used {used} evals, "
                                        f"budget {self.budget}")
                    if not math.isfinite(final):
                        problems.append(f"{tag}: {alg}/{fid} final fitness {final!r}")
                if rows:
                    medians[f"{alg}/{fid}"] = statistics.median(r[2] for r in rows)
        if wl.kind == "compare":
            self.check_comparison(report, tag)
        digest, size = tree_digest(out_dir)
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            problems.append(f"{tag}: report files differ from the first repetition")
        return {"evals": evals, "attempted": self.runs_per_rep, "failed": failed,
                "report_bytes": size, "medians": medians}

    def check_comparison(self, report, tag):
        n_functions = len(self.workload.functions)
        for peer, by_fid in report.verdicts.items():
            for fid, verdict in by_fid.items():
                if not 0.0 <= verdict.p_value <= 1.0:
                    self.problems.append(f"{tag}: rank-sum p {verdict.p_value!r} for {peer}/{fid}")
            if sum(report.tallies[peer].values()) != n_functions:
                self.problems.append(f"{tag}: tallies for {peer} do not sum to {n_functions}")
            for name, p in (("signed-rank", report.signed_rank_p[peer]),
                            ("adjusted", report.adjusted_p[peer])):
                if not 0.0 <= p <= 1.0:
                    self.problems.append(f"{tag}: {name} p {p!r} for {peer}")

    def check_bands(self, medians, bands):
        for key, (lo, hi) in sorted(bands.items()):
            value = medians.get(key)
            if value is None or not lo <= value <= hi:
                self.problems.append(f"median final fitness of {key} is {value!r}, "
                                     f"outside its band [{lo:.6g}, {hi:.6g}]")


def tree_digest(directory):
    """SHA-256 over every file's relative path and bytes, and the total size."""
    digest = hashlib.sha256()
    size = 0
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, directory).encode() + b"\0" + data + b"\0")
            size += len(data)
    return digest.hexdigest(), size


def run_rounds(runner, seconds, levels, min_rounds):
    """Repeat rounds of one repetition per tracing level (None untraced,
    False coarse, True fine) until the next round would overrun
    ``seconds``.  Interleaving the levels exposes them to the same machine
    speed drift.  Returns level -> records."""
    records = {level: [] for level in levels}
    round_walls = []
    start = perf_counter()
    while len(round_walls) < MAX_ROUNDS:
        round_start = perf_counter()
        for level in levels:
            tracer = None if level is None else Tracer(level)
            record = runner.rep(tracer)
            record["tracer"] = tracer
            records[level].append(record)
        round_walls.append(perf_counter() - round_start)
        if (len(round_walls) >= min_rounds
                and perf_counter() - start + statistics.median(round_walls) > seconds):
            break
    return records


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def per_layer(untraced, coarse, fine, probe, report_bytes):
    """Per-layer metrics from the traced repetitions.

    Counts come from the first repetition (they repeat exactly, see
    ``counts_problems``).  Times are medians over the repetitions of the
    lightest tracing that yields them: coarse spans for everything at a
    layer boundary, fine counters only for what happens per evaluation.
    """
    coarse = [r["tracer"] for r in coarse if r["wall_s"] is not None]
    overheads = [f["wall_s"] / u["wall_s"] - 1.0 for u, f in zip(untraced, fine)
                 if u["wall_s"] is not None and f["wall_s"] is not None]
    fine = [r["tracer"] for r in fine if r["wall_s"] is not None]
    if not coarse or not fine:
        return {}
    first, first_fine = coarse[0], fine[0]

    def span_s(name, **attrs):
        return median(t.seconds(name, **attrs) for t in coarse)

    def per_call_ms(name):
        calls = first.calls(name)
        return 1e3 * span_s(name) / calls if calls else 0.0

    def fine_us_per_eval(busy, alg=None, **attrs):
        return 1e6 * median(busy(t) / t.evals(alg, **attrs) for t in fine
                            if t.evals(alg, **attrs))

    evaluate_calls = sum(first_fine.eval_calls.values())
    metrics = {
        "core.evaluate.calls": (evaluate_calls, "count"),
        "core.evals_per_evaluate_call": (first_fine.evals() / max(1, evaluate_calls),
                                         "evals/call"),
        "core.rng.calls": (first_fine.rng_calls, "count"),
        "core.rng.calls_per_eval": (first_fine.rng_calls_in_runs / max(1, first_fine.evals()),
                                    "calls/eval"),
        "core.rng.us_per_eval": (fine_us_per_eval(lambda t: t.rng_busy_in_runs), "us"),
        "engine.self_us_per_eval": (fine_us_per_eval(lambda t: t.self_seconds("ans"), "ans"),
                                    "us"),
        "engine.update_position.calls": (first_fine.update_calls, "count"),
        "engine.update_position.us_per_call": (
            1e6 * median(t.update_busy / t.update_calls for t in fine if t.update_calls), "us"),
        "baselines.pso.self_us_per_eval": (
            fine_us_per_eval(lambda t: t.self_seconds("pso"), "pso"), "us"),
        "baselines.de.self_us_per_eval": (
            fine_us_per_eval(lambda t: t.self_seconds("de"), "de"), "us"),
        "benchmarks.make_problem.calls": (first.calls("benchmarks.make_problem"), "count"),
        "benchmarks.make_rotation_matrix.calls": (
            first.calls("benchmarks.make_rotation_matrix"), "count"),
        "benchmarks.make_rotation_matrix.s": (span_s("benchmarks.make_rotation_matrix"), "s"),
        "stats.rank_sum_p_value.calls": (first.calls("stats.rank_sum_p_value"), "count"),
        "stats.rank_sum_p_value.exact_calls": (
            first.calls("stats.rank_sum_p_value", exact=True), "count"),
        "stats.rank_sum_p_value.ms_per_call": (per_call_ms("stats.rank_sum_p_value"), "ms"),
        "stats.wilcoxon_signed_rank.calls": (first.calls("stats.wilcoxon_signed_rank"), "count"),
        "stats.wilcoxon_signed_rank.ms_per_call": (
            per_call_ms("stats.wilcoxon_signed_rank"), "ms"),
        "stats.summarize.s": (span_s("stats.summarize"), "s"),
        "stats.finner_adjust.s": (span_s("stats.finner_adjust"), "s"),
        "harness.load_config.s": (span_s("harness.load_config"), "s"),
        "harness.execute_job.calls": (first.calls("harness.execute_job"), "count"),
        "harness.write_batch_files.s": (span_s("harness.write_batch_files"), "s"),
        "harness.write_comparison_files.s": (span_s("harness.write_comparison_files"), "s"),
        "harness.report_bytes": (report_bytes, "bytes"),
        "trace.overhead_frac": (median(overheads), "frac"),
        "machine.ref_s": (median(probe), "s"),
    }
    for alg in RUN_FUNCTIONS:
        metrics[f"harness.execute_job.s.{alg}"] = (span_s("harness.execute_job", alg=alg), "s")
    for i in range(1, 19):
        fid = f"f{i}"
        metrics[f"core.evaluate.us_per_eval.{fid}"] = (
            fine_us_per_eval(lambda t: t.eval_busy[fid], fid=fid), "us")
    return metrics


def counts_problems(records):
    """Every count must be the same in every traced repetition of a seed."""
    problems, reference = [], {}
    for record in records:
        if record["wall_s"] is None:
            continue
        for name, value in record["tracer"].counts().items():
            if reference.setdefault(name, value) != value:
                problems.append(f"count {name} changed between traced repetitions: "
                                f"{reference[name]} then {value}")
    return problems


def us_per_eval_table(coarse):
    """alg/fid -> µs per evaluation inside the optimizer run call, from the
    coarse repetitions, whose wrappers sit outside the evaluation loop."""
    totals = defaultdict(lambda: [0, 0.0])
    for record in coarse:
        if record["wall_s"] is not None:
            for (alg, fid), (evals, seconds) in record["tracer"].run_table().items():
                totals[f"{alg}/{fid}"][0] += evals
                totals[f"{alg}/{fid}"][1] += seconds
    return {key: 1e6 * s / e for key, (e, s) in sorted(totals.items()) if e}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import ansearch

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(ansearch.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported ansearch from {ansearch.__file__}, not from {src}")

    workload = WORKLOADS[args.workload]
    config_paths = [os.path.join(args.work_dir, f"{alg}.cfg") for alg in workload.algorithms]
    runner = Runner(workload, config_paths, args.smoke, args.work_dir)
    runner.warm_up()
    probe = [machine_probe() for _ in range(3)]

    if args.trace:
        by_level = run_rounds(runner, args.seconds, (None, False, True), 1)
    else:
        by_level = run_rounds(runner, args.seconds, (None,), 2)
    untraced, coarse, fine = (by_level.get(level, []) for level in (None, False, True))
    probe += [machine_probe() for _ in range(3)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = untraced + coarse + fine
    first_ok = next((r for r in records if r["wall_s"] is not None), None)
    if first_ok is not None and not args.smoke:
        with open(os.path.join(HERE, "bands.json")) as fh:
            runner.check_bands(first_ok["medians"], json.load(fh)[workload.name])

    result = {
        "reps": [{"wall_s": r["wall_s"], "evals": r["evals"]} for r in untraced],
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "peak_rss_mb": peak_rss_mb,
        "probe_s": probe,
        "medians": first_ok["medians"] if first_ok else {},
    }
    if args.trace:
        report_bytes = first_ok["report_bytes"] if first_ok else 0
        result["per_layer"] = per_layer(untraced, coarse, fine, probe, report_bytes)
        runner.problems += counts_problems(coarse + fine)
        result["us_per_eval"] = us_per_eval_table(coarse)
        result["reps_per_level"] = {"untraced": len(untraced), "coarse": len(coarse),
                                "fine": len(fine)}
    result["problems"] = runner.problems
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
