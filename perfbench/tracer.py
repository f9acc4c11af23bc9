"""Tracing by wrapping the public functions of each ansearch layer.

Nothing under ``src/`` is changed: the wrappers replace module and class
attributes for the life of one :class:`Tracer` and :meth:`Tracer.uninstall`
puts the originals back.

Two levels:

* coarse: one span per call at the layer boundaries a batch crosses a few
  hundred times (``compare`` / ``run_batch``, ``execute_job``, the optimizer
  run, ``make_problem``, rotation matrices, statistics, config loading and
  report writers).  Spans are kept in memory as
  ``[name, start, end, parent_index, attrs]``.
* fine: added on top of coarse.  Objective evaluation, every ``RngStream``
  draw and the ANS position update happen hundreds of thousands to millions
  of times per batch, so they only add to counters and busy time,
  attributed to the optimizer run in progress.

A function a later version of the package no longer has is skipped and its
counters stay at zero.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

RNG_METHODS = ("uniform", "standard_gaussian", "integer", "integers", "permutation")
RUN_FUNCTIONS = {"ans": "ans_run", "pso": "pso_run", "de": "de_run"}

# Pooled sample size up to which stats.rank_sum_p_value enumerated exactly
# when this benchmark was defined; fixed here so the count keeps its meaning.
RANK_SUM_EXACT_POOLED = 20


class Tracer:
    def __init__(self, fine: bool):
        self.fine = fine
        self.spans = []
        self._open = []
        self._restore = []
        self.run_alg = None          # algorithm of the optimizer run in progress
        self.in_evaluate = False
        self.eval_calls = defaultdict(int)      # function id -> calls
        self.eval_busy = defaultdict(float)     # function id -> seconds
        self.eval_busy_by_alg = defaultdict(float)
        self.rng_calls = 0
        self.rng_calls_in_runs = 0
        self.rng_busy_in_runs = 0.0
        self.rng_busy_outside_eval = defaultdict(float)  # run algorithm -> seconds
        self.update_calls = 0
        self.update_busy = 0.0

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        from ansearch import benchmarks, core, engine, harness, stats

        for name in ("compare", "run_batch", "load_config", "write_batch_files",
                     "write_comparison_files"):
            self._patch(harness, name, lambda fn, n=name: self._span(f"harness.{n}", fn))
        self._patch(harness, "execute_job", lambda fn: self._span(
            "harness.execute_job", fn, lambda a, k: {"alg": a[0].algorithm}))
        # engine.run and baselines.pso_run / de_run, under the names harness
        # bound at import
        for alg, name in RUN_FUNCTIONS.items():
            self._patch(harness, name, lambda fn, alg=alg: self._run_span(alg, fn))
        self._patch(benchmarks, "make_problem", lambda fn: self._span(
            "benchmarks.make_problem", fn))
        # harness binds make_rotation_matrix by name for the rotation files
        for module in (benchmarks, harness):
            self._patch(module, "make_rotation_matrix", lambda fn: self._span(
                "benchmarks.make_rotation_matrix", fn))
        self._patch(stats, "rank_sum_p_value", lambda fn: self._span(
            "stats.rank_sum_p_value", fn,
            lambda a, k: {"exact": len(a[0]) + len(a[1]) <= RANK_SUM_EXACT_POOLED}))
        for name in ("wilcoxon_signed_rank", "summarize", "finner_adjust"):
            self._patch(stats, name, lambda fn, n=name: self._span(f"stats.{n}", fn))

        if self.fine:
            self._patch(core.ObjectiveProblem, "evaluate", self._count_evaluate)
            for name in RNG_METHODS:
                self._patch(core.RngStream, name, self._count_rng)
            self._patch(engine, "update_position", self._count_update)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _patch(self, owner, name, make_wrapper) -> None:
        original = getattr(owner, name, None)
        if original is None:
            return
        self._restore.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    # -- coarse spans -------------------------------------------------------

    def _span(self, name, fn, attrs=None):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1,
                      attrs(args, kwargs) if attrs else None]
            spans.append(record)
            open_.append(len(spans) - 1)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_.pop()
        return wrapper

    def _run_span(self, alg, fn):
        spans, open_ = self.spans, self._open

        def wrapper(problem, *args, **kwargs):
            record = [f"run.{alg}", 0.0, 0.0, open_[-1] if open_ else -1,
                      {"fid": problem.function_id, "evals": 0}]
            spans.append(record)
            open_.append(len(spans) - 1)
            self.run_alg = alg
            record[1] = perf_counter()
            try:
                result = fn(problem, *args, **kwargs)
                record[4]["evals"] = result.evals_used
                return result
            finally:
                record[2] = perf_counter()
                self.run_alg = None
                open_.pop()
        return wrapper

    # -- fine counters ------------------------------------------------------

    def _count_evaluate(self, fn):
        calls, busy, busy_by_alg = self.eval_calls, self.eval_busy, self.eval_busy_by_alg

        def evaluate(problem, *args, **kwargs):
            self.in_evaluate = True
            start = perf_counter()
            try:
                return fn(problem, *args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.in_evaluate = False
                fid = problem.function_id
                calls[fid] += 1
                busy[fid] += elapsed
                busy_by_alg[self.run_alg] += elapsed
        return evaluate

    def _count_rng(self, fn):
        outside_eval = self.rng_busy_outside_eval

        def draw(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.rng_calls += 1
                if self.run_alg is not None:
                    self.rng_calls_in_runs += 1
                    self.rng_busy_in_runs += elapsed
                    if not self.in_evaluate:
                        outside_eval[self.run_alg] += elapsed
        return draw

    def _count_update(self, fn):
        def update_position(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.update_busy += perf_counter() - start
                self.update_calls += 1
        return update_position

    # -- summaries ----------------------------------------------------------

    def _matching(self, name, attrs):
        for span_name, start, end, _, span_attrs in self.spans:
            if span_name == name and all(span_attrs[k] == v for k, v in attrs.items()):
                yield start, end, span_attrs

    def calls(self, name, **attrs) -> int:
        """Spans called ``name`` whose attributes include ``attrs``."""
        return sum(1 for _ in self._matching(name, attrs))

    def seconds(self, name, **attrs) -> float:
        return sum((end - start for start, end, _ in self._matching(name, attrs)), 0.0)

    def evals(self, alg=None, **attrs) -> int:
        """Evaluations used by the optimizer runs (of one algorithm, or all)."""
        algs = RUN_FUNCTIONS if alg is None else (alg,)
        return sum(a["evals"] for name in algs for _, _, a in self._matching(f"run.{name}", attrs))

    def self_seconds(self, alg) -> float:
        """Optimizer run time less objective evaluation and RNG draws."""
        return (self.seconds(f"run.{alg}") - self.eval_busy_by_alg[alg]
                - self.rng_busy_outside_eval[alg])

    def counts(self):
        """Every count this tracer keeps, for the repeat check."""
        counts = defaultdict(int)
        for name, _, _, _, attrs in self.spans:
            counts[name] += 1
            if name == "stats.rank_sum_p_value" and attrs["exact"]:
                counts["stats.rank_sum_p_value.exact"] += 1
        if self.fine:
            counts["core.evaluate.calls"] = sum(self.eval_calls.values())
            counts["core.rng.calls"] = self.rng_calls
            counts["engine.update_position.calls"] = self.update_calls
        return dict(counts)

    def run_table(self):
        """(alg, fid) -> [evals, seconds] over the optimizer runs."""
        table = defaultdict(lambda: [0, 0.0])
        for name, start, end, _, attrs in self.spans:
            if name.startswith("run."):
                entry = table[(name[4:], attrs["fid"])]
                entry[0] += attrs["evals"]
                entry[1] += end - start
        return table
