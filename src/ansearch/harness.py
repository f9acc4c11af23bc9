"""Experiment harness: config files, seed management, batch execution,
parameter sweeps, convergence traces and comparison reports.

Every run's seed is a pure function of (master_seed, algorithm, function,
run_index), so batches are bit-reproducible regardless of worker count, of
how runs are chunked into jobs, and of scheduling order.  All report files
are written with fixed ordering and explicit float formatting for
byte-stable output.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union, get_args,
                    get_origin)

import numpy as np

from . import benchmarks, engine, stats
from .baselines import DeParams, PsoParams, de_run, pso_run
from .benchmarks import FUNCTION_IDS, SPECS, make_rotation_matrix, save_rotation_matrix
from .core import BOUNDARY_POLICIES
from .engine import SUCCESS_THRESHOLD, AnsParams, RunBatch, RunResult, run as ans_run

# The one registry of algorithms: each params class declares its keys; the run
# function is <alg>_run.  The order is part of the run seeds: append new ones.
PARAMS = {"ans": AnsParams, "pso": PsoParams, "de": DeParams}
ALGORITHMS = tuple(PARAMS)
_FUNC_NUMBER = {fid: i + 1 for i, fid in enumerate(FUNCTION_IDS)}
_ROTATION_STREAM_TAG = 909090  # entropy word keeping rotation seeds apart from run seeds

DEFAULT_MASTER_SEED = 12345
DEFAULT_RUNS = 25

PAPER_NAMES = {"n": "across_degree", "m": "population_size"}   # the paper's names of AnsParams keys


class ConfigError(Exception):
    """Configuration problem; ``code`` is one of missing_file, syntax,
    invalid_value, unknown_key, protocol_mismatch."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: ``runs`` runs of ``algorithm`` per id in ``functions``
    at ``dimensions``, ``budget()`` evaluations each, seeded from
    ``master_seed``, in ``boundary_policy``'s box (``f8_narrow_range``) and
    reported in ``output_dir`` (``write_history``, ``finner_mode``).  ``params``
    holds the algorithm keys the config sets, fields of ``PARAMS[algorithm]``
    but ``max_evals``; ``n_per_function``, if set, replaces ``across_degree`` per id.
    A config checks itself when it is built (or ``replace``d): one that exists is valid."""

    functions: Tuple[str, ...]
    dimensions: int
    algorithm: str = "ans"
    runs: int = DEFAULT_RUNS
    max_evals: Optional[int] = None          # None -> dimension-based default
    master_seed: int = DEFAULT_MASTER_SEED
    output_dir: str = "results"
    boundary_policy: str = "clamp"
    finner_mode: str = "step_down"
    write_history: bool = False
    f8_narrow_range: bool = False
    n_per_function: Optional[Dict[str, int]] = None
    params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        """Each field's type first, then its value, else an ``invalid_value`` ConfigError."""
        engine.check_field_types(self, partial(ConfigError, "invalid_value"))
        if self.algorithm not in ALGORITHMS:
            raise ConfigError("invalid_value", f"algorithm must be one of {ALGORITHMS}, "
                                               f"got {self.algorithm!r}")
        # Keys the algorithm reads: max_evals is the config's; n_per_function sets across_degree.
        keys = {f.name for f in fields(PARAMS[self.algorithm])} - {"max_evals"}
        stray = [key for key in self.params if key not in keys]
        if self.n_per_function is not None and "across_degree" not in keys:
            stray.append("n_per_function")
        if stray:
            raise ConfigError("invalid_value", f"{stray[0]}: not a parameter of the "
                                               f"{self.algorithm} algorithm")
        if not self.functions:
            raise ConfigError("invalid_value", "functions: at least one function id is required")
        for i, fid in enumerate(self.functions):
            if fid not in SPECS:
                raise ConfigError("invalid_value", f"functions: unknown function id {fid!r}")
            if fid in self.functions[:i]:
                raise ConfigError("invalid_value", f"functions: function id {fid!r} is repeated")
        for fid in self.n_per_function or {}:
            if fid not in SPECS:
                raise ConfigError("invalid_value", f"n_per_function: unknown function id {fid!r}")
            if fid not in self.functions:   # it would never be read
                raise ConfigError("invalid_value", f"n_per_function: function id {fid!r} "
                                                   f"is not in functions")
        if self.dimensions < 1:
            raise ConfigError("invalid_value", "dimensions must be >= 1")
        if self.runs < 1:
            raise ConfigError("invalid_value", "runs must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("invalid_value", f"master_seed must be >= 0, got {self.master_seed}")
        if self.boundary_policy not in BOUNDARY_POLICIES:
            raise ConfigError("invalid_value", f"boundary_policy must be clamp or none, "
                                               f"got {self.boundary_policy!r}")
        if self.finner_mode not in stats.FINNER_MODES:
            raise ConfigError("invalid_value", f"finner_mode must be one of {stats.FINNER_MODES}, "
                                               f"got {self.finner_mode!r}")
        for fid in self.functions:   # each with the params, so the ans degree, it runs with
            try:
                params = self.params_for(fid)
            except ValueError as exc:
                raise ConfigError("invalid_value", str(exc)) from None
            if isinstance(params, AnsParams) and params.across_degree > self.dimensions:
                raise ConfigError("invalid_value", f"{fid}: across_degree {params.across_degree} "
                                                   f"exceeds dimensions {self.dimensions}")

    def budget(self) -> int:
        """``max_evals``, by default the params default, doubled from D = 100 on."""
        if self.max_evals is not None:
            return self.max_evals
        return engine.Params.max_evals * (2 if self.dimensions >= 100 else 1)

    def params_for(self, function_id: str) -> Union[AnsParams, PsoParams, DeParams]:
        """The algorithm's params for one function of this experiment."""
        params = dict(self.params)
        if function_id in (self.n_per_function or {}):
            params["across_degree"] = self.n_per_function[function_id]
        return PARAMS[self.algorithm](**params, max_evals=self.budget())


# ---------------------------------------------------------------------------
# Config file parsing: flat "key = value" lines, '#' comments.
# ---------------------------------------------------------------------------

def _parse_value(key, text, kind):
    """``text`` read as ``kind``, a type of the type table (``engine._KINDS``)."""
    noun, _, read = engine._KINDS[kind]
    try:
        return read(text)
    except ValueError:
        raise ConfigError("invalid_value", f"{key}: expected {noun}, got {text!r}") from None


def _parse_list(key, text, parse):
    """Comma-separated values, each read by ``parse(key, text)``."""
    return tuple(parse(key, part.strip()) for part in text.split(",") if part.strip())


def _parse_degree_map(key, text):
    mapping = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError("invalid_value", f"{key}: entries must look like f1:28, got {part!r}")
        fid, val = part.split(":", 1)
        fid = fid.strip()
        if fid in mapping:   # a dict keeps only the last entry of an id
            raise ConfigError("invalid_value", f"{key}: function id {fid!r} is repeated")
        mapping[fid] = _parse_value(key, val.strip(), int)
    return mapping


def _key_parser(hint):
    """The parser of a config key, from its field's type;
    ``Optional[X]`` reads as ``X``, ``Tuple[X, ...]`` as comma-separated X."""
    if get_origin(hint) is Union:
        hint, = (arg for arg in get_args(hint) if arg is not type(None))
    if get_origin(hint) is tuple:
        return partial(_parse_list, parse=_key_parser(get_args(hint)[0]))
    return _parse_degree_map if hint == Dict[str, int] else partial(_parse_value, kind=hint)


# A config key is a field of ExperimentConfig or of a params class: no two
# of them share a field name but max_evals, which is the config's.
_PARAM_HINTS = {name: hint for cls in PARAMS.values()
                for name, hint in engine._type_hints(cls).items() if name != "max_evals"}
_KEY_PARSERS = {name: _key_parser(hint)
                for name, hint in {**engine._type_hints(ExperimentConfig), **_PARAM_HINTS}.items()
                if name != "params"}


def parse_config_text(text: str) -> ExperimentConfig:
    values, params = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("syntax", f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigError("unknown_key", f"line {lineno}: unknown key {key!r}")
        if key in values or key in params:
            raise ConfigError("syntax", f"line {lineno}: duplicate key {key!r}")
        (params if key in _PARAM_HINTS else values)[key] = _KEY_PARSERS[key](key, val)
    for required in ("functions", "dimensions"):
        if required not in values:
            raise ConfigError("invalid_value", f"missing required key {required!r}")
    return ExperimentConfig(**values, params=params)


def _read_text(path: Union[str, os.PathLike]) -> str:
    """The text of a config or results file; bytes that are not UTF-8 are a
    ``syntax`` :class:`ConfigError` naming the file and line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError("syntax", f"{path} line {line}: not UTF-8 text ({exc.reason})") from None


def load_config(path: Union[str, os.PathLike]) -> ExperimentConfig:
    try:
        text = _read_text(path)
    except OSError as exc:
        raise ConfigError("missing_file", f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# Seeds and rotation matrices
# ---------------------------------------------------------------------------

def _derive_seed(*words: int) -> int:
    """The 64-bit seed of an entropy-word sequence; a pure function."""
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1, np.uint64)[0])


def derive_run_seed(master_seed: int, algorithm: str, function_id: str, run_index: int) -> int:
    """Independent 64-bit seed per (algorithm, function, run); pure function."""
    return _derive_seed(master_seed, ALGORITHMS.index(algorithm) + 1, _FUNC_NUMBER[function_id],
                        run_index)


def derive_rotation_seed(master_seed: int, function_id: str) -> int:
    """One rotation landscape per (experiment, function): the matrix does not
    depend on algorithm or run index, so all comparisons share it."""
    return _derive_seed(master_seed, _ROTATION_STREAM_TAG, _FUNC_NUMBER[function_id])


def _rotation(config: ExperimentConfig, function_id: str) -> Optional[benchmarks.RotationMatrix]:
    """The function's rotation matrix in this experiment; None when unrotated."""
    if not SPECS[function_id].is_rotated:
        return None
    return make_rotation_matrix(config.dimensions,
                                derive_rotation_seed(config.master_seed, function_id))


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """A contiguous chunk of one function's runs, advanced together."""

    config: ExperimentConfig
    function_id: str
    run_indices: Tuple[int, ...]

    @property
    def algorithm(self) -> str:
        return self.config.algorithm


def execute_job(job: Job, on_generation: Optional[Callable] = None) -> RunBatch:
    """The job's runs of its algorithm, with the config's params and each run's
    seed; ``on_generation`` as for :func:`engine.run_loop`."""
    config, fid = job.config, job.function_id
    problem = benchmarks.make_problem(fid, config.dimensions, rotation=_rotation(config, fid),
                                      f8_narrow_range=config.f8_narrow_range,
                                      boundary=config.boundary_policy)
    seeds = [derive_run_seed(config.master_seed, job.algorithm, fid, idx)
             for idx in job.run_indices]
    # ans_run, pso_run or de_run, looked up per call so that those names can be wrapped.
    run_fn = globals()[f"{job.algorithm}_run"]
    return run_fn(problem, config.params_for(fid), seeds, on_generation=on_generation)


def _safe_execute(job: Job) -> Tuple[List[Optional[RunResult]], Optional[str]]:
    """The job's runs and None, or, when the job failed, None per run and
    the error: a failure fails every run of its chunk."""
    try:
        return execute_job(job).runs, None
    except Exception as exc:  # recorded, batch continues
        return [None] * len(job.run_indices), f"{type(exc).__name__}: {exc}"


def _make_jobs(config: ExperimentConfig, chunks: int = 1) -> List[Job]:
    """One job per function and contiguous chunk of its runs.  Every run
    keeps its own seed, so the chunking changes no result."""
    return [Job(config, fid, tuple(int(idx) for idx in part))
            for fid in config.functions
            for part in np.array_split(np.arange(config.runs), min(chunks, config.runs))]


@dataclass
class BatchResult:
    algorithm: str
    results: Dict[str, List[Optional[RunResult]]]
    summaries: Dict[str, stats.FunctionSummary]
    failures: List[Tuple[str, int, str]]


def _run_configs(configs: Sequence[ExperimentConfig], workers: int,
                 out_dirs: Sequence[str] = ()) -> List[BatchResult]:
    """The batch of each config, in order, from one job list run through one
    pool, after checking ``workers`` and making ``out_dirs``.  A job holds all
    of a function's runs; only when there are fewer (config, function) pairs
    than workers is each cut into ``ceil(workers / pairs)`` contiguous chunks,
    so that no worker idles."""
    if workers < 1:
        raise ConfigError("invalid_value", f"workers must be >= 1, got {workers}")
    _make_output_dirs(*out_dirs)
    # More workers than cores or jobs would only add idle processes.
    workers = min(workers, os.cpu_count() or 1)
    chunks = -(-workers // sum(len(cfg.functions) for cfg in configs))
    per_config = [_make_jobs(cfg, chunks) for cfg in configs]
    jobs = [job for cfg_jobs in per_config for job in cfg_jobs]
    workers = min(workers, len(jobs))
    if workers <= 1:
        outcomes = iter([_safe_execute(job) for job in jobs])
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = iter(list(pool.map(_safe_execute, jobs)))

    batches = []
    for config, cfg_jobs in zip(configs, per_config):
        results: Dict[str, List[Optional[RunResult]]] = {fid: [] for fid in config.functions}
        failures: List[Tuple[str, int, str]] = []
        # A function's chunks are contiguous and in run order, and pool.map
        # keeps job order, so its runs and failures are gathered in run order.
        for job in cfg_jobs:
            runs, err = next(outcomes)
            results[job.function_id] += runs
            if err is not None:
                failures += [(job.function_id, idx, err) for idx in job.run_indices]
        summaries: Dict[str, stats.FunctionSummary] = {}
        for fid, rows in results.items():
            done = [r for r in rows if r is not None]
            if done:
                summaries[fid] = stats.summarize([r.best_fitness for r in done],
                                                 [r.evals_to_success for r in done])
        batches.append(BatchResult(config.algorithm, results, summaries, failures))
    return batches


def run_batch(config: ExperimentConfig, workers: int = 1,
              output_dir: Optional[str] = None, write_files: bool = True) -> BatchResult:
    """One config's batch (see :func:`_run_configs`) and its report files in
    ``output_dir``, by default the config's, which is made before any run."""
    out_dir = output_dir if output_dir is not None else config.output_dir
    batch, = _run_configs([config], workers, [out_dir] if write_files else [])
    if write_files:
        write_batch_files(config, batch, out_dir)
    return batch


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def _fmt_summary(s: stats.FunctionSummary) -> str:
    """The ``mean,std,nfe,sr`` columns every summary table and printout shares."""
    nfe = "---" if s.mean_nfe_to_success is None else f"{s.mean_nfe_to_success:.1f}"
    return f"{s.mean:.6E},{s.std:.6E},{nfe},{s.success_rate * 100:g}%"


def _fmt_value(value) -> str:
    """A float by ``:g`` where that is exact, else by ``repr``, so no swept
    value is rounded; an int, a bool or None by ``str``."""
    if not isinstance(value, float):
        return str(value)
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


_RESULTS_HEADER = "run_index,seed,final_fitness,evals_to_success,evals_used"


def _make_output_dirs(*paths: str) -> None:
    """Make the directories a command writes in, before its first run; one
    that cannot be made is an ``invalid_value`` :class:`ConfigError`."""
    try:
        for path in paths:
            os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("invalid_value", f"cannot make output directory: {exc}") from None


def _write_table(path: str, header: str, lines: Iterable[str]) -> None:
    """One CSV report: the header line, then one line per row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def results_file(out_dir: str, algorithm: str, function_id: str) -> str:
    return os.path.join(out_dir, f"results_{algorithm}_{function_id}.csv")


def _write_summary(out_dir: str, algorithm: str,
                   rows: Sequence[Tuple[str, stats.FunctionSummary]]) -> None:
    lines = []
    for fid, s in rows:
        lines.append(f"{fid},{_fmt_summary(s)},{s.rank}")
    _write_table(os.path.join(out_dir, f"summary_{algorithm}.csv"),
                 "function,mean,std,nfe,sr,rank", lines)


def write_batch_files(config: ExperimentConfig, batch: BatchResult, out_dir: str) -> None:
    for fid in config.functions:
        rotation = _rotation(config, fid)
        if rotation is not None:
            path = os.path.join(out_dir, f"rotation_{fid}_D{config.dimensions}.txt")
            save_rotation_matrix(path, rotation)
        lines = []
        for idx, res in enumerate(batch.results[fid]):
            if res is None:
                continue
            nfe = "" if res.evals_to_success is None else str(res.evals_to_success)
            lines.append(f"{idx},{res.seed},{res.best_fitness!r},{nfe},{res.evals_used}")
            if config.write_history:
                history = []
                for evals, fit in res.history:
                    history.append(f"{evals},{fit!r}")
                _write_table(os.path.join(out_dir, f"history_{batch.algorithm}_{fid}_run{idx}.csv"),
                             "evals_used,global_best_fitness", history)
        _write_table(results_file(out_dir, batch.algorithm, fid), _RESULTS_HEADER, lines)
    _write_summary(out_dir, batch.algorithm, [(fid, batch.summaries[fid])
                                                  for fid in config.functions
                                                  if fid in batch.summaries])
    _write_failures(out_dir, batch.failures)


def _write_failures(out_dir: str, failures: Sequence[Tuple[str, int, str]]) -> None:
    """``failures.csv``, one row per failed run; with none, an old one is removed."""
    path = os.path.join(out_dir, "failures.csv")
    lines = []
    for fid, idx, msg in failures:
        # One row per failure: no field or line separators in the message.
        msg = msg.replace(",", ";").replace("\r", " ").replace("\n", " ")
        lines.append(f"{fid},{idx},{msg}")
    if lines:
        _write_table(path, "function,run_index,error", lines)
    elif os.path.exists(path):
        os.remove(path)


# ---------------------------------------------------------------------------
# Parameter sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    function_id: str
    value: object
    summary: stats.FunctionSummary
    best: bool


def sweep(config: ExperimentConfig, parameter: str, values: Sequence[object],
          workers: int = 1) -> Tuple[List[SweepRow], List[Tuple[str, int, str]]]:
    """Re-run the batch once per candidate value of one key of the config's
    algorithm (or its paper name, ``PAPER_NAMES``), holding all else (run
    seeds too) fixed, and mark the best value per function by mean fitness.

    Returns the rows and the failed runs; a failure's message names its
    value.  A value none of whose runs of a function completed has no row
    for that function.  A repeated value is an error."""
    if not values:
        raise ConfigError("invalid_value", "sweep needs at least one candidate value")
    field_name = PAPER_NAMES.get(parameter, parameter)
    configs = []
    for value in values:
        if any(value == taken for taken, _ in configs):
            raise ConfigError("invalid_value", f"{parameter} value {_fmt_value(value)} is repeated")
        # A swept degree applies to every function.
        degrees = None if field_name == "across_degree" else config.n_per_function
        configs.append((value, replace(config, params={**config.params, field_name: value},
                                       n_per_function=degrees)))

    batches = _run_configs([cfg for _, cfg in configs], workers, [config.output_dir])
    per_value = [(value, batch.summaries) for (value, _), batch in zip(configs, batches)]
    failures = [(fid, idx, f"{parameter} = {_fmt_value(value)}: {msg}")
                for (value, _), batch in zip(configs, batches) for fid, idx, msg in batch.failures]

    rows: List[SweepRow] = []
    for fid in config.functions:
        done = [(value, summaries[fid]) for value, summaries in per_value if fid in summaries]
        best_mean = min((s.mean for _, s in done), default=None)
        rows += [SweepRow(fid, value, s, best=(s.mean == best_mean)) for value, s in done]

    lines = []
    for row in rows:
        lines.append(f"{row.function_id},{_fmt_value(row.value)},{_fmt_summary(row.summary)},"
                     f"{int(row.best)}")
    _write_table(os.path.join(config.output_dir, f"sweep_{parameter}.csv"),
                 f"function,{parameter},mean,std,nfe,sr,best", lines)
    _write_failures(config.output_dir, failures)
    return rows, failures


# ---------------------------------------------------------------------------
# Convergence trace (position / superior snapshots)
# ---------------------------------------------------------------------------

@dataclass
class Snapshot:
    generation: int
    positions: np.ndarray  # (m, D)
    superiors: np.ndarray  # (m, D)


def trace(config: ExperimentConfig,
          gens: Sequence[int]) -> Tuple[RunResult, List[Snapshot], List[str]]:
    """Single seeded run (run 0 of the batch) capturing population snapshots at
    generations ``gens`` (at least one, each >= 0; generation 0 is the initial
    population); a superior is an ANS superior solution, a PSO personal best or
    a DE population member.  Snapshots beyond termination are skipped with a warning."""
    if not gens:
        raise ConfigError("invalid_value", "trace needs at least one snapshot generation")
    if any(g < 0 for g in gens):
        raise ConfigError("invalid_value", "snapshot generations must be >= 0")
    if len(config.functions) != 1:
        raise ConfigError("invalid_value", "trace expects exactly one function")
    _make_output_dirs(config.output_dir)
    wanted = set(gens)
    snapshots: List[Snapshot] = []

    def capture(state) -> None:
        if state.generation in wanted:
            snapshots.append(Snapshot(state.generation, state.positions[0].copy(),
                                      state.superiors[0].copy()))

    result = execute_job(Job(config, config.functions[0], (0,)), capture).runs[0]

    captured = {snap.generation for snap in snapshots}
    warnings = [f"snapshot generation {g} is beyond termination "
                f"(run ended at generation {result.generations})"
                for g in sorted(wanted) if g not in captured]

    coords = ",".join(f"x{i + 1}" for i in range(config.dimensions))
    for snap in snapshots:
        lines = []
        for kind, block in (("individual", snap.positions), ("superior", snap.superiors)):
            for idx, row in enumerate(block):
                vals = ",".join(repr(float(v)) for v in row)
                lines.append(f"{snap.generation},{kind},{idx},{vals}")
        _write_table(os.path.join(config.output_dir, f"trace_gen{snap.generation}.csv"),
                     f"generation,kind,index,{coords}", lines)
    return result, snapshots, warnings


# ---------------------------------------------------------------------------
# Multi-algorithm comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    labels: List[str]
    reference: str
    function_ids: List[str]
    summaries: Dict[str, Dict[str, stats.FunctionSummary]]   # label -> fid -> summary
    verdicts: Dict[str, Dict[str, stats.PairwiseVerdict]]    # peer -> fid -> verdict
    tallies: Dict[str, Dict[str, int]]                       # peer -> symbol -> count
    signed_rank_p: Dict[str, float]                          # peer -> raw p
    adjusted_p: Dict[str, float]                             # peer -> Finner APV
    mean_rank: Dict[str, float]
    overall_rank: Dict[str, int]
    failures: Dict[str, List[Tuple[str, int, str]]]          # label -> failed runs


_PROTOCOL_FIELDS = ("functions", "dimensions", "runs", "master_seed", "boundary_policy",
                    "f8_narrow_range", "finner_mode")


def compare(configs: Sequence[ExperimentConfig], reference: str = "ans",
            workers: int = 1, output_dir: Optional[str] = None) -> ComparisonReport:
    """Run every config under the identical protocol and report per-function
    rank-sum verdicts against the reference algorithm, the per-peer paired
    signed-rank over per-function means with Finner-adjusted p-values, and
    mean/overall ranks.

    Failed runs are left out and listed in ``failures``; a function some
    algorithm completed fewer than two runs of is left out of the
    comparison.  When that leaves no function, the report holds only the
    labels and the failures, and no comparison file is written."""
    if len(configs) < 2:
        raise ConfigError("invalid_value", "compare needs at least two configs")
    base = configs[0]
    if base.runs < 2:
        raise ConfigError("invalid_value", "compare needs runs >= 2 for its rank-sum tests")
    for cfg in configs:
        for fname in _PROTOCOL_FIELDS:
            if getattr(cfg, fname) != getattr(base, fname):
                raise ConfigError("protocol_mismatch",
                                  f"configs disagree on {fname}: "
                                  f"{getattr(base, fname)!r} vs {getattr(cfg, fname)!r}")
        if cfg.budget() != base.budget():
            raise ConfigError("protocol_mismatch", "configs disagree on the evaluation budget")

    labels = []
    for cfg in configs:
        label = cfg.algorithm
        if label in labels:
            label = f"{cfg.algorithm}{sum(l.startswith(cfg.algorithm) for l in labels) + 1}"
        labels.append(label)
    if reference not in labels:
        raise ConfigError("invalid_value", f"reference {reference!r} not among {labels}")

    out_dir = output_dir if output_dir is not None else base.output_dir
    label_dirs = [os.path.join(out_dir, label) for label in labels]
    batches = dict(zip(labels, _run_configs(configs, workers, [out_dir, *label_dirs])))
    for label, cfg, label_dir in zip(labels, configs, label_dirs):
        write_batch_files(cfg, batches[label], label_dir)

    finals = {lab: {fid: [r.best_fitness for r in batches[lab].results[fid] if r is not None]
                    for fid in base.functions} for lab in labels}
    # The rank-sum test needs two completed runs of a function per algorithm.
    function_ids = [fid for fid in base.functions
                    if all(len(finals[lab][fid]) >= 2 for lab in labels)]
    failures = {lab: batches[lab].failures for lab in labels}
    if not function_ids:   # nothing to compare: no statistics
        return ComparisonReport(labels, reference, [], {}, {}, {}, {}, {}, {}, {}, failures)

    # Per-function ranks across algorithms (ties share the smallest rank).
    summaries: Dict[str, Dict[str, stats.FunctionSummary]] = {lab: {} for lab in labels}
    for fid in function_ids:
        means = [batches[lab].summaries[fid].mean for lab in labels]
        ranks = stats.rank_algorithms(means)
        for lab, rank in zip(labels, ranks):
            base_summary = batches[lab].summaries[fid]
            summaries[lab][fid] = replace(base_summary, rank=rank)

    peers = [lab for lab in labels if lab != reference]
    verdicts: Dict[str, Dict[str, stats.PairwiseVerdict]] = {}
    tallies: Dict[str, Dict[str, int]] = {}
    signed_p: Dict[str, float] = {}
    for peer in peers:
        verdicts[peer] = {}
        tally = dict.fromkeys(_SYMBOL_TEXT, 0)
        for fid in function_ids:
            verdict = stats.wilcoxon_rank_sum(finals[reference][fid], finals[peer][fid])
            verdicts[peer][fid] = verdict
            tally[verdict.symbol] += 1
        tallies[peer] = tally
        diffs = [summaries[reference][fid].mean - summaries[peer][fid].mean
                 for fid in function_ids]
        signed_p[peer] = stats.wilcoxon_signed_rank(diffs)

    adjusted = stats.finner_adjust([signed_p[p] for p in peers], base.finner_mode) if peers else []
    adjusted_p = {peer: apv for peer, apv in zip(peers, adjusted)}

    mean_rank = {lab: float(np.mean([summaries[lab][fid].rank for fid in function_ids]))
                 for lab in labels}
    overall = stats.rank_algorithms([mean_rank[lab] for lab in labels])
    overall_rank = {lab: rank for lab, rank in zip(labels, overall)}

    report = ComparisonReport(labels=labels, reference=reference, function_ids=function_ids,
                              summaries=summaries, verdicts=verdicts, tallies=tallies,
                              signed_rank_p=signed_p, adjusted_p=adjusted_p,
                              mean_rank=mean_rank, overall_rank=overall_rank,
                              failures=failures)
    write_comparison_files(report, out_dir)
    return report


# Each verdict symbol's report text, in the order every tally lists them.
_SYMBOL_TEXT = {stats.SYMBOL_MINUS: "-", stats.SYMBOL_PLUS: "+", stats.SYMBOL_APPROX: "~"}


def write_comparison_files(report: ComparisonReport, out_dir: str) -> None:
    lines = []
    for fid in report.function_ids:
        for lab in report.labels:
            s = report.summaries[lab][fid]
            lines.append(f"{fid},{lab},{_fmt_summary(s)},{s.rank}")
    _write_table(os.path.join(out_dir, "comparison.csv"),
                 "function,algorithm,mean,std,nfe,sr,rank", lines)
    lines = []
    for lab in report.labels:
        lines.append(f"{lab},{report.mean_rank[lab]:.4f},{report.overall_rank[lab]}")
    _write_table(os.path.join(out_dir, "ranks.csv"), "algorithm,mean_rank,overall_rank", lines)
    peers = [lab for lab in report.labels if lab != report.reference]
    lines = []
    for fid in report.function_ids:
        for peer in peers:
            v = report.verdicts[peer][fid]
            lines.append(f"{fid},{peer},{_SYMBOL_TEXT[v.symbol]},{v.p_value:.6E}")
    for symbol, text in _SYMBOL_TEXT.items():
        for peer in peers:
            lines.append(f"tally_{text},{peer},{report.tallies[peer][symbol]},")
    _write_table(os.path.join(out_dir, "verdicts.csv"), "function,peer,symbol,p_value", lines)
    lines = []
    for peer in sorted(peers, key=lambda p: report.signed_rank_p[p]):
        lines.append(f"{report.reference}_vs_{peer},{report.signed_rank_p[peer]:.6E},"
                     f"{report.adjusted_p[peer]:.6E}")
    _write_table(os.path.join(out_dir, "posthoc.csv"), "comparison,p_value,adjusted_p", lines)


# ---------------------------------------------------------------------------
# Recompute summaries from persisted raw results
# ---------------------------------------------------------------------------

def read_results_csv(path: str) -> List[Tuple[int, int, float, Optional[int], int]]:
    """The rows of a raw results file; a malformed file is a ``syntax``
    :class:`ConfigError` naming the line, and so is a repeated run index or
    a row no run writes."""
    rows = {}   # run index -> row
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != _RESULTS_HEADER:
        raise ConfigError("syntax", f"{path} line 1: expected the header {_RESULTS_HEADER}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.strip().split(",")
        if len(fields) != 5:
            raise ConfigError("syntax", f"{path} line {lineno}: expected 5 fields, "
                                        f"got {len(fields)}")
        idx, seed, fit, nfe, used = fields
        try:
            row = (int(idx), int(seed), float(fit), int(nfe) if nfe else None, int(used))
        except ValueError as exc:
            raise ConfigError("syntax", f"{path} line {lineno}: {exc}") from None
        run, _, fit, nfe, used = row
        error = (f"run_index {run} is repeated" if run in rows   # it would count twice
                 else "final_fitness is NaN" if fit != fit       # no best adopts a NaN
                 else f"evals_used {used} is negative" if used < 0
                 else f"evals_to_success {nfe} is outside 1..{used}"
                 if nfe is not None and not 1 <= nfe <= used
                 # a run's best never rises after the evaluation that succeeded
                 else f"final_fitness {fit!r} is not below {SUCCESS_THRESHOLD:g} but "
                      f"evals_to_success is {nfe}"
                 if nfe is not None and fit >= SUCCESS_THRESHOLD else None)
        if error:
            raise ConfigError("syntax", f"{path} line {lineno}: {error}")
        rows[run] = row
    return list(rows.values())


def recompute_summaries(results_dir: str) -> Dict[str, Dict[str, stats.FunctionSummary]]:
    """Rebuild per-function summaries from the raw results CSVs in a
    directory, keyed by algorithm then function (in function-number order);
    rewrites the summary files."""
    try:
        names = sorted(os.listdir(results_dir))
    except OSError as exc:
        raise ConfigError("missing_file", f"cannot read results directory: {exc}") from None
    found: Dict[str, Dict[str, stats.FunctionSummary]] = {}
    for name in names:
        if not (name.startswith("results_") and name.endswith(".csv")):
            continue
        stem = name[len("results_"):-len(".csv")]
        alg, _, fid = stem.partition("_")
        if alg not in ALGORITHMS or fid not in SPECS:
            continue
        rows = read_results_csv(os.path.join(results_dir, name))
        if not rows:
            continue   # every run failed; the batch wrote no summary row either
        summary = stats.summarize([r[2] for r in rows], [r[3] for r in rows])
        found.setdefault(alg, {})[fid] = summary
    for alg, by_fid in found.items():
        found[alg] = {fid: by_fid[fid] for fid in sorted(by_fid, key=_FUNC_NUMBER.get)}
        _write_summary(results_dir, alg, list(found[alg].items()))
    return found
