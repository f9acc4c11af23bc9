"""Experiment harness: config files, seed management, batch execution,
parameter sweeps, convergence traces and comparison reports.

Every run's seed is a pure function of (master_seed, algorithm, function,
run_index), so batches are bit-reproducible regardless of worker count or
scheduling order.  All report files are written with fixed ordering and
explicit float formatting for byte-stable output.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import benchmarks, stats
from .baselines import DeParams, PsoParams, de_run, pso_run
from .benchmarks import FUNCTION_IDS, SPECS, make_rotation_matrix, save_rotation_matrix
from .core import ObjectiveProblem
from .engine import AnsParams, RunResult, run as ans_run

ALGORITHMS = ("ans", "pso", "de")
_ALG_CODES = {"ans": 1, "pso": 2, "de": 3}
_FUNC_NUMBER = {fid: i + 1 for i, fid in enumerate(FUNCTION_IDS)}
_ROTATION_STREAM_TAG = 909090  # entropy word keeping rotation seeds apart from run seeds

DEFAULT_MASTER_SEED = 12345
DEFAULT_RUNS = 25

SWEEPABLE = {"n": "across_degree", "m": "population_size", "sigma": "sigma"}


class ConfigError(Exception):
    """Configuration problem; ``code`` is one of missing_file, syntax,
    invalid_value, unknown_key, protocol_mismatch."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ExperimentConfig:
    functions: Tuple[str, ...]
    dimensions: int
    algorithm: str = "ans"
    runs: int = DEFAULT_RUNS
    max_evals: Optional[int] = None          # None -> dimension-based default
    max_generations: Optional[int] = None
    master_seed: int = DEFAULT_MASTER_SEED
    output_dir: str = "results"
    boundary_policy: str = "clamp"
    finner_mode: str = "step_down"
    snapshot_gens: Tuple[int, ...] = ()
    write_history: bool = False
    f8_narrow_range: bool = False
    # across-neighbourhood search block
    population_size: int = 20
    across_degree: int = 1
    sigma: float = 0.5
    frozen_superiors: bool = False
    n_per_function: Dict[str, int] = field(default_factory=dict)
    # PSO block
    swarm_size: int = 30
    inertia: float = 0.7298
    c1: float = 1.49445
    c2: float = 1.49445
    v_max: Optional[float] = None
    # DE block
    de_pop_size: int = 100
    de_weight: float = 0.5
    de_crossover: float = 0.9

    def budget(self) -> int:
        if self.max_evals is not None:
            return self.max_evals
        return 600_000 if self.dimensions >= 100 else 300_000

    def across_degree_for(self, function_id: str) -> int:
        return self.n_per_function.get(function_id, self.across_degree)

    def ans_params(self, function_id: str) -> AnsParams:
        return AnsParams(population_size=self.population_size,
                         across_degree=self.across_degree_for(function_id),
                         sigma=self.sigma,
                         max_evals=self.budget(),
                         max_generations=self.max_generations,
                         frozen_superiors=self.frozen_superiors)

    def params_for(self, function_id: str) -> Union[AnsParams, PsoParams, DeParams]:
        if self.algorithm == "ans":
            return self.ans_params(function_id)
        return self.pso_params() if self.algorithm == "pso" else self.de_params()

    def pso_params(self) -> PsoParams:
        return PsoParams(swarm_size=self.swarm_size, inertia=self.inertia,
                         c1=self.c1, c2=self.c2, v_max=self.v_max,
                         max_evals=self.budget(), max_generations=self.max_generations)

    def de_params(self) -> DeParams:
        return DeParams(pop_size=self.de_pop_size, weight=self.de_weight,
                        crossover=self.de_crossover, max_evals=self.budget(),
                        max_generations=self.max_generations)


# ---------------------------------------------------------------------------
# Config file parsing: flat "key = value" lines, '#' comments.
# ---------------------------------------------------------------------------

def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError("invalid_value", f"{key}: expected an integer, got {text!r}") from None


def _parse_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError("invalid_value", f"{key}: expected a number, got {text!r}") from None


def _parse_bool(key, text):
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError("invalid_value", f"{key}: expected true/false, got {text!r}")


def _parse_function_list(key, text):
    ids = tuple(part.strip() for part in text.split(",") if part.strip())
    if not ids:
        raise ConfigError("invalid_value", f"{key}: empty function list")
    for fid in ids:
        if fid not in SPECS:
            raise ConfigError("invalid_value", f"{key}: unknown function id {fid!r}")
    return ids


def _parse_int_list(key, text):
    return tuple(_parse_int(key, part.strip()) for part in text.split(",") if part.strip())


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
        if fid not in SPECS:
            raise ConfigError("invalid_value", f"{key}: unknown function id {fid!r}")
        mapping[fid] = _parse_int(key, val.strip())
    return mapping


_KEY_PARSERS = {
    "algorithm": lambda k, v: v.strip(),
    "functions": _parse_function_list,
    "dimensions": _parse_int,
    "runs": _parse_int,
    "max_evals": _parse_int,
    "max_generations": _parse_int,
    "master_seed": _parse_int,
    "output_dir": lambda k, v: v.strip(),
    "boundary_policy": lambda k, v: v.strip(),
    "finner_mode": lambda k, v: v.strip(),
    "snapshot_gens": _parse_int_list,
    "write_history": _parse_bool,
    "f8_narrow_range": _parse_bool,
    "population_size": _parse_int,
    "across_degree": _parse_int,
    "sigma": _parse_float,
    "frozen_superiors": _parse_bool,
    "n_per_function": _parse_degree_map,
    "swarm_size": _parse_int,
    "inertia": _parse_float,
    "c1": _parse_float,
    "c2": _parse_float,
    "v_max": _parse_float,
    "de_pop_size": _parse_int,
    "de_weight": _parse_float,
    "de_crossover": _parse_float,
}


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    if config.algorithm not in ALGORITHMS:
        raise ConfigError("invalid_value", f"algorithm must be one of {ALGORITHMS}, "
                                           f"got {config.algorithm!r}")
    if not config.functions:
        raise ConfigError("invalid_value", "functions: at least one function id is required")
    if config.dimensions < 1:
        raise ConfigError("invalid_value", "dimensions must be >= 1")
    if config.runs < 1:
        raise ConfigError("invalid_value", "runs must be >= 1")
    if config.boundary_policy not in ("clamp", "none"):
        raise ConfigError("invalid_value", f"boundary_policy must be clamp or none, "
                                           f"got {config.boundary_policy!r}")
    if config.finner_mode not in ("step_down", "single_step"):
        raise ConfigError("invalid_value", f"finner_mode must be step_down or single_step, "
                                           f"got {config.finner_mode!r}")
    if not 0 <= config.across_degree <= config.dimensions:
        raise ConfigError("invalid_value", f"across_degree {config.across_degree} outside "
                                           f"[0, {config.dimensions}]")
    for fid, n in config.n_per_function.items():
        if not 0 <= n <= config.dimensions:
            raise ConfigError("invalid_value", f"n_per_function[{fid}] = {n} outside "
                                               f"[0, {config.dimensions}]")
    if any(g < 0 for g in config.snapshot_gens):
        raise ConfigError("invalid_value", "snapshot_gens entries must be >= 0")
    try:
        for fid in config.functions:
            config.params_for(fid)
    except ValueError as exc:
        raise ConfigError("invalid_value", str(exc)) from None
    return config


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("syntax", f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigError("unknown_key", f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError("syntax", f"line {lineno}: duplicate key {key!r}")
        values[key] = _KEY_PARSERS[key](key, val)
    for required in ("functions", "dimensions"):
        if required not in values:
            raise ConfigError("invalid_value", f"missing required key {required!r}")
    try:
        config = ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError("invalid_value", str(exc)) from None
    return validate_config(config)


def load_config(path: Union[str, os.PathLike]) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("missing_file", f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# Seeds and rotation matrices
# ---------------------------------------------------------------------------

def derive_run_seed(master_seed: int, algorithm: str, function_id: str, run_index: int) -> int:
    """Independent 64-bit seed per (algorithm, function, run); pure function."""
    seq = np.random.SeedSequence(
        [int(master_seed), _ALG_CODES[algorithm], _FUNC_NUMBER[function_id], int(run_index)])
    return int(seq.generate_state(1, np.uint64)[0])


def derive_rotation_seed(master_seed: int, function_id: str) -> int:
    """One rotation landscape per (experiment, function): the matrix does not
    depend on algorithm or run index, so all comparisons share it."""
    seq = np.random.SeedSequence(
        [int(master_seed), _ROTATION_STREAM_TAG, _FUNC_NUMBER[function_id]])
    return int(seq.generate_state(1, np.uint64)[0])


def _rotation_seed(config: ExperimentConfig, function_id: str) -> Optional[int]:
    """The function's rotation seed in this experiment; None when unrotated."""
    if not SPECS[function_id].is_rotated:
        return None
    return derive_rotation_seed(config.master_seed, function_id)


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    algorithm: str
    function_id: str
    dimensions: int
    run_index: int
    seed: int
    params: Union[AnsParams, PsoParams, DeParams]
    boundary: str
    rotation_seed: Optional[int]
    f8_narrow_range: bool

    def problem(self) -> ObjectiveProblem:
        return benchmarks.make_problem(self.function_id, self.dimensions,
                                       rotation_seed=self.rotation_seed,
                                       f8_narrow_range=self.f8_narrow_range)


def execute_job(job: Job) -> RunResult:
    # Looked up per call, so the module-level run names can be wrapped.
    run_fn = {"ans": ans_run, "pso": pso_run, "de": de_run}[job.algorithm]
    return run_fn(job.problem(), job.params, job.seed, boundary=job.boundary)


def _safe_execute(job: Job):
    try:
        return (job.function_id, job.run_index, execute_job(job), None)
    except Exception as exc:  # recorded, batch continues
        return (job.function_id, job.run_index, None, f"{type(exc).__name__}: {exc}")


def _make_jobs(config: ExperimentConfig) -> List[Job]:
    jobs = []
    for fid in config.functions:
        rotation_seed = _rotation_seed(config, fid)
        params = config.params_for(fid)
        for run_index in range(config.runs):
            jobs.append(Job(
                algorithm=config.algorithm,
                function_id=fid,
                dimensions=config.dimensions,
                run_index=run_index,
                seed=derive_run_seed(config.master_seed, config.algorithm, fid, run_index),
                params=params,
                boundary=config.boundary_policy,
                rotation_seed=rotation_seed,
                f8_narrow_range=config.f8_narrow_range,
            ))
    return jobs


def _run_jobs(jobs: List[Job], workers: int):
    # More workers than cores or jobs would only add idle processes.
    workers = min(workers, os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        return [_safe_execute(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_safe_execute, jobs))


@dataclass
class BatchResult:
    algorithm: str
    results: Dict[str, List[Optional[RunResult]]]
    summaries: Dict[str, stats.FunctionSummary]
    failures: List[Tuple[str, int, str]]


def run_batch(config: ExperimentConfig, workers: int = 1,
              output_dir: Optional[str] = None, write_files: bool = True) -> BatchResult:
    """Execute runs x functions, summarize, and write report files.

    Output is deterministic for a fixed config + master_seed: jobs carry
    derived seeds and results are re-sorted by (function, run_index) before
    aggregation, so the worker count never changes any byte of output.
    """
    out_dir = output_dir if output_dir is not None else config.output_dir
    outcomes = _run_jobs(_make_jobs(config), workers)
    by_key = {(fid, idx): (res, err) for fid, idx, res, err in outcomes}

    results: Dict[str, List[Optional[RunResult]]] = {}
    failures: List[Tuple[str, int, str]] = []
    summaries: Dict[str, stats.FunctionSummary] = {}
    for fid in config.functions:
        rows: List[Optional[RunResult]] = []
        for idx in range(config.runs):
            res, err = by_key[(fid, idx)]
            if err is not None:
                failures.append((fid, idx, err))
            rows.append(res)
        results[fid] = rows
        done = [r for r in rows if r is not None]
        if done:
            summaries[fid] = stats.summarize([r.best_fitness for r in done],
                                             [r.evals_to_success for r in done])

    batch = BatchResult(algorithm=config.algorithm, results=results,
                        summaries=summaries, failures=failures)
    if write_files:
        write_batch_files(config, batch, out_dir)
    return batch


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def _fmt_nfe(nfe: Optional[float]) -> str:
    return "---" if nfe is None else f"{nfe:.1f}"


def _fmt_sr(sr: float) -> str:
    return f"{sr * 100:g}%"


def results_file(out_dir: str, algorithm: str, function_id: str) -> str:
    return os.path.join(out_dir, f"results_{algorithm}_{function_id}.csv")


def summary_file(out_dir: str, algorithm: str) -> str:
    return os.path.join(out_dir, f"summary_{algorithm}.csv")


def _write_summary(out_dir: str, algorithm: str,
                   rows: Sequence[Tuple[str, stats.FunctionSummary]]) -> None:
    with open(summary_file(out_dir, algorithm), "w") as fh:
        fh.write("function,mean,std,nfe,sr,rank\n")
        for fid, s in rows:
            fh.write(f"{fid},{s.mean:.6E},{s.std:.6E},{_fmt_nfe(s.mean_nfe_to_success)},"
                     f"{_fmt_sr(s.success_rate)},{s.rank}\n")


def write_batch_files(config: ExperimentConfig, batch: BatchResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for fid in config.functions:
        seed = _rotation_seed(config, fid)
        if seed is not None:
            path = os.path.join(out_dir, f"rotation_{fid}_D{config.dimensions}.txt")
            save_rotation_matrix(path, make_rotation_matrix(config.dimensions, seed))
        with open(results_file(out_dir, batch.algorithm, fid), "w") as fh:
            fh.write("run_index,seed,final_fitness,evals_to_success,evals_used\n")
            for idx, res in enumerate(batch.results[fid]):
                if res is None:
                    continue
                nfe = "" if res.evals_to_success is None else str(res.evals_to_success)
                fh.write(f"{idx},{res.seed},{res.best_fitness!r},{nfe},{res.evals_used}\n")
        if config.write_history:
            for idx, res in enumerate(batch.results[fid]):
                if res is None:
                    continue
                hist_path = os.path.join(out_dir, f"history_{batch.algorithm}_{fid}_run{idx}.csv")
                with open(hist_path, "w") as fh:
                    fh.write("evals_used,global_best_fitness\n")
                    for evals, fit in res.history:
                        fh.write(f"{evals},{fit!r}\n")
    _write_summary(out_dir, batch.algorithm, [(fid, batch.summaries[fid])
                                                  for fid in config.functions
                                                  if fid in batch.summaries])
    if batch.failures:
        with open(os.path.join(out_dir, "failures.csv"), "w") as fh:
            fh.write("function,run_index,error\n")
            for fid, idx, msg in batch.failures:
                # One row per failure: no field or line separators in the message.
                msg = msg.replace(",", ";").replace("\r", " ").replace("\n", " ")
                fh.write(f"{fid},{idx},{msg}\n")


# ---------------------------------------------------------------------------
# Parameter sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    function_id: str
    value: float
    summary: stats.FunctionSummary
    best: bool


def sweep(config: ExperimentConfig, parameter: str, values: Sequence[float],
          workers: int = 1, write_files: bool = True) -> List[SweepRow]:
    """Re-run the batch once per candidate value of one tunable parameter,
    holding everything else (including run seeds) fixed, and mark the best
    value per function by mean final fitness."""
    if config.algorithm != "ans":
        raise ConfigError("invalid_value", "parameter sweeps apply to the ans algorithm only")
    if parameter not in SWEEPABLE:
        raise ConfigError("invalid_value", f"sweep parameter must be one of "
                                           f"{sorted(SWEEPABLE)}, got {parameter!r}")
    if not values:
        raise ConfigError("invalid_value", "sweep needs at least one candidate value")
    field_name = SWEEPABLE[parameter]
    configs = []
    for value in values:
        if parameter in ("n", "m"):
            if value != int(value):
                raise ConfigError("invalid_value", f"{parameter} values must be integers")
            value = int(value)
        overrides = {field_name: value}
        if parameter == "n":
            overrides["n_per_function"] = {}  # the swept value applies to every function
        candidate = replace(config, **overrides)
        configs.append((value, validate_config(candidate)))

    per_value: List[Tuple[float, Dict[str, stats.FunctionSummary]]] = []
    for value, cfg in configs:
        batch = run_batch(cfg, workers=workers, write_files=False)
        per_value.append((value, batch.summaries))

    rows: List[SweepRow] = []
    for fid in config.functions:
        means = [summaries[fid].mean for _, summaries in per_value]
        best_mean = min(means)
        for (value, summaries), mean in zip(per_value, means):
            rows.append(SweepRow(fid, value, summaries[fid], best=(mean == best_mean)))

    if write_files:
        os.makedirs(config.output_dir, exist_ok=True)
        path = os.path.join(config.output_dir, f"sweep_{parameter}.csv")
        with open(path, "w") as fh:
            fh.write(f"function,{parameter},mean,std,nfe,sr,best\n")
            for row in rows:
                s = row.summary
                fh.write(f"{row.function_id},{row.value:g},{s.mean:.6E},{s.std:.6E},"
                         f"{_fmt_nfe(s.mean_nfe_to_success)},{_fmt_sr(s.success_rate)},"
                         f"{int(row.best)}\n")
    return rows


# ---------------------------------------------------------------------------
# Convergence trace (position / superior snapshots)
# ---------------------------------------------------------------------------

@dataclass
class Snapshot:
    generation: int
    positions: np.ndarray  # (m, D)
    superiors: np.ndarray  # (m, D)


def trace(config: ExperimentConfig, gens: Optional[Sequence[int]] = None,
          write_files: bool = True) -> Tuple[RunResult, List[Snapshot], List[str]]:
    """Single seeded run (run 0 of the batch) capturing population snapshots
    at the requested generations (generation 0 is the initial population).
    Snapshots beyond the run's termination are skipped with a warning."""
    if config.algorithm != "ans":
        raise ConfigError("invalid_value",
                          "trace needs the superior-solution memory of the ans algorithm")
    snapshot_gens = tuple(gens) if gens is not None else config.snapshot_gens
    if not snapshot_gens:
        raise ConfigError("invalid_value", "trace needs at least one snapshot generation")
    if len(config.functions) != 1:
        raise ConfigError("invalid_value", "trace expects exactly one function")
    wanted = set(snapshot_gens)
    snapshots: List[Snapshot] = []

    def capture(state) -> None:
        if state.generation in wanted:
            snapshots.append(Snapshot(state.generation, state.positions.copy(),
                                      state.superiors.copy()))

    job = _make_jobs(replace(config, runs=1))[0]
    result = ans_run(job.problem(), job.params, job.seed, boundary=job.boundary,
                     on_generation=capture)

    captured = {snap.generation for snap in snapshots}
    warnings = [f"snapshot generation {g} is beyond termination "
                f"(run ended at generation {result.generations})"
                for g in sorted(wanted) if g not in captured]

    if write_files:
        os.makedirs(config.output_dir, exist_ok=True)
        dim = config.dimensions
        coords = ",".join(f"x{i + 1}" for i in range(dim))
        for snap in snapshots:
            path = os.path.join(config.output_dir, f"trace_gen{snap.generation}.csv")
            with open(path, "w") as fh:
                fh.write(f"generation,kind,index,{coords}\n")
                for kind, block in (("individual", snap.positions), ("superior", snap.superiors)):
                    for idx, row in enumerate(block):
                        vals = ",".join(repr(float(v)) for v in row)
                        fh.write(f"{snap.generation},{kind},{idx},{vals}\n")
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


_PROTOCOL_FIELDS = ("functions", "dimensions", "runs", "master_seed", "boundary_policy",
                    "f8_narrow_range", "finner_mode")


def compare(configs: Sequence[ExperimentConfig], reference: str = "ans",
            workers: int = 1, output_dir: Optional[str] = None,
            write_files: bool = True) -> ComparisonReport:
    """Run every config under the identical protocol and report per-function
    rank-sum verdicts against the reference algorithm, the per-peer paired
    signed-rank over per-function means with Finner-adjusted p-values, and
    mean/overall ranks."""
    if len(configs) < 2:
        raise ConfigError("invalid_value", "compare needs at least two configs")
    base = configs[0]
    for cfg in configs[1:]:
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
    batches: Dict[str, BatchResult] = {}
    for label, cfg in zip(labels, configs):
        batches[label] = run_batch(cfg, workers=workers,
                                   output_dir=os.path.join(out_dir, label),
                                   write_files=write_files)

    function_ids = list(base.functions)
    for label in labels:
        failed = [fid for fid in function_ids if fid not in batches[label].summaries]
        if failed:
            raise RuntimeError(f"{label} produced no results for {failed}; cannot compare")

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
        tally = {stats.SYMBOL_MINUS: 0, stats.SYMBOL_PLUS: 0, stats.SYMBOL_APPROX: 0}
        for fid in function_ids:
            ref_finals = [r.best_fitness for r in batches[reference].results[fid] if r is not None]
            peer_finals = [r.best_fitness for r in batches[peer].results[fid] if r is not None]
            verdict = stats.wilcoxon_rank_sum(ref_finals, peer_finals)
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
                              mean_rank=mean_rank, overall_rank=overall_rank)
    if write_files:
        write_comparison_files(report, out_dir)
    return report


_SYMBOL_TEXT = {stats.SYMBOL_MINUS: "-", stats.SYMBOL_PLUS: "+", stats.SYMBOL_APPROX: "~"}


def write_comparison_files(report: ComparisonReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "comparison.csv"), "w") as fh:
        fh.write("function,algorithm,mean,std,nfe,sr,rank\n")
        for fid in report.function_ids:
            for lab in report.labels:
                s = report.summaries[lab][fid]
                fh.write(f"{fid},{lab},{s.mean:.6E},{s.std:.6E},"
                         f"{_fmt_nfe(s.mean_nfe_to_success)},{_fmt_sr(s.success_rate)},{s.rank}\n")
    with open(os.path.join(out_dir, "ranks.csv"), "w") as fh:
        fh.write("algorithm,mean_rank,overall_rank\n")
        for lab in report.labels:
            fh.write(f"{lab},{report.mean_rank[lab]:.4f},{report.overall_rank[lab]}\n")
    peers = [lab for lab in report.labels if lab != report.reference]
    with open(os.path.join(out_dir, "verdicts.csv"), "w") as fh:
        fh.write("function,peer,symbol,p_value\n")
        for fid in report.function_ids:
            for peer in peers:
                v = report.verdicts[peer][fid]
                fh.write(f"{fid},{peer},{_SYMBOL_TEXT[v.symbol]},{v.p_value:.6E}\n")
        for symbol in (stats.SYMBOL_MINUS, stats.SYMBOL_PLUS, stats.SYMBOL_APPROX):
            for peer in peers:
                fh.write(f"tally_{_SYMBOL_TEXT[symbol]},{peer},"
                         f"{report.tallies[peer][symbol]},\n")
    with open(os.path.join(out_dir, "posthoc.csv"), "w") as fh:
        fh.write("comparison,p_value,adjusted_p\n")
        for peer in sorted(peers, key=lambda p: report.signed_rank_p[p]):
            fh.write(f"{report.reference}_vs_{peer},{report.signed_rank_p[peer]:.6E},"
                     f"{report.adjusted_p[peer]:.6E}\n")


# ---------------------------------------------------------------------------
# Recompute summaries from persisted raw results
# ---------------------------------------------------------------------------

def read_results_csv(path: str) -> List[Tuple[int, int, float, Optional[int], int]]:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "run_index,seed,final_fitness,evals_to_success,evals_used":
            raise ValueError(f"{path} is not a raw results file")
        for line in fh:
            if not line.strip():
                continue
            idx, seed, fit, nfe, used = line.strip().split(",")
            rows.append((int(idx), int(seed), float(fit),
                         int(nfe) if nfe else None, int(used)))
    return rows


def recompute_summaries(results_dir: str) -> Dict[str, Dict[str, stats.FunctionSummary]]:
    """Rebuild per-function summaries from the raw results CSVs in a
    directory, keyed by algorithm then function; rewrites the summary files."""
    found: Dict[str, Dict[str, stats.FunctionSummary]] = {}
    names = sorted(os.listdir(results_dir))
    for name in names:
        if not (name.startswith("results_") and name.endswith(".csv")):
            continue
        stem = name[len("results_"):-len(".csv")]
        alg, _, fid = stem.partition("_")
        if alg not in ALGORITHMS or fid not in SPECS:
            continue
        rows = read_results_csv(os.path.join(results_dir, name))
        summary = stats.summarize([r[2] for r in rows], [r[3] for r in rows])
        found.setdefault(alg, {})[fid] = summary
    for alg, by_fid in found.items():
        ordered = sorted(by_fid, key=lambda f: _FUNC_NUMBER[f])
        _write_summary(results_dir, alg, [(fid, by_fid[fid]) for fid in ordered])
    return found
