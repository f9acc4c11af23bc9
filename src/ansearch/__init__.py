"""Across-neighbourhood search optimizer, benchmark suite, canonical
PSO/DE baselines, nonparametric comparison statistics and a reproducible
experiment harness."""

from .core import ObjectiveProblem, RngStream, SearchBounds
from .benchmarks import (BenchmarkSpec, RotationMatrix, load_rotation_matrix, make_problem,
                         make_rotation_matrix, optimum_point, save_rotation_matrix)
from .engine import (AnsParams, PopulationState, RunBatch, RunResult, SUCCESS_THRESHOLD, run,
                     step, update_position)
from .baselines import DeParams, PsoParams, de_run, de_step, pso_run, pso_step
from .stats import (FunctionSummary, PairwiseVerdict, finner_adjust, rank_algorithms,
                    summarize, wilcoxon_rank_sum, wilcoxon_signed_rank)
from .harness import (ComparisonReport, ConfigError, ExperimentConfig, Snapshot, compare,
                      derive_run_seed, load_config, run_batch, sweep, trace)

__version__ = "0.1.0"
