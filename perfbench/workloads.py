"""The three benchmark workloads and the configs they are generated from.

Each workload keeps the shape of a protocol batch (algorithms, functions,
dimensionality, run count); only the per-run evaluation budget is scaled so
that several repetitions fit in one benchmark run.  The workload seed
becomes the configs' ``master_seed`` and is the only input that varies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

ALL_FUNCTIONS = tuple(f"f{i}" for i in range(1, 19))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "compare" (harness.compare) or "run" (harness.run_batch)
    algorithms: Tuple[str, ...]
    functions: Tuple[str, ...]
    dimensions: int
    runs: int
    max_evals: int
    smoke_evals: int
    extra: Dict[str, str]        # algorithm -> additional config lines

    def budget(self, smoke: bool) -> int:
        return self.smoke_evals if smoke else self.max_evals

    def config_texts(self, seed: int, smoke: bool) -> Dict[str, str]:
        """Config file text per algorithm, in the order they are compared."""
        texts = {}
        for alg in self.algorithms:
            texts[alg] = (f"algorithm = {alg}\n"
                          f"functions = {','.join(self.functions)}\n"
                          f"dimensions = {self.dimensions}\n"
                          f"runs = {self.runs}\n"
                          f"max_evals = {self.budget(smoke)}\n"
                          f"master_seed = {seed}\n"
                          + self.extra.get(alg, ""))
        return texts


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="protocol-d30",
        kind="compare",
        algorithms=("ans", "pso", "de"),
        functions=("f1", "f6", "f7", "f16"),
        dimensions=30,
        runs=25,
        max_evals=500,
        smoke_evals=120,
        # f1 at k = 28 takes the permutation path of the dimension selection.
        extra={"ans": "n_per_function = f1:28\n"},
    ),
    Workload(
        name="compare-all18-r10",
        kind="compare",
        algorithms=("ans", "pso", "de"),
        functions=ALL_FUNCTIONS,
        dimensions=30,
        runs=10,
        max_evals=200,
        smoke_evals=110,
        extra={},
    ),
    Workload(
        name="ans-d100-narrow",
        kind="run",
        algorithms=("ans",),
        functions=("f7", "f18"),
        dimensions=100,
        runs=2,
        max_evals=10000,
        smoke_evals=200,
        extra={"ans": "write_history = true\n"},
    ),
)}
