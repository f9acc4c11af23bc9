"""Derive the median-final-fitness bands in bands.json from many seeds.

    python3 perfbench/calibrate.py --seeds-file perfbench/calibration_seeds.txt \
        --observations .bench_work/calibration --write
    python3 perfbench/calibrate.py --seeds 1-10          # quick look, nothing written

For every workload and every (algorithm, function) it runs the workload
once per seed and records the median final fitness over runs (what the
benchmark checks) and the median best fitness of the initial population
(what an optimizer that never improves would report).  With lo / hi the
smallest / largest median seen and ``spread = hi / lo``:

* upper edge = hi * max(MIN_MARGIN, spread, min(BAND_FACTOR, sqrt(stalled / hi)))
* lower edge = lo / max(BAND_FACTOR, spread)

where ``stalled`` is the smallest no-progress median.  The margin is never
narrower than the spread already seen across seeds, so a fresh seed or a
new RNG stream version lands inside; where the optimizer has room to
improve, the upper edge stays below the no-progress level, so a stalled or
broken optimizer falls outside.  The printed table shows every margin.

The bands are also fitted on every other seed and tested on the rest, and
the other way round; the number of held-out medians outside their band is
printed.  ``--observations DIR`` keeps each workload's observations in
``DIR/<workload>.json`` and reuses the seeds already there, so a long
calibration can be resumed or re-banded without re-running.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from workloads import WORKLOADS  # noqa: E402

BAND_FACTOR = 3.0
MIN_MARGIN = 1.25


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def read_seeds(path):
    with open(path) as fh:
        return [int(line) for line in fh if line.strip() and not line.startswith("#")]


def observe(workload, seed):
    """(alg/fid) -> (median final fitness, median initial-population best)."""
    from ansearch import harness

    observed = {}
    for text in workload.config_texts(seed, smoke=False).values():
        batch = harness.run_batch(harness.parse_config_text(text), write_files=False)
        if batch.failures:
            raise RuntimeError(f"{workload.name} seed {seed}: {batch.failures}")
        for fid, results in batch.results.items():
            observed[f"{batch.algorithm}/{fid}"] = (
                statistics.median(r.best_fitness for r in results),
                statistics.median(r.history[0][1] for r in results))
    return observed


def band(finals, starts):
    lo, hi = min(finals), max(finals)
    if lo <= 0.0:
        raise ValueError("bands are ratios and need positive medians")
    spread = hi / lo
    room = math.sqrt(min(starts) / hi) if min(starts) > hi else 0.0
    return [lo / max(BAND_FACTOR, spread),
            hi * max(MIN_MARGIN, spread, min(BAND_FACTOR, room))]


def observe_all(workload, seeds, obs_dir):
    """One observation per seed, read from / added to ``obs_dir`` if given."""
    path = obs_dir and os.path.join(obs_dir, f"{workload.name}.json")
    cached = {}
    if path and os.path.exists(path):
        with open(path) as fh:
            cached = json.load(fh)
    for seed in seeds:
        if str(seed) not in cached:
            cached[str(seed)] = observe(workload, seed)
            if path:
                os.makedirs(obs_dir, exist_ok=True)
                with open(path, "w") as fh:
                    json.dump(cached, fh)
    return [cached[str(seed)] for seed in seeds]


def held_out_misses(runs):
    """Medians outside bands fitted on the other half of the seeds."""
    misses = 0
    if len(runs) < 2:
        return misses
    for fit, test in ((runs[0::2], runs[1::2]), (runs[1::2], runs[0::2])):
        for key in runs[0]:
            lo, hi = band([r[key][0] for r in fit], [r[key][1] for r in fit])
            misses += sum(not lo <= r[key][0] <= hi for r in test)
    return misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seeds-file", help="one seed per line; overrides --seeds")
    parser.add_argument("--observations", metavar="DIR",
                        help="keep and reuse observations in DIR/<workload>.json")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--write", action="store_true",
                        help="replace these workloads' bands in bands.json")
    args = parser.parse_args(argv)
    seeds = read_seeds(args.seeds_file) if args.seeds_file else parse_seeds(args.seeds)

    bands = {}
    for name in args.workload or sorted(WORKLOADS):
        runs = observe_all(WORKLOADS[name], seeds, args.observations)
        bands[name] = {}
        print(f"{name}: {len(seeds)} seeds; held-out medians outside bands fitted on "
              f"the other half: {held_out_misses(runs)} of {len(runs) * len(runs[0])}")
        print(f"  {'alg/fid':10s} {'min median':>12s} {'max median':>12s} "
              f"{'band lo':>12s} {'band hi':>12s} {'no-progress':>12s}")
        for key in runs[0]:
            finals = [r[key][0] for r in runs]
            starts = [r[key][1] for r in runs]
            bands[name][key] = band(finals, starts)
            print(f"  {key:10s} {min(finals):12.4g} {max(finals):12.4g} "
                  f"{bands[name][key][0]:12.4g} {bands[name][key][1]:12.4g} {min(starts):12.4g}")
    if args.write:
        path = os.path.join(HERE, "bands.json")
        with open(path) as fh:
            merged = json.load(fh)
        merged.update(bands)
        with open(path, "w") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
