"""Acceptance suite.

Each criterion prints one `[PASS]`/`[FAIL]` line (run with `pytest -s` to
see them as they complete).  Stochastic criteria run reduced seed counts
at fixed master seeds with loose tolerances.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from test_stats import oracle_rank_sum_p, oracle_signed_rank_p

from ansearch import benchmarks, harness
from ansearch.core import RngStream
from ansearch.engine import AnsParams, run
from ansearch.harness import derive_rotation_seed, derive_run_seed, parse_config_text
from ansearch.stats import finner_adjust, rank_sum_p_value, wilcoxon_signed_rank

MASTER = 20250809


def check(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    print(line)
    assert ok, line


def ans_runs(function_id, dim, degree, runs, max_evals, population=20, sigma=0.5):
    params = AnsParams(population_size=population, across_degree=degree, sigma=sigma,
                       max_evals=max_evals)
    rotation = (benchmarks.make_rotation_matrix(dim, derive_rotation_seed(MASTER, function_id))
                if benchmarks.SPECS[function_id].is_rotated else None)
    problem = benchmarks.make_problem(function_id, dim, rotation=rotation)
    seeds = [derive_run_seed(MASTER, "ans", function_id, index) for index in range(runs)]
    return run(problem, params, seeds).runs


def test_criterion_01_rastrigin_2d_convergence():
    start = time.perf_counter()
    results = ans_runs("f7", 2, degree=1, runs=10, max_evals=20 * 201)
    gens = []
    for res in results:
        hit = next((g for g, (_, fit) in enumerate(res.history) if fit < 1e-5), None)
        gens.append(np.inf if hit is None else hit)
    elapsed = time.perf_counter() - start
    successes = sum(g <= 200 for g in gens)
    median = float(np.median(gens))
    ok = successes >= 8 and median <= 120 and elapsed < 5.0
    check(1, ok, f"rastrigin 2-D: {successes}/10 seeds < 1e-5 within 200 generations, "
                 f"median {median:g} generations ({elapsed:.1f}s)")


def test_criterion_02_rastrigin_30d_success_and_nfe():
    start = time.perf_counter()
    results = ans_runs("f7", 30, degree=1, runs=10, max_evals=300_000)
    elapsed = time.perf_counter() - start
    nfes = [r.evals_to_success for r in results]
    all_hit = all(n is not None for n in nfes)
    mean_nfe = float(np.mean([n for n in nfes if n is not None])) if any(nfes) else np.inf
    ok = all_hit and 0.5 * 46_500 <= mean_nfe <= 2.0 * 46_500 and elapsed < 120.0
    check(2, ok, f"rastrigin 30-D: {sum(n is not None for n in nfes)}/10 successes, "
                 f"mean NFE {mean_nfe:.0f} (reference 46500, window [23250, 93000]) "
                 f"({elapsed:.1f}s)")


def test_criterion_03_sphere_30d_nfe_window():
    budget = 3 * 12_480
    results = ans_runs("f1", 30, degree=28, runs=10, max_evals=budget)
    nfes = [r.evals_to_success for r in results]
    ok = all(n is not None and n <= budget for n in nfes)
    shown = [n if n is not None else -1 for n in nfes]
    check(3, ok, f"sphere 30-D (degree 28): successes within {budget} evaluations, "
                 f"NFEs {shown}")


def test_criterion_04_ackley_30d_success_and_mean():
    results = ans_runs("f9", 30, degree=28, runs=10, max_evals=300_000)
    hits = sum(r.evals_to_success is not None for r in results)
    mean_final = float(np.mean([r.best_fitness for r in results]))
    ok = hits == 10 and mean_final <= 1e-10
    check(4, ok, f"ackley 30-D (degree 28): {hits}/10 successes, "
                 f"mean final fitness {mean_final:.2e} (cap 1e-10)")


def test_criterion_05_step_30d_exact_zero():
    results = ans_runs("f5", 30, degree=1, runs=5, max_evals=300_000)
    finals = [r.best_fitness for r in results]
    hits = sum(r.evals_to_success is not None for r in results)
    ok = all(f == 0.0 for f in finals) and hits == len(results)
    check(5, ok, f"step 30-D: finals {finals}, {hits}/{len(results)} within budget")


def test_criterion_06_parameter_sensitivity_trends():
    runs = 5
    # Seven independent groups of full-budget runs, run concurrently.
    groups = {
        "n1": ("f7", 30, 1, runs, 300_000),
        "n28": ("f7", 30, 28, runs, 300_000),
        **{f"sigma{sigma}": ("f1", 30, 28, runs, 300_000, 20, sigma)
           for sigma in (0.1, 0.5, 0.9)},
        "m5": ("f13", 30, 28, runs, 300_000, 5),
        "m20": ("f13", 30, 28, runs, 300_000, 20),
    }
    workers = min(len(groups), os.cpu_count() or 1)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {name: pool.submit(ans_runs, *args) for name, args in groups.items()}
        results = {name: future.result() for name, future in futures.items()}
    # (a) across-search degree on 30-D rastrigin: 1 beats 28.
    mean_n1 = float(np.mean([r.best_fitness for r in results["n1"]]))
    mean_n28 = float(np.mean([r.best_fitness for r in results["n28"]]))
    ok_a = mean_n1 < mean_n28
    # (b) sigma on 30-D sphere: 0.5 beats 0.1 and 0.9 by >= 10 orders.
    means_sigma = {sigma: float(np.mean([r.best_fitness for r in results[f"sigma{sigma}"]]))
                   for sigma in (0.1, 0.5, 0.9)}
    ok_b = (means_sigma[0.5] <= 1e-10 * means_sigma[0.1]
            and means_sigma[0.5] <= 1e-10 * means_sigma[0.9])
    # (c) population size on rotated 30-D sphere: 5 fails, 20 succeeds.
    sr5 = np.mean([r.evals_to_success is not None for r in results["m5"]])
    sr20 = np.mean([r.evals_to_success is not None for r in results["m20"]])
    ok_c = sr5 == 0.0 and sr20 == 1.0
    check(6, ok_a and ok_b and ok_c,
          f"(a) degree means {mean_n1:.2e} vs {mean_n28:.2e}; "
          f"(b) sigma means {means_sigma[0.1]:.2e} / {means_sigma[0.5]:.2e} / "
          f"{means_sigma[0.9]:.2e}; (c) success rates m=5: {sr5:.0%}, m=20: {sr20:.0%}")


PUBLISHED_P = [2.9248e-04, 2.9305e-04, 2.9305e-04, 7.1601e-03, 3.5278e-02,
               3.7573e-01, 8.0078e-01]
PUBLISHED_APV = [2.0456e-03, 2.0496e-03, 2.0496e-03, 4.9057e-02, 2.2230e-01,
                 9.6305e-01, 9.9999e-01]


def test_criterion_07_finner_regression():
    start = time.perf_counter()
    compat = finner_adjust(PUBLISHED_P, mode="single_step")
    step_down = finner_adjust(PUBLISHED_P, mode="step_down")
    elapsed = time.perf_counter() - start
    ok_compat = all(abs(c - e) / e < 5e-4 for c, e in zip(compat, PUBLISHED_APV))
    monotone = all(b >= a for a, b in zip(step_down, step_down[1:]))  # input is sorted
    dominated = all(a >= p for a, p in zip(step_down, PUBLISHED_P))
    ok = ok_compat and monotone and dominated and elapsed < 1e-3
    check(7, ok, f"compat mode matches all 7 published APVs to 4 significant figures; "
                 f"step-down monotone and >= raw p ({elapsed * 1e6:.0f}us)")


def test_criterion_08_exact_test_oracles():
    rng = np.random.default_rng(MASTER)
    mismatches = 0
    for _ in range(200):
        n1, n2 = rng.integers(2, 9, size=2)
        a = rng.integers(0, 6, int(n1)).astype(float).tolist()
        b = rng.integers(0, 6, int(n2)).astype(float).tolist()
        if rank_sum_p_value(a, b) != oracle_rank_sum_p(a, b):
            mismatches += 1
        diffs = rng.integers(-4, 5, int(rng.integers(1, 9))).astype(float).tolist()
        if wilcoxon_signed_rank(diffs) != oracle_signed_rank_p(diffs):
            mismatches += 1
    check(8, mismatches == 0,
          f"rank-sum and signed-rank match enumeration oracles exactly on 200 "
          f"random integer-valued cases ({mismatches} mismatches)")


def test_criterion_09_benchmark_certificates():
    failures = []
    for fid in benchmarks.FUNCTION_IDS:
        spec = benchmarks.SPECS[fid]
        rotation = benchmarks.make_rotation_matrix(10, seed=3) if spec.is_rotated else None
        x = benchmarks.optimum_point(fid, 10, rotation.matrix if rotation else None)
        value = benchmarks.make_problem(fid, 10, rotation=rotation).evaluate(x)
        if abs(value) > 1e-12:
            failures.append(f"{fid}={value:.1e}")
    point_rng = np.random.default_rng(7)
    negative = []
    for fid in ("f1", "f3", "f4", "f5", "f7", "f8", "f9", "f10",
                "f13", "f15", "f16", "f17", "f18"):
        spec = benchmarks.SPECS[fid]
        rotation = benchmarks.make_rotation_matrix(10, seed=5) if spec.is_rotated else None
        problem = benchmarks.make_problem(fid, 10, rotation=rotation)
        pts = point_rng.uniform(spec.lo, spec.hi, (1000, 10))
        values = [problem.evaluate(x) for x in pts]
        if min(values) < 0.0:
            negative.append(fid)
    max_err = 0.0
    for dim in (2, 30, 100):
        m = benchmarks.make_rotation_matrix(dim, seed=11).matrix
        max_err = max(max_err, float(np.max(np.abs(m.T @ m - np.eye(dim)))))
    ok = not failures and not negative and max_err < 1e-10
    check(9, ok, f"18 optimum certificates within 1e-12 (bad: {failures or 'none'}); "
                 f"non-negativity on 1000 points (violations: {negative or 'none'}); "
                 f"rotation orthogonality max error {max_err:.1e} for D in (2, 30, 100)")


DET_CONFIG = """
algorithm = ans
functions = f1,f7,f13
dimensions = 4
runs = 6
max_evals = 800
master_seed = 4242
output_dir = unused
"""


def read_tree(root):
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def test_criterion_10_worker_and_rerun_determinism(tmp_path):
    config = parse_config_text(DET_CONFIG)
    harness.run_batch(config, workers=1, output_dir=str(tmp_path / "w1"))
    harness.run_batch(config, workers=8, output_dir=str(tmp_path / "w8"))
    harness.run_batch(config, workers=1, output_dir=str(tmp_path / "again"))
    one = read_tree(tmp_path / "w1")
    eight = read_tree(tmp_path / "w8")
    again = read_tree(tmp_path / "again")
    ok = one == eight == again and len(one) >= 4
    check(10, ok, f"1-worker, 8-worker and repeated batches are byte-identical "
                  f"across {len(one)} report files")


def test_criterion_11_gaussian_coverage():
    draws = 0.5 * RngStream(MASTER).standard_gaussian(1_000_000)
    one = float(np.mean(np.abs(draws) < 0.5))
    two = float(np.mean(np.abs(draws) < 1.0))
    ok = abs(one - 0.6826) < 0.003 and abs(two - 0.9544) < 0.003
    check(11, ok, f"P(|x| < sigma) = {one:.4f} (target 0.6826 +/- 0.003), "
                  f"P(|x| < 2 sigma) = {two:.4f} (target 0.9544 +/- 0.003)")
