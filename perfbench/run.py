"""ansearch benchmark: one workload, one seed, one measurement run.

    python3 perfbench/run.py --workload protocol-d30 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload protocol-d30 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload ans-d100-narrow --seed 1 --seconds 5 --trace 0 --smoke

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs the workload at a tiny budget to check the plumbing; its
numbers are not comparable with real runs.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

WORK_ROOT = os.path.join(ROOT, ".bench_work")
END_TO_END_UNITS = {"evals_per_s": "evals/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
SETUP_REPEATS = 11
# numpy's OpenBLAS would otherwise start one thread per core for the
# rotated objectives' matrix-vector products.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 175.0

SETUP_CODE = """\
import time
start = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import ansearch
from ansearch import harness
for path in sys.argv[2:]:
    harness.load_config(path)
print(repr(time.perf_counter() - start))
"""

ENV_CODE = """\
import json, os, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
numpy.ones((200, 200)) @ numpy.ones(200)
print(json.dumps({
    "nproc": os.cpu_count(),
    "affinity": len(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "threads_after_matvec": len(os.listdir("/proc/self/task")),
}))
"""


def git_commit(root):
    """HEAD of the checkout's own .git directory, or "unknown"."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(cmd, env, deadline):
    timeout = max(5.0, deadline - perf_counter())
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=True)


def measure_setup(config_paths, env, repeats, deadline):
    """Median over fresh interpreters of ``import ansearch`` plus loading the
    workload's configs; one untimed start first fills the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_CODE, os.path.join(ROOT, "src"), *config_paths]
    run_child(cmd, env, deadline)
    times = [float(run_child(cmd, env, deadline).stdout) for _ in range(repeats)]
    return statistics.median(times), times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budget and minimum repetitions: checks the plumbing only")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ansearch", "__init__.py")):
        print(f"error: no ansearch sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work_dir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return measure(args, workload, name, work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, workload, name, work_dir, deadline) -> int:
    config_paths = []
    for alg, text in workload.config_texts(args.seed, args.smoke).items():
        path = os.path.join(work_dir, f"{alg}.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        config_paths.append(path)

    env = dict(os.environ, **PINNED_ENV)
    environment = json.loads(run_child([sys.executable, "-c", ENV_CODE], env, deadline).stdout)
    environment["commit"] = git_commit(ROOT)
    environment.update(PINNED_ENV)

    setup_s = setup_times = None
    if not args.trace:
        setup_s, setup_times = measure_setup(config_paths, env, 1 if args.smoke else SETUP_REPEATS,
                                             deadline)

    out_path = os.path.join(work_dir, "worker.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload.name, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir, "--out", out_path]
    if args.smoke:
        cmd.append("--smoke")
    try:
        run_child(cmd, env, deadline)
    except subprocess.CalledProcessError as exc:
        print(exc.stderr, file=sys.stderr)
        print(f"error: workload process exited with code {exc.returncode}", file=sys.stderr)
        return 1
    with open(out_path) as fh:
        result = json.load(fh)

    walls = [r["wall_s"] for r in result["reps"] if r["wall_s"] is not None]
    print(f"# {name}: {len(walls)} untraced repetitions, "
          f"{result['attempted']} runs attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.4g})")
    print(f"# environment: {json.dumps(environment, sort_keys=True)}")
    print(f"# machine.ref_s probes: {', '.join(f'{p:.4f}' for p in result['probe_s'])}")

    if args.trace:
        values = result.get("per_layer", {})
        print(f"# repetitions per tracing level: {result['reps_per_level']}")
        print("# us per evaluation of the optimizer run call, coarse tracing:")
        for key, us in result["us_per_eval"].items():
            print(f"#   {key:10s} {us:8.2f} us")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
    else:
        if walls:
            q1, q3 = quartiles(walls)
            print(f"# wall_s per repetition: median {statistics.median(walls):.4f}, "
                  f"quartiles {q1:.4f} / {q3:.4f}")
            print(f"# setup_s per interpreter: {', '.join(f'{t:.4f}' for t in setup_times)}")
        evals_per_s = [r["evals"] / r["wall_s"] for r in result["reps"] if r["wall_s"]]
        values = {
            "evals_per_s": statistics.median(evals_per_s) if evals_per_s else 0.0,
            "wall_s": statistics.median(walls) if walls else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for key, metric in metrics.items():
        print(f"{key} {metric['value']!r} {metric['unit']}")
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")

    correct = not result["problems"] and result["failed"] == 0 and bool(walls)
    summary = {"correct": correct, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
    with open(os.path.join(WORK_ROOT, "results", f"{name}.json"), "w") as fh:
        json.dump({"environment": environment, "setup_times": setup_times,
                   "worker": result, "summary": summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
