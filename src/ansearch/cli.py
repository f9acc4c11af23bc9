"""Command-line front-end.

Exit codes: 0 on success, 1 when any run failed, 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from typing import List, Optional

from . import harness
from .harness import ConfigError


def _print_summaries(algorithm: str, summaries) -> None:
    print(f"algorithm: {algorithm}")
    print(f"{'function':10s} {'mean':>14s} {'std':>14s} {'nfe':>12s} {'sr':>8s}")
    for fid, s in summaries.items():
        mean, std, nfe, sr = harness._fmt_summary(s).split(",")
        print(f"{fid:10s} {mean:>14s} {std:>14s} {nfe:>12s} {sr:>8s}")


def _report_failures(algorithm: str, failures) -> bool:
    """One stderr line per failed run; True when any run failed."""
    for fid, idx, msg in failures:
        print(f"FAILED {algorithm} {fid} run {idx}: {msg}", file=sys.stderr)
    return bool(failures)


def cmd_run(args) -> int:
    config = harness.load_config(args.config)
    batch = harness.run_batch(config, workers=args.workers)
    _print_summaries(batch.algorithm, batch.summaries)
    if _report_failures(batch.algorithm, batch.failures):
        return 1
    print(f"reports written to {config.output_dir}")
    return 0


def cmd_sweep(args) -> int:
    config = harness.load_config(args.config)
    field = harness.PAPER_NAMES.get(args.param, args.param)
    values = harness._parse_list("--values", args.values,   # unknown key: text; sweep refuses it
                                 harness._KEY_PARSERS.get(field, lambda key, text: text))
    rows, failures = harness.sweep(config, args.param, values, workers=args.workers)
    print(f"{'function':10s} {args.param:>8s} {'mean':>14s} {'sr':>8s}  best")
    for row in rows:
        mean, _, _, sr = harness._fmt_summary(row.summary).split(",")
        marker = "*" if row.best else ""
        print(f"{row.function_id:10s} {harness._fmt_value(row.value):>8s} {mean:>14s} "
              f"{sr:>8s}  {marker}")
    print(f"sweep table written to {config.output_dir}")
    return 1 if _report_failures(config.algorithm, failures) else 0


def cmd_trace(args) -> int:
    config = harness.load_config(args.config)
    gens = harness._parse_list("--gens", args.gens, partial(harness._parse_number, kind=int))
    result, snapshots, warnings = harness.trace(config, gens)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    captured = [snap.generation for snap in snapshots]
    print(f"captured generations {captured}; best fitness {result.best_fitness!r}; "
          f"snapshots in {config.output_dir}")
    return 0


def cmd_compare(args) -> int:
    configs = [harness.load_config(path) for path in args.configs]
    report = harness.compare(configs, reference=args.reference, workers=args.workers,
                             output_dir=args.output_dir)
    # A list, not a generator: every algorithm's failures are printed.
    failed = any([_report_failures(lab, report.failures[lab]) for lab in report.labels])
    if not report.function_ids:   # every function lost its runs of some algorithm
        return 1
    peers = [lab for lab in report.labels if lab != report.reference]
    print(f"reference: {report.reference}")
    header = "function  " + "  ".join(f"{p:>8s}" for p in peers)
    print(header)
    symbol_text = harness._SYMBOL_TEXT
    for fid in report.function_ids:
        row = "  ".join(f"{symbol_text[report.verdicts[p][fid].symbol]:>8s}" for p in peers)
        print(f"{fid:8s}  {row}")
    for sym, text in symbol_text.items():
        row = "  ".join(f"{report.tallies[p][sym]:>8d}" for p in peers)
        print(f"{text:8s}  {row}")
    print("signed-rank p / adjusted p:")
    for peer in peers:
        print(f"  {report.reference} vs {peer}: {report.signed_rank_p[peer]:.4E} / "
              f"{report.adjusted_p[peer]:.4E}")
    for lab in report.labels:
        print(f"  {lab}: mean rank {report.mean_rank[lab]:.4f}, "
              f"overall rank {report.overall_rank[lab]}")
    return 1 if failed else 0


def cmd_stats(args) -> int:
    found = harness.recompute_summaries(args.results_dir)
    if not found:
        print(f"no completed runs in the raw results files of {args.results_dir}",
              file=sys.stderr)
        return 1
    for alg, by_fid in sorted(found.items()):
        _print_summaries(alg, by_fid)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ansearch",
        description="Across-neighbourhood search benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a batch of seeded runs")
    p.add_argument("config")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sweep one tunable parameter")
    p.add_argument("config")
    p.add_argument("--param", required=True, help="a key of the config's algorithm "
                   "(its params class in harness.PARAMS, but max_evals), or the paper's n or m")
    p.add_argument("--values", required=True, help="comma-separated candidate values")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trace", help="capture position/superior snapshots of one run")
    p.add_argument("config")
    p.add_argument("--gens", required=True, help="comma-separated snapshot generations")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compare", help="run several algorithms under one protocol")
    p.add_argument("configs", nargs="+")
    p.add_argument("--reference", default="ans")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stats", help="recompute summaries from raw results")
    p.add_argument("results_dir")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error [{exc.code}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
