"""Command line front end for the experiment harness.

Verbs:
  run     execute a config, write artifacts, print a summary table
  rates   print theoretical constants for a config without iterating
  verify  run a config and print one PASS or FAIL line per audited bound

The shipped demonstration is ``circumproj run configs/demo.json``.

Exit status is 0 when every audited bound and extra check holds, 2 on a
config problem, 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .bench import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    compute_rates,
    load_config,
    run_experiment,
    _write_atomic,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circumproj",
        description="Best approximation methods with audited convergence rates.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's top-level seed")
        p.add_argument("--max-iters", type=int, default=None,
                       help="override the config's iteration budget")
        p.add_argument("--out", default=None,
                       help="output directory (default: config out_dir or <name>_out)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="trace artifacts as CSV files or embedded JSON rows")

    add_common(sub.add_parser("run", help="run a config and write artifacts"))
    add_common(sub.add_parser("verify", help="run a config and report PASS/FAIL per bound"))

    rates = sub.add_parser("rates", help="print theoretical constants for a config")
    rates.add_argument("config", help="path to a JSON experiment config")
    rates.add_argument("--seed", type=int, default=None,
                       help="override the config's top-level seed")
    rates.add_argument("--out", default=None,
                       help="optional path for a rates.json dump")
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError("--seed: must be nonnegative")
        updates["seed"] = args.seed
        if config.x0.kind == "random_unit":
            updates["x0"] = dataclasses.replace(config.x0, seed=args.seed)
        if config.random_instances is not None:
            updates["random_instances"] = dataclasses.replace(
                config.random_instances, seed=args.seed)
    if getattr(args, "max_iters", None) is not None:
        if args.max_iters < 0:
            raise ConfigError("--max-iters: must be nonnegative")
        updates["max_iters"] = args.max_iters
    if updates:
        config = dataclasses.replace(config, **updates)
    return config


def _summary_lines(report: ExperimentReport) -> list:
    lines = []
    header = f"{'instance':<20} {'method':<28} {'final error':>12} {'k@1e-10':>8} {'rate':>10} {'audit':>6}"
    lines.append(header)
    lines.append("-" * len(header))
    for instance in report.instances:
        for outcome in instance.methods:
            summary = outcome.summary_obj()
            rate = summary["rate"]
            rate_text = "-" if rate is None else f"{rate['value']:.6f}"
            audit_text = "-" if rate is None else ("ok" if rate["all_satisfied"] else "FAIL")
            reach = summary["iters_to_1e-10"]
            reach_text = "-" if reach is None else str(reach)
            lines.append(
                f"{instance.label:<20} {outcome.label:<28} "
                f"{summary['final_error']:>12.3e} {reach_text:>8} {rate_text:>10} {audit_text:>6}"
            )
        for name, passed, detail in instance.extra_checks:
            status = "ok" if passed else "FAIL"
            lines.append(f"{instance.label:<20} {name:<28} {'':>12} {'':>8} {'':>10} {status:>6}")
    return lines


def _verify_lines(report: ExperimentReport) -> list:
    lines = []
    for instance in report.instances:
        for outcome in instance.methods:
            if outcome.report is None:
                lines.append(f"SKIP {instance.label}/{outcome.label}: no audited bound")
                continue
            audit = outcome.report
            status = "PASS" if audit.all_satisfied else "FAIL"
            lines.append(
                f"{status} {instance.label}/{outcome.label}: "
                f"{audit.constant_name}={audit.value:.6g} "
                f"min_slack={audit.slack_min:.3e} over {len(audit.per_iteration)} iterations"
            )
        for name, passed, detail in instance.extra_checks:
            status = "PASS" if passed else "FAIL"
            lines.append(f"{status} {instance.label}/{name}: {detail}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "rates":
            config = _apply_overrides(load_config(args.config), args)
            rows = compute_rates(config)
            for row in rows:
                value = "-" if row["value"] is None else f"{row['value']:.12g}"
                print(f"{row['instance']}/{row['method']}: {row['constant_name']} = {value}")
            if args.out is not None:
                target = Path(args.out)
                target.parent.mkdir(parents=True, exist_ok=True)
                _write_atomic(target, json.dumps(rows, sort_keys=True, indent=1) + "\n")
            return 0

        config = _apply_overrides(load_config(args.config), args)
        report = run_experiment(config, out_dir=args.out, fmt=args.format)

        if args.verb == "verify":
            for line in _verify_lines(report):
                print(line)
        else:
            for line in _summary_lines(report):
                print(line)
        print(f"all bounds hold: {report.all_ok}")
        return 0 if report.all_ok else 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
