"""Command line front end for the experiment harness.

Verbs:
  verify  run a config, write its artifacts and print one PASS, FAIL or
          SKIP line per method and per extra check, read from the record
          that report.json writes
  rates   print theoretical constants for a config without iterating

The shipped demonstration is ``circumproj verify configs/demo.json``.

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

    verify = sub.add_parser("verify", help="run a config, write its artifacts and "
                                           "report PASS/FAIL/SKIP per method and check")
    verify.add_argument("config", help="path to a JSON experiment config")
    verify.add_argument("--seed", type=int, default=None,
                        help="override the config's top-level seed")
    verify.add_argument("--max-iters", type=int, default=None,
                        help="override the config's iteration budget")
    verify.add_argument("--out", default=None,
                        help="output directory (default: config out_dir or <name>_out)")
    verify.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="trace artifacts as CSV files or embedded JSON rows")

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


def _verify_lines(payload: dict) -> list:
    """One line per method and per extra check, read from ``payload``, the
    object that report.json holds, so the printed verdict is the written one."""
    lines = []
    for instance in payload["instances"]:
        for method in instance["methods"]:
            rate = method["rate"]
            reach = method["iters_to_1e-10"]
            tail = (f"iterations={method['iterations']} "
                    f"final_error={method['final_error']:.3e} "
                    f"iters_to_1e-10={'-' if reach is None else reach}")
            where = f"{instance['label']}/{method['label']}"
            if rate is None:
                lines.append(f"SKIP {where}: no audited bound, {tail}")
                continue
            status = "PASS" if rate["all_satisfied"] else "FAIL"
            lines.append(f"{status} {where}: {rate['constant_name']}={rate['value']:.6g} "
                         f"slack_min={rate['slack_min']:.3e} {tail}")
        for check in instance["extra_checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            lines.append(f"{status} {instance['label']}/{check['name']}: {check['detail']}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "rates":
            config = _apply_overrides(load_config(args.config), args)
            rows = compute_rates(config)
            for row in rows:
                rate = row["rate"]
                value = (f"{rate['constant_name']} = {rate['value']:.12g}" if rate
                         else "no audited bound")
                print(f"{row['instance']}/{row['method']}: {value}")
            if args.out is not None:
                target = Path(args.out)
                target.parent.mkdir(parents=True, exist_ok=True)
                _write_atomic(target, json.dumps(rows, sort_keys=True, indent=1) + "\n")
            return 0

        config = _apply_overrides(load_config(args.config), args)
        report = run_experiment(config, out_dir=args.out, fmt=args.format)

        payload = report.to_json_obj()
        for line in _verify_lines(payload):
            print(line)
        print(f"all bounds hold: {payload['all_ok']}")
        return 0 if payload["all_ok"] else 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
