"""Command-line interface.

Subcommands: simulate (one Monte-Carlo run), sweep (one run per axis value),
crlb (bound only), detect (elimination true/false positive rates).  Exit
codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import SWEEP_AXES, load_config, parse_number
from .exceptions import ConfigError, SecLocError
from .harness import (
    ESTIMATORS,
    base_topology,
    emit_csv,
    run_monte_carlo,
    summary_rows,
    sweep,
    trial_crlb,
    trial_topologies,
)
from .svgplot import render_sweep_svg


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        required=True,
        help="config file path, or a built-in profile name (desk, paper)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")


def _load(args) -> "ExperimentConfig":
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    return config


def _print_summary(config, summary) -> None:
    crlb = f"{summary.crlb:.4f}" if summary.crlb is not None else "n/a"
    print(f"trials: {summary.trials}   crlb: {crlb} m")
    print(f"{'estimator':<10} {'rmse_m':>10} {'ok':>6} {'failed':>7} {'mean_tp':>8} {'mean_fp':>8}")
    for name in config.estimators:
        est = summary.per_estimator[name]
        rmse = f"{est.rmse:.4f}" if est.rmse is not None else "n/a"
        print(
            f"{name:<10} {rmse:>10} {est.trials_ok:>6} {est.trials_failed:>7} "
            f"{est.mean_tp:>8.3f} {est.mean_fp:>8.3f}"
        )
    _print_failures(config.estimators, summary)


def _print_failures(names, summary) -> None:
    """One line per estimator that failed on some trial: its failed trials
    by failure type."""
    for name in names:
        failures = summary.per_estimator[name].failures
        if failures:
            print(f"{name} failed: " + ", ".join(f"{kind} {n}" for kind, n in failures))


def _cmd_simulate(args) -> int:
    config = _load(args)
    summary = run_monte_carlo(config)
    _print_summary(config, summary)
    if args.out:
        emit_csv(summary_rows("", config, summary), args.out)
        print(f"wrote {args.out}")
    return 0


def _parse_values(axis: str, text: str) -> list:
    values = [parse_number(axis, tok.strip()) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ConfigError("no sweep values given")
    return values


def _cmd_sweep(args) -> int:
    config = _load(args)
    values = _parse_values(args.axis, args.values)
    results = sweep(config, args.axis, values)
    rows = []
    for value, summary in results:
        rows.extend(summary_rows(value, config, summary))
    emit_csv(rows, args.out)
    print(f"wrote {args.out}")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_sweep_svg(results, config, args.axis))
        print(f"wrote {args.svg}")
    return 0


def _cmd_crlb(args) -> int:
    config = _load(args)
    base = base_topology(config)
    bounds = []
    for trial in range(config.trials):
        bound = trial_crlb(config, trial_topologies(config, [trial], base)[0])
        if bound is not None:
            bounds.append(bound)
    if not bounds:
        print("crlb: n/a (singular or overflowing information)")
        return 3
    mean = sum(bounds) / len(bounds)
    print(f"crlb_mean_m: {mean:.6f}")
    print(f"crlb_min_m: {min(bounds):.6f}")
    print(f"crlb_max_m: {max(bounds):.6f}")
    return 0


def _cmd_detect(args) -> int:
    config = _load(args)
    detectors = [name for name in config.estimators if ESTIMATORS[name].detector]
    if not detectors:
        known = " or ".join(name for name, spec in ESTIMATORS.items() if spec.detector)
        raise ConfigError(f"detect needs {known} among the enabled estimators")
    summary = run_monte_carlo(config)
    for name in detectors:
        est = summary.per_estimator[name]
        recall = f"{est.recall:.4f}" if est.recall is not None else "n/a"
        false_rate = f"{est.false_rate:.4f}" if est.false_rate is not None else "n/a"
        print(
            f"{name}: recall {recall}  false_elimination_rate {false_rate}  "
            f"(ok {est.trials_ok}, failed {est.trials_failed})"
        )
    _print_failures(detectors, summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secloc",
        description="RSSI localization under malicious anchors: Monte-Carlo simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one Monte-Carlo configuration")
    _add_config_arg(p_sim)
    p_sim.add_argument("--out", default=None, help="write the summary as CSV")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a Monte-Carlo sweep over one axis")
    _add_config_arg(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--svg", default=None, help="also write an SVG line plot")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_crlb = sub.add_parser("crlb", help="print the error bound for a configuration")
    _add_config_arg(p_crlb)
    p_crlb.set_defaults(func=_cmd_crlb)

    p_detect = sub.add_parser("detect", help="report elimination TP/FP rates")
    _add_config_arg(p_detect)
    p_detect.set_defaults(func=_cmd_detect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SecLocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
