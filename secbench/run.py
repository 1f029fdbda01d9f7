"""secloc benchmark: Monte-Carlo trials per second through the CLI.

Run from the repository root:

    python3 secbench/run.py --workload coord-fixed --seed 20260810 --seconds 36 --trace 0

The timed run (``--trace 0``) calls ``secloc.cli.main`` in-process on the
workload's config, one block (one CLI call) at a time, until ``--seconds``
have passed, and prints the end-to-end metrics.  The traced run
(``--trace 1``) runs every block twice at one seed, untraced and then with
the timing wrappers of ``tracing.py``, and prints the per-layer metrics.  Both
check the CSVs the CLI writes; any failed check makes the run fail
(``correct`` false, exit code 1).  The last line of standard output is one
JSON object.

Block 0 runs at master seed ``--seed``; later blocks at seeds derived from it,
so each run sees several topologies, and the same seed repeats the same
inputs.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

DEFAULT_SEED = 20260810
HOLDOUT_SEED = 20260811
# Reference RMSEs are recorded at full precision; the tolerance only absorbs
# last-digit differences between BLAS/LAPACK builds.
REL_TOL = 1e-6
# Fresh interpreters timed for setup_s, spread evenly over the run.
SETUP_RUNS = 11


@dataclass(frozen=True)
class Workload:
    argv: tuple  # CLI subcommand and its arguments, before --config/--seed/--out
    config: str  # config file under workloads/, or a built-in profile name
    order: tuple  # estimators whose pooled RMSE must increase in this order


WORKLOADS = {
    "uncoord-fixed": Workload(("simulate",), "desk", ("swls", "wls", "ls")),
    "coord-fixed": Workload(("simulate",), "coord-fixed.cfg", ("ln1e", "ln1", "wls")),
    "sweep-closed-form": Workload(
        ("sweep", "--axis", "packets", "--values", "2,10,100"),
        "sweep-closed-form.cfg",
        ("swls", "wls", "ls"),
    ),
}

# Fresh-interpreter set-up: import secloc, then load and validate the config.
# numpy is imported before the clock starts: its import time is the machine's,
# not secloc's, and would drown any change to secloc's own.
SETUP_SNIPPET = """
import sys, time
import numpy
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import secloc
secloc.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


@dataclass
class BlockRun:
    wall: float
    cpu: float
    code: int
    csv_text: str


def block_seed(seed: int, k: int) -> int:
    if k == 0:
        return seed
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def run_block(workload: Workload, cfg: str, seed: int, csv_path: Path) -> BlockRun:
    """One CLI invocation, timed; its printed table is discarded.  A call that
    raises or exits non-zero gets an empty CSV, never an earlier block's."""
    import secloc.cli

    argv = [*workload.argv, "--config", cfg, "--seed", str(seed), "--out", str(csv_path)]
    csv_path.unlink(missing_ok=True)
    sink = io.StringIO()
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = secloc.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - reported as a failed block
        print(f"block at seed {seed} raised {exc!r}", file=sys.stderr)
        code = -1
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if code == 0 and not csv_path.is_file():
        code = -1
    return BlockRun(wall, cpu, code, csv_path.read_text(encoding="utf-8") if code == 0 else "")


def time_setup(cfg: str, problems: list) -> float | None:
    """Seconds a fresh interpreter takes to import secloc and load the config,
    or None (and a problem recorded) when it fails."""
    try:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), cfg],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        return float(done.stdout)
    except (subprocess.SubprocessError, ValueError) as exc:
        problems.append(f"set-up: {exc!r}")
        return None


def parse_rows(csv_text: str) -> list:
    return list(csv.DictReader(io.StringIO(csv_text)))


def estimator_rows(rows: list) -> list:
    return [row for row in rows if row["estimator"] != "crlb"]


def check_block(rows: list, trials: int, problems: list, label: str) -> None:
    for row in estimator_rows(rows):
        where = f"{label} {row['estimator']}@{row['axis_value'] or '-'}"
        if int(row["trials_ok"]) + int(row["trials_failed"]) != trials:
            problems.append(f"{where}: trials_ok + trials_failed != {trials}")
        if not row["rmse_m"] or not math.isfinite(float(row["rmse_m"])):
            problems.append(f"{where}: rmse {row['rmse_m']!r} is not finite")


def check_reference(rows: list, ref_rows: list, problems: list) -> None:
    def keyed(table):
        return {(r["axis_value"], r["estimator"]): r for r in table}

    got, want = keyed(rows), keyed(ref_rows)
    if got.keys() != want.keys():
        problems.append("reference: rows differ")
        return
    for key, ref in want.items():
        for col in ("trials_ok", "trials_failed"):
            if got[key][col] != ref[col]:
                problems.append(f"reference {key} {col}: {got[key][col]} != {ref[col]}")
        for col in ("rmse_m", "crlb_m", "mean_tp", "mean_fp"):
            a, b = got[key][col], ref[col]
            if (a == "") != (b == "") or (
                a and not math.isclose(float(a), float(b), rel_tol=REL_TOL)
            ):
                problems.append(f"reference {key} {col}: {a} != {b}")


def pooled_rmse(blocks_rows: list) -> dict:
    """RMSE over all blocks' ok trials, per (axis value, estimator)."""
    sq, ok = {}, {}
    for rows in blocks_rows:
        for row in estimator_rows(rows):
            key = (row["axis_value"], row["estimator"])
            n = int(row["trials_ok"])
            if n:
                sq[key] = sq.get(key, 0.0) + n * float(row["rmse_m"]) ** 2
                ok[key] = ok.get(key, 0) + n
    return {key: math.sqrt(sq[key] / ok[key]) for key in sq}


def check_order(pooled: dict, order: tuple, problems: list) -> None:
    for point in sorted({axis for axis, _ in pooled}):
        values = [pooled.get((point, name), math.nan) for name in order]
        if not all(a < b for a, b in zip(values, values[1:])):
            shown = ", ".join(f"{n}={v:.4f}" for n, v in zip(order, values))
            problems.append(f"ordering {' < '.join(order)} fails at {point or '-'}: {shown}")


def check_trace(tracer, traced_rows: list, problems: list) -> None:
    """The trace's failure counts agree with the CSVs, and each LN-1/LN-1E
    non-convergence is exactly a trial whose ADMM fit hit the cap."""
    from tracing import ESTIMATOR_SPANS, failure_breakdown

    breakdown = failure_breakdown(tracer.spans)
    csv_failed = {}
    for rows in traced_rows:
        for row in estimator_rows(rows):
            csv_failed[row["estimator"]] = csv_failed.get(row["estimator"], 0) + int(
                row["trials_failed"]
            )
    for est, n in csv_failed.items():
        traced = sum(breakdown.get(est, {}).values())
        if traced != n:
            problems.append(f"trace: {est} has {traced} failures, the CSVs {n}")
    capped = {
        s.parent
        for s in tracer.spans
        if s.name == "planefit.admm" and s.failure is None and not s.converged
    }
    for i, span in enumerate(tracer.spans):
        if span.name in (ESTIMATOR_SPANS["ln1"], ESTIMATOR_SPANS["ln1e"]) and not span.failure:
            if (not span.converged) != (i in capped):
                problems.append(f"trace: {span.name} trial {span.trial} convergence != ADMM cap")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "secloc" / "__init__.py").is_file():
        print(f"no secloc package under {SRC}", file=sys.stderr)
        return 2
    os.environ["SECLOC_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import secloc.config
    from tracing import Tracer, layer_metrics

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    cfg = workload.config
    if cfg.endswith(".cfg"):
        cfg = str(BENCH / "workloads" / cfg)
    config = secloc.config.load_config(cfg)
    points = len(workload.argv[-1].split(",")) if workload.argv[0] == "sweep" else 1
    block_trials = config.trials * points

    csv_path = OUT / f"{args.workload}.csv"
    tracer = Tracer()
    problems, plain, traced, setup_times = [], [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() < start + args.seconds:
        # Set-up samples are taken between blocks, spread over the run, so that
        # one slow spell of a shared machine does not decide setup_s.
        progress = (time.perf_counter() - start) / args.seconds if args.seconds > 0 else 1.0
        while len(setup_times) < min(SETUP_RUNS, 1 + int(SETUP_RUNS * progress)):
            setup_times.append(time_setup(cfg, problems))
        seed = block_seed(args.seed, len(plain))
        plain.append(run_block(workload, cfg, seed, csv_path))
        if args.trace:
            with tracer.installed():
                traced.append(run_block(workload, cfg, seed, csv_path))
        if plain[-1].code != 0:
            break
    while len(setup_times) < SETUP_RUNS:
        setup_times.append(time_setup(cfg, problems))
    setup_times = [t for t in setup_times if t is not None]
    (OUT / f"{args.workload}-block0.csv").write_text(plain[0].csv_text, encoding="utf-8")

    failed_trials = 0
    runs = [(f"block {k}", block) for k, block in enumerate(plain)]
    runs += [(f"traced block {k}", block) for k, block in enumerate(traced)]
    for label, block in runs:
        if block.code != 0:
            problems.append(f"{label}: CLI exit code {block.code}")
            failed_trials += block_trials
    # The traced run's twin calls are two runs at one seed: they must agree
    # byte for byte, which also shows the wrappers change nothing.
    for k, (a, b) in enumerate(zip(plain, traced)):
        if a.csv_text != b.csv_text:
            problems.append(f"block {k}: traced CSV differs from untraced")
    plain_rows = [parse_rows(block.csv_text) for block in plain]
    for k, rows in enumerate(plain_rows):
        check_block(rows, config.trials, problems, f"block {k}")
    check_order(pooled_rmse(plain_rows), workload.order, problems)
    reference = REFERENCE / f"{args.workload}-{args.seed}.csv"
    if reference.is_file():
        check_reference(plain_rows[0], parse_rows(reference.read_text(encoding="utf-8")), problems)

    outcomes = [r for rows in plain_rows for r in estimator_rows(rows)]
    ok = sum(int(r["trials_ok"]) for r in outcomes)
    failed = sum(int(r["trials_failed"]) for r in outcomes)
    if not outcomes:
        problems.append("no CSV row was written")
    wall = sum(block.wall for block in plain)
    end_to_end = {
        "trials_per_s": (block_trials * sum(b.code == 0 for b in plain) / wall, "1/s"),
        "setup_s": (statistics.median(setup_times) if setup_times else None, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "estimator_ok_rate": (ok / max(ok + failed, 1), "ratio"),
    }
    for name, (value, unit) in {
        **end_to_end,
        "estimator_fail_rate": (failed / max(ok + failed, 1), "ratio"),
    }.items():
        print(f"{name} {value!r} {unit}")
    print(
        f"blocks {len(plain)} of {block_trials} trials, untraced wall {wall!r} s, "
        f"{len(setup_times)} set-up samples {sorted(setup_times)!r}"
    )

    metrics = end_to_end
    if args.trace:
        traced_wall = sum(block.wall for block in traced)
        check_trace(tracer, [parse_rows(block.csv_text) for block in traced], problems)
        try:
            metrics = layer_metrics(tracer.spans)
        except ValueError as exc:
            problems.append(f"trace: {exc}")
            metrics = {}
        metrics["harness.cpu_over_wall"] = (sum(b.cpu for b in plain) / wall, "ratio")
        metrics["trace.overhead"] = (traced_wall / wall, "ratio")
        for name, (value, unit) in metrics.items():
            print(f"{name} {value!r} {unit}")
        write_trace(args, tracer, wall, traced_wall, len(traced) * block_trials)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": block_trials * len(runs),
        "failed": failed_trials,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def write_trace(args, tracer, wall: float, traced_wall: float, trials: int) -> None:
    """Spans and the failure breakdown, written once the run is over."""
    from tracing import failure_breakdown

    breakdown = failure_breakdown(tracer.spans)
    for est, counts in sorted(breakdown.items()):
        for kind, n in sorted(counts.items()):
            print(f"failures {est} {kind} {n}")
    fields = ("name", "start", "end", "parent", "trial", "iterations", "converged", "failure")
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "untraced_wall_s": wall,
        "traced_wall_s": traced_wall,
        "traced_trials": trials,
        "failures": breakdown,
        "span_fields": fields,
        "spans": [[getattr(span, f) for f in fields] for span in tracer.spans],
    }
    path = OUT / f"{args.workload}-trace.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
