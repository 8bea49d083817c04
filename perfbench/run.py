"""Benchmark of the nntriangles command line, end to end and per layer.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client: each command starts after the previous
one returned; every command is ``nntriangles.cli.main`` in a fresh
interpreter, as a CLI user runs it):

``verify_default``  ``verify --seed N --workers 2`` at default sizes
``verify_tiny``     ``verify --seed N --workers 1`` at 2000 samples per group
``sample_csv``      ``sample --family F -n 125000 --seed N --out FILE`` for
                    each of the four families (one operation = four commands)

Operations repeat until the next one would end after ``--seconds`` (at
least two run).  Each output is checked for correctness outside the timed
interval.  ``--trace 0`` reports the end-to-end metrics: ``setup_s``
(process start until ``import nntriangles`` returns, median over every
interpreter started, three import-only ones before each operation),
``wall_s`` (first call into ``cli.main`` until it returns with its output
closed, summed over an operation's commands, median over operations) and
``peak_rss_mb`` (median over operations of the largest peak RSS among their
processes).  ``--trace 1`` alternates untraced and
traced operations and reports the per-layer metrics of ``tracing.py``
(medians over traced operations) plus the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for people.  Failures count verification checks for ``verify`` and
rows for ``sample`` (an invalid row, or every row of a failed command).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from checks import Outcome, check_sample_csv, check_verify_report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

FAMILIES = ("pinned", "staked", "anchored", "uniformT")
SAMPLE_ROWS = 125_000
TINY_SIZES = ("--mc-samples", "2000", "--big-mc-samples", "2000",
              "--ks-samples", "2000")
WORKLOADS = ("verify_default", "verify_tiny", "sample_csv")
PROBES_PER_OPERATION = 3
MIN_OPERATIONS = 2
COMMAND_TIMEOUT_S = 150
# Counts that must repeat exactly between traced operations of one seed.
EXACT_COUNTS = ("sampler.rows", "sampler.resamples", "numerics.neval",
                "density.pdf_pair_ac.calls", "verify.checks")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no source tree, failed set-up)."""


@dataclass(frozen=True)
class Command:
    argv: list[str]
    out: str
    check: Callable[[str, int], Outcome]


@dataclass
class Operation:
    wall_s: float = 0.0
    setups: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    bytes_out: int = 0
    totals: dict = field(default_factory=dict)
    outcome: Outcome = field(default_factory=lambda: Outcome(0, 0))


def verify_command(workdir: str, seed: int, *args: str) -> Command:
    out = os.path.join(workdir, "report.json")
    argv = ["verify", "--seed", str(seed), *args, "--out", out]
    return Command(argv, out, lambda path, code: check_verify_report(path, code, seed))


def sample_command(workdir: str, seed: int, family: str, n: int) -> Command:
    out = os.path.join(workdir, f"{family}.csv")
    argv = ["sample", "--family", family, "-n", str(n), "--seed", str(seed),
            "--out", out]
    return Command(argv, out,
                   lambda path, code: check_sample_csv(path, family, n, code))


def workload_commands(name: str, seed: int, workdir: str) -> list[Command]:
    """The commands of one operation of workload ``name``."""
    if name == "verify_default":
        return [verify_command(workdir, seed, "--workers", "2")]
    if name == "verify_tiny":
        return [verify_command(workdir, seed, "--workers", "1", *TINY_SIZES)]
    if name == "sample_csv":
        return [sample_command(workdir, seed, f, SAMPLE_ROWS) for f in FAMILIES]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _spawn(spec: dict, workdir: str) -> tuple[float, dict | None, str]:
    """Start the child on ``spec``; return its set-up time, its result
    (None if it failed) and its standard error."""
    result_path = os.path.join(workdir, "result.json")
    spec = dict(spec, src=SRC, result=result_path)
    env = dict(os.environ, PYTHONPATH=SRC)
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)], cwd=workdir,
                              env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 0.0, None, f"timed out after {COMMAND_TIMEOUT_S} s"
    if not os.path.exists(result_path):
        return 0.0, None, proc.stderr.strip()[-2000:]
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(result_path)
    return result["imported"] - spawned, result, proc.stderr


def probe_setup(workdir: str) -> float:
    """Set-up time of an interpreter that only imports the package."""
    setup, result, err = _spawn({}, workdir)
    if result is None:
        raise BenchmarkError(f"importing nntriangles failed: {err}")
    return setup


def run_operation(commands: list[Command], workdir: str, trace: bool) -> Operation:
    """Run the commands one after another in fresh interpreters, then check
    their outputs."""
    op = Operation()
    for cmd in commands:
        setup, result, err = _spawn({"argv": cmd.argv, "out": cmd.out,
                                     "trace": trace}, workdir)
        if result is None:
            outcome = cmd.check(cmd.out, -1)
            outcome.problems.append(f"{' '.join(cmd.argv[:3])}: {err}")
        else:
            op.setups.append(setup)
            op.wall_s += result["end"] - result["start"]
            op.peak_rss_mb = max(op.peak_rss_mb, result["maxrss_kb"] / 1024.0)
            op.cpu_s += result["cpu_s"]
            op.bytes_out += result["bytes_out"]
            for key, value in result.get("totals", {}).items():
                op.totals[key] = op.totals.get(key, 0) + value
            outcome = cmd.check(cmd.out, result["exit"])
        if os.path.exists(cmd.out):
            os.remove(cmd.out)
        op.outcome.attempted += outcome.attempted
        op.outcome.failed += outcome.failed
        op.outcome.problems += outcome.problems
        op.outcome.failed_checks += outcome.failed_checks
    return op


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: str) -> tuple[list[float], list[Operation], list[Operation]]:
    """Operations, each after a few import-only set-up probes, until the
    next would overrun ``seconds``; with ``trace`` each untraced operation
    is followed by a traced one."""
    setups: list[float] = []
    plain: list[Operation] = []
    traced: list[Operation] = []
    begin = time.monotonic()
    min_rounds = 1 if trace else MIN_OPERATIONS
    while True:
        setups += [probe_setup(workdir) for _ in range(PROBES_PER_OPERATION)]
        plain.append(run_operation(workload_commands(workload, seed, workdir),
                                   workdir, trace=False))
        if trace:
            traced.append(run_operation(workload_commands(workload, seed, workdir),
                                        workdir, trace=True))
        elapsed = time.monotonic() - begin
        if len(plain) >= min_rounds and elapsed * (1 + 1 / len(plain)) > seconds:
            break
    return setups, plain, traced


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` section of
    BENCHMARK.json, the one list of what the benchmark reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_report(plain: list[Operation], traced: list[Operation]) -> tuple[dict, list[str]]:
    """Median per-layer metrics over the traced operations, and problems
    (counts that did not repeat exactly)."""
    from tracing import layer_metrics

    names = metric_units("per_layer")
    rows = [layer_metrics(op.totals, op.bytes_out, op.cpu_s, op.wall_s)
            for op in traced if op.totals]
    if not rows:
        return dict.fromkeys(names, 0.0), ["no traced operation completed"]
    problems = []
    for key in EXACT_COUNTS:
        if len({row[key] for row in rows}) > 1:
            problems.append(f"{key} differs between traced runs: "
                            f"{[row[key] for row in rows]}")
    metrics = {key: statistics.median(row[key] for row in rows)
               for key in names if key != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = (
        statistics.median(op.wall_s for op in traced)
        / statistics.median(op.wall_s for op in plain) - 1.0)
    return metrics, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print the metrics for people, and return the
    result object."""
    if not os.path.isfile(os.path.join(SRC, "nntriangles", "__init__.py")):
        raise BenchmarkError(f"no nntriangles source tree under {SRC}")
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = os.path.join(SCRATCH, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups, plain, traced = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = plain + traced
    attempted = sum(op.outcome.attempted for op in ops)
    failed = sum(op.outcome.failed for op in ops)
    problems = [p for op in ops for p in op.outcome.problems]
    setups += [s for op in plain for s in op.setups]
    walls = [op.wall_s for op in plain]
    values = {"setup_s": statistics.median(setups),
              "wall_s": statistics.median(walls),
              "peak_rss_mb": statistics.median(op.peak_rss_mb for op in plain)}
    unit = "rows" if workload == "sample_csv" else "checks"
    lines = [f"workload {workload}, seed {seed}: {len(plain)} untraced operations"
             + (f" and {len(traced)} traced" if trace else ""),
             f"setup_s      {values['setup_s']:.4f} s   "
             f"(median of {len(setups)} interpreter starts)",
             f"wall_s       {values['wall_s']:.4f} s   (median of {len(walls)}; "
             f"min {min(walls):.4f}, max {max(walls):.4f})",
             f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB",
             f"failed_frac  {failed / max(attempted, 1):.6g}   "
             f"({failed} of {attempted} {unit})"]
    if workload == "sample_csv" and values["wall_s"] > 0:
        lines.append(f"rows_per_s   {SAMPLE_ROWS * len(FAMILIES) / values['wall_s']:.0f}"
                     " 1/s   (rows of one operation over its median wall_s)")
    if trace:
        metrics, count_problems = layer_report(plain, traced)
        problems += count_problems
        units = metric_units("per_layer")
        lines += [f"{key:28s} {value:.6g} {units[key]}"
                  for key, value in metrics.items()]
        if metrics["cli.main_s"] > 0:
            lines += [f"share of traced cli.main_s: {key} "
                      f"{metrics[key] / metrics['cli.main_s']:.1%}"
                      for key in ("sampler.busy_s", "numerics.s",
                                  "density.pdf_pair_ac_s", "gof.ks_first_s",
                                  "cli.write_csv_s")]
        reported = {key: _metric(value, units[key]) for key, value in metrics.items()}
    else:
        reported = {key: _metric(values[key], unit)
                    for key, unit in metric_units("end_to_end").items()}
    failed_checks = sorted({c for op in ops for c in op.outcome.failed_checks})
    if failed_checks:
        lines.append("failed checks: " + ", ".join(failed_checks))
    lines += [f"problem: {p}" for p in problems]
    for line in lines:
        print(line)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": reported}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("seed must fit an unsigned 64-bit value")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
