"""Tests of the benchmark itself: its tracer and its negative controls.

Run with ``python3 -m pytest perfbench`` from the repository root.  The two
tests that run ``verify`` take about ten seconds per run.
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from checks import VERIFY_CHECKS, check_sample_csv  # noqa: E402
from tracing import Span, Tracer, layer_metrics, layer_totals, self_time  # noqa: E402

from nntriangles import cli, moments, sampler, verify  # noqa: E402
from nntriangles.sampler import RandomStream  # noqa: E402


def test_reported_metrics_are_the_ones_benchmark_json_lists():
    traced = layer_metrics(layer_totals([]), 0, 0.0, 1.0)
    assert set(traced) | {"trace.overhead_frac"} == set(run.metric_units("per_layer"))


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = Span(1, "verify.run_suite", 0.0, 10.0, 1, None)
    workers = [Span(2, "sampler.sample_batch", 1.0, 5.0, 2, 1),
               Span(3, "sampler.sample_batch", 3.0, 7.0, 3, 1)]
    assert self_time(parent, workers) == pytest.approx(4.0)
    totals = layer_totals([parent, *workers])
    assert totals["verify.self_s"] == pytest.approx(4.0)
    # two threads sampling at once are busy for twice the time
    assert totals["sampler.busy_s"] == pytest.approx(8.0)


def test_nested_calls_within_a_layer_count_once():
    spans = [Span(1, "numerics.integrate_1d", 0.0, 10.0, 1, None),
             Span(2, "density.pdf_pair_ac", 2.0, 6.0, 1, 1),
             Span(3, "numerics.integrate_1d", 3.0, 5.0, 1, 2)]
    totals = layer_totals(spans)
    assert totals["numerics.s"] == pytest.approx(10.0)
    assert totals["numerics.integrate_1d.calls"] == 2
    assert totals["density.pdf_pair_ac_s"] == pytest.approx(4.0)


def test_wrappers_restore_the_original_bindings():
    bindings = [(verify, "sample_batch"), (moments, "sample_batch"),
                (cli, "sample_batch"), (sampler, "sample_batch"),
                (verify, "integrate_2d"), (moments, "by_quadrature"),
                (verify, "pdf_pair_ac"), (cli, "main"),
                (verify, "ThreadPoolExecutor"), (moments, "ThreadPoolExecutor"),
                (sampler.SampleBatch, "write_csv")]
    originals = [getattr(owner, attr) for owner, attr in bindings]
    with Tracer():
        for (owner, attr), original in zip(bindings, originals):
            assert getattr(owner, attr) is not original, attr
        assert verify.sample_batch is sampler.sample_batch
    for (owner, attr), original in zip(bindings, originals):
        assert getattr(owner, attr) is original, attr


def test_traced_sample_counts_rows_and_bytes(tmp_path):
    out = tmp_path / "pinned.csv"
    with Tracer() as tracer:
        assert cli.main(["sample", "--family", "pinned", "-n", "500",
                         "--seed", "3", "--out", str(out)]) == 0
    totals = layer_totals(tracer.spans)
    assert totals["sampler.calls"] == 1
    assert totals["sampler.rows"] == 500
    assert totals["cli.csv_bytes"] == out.stat().st_size
    assert totals["numerics.s"] == 0.0


def test_worker_thread_spans_keep_their_parent():
    target = moments.MomentTarget("pinned", "a", "mean")
    with Tracer() as tracer:
        moments.by_monte_carlo(target, 2000, RandomStream(5, 0), workers=2)
    (mc,) = [s for s in tracer.spans if s.name == "moments.by_monte_carlo"]
    draws = [s for s in tracer.spans if s.layer == "sampler"]
    assert len(draws) == 100
    assert all(s.parent == mc.id for s in draws)


def _write_sample(path, family="pinned", n=300):
    assert cli.main(["sample", "--family", family, "-n", str(n), "--seed", "4",
                     "--out", str(path)]) == 0


@pytest.mark.parametrize("family", sampler.FAMILIES)
def test_sample_csv_check_passes_real_output(tmp_path, family):
    path = tmp_path / "s.csv"
    _write_sample(path, family)
    outcome = check_sample_csv(str(path), family, 300, 0)
    assert (outcome.attempted, outcome.failed, outcome.problems) == (300, 0, [])


def test_sample_csv_check_catches_one_corrupted_row(tmp_path):
    path = tmp_path / "s.csv"
    _write_sample(path)
    lines = path.read_text().splitlines()
    fields = lines[7].split(",")
    fields[8], fields[9] = fields[9], fields[8]  # swap sides b and c
    lines[7] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    outcome = check_sample_csv(str(path), "pinned", 300, 0)
    assert outcome.failed == 1
    assert outcome.problems


def test_sample_csv_check_catches_a_perturbed_angle_and_a_missing_row(tmp_path):
    path = tmp_path / "s.csv"
    _write_sample(path)
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[11] = repr(float(fields[11]) + 1e-9)
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines[:-1]) + "\n")
    outcome = check_sample_csv(str(path), "pinned", 300, 0)
    assert outcome.failed == 2


def test_injected_error_fails_exactly_one_check(tmp_path):
    cmd = run.verify_command(str(tmp_path), 2, "--workers", "1", *run.TINY_SIZES,
                             "--inject-error", "geometry:area-3-4-5")
    op = run.run_operation([cmd], str(tmp_path), trace=True)
    assert op.outcome.problems == []
    assert op.totals["verify.checks_failed"] == 1
    assert op.outcome.failed / op.outcome.attempted == 1 / VERIFY_CHECKS


def test_traced_counts_repeat_exactly_for_one_seed(tmp_path):
    ops = [run.run_operation(run.workload_commands("verify_tiny", 2, str(tmp_path)),
                             str(tmp_path), trace=True) for _ in range(2)]
    for key in run.EXACT_COUNTS:
        assert ops[0].totals[key] == ops[1].totals[key], key
    assert ops[0].totals["verify.checks"] == VERIFY_CHECKS
    assert ops[0].totals["sampler.rows"] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "verify_tiny", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
