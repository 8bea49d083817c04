"""End-to-end tests of the command-line interface, run in-process.

Exit-code contract: 0 success, 1 runtime/IO failure (including failed
verification), 2 usage errors.  Every density kind in the catalog must be
reachable through both ``pdf`` and ``plot``.
"""

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import multiprocessing
import pathlib
import sys
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from nntriangles import cli, density, moments, verify
from nntriangles.density import CATALOG

PI = math.pi

TINY_VERIFY = ["--mc-samples", "2000", "--big-mc-samples", "2000",
               "--ks-samples", "2000"]
TINY_SIZES = dict(mc_samples=2000, big_mc_samples=2000, ks_samples=2000)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse-level usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def test_sample_csv_deterministic():
    code1, out1, _ = run_cli(["sample", "--family", "staked", "-n", "10",
                              "--seed", "7"])
    code2, out2, _ = run_cli(["sample", "--family", "staked", "-n", "10",
                              "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == ("family,ax,ay,bx,by,cx,cy,a,b,c,alpha,beta,gamma")
    assert len(lines) == 11
    assert all(line.startswith("staked,") for line in lines[1:])


def test_sample_seed_changes_output():
    _, out1, _ = run_cli(["sample", "--family", "pinned", "-n", "5", "--seed", "1"])
    _, out2, _ = run_cli(["sample", "--family", "pinned", "-n", "5", "--seed", "2"])
    assert out1 != out2


def test_sample_json_structure():
    code, out, _ = run_cli(["sample", "--family", "uniformT", "-n", "4",
                            "--format", "json"])
    assert code == 0
    table = json.loads(out)
    assert table["columns"][0] == "family" and len(table["columns"]) == 13
    assert len(table["rows"]) == 4
    for row in table["rows"]:
        assert row[0] == "uniformT" and len(row) == 13
        assert row[7 + 2] == 1.0  # side c (the base) is exactly 1


def test_sample_to_file(tmp_path):
    target = tmp_path / "batch.csv"
    code, out, _ = run_cli(["sample", "--family", "pinned", "-n", "3",
                            "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().count("\n") == 4


def test_sample_unknown_family():
    code, _, err = run_cli(["sample", "--family", "isoceles"])
    assert code == 2
    assert "isoceles" in err


# ---------------------------------------------------------------------------
# shared configuration validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["sample", "--family", "pinned", "--seed", "-1"],
    ["sample", "--family", "pinned", "--seed", str(2**64)],
    ["sample", "--family", "pinned", "--workers", "0"],
    ["sample", "--family", "pinned", "-n", "0"],
    ["sample", "--family", "pinned", "--alpha", "0"],
    ["sample", "--family", "pinned", "--alpha", "1.5"],
    ["sample", "--family", "pinned", "--tol", "0"],
    ["sample", "--family", "pinned", "--format", "xml"],
    ["pdf", "--kind", "pinned_c"],                       # no grid, no points
    ["pdf", "--kind", "pinned_c", "--grid", "0:1:4", "--points", "0.5"],
    ["verify", "--mc-samples", "500"],                   # below the floor
    [],                                                  # missing subcommand
])
def test_usage_errors_exit_2(argv):
    code, _, _ = run_cli(argv)
    assert code == 2


# ---------------------------------------------------------------------------
# pdf
# ---------------------------------------------------------------------------

def test_pdf_grid_midpoints():
    code, out, _ = run_cli(["pdf", "--kind", "pinned_c", "--grid", "0:2:4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,pdf"
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    assert xs == [0.25, 0.75, 1.25, 1.75]
    for line in lines[1:]:
        x, val = (float(v) for v in line.split(","))
        assert val == pytest.approx(density.pdf_pinned_c(x), rel=1e-12)


def test_pdf_grid_pi_tokens():
    code, out, _ = run_cli(["pdf", "--kind", "pinned_gamma", "--grid", "0:pi:8"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 8
    assert float(rows[-1][0]) == pytest.approx(PI * 15 / 16)
    # the third-vertex angle never reaches pi/2, so the upper half is zero
    assert all(float(v) == 0.0 for _, v in rows[4:])
    assert all(float(v) > 0.0 for _, v in rows[:4])


def test_pdf_singular_point_flagged_inf():
    # midpoints 0.75, 1.0 (the divergence), 1.25
    code, out, _ = run_cli(["pdf", "--kind", "uT_side_a", "--grid",
                            "0.625:1.375:3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[2].split(",") == ["1.0", "inf"]

    code, out, _ = run_cli(["pdf", "--kind", "uT_side_a", "--grid",
                            "0.625:1.375:3", "--format", "json"])
    rows = json.loads(out)
    assert rows[1]["pdf"] == "inf"
    assert isinstance(rows[0]["pdf"], float)


def test_pdf_empty_grid():
    code, out, _ = run_cli(["pdf", "--kind", "pinned_c", "--grid", "0:1:0"])
    assert code == 0
    assert out == "x,pdf\n"


def test_pdf_points_univariate_and_multivariate():
    code, out, _ = run_cli(["pdf", "--kind", "pinned_beta",
                            "--points", "0.5;1.0;2.5"])
    assert code == 0
    assert len(out.splitlines()) == 4

    code, out, _ = run_cli(["pdf", "--kind", "pinned_sides_joint",
                            "--points", "1.0,1.2,0.8;5.0,1.0,0.5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2,x3,pdf"
    first = lines[1].split(",")
    assert float(first[3]) == pytest.approx(
        density.pdf_pinned_sides_joint(1.0, 1.2, 0.8), rel=1e-12)
    assert float(lines[2].split(",")[3]) == 0.0  # violates triangle inequality

    # every cell prints as its repr: 0.1 (not %.17g's 0.10000000000000001), inf
    code, out, _ = run_cli(["pdf", "--kind", "uT_side_a", "--points", "0.1,1,inf"])
    assert code == 0
    assert out == f"x,pdf\n0.1,{density.pdf_uT_side_a(0.1)!r}\n1.0,inf\ninf,0.0\n"


def test_pdf_grid_csv_streams_rows(tmp_path):
    # rows are formatted a block at a time, never all held as Python objects
    target = tmp_path / "grid.csv"
    tracemalloc.start()
    try:
        code = cli.main(["pdf", "--kind", "pinned_c", "--grid", "0:1:200000",
                         "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert target.read_text().count("\n") == 200_001
    assert peak < 40e6


def _json_records_text(records):
    return json.dumps(records, indent=1) + "\n"


@pytest.mark.parametrize("argv, count", [
    (["pdf", "--kind", "pinned_c", "--grid", "0:3:8193"], 8193),   # two blocks + 1
    (["pdf", "--kind", "pinned_c", "--grid", "0:3:4096"], 4096),   # one full block
    (["pdf", "--kind", "pinned_c", "--grid", "0:1:0"], 0),
    (["pdf", "--kind", "uT_side_a", "--points", "0.1,1,inf,nan"], 4),
    (["pdf", "--kind", "pair_ab", "--points", "0.7,0.9;1e300,1"], 2),
    # negative values after a space, which argparse alone reads as options
    (["pdf", "--kind", "pinned_c", "--grid", "-1:1:4"], 4),
    (["pdf", "--kind", "pair_ab", "--points", "-1,2"], 1),
    (["pdf", "--kind", "pinned_c", "--points", "-inf"], 1),
])
def test_pdf_json_streams_the_same_bytes(argv, count, tmp_path):
    # the records are written a block at a time, byte for byte what
    # json.dumps(records, indent=1) writes for the whole list
    code, out, _ = run_cli([*argv, "--format", "json"])
    assert code == 0
    records = json.loads(out)
    assert len(records) == count
    assert out == _json_records_text(records)
    # the same cells as the CSV rows
    code, csv_out, _ = run_cli(argv)
    assert code == 0
    header, *lines = csv_out.splitlines()
    assert [[repr(float(r[c])) for c in header.split(",")] for r in records] == \
        [[repr(float(v)) for v in line.split(",")] for line in lines]
    target = tmp_path / "pdf.json"
    assert cli.main([*argv, "--format", "json", "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == out
    # the value after a space reads as it does joined to its flag by "="
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    assert run_cli(joined) == (0, csv_out, "")


def test_pdf_grid_json_streams_records(tmp_path):
    # whole-document JSON peaks near 25 MB here; a block at a time, near 6 MB
    target = tmp_path / "grid.json"
    tracemalloc.start()
    try:
        code = cli.main(["pdf", "--kind", "pinned_c", "--grid", "0:1:30000",
                         "--format", "json", "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(target.read_text())) == 30_000
    assert peak < 12e6


@pytest.mark.parametrize("argv", [
    ["pdf", "--kind", "no_such_density", "--grid", "0:1:4"],
    ["pdf", "--kind", "pair_ab", "--grid", "0:1:4"],        # needs --points
    ["pdf", "--kind", "pinned_c", "--grid", "0:1"],         # malformed
    ["pdf", "--kind", "pinned_c", "--grid", "a:b:c"],
    ["pdf", "--kind", "pinned_c", "--grid", "1:0:4"],       # empty span
    ["pdf", "--kind", "pair_ab", "--points", "1.0"],        # wrong arity
    ["pdf", "--kind", "pair_ab", "--points", "1.0,2.0,3.0"],
    ["pdf", "--kind", "pinned_c", "--grid", "0:1:100000000000"],  # above the limit
    ["pdf", "--kind", "pinned_c", "--grid=-inf:0:4"],       # infinite span
    ["pdf", "--kind", "pinned_c", "--grid=-1e308:1e308:4"],
])
def test_pdf_usage_errors(argv):
    code, _, err = run_cli(argv)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("point,expected", [
    ("nan,1", "nan"), ("1,nan", "nan"), ("inf,1", "0.0"), ("1,inf", "0.0"),
    ("1e300,1", "0.0"),
    # thin or tiny triangles; the values are the b-form mpmath reference
    ("9.907021242543472e-06,1.5910789395764802", 1.0938943489309595e-07),
    ("0.5,8.871353193234626e-13", 7.984091816282619e-12),
    ("9.23344621981387e-72,1.1558402139381194e-79", 4.2132900822671584e-149),
])
def test_pdf_pair_ac_edges_print_no_traceback(point, expected):
    code, out, err = run_cli(["pdf", "--kind", "pair_ac_integral",
                              "--points", point])
    assert code == 0 and err == ""
    value = out.splitlines()[1].split(",")[-1]
    if isinstance(expected, str):
        assert value == expected
    else:
        assert float(value) == pytest.approx(expected, rel=1e-12)


def test_pdf_reaches_every_catalog_kind():
    probe = {1: ["--grid", "0.2:0.8:2"],
             2: ["--points", "0.7,0.9"],
             3: ["--points", "1.0,1.2,0.8"]}
    for tag, kind in CATALOG.items():
        code, out, err = run_cli(["pdf", "--kind", tag, *probe[kind.arity]])
        assert code == 0, f"{tag}: {err}"
        assert len(out.splitlines()) >= 2


# ---------------------------------------------------------------------------
# moments and tables
# ---------------------------------------------------------------------------

def test_moments_staked_table():
    code, out, _ = run_cli(["moments", "--family", "staked", "-n", "2000",
                            "--tol", "1e-6", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["quantity"] for r in rows] == ["alpha", "beta", "alphabeta"]
    alpha_row = rows[0]
    assert alpha_row["mean_closed"] == pytest.approx(PI / 2)
    assert alpha_row["mean_verdict"] == "pass"
    beta_row = rows[1]
    assert beta_row["mean_closed"] == "-"          # no closed form
    assert beta_row["mean_reference"] == pytest.approx(0.34306160)
    assert isinstance(beta_row["mean_quadrature"], float)
    assert beta_row["mean_square_verdict"] == "pass"


def test_moments_json_is_one_json_dumps(tmp_path):
    argv = ["moments", "--family", "anchored", "-n", "2000", "--tol", "1e-6",
            "--format", "json"]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert out == _json_records_text(json.loads(out))
    target = tmp_path / "moments.json"
    assert cli.main([*argv, "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == out


def test_moments_pinned_divergent_markers():
    code, out, _ = run_cli(["moments", "--family", "pinned", "-n", "2000",
                            "--tol", "1e-6", "--format", "json"])
    assert code == 0
    rows = {r["quantity"]: r for r in json.loads(out)}
    assert len(rows) == 19
    for quantity in ("b/a", "b/c", "c/a", "a/c"):
        row = rows[quantity]
        assert row["mean_square_closed"] == "inf"
        assert row["mean_square_quadrature"] == "inf"
        assert row["mean_square_mc"] == "inf"
        assert row["mean_square_mc_std_error"] == "-"
        # finite means alongside the divergent squares
        assert isinstance(row["mean_mc"], float)
    assert rows["ca"]["mean_reference"] == pytest.approx(0.49181215)
    assert all(r["mean_verdict"] == "pass" for r in rows.values())


def test_moments_unknown_family():
    code, _, _ = run_cli(["moments", "--family", "uniformT"])
    assert code == 2  # no moment table for the uniform-angle family


@pytest.mark.parametrize("argv", [["moments", "--family", "pinned", "-n", "500"],
                                  ["tables", "-n", "500"]])
def test_moment_commands_map_bad_sizes_to_usage_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert err.startswith("error:") and "n >= 1000" in err
    assert "Traceback" not in err


def test_tables_concatenates_families():
    code, out, _ = run_cli(["tables", "-n", "2000", "--tol", "1e-6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("family,quantity,mean_closed")
    assert len(lines) == 1 + 19 + 3 + 3
    families = [line.split(",")[0] for line in lines[1:]]
    assert families == ["pinned"] * 19 + ["staked"] * 3 + ["anchored"] * 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_json_report():
    code, out, err = run_cli(["verify", *TINY_VERIFY])
    assert code == 0, err
    report = json.loads(out)
    assert set(report) == {"seed", "workers", "alpha", "mc_samples",
                           "big_mc_samples", "ks_samples", "all_pass", "checks"}
    assert report["all_pass"] is True
    assert report["seed"] == 0 and report["workers"] == 1
    assert len(report["checks"]) >= 40
    for row in report["checks"]:
        assert set(row) == {"check", "family", "expected", "actual",
                            "tolerance", "pass"}
        assert isinstance(row["expected"], (int, float, str))
        assert isinstance(row["actual"], float)
        assert isinstance(row["tolerance"], float)
        assert isinstance(row["pass"], bool)


def test_verify_csv_format():
    code, out, _ = run_cli(["verify", *TINY_VERIFY, "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,family,expected,actual,tolerance,pass"
    assert len(lines) == 158


def test_verify_injected_failure():
    code, out, err = run_cli(["verify", *TINY_VERIFY,
                              "--inject-error", "normalization:pinned_c"])
    assert code == 1
    report = json.loads(out)
    assert report["all_pass"] is False
    bad = [row for row in report["checks"] if not row["pass"]]
    assert [row["check"] for row in bad] == ["normalization:pinned_c"]
    assert "normalization:pinned_c" in err


def test_unconverged_quadrature_fails_its_checks(monkeypatch):
    original = moments.by_quadrature

    def unconverged(target, tol=1e-8):
        return dataclasses.replace(original(target, tol), converged=False)

    monkeypatch.setattr(moments, "by_quadrature", unconverged)
    rows = verify.run_suite(seed=2, mc_samples=1000, big_mc_samples=1000,
                            ks_samples=1000)
    quadrature = [r for r in rows if r.check.startswith("reference:")
                  or r.check.startswith("table:") and r.check.endswith(":quadrature")]
    assert len(quadrature) == 38
    assert not any(r.passed for r in quadrature)


def test_unconverged_normalization_fails_its_checks(monkeypatch):
    def unconverged(integrate):
        def wrapped(*args, **kwargs):
            result = integrate(*args, **kwargs)  # one integral or a batch
            return dataclasses.replace(result, converged=np.zeros_like(result.converged))
        return wrapped

    # verify integrates by its own bindings, the trivariate mass and the
    # staked/anchored acuteness through moments.integrate_2d and the
    # truncated mean squares through moments.integrate_1d
    for module, name in ((verify, "integrate_1d"), (verify, "integrate_2d"),
                         (verify, "integrate_batch"), (moments, "integrate_1d"),
                         (moments, "integrate_2d")):
        monkeypatch.setattr(module, name, unconverged(getattr(module, name)))
    rows = verify.run_suite(seed=2, **TINY_SIZES)
    normalization = [r for r in rows if r.check.startswith("normalization:")]
    assert len(normalization) == 27
    assert not any(r.passed for r in normalization)
    # expected_ac integrates through moments.integrate_2d too
    (eac,) = [r for r in rows if r.check == "expected-ac:quadrature-vs-published-digits"]
    assert not eac.passed
    quadrature = [r for r in rows if r.check.startswith(
        ("special:", "acuteness:pinned-", "acuteness:staked-closed", "acuteness:anchored-closed",
         "marginal-consistency:", "truncated-mean-square:", "consistency:pair_ac"))]
    assert len(quadrature) == 19
    assert not any(r.passed for r in quadrature)


@pytest.mark.parametrize("seed", [2, 5])
def test_report_is_the_same_for_every_worker_count(seed):
    # with workers > 1 the Monte Carlo group draws in a worker process; at
    # these sizes seed 5 fails two Monte Carlo checks, so failures compare too
    reports = []
    for workers in (1, 2, 3):
        reports.append(verify.run_suite(seed=seed, workers=workers, **TINY_SIZES))
        assert multiprocessing.active_children() == []
    assert reports[0] == reports[1] == reports[2]
    assert sum(not r.passed for r in reports[0]) == (2 if seed == 5 else 0)


def test_error_beside_the_monte_carlo_worker_propagates(monkeypatch):
    def broken(tol=1e-7):
        raise RuntimeError("broken quadrature")

    monkeypatch.setattr(moments, "expected_ac", broken)
    with pytest.raises(RuntimeError, match="broken quadrature"):
        verify.run_suite(seed=2, workers=2, **TINY_SIZES)
    assert multiprocessing.active_children() == []


def test_verify_injected_monte_carlo_failure_with_workers():
    # the negative control through the worker process: its rows are
    # spliced in before the injection
    code, out, err = run_cli(["verify", "--workers", "2", *TINY_VERIFY,
                              "--inject-error", "monte-carlo:pinned:c:mean"])
    assert code == 1
    bad = [row["check"] for row in json.loads(out)["checks"] if not row["pass"]]
    assert bad == ["monte-carlo:pinned:c:mean"]
    assert "monte-carlo:pinned:c:mean" in err
    assert multiprocessing.active_children() == []


def test_monte_carlo_estimates_are_collected_after_every_other_group(monkeypatch):
    # the groups after Monte Carlo in report order run before it is
    # collected; the determinism group, last of all, is the only caller of
    # verify.sample_batch
    calls = []

    def logged(name, function):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(verify, "sample_batch", logged("sample_batch", verify.sample_batch))
    monkeypatch.setattr(verify, "_monte_carlo_estimates",
                        logged("estimates", verify._monte_carlo_estimates))
    rows = verify.run_suite(seed=2, workers=1, **TINY_SIZES)
    assert calls == ["sample_batch", "sample_batch", "estimates"]
    assert rows[-1].check == "determinism:repeated-sample-dump-identical"


def test_marginal_a_deviation_resolves_the_kink():
    # the (a, c) density has a square-root kink at c = a/2; one adaptive
    # piece over c reported convergence while 2.7e-7 off
    deviation = verify._marginal_a_deviation()
    assert deviation.converged
    assert deviation.value < 1e-10


def test_injection_hook_rejects_unknown_name():
    rows = [verify.CheckResult("a:b", "pinned", 1.0, 1.0, 0.1, True)]
    with pytest.raises(ValueError):
        verify._inject(rows, "no:such:check")


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def _plot(tmp_path, tag, extra=()):
    target = tmp_path / f"{tag}.svg"
    code, out, err = run_cli(["plot", "--kind", tag, "-n", "2000",
                              "--bins", "24", "--out", str(target), *extra])
    return code, target, err


def test_plot_svg_structure(tmp_path):
    code, target, err = _plot(tmp_path, "pinned_c")
    assert code == 0, err
    root = ET.fromstring(target.read_text())
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    paths = root.findall(".//s:path", ns)
    assert len(paths) == 1  # single theoretical curve
    assert "red" in paths[0].get("style", "") + paths[0].get("stroke", "")
    groups = [g for g in root.findall(".//s:g", ns)
              if g.get("class") == "histogram"]
    assert len(groups) == 1
    polys = groups[0].findall("s:polygon", ns)
    assert len(polys) == 1
    fill = polys[0].get("fill-opacity") or polys[0].get("style", "")
    assert "0.5" in fill
    title = root.find(".//s:title", ns)
    text = root.findall(".//s:text", ns)
    assert (title is not None and "pinned_c" in title.text) or \
        any("pinned_c" in (t.text or "") for t in text)


def test_plot_joint_kind_uses_marginal_proxy(tmp_path):
    code, target, err = _plot(tmp_path, "pair_ab")
    assert code == 0, err
    content = target.read_text()
    assert "pinned_a marginal" in content


def test_plot_reaches_every_catalog_kind(tmp_path):
    for tag in CATALOG:
        code, target, err = _plot(tmp_path, tag)
        assert code == 0, f"{tag}: {err}"
        assert target.exists() and target.stat().st_size > 500


def test_plot_usage_and_io_errors(tmp_path):
    code, _, _ = run_cli(["plot", "--kind", "nope", "--out",
                          str(tmp_path / "x.svg")])
    assert code == 2
    code, _, _ = run_cli(["plot", "--kind", "pinned_c", "--bins", "3",
                          "--out", str(tmp_path / "x.svg")])
    assert code == 2
    code, _, _ = run_cli(["plot", "--kind", "pinned_c", "-n", "0",
                          "--out", str(tmp_path / "x.svg")])
    assert code == 2
    code, _, err = run_cli(["plot", "--kind", "pinned_c", "-n", "500",
                            "--out", "/nonexistent-dir/x.svg"])
    assert code == 1 and err.startswith("error:")


def test_plot_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["plot", "--kind", "ratio_c_over_b", "-n", "500"])
    assert code == 0, err
    assert (tmp_path / "ratio_c_over_b.svg").exists()


# ---------------------------------------------------------------------------
# the benchmark's tracer
# ---------------------------------------------------------------------------

@pytest.fixture
def tracing(monkeypatch):
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs(tracing, tmp_path):
    # perfbench/tracing.py rebinds names in the package's modules and
    # refuses to install when one has moved or gone, so a refactor that
    # breaks the benchmark fails here too.
    # the benchmark's cli.write_csv_s and write_mb_per_s come from
    # SampleBatch.write_csv; a CSV writer that bypassed it would read 0
    target = tmp_path / "rows.csv"
    with tracing.Tracer() as tracer:
        assert cli.main(["sample", "--family", "pinned", "-n", "5000",
                         "--out", str(target)]) == 0
    writes = [s for s in tracer.spans if s.name == "cli.write_csv"]
    assert len(writes) == 1
    assert writes[0].info["bytes"] == target.stat().st_size


def test_benchmark_tracer_runs_verify(tracing):
    # the traced benchmark counts every check of a verify that crashed as
    # failed; the probes read the oracle's rng argument and result, the
    # suite's rows and the worker pools, which only verify reaches
    with tracing.Tracer() as tracer:
        code, out, err = run_cli(["verify", "--seed", "2", "--workers", "2",
                                  *TINY_VERIFY])
    assert code == 0, err
    assert len(json.loads(out)["checks"]) == 157
    names = {s.name for s in tracer.spans}
    assert {"density.pdf_pair_ac", "moments.expected_ac", "gof.ks_one_sample",
            "verify.run_suite"} <= names
    assert [s.info["rows"] for s in tracer.spans if s.name == "sampler.oracle"] == [2000]
    suite, = (s for s in tracer.spans if s.name == "verify.run_suite")
    assert suite.info == {"checks": 157, "failed": 0}


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------

# SHA-256 of the stdout of seed-pinned commands, measured with numpy 2.4.6;
# a deliberate change of any of them re-pins here and says why in CHANGES.md
PINNED_DIGESTS = [
    pytest.param(["verify", "--seed", "2", *TINY_VERIFY],
                 "2790195918d2744b3353b85492af2f61c383408118a70e970a024a1e8f3d36ea",
                 id="verify"),
    pytest.param(["pdf", "--kind", "pair_ac_integral", "--points",
                  "9.907021242543472e-06,1.5910789395764802;0.5,8.871353193234626e-13;"
                  "9.23344621981387e-72,1.1558402139381194e-79;0.3,0.1;1.0,0.4;0.6,0.5;"
                  "1.8,0.3;2.0,1.0;10.0,9.5;20.0,9.0"],
                 "280689270f34fc55504858874e4df09e71facb8e81cdae266e61d22e29fa7cef",
                 id="pdf-pair_ac"),
    *(pytest.param(["sample", "--family", family, "-n", "2000", "--seed", "7"],
                   digest, id=f"sample-{family}") for family, digest in [
        ("pinned", "7356a30300c3bf9d32e770f6c9b63a0bae7ab2dc9c06d80ad5b1be24f074047f"),
        ("staked", "93b1ee2cf2aaf7c76e1520304a4f68c9cf5f87ee5d9efbd607e7c5a901fc957e"),
        ("anchored", "a648f2d1efaf4b2ebc904b23b2776972b8ef47504d46658978ae5eba08e07089"),
        ("uniformT", "aa96bcba719a59a1e62e908f67f90615ae95b60290c636784f25cc5f8df798d9"),
    ]),
]


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="digests pinned with numpy 2.4.6, whose generators "
                           "and math kernels other versions need not match")
@pytest.mark.parametrize("argv, digest", PINNED_DIGESTS)
def test_pinned_output_digest(argv, digest):
    code, out, err = run_cli(argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
