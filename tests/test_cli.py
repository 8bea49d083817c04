"""End-to-end tests of the command-line interface, run in-process.

Exit-code contract: 0 success, 1 runtime/IO failure (including failed
verification), 2 usage errors.  Every density kind in the catalog must be
reachable through both ``pdf`` and ``plot``.
"""

import contextlib
import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from nntriangles import cli, density, verify
from nntriangles.density import CATALOG

PI = math.pi

TINY_VERIFY = ["--mc-samples", "2000", "--big-mc-samples", "2000",
               "--ks-samples", "2000"]


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


@pytest.mark.parametrize("argv", [
    ["pdf", "--kind", "no_such_density", "--grid", "0:1:4"],
    ["pdf", "--kind", "pair_ab", "--grid", "0:1:4"],        # needs --points
    ["pdf", "--kind", "pinned_c", "--grid", "0:1"],         # malformed
    ["pdf", "--kind", "pinned_c", "--grid", "a:b:c"],
    ["pdf", "--kind", "pinned_c", "--grid", "1:0:4"],       # empty span
    ["pdf", "--kind", "pair_ab", "--points", "1.0"],        # wrong arity
    ["pdf", "--kind", "pair_ab", "--points", "1.0,2.0,3.0"],
])
def test_pdf_usage_errors(argv):
    code, _, err = run_cli(argv)
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("point,expected", [("nan,1", "nan"), ("1,nan", "nan"),
                                            ("inf,1", "0.0"), ("1,inf", "0.0"),
                                            ("1e300,1", "0.0")])
def test_pdf_pair_ac_edges_print_no_traceback(point, expected):
    code, out, err = run_cli(["pdf", "--kind", "pair_ac_integral",
                              "--points", point])
    assert code == 0
    assert "Traceback" not in err
    assert out.splitlines()[1].split(",")[-1] == expected


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
