"""Acceptance gate: twelve numbered criteria, one test (and one pytest -v
pass/fail line) per criterion.

Most criteria are served by a single full-size verification run shared
across the module (seed 2, one million Monte Carlo draws per moment cell,
ten million for the product-of-sides mean, one hundred thousand draws per
goodness-of-fit sample).  Each test states its quantitative bar in its
docstring and asserts the relevant named checks, so a red line here points
directly at the failing check names.
"""

import contextlib
import io
import json
import math

import pytest

from nntriangles import cli, moments, verify
from nntriangles.moments import closed_form, targets

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def suite():
    """One full-size verification run, indexed by check name."""
    rows = verify.run_suite(seed=2, workers=1, mc_samples=1_000_000,
                            big_mc_samples=10_000_000, ks_samples=100_000,
                            alpha=0.001)
    return {row.check: row for row in rows}


def _passed(suite, names):
    missing = [n for n in names if n not in suite]
    assert not missing, f"checks never ran: {missing}"
    failed = [n for n in names if not suite[n].passed]
    assert not failed, "failed checks: " + ", ".join(
        f"{n} (expected {suite[n].expected}, got {suite[n].actual:.12g}, "
        f"tolerance {suite[n].tolerance:g})" for n in failed)


def _group(suite, prefix):
    return [name for name in suite if name.startswith(prefix)]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_criterion_01_every_density_normalizes(suite):
    """Every cataloged density integrates to 1: univariate within 1e-8,
    bivariate within 1e-8 (1e-6 for the integral-form pair), and the
    trivariate side density within 1e-6."""
    names = _group(suite, "normalization:")
    assert len(names) == 27
    univariate = [n for n in names if suite[n].family in
                  ("pinned", "staked", "anchored", "uniformT")
                  and "joint" not in n and "pair" not in n]
    assert len(univariate) >= 17
    for name in names:
        assert suite[name].tolerance <= 1e-6
        if name in univariate or name in ("normalization:pair_ab", "normalization:pair_bc",
                                          "normalization:pinned_angles_joint"):
            assert suite[name].tolerance <= 1e-8
    _passed(suite, names)
    _passed(suite, _group(suite, "consistency:pair_ac_integral"))


def test_criterion_02_closed_moment_table(suite):
    """Every closed-form moment cell is reproduced by quadrature within
    1e-6 and by one million Monte Carlo draws within three standard
    errors of the batch means."""
    table = _group(suite, "table:")
    finite_cells = sum(1 for t in targets()
                       if closed_form(t) not in (None, math.inf))
    assert len(table) == finite_cells == 29
    _passed(suite, table)
    mc = [n for n in _group(suite, "monte-carlo:pinned:") if n.count(":") == 3]
    assert len(mc) == sum(1 for t in targets("pinned")
                          if closed_form(t) not in (None, math.inf))
    _passed(suite, mc)
    _passed(suite, ["monte-carlo:staked:beta:mean"])


def test_criterion_03_product_of_sides_mean(suite):
    """The mean of the pinned product of nearest and far sides matches the
    eight quoted decimal digits 0.49181215 by quadrature within 1e-7 and by
    ten million Monte Carlo draws within three standard errors."""
    _passed(suite, ["expected-ac:quadrature-vs-published-digits",
                    "expected-ac:monte-carlo-vs-quadrature"])
    assert round(moments.EXPECTED_AC, 8) == pytest.approx(0.49181215, abs=5e-9)


def test_criterion_04_side_correlation(suite):
    """The correlation of the two random pinned sides equals the closed
    expression, is within 0.001 of 0.636, and is recovered by one million
    Monte Carlo draws within three standard errors."""
    _passed(suite, ["correlation:pinned-ab-closed-vs-published",
                    "correlation:pinned-ab-monte-carlo"])
    assert suite["correlation:pinned-ab-closed-vs-published"].tolerance <= 1e-3


def test_criterion_05_acuteness(suite):
    """Acuteness probabilities: the pinned obtuse probability decomposes as
    1/2 + 1/4 + 0 (tolerance 1e-8; the third-vertex term exactly zero at
    1e-12); staked and anchored closed forms match 2-D quadrature within
    1e-8 and Monte Carlo within three standard errors; and the anchored
    triangle is strictly more often acute than the staked one."""
    names = _group(suite, "acuteness:")
    assert len(names) == 8
    _passed(suite, names)
    assert moments.ACUTENESS_CLOSED["staked"] == pytest.approx(
        0.172552469813835, abs=1e-8)
    assert moments.ACUTENESS_CLOSED["anchored"] == pytest.approx(
        0.245846722322059, abs=1e-8)
    assert moments.ACUTENESS_CLOSED["anchored"] > moments.ACUTENESS_CLOSED["staked"]


def test_criterion_06_reference_decimals(suite):
    """Each tabulated decimal-only moment (staked and anchored angle means
    and mean squares, and the pinned product-of-sides mean) is reproduced
    by quadrature to its eight published decimals, within 1e-6."""
    names = _group(suite, "reference:")
    assert len(names) == 9
    for name in names:
        assert suite[name].tolerance <= 1e-6
    _passed(suite, names)


def test_criterion_07_process_oracle(suite):
    """A literal Poisson-process simulation and the exact polar sampler
    agree on all three side-length distributions: two-sample KS on one
    hundred thousand draws per side at significance 0.001."""
    _passed(suite, ["oracle-ks:a", "oracle-ks:b", "oracle-ks:c"])


def test_criterion_08_ks_matrix_with_negative_controls(suite):
    """Every sampled univariate statistic passes a one-sample KS test
    against its catalog density (one hundred thousand draws, significance
    0.001), the bivariate chi-square tests pass, and deliberately mismatched
    sampler/density pairs are rejected by the same machinery."""
    ks_rows = _group(suite, "ks:")
    assert len(ks_rows) == 19
    _passed(suite, ks_rows)
    _passed(suite, _group(suite, "chi-square:"))
    negatives = _group(suite, "ks-negative-control:") + \
        _group(suite, "chi-square-negative-control:")
    assert len(negatives) == 3
    _passed(suite, negatives)
    for name in negatives:
        assert suite[name].expected == "reject"


def test_criterion_09_marginals_reduce_from_joints(suite):
    """Integrating the trivariate side density reproduces all three side
    marginals within 1e-5 at twenty interior points, and integrating the
    angle joints reproduces the angle marginals within 1e-6."""
    _passed(suite, ["marginal-consistency:sides-a",
                    "marginal-consistency:sides-b",
                    "marginal-consistency:sides-c",
                    "marginal-consistency:angles-alpha-uniform",
                    "marginal-consistency:angles-beta-closed-form",
                    "marginal-consistency:staked-alpha-uniform"])
    for side in ("a", "b", "c"):
        assert suite[f"marginal-consistency:sides-{side}"].tolerance <= 1e-5


def test_criterion_10_uniform_angle_identities(suite):
    """For the uniform-angle family, the ratio of the two random sides has
    the same law as a single side (identity checked at twenty points within
    1e-12), and the max- and min-side densities normalize within 1e-6."""
    _passed(suite, ["marginal-consistency:uT-ratio-equals-side",
                    "normalization:uT_max", "normalization:uT_min"])
    assert suite["marginal-consistency:uT-ratio-equals-side"].tolerance <= 1e-12


def test_criterion_11_divergent_cells_stay_symbolic(suite):
    """The four heavy-tailed ratio mean squares are reported as divergent
    everywhere, never as numbers: quadrature refuses them, Monte Carlo
    flags them, truncated versions grow as 2 ln M (checked at M = 10, 100,
    1000 within 1e-10), and the command-line moment table prints 'inf' in
    all three value columns."""
    _passed(suite, ["truncated-mean-square:b/c:M=10",
                    "truncated-mean-square:b/c:M=100",
                    "truncated-mean-square:b/c:M=1000"])
    flags = _group(suite, "divergence-flag:")
    assert len(flags) == 4
    _passed(suite, flags)

    code, out = run_cli(["moments", "--family", "pinned", "-n", "2000",
                         "--tol", "1e-6", "--format", "json"])
    assert code == 0
    rows = {r["quantity"]: r for r in json.loads(out)}
    for quantity in ("b/a", "b/c", "c/a", "a/c"):
        for column in ("mean_square_closed", "mean_square_quadrature",
                       "mean_square_mc"):
            assert rows[quantity][column] == "inf"


def test_criterion_12_verification_is_deterministic(suite):
    """Two verification runs with the same seed and worker count emit
    byte-identical reports, and a repeated sample dump inside the suite is
    byte-identical as well."""
    _passed(suite, ["determinism:repeated-sample-dump-identical"])
    argv = ["verify", "--seed", "5", "--mc-samples", "2000",
            "--big-mc-samples", "2000", "--ks-samples", "2000"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2
    assert out1 == out2
    assert json.loads(out1)["checks"]  # non-trivial report
