"""Opt-in seed sweeps: the exact failing checks of the suite per seed.

At 2000 samples per group, and at the default sizes, a few checks fail at
some seeds with nothing wrong, at the rate the suite's 3-sigma and
alpha = 1e-3 thresholds predict.  Pinning those sets makes any verdict a
change flips visible.  The tiny sweep takes about 20 s and the default one
about 90 s with two workers, so they run only when NNTRIANGLES_SEED_SWEEP=1
is set.
"""

import os

import pytest

from nntriangles import verify

SEEDS = range(1, 31)
TINY_SIZES = dict(mc_samples=2000, big_mc_samples=2000, ks_samples=2000)

# seed -> the checks that fail at it; every other seed passes
EXPECTED_FAILURES = {
    5: {"monte-carlo:pinned:b/a:mean", "monte-carlo:pinned:c/a:mean"},
    10: {"ks:pinned_beta", "ks:ratio_a_over_b", "ks:ratio_b_over_a"},
    25: {"correlation:pinned-ab-monte-carlo"},
    29: {"monte-carlo:pinned:a:mean", "monte-carlo:pinned:a/b:mean",
         "monte-carlo:pinned:gammaalpha:mean"},
    30: {"monte-carlo:pinned:b/c:mean"},
}

# the same at the default sizes
EXPECTED_DEFAULT_FAILURES = {
    12: {"monte-carlo:pinned:a/c:mean"},
    19: {"monte-carlo:pinned:a/b:mean-square", "monte-carlo:pinned:alpha:mean",
         "monte-carlo:pinned:beta:mean", "monte-carlo:pinned:beta:mean-square"},
    25: {"monte-carlo:pinned:a/c:mean"},
    26: {"monte-carlo:pinned:b/a:mean", "monte-carlo:pinned:beta:mean-square"},
}

sweep = pytest.mark.skipif(os.environ.get("NNTRIANGLES_SEED_SWEEP") != "1",
                           reason="slow; set NNTRIANGLES_SEED_SWEEP=1 to run")


def _failed_checks(workers, **sizes):
    failed = {}
    for seed in SEEDS:
        rows = verify.run_suite(seed=seed, workers=workers, **sizes)
        failed[seed] = {r.check for r in rows if not r.passed}
    return failed


@sweep
def test_tiny_suite_fails_the_pinned_checks_at_each_seed():
    expected = {seed: EXPECTED_FAILURES.get(seed, set()) for seed in SEEDS}
    assert _failed_checks(1, **TINY_SIZES) == expected


@sweep
def test_default_suite_fails_the_pinned_checks_at_each_seed():
    expected = {seed: EXPECTED_DEFAULT_FAILURES.get(seed, set()) for seed in SEEDS}
    assert _failed_checks(2) == expected
