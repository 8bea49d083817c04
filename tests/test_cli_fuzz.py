"""Fuzzed command lines, run in-process.

Whatever the argv, ``cli.main`` exits 0, 1 or 2 (argparse's own usage
exit counts as 2), prints no traceback, and lets no exception or
RuntimeWarning escape.  Sizes stay small: at most 500 samples, grids of at
most 10^4 points (or counts above the documented limit, which are rejected
before anything is allocated), at most two workers, and output files only
under the test's temporary directory.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nntriangles import cli
from nntriangles.density import CATALOG
from nntriangles.sampler import FAMILIES

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FUZZ = settings(max_examples=60, deadline=None, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse-level usage failures
            code = exc.code
    return code, err.getvalue()


def _assert_contract(argv):
    code, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code


# number tokens as a user might type them, well formed or not
NUMBERS = st.one_of(
    st.floats().map(repr),                       # includes nan, inf, -0.0, 1e308
    st.integers(-10**4, 10**4).map(str),
    st.sampled_from(["pi", "-pi", "+pi", "0.5pi", "2 pi", "pi pi", "", " ", "x",
                     "1e999", "-1e999", "0x10", "1_0", "--"]),
)
COUNTS = st.one_of(
    st.integers(0, 10**4).map(str),
    st.integers(10**6 + 1, 10**40).map(str),     # above the documented limit
    st.sampled_from(["", "-1", "1.5", "1e3", "x"]),
)
GRIDS = st.one_of(
    st.builds(lambda lo, hi, n: f"{lo}:{hi}:{n}", NUMBERS, NUMBERS, COUNTS),
    st.text(max_size=12),
)
POINTS = st.one_of(
    st.lists(st.lists(NUMBERS, min_size=1, max_size=4), max_size=5).map(
        lambda pts: ";".join(",".join(p) for p in pts)),
    st.text(max_size=12),
)


@st.composite
def common_flags(draw, tmp_path):
    """Shared flags, in range or not; values joined with ``=`` so negative
    numbers reach the program's own validation."""
    flags = []
    if draw(st.booleans()):
        seed = draw(st.one_of(st.integers(0, 2**64 - 1), st.integers(-3, -1),
                              st.integers(2**64, 2**64 + 3)))
        flags.append(f"--seed={seed}")
    if draw(st.booleans()):
        flags.append(f"--workers={draw(st.integers(-1, 2))}")
    if draw(st.booleans()):
        flags.append(f"--format={draw(st.sampled_from(['csv', 'json', 'xml']))}")
    if draw(st.booleans()):
        flags.append(f"--alpha={draw(st.sampled_from(['0.001', '0', '1', 'nan', '-1', 'x']))}")
    if draw(st.booleans()):
        flags.append(f"--tol={draw(st.sampled_from(['1e-8', '0', '-1', 'nan', 'inf', 'x']))}")
    out = draw(st.sampled_from([None, "out.txt", "", "missing/out.txt"]))
    if out is not None:
        flags.append(f"--out={tmp_path / out}")        # "" names the directory itself
    return flags


@st.composite
def sample_argv(draw, tmp_path):
    family = draw(st.one_of(st.sampled_from(FAMILIES), st.text(max_size=8)))
    n = draw(st.one_of(st.integers(-2, 500).map(str), st.sampled_from(["x", "1e3"])))
    return ["sample", f"--family={family}", f"-n{n}", *draw(common_flags(tmp_path))]


@st.composite
def pdf_argv(draw, tmp_path):
    kind = draw(st.one_of(st.sampled_from(sorted(CATALOG)), st.text(max_size=8)))
    argv = ["pdf", f"--kind={kind}"]
    if draw(st.booleans()):
        argv.append(f"--grid={draw(GRIDS)}")
    if draw(st.booleans()):
        argv.append(f"--points={draw(POINTS)}")
    return argv + draw(common_flags(tmp_path))


@FUZZ
@given(data=st.data())
def test_fuzz_sample_and_pdf(tmp_path, data):
    argv = data.draw(st.one_of(sample_argv(tmp_path), pdf_argv(tmp_path)))
    _assert_contract(argv)


# every subcommand, each in a cheap valid form, to which malformed flags
# are appended (a later flag overrides an earlier one)
BASES = {
    "sample": ["sample", "--family", "pinned", "-n", "10"],
    "pdf": ["pdf", "--kind", "pinned_c", "--grid", "0:1:4"],
    "moments": ["moments", "--family", "staked", "-n", "1000"],
    "tables": ["tables", "-n", "1000"],
    "verify": ["verify", "--mc-samples", "1000", "--big-mc-samples", "1000",
               "--ks-samples", "1000"],
    "plot": ["plot", "--kind", "pinned_c", "-n", "100"],
}
MALFORMED_COMMON = [
    ["--seed=-1"], ["--seed=18446744073709551616"], ["--seed", "x"],
    ["--workers=0"], ["--workers=-2"], ["--workers", "1.5"], ["--format", "xml"],
    ["--alpha", "0"], ["--alpha", "1"], ["--alpha", "nan"], ["--alpha", "x"],
    ["--tol", "0"], ["--tol=-1e-8"], ["--tol", "nan"], ["--tol", "inf"],
    ["--no-such-flag"], ["stray-positional"], ["--seed"],
]
MALFORMED_OWN = {
    "sample": [["-n", "0"], ["-n", "x"], ["--family", "scalene"]],
    "pdf": [["--kind", "nope"], ["--grid", "0:1"], ["--grid", "0:1:1000001"],
            ["--grid", "1:0:4"], ["--grid=-inf:0:4"], ["--points", "0.5"]],
    "moments": [["-n", "0"], ["-n", "999"], ["--family", "uniformT"]],
    "tables": [["-n", "0"], ["-n", "999"]],
    "verify": [["--mc-samples", "999"], ["--ks-samples", "0"],
               ["--big-mc-samples", "x"]],
    "plot": [["--bins", "4"], ["--kind", "nope"], ["-n", "0"]],
}


@FUZZ
@given(data=st.data())
def test_fuzz_malformed_flags_exit_2(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(BASES)))
    bad = data.draw(st.lists(st.sampled_from(MALFORMED_COMMON + MALFORMED_OWN[command]),
                             min_size=1, max_size=3))
    argv = [*BASES[command], "--out", str(tmp_path / "out.txt"),
            *(token for flag in bad for token in flag)]
    assert _assert_contract(argv) == 2


@FUZZ
@given(command=st.text(max_size=10).filter(lambda t: t not in BASES))
def test_fuzz_unknown_command_exit_2(command):
    assert _assert_contract([command]) == 2
