"""Command-line surface: sampling, density evaluation, moment tables, the
verification suite, and SVG density plots.

Subcommands
-----------
``sample``   draw triangles from a family and dump them (CSV or JSON)
``pdf``      evaluate a catalog density on a grid or at explicit points
``moments``  one family's moment table, each cell computed three ways
``tables``   the moment tables of every family
``verify``   run the deterministic verification suite, exit 0 iff all pass
``plot``     histogram-plus-density SVG for any catalog density

Exit codes: 0 success, 1 failed verification or unwritable output, 2 usage
error (unknown family/kind, malformed flags).

Grids are written ``start:stop:count`` (``pi`` is accepted as a number,
optionally signed or with a numeric prefix such as ``0.5pi``) and are
sampled at the midpoints of ``count`` equal panels, so support boundaries
and interior singularities are never hit by default; explicit ``--points``
evaluate exactly where asked and flag infinite values as ``inf``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import astuple, dataclass

import numpy as np

from . import moments
from . import verify as verification
from ._svg import freedman_diaconis_bins, render_density_plot
from .density import CATALOG
from .gof import quantile
from .sampler import (CSV_HEADER, FAMILIES, ROW_BLOCK, RandomStream, sample_batch,
                      write_rows)

__all__ = ["RunConfig", "PlotSpec", "main"]


class UsageError(ValueError):
    """Bad command-line input: reported on stderr, exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated per-invocation settings shared by the subcommands."""

    seed: int = 0
    workers: int = 1
    n: int = 1
    fmt: str = "csv"
    out: str | None = None
    alpha: float = 0.001
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise UsageError(f"seed must fit an unsigned 64-bit value: {self.seed}")
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1: {self.workers}")
        if self.n < 1:
            raise UsageError(f"sample size must be >= 1: {self.n}")
        if self.fmt not in ("csv", "json"):
            raise UsageError(f"format must be csv or json: {self.fmt!r}")
        if not 0.0 < self.alpha < 1.0:
            raise UsageError(f"alpha must be in (0, 1): {self.alpha}")
        if not 0.0 < self.tol < math.inf:
            raise UsageError(f"tol must be positive and finite: {self.tol}")


@dataclass(frozen=True)
class PlotSpec:
    """Validated plot request: which density, how many samples, how binned,
    over which x-range (chosen to hold at least 99.5% of the density's
    mass), written where."""

    kind_tag: str
    n: int
    bins: int | None
    x_range: tuple[float, float]
    out: str

    def __post_init__(self) -> None:
        if self.kind_tag not in CATALOG:
            raise UsageError(f"unknown density kind {self.kind_tag!r}")
        if self.n < 1:
            raise UsageError(f"plot needs at least one sample: {self.n}")
        if self.bins is not None and self.bins < 5:
            raise UsageError(f"bins must be >= 5: {self.bins}")
        lo, hi = self.x_range
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise UsageError(f"empty plot range: {self.x_range}")


# Largest --grid count: well beyond any tabulation need, and small enough
# that the grid and its output table fit in memory.
_MAX_GRID_COUNT = 10**6


# ---------------------------------------------------------------------------
# small parsing and output helpers
# ---------------------------------------------------------------------------

def _parse_number(token: str) -> float:
    """A float literal, with ``pi`` accepted (``pi``, ``-pi``, ``0.5pi``)."""
    text = token.strip()
    if text.endswith("pi"):
        prefix = text[: -len("pi")].strip()
        if prefix in ("", "+"):
            return math.pi
        if prefix == "-":
            return -math.pi
        try:
            return float(prefix) * math.pi
        except ValueError:
            raise UsageError(f"cannot parse number {token!r}") from None
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"cannot parse number {token!r}") from None


def _parse_grid(text: str) -> np.ndarray:
    """``start:stop:count`` -> midpoints of ``count`` equal panels."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:count, got {text!r}")
    lo, hi = _parse_number(parts[0]), _parse_number(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"grid count must be an integer: {parts[2]!r}") from None
    if not 0 <= count <= _MAX_GRID_COUNT:
        raise UsageError(f"grid count must be in [0, {_MAX_GRID_COUNT}]: {count}")
    if count and not (hi > lo and math.isfinite(hi - lo)):
        raise UsageError(f"grid needs finite start < stop: {text!r}")
    step = (hi - lo) / count if count else 0.0
    return lo + (np.arange(count) + 0.5) * step


def _parse_points(text: str, arity: int) -> list[tuple[float, ...]]:
    """Semicolon-separated points; commas separate coordinates (for
    univariate kinds they may separate points as well)."""
    chunks = [c for c in text.split(";") if c.strip()]
    points: list[tuple[float, ...]] = []
    for chunk in chunks:
        coords = tuple(_parse_number(p) for p in chunk.split(",") if p.strip())
        if arity == 1:
            points.extend((c,) for c in coords)
        elif len(coords) == arity:
            points.append(coords)
        else:
            raise UsageError(
                f"point {chunk!r} has {len(coords)} coordinates, expected {arity}")
    return points


def _cell(value: float | None) -> float | str:
    if value is None:
        return "-"
    if math.isinf(value):
        return "inf"
    return float(value)


def _records(columns: list[str], rows) -> list[dict]:
    return [dict(zip(columns, row)) for row in rows]


def _opened(out: str | None):
    """A context giving the output stream: stdout, or the file ``out``."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    return open(out, "w", encoding="utf-8", newline="")


def _write_records(stream, columns: list[str], rows) -> None:
    """``json.dumps(records, indent=1) + "\\n"`` of the rows as column-keyed
    records, the same bytes written ``ROW_BLOCK`` records at a time."""
    separator = "[\n"
    for start in range(0, len(rows), ROW_BLOCK):
        block = json.dumps(_records(columns, rows[start:start + ROW_BLOCK]), indent=1)
        stream.write(separator + block[2:-2])
        separator = ",\n"
    stream.write("\n]\n" if len(rows) else "[]\n")


def _write_table(columns: list[str], rows, cfg: RunConfig) -> None:
    """Rows of cells in column order as CSV (cells print by ``str``) or JSON records."""
    with _opened(cfg.out) as stream:
        if cfg.fmt == "json":
            _write_records(stream, columns, rows)
        else:
            table = np.asarray(rows, dtype=object)
            blocks = (table[i:i + ROW_BLOCK] for i in range(0, len(table), ROW_BLOCK))
            write_rows(stream, ",".join(columns), ",".join(["%s"] * len(columns)), blocks)


def _emit(text: str, out: str | None) -> None:
    with _opened(out) as stream:
        stream.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sample(cfg: RunConfig, family: str) -> int:
    if family not in FAMILIES:
        raise UsageError(f"unknown family {family!r}; choose from {FAMILIES}")
    batch = sample_batch(family, cfg.n, RandomStream(cfg.seed, 0))
    if cfg.fmt == "csv":
        with _opened(cfg.out) as stream:
            batch.write_csv(stream)
        return 0
    rows = [[family, *row] for row in batch.table().tolist()]
    _emit(json.dumps({"columns": CSV_HEADER.split(","), "rows": rows}, indent=1) + "\n",
          cfg.out)
    return 0


def cmd_pdf(cfg: RunConfig, kind_tag: str, grid: str | None, points: str | None) -> int:
    if kind_tag not in CATALOG:
        raise UsageError(f"unknown density kind {kind_tag!r}")
    kind = CATALOG[kind_tag]
    if grid is not None and points is not None:
        raise UsageError("give either --grid or --points, not both")
    if grid is not None:
        if kind.arity != 1:
            raise UsageError(
                f"{kind_tag} takes {kind.arity} coordinates; use --points")
        coords = _parse_grid(grid)[:, None]
    elif points is not None:
        coords = np.array(_parse_points(points, kind.arity), dtype=float).reshape(-1, kind.arity)
    else:
        raise UsageError("pdf needs --grid start:stop:count or --points")

    columns = (["x"] if kind.arity == 1 else
               [f"x{i + 1}" for i in range(kind.arity)]) + ["pdf"]
    values = kind.pdf(*coords.T)
    table = np.column_stack([coords, values]).astype(object)
    table[np.isinf(values), -1] = "inf"
    _write_table(columns, table, cfg)
    return 0


_MOMENT_COLUMNS = ["family", "quantity"] + [
    f"{prefix}_{cell}" for prefix in ("mean", "mean_square")
    for cell in ("closed", "reference", "quadrature", "mc", "mc_std_error", "verdict")]
# The fields of verify.CheckResult, in order.
_CHECK_COLUMNS = ["check", "family", "expected", "actual", "tolerance", "pass"]


def _moment_rows(cfg: RunConfig, family: str) -> list[list]:
    """One family's table rows, each a quantity's mean cells then its mean
    square's; every Monte Carlo cell comes from one draw of the family."""
    cells = moments.targets(family)
    rng = RandomStream(cfg.seed, 10_000 + 100 * moments.FAMILIES.index(family))
    estimates = moments.batch_means(family, cfg.n, rng,
                                    {t: moments.cell_reducer(t) for t in cells}, cfg.workers)
    rows: dict[str, list] = {}
    for target in cells:
        report = moments.moment_report(target, cfg.tol, estimates[target])
        divergent = report.closed == math.inf
        row = rows.setdefault(target.quantity, [family, target.quantity])
        row += [_cell(report.closed), _cell(report.reference),
                "inf" if divergent else
                _cell(report.quadrature.value if report.quadrature else None)]
        if divergent:
            row += ["inf", "-"]
        else:
            row += [float(report.monte_carlo.value), float(report.monte_carlo.std_error)]
        row.append("pass" if report.verdict else "fail")
    return list(rows.values())


def cmd_moments(cfg: RunConfig, families: tuple[str, ...]) -> int:
    """The moment tables of ``families``, one after another."""
    rows = []
    for family in families:
        if family not in moments.FAMILIES:
            raise UsageError(
                f"unknown family {family!r}; choose from {moments.FAMILIES}")
        try:
            rows += _moment_rows(cfg, family)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    _write_table(_MOMENT_COLUMNS, rows, cfg)
    return 0


def cmd_verify(cfg: RunConfig, mc_samples: int, big_mc_samples: int,
               ks_samples: int, inject: str | None) -> int:
    try:
        results = verification.run_suite(
            seed=cfg.seed, workers=cfg.workers, mc_samples=mc_samples,
            big_mc_samples=big_mc_samples, ks_samples=ks_samples,
            alpha=cfg.alpha, inject_failure=inject)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = [astuple(r) for r in results]
    all_pass = verification.suite_passed(results)
    if cfg.fmt == "csv":
        _write_table(_CHECK_COLUMNS, rows, cfg)
    else:
        report = {"seed": cfg.seed, "workers": cfg.workers, "alpha": cfg.alpha,
                  "mc_samples": mc_samples, "big_mc_samples": big_mc_samples,
                  "ks_samples": ks_samples, "all_pass": all_pass,
                  "checks": _records(_CHECK_COLUMNS, rows)}
        _emit(json.dumps(report, indent=1) + "\n", cfg.out)
    if all_pass:
        return 0
    failing = [r.check for r in results if not r.passed]
    print("verification failed: " + ", ".join(failing), file=sys.stderr)
    return 1


def cmd_plot(cfg: RunConfig, kind_tag: str, bins: int | None, out: str | None) -> int:
    if kind_tag not in CATALOG:
        raise UsageError(f"unknown density kind {kind_tag!r}")
    proxy_tag = CATALOG[kind_tag].marginal or kind_tag
    proxy = CATALOG[proxy_tag]
    lo, hi = proxy.support[0]
    if not math.isfinite(hi):
        hi = quantile(proxy, 0.995)
    spec = PlotSpec(kind_tag, cfg.n, bins, (float(lo), float(hi)),
                    out if out is not None else f"{kind_tag}.svg")

    batch = sample_batch(proxy.family, spec.n, RandomStream(cfg.seed, 0))
    values = np.asarray(batch.statistic(proxy.statistic), dtype=float)
    inside = values[(values >= spec.x_range[0]) & (values <= spec.x_range[1])]
    bin_count = (spec.bins if spec.bins is not None
                 else freedman_diaconis_bins(inside, spec.x_range))
    curve_x = np.linspace(spec.x_range[0], spec.x_range[1], 512)
    curve_y = np.asarray(proxy.pdf(curve_x), dtype=float)
    title = f"{kind_tag} density" if proxy_tag == kind_tag else \
        f"{kind_tag} density ({proxy_tag} marginal)"
    svg = render_density_plot(title, curve_x, curve_y, inside,
                              spec.x_range, bin_count)
    _emit(svg, spec.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nntriangles",
        description="Nearest-neighbor triangle families: sampling, densities, "
                    "moment tables, verification, and SVG plots.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base RNG seed")
    common.add_argument("--workers", type=int, default=1,
                        help="worker threads for batched computations; verify "
                             "with N >= 2 runs its Monte Carlo group in one worker "
                             "process on N threads beside the other checks "
                             "(the report is the same for every N)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: csv; verify: json)")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--alpha", type=float, default=0.001,
                        help="significance level for statistical checks")
    common.add_argument("--tol", type=float, default=1e-8,
                        help="quadrature tolerance override")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common],
                       help="draw triangles and dump them")
    p.add_argument("--family", required=True, help=f"one of {FAMILIES}")
    p.add_argument("-n", type=int, default=1000, help="number of triangles")

    p = sub.add_parser("pdf", parents=[common],
                       help="evaluate a catalog density")
    p.add_argument("--kind", required=True, help="density tag (see docs)")
    p.add_argument("--grid", default=None,
                   help="start:stop:count midpoint grid (univariate kinds)")
    p.add_argument("--points", default=None,
                   help="explicit points: coordinates comma-separated, "
                        "points semicolon-separated")

    p = sub.add_parser("moments", parents=[common],
                       help="one family's moment table")
    p.add_argument("--family", required=True, help=f"one of {moments.FAMILIES}")
    p.add_argument("-n", type=int, default=100_000,
                   help="Monte Carlo sample size per family")

    p = sub.add_parser("tables", parents=[common],
                       help="moment tables for every family")
    p.add_argument("-n", type=int, default=100_000,
                   help="Monte Carlo sample size per family")

    p = sub.add_parser("verify", parents=[common],
                       help="run the verification suite")
    p.add_argument("--mc-samples", type=int, default=1_000_000,
                   help="Monte Carlo size for moment checks")
    p.add_argument("--big-mc-samples", type=int, default=10_000_000,
                   help="Monte Carlo size for the side-product mean check")
    p.add_argument("--ks-samples", type=int, default=100_000,
                   help="sample size for distributional checks")
    p.add_argument("--inject-error", default=None, metavar="CHECK",
                   help="self-test hook: force the named check to fail")

    p = sub.add_parser("plot", parents=[common],
                       help="histogram + density curve SVG")
    p.add_argument("--kind", required=True, help="density tag")
    p.add_argument("-n", type=int, default=100_000, help="sample size")
    p.add_argument("--bins", type=int, default=None,
                   help="histogram bins (default: adaptive, floor 20)")
    return parser


def _config(args: argparse.Namespace, default_fmt: str = "csv") -> RunConfig:
    return RunConfig(seed=args.seed, workers=args.workers,
                     n=getattr(args, "n", 1),
                     fmt=args.format if args.format is not None else default_fmt,
                     out=args.out, alpha=args.alpha, tol=args.tol)


def main(argv: list[str] | None = None) -> int:
    # argparse reads a value starting with "-" after a space as an option, so
    # each --grid/--points value is joined to its flag: "--grid=-1:1:4"
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in ("--grid", "--points"):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = _build_parser().parse_args(tokens)
    try:
        if args.command == "sample":
            return cmd_sample(_config(args), args.family)
        if args.command == "pdf":
            return cmd_pdf(_config(args), args.kind, args.grid, args.points)
        if args.command == "moments":
            return cmd_moments(_config(args), (args.family,))
        if args.command == "tables":
            return cmd_moments(_config(args), moments.FAMILIES)
        if args.command == "verify":
            return cmd_verify(_config(args, default_fmt="json"),
                              args.mc_samples, args.big_mc_samples,
                              args.ks_samples, args.inject_error)
        if args.command == "plot":
            return cmd_plot(_config(args), args.kind, args.bins, args.out)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
