"""Correctness checks on the outputs of the benchmarked commands.

Each check returns an :class:`Outcome`: how many operations the output
stands for, how many of them failed, any problems that make the output
itself wrong, and the names of verification checks that ran and failed
(a failed check is a result the program reports, not a wrong output).
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

VERIFY_CHECKS = 157
CSV_HEADER = "family,ax,ay,bx,by,cx,cy,a,b,c,alpha,beta,gamma"
_REPORT_KEYS = {"check", "family", "expected", "actual", "tolerance", "pass"}
# Sides are recomputed from the printed vertices, and angles are summed, in
# double precision: both agree with the printed values to a few ulps.
_TOL = 1e-12


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    failed_checks: list[str] = field(default_factory=list)


def check_verify_report(path: str, exit_code: int, seed: int) -> Outcome:
    """A well-formed ``verify`` JSON report with every check, whose failed
    checks agree with ``all_pass`` and with the exit code."""
    try:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError) as exc:
        return Outcome(VERIFY_CHECKS, VERIFY_CHECKS, [f"unreadable report: {exc}"])
    rows = report.get("checks")
    if not isinstance(rows, list):
        return Outcome(VERIFY_CHECKS, VERIFY_CHECKS, ["report has no check list"])
    problems = []
    if len(rows) != VERIFY_CHECKS:
        problems.append(f"{len(rows)} checks, expected {VERIFY_CHECKS}")
    if any(not isinstance(r, dict) or set(r) != _REPORT_KEYS
           or not isinstance(r["pass"], bool) for r in rows):
        problems.append("malformed check row")
        return Outcome(VERIFY_CHECKS, VERIFY_CHECKS, problems)
    if len({r["check"] for r in rows}) != len(rows):
        problems.append("duplicate check names")
    failed = sum(not r["pass"] for r in rows)
    if report.get("seed") != seed:
        problems.append(f"report seed {report.get('seed')!r}, expected {seed}")
    if report.get("all_pass") is not (failed == 0):
        problems.append("all_pass disagrees with the checks")
    if exit_code != (0 if failed == 0 else 1):
        problems.append(f"exit code {exit_code} with {failed} failed checks")
    return Outcome(max(len(rows), VERIFY_CHECKS), failed, problems,
                   [r["check"] for r in rows if not r["pass"]])


def check_sample_csv(path: str, family: str, n: int, exit_code: int) -> Outcome:
    """Header, row count, and every row's geometry: sides equal the vertex
    distances, angles lie in (0, pi) and sum to pi, and the family's own
    construction holds (see ``_family_violations``)."""
    if exit_code != 0:
        return Outcome(n, n, [f"sample exited with {exit_code}"])
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return Outcome(n, n, [f"unreadable CSV: {exc}"])
    header, _, body = text.partition("\n")
    if header != CSV_HEADER:
        return Outcome(n, n, [f"bad header {header!r}"])
    lines = body.splitlines()
    problems = []
    if len(lines) != n:
        problems.append(f"{len(lines)} rows, expected {n}")
    prefix = family + ","
    bad = np.array([not line.startswith(prefix) or line.count(",") != 12
                    for line in lines], dtype=bool)
    good_lines = [line[len(prefix):] for line, b in zip(lines, bad) if not b]
    table = (np.loadtxt(io.StringIO("\n".join(good_lines)), delimiter=",", ndmin=2)
             if good_lines else np.empty((0, 12)))
    invalid = int(bad.sum()) + int(row_violations(table, family).sum())
    invalid += abs(n - len(lines))
    if invalid:
        problems.append(f"{invalid} invalid rows")
    return Outcome(n, invalid, problems)


def row_violations(table: np.ndarray, family: str) -> np.ndarray:
    """Boolean mask of rows (ax, ay, bx, by, cx, cy, a, b, c, alpha, beta,
    gamma) that break a geometric or family invariant."""
    verts, sides, angles = table[:, :6], table[:, 6:9], table[:, 9:12]
    ax, ay, bx, by, cx, cy = verts.T
    a, b, c = sides.T
    expected = np.stack([np.hypot(bx - cx, by - cy), np.hypot(ax - cx, ay - cy),
                         np.hypot(ax - bx, ay - by)], axis=1)
    bad = ~np.isfinite(table).all(axis=1)
    with np.errstate(invalid="ignore"):
        bad |= (np.abs(sides - expected) > _TOL * np.maximum(expected, 1.0)).any(axis=1)
        bad |= ~((angles > 0.0) & (angles < math.pi)).all(axis=1)
        bad |= np.abs(angles.sum(axis=1) - math.pi) > _TOL
        bad |= ~(sides > 0.0).all(axis=1)
        bad |= _family_violations(family, verts, a, b, c)
    return bad


def _family_violations(family, verts, a, b, c) -> np.ndarray:
    ax, ay, bx, by, cx, cy = verts.T
    if family == "pinned":
        # A at the origin; B nearer than C, so c < b and a < b + c < 2b
        return (ax != 0.0) | (ay != 0.0) | ~(c < b) | ~(a < 2.0 * b)
    base = {"staked": (0.0, 1.0), "anchored": (-0.5, 0.5), "uniformT": (0.0, 1.0)}
    if family not in base:
        raise ValueError(f"unknown family {family!r}")
    left, right = base[family]
    # unit base on the x-axis, apex in the upper half-plane
    return ((ax != left) | (bx != right) | (ay != 0.0) | (by != 0.0)
            | (np.abs(c - 1.0) > _TOL) | ~(cy > 0.0))
