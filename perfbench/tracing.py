"""Span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps the public functions of each nntriangles layer and
rebinds every module attribute that refers to them (``verify.sample_batch``,
``moments.by_quadrature``, ...), so the package's own files stay unchanged
and calls between modules are seen too.  Each call records a :class:`Span`
in memory: name, start, end, thread and parent span.  Thread pools created
by ``verify`` and ``moments`` are swapped for one that hands the submitting
thread's current span to the worker, so spans on worker threads keep their
parent.

:func:`layer_totals` reduces one command's spans to additive per-layer
totals (counts, busy seconds, bytes); :func:`layer_metrics` turns totals,
possibly summed over several commands, into the reported metrics.

Busy time of a layer is, per thread, the union of its spans' intervals,
summed over threads (so nested calls within a layer count once, and two
worker threads busy at once count twice).  Self time of a span is its
duration minus the union of its direct children's intervals, so children
that overlap on two worker threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def busy_time(spans) -> float:
    """Per-thread union of the spans' intervals, summed over threads."""
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[s.thread].append((s.start, s.end))
    return sum(union_length(iv) for iv in by_thread.values())


def self_time(span: Span, children) -> float:
    """``span``'s duration minus the union of its children, clipped to it."""
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.duration - union_length([iv for iv in clipped if iv[1] > iv[0]])


class Tracer:
    """Records spans for wrapped functions; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, probe=None):
        """``fn`` wrapped to record a span named ``name``.  ``probe(args,
        kwargs)``, if given, runs before the call and returns a function of
        the result giving the span's ``info``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            finish = probe(args, kwargs) if probe is not None else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, name, start, end,
                                         threading.get_ident(), parent,
                                         {"raised": True}))
                raise
            end = time.perf_counter()
            stack.pop()
            info = finish(result) if finish is not None else {}
            tracer.spans.append(Span(span_id, name, start, end,
                                     threading.get_ident(), parent, info))
            return result

        return wrapper

    def executor_class(self):
        """A ThreadPoolExecutor whose tasks inherit the submitter's span."""
        tracer = self

        class SpanExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                inherited = stack[-1:]

                def task():
                    own = tracer._stack()
                    saved = own[:]
                    own[:] = inherited
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        own[:] = saved

                return super().submit(task)

        return SpanExecutor

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced layer of the imported nntriangles package."""
        from nntriangles import cli, density, gof, moments, numerics, sampler, verify

        modules = {"cli": cli, "density": density, "gof": gof, "moments": moments,
                   "numerics": numerics, "sampler": sampler, "verify": verify}
        for span_name, home, attr, users, probe in _TARGETS:
            original = getattr(modules[home], attr)
            wrapped = self.wrap(span_name, original, probe)
            for user in (home, *users):
                bound = getattr(modules[user], attr)
                if bound is not original:
                    raise RuntimeError(f"{user}.{attr} is not {home}.{attr}; "
                                       "the trace would miss calls")
                self.patch(modules[user], attr, wrapped)
        self.patch(sampler.SampleBatch, "write_csv", self.wrap(
            "cli.write_csv", sampler.SampleBatch.write_csv, _csv_probe))
        executor = self.executor_class()
        for module in (verify, moments):
            self.patch(module, "ThreadPoolExecutor", executor)

    def uninstall(self) -> None:
        """Restore every binding ``install``/``patch`` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# what is traced, and what each span records
# ---------------------------------------------------------------------------

def _sampler_probe(rng_position: int):
    def probe(args, kwargs):
        rng = args[rng_position] if len(args) > rng_position else kwargs["rng"]
        before = rng.resamples
        return lambda batch: {"rows": len(batch), "resamples": rng.resamples - before}
    return probe


def _integral_probe(args, kwargs):
    return lambda r: {"neval": r.neval, "converged": bool(r.converged)}


def _kind_probe(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    tag = getattr(kind, "tag", kind)
    return lambda report: {"kind": tag}


def _suite_probe(args, kwargs):
    return lambda rows: {"checks": len(rows),
                         "failed": sum(not r.passed for r in rows)}


def _csv_probe(args, kwargs):
    destination = args[1] if len(args) > 1 else kwargs["destination"]
    if hasattr(destination, "write"):
        before = destination.tell()
        return lambda _: {"bytes": destination.tell() - before}
    return lambda _: {"bytes": os.path.getsize(destination)}


# (span name, defining module, attribute, other modules importing it, probe)
_TARGETS = (
    ("cli.main", "cli", "main", (), None),
    ("sampler.sample_batch", "sampler", "sample_batch",
     ("cli", "gof", "moments", "verify"), _sampler_probe(2)),
    ("sampler.oracle", "sampler", "sample_pinned_oracle_batch", ("verify",),
     _sampler_probe(1)),
    ("numerics.integrate_1d", "numerics", "integrate_1d",
     ("density", "gof", "moments", "verify"), _integral_probe),
    ("numerics.integrate_2d", "numerics", "integrate_2d", ("moments", "verify"),
     _integral_probe),
    ("numerics.fixed_panel", "numerics", "fixed_panel_integrals", ("gof",), None),
    ("density.pdf_pair_ac", "density", "pdf_pair_ac", ("verify",), None),
    ("moments.by_quadrature", "moments", "by_quadrature", (), None),
    ("moments.expected_ac", "moments", "expected_ac", (), None),
    ("moments.acuteness", "moments", "acuteness", (), None),
    ("moments.by_monte_carlo", "moments", "by_monte_carlo", (), None),
    ("gof.ks_one_sample", "gof", "ks_one_sample", ("verify",), _kind_probe),
    ("gof.ks_two_sample", "gof", "ks_two_sample", ("verify",), None),
    ("gof.chi_square_region", "gof", "chi_square_region", ("verify",), None),
    ("verify.run_suite", "verify", "run_suite", (), _suite_probe),
)


# ---------------------------------------------------------------------------
# reduction to metrics
# ---------------------------------------------------------------------------

def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Additive per-layer totals of one command's spans."""
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def inside_layer(s: Span) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.layer == s.layer:
                return True
            parent = by_id.get(parent.parent)
        return False

    sampler = [s for s in spans if s.layer == "sampler"]
    sampler_outer = [s for s in sampler if not inside_layer(s)]
    numerics = [s for s in spans if s.layer == "numerics"]
    integrals = by_name["numerics.integrate_1d"] + by_name["numerics.integrate_2d"]
    ks = sorted(by_name["gof.ks_one_sample"], key=lambda s: s.start)
    seen: set = set()
    ks_first = []
    for s in ks:
        kind = s.info.get("kind")
        if kind not in seen:
            seen.add(kind)
            ks_first.append(s)
    suites = by_name["verify.run_suite"]
    mains = by_name["cli.main"]
    writes = by_name["cli.write_csv"]
    return {
        "sampler.calls": len(sampler_outer),
        "sampler.rows": sum(s.info.get("rows", 0) for s in sampler_outer),
        "sampler.resamples": sum(s.info.get("resamples", 0) for s in sampler_outer),
        "sampler.busy_s": busy_time(sampler),
        "sampler.oracle_s": busy_time(by_name["sampler.oracle"]),
        "numerics.integrate_1d.calls": len(by_name["numerics.integrate_1d"]),
        "numerics.integrate_2d.calls": len(by_name["numerics.integrate_2d"]),
        "numerics.neval": sum(s.info.get("neval", 0) for s in integrals),
        "numerics.unconverged": sum(s.info.get("converged") is False for s in integrals),
        "numerics.s": busy_time(numerics),
        "numerics.fixed_panel_s": busy_time(by_name["numerics.fixed_panel"]),
        "density.pdf_pair_ac.calls": len(by_name["density.pdf_pair_ac"]),
        "density.pdf_pair_ac_s": busy_time(by_name["density.pdf_pair_ac"]),
        "moments.by_quadrature.calls": len(by_name["moments.by_quadrature"]),
        "moments.by_quadrature_s": busy_time(by_name["moments.by_quadrature"]),
        "moments.expected_ac_s": busy_time(by_name["moments.expected_ac"]),
        "moments.acuteness_s": busy_time(by_name["moments.acuteness"]),
        "moments.by_monte_carlo_s": busy_time(by_name["moments.by_monte_carlo"]),
        "gof.grids": len(seen),
        "gof.ks_first_s": sum(s.duration for s in ks_first),
        "gof.ks_repeat_s": sum(s.duration for s in ks) - sum(s.duration for s in ks_first),
        "gof.ks_two_sample_s": busy_time(by_name["gof.ks_two_sample"]),
        "gof.chi_square_region_s": busy_time(by_name["gof.chi_square_region"]),
        "verify.run_suite_s": sum(s.duration for s in suites),
        "verify.self_s": sum(self_time(s, children[s.id]) for s in suites),
        "verify.checks": sum(s.info.get("checks", 0) for s in suites),
        "verify.checks_failed": sum(s.info.get("failed", 0) for s in suites),
        "cli.main_s": sum(s.duration for s in mains),
        "cli.self_s": sum(self_time(s, children[s.id]) for s in mains),
        "cli.write_csv_s": busy_time(writes),
        "cli.csv_bytes": sum(s.info.get("bytes", 0) for s in writes),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(totals: dict[str, float], bytes_out: int, cpu_s: float,
                  wall_s: float) -> dict[str, float]:
    """Reported per-layer metrics (all but ``trace.overhead_frac``) from
    totals summed over the commands of one operation."""
    metrics = {k: v for k, v in totals.items() if k != "cli.csv_bytes"}
    rows, resamples = totals["sampler.rows"], totals["sampler.resamples"]
    metrics["sampler.useful_frac"] = _ratio(rows, rows + resamples)
    metrics["sampler.rows_per_s"] = _ratio(rows, totals["sampler.busy_s"])
    metrics["cli.bytes_out"] = bytes_out
    metrics["cli.write_mb_per_s"] = _ratio(totals["cli.csv_bytes"] / 1e6,
                                           totals["cli.write_csv_s"])
    metrics["proc.cpu_s"] = cpu_s
    metrics["proc.cpu_per_wall"] = _ratio(cpu_s, wall_s)
    return metrics
