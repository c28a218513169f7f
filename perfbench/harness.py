"""Closed-loop measurement of one workload, and the metrics it reports.

Single process, single thread: each call starts when the previous one and
its correctness check have finished. A call that raises, or whose output
or ledger fails its check, is counted as failed and the run goes on.

Untraced runs give the end-to-end metrics. Traced runs pair every call
with an untraced call on the same input (alternating which goes first),
require bitwise-equal outputs and equal ledgers, and give the per-layer
metrics plus the tracing overhead.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from hepack import linalg

from tracer import (CALL_FUNCTIONS, COUNTED, OPS, SETUP_FUNCTIONS, STAGE_FIELDS,
                    STAGES, Tracer)

UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def plain(backend):
    return backend


def metric(value, unit: str, n: int, **extra) -> dict:
    return dict(value=value, unit=unit, n=n, **extra)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With fewer than eleven samples this is the maximum (percentile 100).
    """
    xs = sorted(values)
    if len(xs) < 11:
        return 100.0, xs[-1]
    return 100.0 * (len(xs) - 10) / len(xs), xs[-11]


def timed_setup(wl) -> tuple[float, str | None]:
    """Set-up plus one warm-up call, timed; a warm-up failure is returned.

    The warm-up lets lazily built state (mask caches) fill before the
    measured calls; if it fails, the measured calls fail too and are
    counted there.
    """
    start = time.perf_counter()
    wl.setup()
    error = None
    try:
        wl.call(wl.inputs(0), plain)
    except Exception as e:  # reported; the measured calls count failures
        error = f"{type(e).__name__}: {e}"
    return time.perf_counter() - start, error


@dataclass
class Run:
    """Everything one measured run recorded."""

    workload: str
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def summary(self) -> dict:
        return dict(correct=self.correct, attempted=self.attempted,
                    failed=self.failed, errors=self.errors, absent=self.absent,
                    metrics=self.metrics)

    def fail(self, i: int, problems: list[str]):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"call {i}: " + "; ".join(problems))


def _call(wl, inp, wrap):
    """Time one call; returns (seconds, outcome, problems)."""
    try:
        start = time.perf_counter()
        out = wl.call(inp, wrap)
        return time.perf_counter() - start, out, []
    except Exception as e:  # a failed call is counted; the run goes on
        return 0.0, None, [f"{type(e).__name__}: {e}",
                           traceback.format_exc(limit=-3)]


def measure(wl, seconds: float, setup_samples=(), min_calls: int = 1) -> Run:
    """Untraced run of a prepared workload: end-to-end metrics.

    `setup_samples` are set-up times measured in other fresh processes;
    this process's own set-up is one more sample.
    """
    run = Run(wl.name)
    own_setup, warm_error = timed_setup(wl)
    if warm_error:
        run.errors.append(f"warm-up: {warm_error}")
    setups = [own_setup, *setup_samples]
    times, items, ledgers = [], 0, []
    i = 1
    deadline = time.perf_counter() + seconds
    while run.attempted < min_calls or time.perf_counter() < deadline:
        inp = wl.inputs(i)
        dt, out, problems = _call(wl, inp, plain)
        run.attempted += 1
        problems = problems or wl.check(inp, out)
        if problems:
            run.fail(i, problems)
        else:
            times.append(dt)
            items += out.items
            ledgers.append((out.counts, out.depth_bits))  # not the output
        i += 1
    run.metrics = end_to_end(run, setups, times, items, ledgers)
    return run


def end_to_end(run: Run, setups, times, items, ledgers) -> dict:
    ok = len(times)
    m = {"setup_s": metric(statistics.median(setups), "s", len(setups))}
    if ok:
        pct, tail_s = tail(times)
        m["items_per_s"] = metric(items / sum(times), "1/s", ok)
        m["call_p50_s"] = metric(statistics.median(times), "s", ok)
        m["call_tail_s"] = metric(tail_s, "s", ok, percentile=pct)
        for k in COUNTED:
            m[f"{k}_per_call"] = metric(
                sum(c[k] for c, _ in ledgers) / ok, "count", ok)
        m["depth_bits"] = metric(max(d for _, d in ledgers), "bits", ok)
    m["ok_ratio"] = metric(ok / run.attempted, "ratio", run.attempted,
                           failed_ratio=run.failed / run.attempted)
    m["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    return m


def _cache_lookups() -> tuple[int, int]:
    """Total hits and misses of the linalg mask caches (`make_*`)."""
    hits = misses = 0
    for name, fn in vars(linalg).items():
        if name.startswith("make_") and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
    return hits, misses


def _same(xs, ys) -> bool:
    """Bitwise equality of two tuples of arrays."""
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(xs, ys))


def measure_traced(wl, seconds: float, min_calls: int = 1,
                   spans_path: str | None = None) -> Run:
    """Traced run of a prepared workload: per-layer metrics and overhead."""
    run = Run(wl.name)
    tracer = Tracer()
    run.absent = tracer.absent
    with tracer.installed(), tracer.span("setup"):
        _, warm_error = timed_setup(wl)
    if warm_error:
        run.errors.append(f"warm-up: {warm_error}")
    plain_times, traced_times = [], []
    stage_sums = {name: dict.fromkeys(STAGE_FIELDS, 0) for name in STAGES}
    mismatched = hits = misses = 0
    i = 1
    deadline = time.perf_counter() + seconds
    while run.attempted < min_calls or time.perf_counter() < deadline:
        inp = wl.inputs(i)
        traced_first = i % 2 == 1
        if not traced_first:
            t_plain, o_plain, p_plain = _call(wl, inp, plain)
        first = len(tracer.spans)
        h0, m0 = _cache_lookups()
        with tracer.installed(), tracer.span("call"):
            t_traced, o_traced, p_traced = _call(wl, inp, tracer.backend)
        h1, m1 = _cache_lookups()
        hits, misses = hits + h1 - h0, misses + m1 - m0
        if traced_first:
            t_plain, o_plain, p_plain = _call(wl, inp, plain)
        run.attempted += 1
        problems = p_plain + p_traced
        if not problems:
            problems = wl.check(inp, o_plain)
            if not _same(o_plain.output, o_traced.output):
                problems.append("traced output differs from untraced")
            if (o_plain.counts, o_plain.depth_bits) != (o_traced.counts,
                                                        o_traced.depth_bits):
                problems.append("traced ledger differs from untraced")
        stages = tracer.network_stages(tracer.spans[first:])
        if stages and o_traced is not None:
            depths = dict(o_traced.layer_depths)
            for name, row in stages:
                row["depth_bits"] = depths.get(name, 0)
            # A removed stage function is reported absent, not as a mismatch.
            if hasattr(wl, "stage_mismatches") and not tracer.stages_absent:
                bad = wl.stage_mismatches(stages)
                mismatched += len(bad)
                if bad:
                    problems.append(f"stages {bad} differ from the model")
            for name, row in stages:
                for k in stage_sums.get(name, ()):
                    stage_sums[name][k] += row[k]
        if problems:
            run.fail(i, problems)
        else:
            plain_times.append(t_plain)
            traced_times.append(t_traced)
        i += 1
    if spans_path:
        tracer.write(spans_path, workload=wl.name)
    run.metrics = per_layer(tracer, run.attempted, stage_sums, mismatched,
                            hits, misses, plain_times, traced_times)
    return run


def per_layer(tracer: Tracer, calls: int, stage_sums, mismatched, hits, misses,
              plain_times, traced_times) -> dict:
    """Per-call means over the traced calls (per set-up for loaders)."""
    roots = {s.sid: s.name for s in tracer.spans if s.parent is None}
    by_root = {"call": [], "setup": []}
    for s in tracer.spans:
        by_root[roots[s.root]].append(s)
    m = {}
    for root, spec in (("call", CALL_FUNCTIONS), ("setup", SETUP_FUNCTIONS)):
        n = max(1, sum(1 for name in roots.values() if name == root))
        totals = tracer.function_totals(by_root[root])
        for fn, fields in spec.items():
            row = totals.get(fn, (0, 0.0, 0.0))
            for fld in fields:
                value = row[("calls", "s", "self_s").index(fld)]
                m[f"{fn}.{fld}"] = metric(value / n, UNITS[fld], n)
    n = max(1, calls)
    for name in STAGES:
        for fld, unit in STAGE_FIELDS.items():
            m[f"network.{name}.{fld}"] = metric(
                stage_sums[name][fld] / n, unit, n)
    m["network.model_mismatch"] = metric(mismatched / n, "count", n)
    m["linalg.mask_cache.hit_ratio"] = metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio", hits + misses)
    for op, count, secs in zip(OPS, tracer.op_calls, tracer.op_seconds):
        m[f"backend.{op}.calls"] = metric(count / n, "count", n)
        m[f"backend.{op}.s"] = metric(secs / n, "s", n)
    call_time = sum(s.duration for s in tracer.spans
                    if s.parent is None and s.name == "call")
    m["backend.share"] = metric(
        sum(tracer.op_seconds) / call_time if call_time else 0.0, "ratio", n)
    m["backend.depth_exhausted"] = metric(tracer.depth_exhausted / n, "count", n)
    ratio = (statistics.median(traced_times) / statistics.median(plain_times)
             if plain_times else 0.0)
    m["trace.overhead_ratio"] = metric(ratio, "ratio", len(plain_times))
    return m


def environment(root: str) -> dict:
    """Where the numbers were measured."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return dict(nproc=os.cpu_count(), cpu=cpu,
                python=platform.python_version(), numpy=np.__version__,
                loadavg=[round(x, 2) for x in os.getloadavg()],
                commit=_git_commit(root))


def _git_commit(root: str) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report_lines(run: Run) -> list[str]:
    """Every metric by name with its unit and sample count."""
    lines = [f"{run.workload}: {run.attempted} calls attempted, {run.failed} failed"]
    lines += [f"  {e}" for e in run.errors]
    if run.absent:
        lines.append(f"  absent (not traced): {', '.join(run.absent)}")
    for name, m in run.metrics.items():
        extra = "".join(f" {k}={v:.4g}" for k, v in m.items()
                        if k not in ("value", "unit", "n"))
        lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} "
                     f"n={m['n']}{extra}")
    return lines
