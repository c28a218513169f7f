"""Fast self-tests of the benchmark itself, at tiny geometries.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from hepack import linalg, network  # noqa: E402

NAMES = ("stock", "conv-bank", "matmul-mix")
TINY_CONV = dict(h=8, w=8, k=3, channels=2, batch=8, row_width=64)
TINY_SHAPES = ((2, 3, 4), (4, 5, 3), (3, 6, 2))


@pytest.fixture
def workdir():
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny(name: str, workdir: str, **params):
    if name == "stock":
        wl = workloads.Stock(0, workdir, geometry=network.reduced_geometry(),
                             n_images=16, **params)
    elif name == "conv-bank":
        wl = workloads.ConvBank(0, workdir, **TINY_CONV, **params)
    else:
        wl = workloads.MatmulMix(0, workdir, shapes=TINY_SHAPES, **params)
    wl.prepare()
    return wl


def declared(key: str) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[key]]


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, workdir):
    wl = tiny(name, workdir)
    run = harness.measure(wl, 0.0, min_calls=2)
    assert run.correct, run.errors
    assert list(run.metrics) == declared("end_to_end")
    assert all(m["value"] > 0 for m in run.metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced_and_reports_every_layer(name, workdir):
    wl = tiny(name, workdir)
    spans = os.path.join(workdir, "spans.json")
    run = harness.measure_traced(wl, 0.0, min_calls=2,
                                 spans_path=spans)
    assert run.correct, run.errors
    assert run.absent == []
    assert list(run.metrics) == declared("per_layer")
    assert run.metrics["network.model_mismatch"]["value"] == 0
    assert run.metrics["trace.overhead_ratio"]["value"] > 0
    with open(spans, encoding="utf-8") as fh:
        assert json.load(fh)["spans"]


def test_stock_stages_are_read_per_layer(workdir):
    wl = tiny("stock", workdir)
    run = harness.measure_traced(wl, 0.0, min_calls=1)
    for stage in tracer.STAGES:
        assert run.metrics[f"network.{stage}.depth_bits"]["value"] > 0
    assert run.metrics["network.fc-1.rot"]["value"] > 0


def test_self_time_plus_children_equals_duration(workdir):
    wl = tiny("stock", workdir)
    wl.setup()
    tr = tracer.Tracer()
    original = network.infer
    with tr.installed(), tr.span("call"):
        wl.call(wl.inputs(0), tr.backend)
    assert network.infer is original
    own = tr.self_times(tr.spans)
    children = {}
    for s in tr.spans:
        children.setdefault(s.parent, []).append(s)
    assert len(tr.spans) > 20
    for s in tr.spans:
        kids = children.get(s.sid, [])
        assert own[s.sid] + sum(k.duration for k in kids) == pytest.approx(
            s.duration, rel=1e-9, abs=1e-12)
        assert own[s.sid] >= -1e-12
        assert all(s.start <= k.start <= k.end <= s.end for k in kids)


@pytest.mark.parametrize("name", NAMES)
def test_tracing_backend_counts_equal_ledger(name, workdir):
    wl = tiny(name, workdir)
    wl.setup()
    tr = tracer.Tracer()
    out = wl.call(wl.inputs(0), tr.backend)
    counted = {k: tr.op_calls[tracer.OPS.index(k)] for k in tracer.COUNTED}
    assert counted == out.counts
    assert sum(counted.values()) > 0


def test_too_shallow_budget_counts_failed_calls(workdir):
    wl = tiny("stock", workdir, log_q=100)
    run = harness.measure(wl, 0.0, min_calls=3)
    assert (run.attempted, run.failed, run.correct) == (3, 3, False)
    assert any("DepthExhaustedError" in e for e in run.errors)
    assert run.metrics["ok_ratio"]["failed_ratio"] == 1.0

    traced = harness.measure_traced(tiny("stock", workdir, log_q=100), 0.0,
                                    min_calls=2)
    assert traced.failed == traced.attempted == 2
    assert traced.metrics["backend.depth_exhausted"]["value"] > 0


def test_removed_primitive_is_reported_absent(workdir, monkeypatch):
    monkeypatch.delattr(linalg, "window_sums")
    run = harness.measure_traced(tiny("conv-bank", workdir), 0.0, min_calls=1)
    assert run.correct, run.errors
    assert run.absent == ["linalg.window_sums"]
    assert run.metrics["linalg.window_sums.calls"]["value"] == 0


def test_without_sources_exits_nonzero_and_prints_no_result(workdir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(HERE, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "stock", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
