"""The benchmark traces hepack by name and through its own backend wrapper.

`perfbench/test_perfbench.py` asserts that a traced run finds every name
in `tracer.EXPECTED`. This runs the same lookup in the main suite, so a
deletion that would break the benchmark's self-tests fails here first. It
also drives the benchmark's `TracingBackend`, so an interface change it
does not forward fails here before the traced benchmark runs.
"""

import importlib.util
from pathlib import Path

import numpy as np

from hepack import Plaintext
from common import sim

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_function_exists():
    tracer = load_tracer()
    found, absent = tracer.discover()
    assert absent == []
    assert sorted(found) == tracer.EXPECTED


def test_tracing_backend_forwards_plaintext_operands():
    bare = sim(8)
    traced = load_tracer().Tracer().backend(sim(8))
    results = []
    row = Plaintext([0.5, -2.0])
    for backend in (bare, traced):
        ct = backend.encrypt(np.linspace(-1.0, 1.0, 8))
        outs = [backend.add(ct, 0.3), backend.add(ct, np.arange(8.0)),
                backend.cmul(ct, 0.7), backend.cmul(ct, np.arange(5.0, 13.0)),
                backend.encrypt(row), backend.add(ct, row), backend.cmul(ct, row)]
        results.append([(backend.decrypt(o).tobytes(), o.budget_bits) for o in outs])
    assert results[0] == results[1]
    assert traced.ledger.snapshot() == bare.ledger.snapshot()


def test_tracing_backend_traces_each_product_of_a_dot():
    # TracingBackend inherits SimdBackend.dot, so a traced dot counts each op.
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    results = []
    for backend in (sim(8), tracer.backend(sim(8))):
        ct = backend.encrypt(np.arange(8.0))
        out = backend.dot([ct, ct, ct], [2.0, backend.encrypt(0.5), Plaintext([1.0, -1.0])])
        results.append((out.slots.tobytes(), out.budget_bits, backend.ledger.snapshot()))
    assert results[0] == results[1]
    assert dict(zip(tracer_module.OPS, tracer.op_calls)) == {
        "encrypt": 2, "decrypt": 0, "add": 2, "mul": 1, "cmul": 2, "rot": 0}
