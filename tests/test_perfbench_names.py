"""The benchmark traces hepack functions by name; each must still exist.

`perfbench/test_perfbench.py` asserts that a traced run finds every name
in `tracer.EXPECTED`. This runs the same lookup in the main suite, so a
deletion that would break the benchmark's self-tests fails here first.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    found, absent = tracer.discover()
    assert absent == []
    assert sorted(found) == tracer.EXPECTED
