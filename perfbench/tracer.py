"""Span tracing for the benchmark's traced runs.

Spans are recorded around the hepack functions that the per-layer
metrics name (EXPECTED). While a tracer is installed, every attribute of
every loaded hepack module that refers to one of those functions is
replaced by a recording wrapper, so calls between library modules are
seen as well as the benchmark's own calls; uninstalling puts the
originals back. Nothing in the library itself changes. Per-element
helpers such as `diagonal_slot_column` are left unwrapped: they run
thousands of times per product, and a span each would swamp the trace.

The six backend operations are counted and timed by a delegating backend
instead of being recorded as spans: a stock batch makes ~12k of them, and
a span each would cost more memory and overhead than the layer spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

from hepack.backend import DepthExhaustedError, SimdBackend

OPS = ("encrypt", "decrypt", "add", "mul", "cmul", "rot")
COUNTED = ("mul", "cmul", "rot", "add")  # the kinds ModulusLedger counts

# Traced function -> the per-call fields reported for it.
CALL_FUNCTIONS = {
    "matmul.he_matmul_partitioned": ("calls", "s", "self_s"),
    "matmul.split_weight_groups": ("s",),
    "linalg.shift_rows": ("calls", "s", "self_s"),
    "linalg.broadcast_row_sums": ("calls", "s", "self_s"),
    "linalg.window_sums": ("calls", "s", "self_s"),
    "linalg.compact_columns": ("calls", "s", "self_s"),
    "linalg.reduce_add": ("calls", "s", "self_s"),
    "conv.span_kernel": ("calls", "s"),
    "conv.he_conv": ("calls", "s", "self_s"),
    "encodings.pack_image_batch": ("calls", "s"),
    "encodings.encode_transpose_extended": ("calls", "s"),
    "encodings.encode_row_major": ("calls", "s"),
}
# Functions timed per set-up instead of per call.
SETUP_FUNCTIONS = {
    "weights_io.load_weights_csv": ("s",),
    "mnist.load_idx_images": ("s",),
}
# Direct children of network.infer that make up its stages.
STAGE_KINDS = {"conv.conv_layer": "conv", "network.apply_activation": "act",
               "network.fc_layer": "fc"}
STAGES = ("conv-1", "act-1", "fc-1", "act-2", "fc-2")
STAGE_FIELDS = {"s": "s", "rot": "count", "mul": "count", "cmul": "count",
                "add": "count", "depth_bits": "bits"}
STAGE_FUNCTIONS = set(STAGE_KINDS) | {"network.infer"}
EXPECTED = sorted(set(CALL_FUNCTIONS) | set(SETUP_FUNCTIONS) | STAGE_FUNCTIONS)


class Span:
    """One traced interval: name, parent, the root call it belongs to."""

    __slots__ = ("sid", "parent", "root", "name", "start", "end",
                 "ops_in", "ops_out")

    def __init__(self, sid, parent, root, name, start, ops_in):
        self.sid, self.parent, self.root, self.name = sid, parent, root, name
        self.start, self.end = start, start
        self.ops_in = self.ops_out = ops_in

    @property
    def duration(self) -> float:
        return self.end - self.start

    def ops(self, kind: str) -> int:
        i = OPS.index(kind)
        return self.ops_out[i] - self.ops_in[i]


def discover() -> tuple[dict, list]:
    """The traced functions that exist, and the expected names that do not."""
    found, absent = {}, []
    for name in EXPECTED:
        short, attr = name.split(".")
        try:
            found[name] = getattr(importlib.import_module("hepack." + short), attr)
        except (ModuleNotFoundError, AttributeError):
            absent.append(name)
    return found, absent


class Tracer:
    """In-memory span recorder plus backend op counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op_calls = [0] * len(OPS)
        self.op_seconds = [0.0] * len(OPS)
        self.depth_exhausted = 0
        functions, self.absent = discover()
        self._wrappers = {id(fn): (fn, self._wrap(name, fn))
                          for name, fn in functions.items()}

    @property
    def stages_absent(self) -> bool:
        """True when a function that network stages are read from is gone."""
        return bool(STAGE_FUNCTIONS & set(self.absent))

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, parent.sid if parent else None,
                    parent.root if parent else sid, name, time.perf_counter(),
                    tuple(self.op_calls))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        span.ops_out = tuple(self.op_calls)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    @contextmanager
    def installed(self):
        """Route every hepack reference to a traced function through a span."""
        undo = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "hepack"
                                   or modname.startswith("hepack.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        try:
            yield
        finally:
            for mod, attr, val in reversed(undo):
                setattr(mod, attr, val)

    def backend(self, inner: SimdBackend) -> "TracingBackend":
        return TracingBackend(inner, self)

    # ------------------------------------------------------- aggregates

    @staticmethod
    def self_times(spans) -> dict:
        """Span id -> duration minus the durations of its child spans."""
        own = {s.sid: s.duration for s in spans}
        for s in spans:
            if s.parent in own:
                own[s.parent] -= s.duration
        return own

    @classmethod
    def function_totals(cls, spans) -> dict:
        """Name -> [calls, inclusive seconds, self seconds] below the roots."""
        own = cls.self_times(spans)
        totals = {}
        for s in spans:
            if s.parent is None:
                continue
            row = totals.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.duration
            row[2] += own[s.sid]
        return totals

    @staticmethod
    def network_stages(spans) -> list[tuple[str, dict]]:
        """Stages of each network.infer span, named as the network names them.

        Consecutive direct children of the same kind (one activation call
        per channel part) form one stage.
        """
        infers = {s.sid for s in spans if s.name == "network.infer"}
        stages, seen = [], {}
        last_kind, last_parent = None, None
        for s in spans:
            kind = STAGE_KINDS.get(s.name)
            if kind is None or s.parent not in infers:
                continue
            if s.parent != last_parent:
                seen = {}
            if kind != last_kind or s.parent != last_parent:
                seen[kind] = seen.get(kind, 0) + 1
                stages.append((f"{kind}-{seen[kind]}",
                               dict.fromkeys(("s",) + COUNTED, 0)))
                last_kind, last_parent = kind, s.parent
            row = stages[-1][1]
            row["s"] += s.duration
            for k in COUNTED:
                row[k] += s.ops(k)
        return stages

    def write(self, path, **meta):
        """Write every span (times relative to the first) as one JSON file."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [[s.sid, s.parent, s.root, s.name, s.start - t0, s.end - t0]
                + [s.ops(k) for k in COUNTED] for s in self.spans]
        doc = dict(meta, absent=self.absent,
                   columns=["id", "parent", "root", "name", "start", "end"]
                   + list(COUNTED), spans=rows)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class TracingBackend(SimdBackend):
    """Delegating backend that counts and times the six operations."""

    def __init__(self, inner: SimdBackend, tracer: Tracer):
        self.inner = inner
        self.params = inner.params
        self.ledger = inner.ledger
        self._tracer = tracer

    def _op(self, i: int, fn, *args):
        tr = self._tracer
        start = time.perf_counter()
        try:
            out = fn(*args)
        except DepthExhaustedError:
            tr.depth_exhausted += 1
            raise
        tr.op_seconds[i] += time.perf_counter() - start
        tr.op_calls[i] += 1
        return out

    def encrypt(self, message):
        return self._op(0, self.inner.encrypt, message)

    def decrypt(self, ct):
        return self._op(1, self.inner.decrypt, ct)

    def add(self, a, b):
        return self._op(2, self.inner.add, a, b)

    def mul(self, a, b):
        return self._op(3, self.inner.mul, a, b)

    def cmul(self, a, mask):
        return self._op(4, self.inner.cmul, a, mask)

    def rot(self, a, amount):
        return self._op(5, self.inner.rot, a, amount)
