"""SimdBackend.dot, a sum of products as one backend op.

The default, written with mul, cmul and add, is its definition; a
Forwarding backend inherits it, as perfbench's TracingBackend does.
SlotSimulator's one-buffer override must equal it bitwise, in ledger
counts and in result budget, and conv, fc and the product sum through it.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hepack import (BackendParams, CipherVec, DepthExhaustedError, FcSpec, Plaintext,
                    SlotSimulator, conv_layer, encode_row_major, fc_layer,
                    he_matmul_partitioned, pack_image_batch, plan_fc, span_kernel,
                    split_weight_groups)
from common import Forwarding, ledger_delta, sim


class Counting(SlotSimulator):
    """SlotSimulator that counts the dot, mul and cmul calls made on it."""

    def __init__(self, params):
        super().__init__(params)
        self.calls = Counter()

    def dot(self, cts, operands):
        self.calls["dot"] += 1
        return super().dot(cts, operands)

    def mul(self, a, b):
        self.calls["mul"] += 1
        return super().mul(a, b)

    def cmul(self, a, mask):
        self.calls["cmul"] += 1
        return super().cmul(a, mask)


def pair(slots):
    """The override (on a Counting simulator) and the default, on twin simulators."""
    return Counting(BackendParams.for_slots(slots)), Forwarding(sim(slots))


def held(x):
    """What an input holds, bit for bit."""
    if isinstance(x, CipherVec):
        return x.slots.tobytes(), x.budget_bits
    if isinstance(x, Plaintext):
        return x.row.tobytes()
    return np.asarray(x).tobytes(), type(x)


def result(ct):
    return ct.slots.tobytes(), ct.budget_bits


# ------------------------------------------------------------------ dot

CT_KINDS = ("full", "one-value")
OPERAND_KINDS = CT_KINDS + ("float", "np.float64", "row", "array")
BUDGETS = (1200, 611, 65, 45)


def make(kind, rng, n, budget=1200):
    maker = sim(n)
    if kind == "full":
        return CipherVec(maker.encrypt(rng.normal(size=n)).slots, budget)
    if kind == "one-value":  # a stride-0 view of one float64
        return CipherVec(maker.encrypt(float(rng.normal())).slots, budget)
    if kind == "float":
        return float(rng.normal())
    if kind == "np.float64":
        return np.float64(rng.normal())
    if kind == "row":  # a short Plaintext row, repeated over the slots
        return Plaintext(rng.normal(size=n // 4))
    return rng.normal(size=n)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_the_one_buffer_dot_equals_the_default(data):
    n = data.draw(st.sampled_from([4, 16]), label="slots")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    terms = data.draw(st.lists(st.tuples(st.sampled_from(CT_KINDS), st.sampled_from(BUDGETS),
                                         st.sampled_from(OPERAND_KINDS),
                                         st.sampled_from(BUDGETS)),
                               min_size=1, max_size=6), label="terms")
    cts = [make(kind, rng, n, budget) for kind, budget, _, _ in terms]
    operands = [make(kind, rng, n, budget) for _, _, kind, budget in terms]
    before = [held(x) for x in cts + operands]
    runs = []
    for backend in pair(n):
        start = backend.ledger.snapshot()
        out = backend.dot(iter(cts), (w for w in operands))
        runs.append((result(out), ledger_delta(backend, start)))
        assert not out.slots.flags.writeable
        assert not any(np.shares_memory(out.slots, x.slots) for x in cts)
    assert runs[0] == runs[1]
    assert [held(x) for x in cts + operands] == before
    muls = sum(isinstance(w, CipherVec) for w in operands)
    assert {k: runs[0][1][k] for k in ("mul", "cmul", "add")} == {
        "mul": muls, "cmul": len(terms) - muls, "add": len(terms) - 1}


OPERANDS = {"ct": lambda be: be.encrypt(np.arange(8.0)),
            "one-value ct": lambda be: be.encrypt(3.0),
            "float": lambda be: -1.5, "np.float64": lambda be: np.float64(0.25),
            "row": lambda be: Plaintext([2.0, -1.0]), "array": lambda be: np.arange(8.0) - 4}


@pytest.mark.parametrize("make_operand", OPERANDS.values(), ids=OPERANDS.keys())
def test_a_one_term_dot_is_its_product(make_operand):
    for backend in pair(8):
        ct, w = backend.encrypt(np.linspace(-1.0, 1.0, 8)), make_operand(backend)
        start = backend.ledger.snapshot()
        got = backend.dot([ct], [w])
        dot_counts = ledger_delta(backend, start)
        start = backend.ledger.snapshot()
        want = backend.mul(ct, w) if isinstance(w, CipherVec) else backend.cmul(ct, w)
        assert result(got) == result(want)
        assert dot_counts == ledger_delta(backend, start)


@pytest.mark.parametrize("n_cts,n_operands", [(0, 0), (0, 1), (1, 0), (3, 2), (2, 3)])
def test_dot_refuses_no_terms_and_uneven_lengths_by_name(n_cts, n_operands):
    ledgers = []
    for backend in pair(8):
        ct = backend.encrypt(np.ones(8))
        with pytest.raises(ValueError, match="^dot takes one operand per ciphertext, "
                                             "and at least one of each$"):
            backend.dot(iter([ct] * n_cts), iter([2.0] * n_operands))
        ledgers.append(backend.ledger.snapshot())
    assert ledgers[0] == ledgers[1]


@pytest.mark.parametrize("fail_at", range(4))
def test_a_depth_refusal_partway_leaves_the_default_ledger(fail_at):
    # Terms alternate mul and cmul; the term at fail_at lacks the bits for its product.
    ledgers = []
    for backend in pair(8):
        cts = [backend.encrypt(np.full(8, i + 1.0)) for i in range(4)]
        operands = [backend.encrypt(0.5) if i % 2 == 0 else 0.5 for i in range(4)]
        kind = "mul" if fail_at % 2 == 0 else "cmul"
        short = getattr(backend.params, "delta_bits" if kind == "mul" else "delta_c_bits") - 1
        cts[fail_at] = CipherVec(cts[fail_at].slots, short)
        with pytest.raises(DepthExhaustedError, match=f"^{kind} needs "):
            backend.dot(cts, operands)
        ledgers.append(backend.ledger.snapshot())
    assert ledgers[0] == ledgers[1]
    assert {k: ledgers[0][k] for k in ("mul", "cmul", "add")} == {
        "mul": (fail_at + 1) // 2, "cmul": fail_at // 2, "add": max(fail_at - 1, 0)}


def test_dot_reads_each_operand_just_before_its_product():
    for backend in pair(8):
        cts = [backend.encrypt(np.full(8, i + 1.0)) for i in range(4)]
        made_after = []

        def weights():
            for i in range(4):
                made_after.append(backend.ledger.counts["mul"])
                yield backend.encrypt(float(i))

        backend.dot(cts, weights())
        assert made_after == [0, 1, 2, 3]


def test_dot_keeps_one_sum_and_one_product_alive():
    # A fresh array per product and per partial sum peaks at three arrays.
    backend = SlotSimulator(BackendParams(log_n=16))
    taps = [backend.encrypt(np.full(32768, i + 1.0)) for i in range(8)]
    tracemalloc.start()
    try:
        out = backend.dot(taps, map(backend.encrypt, np.arange(8.0)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * out.slots.nbytes, f"dot peaked at {peak} bytes"
    assert backend.decrypt(out)[0] == sum((i + 1.0) * i for i in range(8))


# --------------------------------------------------------------- layers

@pytest.mark.parametrize("encrypted", [False, True])
def test_conv_layer_sums_each_kernel_in_one_dot(encrypted):
    rng = np.random.default_rng(5)
    images, kernels = rng.normal(size=(4, 6, 7)), rng.normal(size=(3, 3, 3))
    backends, runs = pair(4 * 64), []
    for backend in backends:
        packed = pack_image_batch(backend, images, 64)
        plans = [span_kernel(kern, 0.5 * c, 6, 7, 4, 64) for c, kern in enumerate(kernels)]
        start = backend.ledger.snapshot()
        outs = conv_layer(backend, packed, plans, encrypted)
        runs.append(([result(o.ct) for o in outs], ledger_delta(backend, start)))
    assert runs[0] == runs[1]
    # The encrypted path's valid-region mask is the only cmul of its own.
    assert backends[0].calls == Counter(dot=3, **({"cmul": 3} if encrypted else {}))


def test_fc_layer_sums_each_giant_step_in_one_dot():
    rng = np.random.default_rng(6)
    xs = [rng.normal(size=(8, 5)), rng.normal(size=(8, 7))]
    spec = FcSpec(rng.normal(size=(6, 12)), rng.normal(size=6))
    backends, runs = pair(8 * 16), []
    for backend in backends:
        parts = [encode_row_major(backend, x, 16) for x in xs]
        plan = plan_fc(spec, [part.layout for part in parts])
        start = backend.ledger.snapshot()
        runs.append((result(fc_layer(backend, parts, plan).ct), ledger_delta(backend, start)))
    assert runs[0] == runs[1]
    assert plan.baby == 2  # so p = 6 outputs take 3 giant steps
    assert backends[0].calls == Counter(dot=3)


def test_a_two_block_product_sums_each_step_in_one_dot():
    rng = np.random.default_rng(7)
    m, f, p = 8, 16, 6
    blocks = [(rng.normal(size=(m, n)), rng.normal(size=(n, p))) for n in (5, 7)]
    backends, runs = pair(m * f), []
    for backend in backends:
        a_parts = [encode_row_major(backend, a, f) for a, _ in blocks]
        b_blocks = [split_weight_groups(backend, b, m, f) for _, b in blocks]
        start = backend.ledger.snapshot()
        out = he_matmul_partitioned(backend, a_parts, b_blocks)
        runs.append((result(out.ct), ledger_delta(backend, start)))
    assert runs[0] == runs[1]
    # One dot per output column; each row-sum ladder's column-0 mask is a cmul.
    assert backends[0].calls == Counter(dot=p, cmul=p)
