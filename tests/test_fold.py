"""SimdBackend.fold, a rotate-and-add ladder as one backend op.

The default, written with rot and add, is its definition; a Forwarding
backend inherits it, as perfbench's TracingBackend does. SlotSimulator's
one-buffer override must equal it bitwise, in ledger counts and in result
budget, and the row-sum ladder and the fc fold run through it.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hepack import (BackendParams, CapacityError, CipherVec, EncodedMatrix, FcSpec,
                    SlotSimulator, encode_row_major, fc_layer, plan_fc)
from hepack.encodings import row_major_layout
from hepack.linalg import broadcast_row_sums
from common import Forwarding, ledger_delta, sim


class Counting(SlotSimulator):
    """SlotSimulator that counts the fold, rot, add and cmul calls made on it."""

    def __init__(self, params):
        super().__init__(params)
        self.calls = Counter()

    def fold(self, ct, amounts):
        self.calls["fold"] += 1
        return super().fold(ct, amounts)

    def rot(self, a, amount):
        self.calls["rot"] += 1
        return super().rot(a, amount)

    def add(self, a, b):
        self.calls["add"] += 1
        return super().add(a, b)

    def cmul(self, a, mask):
        self.calls["cmul"] += 1
        return super().cmul(a, mask)


def pair(slots):
    """The override (on a Counting simulator) and the default, on twin simulators."""
    return Counting(BackendParams.for_slots(slots)), Forwarding(sim(slots))


def result(ct):
    return ct.slots.tobytes(), ct.budget_bits


def make(kind, rng, n, budget=1200):
    maker = sim(n)
    if kind == "full":
        return CipherVec(maker.encrypt(rng.normal(size=n)).slots, budget)
    return CipherVec(maker.encrypt(float(rng.normal())).slots, budget)  # stride-0 view


def amounts_for(n):
    """Rotation amounts as fold meets them: 0, negative, at least n, numpy integers."""
    whole = st.one_of(st.integers(-3 * n, 3 * n), st.sampled_from([0, n, -n, 2 * n + 1]))
    kinds = st.sampled_from([int, np.int64, np.int32, np.intp])
    return st.lists(st.builds(lambda k, cast: cast(k), whole, kinds), max_size=7)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_one_buffer_fold_equals_the_default(data):
    n = data.draw(st.sampled_from([1, 2, 8, 64]), label="slots")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = data.draw(st.sampled_from(["full", "one-value"]), label="kind")
    ct = make(kind, rng, n, data.draw(st.sampled_from([1200, 65, 0]), label="budget"))
    amounts = data.draw(amounts_for(n), label="amounts")
    before = result(ct)
    runs = []
    for backend in pair(n):
        start = backend.ledger.snapshot()
        out = backend.fold(ct, iter(amounts))
        runs.append((result(out), ledger_delta(backend, start)))
        assert not out.slots.flags.writeable
        assert out is ct if not amounts else not np.shares_memory(out.slots, ct.slots)
    assert runs[0] == runs[1]
    assert result(ct) == before
    assert runs[0][0][1] == ct.budget_bits
    assert {k: runs[0][1][k] for k in ("mul", "cmul", "rot", "add")} == {
        "mul": 0, "cmul": 0, "rot": len(amounts), "add": len(amounts)}


def test_fold_sums_the_doubling_ladder():
    for backend in pair(8):
        ct = backend.encrypt(np.arange(8.0))
        got = backend.decrypt(backend.fold(ct, [1, 2, 4]))
        assert np.array_equal(got, np.full(8, 28.0))
        assert np.array_equal(backend.decrypt(backend.fold(ct, [4])),
                              np.arange(8.0) + np.roll(np.arange(8.0), -4))


@pytest.mark.parametrize("make_input", [lambda be: be.encrypt(np.arange(8.0)),
                                        lambda be: be.encrypt(2.0), lambda be: "not a ct"],
                         ids=["full", "one-value", "not a ciphertext"])
def test_no_amount_gives_the_input_itself(make_input):
    for backend in pair(8):
        x = make_input(backend)
        start = backend.ledger.snapshot()
        assert backend.fold(x, iter([])) is x
        assert ledger_delta(backend, start) == dict.fromkeys(start, 0)


@pytest.mark.parametrize("bad_at", range(3))
def test_a_non_integer_amount_partway_leaves_the_default_ledger(bad_at):
    ledgers = []
    amounts = [1, 2, 4]
    amounts[bad_at] = 2.0
    for backend in pair(8):
        with pytest.raises(ValueError, match=r"^rotation amount must be an integer, got 2\.0$"):
            backend.fold(backend.encrypt(np.arange(8.0)), amounts)
        ledgers.append(backend.ledger.snapshot())
    assert ledgers[0] == ledgers[1]
    assert (ledgers[0]["rot"], ledgers[0]["add"]) == (bad_at, bad_at)


@pytest.mark.parametrize("make_input,error,message", [
    (lambda: sim(16).encrypt(np.ones(16)), CapacityError,
     "rot takes a ciphertext of 8 slots, got one of 16"),
    (lambda: np.ones(8), TypeError, "rot takes a ciphertext, got ndarray"),
], ids=["another slot count", "not a ciphertext"])
def test_fold_refuses_what_rot_refuses_by_its_message(make_input, error, message):
    ledgers = []
    for backend in pair(8):
        with pytest.raises(error, match=f"^{message}$"):
            backend.fold(make_input(), [1, 2])
        ledgers.append(backend.ledger.snapshot())
    assert ledgers[0] == ledgers[1] == {**ledgers[0], "rot": 0, "add": 0}


def test_fold_keeps_one_sum_and_one_rotation_alive():
    # A fresh array per rotation and per partial sum peaks at three arrays.
    backend = SlotSimulator(BackendParams(log_n=16))
    ct = backend.encrypt(np.arange(32768.0))
    tracemalloc.start()
    try:
        out = backend.fold(ct, [1 << t for t in range(8)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * out.slots.nbytes, f"fold peaked at {peak} bytes"
    assert backend.decrypt(out)[0] == sum(range(256))


# --------------------------------------------------------------- layers

def test_the_row_sum_ladder_is_one_fold_and_one_mask():
    message = np.random.default_rng(8).normal(size=8 * 16)
    backends, runs = pair(8 * 16), []
    for backend in backends:
        enc = EncodedMatrix(backend.encrypt(message), row_major_layout(8, 16, 11))
        start = backend.ledger.snapshot()
        runs.append((result(broadcast_row_sums(backend, enc).ct), ledger_delta(backend, start)))
    assert runs[0] == runs[1]
    assert runs[0][1]["rot"] == runs[0][1]["add"] == 4  # ceil(log2 11) steps
    assert backends[0].calls == Counter(fold=1, cmul=1)


def test_an_fc_layer_folds_once():
    rng = np.random.default_rng(9)
    xs = [rng.normal(size=(8, 5)), rng.normal(size=(8, 7))]
    spec = FcSpec(rng.normal(size=(3, 12)), rng.normal(size=3))
    backends, runs = pair(8 * 16), []
    for backend in backends:
        parts = [encode_row_major(backend, x, 16) for x in xs]
        plan = plan_fc(spec, [part.layout for part in parts])
        start = backend.ledger.snapshot()
        runs.append((result(fc_layer(backend, parts, plan).ct), ledger_delta(backend, start)))
    assert runs[0] == runs[1]
    assert plan.fold == 2  # 7 + 3 - 1 partial-sum slots fold into 3 columns in 2 steps
    assert backends[0].calls["fold"] == 1
