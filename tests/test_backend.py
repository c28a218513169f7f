import copy
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hepack import (
    BackendParams,
    CapacityError,
    CipherVec,
    DepthExhaustedError,
    Plaintext,
    SlotSimulator,
)
from hepack.backend import OP_KINDS
from common import sim


def test_slot_count_follows_ring_degree():
    assert BackendParams(log_n=16, log_q=1200).slots == 32768
    assert BackendParams(log_n=4, log_q=1200).slots == 8


def test_for_slots_round_trips():
    for slots in (2, 8, 64, 32768):
        assert BackendParams.for_slots(slots).slots == slots


def test_for_slots_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        BackendParams.for_slots(48)


def test_params_validation():
    with pytest.raises(ValueError):
        BackendParams(log_n=16, log_q=30, delta_bits=45, delta_c_bits=20)
    with pytest.raises(ValueError):
        BackendParams(log_n=16, log_q=1200, delta_bits=10, delta_c_bits=20)
    with pytest.raises(ValueError):
        BackendParams(log_n=0, log_q=1200)
    with pytest.raises(ValueError, match="log_n must be in 1..17, got 18"):
        BackendParams(log_n=18, log_q=1200)
    assert BackendParams(log_n=17).slots == 65536


@pytest.mark.parametrize("make,cause", [
    (lambda: BackendParams(log_q=100.5), "log_q must be an integer, got 100.5"),
    (lambda: BackendParams(log_n=4.5), "log_n must be an integer, got 4.5"),
    (lambda: BackendParams(delta_bits=45.0), "delta_bits must be an integer, got 45.0"),
    (lambda: BackendParams(delta_c_bits="20"), "delta_c_bits must be an integer, got 20"),
    (lambda: BackendParams.for_slots(8.0), "slot count must be an integer, got 8.0"),
], ids=["log-q", "log-n", "whole-float-delta", "str-delta-c", "for-slots"])
def test_params_refuse_a_value_that_is_not_an_integer(make, cause):
    # A fractional log_q would leave fractional budgets; log_n=4.5 would fail only at .slots.
    with pytest.raises(ValueError, match=re.escape(cause)):
        make()


def test_params_take_numpy_integers():
    assert BackendParams(log_n=np.int64(5), log_q=np.int32(100)).slots == 16
    assert BackendParams.for_slots(np.int64(16)).log_n == 5


def test_params_store_the_int_they_checked():
    # A 0-d array passes the integer check; kept raw, it would not hash.
    p = BackendParams(log_n=np.array(12), log_q=np.int32(100), delta_bits=np.int64(45))
    same = BackendParams(log_n=12, log_q=100)
    assert p == same and hash(p) == hash(same)
    assert all(type(v) is int for v in (p.log_n, p.log_q, p.delta_bits, p.delta_c_bits))
    assert type(p.slots) is int


def test_encrypt_decrypt_round_trip():
    backend = sim(8)
    ct = backend.encrypt([1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert ct.budget_bits == 1200
    out = backend.decrypt(ct)
    assert np.array_equal(out, [1, 2, 3, 0, 0, 0, 0, 0])
    # A scalar message reaches every slot, as a scalar mask does.
    for n in (1, 8):
        assert np.array_equal(sim(n).decrypt(sim(n).encrypt(2.5)), np.full(n, 2.5))


def test_encrypt_rejects_overfull_vector():
    # cmul and add share encrypt's plaintext intake, and check before counting.
    backend = sim(8)
    with pytest.raises(CapacityError):
        backend.encrypt(np.ones(9))
    ct = backend.encrypt(np.ones(8))
    for op, what in ((backend.cmul, "mask"), (backend.add, "plaintext")):
        with pytest.raises(CapacityError, match=f"{what} has 9 values but backend has 8"):
            op(ct, np.ones(9))
    assert backend.ledger.counts == dict.fromkeys(OP_KINDS, 0)


def test_encrypt_copies_its_message():
    # A ciphertext owns its slots: a later edit to the caller's array must
    # not reach it, and a broadcast view becomes one C-ordered copy.
    backend = sim(8)
    a = np.arange(8.0)
    ct = backend.encrypt(a)
    a[0] = 99.0
    assert backend.decrypt(ct)[0] == 0.0
    view = np.broadcast_to(np.arange(4.0), (2, 4))
    ct = backend.encrypt(view)
    assert ct.slots.flags.c_contiguous and not np.shares_memory(ct.slots, view)
    assert np.array_equal(backend.decrypt(ct), [0, 1, 2, 3, 0, 1, 2, 3])


def test_encrypt_rejects_non_finite_values():
    backend = sim(8)
    with pytest.raises(ValueError, match="2 non-finite values"):
        backend.encrypt([np.nan, 1.0, np.inf, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="1 non-finite values"):
        backend.encrypt(np.full(8, -np.inf)[:1].item())
    assert np.array_equal(backend.decrypt(backend.encrypt(np.tile([1e308, -1e308], 4))),
                          np.tile([1e308, -1e308], 4))
    # Complex values are refused before the cast could drop their imaginary part;
    # an array is read as its Plaintext, which names itself.
    for message, what in ((np.full(8, 3j), "plaintext"), (2j, "message")):
        with pytest.raises(ValueError, match=f"{what} must be real, got complex values"):
            backend.encrypt(message)


@pytest.mark.parametrize("mask,cause", [
    (np.nan, "has 1 non-finite values (NaN or inf)"),
    (np.array(-np.inf), "has 1 non-finite values (NaN or inf)"),
    ([1.0, np.nan, np.inf, 0, 0, 0, 0, 0], "has 2 non-finite values (NaN or inf)"),
    (1 + 2j, "must be real, got complex values"),
    (np.array([1.0, 2j] * 4), "must be real, got complex values"),
    (-np.inf, "has 1 non-finite values (NaN or inf)"),
    (np.float64(np.nan), "has 1 non-finite values (NaN or inf)"),
    (np.float64(np.inf), "has 1 non-finite values (NaN or inf)"),
], ids=["scalar-nan", "0-d-inf", "vector", "complex-scalar", "complex-vector",
        "scalar-inf", "np.float64-nan", "np.float64-inf"])
def test_cmul_rejects_non_finite_masks(mask, cause):
    # The same rule for encrypt's message, cmul's mask and add's plaintext;
    # cmul's depth check still comes first. A scalar is named by its operand,
    # an array by the Plaintext it is read as.
    backend = sim(8)
    ct = backend.encrypt(np.ones(8))
    before = backend.ledger.snapshot()
    for op, args, what in ((backend.encrypt, (mask,), "message"),
                           (backend.cmul, (ct, mask), "mask"),
                           (backend.add, (ct, mask), "plaintext")):
        what = what if np.ndim(mask) == 0 else "plaintext"
        with pytest.raises(ValueError, match=re.escape(f"{what} {cause}")):
            op(*args)
    assert backend.ledger.snapshot() == before
    with pytest.raises(DepthExhaustedError):
        backend.cmul(CipherVec(ct.slots, 0), mask)


def test_encrypt_checks_capacity_before_finiteness():
    with pytest.raises(CapacityError):
        sim(8).encrypt(np.full(9, np.nan))


def test_stock_ring_capacity_boundary():
    backend = SlotSimulator(BackendParams(log_n=16, log_q=1200))
    backend.encrypt(np.ones(32768))
    with pytest.raises(CapacityError):
        backend.encrypt(np.ones(32769))


def test_decrypt_returns_independent_copy():
    backend = sim(8)
    ct = backend.encrypt(np.arange(1.0, 9.0))
    out = backend.decrypt(ct)
    out[0] = 99.0
    assert backend.decrypt(ct)[0] == 1.0


def test_ciphertext_slots_are_read_only():
    backend = sim(8)
    ct = backend.encrypt(np.arange(1.0, 9.0))
    with pytest.raises(ValueError):
        ct.slots[0] = 5.0


def test_a_ciphertext_is_a_slotted_immutable_value():
    backend = sim(8)
    ct = backend.encrypt(np.arange(1.0, 9.0))
    for name, value in (("slots", np.zeros(8)), ("budget_bits", 7)):
        with pytest.raises(AttributeError, match=f"immutable: cannot set or delete {name}"):
            setattr(ct, name, value)
        with pytest.raises(AttributeError, match=f"immutable: cannot set or delete {name}"):
            delattr(ct, name)
    assert not hasattr(ct, "__dict__")
    assert ct.slots.tolist() == list(range(1, 9)) and ct.budget_bits == 1200


def test_a_ciphertext_made_from_a_writable_array_holds_it_read_only():
    values = np.arange(4.0)
    ct = CipherVec(values, 10)
    assert not ct.slots.flags.writeable and ct.budget_bits == 10
    with pytest.raises(ValueError):
        ct.slots[0] = 5.0
    with pytest.raises(DepthExhaustedError, match="budget_bits must be >= 0"):
        CipherVec(np.arange(4.0), -1)


@pytest.mark.parametrize("twin", [copy.copy, copy.deepcopy,
                                  lambda ct: pickle.loads(pickle.dumps(ct))])
def test_a_copied_ciphertext_is_remade_read_only(twin):
    ct = sim(8).encrypt(np.arange(1.0, 9.0))
    again = twin(ct)
    assert again.slots.tobytes() == ct.slots.tobytes()
    assert again.budget_bits == ct.budget_bits and not again.slots.flags.writeable


@pytest.mark.parametrize("make", [lambda be: be.encrypt(np.arange(1.0, 9.0)),
                                  lambda be: be.rot(be.encrypt(np.arange(1.0, 9.0)), 3),
                                  lambda be: be.encrypt(Plaintext([1.0, 2.0]))])
def test_decrypt_returns_a_writable_contiguous_copy(make):
    backend = sim(8)
    ct = make(backend)
    out = backend.decrypt(ct)
    assert out.flags.writeable and out.flags.c_contiguous
    assert not np.shares_memory(out, ct.slots)
    assert out.tobytes() == ct.slots.tobytes()


def test_add_values_and_budget():
    backend = sim(8)
    a = backend.encrypt(np.arange(1.0, 9.0))
    b = backend.encrypt(np.arange(10.0, 90.0, 10.0))
    c = backend.add(a, b)
    assert np.array_equal(backend.decrypt(c), np.arange(11.0, 99.0, 11.0))
    assert c.budget_bits == 1200


def test_add_takes_min_budget():
    backend = sim(8)
    a = backend.encrypt(np.ones(8))
    b = backend.mul(backend.encrypt(np.ones(8)), backend.encrypt(np.ones(8)))
    c = backend.add(a, b)
    assert c.budget_bits == 1200 - 45


def test_mul_consumes_prime_budget():
    backend = sim(8)
    a = backend.encrypt(Plaintext([2.0, 3.0]))
    b = backend.encrypt(Plaintext([4.0, 5.0]))
    c = backend.mul(a, b)
    assert np.array_equal(backend.decrypt(c), [8, 15] * 4)
    assert c.budget_bits == 1200 - 45


def test_mul_refuses_a_plaintext_operand():
    # A plaintext product is a cmul; mul says so before the ledger moves.
    backend = sim(8)
    ct = backend.encrypt(np.ones(8))
    for a, b in ((ct, 2.0), (ct, np.ones(8)), (2.0, ct)):
        with pytest.raises(TypeError, match="multiply by a plaintext with cmul"):
            backend.mul(a, b)
    assert backend.ledger.counts == dict.fromkeys(OP_KINDS, 0)


@pytest.mark.parametrize("op", ["add", "cmul", "rot", "decrypt"])
def test_ops_refuse_a_non_ciphertext_operand(op):
    # As mul does, each op names the cause before the ledger moves.
    backend = sim(8)
    args = {"add": (np.ones(8), 1.0), "cmul": (np.ones(8), 2.0),
            "rot": (np.ones(8), 1), "decrypt": (np.ones(8),)}[op]
    with pytest.raises(TypeError, match=f"^{op} takes a ciphertext, got ndarray$"):
        getattr(backend, op)(*args)
    assert backend.ledger.counts == dict.fromkeys(OP_KINDS, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plaintext_rows_act_as_their_tiling(data):
    # encrypt, add and cmul take a Plaintext row as the same ops take the
    # row tiled over the slots, raw or as a Plaintext: bitwise, with equal
    # ledgers and budgets. The same values have one meaning, so a raw array
    # shorter than the slots is refused before the ledger moves.
    slots = 1 << data.draw(st.integers(0, 6))
    width = 1 << data.draw(st.integers(0, slots.bit_length() - 1))
    floats = st.floats(-1e6, 1e6, allow_nan=False)
    row = np.array(data.draw(st.lists(floats, min_size=width, max_size=width)))
    ct_vals = np.array(data.draw(st.lists(floats, min_size=slots, max_size=slots)))
    tiled = np.tile(row, slots // width)
    runs = []
    for operand in (Plaintext(row), tiled, Plaintext(tiled)):
        backend = sim(slots)
        ct = backend.cmul(backend.encrypt(ct_vals), 0.5)
        outs = [backend.encrypt(operand), backend.add(ct, operand),
                backend.cmul(ct, operand)]
        runs.append(([(backend.decrypt(o).tobytes(), o.budget_bits) for o in outs],
                     backend.ledger.snapshot()))
    assert runs[0] == runs[1] == runs[2]
    if width < slots:
        before = backend.ledger.snapshot()
        for op, args in ((backend.encrypt, (row,)), (backend.add, (ct, row)),
                         (backend.cmul, (ct, row))):
            with pytest.raises(CapacityError, match=re.escape(
                    f"has {width} values but backend has {slots} slots: pad it "
                    f"to {slots} values, or make it a Plaintext row to repeat it")):
                op(*args)
        assert backend.ledger.snapshot() == before


CONSTANTS = {"float": lambda: 2.5, "np.float64": lambda: np.float64(2.5),
             "0-d": lambda: np.array(2.5), "Plaintext": lambda: Plaintext(2.5)}


@pytest.mark.parametrize("make", CONSTANTS.values(), ids=CONSTANTS.keys())
def test_a_constant_ciphertext_holds_one_value(make):
    # One value is held once: no slot-sized buffer, shared with nobody.
    backend = SlotSimulator(BackendParams(log_n=16))
    value = make()
    tracemalloc.start()
    try:
        ct = backend.encrypt(value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096, f"encrypt allocated {peak} bytes"
    with pytest.raises(ValueError, match="read-only"):
        ct.slots[0] = 5.0
    source = value.row if isinstance(value, Plaintext) else value
    assert not np.shares_memory(ct.slots, source)
    out = backend.decrypt(ct)
    assert np.array_equal(out, np.full(32768, 2.5))
    assert out.flags.writeable and out.flags.c_contiguous and out.strides == (8,)
    out[0] = 7.0
    assert backend.decrypt(ct)[0] == 2.5


@pytest.mark.parametrize("make", CONSTANTS.values(), ids=CONSTANTS.keys())
def test_a_constant_ciphertext_acts_as_its_full_array(make):
    # Every op on a one-value ciphertext gives the slots, budgets and ledger
    # of the same op on the ciphertext of the value written into every slot.
    rng = np.random.default_rng(7)
    other_vals, row = rng.normal(size=16), Plaintext(rng.normal(size=4))
    runs = []
    for message in (make(), np.full(16, 2.5)):
        backend = sim(16)
        ct, other = backend.encrypt(message), backend.cmul(backend.encrypt(other_vals), 0.5)
        outs = [ct, backend.add(ct, other), backend.add(other, ct), backend.add(ct, row),
                backend.add(ct, 1.25), backend.mul(ct, other), backend.mul(other, ct),
                backend.cmul(ct, row), backend.cmul(ct, -3.0), backend.rot(ct, 3)]
        runs.append(([(backend.decrypt(o).tobytes(), o.budget_bits) for o in outs],
                     backend.ledger.snapshot()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("ragged", [[[1.0, 2.0], [3.0]], [1.0, [2.0, 3.0]]],
                         ids=["rows", "scalar-and-row"])
def test_a_ragged_sequence_is_refused_by_its_operand_name(ragged):
    # numpy's own "inhomogeneous shape" error names no operand.
    backend = sim(8)
    ct = backend.encrypt(np.ones(8))
    for op, args, what in ((backend.encrypt, (ragged,), "message"),
                           (backend.cmul, (ct, ragged), "mask"),
                           (backend.add, (ct, ragged), "plaintext"),
                           (Plaintext, (ragged,), "plaintext")):
        with pytest.raises(ValueError, match=re.escape(
                f"{what} is ragged: its nested sequences differ in length")):
            op(*args)
    assert backend.ledger.counts == dict.fromkeys(OP_KINDS, 0)


@pytest.mark.parametrize("values,cause", [
    ([1.0, np.nan], "has 1 non-finite values (NaN or inf)"),
    (np.inf, "has 1 non-finite values (NaN or inf)"),
    (np.array([1.0, 2j]), "must be real, got complex values"),
    (["a", "b"], "must be numeric"),
    ([], "has no values"),
], ids=["nan", "inf", "complex", "non-numeric", "empty"])
def test_plaintext_refuses_what_encrypt_refuses(values, cause):
    with pytest.raises(ValueError, match=re.escape(f"plaintext {cause}")):
        Plaintext(values)


def test_plaintext_owns_a_read_only_copy():
    source = np.arange(4)
    pt = Plaintext(source)
    source[0] = 99
    assert pt.row.tolist() == [0.0, 1.0, 2.0, 3.0] and pt.row.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        pt.row[0] = 5.0
    assert Plaintext(2.5).row.tolist() == [2.5]
    backend = sim(8)
    ct = backend.encrypt(pt)
    assert not np.shares_memory(ct.slots, pt.row)
    assert np.array_equal(backend.decrypt(ct), [0, 1, 2, 3, 0, 1, 2, 3])


@pytest.mark.parametrize("width", [3, 16])
def test_a_plaintext_row_must_divide_the_slots(width):
    backend = sim(8)
    ct = backend.encrypt(np.ones(8))
    before = backend.ledger.snapshot()
    pt = Plaintext(np.ones(width))
    for op, what in ((backend.encrypt, "message"), (backend.cmul, "mask"),
                     (backend.add, "plaintext")):
        args = (pt,) if op == backend.encrypt else (ct, pt)
        with pytest.raises(CapacityError, match=re.escape(
                f"{what} row of {width} values does not divide the 8 slots")):
            op(*args)
    assert backend.ledger.snapshot() == before


def test_cmul_scalar_and_vector_masks():
    backend = sim(8)
    ct = backend.encrypt([1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
    doubled = backend.cmul(ct, 2.0)
    assert np.array_equal(backend.decrypt(doubled)[:4], [2, 4, 6, 8])
    assert doubled.budget_bits == 1200 - 20
    masked = backend.cmul(ct, np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(backend.decrypt(masked), [1, 0, 3, 0, 0, 0, 0, 0])
    # add takes the same plaintexts: a scalar reaches every slot.
    raised = backend.add(ct, 2.0)
    assert np.array_equal(backend.decrypt(raised), [3, 4, 5, 6, 2, 2, 2, 2])
    shifted = backend.add(ct, Plaintext([1.0, 0.0, 1.0, 0.0]))
    assert np.array_equal(backend.decrypt(shifted), [2, 2, 4, 4, 1, 0, 1, 0])


def test_cmul_by_a_0d_array_scales_every_slot():
    # A 0-d array is a scalar, not a one-slot mask that zeroes the rest.
    backend = sim(8)
    ct = backend.encrypt(np.arange(1.0, 9.0))
    doubled = backend.cmul(ct, np.array(2.0))
    assert np.array_equal(backend.decrypt(doubled), 2 * np.arange(1.0, 9.0))
    raised = backend.add(ct, np.array(2.0))
    assert np.array_equal(backend.decrypt(raised), np.arange(3.0, 11.0))


def test_plaintext_add_spends_no_budget_and_counts_only_when_it_succeeds():
    backend = sim(8)
    ct = backend.cmul(backend.encrypt(np.ones(8)), 3.0)
    out = backend.add(ct, np.arange(8.0))
    assert out.budget_bits == ct.budget_bits == 1200 - 20
    assert backend.ledger.snapshot() == {"mul": 0, "cmul": 1, "rot": 0, "add": 1,
                                         "consumed_bits": 20}
    # Even an exhausted ciphertext takes a plaintext add.
    assert backend.add(CipherVec(ct.slots, 0), 1.0).budget_bits == 0
    before = backend.ledger.snapshot()
    for bad in (np.ones(9), [np.inf], "x"):
        with pytest.raises(ValueError, match="^plaintext "):
            backend.add(ct, bad)
    assert backend.ledger.snapshot() == before


def test_rot_moves_higher_slots_down():
    backend = sim(8)
    ct = backend.encrypt([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    assert np.array_equal(backend.decrypt(backend.rot(ct, 2)),
                          [2, 3, 4, 5, 6, 7, 0, 1])
    assert np.array_equal(backend.decrypt(backend.rot(ct, -2)),
                          [6, 7, 0, 1, 2, 3, 4, 5])
    assert np.array_equal(backend.decrypt(backend.rot(ct, np.int64(2))),
                          [2, 3, 4, 5, 6, 7, 0, 1])
    assert np.array_equal(backend.decrypt(backend.rot(ct, np.int32(-2))),
                          [6, 7, 0, 1, 2, 3, 4, 5])
    assert np.array_equal(backend.decrypt(backend.rot(ct, 0)), backend.decrypt(ct))


@pytest.mark.parametrize("amount", [1.5, 1.9, np.float64(2.0), "1"],
                         ids=["1.5", "1.9", "float64-2.0", "str"])
def test_rot_rejects_an_amount_that_is_not_an_integer(amount):
    backend = sim(8)
    ct = backend.encrypt(np.arange(8.0))
    with pytest.raises(ValueError, match=re.escape(
            f"rotation amount must be an integer, got {amount}")):
        backend.rot(ct, amount)
    assert backend.ledger.counts["rot"] == 0


@pytest.mark.parametrize("amount", [0, 1, -1, 16, -16, 37, -37, 1024])
def test_rot_matches_np_roll_bitwise(amount):
    rng = np.random.default_rng(4)
    backend = sim(16)
    slots = rng.normal(size=16)
    out = backend.decrypt(backend.rot(backend.encrypt(slots), amount))
    assert out.tobytes() == np.roll(slots, -amount).tobytes()


def test_rot_composes_additively():
    rng = np.random.default_rng(3)
    backend = sim(16)
    ct = backend.encrypt(rng.normal(size=16))
    once = backend.rot(backend.rot(ct, 5), 7)
    direct = backend.rot(ct, 12)
    assert np.array_equal(backend.decrypt(once), backend.decrypt(direct))


def test_rot_is_free():
    backend = sim(8)
    ct = backend.rot(backend.encrypt(np.ones(8)), 3)
    assert ct.budget_bits == 1200


def test_mul_chain_exhausts_budget_at_the_predicted_step():
    # floor(1200 / 45) = 26 multiplications fit, the 27th must fail.
    backend = sim(8)
    ct = backend.encrypt(np.ones(8))
    for _ in range(26):
        ct = backend.mul(ct, backend.encrypt(np.ones(8)))
    assert ct.budget_bits == 1200 - 26 * 45
    with pytest.raises(DepthExhaustedError):
        backend.mul(ct, backend.encrypt(np.ones(8)))


def test_cmul_exhausts_budget_below_its_prime_size():
    backend = SlotSimulator(BackendParams(log_n=4, log_q=60, delta_bits=45,
                                          delta_c_bits=20))
    ct = backend.encrypt(np.ones(8))
    for _ in range(3):
        ct = backend.cmul(ct, 1.0)
    assert ct.budget_bits == 0
    with pytest.raises(DepthExhaustedError):
        backend.cmul(ct, 1.0)


def test_ledger_counts_and_consumed_bits():
    backend = sim(8)
    a = backend.encrypt(np.ones(8))
    b = backend.encrypt(np.ones(8))
    backend.mul(a, b)
    backend.cmul(a, 2.0)
    backend.cmul(a, 3.0)
    backend.rot(a, 1)
    backend.add(a, b)
    snap = backend.ledger.snapshot()
    assert snap["mul"] == 1
    assert snap["cmul"] == 2
    assert snap["rot"] == 1
    assert snap["add"] == 1
    assert snap["consumed_bits"] == 45 + 2 * 20


def test_ledger_counts_are_keyed_by_op_kinds():
    backend = sim(8)
    ct = backend.encrypt(np.ones(8))
    backend.rot(backend.add(ct, ct), 1)
    assert backend.ledger.counts == {"mul": 0, "cmul": 0, "rot": 1, "add": 1}
    assert tuple(backend.ledger.counts) == OP_KINDS
    assert not any(name.startswith("count_") for name in vars(backend.ledger))


def test_ledgers_compare_by_deltas_and_counts():
    a, b = sim(8), sim(8)
    assert a.ledger == b.ledger
    a.rot(a.encrypt(np.ones(8)), 1)
    assert a.ledger != b.ledger
    b.rot(b.encrypt(np.ones(8)), 3)
    assert a.ledger == b.ledger
    assert a.ledger != SlotSimulator(BackendParams(log_n=4, delta_bits=40)).ledger


def test_random_program_matches_plaintext_replay():
    """Random op sequences must agree exactly with a numpy replay."""
    rng = np.random.default_rng(11)
    backend = sim(32)
    cts = [backend.encrypt(rng.normal(size=32)) for _ in range(4)]
    refs = [backend.decrypt(ct) for ct in cts]
    for _ in range(60):
        op = rng.choice(["add", "mul", "cmul", "rot"])
        i, j = rng.integers(0, len(cts), size=2)
        if op == "add":
            cts.append(backend.add(cts[i], cts[j]))
            refs.append(refs[i] + refs[j])
        elif op == "mul":
            if min(cts[i].budget_bits, cts[j].budget_bits) < 45:
                continue
            cts.append(backend.mul(cts[i], cts[j]))
            refs.append(refs[i] * refs[j])
        elif op == "cmul":
            if cts[i].budget_bits < 20:
                continue
            mask = rng.normal(size=32)
            cts.append(backend.cmul(cts[i], mask))
            refs.append(refs[i] * mask)
        else:
            r = int(rng.integers(-31, 32))
            cts.append(backend.rot(cts[i], r))
            refs.append(np.roll(refs[i], -r))
    for ct, ref in zip(cts, refs):
        assert np.array_equal(backend.decrypt(ct), ref)
