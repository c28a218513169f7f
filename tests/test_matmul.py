import importlib.util
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hepack.matmul
from hepack import (
    BackendParams,
    EncodedMatrix,
    SlotSimulator,
    column_group_widths,
    encode_row_major,
    encode_transpose_extended,
    decode_diagonal,
    decrypt_rows,
    diagonal_layout,
    he_matmul_partitioned,
    multiply_matrices,
    split_weight_groups,
    row_major_layout,
)
from hepack.linalg import ceil_log2
from common import Forwarding, ledger_delta, sim

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.mark.parametrize("m,n,p", [
    (2, 4, 2), (4, 4, 4), (8, 16, 4), (8, 16, 64),
    (4, 4, 2), (16, 8, 16), (8, 3, 5), (5, 7, 3),
])
def test_product_matches_numpy(m, n, p):
    rng = np.random.default_rng(m * 1000 + n * 10 + p)
    a = rng.normal(size=(m, n))
    b = rng.normal(size=(n, p))
    got = multiply_matrices(a, b)
    assert got.shape == (m, p)
    assert np.max(np.abs(got - a @ b)) < 1e-9


def test_small_frozen_product():
    a = [[1.0, 2.0], [3.0, 4.0]]
    b = [[2.0, 0.0], [1.0, 3.0]]
    assert np.allclose(multiply_matrices(a, b), [[4, 6], [10, 12]], atol=1e-12)


def test_partitioned_inner_dimension_split():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(8, 16))
    b = rng.normal(size=(16, 4))
    backend = sim(64)
    a_parts = [encode_row_major(backend, a[:, g * 4:(g + 1) * 4], 8)
               for g in range(4)]
    b_blocks = [split_weight_groups(backend, b[g * 4:(g + 1) * 4], 8, 8)
                for g in range(4)]
    out = he_matmul_partitioned(backend, a_parts, b_blocks)
    got = decode_diagonal(backend.decrypt(out.ct), 8, 8, 4)
    assert np.max(np.abs(got - a @ b)) < 1e-9


def test_column_groups_cover_wide_outputs():
    # p = 32 output columns from only 8 ciphertext rows.
    rng = np.random.default_rng(7)
    a = rng.normal(size=(8, 8))
    b = rng.normal(size=(8, 32))
    backend = sim(8 * 32)
    enc_a = encode_row_major(backend, a, 32)
    groups = split_weight_groups(backend, b, rows=8, row_width=32)
    assert len(groups) == len(column_group_widths(32, 8)) == 4
    out = he_matmul_partitioned(backend, [enc_a], [groups])
    got = decode_diagonal(backend.decrypt(out.ct), 8, 32, 32)
    assert np.max(np.abs(got - a @ b)) < 1e-9


def test_column_groups_with_uneven_tail():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 10))
    backend = sim(4 * 16)
    enc_a = encode_row_major(backend, a, 16)
    groups = split_weight_groups(backend, b, rows=4, row_width=16)
    assert column_group_widths(10, 4) == [4, 4, 2]
    assert len(groups) == 3
    out = he_matmul_partitioned(backend, [enc_a], [groups])
    got = decode_diagonal(backend.decrypt(out.ct), 4, 16, 10)
    assert np.max(np.abs(got - a @ b)) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 200), st.sampled_from([1, 2, 4, 8, 16, 32]))
def test_column_group_widths_property(p, rows):
    widths = column_group_widths(p, rows)
    assert all(w & (w - 1) == 0 and rows % w == 0 for w in widths)
    assert sum(widths) == p
    assert len(widths) == p // rows + bin(p % rows).count("1")


def test_column_group_widths_edges():
    assert column_group_widths(12, 16) == [8, 4]
    assert column_group_widths(28, 32) == [16, 8, 4]
    assert column_group_widths(0, 8) == column_group_widths(-3, 8) == []
    for rows in (0, -4, 6):
        with pytest.raises(ValueError, match="rows must be a power of two"):
            column_group_widths(5, rows)
    for args, cause in (((5, 4.0), "rows must be an integer, got 4.0"),
                        ((2.5, 4), "output width p must be an integer, got 2.5")):
        with pytest.raises(ValueError, match=re.escape(cause)):
            column_group_widths(*args)


def test_groups_start_after_earlier_widths():
    # 12 columns over 16 rows: group 1 starts at column 8, not at 1 * 16.
    rng = np.random.default_rng(11)
    b = rng.normal(size=(5, 12))
    backend = sim(16 * 16)
    groups = split_weight_groups(backend, b, 16, 16)
    for enc, cols in zip(groups, (b[:, :8], b[:, 8:])):
        rows = decrypt_rows(backend, enc)
        assert np.array_equal(rows[:, :5], cols.T[np.arange(16) % cols.shape[1]])


def test_block_needs_one_encoding_per_column_group():
    backend = sim(4 * 8)
    a = encode_row_major(backend, np.ones((4, 3)), 8)
    groups = split_weight_groups(backend, np.ones((3, 8)), 4, 8)
    for wrong in (groups[:1], groups + groups[:1]):
        with pytest.raises(ValueError,
                           match=r"needs 2 column groups for p=8 over 4 rows"):
            he_matmul_partitioned(backend, [a, a], [groups, wrong])


def test_weight_operands_must_be_2d():
    backend = sim(64)
    with pytest.raises(ValueError, match="weight matrix must be 2-D"):
        split_weight_groups(backend, np.ones(4), 8, 8)
    with pytest.raises(ValueError, match="A must be 2-D"):
        multiply_matrices(np.ones(4), np.ones((4, 2)))
    with pytest.raises(ValueError, match="B must be 2-D"):
        multiply_matrices(np.ones((2, 4)), np.ones((4, 2, 1)))


def test_partitioned_argument_validation():
    backend = sim(64)
    a = encode_row_major(backend, np.ones((8, 4)), 8)
    b = split_weight_groups(backend, np.ones((4, 4)), 8, 8)
    with pytest.raises(ValueError):
        he_matmul_partitioned(backend, [], [])
    with pytest.raises(ValueError):
        he_matmul_partitioned(backend, [a, a], [b])
    # B's 16 group columns, read as the output width, are wider than a row.
    tall = encode_row_major(backend, np.ones((16, 4)), 4)
    wide = encode_transpose_extended(backend, np.ones((4, 16)), 16, 4)
    with pytest.raises(ValueError, match=r"output width 16 must be in 1\.\.4"):
        he_matmul_partitioned(backend, [tall], [[wide]])
    other = encode_row_major(backend, np.ones((4, 4)), 16)
    with pytest.raises(ValueError, match="A parts disagree on geometry"):
        he_matmul_partitioned(backend, [a, other], [b, b])


def test_partitioned_rejects_mismatched_b():
    # Each B encoding must share its A part's rows, row_width and inner
    # width; a mismatch would otherwise give a silently wrong product.
    backend = sim(64)
    a = encode_row_major(backend, np.ones((8, 4)), 8)
    wide = encode_transpose_extended(backend, np.ones((4, 4)), 4, 16)
    with pytest.raises(ValueError, match=r"B block 0 must match its A part: "
                       r"8 rows, row_width 8, logical width 4"):
        he_matmul_partitioned(backend, [a], [[wide]])
    short = split_weight_groups(backend, np.ones((3, 4)), 8, 8)
    good = split_weight_groups(backend, np.ones((4, 4)), 8, 8)
    with pytest.raises(ValueError, match="B block 1 must match its A part"):
        he_matmul_partitioned(backend, [a, a], [good, short])


def test_fast_path_cost_contract():
    # m=8, f=16, n=8, p=4 with p | m: per column one rotation-shift (step 0
    # free), one mul, a row-sum ladder of log2(8) doubling steps (rot and
    # add each) and its column-0 mask cmul; placing the 4 columns takes 3
    # rotations by -1 and 3 adds.
    rng = np.random.default_rng(9)
    backend = sim(8 * 16)
    a = encode_row_major(backend, rng.normal(size=(8, 8)), 16)
    b = encode_transpose_extended(backend, rng.normal(size=(8, 4)), 8, 16)
    before = backend.ledger.snapshot()
    out = he_matmul_partitioned(backend, [a], [[b]])
    assert ledger_delta(backend, before) == {
        "mul": 4, "cmul": 4, "rot": 3 + 4 * 3 + 3, "add": 4 * 3 + 3,
        "consumed_bits": 4 * (45 + 20)}
    assert out.ct.budget_bits == 1200 - (45 + 20)


def test_tiled_groups_cost_contract():
    # p=3 over m=8 tiles into groups [2, 1], B in two encodings: group 0's
    # step 1 is one rotation-shift, group 1 has none. Per column one mul
    # and a ladder of ceil(log2(5)) doubling steps plus its mask cmul; 2
    # rotations by -1 and 2 adds place the 3 columns.
    rng = np.random.default_rng(10)
    backend = sim(8 * 8)
    a = rng.normal(size=(8, 5))
    b = rng.normal(size=(5, 3))
    enc_a = encode_row_major(backend, a, 8)
    groups = split_weight_groups(backend, b, 8, 8)
    assert column_group_widths(3, 8) == [2, 1] and len(groups) == 2
    before = backend.ledger.snapshot()
    out = he_matmul_partitioned(backend, [enc_a], [groups])
    assert ledger_delta(backend, before) == {
        "mul": 3, "cmul": 3, "rot": 1 + 3 * 3 + 2, "add": 3 * 3 + 2,
        "consumed_bits": 3 * 45 + 3 * 20}
    assert out.ct.budget_bits == 1200 - (45 + 20)
    got = decode_diagonal(backend.decrypt(out.ct), 8, 8, 3)
    assert np.max(np.abs(got - a @ b)) < 1e-9
    assert out.layout == diagonal_layout(8, 8, 3)


class _RotLog(Forwarding):
    """Forwarding backend that records every rotation amount; it inherits
    SimdBackend.fold, so each step of a row-sum ladder reaches its rot."""

    def __init__(self, wrapped):
        super().__init__(wrapped)
        self.amounts = []

    def rot(self, a, amount):
        self.amounts.append(amount)
        return super().rot(a, amount)


def test_product_places_each_column_with_one_rotation_amount():
    # The row-sum ladder rotates by powers of two, the shifts by whole
    # rows, and the placement only by -1: no amount depends on the column.
    rng = np.random.default_rng(12)
    backend = _RotLog(sim(8 * 32))
    amounts = backend.amounts
    a = rng.normal(size=(8, 5))
    b = rng.normal(size=(5, 12))
    groups = split_weight_groups(backend, b, 8, 32)
    out = he_matmul_partitioned(backend, [encode_row_major(backend, a, 32)],
                                [groups])
    assert sorted(set(amounts)) == [-1, 1, 2, 4] + [32 * s for s in range(1, 8)]
    assert amounts.count(-1) == 11
    got = decode_diagonal(backend.decrypt(out.ct), 8, 32, 12)
    assert np.max(np.abs(got - a @ b)) < 1e-9


def test_partitioned_rejects_groups_out_of_order():
    # 12 columns over 16 rows tile [8, 4]; passed as [4, 8], each encoding
    # would face the other group's steps and give a wrong product.
    rng = np.random.default_rng(13)
    backend = sim(16 * 16)
    a = encode_row_major(backend, rng.normal(size=(16, 5)), 16)
    groups = split_weight_groups(backend, rng.normal(size=(5, 12)), 16, 16)
    assert [g.layout.period for g in groups] == [8, 4]
    with pytest.raises(ValueError, match=r"B block 0 group 0 cycles 4 columns, "
                       r"but the group is 8 wide"):
        he_matmul_partitioned(backend, [a], [groups[::-1]])


class _CountingSim(SlotSimulator):
    """SlotSimulator that counts encryptions and keeps the last decrypted budget."""

    encryptions = 0

    def encrypt(self, message):
        self.encryptions += 1
        return super().encrypt(message)

    def decrypt(self, ct):
        self.decrypted_budget = ct.budget_bits
        return super().decrypt(ct)


@pytest.mark.parametrize("m,n,p", [(12, 20, 12), (3, 5, 6), (6, 9, 24), (8, 4, 8)])
def test_multiply_matrices_with_caller_backend(m, n, p):
    # The caller sizes the backend by the documented rule pow2(max(m, p))
    # rows of width pow2(max(n, p)); B takes one encoding per column group.
    rng = np.random.default_rng(m * 100 + n + p)
    a, b = rng.normal(size=(m, n)), rng.normal(size=(n, p))
    rows, f = 1 << ceil_log2(max(m, p)), 1 << ceil_log2(max(n, p))
    backend = _CountingSim(BackendParams.for_slots(rows * f))
    got = multiply_matrices(a, b, row_width=f, backend=backend)
    assert np.max(np.abs(got - a @ b)) < 1e-9
    k = len(column_group_widths(p, rows))
    u = ceil_log2(n)
    params = backend.params
    assert backend.ledger.snapshot() == {
        "mul": p, "cmul": p, "rot": p * u + (p - k) + (p - 1),
        "add": p * u + p - 1,
        "consumed_bits": p * (params.delta_bits + params.delta_c_bits)}
    assert backend.encryptions == 1 + k
    assert params.log_q - backend.decrypted_budget == (
        params.delta_bits + params.delta_c_bits)


def test_multiply_matrices_validation():
    with pytest.raises(ValueError, match="inner dimensions"):
        multiply_matrices(np.ones((2, 3)), np.ones((4, 2)))
    with pytest.raises(ValueError, match="row_width"):
        multiply_matrices(np.ones((2, 8)), np.ones((8, 2)), row_width=4)
    with pytest.raises(ValueError, match="row_width 2 too small for n=3, p=2"):
        multiply_matrices(np.ones((2, 3)), np.ones((3, 2)), row_width=2)


@pytest.mark.parametrize("row_width,message", [
    (6, "row_width must be a power of two, got 6"),
    (0, "row_width must be a power of two, got 0"),
    (4.0, "row_width must be an integer, got 4.0"),
])
def test_multiply_matrices_names_a_bad_row_width(row_width, message):
    # Checked before the size check, so the slot count it makes is never blamed.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        multiply_matrices(np.ones((3, 4)), np.ones((4, 2)), row_width=row_width)


@st.composite
def _partitioned_products(draw):
    m = draw(st.sampled_from([2, 4, 8]))
    f = draw(st.sampled_from([4, 8, 16, 32]))
    p = draw(st.integers(1, f))
    widths = draw(st.lists(st.integers(1, f), min_size=1, max_size=4))
    return m, f, p, widths, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_partitioned_products())
def test_partitioned_product_property(case):
    # A's pad slots hold noise (an activation leaves its constant there);
    # B's pad is zero, so the trimmed ladder must still read exact sums.
    m, f, p, widths, seed = case
    rng = np.random.default_rng(seed)
    backend = sim(m * f)
    a_parts, b_blocks, want = [], [], np.zeros((m, p))
    for n in widths:
        a, b = rng.normal(size=(m, n)), rng.normal(size=(n, p))
        slots = rng.normal(size=(m, f))
        slots[:, :n] = a
        a_parts.append(EncodedMatrix(backend.encrypt(slots.reshape(-1)),
                                     row_major_layout(m, f, n)))
        b_blocks.append(split_weight_groups(backend, b, m, f))
        want += a @ b

    before = backend.ledger.snapshot()
    with mock.patch.object(hepack.matmul, "broadcast_row_sums",
                           wraps=hepack.matmul.broadcast_row_sums) as ladder:
        out = he_matmul_partitioned(backend, a_parts, b_blocks)
    got = decode_diagonal(backend.decrypt(out.ct), m, f, p)
    assert np.max(np.abs(got - want)) < 1e-9
    assert ladder.call_count == p

    g = len(widths)
    steps = ceil_log2(max(widths))
    shifts = p - len(column_group_widths(p, m))
    params = backend.params
    assert ledger_delta(backend, before) == {
        "mul": g * p, "cmul": p, "rot": p * steps + g * shifts + p - 1,
        "add": p * steps + g * p - 1,
        "consumed_bits": g * p * params.delta_bits + p * params.delta_c_bits}
    assert out.ct.budget_bits == 1200 - (params.delta_bits + params.delta_c_bits)


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while it loads.
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def test_matmul_mix_shapes_ledger():
    # The benchmark's seven product shapes, sized by its own rule
    # (pow2(max(m, p)) rows of width pow2(max(n, p))): the summed ledger
    # and the deepest product of one round.
    workloads = _perfbench_workloads()
    mix = workloads.MatmulMix(seed=0, workdir="")
    products = mix.inputs(0)
    assert sorted((a.shape[0], a.shape[1], b.shape[1]) for a, b, _, _ in products) \
        == sorted(workloads.MATMUL_SHAPES)
    out = mix.call(products, lambda backend: backend)
    assert mix.check(products, out) == []
    assert out.counts == {"mul": 144, "cmul": 144, "rot": 1099, "add": 969}
    assert out.depth_bits == 65
