import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hepack import (
    EncodedMatrix,
    broadcast_row_sums,
    compact_columns,
    decrypt_rows,
    diagonal_layout,
    encode_diagonal_pattern,
    encode_row_major,
    encode_transpose_extended,
    pack_image_batch,
    reduce_add,
    row_major_layout,
    rotate_within_rows,
    shift_rows,
    window_sums,
)
from hepack.encodings import column_group_widths, column_groups, diagonal_slot_column
from hepack.linalg import make_unskew_masks
from common import ledger_delta, sim


# ------------------------------------------------------------- shift_rows

@pytest.mark.parametrize("m,p", [(8, 4), (8, 8), (4, 2)])
def test_shift_rows_oracle(m, p):
    rng = np.random.default_rng(m * 31 + p)
    f = 8
    backend = sim(m * f)
    b = rng.normal(size=(5, p))
    enc = encode_transpose_extended(backend, b, rows=m, row_width=f)
    for step in range(p):
        rows = decrypt_rows(backend, shift_rows(backend, enc, step))
        for r in range(m):
            assert np.array_equal(rows[r, :5], b[:, (r + step) % p])
            assert not rows[r, 5:].any()


def test_shift_rows_costs():
    backend = sim(64)
    enc = encode_transpose_extended(backend, np.ones((3, 4)), rows=8, row_width=8)

    before = backend.ledger.snapshot()
    assert shift_rows(backend, enc, 0) is enc  # free: the encoding it was given
    assert ledger_delta(backend, before) == dict.fromkeys(
        ("mul", "cmul", "rot", "add", "consumed_bits"), 0)

    before = backend.ledger.snapshot()
    shift_rows(backend, enc, 2)  # 4 divides 8: single rotation
    assert ledger_delta(backend, before) == {
        "mul": 0, "cmul": 0, "rot": 1, "add": 0, "consumed_bits": 0}


@st.composite
def _shift_cases(draw):
    m = draw(st.sampled_from([1, 2, 4, 8, 16]))
    f = draw(st.sampled_from([2, 4, 8, 16]))
    period = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    return (m, f, period, draw(st.integers(0, period - 1)),
            draw(st.integers(1, f)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None)
@given(_shift_cases())
def test_shift_rows_property(case):
    m, f, period, step, n, seed = case
    backend = sim(m * f)
    b = np.random.default_rng(seed).normal(size=(n, period))
    enc = encode_transpose_extended(backend, b, rows=m, row_width=f)
    before = backend.ledger.snapshot()
    out = shift_rows(backend, enc, step)
    rows = decrypt_rows(backend, out)
    for r in range(m):
        assert np.array_equal(rows[r, :n], b[:, (r + step) % period])
    assert not rows[:, n:].any()
    assert ledger_delta(backend, before) == dict(
        mul=0, cmul=0, rot=int(step > 0), add=0, consumed_bits=0)
    assert out.ct.budget_bits == 1200


def test_shift_rows_rejects_bad_arguments():
    backend = sim(64)
    enc = encode_transpose_extended(backend, np.ones((3, 4)), rows=8, row_width=8)
    with pytest.raises(ValueError):
        shift_rows(backend, enc, 4)
    with pytest.raises(ValueError):
        shift_rows(backend, enc, -1)
    three = encode_transpose_extended(backend, np.ones((3, 3)), rows=8, row_width=8)
    with pytest.raises(ValueError, match="period must divide the 8 rows, got 3"):
        shift_rows(backend, three, 1)
    rows = encode_row_major(backend, np.ones((8, 3)), 8)
    with pytest.raises(ValueError, match="period must divide the 8 rows, got None"):
        shift_rows(backend, rows, 1)


def test_shift_rows_reads_the_period_of_the_encoding():
    # The encoding cycles its 4 columns, so a step past them is refused
    # rather than read against some other period.
    backend = sim(64)
    b = np.arange(12.0).reshape(3, 4)
    enc = encode_transpose_extended(backend, b, rows=8, row_width=8)
    with pytest.raises(ValueError, match=re.escape("step must be in 0..3, got 5")):
        shift_rows(backend, enc, 5)
    rows = decrypt_rows(backend, shift_rows(backend, enc, 1))
    for r in range(8):
        assert np.array_equal(rows[r, :3], b[:, (r + 1) % 4])


# -------------------------------------------------------------- row sums

@pytest.mark.parametrize("m,f,n", [
    (4, 8, 8), (4, 8, 5), (8, 16, 3), (2, 4, 4),
    (4, 16, 5), (4, 16, 16), (2, 32, 3), (8, 8, 8), (2, 64, 33)])
def test_broadcast_row_sums_oracle(m, f, n):
    # The ladder spans the logical width n, not the row: ceil(log2 n)
    # doubling steps, then the column-0 mask clears every other column.
    rng = np.random.default_rng(f * 7 + n)
    backend = sim(m * f)
    mat = rng.normal(size=(m, n))
    enc = encode_row_major(backend, mat, f)
    before = backend.ledger.snapshot()
    out = broadcast_row_sums(backend, enc)
    steps = (n - 1).bit_length()
    assert ledger_delta(backend, before) == {
        "mul": 0, "cmul": 1, "rot": steps, "add": steps, "consumed_bits": 20}
    rows = decrypt_rows(backend, out)
    assert np.allclose(rows[:, 0], mat.sum(axis=1), atol=1e-12)
    assert not rows[:, 1:].any()
    assert out.layout == row_major_layout(m, f, 1)


def test_broadcast_row_sums_costs():
    backend = sim(32)
    enc = encode_row_major(backend, np.ones((4, 8)), 8)
    before = backend.ledger.snapshot()
    out = broadcast_row_sums(backend, enc)
    assert ledger_delta(backend, before) == {
        "mul": 0, "cmul": 1, "rot": 3, "add": 3, "consumed_bits": 20}
    assert out.ct.budget_bits == 1200 - 20


# ----------------------------------------------------------- window sums

@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("h,w", [(3, 3), (4, 5), (6, 4)])
def test_window_sums_oracle(k, h, w):
    rng = np.random.default_rng(h * 100 + w * 10 + k)
    m, f = 2, 32
    backend = sim(m * f)
    images = rng.normal(size=(m, h, w))
    out = window_sums(backend, pack_image_batch(backend, images, f), k)
    rows = decrypt_rows(backend, out)
    for i in range(m):
        grid = rows[i, :h * w].reshape(h, w)
        for a in range(h):
            for b in range(w):
                if a + k <= h and b + k <= w:
                    expect = images[i, a:a + k, b:b + k].sum()
                    assert abs(grid[a, b] - expect) < 1e-12
                else:
                    assert grid[a, b] == 0.0
        assert not rows[i, h * w:].any()


def test_window_sums_costs():
    backend = sim(64)
    enc = pack_image_batch(backend, np.ones((2, 4, 5)), 32)
    before = backend.ledger.snapshot()
    out = window_sums(backend, enc, 3)
    assert ledger_delta(backend, before) == {
        "mul": 0, "cmul": 1, "rot": 4, "add": 4, "consumed_bits": 20}
    assert out.ct.budget_bits == 1200 - 20


def test_window_sums_rejects_oversized_window():
    backend = sim(64)
    enc = pack_image_batch(backend, np.ones((2, 4, 5)), 32)
    with pytest.raises(ValueError):
        window_sums(backend, enc, 5)
    with pytest.raises(ValueError):
        window_sums(backend, encode_row_major(backend, np.ones((2, 32)), 32), 2)


# --------------------------------------------------- rotate_within_rows

@pytest.mark.parametrize("n", [6, 8, 5])
def test_rotate_within_rows_oracle(n):
    rng = np.random.default_rng(n)
    m, f = 4, 8
    backend = sim(m * f)
    mat = rng.normal(size=(m, n))
    enc = encode_row_major(backend, mat, f)
    for r in range(n):
        rows = decrypt_rows(backend, rotate_within_rows(backend, enc, r))
        assert np.array_equal(rows[:, :n], np.roll(mat, -r, axis=1))
        assert not rows[:, n:].any()


@st.composite
def _rotation_cases(draw):
    m = draw(st.sampled_from([1, 2, 4, 8]))
    f = draw(st.sampled_from([2, 4, 8, 16, 32]))
    n = draw(st.integers(1, f))
    return m, f, n, draw(st.integers(0, n - 1)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(_rotation_cases())
def test_rotate_within_rows_property(case):
    # The input's pad slots hold junk, as an activation leaves there.
    m, f, n, amount, seed = case
    backend = sim(m * f)
    slots = np.random.default_rng(seed).normal(size=(m, f))
    enc = EncodedMatrix(backend.encrypt(slots.reshape(-1)),
                        row_major_layout(m, f, n))
    before = backend.ledger.snapshot()
    out = rotate_within_rows(backend, enc, amount)
    rows = decrypt_rows(backend, out)
    assert out.layout == enc.layout
    dc = backend.params.delta_c_bits
    if amount == 0:  # free, so the input comes back as it is, pad included
        assert out.ct is enc.ct
        assert ledger_delta(backend, before) == dict.fromkeys(
            ("mul", "cmul", "rot", "add", "consumed_bits"), 0)
        return
    assert np.array_equal(rows[:, :n], np.roll(slots[:, :n], -amount, axis=1))
    assert not rows[:, n:].any()
    assert ledger_delta(backend, before) == {
        "mul": 0, "cmul": 2, "rot": 2, "add": 1, "consumed_bits": 2 * dc}
    assert out.ct.budget_bits == 1200 - dc


def test_rotate_within_rows_composes():
    rng = np.random.default_rng(9)
    backend = sim(32)
    enc = encode_row_major(backend, rng.normal(size=(4, 6)), 8)
    twice = rotate_within_rows(backend, rotate_within_rows(backend, enc, 4), 5)
    direct = rotate_within_rows(backend, enc, (4 + 5) % 6)
    assert np.allclose(decrypt_rows(backend, twice), decrypt_rows(backend, direct),
                       atol=1e-12)


def test_rotate_within_rows_costs():
    backend = sim(32)
    enc = encode_row_major(backend, np.ones((4, 6)), 8)

    before = backend.ledger.snapshot()
    assert rotate_within_rows(backend, enc, 0) is enc  # free: the encoding it was given
    assert ledger_delta(backend, before)["consumed_bits"] == 0
    assert ledger_delta(backend, before)["rot"] == 0

    before = backend.ledger.snapshot()
    out = rotate_within_rows(backend, enc, 2)
    assert ledger_delta(backend, before) == {
        "mul": 0, "cmul": 2, "rot": 2, "add": 1, "consumed_bits": 40}
    assert out.ct.budget_bits == 1200 - 20


@pytest.mark.parametrize("amount", [6, -1])
def test_rotate_within_rows_rejects_an_amount_outside_the_window(amount):
    backend = sim(32)
    enc = encode_row_major(backend, np.ones((4, 6)), 8)
    with pytest.raises(ValueError, match=f"amount must be in 0..5, got {amount}"):
        rotate_within_rows(backend, enc, amount)


# ------------------------------------------------------ compact_columns

@pytest.mark.parametrize("m,f,p", [(4, 8, 4), (4, 8, 2), (8, 16, 4), (4, 8, 8)])
def test_compact_columns_oracle(m, f, p):
    rng = np.random.default_rng(m + f + p)
    backend = sim(m * f)
    c = rng.normal(size=(m, p))
    ct = backend.encrypt(encode_diagonal_pattern(c, rows=m, row_width=f, p=p))
    out = compact_columns(backend, EncodedMatrix(ct, diagonal_layout(m, f, p)))
    rows = decrypt_rows(backend, out)
    assert np.array_equal(rows[:, :p], c)
    assert not rows[:, p:].any()
    assert out.layout.logical_width == p


@st.composite
def _compaction_cases(draw):
    m = draw(st.sampled_from([1, 2, 4, 8]))
    f = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    return m, f, draw(st.integers(1, f)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(_compaction_cases())
def test_compact_columns_property(case):
    m, f, p, seed = case
    backend = sim(m * f)
    c = np.random.default_rng(seed).normal(size=(m, p))
    ct = backend.encrypt(encode_diagonal_pattern(c, rows=m, row_width=f, p=p))
    before = backend.ledger.snapshot()
    out = compact_columns(backend, EncodedMatrix(ct, diagonal_layout(m, f, p)))
    rows = decrypt_rows(backend, out)
    assert np.array_equal(rows[:, :p], c)
    assert not rows[:, p:].any()
    assert out.layout == row_major_layout(m, f, p)
    # One rotation per amount -(W-1)..W-1, W the widest group, with
    # amount 0 free; one cmul per amount, and the pieces summed.
    w, dc = column_group_widths(p, m)[0], backend.params.delta_c_bits
    assert ledger_delta(backend, before) == {
        "mul": 0, "cmul": 2 * w - 1, "rot": 2 * (w - 1), "add": 2 * (w - 1),
        "consumed_bits": (2 * w - 1) * dc}
    assert out.ct.budget_bits == 1200 - dc


def test_compact_columns_costs():
    # p=6 over 4 rows tiles [4, 2]: amounts -3..3, the group of 2 sharing
    # -1, 0 and 1 with the group of 4.
    backend = sim(32)
    c = np.arange(24.0).reshape(4, 6)
    ct = backend.encrypt(encode_diagonal_pattern(c, rows=4, row_width=8, p=6))
    before = backend.ledger.snapshot()
    out = compact_columns(backend, EncodedMatrix(ct, diagonal_layout(4, 8, 6)))
    assert ledger_delta(backend, before) == {
        "mul": 0, "cmul": 7, "rot": 6, "add": 6, "consumed_bits": 140}
    assert out.ct.budget_bits == 1200 - 20
    assert np.array_equal(decrypt_rows(backend, out)[:, :6], c)


def test_compact_columns_validation():
    backend = sim(32)
    enc = encode_row_major(backend, np.ones((4, 8)), 8)
    with pytest.raises(ValueError, match="compact_columns needs a diagonal layout"):
        compact_columns(backend, enc)


# ----------------------------------------------------------------- masks

def test_masks_are_cached_and_frozen():
    a = make_unskew_masks(4, 8, 6)
    assert a is make_unskew_masks(4, 8, 6)
    for _, mask in a:
        assert not mask.row.flags.writeable
        assert set(np.unique(mask.row)) <= {0.0, 1.0}


@pytest.mark.parametrize("m,f,p", [(4, 8, 6), (8, 16, 11), (2, 8, 8), (1, 4, 3)])
def test_unskew_masks_bring_every_slot_home_once(m, f, p):
    # Each output slot (i, j), j < p, is kept by exactly one amount, and
    # that amount moves the slot of C[i][j] in the diagonal layout onto it.
    hits = np.zeros((m, f), dtype=int)
    i = np.arange(m)[:, None]
    for amount, mask in make_unskew_masks(m, f, p):
        mask = mask.row.reshape(m, f)
        hits += mask.astype(int)
        for j in range(p):
            src = diagonal_slot_column(i[:, 0], j, p, m)
            assert np.array_equal(mask[:, j] == 1, src == j + amount)
    assert np.array_equal(hits[:, :p], np.ones((m, p), dtype=int))
    assert not hits[:, p:].any()


def unskew_masks_by_group(rows, f, p):
    """Per column group (b, w): row i with r = i % w holds C[i][b + c] at column
    b + ((c - r) % w), so a rotation by -r brings columns c >= r home and one by
    w - r the wrapped ones."""
    bufs = {}
    for b, w in column_groups(p, rows):
        for r in range(w):
            for amount, c0, c1 in ((-r, b + r, b + w), (w - r, b, b + r)):
                if c0 < c1:
                    bufs.setdefault(amount, np.zeros((rows, f)))[r::w, c0:c1] = 1.0
    return sorted(bufs.items())


@pytest.mark.parametrize("rows,f,p", [(1, 4, 3), (2, 8, 8), (4, 8, 6), (8, 16, 11),
                                      (8, 32, 20), (16, 32, 12), (32, 128, 100)])
def test_unskew_masks_match_a_per_group_reference(rows, f, p):
    got = make_unskew_masks(rows, f, p)
    want = unskew_masks_by_group(rows, f, p)
    assert [a for a, _ in got] == [a for a, _ in want]
    assert all(type(a) is int for a, _ in got)
    for (_, mask), (_, buf) in zip(got, want):
        assert np.array_equal(mask.row, buf.reshape(-1))


# ------------------------------------------------- reduce / parallel map

def test_reduce_add_tree_and_fold_agree():
    # Small whole numbers sum exactly, so any order of adds gives 28.
    backend = sim(8)
    vals = [np.full(8, float(i)) for i in range(1, 8)]
    total = backend.decrypt(reduce_add(backend, [backend.encrypt(v) for v in vals]))
    assert np.array_equal(total, np.full(8, 28.0))
    assert np.array_equal(total, functools.reduce(np.add, vals))


def test_reduce_add_costs_and_validation():
    backend = sim(8)
    cts = [backend.encrypt(np.ones(8)) for _ in range(5)]
    before = backend.ledger.snapshot()
    reduce_add(backend, cts)
    assert ledger_delta(backend, before)["add"] == 4
    assert reduce_add(backend, cts[:1]) is cts[0]
    with pytest.raises(ValueError):
        reduce_add(backend, [])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 70), st.booleans(), st.integers(0, 2**32 - 1))
def test_reduce_add_folds_left_to_right_as_it_reads(n, as_generator, seed):
    rng = np.random.default_rng(seed)
    backend = sim(8)
    # Magnitudes spread over 12 decades, so another order of adds rounds
    # differently.
    vals = rng.normal(scale=10.0 ** rng.integers(-6, 7, size=(n, 1)), size=(n, 8))
    cts = [backend.encrypt(v) for v in vals]
    adds_seen = []

    def feed():
        for ct in cts:
            adds_seen.append(backend.ledger.counts["add"] - start)
            yield ct

    start = backend.ledger.counts["add"]
    out = reduce_add(backend, feed() if as_generator else cts)
    assert np.array_equal(backend.decrypt(out), functools.reduce(np.add, vals))
    assert backend.ledger.counts["add"] - start == n - 1
    if as_generator:
        # Before input i (0-based) is read, every input read after the
        # first has been added: the sum runs while it reads.
        assert adds_seen == [max(i - 1, 0) for i in range(n)]

