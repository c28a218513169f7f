import re

import numpy as np
import pytest

from hepack import (
    FcSpec,
    LayoutKind,
    MatrixLayout,
    NetworkSpec,
    Plaintext,
    convolve_images,
    decode_diagonal,
    decrypt_rows,
    diagonal_layout,
    diagonal_slot_column,
    encode_diagonal_pattern,
    encode_row_major,
    encode_transpose_extended,
    grid_layout,
    image_blocks,
    multiply_matrices,
    pack_image_batch,
    reference_infer,
    row_major_layout,
    span_kernel,
    split_weight_groups,
)
from hepack.backend import OP_KINDS
from common import sim


def test_row_major_slot_indexing():
    rng = np.random.default_rng(0)
    backend = sim(32)
    mat = rng.normal(size=(4, 5))
    enc = encode_row_major(backend, mat, row_width=8)
    flat = backend.decrypt(enc.ct)
    for i in range(4):
        for j in range(8):
            expect = mat[i, j] if j < 5 else 0.0
            assert flat[i * 8 + j] == expect
    assert enc.layout.kind is LayoutKind.ROW_MAJOR
    assert enc.layout.logical_width == 5


def test_decrypt_rows_reshapes():
    backend = sim(32)
    mat = np.arange(12.0).reshape(4, 3)
    enc = encode_row_major(backend, mat, row_width=8)
    rows = decrypt_rows(backend, enc)
    assert rows.shape == (4, 8)
    assert np.array_equal(rows[:, :3], mat)
    assert not rows[:, 3:].any()


def test_row_major_encodes_a_plaintext_row_down_every_row():
    # A Plaintext row fills a row as it is, so it encodes as the matrix of
    # that row repeated, bitwise, without being checked again.
    backend = sim(32)
    row = np.random.default_rng(1).normal(size=8)
    enc = encode_row_major(backend, Plaintext(row), row_width=8)
    want = encode_row_major(backend, np.tile(row, (4, 1)), row_width=8)
    assert backend.decrypt(enc.ct).tobytes() == backend.decrypt(want.ct).tobytes()
    assert enc.layout == want.layout == row_major_layout(4, 8, 8)
    with pytest.raises(ValueError, match="plaintext row of 4 values must fill row_width 8"):
        encode_row_major(backend, Plaintext(row[:4]), row_width=8)


def test_row_major_rejects_bad_geometry():
    backend = sim(32)
    with pytest.raises(ValueError):
        encode_row_major(backend, np.zeros((4, 5)), row_width=16)  # 64 slots
    with pytest.raises(ValueError):
        encode_row_major(backend, np.zeros((4, 9)), row_width=8)  # too wide
    with pytest.raises(ValueError):
        encode_row_major(backend, np.zeros(8), row_width=8)  # 1-D


def test_transpose_extended_small_example():
    # B = [[1, 2], [3, 4]] spread over four rows: its columns repeat
    # cyclically down the ciphertext, one column per row.
    backend = sim(16)
    enc = encode_transpose_extended(backend, [[1.0, 2.0], [3.0, 4.0]],
                                    rows=4, row_width=4)
    rows = decrypt_rows(backend, enc)
    assert np.array_equal(rows, [[1, 3, 0, 0],
                                 [2, 4, 0, 0],
                                 [1, 3, 0, 0],
                                 [2, 4, 0, 0]])


def test_transpose_extended_indexing_formula():
    rng = np.random.default_rng(1)
    backend = sim(64)
    b = rng.normal(size=(5, 4))  # n x p
    enc = encode_transpose_extended(backend, b, rows=8, row_width=8)
    rows = decrypt_rows(backend, enc)
    for r in range(8):
        for j in range(8):
            expect = b[j, r % 4] if j < 5 else 0.0
            assert rows[r, j] == expect


def test_transpose_extended_needs_enough_rows():
    backend = sim(16)
    with pytest.raises(ValueError, match="need rows >= 8"):
        encode_transpose_extended(backend, np.zeros((2, 8)), rows=4, row_width=4)


def test_transpose_extended_rejects_a_matrix_taller_than_a_row():
    backend = sim(16)
    with pytest.raises(ValueError, match="matrix height 5 exceeds row_width 4"):
        encode_transpose_extended(backend, np.zeros((5, 2)), rows=4, row_width=4)


def test_transpose_extended_rejects_a_matrix_without_columns():
    with pytest.raises(ValueError, match="matrix has no columns"):
        encode_transpose_extended(sim(16), np.zeros((2, 0)), rows=4, row_width=4)


@pytest.mark.parametrize("encode", [
    lambda be: encode_row_major(be, np.zeros((4, 5)), row_width=16),
    lambda be: encode_transpose_extended(be, np.zeros((5, 2)), rows=4,
                                         row_width=16),
    lambda be: pack_image_batch(be, np.zeros((4, 3, 4)), row_width=16),
], ids=["row_major", "transpose_extended", "image_batch"])
def test_encoders_name_a_geometry_that_misses_the_slot_count(encode):
    with pytest.raises(ValueError,
                       match="4 rows x 16 must fill the 32 slots exactly"):
        encode(sim(32))


def test_pack_image_batch_layout():
    rng = np.random.default_rng(2)
    backend = sim(64)
    images = rng.normal(size=(4, 3, 4))
    enc = pack_image_batch(backend, images, row_width=16)
    assert enc.layout.kind is LayoutKind.IMAGE_GRID
    assert (enc.layout.grid_h, enc.layout.grid_w) == (3, 4)
    rows = decrypt_rows(backend, enc)
    for i in range(4):
        assert np.array_equal(rows[i, :12], images[i].reshape(-1))
        assert not rows[i, 12:].any()


def test_pack_image_batch_rejects_non_finite_pixels(monkeypatch):
    backend = sim(64)
    images = np.zeros((4, 3, 4))
    images[1, 2, 0] = np.nan
    images[3, 0, 1] = -np.inf

    def no_encrypt(_values):
        raise AssertionError("encrypted before validating the pixels")

    monkeypatch.setattr(backend, "encrypt", no_encrypt)
    with pytest.raises(ValueError, match=re.escape(
            "images has 2 non-finite values (NaN or inf)")):
        pack_image_batch(backend, images, row_width=16)
    # A complex image is refused, not cut to its real part.
    with pytest.raises(ValueError, match="images must be real, got complex values"):
        pack_image_batch(backend, np.zeros((4, 3, 4)) + 1j, row_width=16)


ONE_FC = NetworkSpec(1, 1, (FcSpec(np.ones((1, 1)), np.zeros(1)),))


# Every intake of an outside array: (call(backend, operand), a well-formed
# operand shape, the operand's name). A call without a backend ignores it.
INTAKES = pytest.mark.parametrize("call,shape,what", [
    (lambda be, x: encode_row_major(be, x, 4), (4, 2), "matrix"),
    (lambda be, x: encode_transpose_extended(be, x, 4, 4), (2, 4), "matrix"),
    (lambda be, x: encode_diagonal_pattern(x, 4, 4, 2), (4, 2), "matrix"),
    (lambda be, x: span_kernel(x, 0.0, 2, 2, 4, 4), (1, 1), "conv kernel"),
    (lambda be, x: split_weight_groups(be, x, 4, 4), (2, 4), "weight matrix"),
    (lambda be, x: multiply_matrices(x, np.ones((4, 4)), backend=be), (4, 4), "A"),
    (lambda be, x: multiply_matrices(np.ones((4, 4)), x, backend=be), (4, 4), "B"),
    (lambda be, x: convolve_images(x, np.ones((1, 1))), (1, 2, 2), "images"),
    (lambda be, x: image_blocks(x, 1), (1, 2, 2), "images"),
    (lambda be, x: reference_infer(ONE_FC, x), (1, 1, 1), "images"),
    (lambda be, x: decode_diagonal(x, 4, 4, 2), (16,), "slot values"),
    (lambda be, x: pack_image_batch(be, x, 4), (4, 2, 2), "images"),
], ids=["row-major", "transpose-extended", "diagonal-pattern", "span-kernel",
        "weight-groups", "product-a", "product-b", "convolve-images",
        "image-blocks", "reference-infer", "decode-diagonal", "pack-image-batch"])


def refused_before_any_op(call, operand, message):
    backend = sim(16)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(backend, operand)
    assert backend.ledger.counts == dict.fromkeys(OP_KINDS, 0)


@INTAKES
def test_each_intake_reads_a_well_formed_operand(call, shape, what):
    # The tables below hold bad values in these shapes, so the shape alone is no fault.
    call(sim(16), np.zeros(shape).tolist())


@INTAKES
def test_complex_values_are_refused_before_the_float_cast(call, shape, what):
    # Cast first, each would keep the real part with only a ComplexWarning.
    refused_before_any_op(call, np.full(shape, 1 + 2j),
                          f"{what} must be real, got complex values")


@INTAKES
def test_ragged_values_are_refused_by_their_operand_name(call, shape, what):
    # One more entry, and an empty one: numpy's own error names no operand.
    refused_before_any_op(call, np.zeros(shape).tolist() + [[]],
                          f"{what} is ragged: its nested sequences differ in length")


@INTAKES
def test_non_numeric_values_are_refused_by_their_operand_name(call, shape, what):
    # Cast to float64, a string of digits would be parsed and None read as NaN.
    for value in ("a", "1.5", None):
        refused_before_any_op(call, np.full(shape, value), f"{what} must be numeric")


def test_pack_image_batch_rejects_oversized_grid():
    backend = sim(64)
    with pytest.raises(ValueError, match="image of 20 pixels exceeds row_width 16"):
        pack_image_batch(backend, np.zeros((4, 5, 4)), row_width=16)


def test_layout_validation():
    with pytest.raises(ValueError):
        row_major_layout(3, 8, 4)  # rows not a power of two
    with pytest.raises(ValueError):
        row_major_layout(4, 8, 9)  # logical wider than physical
    with pytest.raises(ValueError):
        diagonal_layout(4, 8, 0)
    with pytest.raises(ValueError):
        MatrixLayout(4, 8, 8, LayoutKind.IMAGE_GRID)
    with pytest.raises(ValueError):
        grid_layout(4, 8, 3, 4)  # 12 > 8


@pytest.mark.parametrize("make,cause", [
    (lambda: MatrixLayout(0, 8, 4, LayoutKind.ROW_MAJOR),
     "rows and row_width must be positive"),
    (lambda: MatrixLayout(4, 8, 4, LayoutKind.IMAGE_GRID, grid_h=3, grid_w=4),
     "image-grid layout needs logical_width == grid_h * grid_w"),
    (lambda: grid_layout(4, 8, 1, 9), "logical_width must be in 1..8, got 9"),
    (lambda: MatrixLayout(4, 16, 8, LayoutKind.IMAGE_GRID, grid_h=3, grid_w=4),
     "image-grid layout needs logical_width == grid_h * grid_w"),
    (lambda: row_major_layout(4, 12, 4), "row_width must be a power of two, got 12"),
    (lambda: row_major_layout(2, 2, 0), "logical_width must be in 1..2, got 0"),
    (lambda: multiply_matrices(np.zeros((2, 0)), np.zeros((0, 2))),
     "logical_width must be in 1..2, got 0"),
    # A geometry value that is not an integer is refused by name.
    (lambda: grid_layout(4, 16, 2.0, 2), "grid_h must be an integer, got 2.0"),
    (lambda: grid_layout(4, 16, 2, 2.0), "grid_w must be an integer, got 2.0"),
    (lambda: row_major_layout(4.0, 16, 2), "rows must be an integer, got 4.0"),
    (lambda: diagonal_layout(4, 16.0, 2), "row_width must be an integer, got 16.0"),
    (lambda: row_major_layout(4, 16, 2.5), "logical_width must be an integer, got 2.5"),
    (lambda: MatrixLayout(4, 16, 2, LayoutKind.ROW_MAJOR, period=1.5),
     "period must be an integer, got 1.5"),
    (lambda: row_major_layout(np.array(4.0), 16, 2), "rows must be an integer, got 4.0"),
    (lambda: decode_diagonal(np.zeros(16), 1.5, 4, 2), "row count m must be an integer, got 1.5"),
    (lambda: decode_diagonal(np.zeros(16), 2, 4, 2.0),
     "output width p must be an integer, got 2.0"),
    (lambda: NetworkSpec(8.0, 8, (FcSpec(np.ones((2, 64)), np.zeros(2)),)),
     "input_h must be an integer, got 8.0"),
], ids=["zero-rows", "grid-past-the-row", "grid-layout-wider-than-the-row",
        "grid-cells-not-its-width", "row-width-not-a-power-of-two", "zero-width",
        "product-with-no-inner-dimension", "float-grid-h", "float-grid-w", "float-rows",
        "float-row-width", "float-logical-width", "float-period", "0-d-array-rows",
        "float-decode-rows", "float-decode-width", "float-network-input-h"])
def test_layout_validation_names_the_cause(make, cause):
    with pytest.raises(ValueError, match=re.escape(cause)):
        make()


def test_each_layout_geometry_is_made_once():
    assert row_major_layout(4, 16, 2) is row_major_layout(4, 16, 2)
    assert diagonal_layout(4, 16, 3) is diagonal_layout(4, 16, 3)
    assert grid_layout(4, 16, 2, 3) is grid_layout(4, 16, 2, 3)
    assert row_major_layout(4, 16, 2) is not row_major_layout(4, 16, 3)
    assert row_major_layout(4, 16, 2) != diagonal_layout(4, 16, 2)
    # The cache is typed: a whole float is not handed the int's layout.
    with pytest.raises(ValueError, match=re.escape("rows must be an integer, got 4.0")):
        row_major_layout(4.0, 16, 2)
    assert row_major_layout(np.int64(4), 16, 2) == row_major_layout(4, 16, 2)
    assert type(MatrixLayout(np.int64(4), 16, 2, LayoutKind.ROW_MAJOR).rows) is int


def test_a_0d_integer_array_geometry_gets_the_ints_layout():
    # A 0-d array has no hash: it is checked as an integer, then cached as its int.
    assert row_major_layout(np.array(4), 16, 2) is row_major_layout(4, 16, 2)
    assert diagonal_layout(4, np.array(16), 3) is diagonal_layout(4, 16, 3)
    assert grid_layout(4, 16, np.array(2), np.array(3)) is grid_layout(4, 16, 2, 3)
    for make, cause in ((lambda: grid_layout(4, 16, np.array(2.0), 3), "grid_h"),
                        (lambda: diagonal_layout(4, 16, np.array(2.5)), "logical_width")):
        with pytest.raises(ValueError, match=f"{cause} must be an integer, got 2"):
            make()


def test_transpose_extended_encodings_share_one_layout_per_geometry():
    backend = sim(64)
    one = encode_transpose_extended(backend, np.ones((3, 4)), rows=8, row_width=8)
    two = encode_transpose_extended(backend, np.zeros((3, 4)), rows=8, row_width=8)
    assert one.layout is two.layout
    assert one.layout == MatrixLayout(8, 8, 3, LayoutKind.ROW_MAJOR, period=4)


def test_a_network_reads_an_integer_array_geometry_as_an_int():
    net = NetworkSpec(np.array(2), np.int64(2), (FcSpec(np.ones((3, 4)), np.zeros(3)),))
    assert (type(net.input_h), type(net.input_w)) == (int, int)
    assert net == NetworkSpec(2, 2, net.layers) and hash(net) == hash(NetworkSpec(2, 2, net.layers))


@pytest.mark.parametrize("encode,cause", [
    (lambda be: pack_image_batch(be, np.zeros((4, 16)), row_width=16),
     "images must be 3-D, got shape (4, 16)"),
    (lambda be: encode_transpose_extended(be, np.zeros(4), rows=4, row_width=16),
     "matrix must be 2-D, got shape (4,)"),
    (lambda be: encode_diagonal_pattern(np.zeros(4), 4, 4, 2),
     "matrix must be 2-D, got shape (4,)"),
    (lambda be: image_blocks(np.float64(1.0), 2), "images must be 3-D, got shape ()"),
    (lambda be: image_blocks(np.zeros((4, 2, 2)), 1.5), "batch must be an integer, got 1.5"),
    (lambda be: decode_diagonal(np.zeros(16), -1, 4, 2), "row count m must be in 1..4, got -1"),
], ids=["2-d-images", "1-d-weight", "1-d-diagonal-pattern", "0-d-image-blocks",
        "fractional-image-batch", "negative-decode-rows"])
def test_encoders_name_an_operand_of_the_wrong_rank(encode, cause):
    backend = sim(64)
    with pytest.raises(ValueError, match=re.escape(cause)):
        encode(backend)
    assert backend.ledger.counts == dict.fromkeys(OP_KINDS, 0)


def test_diagonal_slot_column_examples():
    # p = 2 over 4 rows is one group of 2: row i is skewed by i, so entry
    # (i, j) sits at column (j - i) mod 2.
    assert diagonal_slot_column(0, 0, 2, 4) == 0
    assert diagonal_slot_column(0, 1, 2, 4) == 1
    assert diagonal_slot_column(1, 0, 2, 4) == 1
    assert diagonal_slot_column(1, 1, 2, 4) == 0
    assert diagonal_slot_column(3, 1, 2, 4) == 0
    # p = 6 over 4 rows tiles [4, 2]; the skew stays inside each group.
    assert diagonal_slot_column(3, 0, 6, 4) == 1
    assert diagonal_slot_column(1, 5, 6, 4) == 4
    assert diagonal_slot_column(2, 4, 6, 4) == 4


def test_diagonal_pattern_round_trip():
    rng = np.random.default_rng(3)
    for m, f, p in [(4, 8, 4), (8, 8, 2), (4, 16, 8), (8, 64, 10), (2, 8, 7)]:
        c = rng.normal(size=(m, p))
        slots = encode_diagonal_pattern(c, rows=m, row_width=f, p=p)
        back = decode_diagonal(slots.reshape(m, f), m, f, p)
        assert np.array_equal(back, c)


@pytest.mark.parametrize("p", [0, 6])
def test_decode_diagonal_rejects_a_period_outside_the_row(p):
    # At f=4, p=6 columns 4 and 5 would lie past the row.
    with pytest.raises(ValueError, match=re.escape(
            f"output width p must be in 1..4, got {p}")):
        decode_diagonal(np.arange(16.0), 4, 4, p)


@pytest.mark.parametrize("p", [0, 6])
def test_encode_diagonal_pattern_rejects_a_period_outside_the_row(p):
    with pytest.raises(ValueError, match=re.escape(
            f"output width p must be in 1..4, got {p}")):
        encode_diagonal_pattern(np.ones((2, p)), 2, 4, p)


def test_encode_diagonal_pattern_rejects_a_matrix_of_another_width():
    with pytest.raises(ValueError, match=re.escape("matrix width 3 != output width 4")):
        encode_diagonal_pattern(np.ones((2, 3)), 2, 8, 4)


def test_decode_diagonal_rejects_a_partial_row():
    with pytest.raises(ValueError, match="10 slot values are not whole rows of 4"):
        decode_diagonal(np.arange(10.0), 2, 4, 2)


def test_diagonal_pattern_positions():
    c = np.arange(8.0).reshape(4, 2)
    slots = encode_diagonal_pattern(c, rows=4, row_width=4, p=2).reshape(4, 4)
    for i in range(4):
        for j in range(2):
            assert slots[i, diagonal_slot_column(i, j, 2, 4)] == c[i, j]
