import re

import numpy as np
import pytest

from hepack import (
    LayoutKind,
    MatrixLayout,
    decode_diagonal,
    decrypt_rows,
    diagonal_layout,
    diagonal_slot_column,
    encode_diagonal_pattern,
    encode_row_major,
    encode_transpose_extended,
    grid_layout,
    multiply_matrices,
    pack_image_batch,
    row_major_layout,
)
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
], ids=["zero-rows", "grid-past-the-row", "grid-layout-wider-than-the-row",
        "grid-cells-not-its-width", "row-width-not-a-power-of-two", "zero-width",
        "product-with-no-inner-dimension"])
def test_layout_validation_names_the_cause(make, cause):
    with pytest.raises(ValueError, match=re.escape(cause)):
        make()


@pytest.mark.parametrize("encode,cause", [
    (lambda be: pack_image_batch(be, np.zeros((4, 16)), row_width=16),
     "images must have shape (m, h, w)"),
    (lambda be: encode_transpose_extended(be, np.zeros(4), rows=4, row_width=16),
     "matrix must be 2-D"),
], ids=["2-d-images", "1-d-weight"])
def test_encoders_name_an_operand_of_the_wrong_rank(encode, cause):
    with pytest.raises(ValueError, match=re.escape(cause)):
        encode(sim(64))


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
