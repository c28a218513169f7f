"""Slot layouts for matrices and image batches.

A ciphertext is viewed as `rows` rows of `row_width` slots
(rows * row_width == slots). Three layouts appear:

row-major     row i holds matrix row i in its first logical_width slots.
diagonal      matmul output: C[i][j] sits at column (i + ((j - i) % p)) % f,
              where p is the layout period (the output column count).
image-grid    row i holds image i flattened row-major in its first h*w slots.

Transpose-extended (the right side of a product: row r holds column r % p
of B) and image-grid are row-major encodings of a rearranged matrix, so
encode_row_major builds every row-packed buffer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .backend import CipherVec, SimdBackend, require_finite


class LayoutKind(enum.Enum):
    ROW_MAJOR = "row_major"
    DIAGONAL = "diagonal"
    IMAGE_GRID = "image_grid"


@dataclass(frozen=True)
class MatrixLayout:
    """A ciphertext seen as rows x row_width slots, both powers of two.

    An image grid's logical_width is grid_h * grid_w.
    """

    rows: int
    row_width: int
    logical_width: int
    kind: LayoutKind
    period: int | None = None  # diagonal only: output column count
    grid_h: int | None = None  # image-grid only
    grid_w: int | None = None

    def __post_init__(self):
        if self.rows < 1 or self.row_width < 1:
            raise ValueError("rows and row_width must be positive")
        for name, n in (("rows", self.rows), ("row_width", self.row_width)):
            if n & (n - 1):
                raise ValueError(f"{name} must be a power of two, got {n}")
        if not 0 < self.logical_width <= self.row_width:
            raise ValueError("logical_width must fit in row_width")
        if self.kind is LayoutKind.DIAGONAL:
            if not self.period or not 0 < self.period <= self.row_width:
                raise ValueError("diagonal layout needs 0 < period <= row_width")
        if self.kind is LayoutKind.IMAGE_GRID:
            if not self.grid_h or not self.grid_w:
                raise ValueError("image-grid layout needs grid_h and grid_w")
            if self.logical_width != self.grid_h * self.grid_w:
                raise ValueError("image-grid layout needs logical_width == grid_h * grid_w")


def row_major_layout(rows: int, row_width: int, logical_width: int) -> MatrixLayout:
    return MatrixLayout(rows, row_width, logical_width, LayoutKind.ROW_MAJOR)


def diagonal_layout(rows: int, row_width: int, period: int) -> MatrixLayout:
    return MatrixLayout(rows, row_width, row_width, LayoutKind.DIAGONAL, period=period)


def grid_layout(rows: int, row_width: int, h: int, w: int) -> MatrixLayout:
    return MatrixLayout(rows, row_width, h * w, LayoutKind.IMAGE_GRID, grid_h=h, grid_w=w)


@dataclass(frozen=True)
class EncodedMatrix:
    ct: CipherVec
    layout: MatrixLayout


def encode_row_major(backend: SimdBackend, matrix, row_width: int) -> EncodedMatrix:
    """Encrypt an m x n matrix, one matrix row per ciphertext row.

    Columns n..row_width-1 of every row are zero pad. m * row_width must
    equal the backend slot count.
    """
    m_arr = np.asarray(matrix, dtype=np.float64)
    if m_arr.ndim != 2:
        raise ValueError("matrix must be 2-D")
    rows, n = m_arr.shape
    if n > row_width:
        raise ValueError(f"matrix width {n} exceeds row_width {row_width}")
    if rows * row_width != backend.params.slots:
        raise ValueError(
            f"{rows} rows x {row_width} must fill the {backend.params.slots} slots exactly"
        )
    buf = np.zeros((rows, row_width))
    buf[:, :n] = m_arr
    return EncodedMatrix(backend.encrypt(buf.reshape(-1)),
                         row_major_layout(rows, row_width, n))


def encode_transpose_extended(backend: SimdBackend, matrix, rows: int,
                              row_width: int) -> EncodedMatrix:
    """Encrypt an n x p matrix B for the right side of a product.

    Slot (r, j) = B[j][r % p] for j < n, zero pad beyond: the row-major
    encoding of B^T with its rows cycled. The p columns must all appear,
    so rows >= p is required.
    """
    b = np.asarray(matrix, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("matrix must be 2-D")
    n, p = b.shape
    if n > row_width:
        raise ValueError(f"matrix height {n} exceeds row_width {row_width}")
    if p < 1:
        raise ValueError("matrix has no columns")
    if rows < p:
        raise ValueError(f"need rows >= {p} to cover every column, got {rows}")
    return encode_row_major(backend, b.T[np.arange(rows) % p], row_width)


def pack_image_batch(backend: SimdBackend, images, row_width: int) -> EncodedMatrix:
    """Encrypt a batch of m images of shape h x w, one image per row.

    Pixel values are taken as given (normalize before packing) and must
    be finite. Slots past h*w in each row are zero pad.
    """
    imgs = np.asarray(images, dtype=np.float64)
    if imgs.ndim != 3:
        raise ValueError("images must have shape (m, h, w)")
    require_finite(imgs, "images")
    m, h, w = imgs.shape
    if h * w > row_width:
        raise ValueError(f"image of {h * w} pixels exceeds row_width {row_width}")
    enc = encode_row_major(backend, imgs.reshape(m, h * w), row_width)
    return EncodedMatrix(enc.ct, grid_layout(m, row_width, h, w))


def diagonal_slot_column(i: int, j: int, p: int, f: int) -> int:
    """Column where output entry C[i][j] sits in the diagonal layout."""
    return (i + ((j - i) % p)) % f


def encode_diagonal_pattern(matrix, rows: int, row_width: int, p: int) -> np.ndarray:
    """Place an m x p matrix into the diagonal slot pattern (forward map).

    The independent oracle for decode_diagonal; it also builds the
    diagonal-layout inputs that compaction is tested on.
    """
    c = np.asarray(matrix, dtype=np.float64)
    m, width = c.shape
    if width != p:
        raise ValueError(f"matrix width {width} != period {p}")
    if m > rows:
        raise ValueError(f"matrix has {m} rows but layout only {rows}")
    buf = np.zeros((rows, row_width))
    for i in range(m):
        for j in range(p):
            buf[i, diagonal_slot_column(i, j, p, row_width)] = c[i, j]
    return buf.reshape(-1)


def decode_diagonal(slot_values, m: int, row_width: int, p: int) -> np.ndarray:
    """Read an m x p matrix back out of a diagonal-layout slot vector."""
    if not 1 <= p <= row_width:
        raise ValueError(f"period p must be in 1..{row_width}, got {p}")
    grid = np.asarray(slot_values, dtype=np.float64).reshape(-1, row_width)
    if m > grid.shape[0]:
        raise ValueError(f"asked for {m} rows, slot vector has {grid.shape[0]}")
    out = np.empty((m, p))
    for i in range(m):
        for j in range(p):
            out[i, j] = grid[i, diagonal_slot_column(i, j, p, row_width)]
    return out


def decrypt_rows(backend: SimdBackend, enc: EncodedMatrix) -> np.ndarray:
    """Decrypt and reshape to (rows, row_width)."""
    return backend.decrypt(enc.ct).reshape(enc.layout.rows, enc.layout.row_width)
