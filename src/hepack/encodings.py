"""Slot layouts for matrices and image batches.

A ciphertext is viewed as `rows` rows of `row_width` slots
(rows * row_width == slots). Three layouts appear:

row-major     row i holds matrix row i in its first logical_width slots.
diagonal      matmul output in columns 0..p-1, p the logical width: the p
              columns tile into the groups of column_group_widths(p, rows),
              and inside group (b, w) row i is skewed by i, so C[i][j]
              sits at column b + ((j - b - i) % w).
image-grid    row i holds image i flattened row-major in its first h*w slots.

Transpose-extended (the right side of a product: row r holds column r % p
of B, p kept as the layout period) and image-grid are row-major encodings
of a rearranged matrix, so encode_row_major builds every row-packed buffer
and is the one place that zero-pads (the backend takes only full-slot
arrays). It also takes a Plaintext row of row_width values, checked when
it was made, and encrypts it as every row of the matrix.

The *_layout functions make one MatrixLayout per geometry, checked once, and hand
the same object out for every later call; a numpy integer or 0-d array gets its int's.
"""

from __future__ import annotations

import enum
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache, wraps
from itertools import accumulate

import numpy as np

from .backend import (CipherVec, Plaintext, SimdBackend, real_array, require_finite,
                      require_integer, require_power_of_two)


class LayoutKind(enum.Enum):
    ROW_MAJOR = "row_major"
    DIAGONAL = "diagonal"
    IMAGE_GRID = "image_grid"


@dataclass(frozen=True)
class MatrixLayout:
    """A ciphertext seen as rows x row_width slots, both powers of two.

    The one record of an encoding's geometry: each row's data is its first
    logical_width slots (an image grid's grid_h * grid_w cells, a diagonal
    output's p columns), and only a transpose-extended encoding has a period.
    """

    rows: int
    row_width: int
    logical_width: int
    kind: LayoutKind
    period: int | None = None  # transpose-extended only: columns cycled down the rows
    grid_h: int | None = None  # image-grid only
    grid_w: int | None = None

    def __post_init__(self):
        for f in reversed(fields(self)):  # grid_h, grid_w before the logical_width they make
            value = getattr(self, f.name)
            if f.name != "kind" and (value is not None or f.default is MISSING):
                object.__setattr__(self, f.name, require_integer(value, f.name))
        for name in ("rows", "row_width"):
            require_power_of_two(getattr(self, name), name)
        if not 0 < self.logical_width <= self.row_width:
            raise ValueError(f"logical_width must be in 1..{self.row_width}, "
                             f"got {self.logical_width}")
        if self.kind is LayoutKind.IMAGE_GRID:
            if not self.grid_h or not self.grid_w:
                raise ValueError("image-grid layout needs grid_h and grid_w")
            if self.logical_width != self.grid_h * self.grid_w:
                raise ValueError("image-grid layout needs logical_width == grid_h * grid_w")


def _one_per_geometry(make):
    """`make`, cached so that each geometry has one MatrixLayout, the one of its ints. A
    geometry not all ints is checked by make first: 4.0 == 4 would share the int's entry."""
    cached = lru_cache(maxsize=None)(make)

    @wraps(make)
    def layout(*geometry) -> MatrixLayout:
        if not all(map(int.__instancecheck__, geometry)):
            make(*geometry)  # refuses a value that is not an integer, by its name
            geometry = map(int, geometry)
        return cached(*geometry)
    return layout


@_one_per_geometry
def row_major_layout(rows: int, row_width: int, logical_width: int) -> MatrixLayout:
    return MatrixLayout(rows, row_width, logical_width, LayoutKind.ROW_MAJOR)


@_one_per_geometry
def transpose_extended_layout(rows: int, row_width: int, n: int, p: int) -> MatrixLayout:
    return MatrixLayout(rows, row_width, n, LayoutKind.ROW_MAJOR, period=p)


@_one_per_geometry
def diagonal_layout(rows: int, row_width: int, p: int) -> MatrixLayout:
    return MatrixLayout(rows, row_width, p, LayoutKind.DIAGONAL)


@_one_per_geometry
def grid_layout(rows: int, row_width: int, h: int, w: int) -> MatrixLayout:
    return MatrixLayout(rows, row_width, h * w, LayoutKind.IMAGE_GRID, grid_h=h, grid_w=w)


@dataclass(frozen=True)
class EncodedMatrix:
    ct: CipherVec
    layout: MatrixLayout


def encode_row_major(backend: SimdBackend, matrix, row_width: int) -> EncodedMatrix:
    """Encrypt an m x n matrix, one matrix row per ciphertext row.

    Columns n..row_width-1 of every row are zero pad. m * row_width must
    equal the backend slot count. A matrix that fills its rows (a broadcast
    view too) goes to encrypt as it is, so its Plaintext copy is the only buffer.
    A Plaintext must be one full row: encrypt tiles it down every row.
    """
    if isinstance(matrix, Plaintext):
        n = matrix.row.shape[0]
        if n != row_width:
            raise ValueError(f"plaintext row of {n} values must fill row_width {row_width}")
        ct = backend.encrypt(matrix)
        return EncodedMatrix(ct, row_major_layout(backend.params.slots // n, n, n))
    m_arr = real_array(matrix, "matrix", ndim=2)
    rows, n = m_arr.shape
    if n > row_width:
        raise ValueError(f"matrix width {n} exceeds row_width {row_width}")
    if rows * row_width != backend.params.slots:
        raise ValueError(
            f"{rows} rows x {row_width} must fill the {backend.params.slots} slots exactly"
        )
    if n < row_width:
        buf = np.zeros((rows, row_width))
        buf[:, :n] = m_arr
        m_arr = buf
    return EncodedMatrix(backend.encrypt(m_arr), row_major_layout(rows, row_width, n))


def encode_transpose_extended(backend: SimdBackend, matrix, rows: int,
                              row_width: int) -> EncodedMatrix:
    """Encrypt an n x p matrix B for the right side of a product.

    Slot (r, j) = B[j][r % p] for j < n, zero pad beyond: the row-major
    encoding of B^T with its rows cycled, with p as its layout period.
    The p columns must all appear, so rows >= p is required.
    """
    b = real_array(matrix, "matrix", ndim=2)
    n, p = b.shape
    if n > row_width:
        raise ValueError(f"matrix height {n} exceeds row_width {row_width}")
    if p < 1:
        raise ValueError("matrix has no columns")
    if rows < p:
        raise ValueError(f"need rows >= {p} to cover every column, got {rows}")
    ct = encode_row_major(backend, b.T[np.arange(rows) % p], row_width).ct
    return EncodedMatrix(ct, transpose_extended_layout(rows, row_width, n, p))


def pack_image_batch(backend: SimdBackend, images, row_width: int) -> EncodedMatrix:
    """Encrypt a batch of m images of shape h x w, one image per row.

    Pixel values are taken as given (normalize before packing) and must
    be real and finite. Slots past h*w in each row are zero pad.
    """
    imgs = real_array(images, "images", ndim=3)
    require_finite(imgs, "images")
    m, h, w = imgs.shape
    require_image_fits(h * w, row_width)
    enc = encode_row_major(backend, imgs.reshape(m, h * w), row_width)
    return EncodedMatrix(enc.ct, grid_layout(m, row_width, h, w))


def require_image_fits(pixels: int, row_width: int):
    """Refuse an image of more pixels than one row of row_width slots holds."""
    if pixels > row_width:
        raise ValueError(f"image of {pixels} pixels exceeds row_width {row_width}")


def column_group_widths(p: int, rows: int) -> list[int]:
    """Power-of-two widths, each dividing `rows`, that p columns tile into.

    Whole groups of `rows` first, then the binary digits of p % rows:
    12 over 16 rows gives [8, 4].
    """
    p = require_integer(p, "output width p")
    rows = require_power_of_two(rows, "rows")
    whole, rest = divmod(max(p, 0), rows)
    return [rows] * whole + [1 << b for b in reversed(range(rest.bit_length()))
                             if rest >> b & 1]


def column_groups(p: int, rows: int) -> list[tuple[int, int]]:
    """(first column, width) of each group of column_group_widths(p, rows)."""
    widths = column_group_widths(p, rows)
    return list(zip(accumulate(widths, initial=0), widths))


def diagonal_slot_column(i, j, p: int, rows: int):
    """Column of C[i][j] in the diagonal layout, b + ((j - b - i) % w) for the
    group (b, w) of column_groups(p, rows) holding j; i, j may be arrays."""
    bases, widths = np.array(column_groups(p, rows)).T
    k = np.searchsorted(bases, j, side="right") - 1
    return bases[k] + (j - bases[k] - i) % widths[k]


def encode_diagonal_pattern(matrix, rows: int, row_width: int, p: int) -> np.ndarray:
    """Place an m x p matrix into the diagonal slot pattern (forward map).

    The independent oracle for decode_diagonal; it also builds the
    diagonal-layout inputs that compaction is tested on.
    """
    if not 1 <= p <= row_width:
        raise ValueError(f"output width p must be in 1..{row_width}, got {p}")
    c = real_array(matrix, "matrix", ndim=2)
    m, width = c.shape
    if width != p:
        raise ValueError(f"matrix width {width} != output width {p}")
    if m > rows:
        raise ValueError(f"matrix has {m} rows but layout only {rows}")
    buf = np.zeros((rows, row_width))
    i, j = np.ogrid[:m, :p]
    buf[i, diagonal_slot_column(i, j, p, rows)] = c
    return buf.reshape(-1)


def decode_diagonal(slot_values, m: int, row_width: int, p: int) -> np.ndarray:
    """Read an m x p matrix out of a diagonal-layout slot vector, tiled by its rows."""
    for name, n in (("row count m", m), ("row_width", row_width), ("output width p", p)):
        require_integer(n, name)
    if not 1 <= p <= row_width:
        raise ValueError(f"output width p must be in 1..{row_width}, got {p}")
    vals = real_array(slot_values, "slot values")
    if vals.size % row_width:
        raise ValueError(f"{vals.size} slot values are not whole rows of {row_width}")
    grid = vals.reshape(-1, row_width)
    if not 1 <= m <= grid.shape[0]:
        raise ValueError(f"row count m must be in 1..{grid.shape[0]}, got {m}")
    i, j = np.ogrid[:m, :p]
    return grid[i, diagonal_slot_column(i, j, p, grid.shape[0])]


def decrypt_rows(backend: SimdBackend, enc: EncodedMatrix) -> np.ndarray:
    """Decrypt and reshape to (rows, row_width)."""
    return backend.decrypt(enc.ct).reshape(enc.layout.rows, enc.layout.row_width)
