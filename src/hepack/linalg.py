"""Rotation/mask primitives over row-packed ciphertexts.

All helpers take the backend first and an EncodedMatrix, and return one,
the input itself where a step is free. Costs per call (asserted by tests):

shift_rows            1 rot; step 0 free
broadcast_row_sums    ceil(log2 n) rot and add + 1 cmul, n the logical width
window_sums           2*(k-1) rot + 2*(k-1) add + 1 cmul
rotate_within_rows    2 rot + 2 cmul + 1 add; amount 0 free
compact_columns       (2W - 1) cmul + 2(W - 1) rot + 2(W - 1) add, W the
                      widest of column_group_widths(p, rows)

Filter masks are built once per shape, cached, and handed out as
Plaintexts, so cmul never checks them again: the valid-region mask as one
row, the band and unskew masks at full width.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np

from .backend import CipherVec, Plaintext, SimdBackend
from .encodings import (EncodedMatrix, LayoutKind, MatrixLayout, diagonal_slot_column,
                        row_major_layout)


# ---------------------------------------------------------------- masks

@lru_cache(maxsize=None)
def make_valid_region_mask(grid: MatrixLayout, k: int) -> Plaintext:
    """One row: 1 at every anchor of an image grid where a k x k window fits, else 0."""
    h, w = grid.grid_h, grid.grid_w
    row = np.zeros(grid.row_width)
    for a in range(h - k + 1):
        row[a * w: a * w + (w - k + 1)] = 1.0
    return Plaintext(row)


@lru_cache(maxsize=None)
def make_col_band_mask(rows: int, row_width: int, c0: int, c1: int) -> Plaintext:
    """1 on columns c0..c1-1 of every row."""
    buf = np.zeros((rows, row_width))
    buf[:, c0:c1] = 1.0
    return Plaintext(buf)


@lru_cache(maxsize=None)
def make_unskew_masks(rows: int, row_width: int, p: int) -> tuple:
    """(rotation, mask) pairs that un-skew a diagonal layout, one per amount, ascending.

    Row i holds C[i][j] at column diagonal_slot_column(i, j), so a rotation
    by that column minus j brings it home to column j. The mask of an
    amount keeps the slots (i, j) it brings home; columns past p keep none.
    """
    i, j = np.ogrid[:rows, :p]
    amounts = diagonal_slot_column(i, j, p, rows) - j
    pad = ((0, 0), (0, row_width - p))
    return tuple((int(a), Plaintext(np.pad(amounts == a, pad))) for a in np.unique(amounts))


# ----------------------------------------------------------- primitives

def ceil_log2(n: int) -> int:
    """Doubling steps needed to span n columns."""
    return (n - 1).bit_length()


def shift_rows(backend: SimdBackend, enc: EncodedMatrix, step: int) -> EncodedMatrix:
    """Advance a transpose-extended encoding by `step` columns.

    Input row r holds column (r % period) of the source matrix, period
    read from enc.layout; output row r holds column ((r + step) % period).
    The period must divide the row count, so one row rotation is exact.
    """
    m, f, period = enc.layout.rows, enc.layout.row_width, enc.layout.period
    if not period or m % period:
        raise ValueError(f"period must divide the {m} rows, got {period}")
    if not 0 <= step < period:
        raise ValueError(f"step must be in 0..{period - 1}, got {step}")
    if step == 0:
        return enc
    return EncodedMatrix(backend.rot(enc.ct, step * f), enc.layout)


def broadcast_row_sums(backend: SimdBackend, enc: EncodedMatrix) -> EncodedMatrix:
    """Put the sum of row i in column 0 of row i, and zero everywhere else.

    Rotate-and-add doubling over the layout's logical width puts the
    exact row total in column 0 of each row, so the slots past that width
    must be zero; the other columns pick up wrapped garbage, which the
    column-0 mask cuts. MatrixLayout holds row_width to a power of two,
    so the ladder stays inside the row. It keeps its name, although it
    no longer broadcasts, because perfbench/tracer.py traces it by name
    and tests/test_perfbench_names.py requires every traced name.
    """
    m, f = enc.layout.rows, enc.layout.row_width
    acc = enc.ct
    for t in range(ceil_log2(enc.layout.logical_width)):
        acc = backend.add(acc, backend.rot(acc, 1 << t))
    acc = backend.cmul(acc, make_col_band_mask(m, f, 0, 1))
    return EncodedMatrix(acc, row_major_layout(m, f, 1))


def window_sums(backend: SimdBackend, enc: EncodedMatrix, k: int) -> EncodedMatrix:
    """k x k window sums over each image, kept at valid anchors only.

    After k-1 single-slot rotations (horizontal) and k-1 row-stride
    rotations (vertical), slot (a, b) holds the sum of the window anchored
    there; anchors whose window would cross the grid edge picked up
    neighbours' values and are zeroed by the valid-region mask.
    """
    lay = enc.layout
    if lay.kind is not LayoutKind.IMAGE_GRID:
        raise ValueError("window_sums needs an image-grid layout")
    h, w = lay.grid_h, lay.grid_w
    if not 1 <= k <= min(h, w):
        raise ValueError(f"window {k} does not fit a {h}x{w} grid")
    acc = enc.ct
    spun = enc.ct
    for _ in range(k - 1):
        spun = backend.rot(spun, 1)
        acc = backend.add(acc, spun)
    spun = acc
    for _ in range(k - 1):
        spun = backend.rot(spun, w)
        acc = backend.add(acc, spun)
    acc = backend.cmul(acc, make_valid_region_mask(lay, k))
    return EncodedMatrix(acc, lay)


def rotate_within_rows(backend: SimdBackend, enc: EncodedMatrix,
                       amount: int) -> EncodedMatrix:
    """Cyclic left rotation by `amount` inside each row's logical window.

    For amount > 0 the pad slots come out zero, whatever the input held
    there; amount 0 is free and returns the input as it is, pad slots
    included. Two real rotations: one brings the unwrapped
    part into place, one brings the wrapped head to the window tail; band
    masks cut each to its columns.
    """
    window = enc.layout.logical_width
    m, f = enc.layout.rows, enc.layout.row_width
    if not 0 <= amount < window:
        raise ValueError(f"amount must be in 0..{window - 1}, got {amount}")
    if amount == 0:
        return enc
    body = backend.cmul(backend.rot(enc.ct, amount),
                        make_col_band_mask(m, f, 0, window - amount))
    wrap = backend.cmul(backend.rot(enc.ct, amount - window),
                        make_col_band_mask(m, f, window - amount, window))
    return EncodedMatrix(backend.add(body, wrap), enc.layout)


def compact_columns(backend: SimdBackend, enc: EncodedMatrix) -> EncodedMatrix:
    """Un-skew a diagonal layout into row-major columns 0..p-1 (its logical width).

    One rotation per amount in make_unskew_masks, each cut by its mask;
    amounts shared by groups of equal width rotate once.
    """
    lay = enc.layout
    if lay.kind is not LayoutKind.DIAGONAL:
        raise ValueError("compact_columns needs a diagonal layout")
    m, f, p = lay.rows, lay.row_width, lay.logical_width
    pieces = (backend.cmul(backend.rot(enc.ct, amount) if amount else enc.ct, mask)
              for amount, mask in make_unskew_masks(m, f, p))
    return EncodedMatrix(reduce_add(backend, pieces), row_major_layout(m, f, p))


# ----------------------------------------------------- reduce / schedule

def reduce_add(backend: SimdBackend, cts: Iterable[CipherVec]) -> CipherVec:
    """Sum any iterable of ciphertexts left to right, as it is read.

    n - 1 adds with one partial sum alive; one input comes back as it is.
    Adds cost no budget, so the order of the sum costs nothing.
    """
    it = iter(cts)
    total = next(it, None)
    if total is None:
        raise ValueError("nothing to add")
    for ct in it:
        total = backend.add(total, ct)
    return total
