"""Rotation/mask primitives over row-packed ciphertexts.

All helpers take the backend first and an EncodedMatrix, and return a new
EncodedMatrix. Costs per call (asserted by the test suite):

shift_rows            1 rot (fast path), or 2 rot + 2 cmul + 1 add; step 0 free
broadcast_row_sums    (ceil(log2 n) + ceil(log2 reach)) rot and add + 1 cmul,
                      n the logical width, reach f unless given
window_sums           2*(k-1) rot + 2*(k-1) add + 1 cmul
rotate_within_rows    2 rot + 2 cmul + 1 add; amount 0 free
compact_columns       f/p cmul + (f/p - 1) rot + (f/p - 1) add

Filter masks are built once per shape, cached, and read-only.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache

import numpy as np

from .backend import CipherVec, SimdBackend
from .encodings import (EncodedMatrix, LayoutKind, MatrixLayout,
                        diagonal_slot_column, row_major_layout)


# ---------------------------------------------------------------- masks

def _frozen(buf: np.ndarray) -> np.ndarray:
    flat = buf.reshape(-1)
    flat.flags.writeable = False
    return flat


@lru_cache(maxsize=None)
def make_group_filter(rows: int, row_width: int, period: int, base: int,
                      width: int, step: int) -> np.ndarray:
    """Filter for a column group of a split product.

    Row i's value this iteration belongs to output column
    j = base + ((i + step) % width); it is placed at the diagonal-layout
    column for (i, j) under the full period. With base 0 and
    width == period this is 1 at (i, (i + step) % row_width).
    """
    buf = np.zeros((rows, row_width))
    for i in range(rows):
        j = base + ((i + step) % width)
        buf[i, diagonal_slot_column(i, j, period, row_width)] = 1.0
    return _frozen(buf)


@lru_cache(maxsize=None)
def make_valid_region_mask(grid: MatrixLayout, k: int) -> np.ndarray:
    """1 at every anchor of an image-grid layout where a k x k window fits, else 0."""
    h, w = grid.grid_h, grid.grid_w
    buf = np.zeros((grid.rows, grid.row_width))
    for a in range(h - k + 1):
        buf[:, a * w: a * w + (w - k + 1)] = 1.0
    return _frozen(buf)


@lru_cache(maxsize=None)
def make_row_band_mask(rows: int, row_width: int, r0: int, r1: int) -> np.ndarray:
    """1 on whole rows r0..r1-1."""
    buf = np.zeros((rows, row_width))
    buf[r0:r1, :] = 1.0
    return _frozen(buf)


@lru_cache(maxsize=None)
def make_col_band_mask(rows: int, row_width: int, c0: int, c1: int) -> np.ndarray:
    """1 on columns c0..c1-1 of every row."""
    buf = np.zeros((rows, row_width))
    buf[:, c0:c1] = 1.0
    return _frozen(buf)


# ----------------------------------------------------------- primitives

def ceil_log2(n: int) -> int:
    """Doubling steps needed to span n columns."""
    return (n - 1).bit_length()


def shift_rows(backend: SimdBackend, enc: EncodedMatrix, period: int,
               step: int) -> EncodedMatrix:
    """Advance a transpose-extended encoding by `step` columns.

    Input row r holds column (r % period) of the source matrix; output
    row r holds column ((r + step) % period). When period divides the row
    count a single row rotation is exact; otherwise the wrapped tail rows
    are patched from one extra rotation under band masks.
    """
    m, f = enc.layout.rows, enc.layout.row_width
    if not 0 < period <= m:
        raise ValueError(f"period must be in 1..{m}, got {period}")
    if not 0 <= step < period:
        raise ValueError(f"step must be in 0..{period - 1}, got {step}")
    if step == 0:
        return EncodedMatrix(enc.ct, enc.layout)
    if m % period == 0:
        return EncodedMatrix(backend.rot(enc.ct, step * f), enc.layout)
    head = backend.cmul(backend.rot(enc.ct, step * f),
                        make_row_band_mask(m, f, 0, m - step))
    tail = backend.cmul(backend.rot(enc.ct, (step - period) * f),
                        make_row_band_mask(m, f, m - step, m))
    return EncodedMatrix(backend.add(head, tail), enc.layout)


def broadcast_row_sums(backend: SimdBackend, enc: EncodedMatrix,
                       reach: int | None = None) -> EncodedMatrix:
    """Fill columns 0..reach-1 of row i with the sum of row i.

    Rotate-and-add doubling over the layout's logical width puts the
    exact row total in column 0 of each row, so the slots past that width
    must be zero; columns past 0 pick up wrapped garbage. Column 0 is
    masked out and broadcast back by a reverse doubling ladder that
    reaches `reach` columns (default: the whole row); columns past its
    last step stay zero. MatrixLayout holds row_width to a power of two,
    so the ladder's 2^ceil_log2(reach) columns stay inside the row.
    """
    m, f = enc.layout.rows, enc.layout.row_width
    reach = f if reach is None else reach
    if not 0 < reach <= f:
        raise ValueError(f"reach must be in 1..{f}, got {reach}")
    acc = enc.ct
    for t in range(ceil_log2(enc.layout.logical_width)):
        acc = backend.add(acc, backend.rot(acc, 1 << t))
    acc = backend.cmul(acc, make_col_band_mask(m, f, 0, 1))
    for t in range(ceil_log2(reach)):
        acc = backend.add(acc, backend.rot(acc, -(1 << t)))
    return EncodedMatrix(acc, row_major_layout(m, f, reach))


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
        return EncodedMatrix(enc.ct, enc.layout)
    body = backend.cmul(backend.rot(enc.ct, amount),
                        make_col_band_mask(m, f, 0, window - amount))
    wrap = backend.cmul(backend.rot(enc.ct, amount - window),
                        make_col_band_mask(m, f, window - amount, window))
    return EncodedMatrix(backend.add(body, wrap), enc.layout)


def compact_columns(backend: SimdBackend, enc: EncodedMatrix) -> EncodedMatrix:
    """Fold a diagonal layout into row-major columns 0..p-1.

    Each width-p column band is masked out and rotated left to the row
    head; the diagonal placement guarantees column c carries output
    column c % p, so the folded bands interleave without collision.
    """
    lay = enc.layout
    if lay.kind is not LayoutKind.DIAGONAL:
        raise ValueError("compact_columns needs a diagonal layout")
    p, f = lay.period, lay.row_width
    if f % p:
        raise ValueError(f"period {p} must divide row_width {f}")
    bands = (backend.cmul(enc.ct, make_col_band_mask(lay.rows, f, t * p, (t + 1) * p))
             for t in range(f // p))
    pieces = (backend.rot(band, t * p) if t else band for t, band in enumerate(bands))
    return EncodedMatrix(reduce_add(backend, pieces), row_major_layout(lay.rows, f, p))


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
