"""Homomorphic matrix product over row-packed encodings.

C = A * B with A encrypted row-major (m x n in rows of width f) and B
encrypted transpose-extended (row r = column r % w of a w-column group).
One iteration per output column: step s of the group starting at column
b advances B so row i faces group column (i + s) % w, multiplies
slot-wise, and sums each row into column 0 with a doubling ladder over
the n columns (B's pad slots are zero, so the product is zero past n,
whatever A holds there) and the column-0 mask. That sum lands at column
t = b + s of every row, so slot (i, t) holds C[i][b + (i + s) % w]: the
diagonal layout. Placing the p columns Horner-style from the last,
acc = rot(acc, -1) + x_t, costs the p - 1 rotations of moving each by -t
but needs one rotation key, not p - 1.

With G column blocks A_g, each facing the matching rows B_g, an
iteration adds the G products before the row sum: ladder and mask are
linear, so one serves every block (as in GAZELLE). B is encoded once per
group of column_group_widths(p, m), each encoding holding its group
width as layout period, which shift_rows reads: power-of-two widths that
divide m, so advancing a group is one rotation; one encoding, as in the
paper, when p is a power of two no wider than m.

Cost with G blocks, K groups and n the widest block: G*p mul, p cmul,
p*ceil(log2 n) + G*(p - K) + p - 1 rot, p*ceil(log2 n) + G*p - 1 add,
depth delta + delta_c on the data path.
"""

from __future__ import annotations

import numpy as np

from .backend import BackendParams, SimdBackend, SlotSimulator, real_array
from .encodings import (EncodedMatrix, column_group_widths, column_groups,
                        decode_diagonal, diagonal_layout, encode_row_major,
                        encode_transpose_extended, row_major_layout)
from .linalg import broadcast_row_sums, ceil_log2, reduce_add, shift_rows


def _branch(backend: SimdBackend, a_parts, encs, step: int):
    """Row sums of one step of a column group in column 0, summed over blocks.

    encs[g] is block g's encoding of the group; the products are added in
    block order.
    """
    m, f = a_parts[0].layout.rows, a_parts[0].layout.row_width
    prods = (backend.mul(a.ct, shift_rows(backend, enc, step).ct)
             for a, enc in zip(a_parts, encs))
    span = max(enc.layout.logical_width for enc in encs)
    total = EncodedMatrix(reduce_add(backend, prods), row_major_layout(m, f, span))
    return broadcast_row_sums(backend, total).ct


def he_matmul_partitioned(backend: SimdBackend, a_parts, b_blocks) -> EncodedMatrix:
    """Sum of per-block products, all placed in one diagonal(p) output.

    a_parts[g] is a row-major encoding of A's g-th column block; b_blocks[g]
    lists the transpose-extended encodings of the matching rows of B, one
    per group of column_group_widths(p, rows) in order, as
    split_weight_groups makes them. Each must share its A part's rows,
    row_width and logical width, and cycle its group's width. The output
    width p is the sum of block 0's group periods. With one block and one
    group this is the plain product.
    """
    a_parts = list(a_parts)
    b_blocks = list(b_blocks)
    if len(a_parts) != len(b_blocks):
        raise ValueError(f"{len(a_parts)} A parts vs {len(b_blocks)} B blocks")
    if not a_parts:
        raise ValueError("empty product")
    m, f = a_parts[0].layout.rows, a_parts[0].layout.row_width
    p = sum(e.layout.period or 0 for e in b_blocks[0])
    if not 0 < p <= f:
        raise ValueError(f"output width {p} must be in 1..{f}")
    widths = column_group_widths(p, m)
    for g, (a, encs) in enumerate(zip(a_parts, b_blocks)):
        if (a.layout.rows, a.layout.row_width) != (m, f):
            raise ValueError("A parts disagree on geometry")
        if len(encs) != len(widths):
            raise ValueError(f"each B block needs {len(widths)} column groups "
                             f"for p={p} over {m} rows")
        n = a.layout.logical_width
        for k, (e, w) in enumerate(zip(encs, widths)):
            if (e.layout.rows, e.layout.row_width, e.layout.logical_width) != (m, f, n):
                raise ValueError(f"B block {g} must match its A part: {m} rows, "
                                 f"row_width {f}, logical width {n}")
            if e.layout.period != w:
                raise ValueError(f"B block {g} group {k} cycles {e.layout.period} "
                                 f"columns, but the group is {w} wide")

    acc = None
    for k in reversed(range(len(widths))):
        for step in reversed(range(widths[k])):
            x = _branch(backend, a_parts, [encs[k] for encs in b_blocks], step)
            acc = x if acc is None else backend.add(backend.rot(acc, -1), x)
    return EncodedMatrix(acc, diagonal_layout(m, f, p))


def split_weight_groups(backend: SimdBackend, matrix, rows: int,
                        row_width: int) -> list[EncodedMatrix]:
    """Encode an n x p matrix once per group of column_group_widths(p, rows)."""
    b = real_array(matrix, "weight matrix", ndim=2)
    return [encode_transpose_extended(backend, b[:, base:base + width], rows,
                                      row_width)
            for base, width in column_groups(b.shape[1], rows)]


def multiply_matrices(a, b, row_width: int | None = None,
                      backend: SimdBackend | None = None) -> np.ndarray:
    """Encode, multiply homomorphically, decode. Oracle-checkable one-call form.

    Handles m < p by zero-row padding A up to the output width before
    encoding (rounded to a power of two); the top m rows of the decoded
    result are the product.
    """
    a, b = real_array(a, "A", ndim=2), real_array(b, "B", ndim=2)
    m, n = a.shape
    n2, p = b.shape
    if n != n2:
        raise ValueError(f"inner dimensions differ: {n} vs {n2}")
    rows = 1 << ceil_log2(max(m, p))
    f = 1 << ceil_log2(max(n, p)) if row_width is None else row_width
    if f < max(n, p):
        raise ValueError(f"row_width {f} too small for n={n}, p={p}")
    if backend is None:
        backend = SlotSimulator(BackendParams.for_slots(rows * f))
    if rows > m:
        a = np.vstack([a, np.zeros((rows - m, n))])
    enc_a = encode_row_major(backend, a, f)
    groups = split_weight_groups(backend, b, rows, f)
    out = he_matmul_partitioned(backend, [enc_a], [groups])
    return decode_diagonal(backend.decrypt(out.ct), rows, f, p)[:m]
