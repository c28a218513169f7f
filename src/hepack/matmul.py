"""Homomorphic matrix product over row-packed encodings.

C = A * B with A encrypted row-major (m x n in rows of width f) and B
encrypted transpose-extended (row r = column r % p of B). One iteration
per output column step: advance the B encoding so row i faces column
(i + step) % p, multiply slot-wise, broadcast row sums, and keep one slot
per row under a filter mask. The p filtered terms land on disjoint slots
and add up to the diagonal output layout.

When A arrives as G column blocks A_g, each facing the matching rows B_g,
an iteration adds the G slot-wise products before the row sums: the
filter does not depend on the block and the row-sum ladder is linear, so
one ladder and one filter serve every block ("accumulate before you
rotate", as in GAZELLE). The ladder is trimmed to the slots in use: its
doubling half spans the n columns of B's encoding (B's pad slots are
zero, so the product is zero past n, whatever A holds there), and its
broadcast half only reaches the widest diagonal column, m + p - 2.

B is encoded once per group of column_group_widths(p, m): power-of-two
widths that divide m, so advancing a group is one rotation. The tiling
depends on (p, m) alone, so a B block is its list of group encodings;
one encoding, as in the paper, when p is a power of two no wider than m.

Cost with G blocks and K groups, u = ceil(log2 n) + ceil(log2 min(f, m+p-1)):
G*p mul, 2p cmul, p*u + G*(p - K) rot, p*u + G*p - 1 add, depth
delta + 2*delta_c on the data path.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .backend import BackendParams, SimdBackend, SlotSimulator
from .encodings import (EncodedMatrix, decode_diagonal, diagonal_layout,
                        encode_row_major, encode_transpose_extended,
                        row_major_layout)
from .linalg import (broadcast_row_sums, ceil_log2, make_group_filter,
                     reduce_add, shift_rows)


def _branch(backend: SimdBackend, a_parts, encs, base: int, width: int,
            step: int, p: int):
    """One step of the column group base..base+width-1, summed over blocks.

    encs[g] is block g's encoding of the group; the products are added in
    block order.
    """
    m, f = a_parts[0].layout.rows, a_parts[0].layout.row_width
    prods = (backend.mul(a.ct, shift_rows(backend, enc, width, step).ct)
             for a, enc in zip(a_parts, encs))
    span = max(enc.layout.logical_width for enc in encs)
    total = EncodedMatrix(reduce_add(backend, prods),
                          row_major_layout(m, f, span))
    sums = broadcast_row_sums(backend, total, min(f, m + p - 1))
    return backend.cmul(sums.ct, make_group_filter(m, f, p, base, width, step))


def he_matmul_partitioned(backend: SimdBackend, a_parts, b_blocks,
                          p: int) -> EncodedMatrix:
    """Sum of per-block products, all placed in one diagonal(p) output.

    a_parts[g] is a row-major encoding of A's g-th column block; b_blocks[g]
    lists the transpose-extended encodings of the matching rows of B, one
    per group of column_group_widths(p, rows), as split_weight_groups makes
    them. Each must share its A part's rows, row_width and logical width.
    With one block and one group this is the plain product.
    """
    a_parts = list(a_parts)
    b_blocks = list(b_blocks)
    if len(a_parts) != len(b_blocks):
        raise ValueError(f"{len(a_parts)} A parts vs {len(b_blocks)} B blocks")
    if not a_parts:
        raise ValueError("empty product")
    m, f = a_parts[0].layout.rows, a_parts[0].layout.row_width
    if not 0 < p <= f:
        raise ValueError(f"output width {p} must be in 1..{f}")
    groups = _column_groups(p, m)
    for g, (a, encs) in enumerate(zip(a_parts, b_blocks)):
        if (a.layout.rows, a.layout.row_width) != (m, f):
            raise ValueError("A parts disagree on geometry")
        if len(encs) != len(groups):
            raise ValueError(f"each B block needs {len(groups)} column groups "
                             f"for p={p} over {m} rows")
        n = a.layout.logical_width
        if any((e.layout.rows, e.layout.row_width, e.layout.logical_width)
               != (m, f, n) for e in encs):
            raise ValueError(f"B block {g} must match its A part: {m} rows, "
                             f"row_width {f}, logical width {n}")

    branches = (_branch(backend, a_parts, [encs[k] for encs in b_blocks],
                        base, width, step, p)
                for k, (base, width) in enumerate(groups)
                for step in range(width))
    return EncodedMatrix(reduce_add(backend, branches), diagonal_layout(m, f, p))


def column_group_widths(p: int, rows: int) -> list[int]:
    """Power-of-two widths, each dividing `rows`, that p columns tile into.

    Whole groups of `rows` first, then the binary digits of p % rows:
    12 over 16 rows gives [8, 4].
    """
    if rows < 1 or rows & (rows - 1):
        raise ValueError(f"rows must be a power of two, got {rows}")
    whole, rest = divmod(max(p, 0), rows)
    return [rows] * whole + [1 << b for b in reversed(range(rest.bit_length()))
                             if rest >> b & 1]


def _column_groups(p: int, rows: int) -> list[tuple[int, int]]:
    """(first column, width) of each group of column_group_widths(p, rows)."""
    widths = column_group_widths(p, rows)
    return list(zip(accumulate(widths, initial=0), widths))


def split_weight_groups(backend: SimdBackend, matrix, rows: int,
                        row_width: int) -> list[EncodedMatrix]:
    """Encode an n x p matrix once per group of column_group_widths(p, rows)."""
    b = np.asarray(matrix, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError(f"weight matrix must be 2-D, got shape {b.shape}")
    return [encode_transpose_extended(backend, b[:, base:base + width], rows,
                                      row_width)
            for base, width in _column_groups(b.shape[1], rows)]


def multiply_matrices(a, b, row_width: int | None = None,
                      backend: SimdBackend | None = None) -> np.ndarray:
    """Encode, multiply homomorphically, decode. Oracle-checkable one-call form.

    Handles m < p by zero-row padding A up to the output width before
    encoding (rounded to a power of two); the top m rows of the decoded
    result are the product.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    for name, x in (("A", a), ("B", b)):
        if x.ndim != 2:
            raise ValueError(f"{name} must be 2-D, got shape {x.shape}")
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
    out = he_matmul_partitioned(backend, [enc_a], [groups], p)
    return decode_diagonal(backend.decrypt(out.ct), rows, f, p)[:m]
