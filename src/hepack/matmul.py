"""Homomorphic matrix product over row-packed encodings.

C = A * B with A encrypted row-major (m x n in rows of width f) and B
encrypted transpose-extended (row r = column r % p of B). One iteration
per output column j: advance the B encoding so row i faces column
(i + step) % p, multiply slot-wise, broadcast row sums, and keep one slot
per row under a filter mask. The p filtered terms land on disjoint slots
and add up to the diagonal output layout.

Iteration cost: 1 shift_rows + 1 mul + 1 broadcast_row_sums + 1 cmul +
1 add, so a full product burns p*(delta + 2*delta_c) bits of rescale work
(plus p*2*delta_c more for the masked shift when p does not divide m).

When the output width p exceeds the row count m, no single encoding of B
covers every column; the partitioned form splits B's columns into groups
of at most m, cycles each group separately, and places every result
straight into the final period-p diagonal pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import BackendParams, SimdBackend, SlotSimulator
from .encodings import (EncodedMatrix, decode_diagonal, diagonal_layout,
                        encode_diagonal_pattern, encode_row_major,
                        encode_transpose_extended)
from .linalg import (broadcast_row_sums, make_group_filter, parallel_map,
                     reduce_add, shift_rows)


@dataclass(frozen=True)
class WeightGroup:
    """One column group of a right-hand matrix: columns base..base+width-1."""

    base: int
    width: int
    enc: EncodedMatrix


def _branch(backend: SimdBackend, a: EncodedMatrix, group: WeightGroup,
            step: int, p: int):
    m, f = a.layout.rows, a.layout.row_width
    faced = shift_rows(backend, group.enc, group.width, step)
    prod = EncodedMatrix(backend.mul(a.ct, faced.ct), a.layout)
    sums = broadcast_row_sums(backend, prod)
    return backend.cmul(sums.ct, make_group_filter(m, f, p, group.base,
                                                   group.width, step))


def he_matmul_partitioned(backend: SimdBackend, a_parts, b_blocks, p: int,
                          acc_init=None, threads: int = 1) -> EncodedMatrix:
    """Sum of per-block products, all placed in one diagonal(p) output.

    a_parts[g] is a row-major encoding of A's g-th column block; b_blocks[g]
    is the list of WeightGroup encoding the matching rows of B, as
    split_weight_groups makes it (one group unless p > rows). With one
    block and one group this is the plain product.
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
    for a in a_parts:
        if (a.layout.rows, a.layout.row_width) != (m, f):
            raise ValueError("A parts disagree on geometry")
    for groups in b_blocks:
        covered = sorted((g.base, g.base + g.width) for g in groups)
        if covered[0][0] != 0 or covered[-1][1] != p or any(
                covered[i][1] != covered[i + 1][0] for i in range(len(covered) - 1)):
            raise ValueError("column groups must tile 0..p exactly")

    if acc_init is None:
        acc = backend.encrypt(np.zeros(backend.params.slots))
    else:
        acc = backend.encrypt(encode_diagonal_pattern(acc_init, m, f, p))

    jobs = [(a_parts[g], grp, step)
            for g in range(len(a_parts))
            for grp in b_blocks[g]
            for step in range(grp.width)]
    branches = parallel_map(lambda j: _branch(backend, j[0], j[1], j[2], p),
                            jobs, threads)
    out = reduce_add(backend, [acc] + branches)
    return EncodedMatrix(out, diagonal_layout(m, f, p))


def he_matmul(backend: SimdBackend, a: EncodedMatrix, b: EncodedMatrix, p: int,
              acc_init=None, threads: int = 1) -> EncodedMatrix:
    """Product against a single transpose-extended encoding; needs rows >= p.

    For a wider output either pad A with zero rows before encoding or use
    he_matmul_partitioned with column groups.
    """
    if p > a.layout.rows:
        raise ValueError(
            f"output width {p} exceeds {a.layout.rows} rows; pad A or split columns")
    return he_matmul_partitioned(backend, [a], [[WeightGroup(0, p, b)]], p,
                                 acc_init, threads)


def column_group_widths(p: int, rows: int) -> list[int]:
    """Widths of the column groups that p output columns split into."""
    return [min(rows, p - base) for base in range(0, p, rows)]


def split_weight_groups(backend: SimdBackend, matrix, rows: int,
                        row_width: int) -> list[WeightGroup]:
    """Encode an n x p matrix as column groups of at most `rows` columns."""
    b = np.asarray(matrix, dtype=np.float64)
    _, p = b.shape
    groups, base = [], 0
    for width in column_group_widths(p, rows):
        enc = encode_transpose_extended(backend, b[:, base:base + width],
                                        rows, row_width)
        groups.append(WeightGroup(base, width, enc))
        base += width
    return groups


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def multiply_matrices(a, b, row_width: int | None = None,
                      backend: SimdBackend | None = None, acc_init=None,
                      threads: int = 1) -> np.ndarray:
    """Encode, multiply homomorphically, decode. Oracle-checkable one-call form.

    Handles m < p by zero-row padding A up to the output width before
    encoding (rounded to a power of two); the top m rows of the decoded
    result are the product.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = a.shape
    n2, p = b.shape
    if n != n2:
        raise ValueError(f"inner dimensions differ: {n} vs {n2}")
    rows = _next_pow2(max(m, p))
    f = row_width or _next_pow2(max(n, p))
    if f < max(n, p):
        raise ValueError(f"row_width {f} too small for n={n}, p={p}")
    if backend is None:
        backend = SlotSimulator(BackendParams.for_slots(rows * f))
    if rows > m:
        a = np.vstack([a, np.zeros((rows - m, n))])
    enc_a = encode_row_major(backend, a, f)
    enc_b = encode_transpose_extended(backend, b, rows, f)
    out = he_matmul(backend, enc_a, enc_b, p, acc_init, threads)
    return decode_diagonal(backend.decrypt(out.ct), rows, f, p)[:m]
