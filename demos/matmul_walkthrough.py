"""One homomorphic matrix product, slot patterns printed at every stage.

A (m x n) sits row-major, one matrix row per ciphertext row. B (n x p) is
encoded "transposed and extended": ciphertext row r carries column r % p
of B. Each iteration advances the B encoding one column, multiplies
slot-wise, and sums every row into its column 0. Step s then lands in
column s of every row, so row i holds C[i][(i + s) % p] there: the
output is skewed row by row, and un-skews to row-major columns 0..p-1.
"""

import numpy as np

from hepack import (BackendParams, EncodedMatrix, SlotSimulator,
                    broadcast_row_sums, compact_columns, decode_diagonal,
                    decrypt_rows, encode_row_major, encode_transpose_extended,
                    he_matmul_partitioned, shift_rows)

np.set_printoptions(precision=1, suppress=True)

m, n, p, f = 4, 3, 2, 4
backend = SlotSimulator(BackendParams.for_slots(m * f))
a = np.array([[1.0, 2.0, 0.0],
              [0.0, 1.0, 1.0],
              [2.0, 0.0, 1.0],
              [1.0, 1.0, 1.0]])
b = np.array([[1.0, 2.0],
              [0.0, 1.0],
              [3.0, 0.0]])
print("A @ B =\n", a @ b)

enc_a = encode_row_major(backend, a, f)
enc_b = encode_transpose_extended(backend, b, m, f)
print("\nA rows in slots:\n", decrypt_rows(backend, enc_a))
print("B columns cycling down the rows:\n", decrypt_rows(backend, enc_b))

print("\nstep 1: advance B by one column (a single row-stride rotation here)")
print(decrypt_rows(backend, shift_rows(backend, enc_b, p, 1)))

print("\nrow sums of A*B(step 0), in column 0 of each row:")
prod = backend.mul(enc_a.ct, enc_b.ct)
sums = broadcast_row_sums(backend, EncodedMatrix(prod, enc_a.layout))
print(decrypt_rows(backend, sums))

out = he_matmul_partitioned(backend, [enc_a], [[enc_b]], p)
print("\nskewed output after all steps (column s holds C[i][(i + s) % p]):")
print(decrypt_rows(backend, out))
print("decoded:\n", decode_diagonal(backend.decrypt(out.ct), m, f, p))

flat = compact_columns(backend, out)
print("\nun-skewed to row-major:\n", decrypt_rows(backend, flat))
print("ledger:", backend.ledger.snapshot())
