"""Row-packed homomorphic matrix kernels and CNN inference.

A batch of matrices or images is packed row-per-row into the slots of a
simulated SIMD ciphertext; matrix products, valid convolutions and a full
conv/act/fc/act/fc inference pipeline run on top of six backend
operations (encrypt, decrypt, add, mul, cmul, rot) with exact modulus
budget accounting.
"""

from .backend import (BackendParams, CapacityError, CipherVec,
                      DepthExhaustedError, ModulusLedger, Plaintext,
                      SimdBackend, SlotSimulator)
from .bench import predict_depth_bits, predict_layer_costs, predict_op_counts
from .conv import KernelPlan, conv_layer, convolve_images, he_conv, span_kernel
from .encodings import (EncodedMatrix, LayoutKind, MatrixLayout,
                        column_group_widths, decode_diagonal, decrypt_rows,
                        diagonal_layout, diagonal_slot_column,
                        encode_diagonal_pattern, encode_row_major,
                        encode_transpose_extended, grid_layout,
                        pack_image_batch, row_major_layout, transpose_extended_layout)
from .linalg import (broadcast_row_sums, compact_columns, reduce_add,
                     rotate_within_rows, shift_rows, window_sums)
from .matmul import he_matmul_partitioned, multiply_matrices, split_weight_groups
from .mnist import (image_blocks, load_idx_images, load_idx_labels, load_mnist,
                    write_idx_images, write_idx_labels)
from .network import (ActSpec, ConvSpec, FcPlan, FcSpec, InferenceResult,
                      LayerCost, NetworkSpec, STOCK_ACT1, STOCK_ACT2,
                      apply_activation, eval_poly, fc_layer, infer, infer_images,
                      plan_fc, random_network, reduced_geometry, reference_infer,
                      spread_to_grid, stock_geometry)
from .verify import CheckResult, run_all
from .weights_io import WeightsParseError, load_weights_csv, save_weights_csv

__version__ = "0.1.0"
