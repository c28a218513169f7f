"""Valid convolution, from the paper's kernel spans to shared image taps.

The paper stretches the kernel into k*k full-grid plaintexts; each span
tiles the kernel across the image starting from a different offset, and
image * span followed by k x k window sums puts correct outputs at that
span's anchors. The library computes the same sum by image taps: k*k - 1
rotations of the image, shared by every kernel of a layer, each scaled
by one kernel weight and summed; only the valid anchors are read.
"""

import numpy as np

from hepack import (BackendParams, SlotSimulator, convolve_images, he_conv,
                    pack_image_batch, span_kernel, window_sums)

np.set_printoptions(precision=2, suppress=True)

h = w = 4
k = 2
kernel = np.array([[1.0, 2.0], [3.0, 4.0]])
plan = span_kernel(kernel, 0.0, h, w, rows=1, row_width=16)
for di, dj, span in plan.spans:
    print(f"span ({di},{dj}):\n{span[:16].reshape(4, 4)}")

rng = np.random.default_rng(0)
images = rng.normal(size=(4, 6, 6))
kern = rng.normal(size=(3, 3))

got = convolve_images(images, kern, bias=0.1)
ref = np.zeros((4, 4, 4)) + 0.1
for u in range(3):
    for v in range(3):
        ref += kern[u, v] * images[:, u:u + 4, v:v + 4]
print("\n3x3 kernel over a 6x6 batch of 4: max |err| =",
      np.abs(got - ref).max())

# Window sums alone: every valid anchor collects its k x k block.
backend = SlotSimulator(BackendParams.for_slots(4 * 64))
packed = pack_image_batch(backend, images, 64)
sums = window_sums(backend, packed, 3)
first = backend.decrypt(sums.ct)[:36].reshape(6, 6)
print("\nwindow sums of image 0 (invalid anchors zeroed):\n", first)

# Budget comparison: plaintext kernels cost one plaintext product on the
# data path (each tap times its scalar weight); encrypted kernels mul each
# tap by an encrypted weight and then mask the sum, a full product and a
# mask product.
plan6 = span_kernel(kern, 0.0, 6, 6, 4, 64)
plain = he_conv(backend, packed, plan6)
enc = he_conv(backend, packed, plan6, encrypted_kernels=True)
print(f"\nbudget after plaintext kernels: {plain.ct.budget_bits}"
      f" (burned {1200 - plain.ct.budget_bits})")
print(f"budget after encrypted kernels: {enc.ct.budget_bits}"
      f" (burned {1200 - enc.ct.budget_bits})")
