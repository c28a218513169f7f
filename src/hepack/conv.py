"""Homomorphic valid convolution over packed image batches.

Output (a, b) is the sum over taps (u, v) of kern[u, v] * image[a+u, b+v].
In the image-grid layout tap (u, v) is the batch ciphertext rotated by
u*w + v. The taps do not depend on the kernel, so a layer rotates the
image k*k - 1 times and every kernel reuses them (rotation sharing, as in
Halevi-Shoup hoisting). A plaintext kernel cmuls each tap by its scalar
weight w_uv (k*k cmul at depth delta_c), then adds its scalar bias. An
encrypted kernel muls each tap by the one-value ciphertext of w_uv, adds
the bias, and cmuls the sum once by the valid-region mask (delta + delta_c).
Only valid anchors are specified: a plaintext kernel leaves partial sums
elsewhere, which fc-1's zero weights drop. The encrypted mask stays only
because without it perfbench's conv-bank would declare 0 cmul per call.

`KernelPlan.spans` still shows the paper's k*k tiled span plaintexts;
nothing on the data path reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import (BackendParams, SimdBackend, SlotSimulator, real_array,
                      require_finite)
from .encodings import (EncodedMatrix, LayoutKind, MatrixLayout, decrypt_rows,
                        grid_layout, pack_image_batch)
from .linalg import ceil_log2, make_valid_region_mask, reduce_add


@dataclass(frozen=True, eq=False)
class KernelPlan:
    """One kernel, its scalar bias and the image-grid layout of its batch.

    Plans compare and hash by identity: the kernel array has no single
    truth value, so field-wise equality could only raise.
    """

    kernel: np.ndarray  # (k, k), read-only
    bias: float
    layout: MatrixLayout

    @property
    def k(self) -> int:
        return self.kernel.shape[0]

    @property
    def spans(self) -> tuple:
        """The k*k span plaintexts as (di, dj, slot vector), built on read.

        Span (di, dj) tiles the kernel across the grid with its first tile
        anchored at (di, dj); cells outside complete tiles are zero.
        """
        k, h, w = self.k, self.layout.grid_h, self.layout.grid_w
        spans = []
        for di in range(k):
            for dj in range(k):
                grid = np.zeros((h, w))
                for a in range(di, h - k + 1, k):
                    for b in range(dj, w - k + 1, k):
                        grid[a:a + k, b:b + k] = self.kernel
                row = np.zeros(self.layout.row_width)
                row[: h * w] = grid.reshape(-1)
                span = np.tile(row, self.layout.rows)
                span.flags.writeable = False
                spans.append((di, dj, span))
        return tuple(spans)


def span_kernel(kernel, bias: float, h: int, w: int, rows: int,
                row_width: int) -> KernelPlan:
    """Validate one kernel and plan it for grid_layout(rows, row_width, h, w)."""
    kern = real_array(kernel, "conv kernel", ndim=2).copy()  # owned, as it is made read-only
    if kern.shape[0] != kern.shape[1]:
        raise ValueError(f"conv kernel must be square, got shape {kern.shape}")
    k = kern.shape[0]
    if not 1 <= k <= min(h, w):
        raise ValueError(f"kernel {k} does not fit a {h}x{w} grid")
    layout = grid_layout(rows, row_width, h, w)
    require_finite(kern, "conv kernel")
    if np.ndim(bias) != 0:
        raise ValueError(f"conv bias must be a scalar, got shape {np.shape(bias)}")
    require_finite(bias, "conv bias")
    kern.flags.writeable = False
    return KernelPlan(kern, float(bias), layout)


def conv_layer(backend: SimdBackend, image: EncodedMatrix, plans,
               encrypted_kernels: bool = False) -> list[EncodedMatrix]:
    """Apply every kernel plan to the same batch, one output per channel.

    Plans hold the batch's layout and outputs keep it: anchor (a, b) sits at
    grid slot a*w + b for a <= h-k, b <= w-k. Every other slot is
    unspecified: partial sums with plaintext kernels, zero with encrypted
    kernels while their mask stays (see the module docstring).
    Tap products are made one at a time and streamed into reduce_add.
    """
    plans = list(plans)
    lay = image.layout
    if lay.kind is not LayoutKind.IMAGE_GRID:
        raise ValueError("conv_layer needs an image-grid layout")
    if not plans:
        raise ValueError("conv_layer needs at least one kernel plan")
    if any(plan.layout != lay for plan in plans):
        raise ValueError("plan geometry does not match the packed batch")
    sizes = sorted({plan.k for plan in plans})
    if len(sizes) > 1:
        raise ValueError(f"kernel plans mix sizes {sizes}; shared taps need one k")
    k, w = sizes[0], lay.grid_w
    taps = [image.ct if u == v == 0 else backend.rot(image.ct, u * w + v)
            for u in range(k) for v in range(k)]

    def per_kernel(plan):
        weights = plan.kernel.reshape(-1)
        if encrypted_kernels:
            prods = (backend.mul(tap, backend.encrypt(wt)) for tap, wt in zip(taps, weights))
            summed = backend.add(reduce_add(backend, prods), plan.bias)
            return EncodedMatrix(backend.cmul(summed, make_valid_region_mask(lay, k)), lay)
        summed = reduce_add(backend, map(backend.cmul, taps, weights))
        return EncodedMatrix(backend.add(summed, plan.bias), lay)

    return [per_kernel(plan) for plan in plans]


def he_conv(backend: SimdBackend, image: EncodedMatrix, plan: KernelPlan,
            encrypted_kernels: bool = False) -> EncodedMatrix:
    """Convolve a packed batch with one planned kernel (see conv_layer)."""
    return conv_layer(backend, image, [plan], encrypted_kernels)[0]


def convolve_images(images, kernel, bias: float = 0.0,
                    encrypted_kernels: bool = False) -> np.ndarray:
    """Pack, convolve homomorphically, decrypt the valid region.

    Each image takes a row of h*w slots rounded up to a power of two, on a
    fresh backend with one row per image.
    """
    imgs = real_array(images, "images", ndim=3)
    m, h, w = imgs.shape
    f = 1 << ceil_log2(h * w)
    plan = span_kernel(kernel, bias, h, w, m, f)
    backend = SlotSimulator(BackendParams.for_slots(m * f))
    packed = pack_image_batch(backend, imgs, f)
    out = he_conv(backend, packed, plan, encrypted_kernels)
    grid = decrypt_rows(backend, out)[:, : h * w].reshape(m, h, w)
    return grid[:, : h - plan.k + 1, : w - plan.k + 1]
