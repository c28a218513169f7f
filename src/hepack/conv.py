"""Homomorphic valid convolution over packed image batches.

A k x k kernel is stretched into k*k full-grid plaintexts ("spans"): span
(di, dj) tiles the kernel across the image, first tile anchored at
(di, dj), cells outside complete tiles zeroed. Multiplying the image by a
span and taking k x k window sums makes every anchor on that span's tile
grid hold its convolution output; a filter mask keeps exactly those
anchors, and the k*k filtered terms tile the whole valid region.

Per kernel the cost is k*k iterations of span product (cmul for plaintext
kernels, mul for encrypted ones) + window_sums (one cmul inside) + filter
cmul + add, with the bias entering as the accumulator seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import BackendParams, SimdBackend, SlotSimulator
from .encodings import EncodedMatrix, LayoutKind, pack_image_batch
from .linalg import (make_conv_filter, make_valid_region_mask, parallel_map,
                     reduce_add, window_sums)


@dataclass(frozen=True)
class KernelPlan:
    """One kernel's spans and bias, ready for a given batch geometry."""

    k: int
    h: int
    w: int
    rows: int
    row_width: int
    spans: tuple  # of (di, dj, slot vector)
    bias_slots: np.ndarray


def span_kernel(kernel, bias: float, h: int, w: int, rows: int,
                row_width: int) -> KernelPlan:
    """Build the k*k span plaintexts and bias mask for one kernel."""
    kern = np.asarray(kernel, dtype=np.float64)
    if kern.ndim != 2 or kern.shape[0] != kern.shape[1]:
        raise ValueError("kernel must be square")
    k = kern.shape[0]
    if not 1 <= k <= min(h, w):
        raise ValueError(f"kernel {k} does not fit a {h}x{w} grid")
    if h * w > row_width:
        raise ValueError("grid does not fit in row_width")
    spans = []
    for di in range(k):
        for dj in range(k):
            grid = np.zeros((h, w))
            for a in range(di, h - k + 1, k):
                for b in range(dj, w - k + 1, k):
                    grid[a:a + k, b:b + k] = kern
            row = np.zeros(row_width)
            row[: h * w] = grid.reshape(-1)
            span = np.tile(row, rows)
            span.flags.writeable = False
            spans.append((di, dj, span))
    bias_slots = float(bias) * make_valid_region_mask(rows, row_width, h, w, k)
    return KernelPlan(k, h, w, rows, row_width, tuple(spans), bias_slots)


def he_conv(backend: SimdBackend, image: EncodedMatrix, plan: KernelPlan,
            encrypted_kernels: bool = False, threads: int = 1) -> EncodedMatrix:
    """Convolve a packed batch with one planned kernel.

    Output keeps the input grid layout, with the result for anchor (a, b)
    at grid slot a*w + b for a <= h-k, b <= w-k and zeros elsewhere.
    """
    lay = image.layout
    if lay.kind is not LayoutKind.IMAGE_GRID:
        raise ValueError("he_conv needs an image-grid layout")
    if (plan.h, plan.w, plan.rows, plan.row_width) != (
            lay.grid_h, lay.grid_w, lay.rows, lay.row_width):
        raise ValueError("plan geometry does not match the packed batch")
    k = plan.k

    def branch(span_entry):
        di, dj, span = span_entry
        if encrypted_kernels:
            prod = backend.mul(image.ct, backend.encrypt(span))
        else:
            prod = backend.cmul(image.ct, span)
        sums = window_sums(backend, EncodedMatrix(prod, lay), k)
        return backend.cmul(sums.ct, make_conv_filter(
            lay.rows, lay.row_width, plan.h, plan.w, k, di, dj))

    acc = backend.encrypt(plan.bias_slots)
    branches = parallel_map(branch, plan.spans, threads)
    return EncodedMatrix(reduce_add(backend, [acc] + branches), lay)


def conv_layer(backend: SimdBackend, image: EncodedMatrix, plans,
               encrypted_kernels: bool = False, threads: int = 1) -> list[EncodedMatrix]:
    """Apply every kernel plan to the same batch, one output per channel."""
    return [he_conv(backend, image, plan, encrypted_kernels, threads)
            for plan in plans]


def convolve_images(images, kernel, bias: float = 0.0,
                    row_width: int | None = None,
                    backend: SimdBackend | None = None,
                    encrypted_kernels: bool = False, threads: int = 1) -> np.ndarray:
    """Pack, convolve homomorphically, decrypt the valid region."""
    imgs = np.asarray(images, dtype=np.float64)
    m, h, w = imgs.shape
    if m & (m - 1):
        raise ValueError("batch size must be a power of two")
    kern = np.asarray(kernel, dtype=np.float64)
    k = kern.shape[0]
    f = row_width or 1 << (h * w - 1).bit_length()
    if backend is None:
        backend = SlotSimulator(BackendParams.for_slots(m * f))
    packed = pack_image_batch(backend, imgs, f)
    plan = span_kernel(kern, bias, h, w, m, f)
    out = he_conv(backend, packed, plan, encrypted_kernels, threads)
    grid = backend.decrypt(out.ct).reshape(m, f)[:, : h * w].reshape(m, h, w)
    return grid[:, : h - k + 1, : w - k + 1]
