"""Oracle-equivalence suite behind the `verify` command.

Every check compares the homomorphic path against an independent plain
computation and reports its worst absolute error. All randomness flows
from one seed, and no timing enters the report, so two runs with the same
seed print identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import BackendParams, SlotSimulator
from .bench import check_depth_budget, cost_mismatch
from .conv import convolve_images
from .encodings import decode_diagonal, encode_row_major, pack_image_batch
from .linalg import rotate_within_rows
from .matmul import he_matmul_partitioned, multiply_matrices, split_weight_groups
from .network import (conv2d_valid, infer_images, random_network,
                      reduced_geometry, reference_infer)

MATMUL_SHAPES = [(2, 4, 2), (4, 4, 4), (8, 16, 4), (8, 16, 64)]
PARTITION_SHAPE = (8, 64, 16, 4)  # m, n, p, blocks; p > m splits B's columns


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" {self.detail}" if self.detail else ""
        return f"{status} {self.name}: max_err={self.max_err:.3e} tol={self.tol:.0e}{extra}"


def check_matmul_shapes(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for m, n, p in MATMUL_SHAPES:
        a = rng.normal(size=(m, n))
        b = rng.normal(size=(n, p))
        worst = max(worst, float(np.abs(multiply_matrices(a, b) - a @ b).max()))
    return CheckResult("matmul shapes", worst, 1e-9,
                       detail=f"shapes={MATMUL_SHAPES}")


def check_matmul_partitioned(rng: np.random.Generator) -> CheckResult:
    m, n, p, blocks = PARTITION_SHAPE
    a = rng.normal(size=(m, n))
    b = rng.normal(size=(n, p))
    step = n // blocks
    f = max(step, p)
    backend = SlotSimulator(BackendParams.for_slots(m * f))
    a_parts = [encode_row_major(backend, a[:, g * step:(g + 1) * step], f)
               for g in range(blocks)]
    b_blocks = [split_weight_groups(backend, b[g * step:(g + 1) * step], m, f)
                for g in range(blocks)]
    out = he_matmul_partitioned(backend, a_parts, b_blocks)
    got = decode_diagonal(backend.decrypt(out.ct), m, f, p)
    err = float(np.abs(got - a @ b).max())
    return CheckResult("matmul partitioned", err, 1e-9,
                       detail=f"(m,n,p)={PARTITION_SHAPE[:3]} blocks={blocks}")


def check_conv_sweep(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    runs = 0
    for k in (1, 2, 3):
        for h in range(3, 9):
            for w in range(3, 9):
                for batch in (1, 2, 4):
                    for encrypted in (False, True):
                        imgs = rng.normal(size=(batch, h, w))
                        kern = rng.normal(size=(k, k))
                        bias = float(rng.normal())
                        got = convolve_images(imgs, kern, bias,
                                              encrypted_kernels=encrypted)
                        ref = conv2d_valid(imgs, kern) + bias
                        worst = max(worst, float(np.abs(got - ref).max()))
                        runs += 1
    return CheckResult("conv sweep", worst, 1e-9, detail=f"runs={runs}")


def check_vrot(rng: np.random.Generator) -> CheckResult:
    h, w, batch, row_width = 4, 5, 4, 32
    backend = SlotSimulator(BackendParams.for_slots(batch * row_width))
    imgs = rng.normal(size=(batch, h, w))
    packed = pack_image_batch(backend, imgs, row_width)
    flat = imgs.reshape(batch, h * w)
    worst = 0.0
    for r in range(h * w):
        spun = rotate_within_rows(backend, packed, r)
        got = backend.decrypt(spun.ct).reshape(batch, row_width)
        want = np.zeros((batch, row_width))
        want[:, : h * w] = np.roll(flat, -r, axis=1)
        worst = max(worst, float(np.abs(got - want).max()))
    return CheckResult("virtual rotation", worst, 0.0,
                       detail=f"grid={h}x{w} all r<{h * w}")


def check_pipeline(rng: np.random.Generator) -> CheckResult:
    g = reduced_geometry()
    net = random_network(rng, **g)
    imgs = rng.uniform(0.0, 1.0, size=(g["batch"], g["h"], g["w"]))
    backend = SlotSimulator(BackendParams.for_slots(g["batch"] * g["row_width"]))
    res = infer_images(backend, net, imgs, g["row_width"])
    ref = reference_infer(net, imgs)
    err = float(np.abs(res.logits - ref).max())
    agree = bool((res.logits.argmax(1) == ref.argmax(1)).all())
    return CheckResult("pipeline reduced", err if agree else np.inf, 1e-6,
                       detail=f"argmax_agree={agree}")


def check_cost_model(rng: np.random.Generator) -> CheckResult:
    g = reduced_geometry()
    net = random_network(rng, **g)
    imgs = rng.uniform(0.0, 1.0, size=(g["batch"], g["h"], g["w"]))
    params = BackendParams.for_slots(g["batch"] * g["row_width"])
    backend = SlotSimulator(params)
    res = infer_images(backend, net, imgs, g["row_width"])
    bad = cost_mismatch(res.layers, check_depth_budget(
        net, g["batch"], g["row_width"], params))
    return CheckResult("cost model", float(bad is not None), 0.0,
                       detail=bad or f"depth={res.depth_bits}")


def run_all(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    return [
        check_matmul_shapes(rng),
        check_matmul_partitioned(rng),
        check_conv_sweep(rng),
        check_vrot(rng),
        check_pipeline(rng),
        check_cost_model(rng),
    ]
