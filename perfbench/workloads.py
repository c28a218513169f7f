"""The benchmark's workloads: stock, conv-bank and matmul-mix.

Each workload makes its inputs from the seed; hepack only sees the
generated inputs. The harness times `setup` and `call`; `prepare`,
`inputs` and `check` run outside the timed spans. Library functions are
called through their modules (`network.infer_images`, ...) so that a
traced run can route them through spans.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from hepack import bench, conv, encodings, matmul, mnist, network, weights_io
from hepack.backend import BackendParams, SlotSimulator

COUNTED = ("mul", "cmul", "rot", "add")


@dataclass
class Outcome:
    """What one call produced, as the harness compares and reports it."""

    output: tuple  # of arrays, compared bitwise between traced and untraced calls
    counts: dict  # ledger deltas for the call: mul, cmul, rot, add
    depth_bits: int  # log_q minus the budget left on the output
    items: int  # images classified or convolved, or products formed
    layer_depths: list = field(default_factory=list)  # (stage, bits)


def _counts(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in COUNTED}


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


class Stock:
    """The published geometry, driven as `hepack infer` drives it.

    Weights go to CSV and images to IDX before set-up; set-up loads both
    and builds the backend; each call classifies the next block of images.
    """

    name = "stock"

    def __init__(self, seed: int, workdir: str, geometry: dict | None = None,
                 n_images: int = 1024, **params):
        self.seed = seed
        self.geo = geometry or network.stock_geometry()
        self.n_images = n_images
        self.params = BackendParams.for_slots(
            self.geo["batch"] * self.geo["row_width"], **params)
        self.weights_path = os.path.join(workdir, "weights.csv")
        self.images_path = os.path.join(workdir, "images.idx")

    def prepare(self, write: bool = True):
        rng = np.random.default_rng(self.seed)
        self.net = network.random_network(rng, **self.geo)
        self.predicted = bench.predict_layer_costs(
            self.net, self.geo["batch"], self.geo["row_width"], self.params)
        if write:
            weights_io.save_weights_csv(self.net, self.weights_path)
            pixels = rng.integers(0, 256, dtype=np.uint8, size=(
                self.n_images, self.geo["h"], self.geo["w"]))
            mnist.write_idx_images(self.images_path, pixels)

    def setup(self):
        self.loaded = weights_io.load_weights_csv(self.weights_path)
        images = mnist.load_idx_images(self.images_path)
        self.blocks = [b for b, _ in mnist.image_blocks(images, self.geo["batch"])]
        self.sim = SlotSimulator(self.params)

    def inputs(self, i: int) -> np.ndarray:
        return self.blocks[i % len(self.blocks)]

    def call(self, block, wrap) -> Outcome:
        res = network.infer_images(wrap(self.sim), self.loaded, block,
                                   self.geo["row_width"])
        return Outcome((res.logits,), {k: res.op_counts[k] for k in COUNTED},
                       res.depth_bits, len(block), list(res.layer_depths))

    def check(self, block, out: Outcome) -> list[str]:
        want = network.reference_infer(self.net, block)
        logits, = out.output
        problems = []
        err = float(np.abs(logits - want).max())
        if not err <= 1e-6:
            problems.append(f"logits differ from reference_infer by {err:.3g}")
        if (logits.argmax(axis=1) != want.argmax(axis=1)).any():
            problems.append("argmax differs from reference_infer")
        model = {k: sum(getattr(c, k) for c in self.predicted) for k in COUNTED}
        if out.counts != model:
            problems.append(f"ledger {out.counts} != model {model}")
        depths = [(c.name, c.depth_bits) for c in self.predicted]
        if out.layer_depths != depths:
            problems.append(f"stage depths {out.layer_depths} != model {depths}")
        if out.depth_bits != sum(d for _, d in depths):
            problems.append(f"depth {out.depth_bits} != model")
        return problems

    def stage_mismatches(self, stages: list[tuple[str, dict]]) -> list[str]:
        """Names of the stages whose traced ledger differs from the model."""
        got = dict(stages)
        bad = [c.name for c in self.predicted
               if got.get(c.name) is None
               or any(got[c.name][k] != getattr(c, k)
                      for k in COUNTED + ("depth_bits",))]
        known = {c.name for c in self.predicted}
        return bad + [name for name in got if name not in known]


class ConvBank:
    """A fixed bank of kernels over a fresh image batch on every call.

    Encrypted kernels (`encrypt` + `mul` per span) and fresh span plans
    per call: convolution and window sums do all the work.
    """

    name = "conv-bank"

    def __init__(self, seed: int, workdir: str, h: int = 28, w: int = 28,
                 k: int = 5, channels: int = 16, batch: int = 32,
                 row_width: int = 1024, **params):
        self.seed = seed
        self.h, self.w, self.k, self.channels = h, w, k, channels
        self.batch, self.row_width = batch, row_width
        self.params = BackendParams.for_slots(batch * row_width, **params)

    def prepare(self, write: bool = True):
        rng = np.random.default_rng(self.seed)
        s = 1.0 / self.k
        self.kernels = rng.uniform(-s, s, size=(self.channels, self.k, self.k))
        self.biases = rng.uniform(-s, s, size=self.channels)

    def setup(self):
        self.sim = SlotSimulator(self.params)

    def inputs(self, i: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, i])
        return rng.uniform(0.0, 1.0, size=(self.batch, self.h, self.w))

    def call(self, images, wrap) -> Outcome:
        be = wrap(self.sim)
        m, f, h, w = self.batch, self.row_width, self.h, self.w
        oh, ow = h - self.k + 1, w - self.k + 1
        before = self.sim.ledger.snapshot()
        packed = encodings.pack_image_batch(be, images, f)
        plans = [conv.span_kernel(self.kernels[c], self.biases[c], h, w, m, f)
                 for c in range(self.channels)]
        outs = conv.conv_layer(be, packed, plans, encrypted_kernels=True)
        valid = np.stack([be.decrypt(o.ct).reshape(m, f)[:, :h * w]
                          .reshape(m, h, w)[:, :oh, :ow] for o in outs], axis=1)
        depth = self.params.log_q - min(o.ct.budget_bits for o in outs)
        return Outcome((valid,), _counts(before, self.sim.ledger.snapshot()),
                       depth, m)

    def check(self, images, out: Outcome) -> list[str]:
        windows = sliding_window_view(images, (self.k, self.k), axis=(1, 2))
        want = (np.einsum("mabuv,cuv->mcab", windows, self.kernels)
                + self.biases[None, :, None, None])
        err = float(np.abs(out.output[0] - want).max())
        return [] if err <= 1e-9 else [f"conv output off by {err:.3g}"]


class _DecryptProbe(SlotSimulator):
    """SlotSimulator that keeps the budget of the last ciphertext decrypted."""

    def decrypt(self, ct):
        self.decrypted_budget = ct.budget_bits
        return super().decrypt(ct)


# (m, n, p): A is m x n, B is n x p. multiply_matrices pads A to
# rows = pow2(max(m, p)) and uses row width pow2(max(n, p)), so every
# product fits in at most 4096 slots. m < p takes the zero-row padding;
# p not dividing rows takes the masked two-rotation shift_rows path. The
# shapes cost within ~1.5x of each other, so call times form one cluster
# and their median does not sit in a gap between shapes.
MATMUL_SHAPES = (
    (12, 200, 12),  # masked shift, 4096 slots
    (10, 30, 20),  # m < p, masked shift, 1024 slots
    (32, 100, 16),  # single-rotation shift, 4096 slots
    (24, 24, 24),  # masked shift, 1024 slots
    (64, 50, 20),  # masked shift, 4096 slots
    (20, 30, 28),  # m < p, masked shift, 1024 slots
    (6, 40, 24),  # m < p, masked shift, 2048 slots
)


class MatmulMix:
    """One-shot products of fresh operands over a fixed list of shapes.

    A call forms one product of every shape, in an order the seed draws
    anew for each call; each product builds its own backend and
    encodings, as a one-shot user does. Timing a round rather than one
    product keeps the tail (10 calls beyond it) from being set by single
    stalls of a few milliseconds.
    """

    name = "matmul-mix"

    def __init__(self, seed: int, workdir: str, shapes=MATMUL_SHAPES, **params):
        self.seed = seed
        self.shapes = tuple(shapes)
        self.param_overrides = params

    def prepare(self, write: bool = True):
        pass

    def setup(self):
        pass

    def inputs(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, i])
        products = []
        for s in rng.permutation(len(self.shapes)):
            m, n, p = self.shapes[s]
            products.append((rng.standard_normal((m, n)),
                             rng.standard_normal((n, p)),
                             _next_pow2(max(m, p)), _next_pow2(max(n, p))))
        return products

    def call(self, products, wrap) -> Outcome:
        outputs, counts, depth = [], dict.fromkeys(COUNTED, 0), 0
        for a, b, rows, f in products:
            sim = _DecryptProbe(BackendParams.for_slots(rows * f,
                                                        **self.param_overrides))
            outputs.append(matmul.multiply_matrices(a, b, row_width=f,
                                                    backend=wrap(sim)))
            snap = sim.ledger.snapshot()
            counts = {k: counts[k] + snap[k] for k in COUNTED}
            depth = max(depth, sim.params.log_q - sim.decrypted_budget)
        return Outcome(tuple(outputs), counts, depth, len(products))

    def check(self, products, out: Outcome) -> list[str]:
        problems = []
        for (a, b, _, _), c in zip(products, out.output):
            want = a @ b
            err = float(np.abs(c - want).max())
            if not err <= 1e-9 * max(1.0, float(np.abs(want).max())):
                problems.append(f"{a.shape[0]}x{a.shape[1]}x{b.shape[1]} "
                                f"product off by {err:.3g}")
        return problems


WORKLOADS = {w.name: w for w in (Stock, ConvBank, MatmulMix)}
