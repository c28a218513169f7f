"""Encrypted CNN inference: conv -> cubic act -> fc -> cubic act -> fc.

The batch stays packed one image per ciphertext row for the whole run.
Convolution outputs live at valid grid anchors of each channel ciphertext;
the first fully-connected layer consumes those channel ciphertexts
directly, its weights spread over every grid cell by spread_to_grid (zero
at invalid anchors, which also swallows the constant term the cubic
activation smears over every slot). Each fc layer multiplies its row-packed
inputs by row-local diagonals of the weight matrix and leaves its output
row-major in columns 0..p-1; the logits are read from the last one. Each
rotation is hoistable from one input (conv taps, fc baby steps), chained
through one key (fc giant steps, product columns) or a doubling fold. A
spec is checked once, when it is made, and planned once per batch
geometry (NetworkSpec.plan), its plans kept beside it. The plans hold
every fc diagonal and bias as a one-row Plaintext made once, so a later
batch makes none; conv weights and biases are scalars, and the partial
sums conv leaves at invalid anchors meet zero fc-1 weights.

Activation is a fixed cubic in Horner form, c0 + c1*x + x^2*(c2 + c3*x):
x*x and c3*x + c2 are made side by side and multiplied once more, so a
layer costs 2*delta budget bits.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from .backend import (OP_KINDS, DepthExhaustedError, Plaintext, SimdBackend,
                      _ndim, real_array, require_finite, require_integer)
from .conv import conv_layer, span_kernel
from .encodings import (EncodedMatrix, LayoutKind, MatrixLayout, decrypt_rows,
                        encode_row_major, grid_layout, pack_image_batch,
                        row_major_layout)
from .linalg import ceil_log2

# Degree-three least-squares activation fits baked into the stock MNIST model.
STOCK_ACT1 = (-0.00015120704, 0.4610149, 2.0225089, -1.4511951)
STOCK_ACT2 = (-1.5650465, -0.9943767, 1.6794522, 0.5350255)
_planned = weakref.WeakKeyDictionary()  # spec -> {(rows, row_width): plans} while it lives


def _own_arrays(spec, *names):
    """Make each named field of a frozen spec a read-only copy of itself.

    A ragged field is refused by spec and field name. The dtype is kept, so
    NetworkSpec's check sees complex or non-numeric values.
    """
    for name in names:
        _ndim(getattr(spec, name), f"{type(spec).__name__} {name}")
        arr = np.array(getattr(spec, name))
        arr.flags.writeable = False
        object.__setattr__(spec, name, arr)


@dataclass(frozen=True, eq=False)
class ConvSpec:
    kernels: np.ndarray  # (channels, k, k), a read-only copy
    biases: np.ndarray  # (channels,), a read-only copy

    def __post_init__(self):
        _own_arrays(self, "kernels", "biases")

    @property
    def channels(self) -> int:
        return self.kernels.shape[0]

    @property
    def k(self) -> int:
        return self.kernels.shape[1]


@dataclass(frozen=True, eq=False)
class ActSpec:
    coeffs: np.ndarray  # (c0, c1, c2, c3), a read-only copy

    def __post_init__(self):
        _own_arrays(self, "coeffs")


@dataclass(frozen=True, eq=False)
class FcSpec:
    weight: np.ndarray  # (out, in), a read-only copy
    bias: np.ndarray  # (out,), a read-only copy

    def __post_init__(self):
        _own_arrays(self, "weight", "bias")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class NetworkSpec:
    """Input geometry and layers, checked when made: a plain frozen value.

    Layers compare by identity, so specs over the same geometry and layer
    objects are equal and share plans (plan). Layers are a tuple and their
    arrays read-only, so neither the check nor a plan can go stale.
    """

    input_h: int
    input_w: int
    layers: tuple

    def __post_init__(self):
        """Check layer shapes, finite values and chaining once, when the spec is made."""
        object.__setattr__(self, "layers", tuple(self.layers))
        for name in ("input_h", "input_w"):  # held as an int, so a 0-d array still hashes
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        h, w = self.input_h, self.input_w
        feats = None  # None while still an image grid
        for pos, layer in enumerate(self.layers):
            if isinstance(layer, ConvSpec):
                if pos != 0:
                    raise ValueError("conv layer must come first")
                shape = np.shape(layer.kernels)
                if len(shape) != 3 or shape[1] != shape[2] or min(shape) < 1:
                    raise ValueError(f"conv kernels must be (C, k, k) with C, k >= 1, "
                                     f"got shape {shape}")
                if np.shape(layer.biases) != shape[:1]:
                    raise ValueError(f"conv needs {shape[0]} biases, one per kernel, "
                                     f"got shape {np.shape(layer.biases)}")
                if layer.k > min(h, w):
                    raise ValueError(f"conv layer {pos} kernel larger than image: "
                                     f"k={layer.k} on {h}x{w}")
                require_finite(layer.kernels, f"conv layer {pos} kernels")
                require_finite(layer.biases, f"conv layer {pos} biases")
                feats = layer.channels * (h - layer.k + 1) * (w - layer.k + 1)
            elif isinstance(layer, ActSpec):
                if np.shape(layer.coeffs) != (4,):
                    raise ValueError(f"activation needs 4 coefficients, "
                                     f"got shape {np.shape(layer.coeffs)}")
                require_finite(layer.coeffs, f"act layer {pos} coefficients")
            elif isinstance(layer, FcSpec):
                shape = np.shape(layer.weight)
                if len(shape) != 2 or shape[0] < 1:
                    raise ValueError(f"fc layer {pos} weight must be 2-D (out, in) with "
                                     f"out >= 1, got shape {shape}")
                expect = feats if feats is not None else h * w
                if layer.in_dim != expect:
                    raise ValueError(
                        f"fc layer {pos} expects {expect} inputs, has {layer.in_dim}")
                if np.shape(layer.bias) != (layer.out_dim,):
                    raise ValueError(f"fc layer {pos} needs {layer.out_dim} biases, "
                                     f"got shape {np.shape(layer.bias)}")
                require_finite(layer.weight, f"fc layer {pos} weights")
                require_finite(layer.bias, f"fc layer {pos} biases")
                feats = layer.out_dim
            else:
                raise ValueError(f"unknown layer type {type(layer).__name__}")
        if not self.layers or not isinstance(self.layers[-1], FcSpec):
            raise ValueError("network must end with an fc layer")

    @property
    def classes(self) -> int:
        return self.layers[-1].out_dim

    def plan(self, rows: int, row_width: int) -> tuple:
        """One plan per layer for batches of rows x row_width slots, made once.

        The first call at a geometry plans each layer: KernelPlans for a
        conv, an FcPlan for an fc (spread over the conv grids), None for an
        activation. Later calls, by this spec or an equal one, reuse them.
        """
        planned = _planned.setdefault(self, {})
        if (rows, row_width) in planned:
            return planned[rows, row_width]
        h, w = self.input_h, self.input_w
        layouts, valid, plans = [grid_layout(rows, row_width, h, w)], (h, w), []
        for layer in self.layers:
            plan = None
            if isinstance(layer, ConvSpec):
                plan = tuple(span_kernel(layer.kernels[c], layer.biases[c], h, w,
                                         rows, row_width)
                             for c in range(layer.channels))
                layouts = [kp.layout for kp in plan]
                valid = (h - layer.k + 1, w - layer.k + 1)
            elif isinstance(layer, FcSpec):
                if layouts[0].kind is LayoutKind.IMAGE_GRID:
                    layer = spread_to_grid(layer, h, w, *valid)
                plan = plan_fc(layer, layouts)
                layouts = [plan.out_layout]
            plans.append(plan)
        planned[rows, row_width] = tuple(plans)
        return planned[rows, row_width]


# ------------------------------------------------------------ primitives

def eval_poly(backend: SimdBackend, ct, coeffs):
    """c0 + c1*x + x^2*(c2 + c3*x) slot-wise, always at depth 2*delta.

    x^2 (one mul) and c3*x + c2 (one scalar product plus a scalar add) are
    made side by side, then multiplied; c1*x + c0 is one more of each. The
    cubic is evaluated even when coefficients are zero so the budget cost
    is the same for every activation: 2 mul, 2 cmul, 3 add.
    """
    c0, c1, c2, c3 = (float(c) for c in coeffs)
    x2 = backend.mul(ct, ct)
    inner = backend.add(backend.cmul(ct, c3), c2)
    low = backend.add(backend.cmul(ct, c1), c0)
    return backend.add(low, backend.mul(x2, inner))


def apply_activation(backend: SimdBackend, enc: EncodedMatrix,
                     coeffs) -> EncodedMatrix:
    """eval_poly over a packed matrix; note c0 lands on pad slots too."""
    return EncodedMatrix(eval_poly(backend, enc.ct, coeffs), enc.layout)


def spread_to_grid(spec: FcSpec, h: int, w: int, oh: int, ow: int) -> FcSpec:
    """An fc layer over channel-major oh x ow regions, spread over h x w grids.

    Feature (c, a, b) moves to cell a*w + b of grid c and the other cells
    get zero weights, so fc_layer can read conv outputs' invalid anchors.
    """
    if not (0 < oh <= h and 0 < ow <= w) or spec.in_dim % (oh * ow):
        raise ValueError(f"fc layer with {spec.in_dim} inputs does not read whole "
                         f"{oh}x{ow} regions of a {h}x{w} grid")
    p = spec.out_dim
    weight = np.zeros((p, spec.in_dim // (oh * ow), h, w))
    weight[:, :, :oh, :ow] = spec.weight.reshape(p, -1, oh, ow)
    return FcSpec(weight.reshape(p, -1), spec.bias)


def fc_schedule(widths, p: int, f: int) -> tuple[int, int]:
    """Baby-step size B and fold steps L of the diagonal fc schedule.

    `widths` holds the slots per row n_g of each input part. Output slot c
    collects input slots c-p+1..c, so partial sums reach slot n + p - 2
    (n the widest part) and fold back into columns 0..p-1 in L doubling
    steps of stride p. B is the smallest size that minimises the
    G*(B-1) + ceil(p/B) baby and giant rotations.
    """
    g, n = len(widths), max(widths)
    fold = ceil_log2(-(-(n + p - 1) // p))
    # p * 2^L >= n + p - 1, so this also keeps every diagonal in its row.
    if p << fold > f:
        raise ValueError(
            f"fc layer with n={n} input slots per row and p={p} outputs needs "
            f"{p << fold} slots per row to fold, rows have f={f}")
    baby = min(range(1, p + 1), key=lambda b: g * (b - 1) + -(-p // b))
    return baby, fold


def _diagonal_rows(block: np.ndarray, f: int, baby: int) -> np.ndarray:
    """One row pattern per diagonal d = b + baby*a of a part's weights.

    Diagonal d puts block[c - d, c % p] at slot c (zero unless
    0 <= c - d < n); row d holds it pre-rotated left by baby*a, as the
    giant-step chain that rotates it back right expects.
    """
    n, p = block.shape
    d = np.arange(p)[:, None]
    c = np.arange(f)[None, :]
    src = c - d % baby
    vals = block[np.clip(src, 0, n - 1), (c + d - d % baby) % p]
    return np.where((src >= 0) & (src < n), vals, 0.0)


@dataclass(frozen=True, eq=False)
class FcPlan:
    """An fc layer planned for the layouts of its input parts (see plan_fc).

    Plans compare and hash by identity, as KernelPlans do.
    """

    layouts: tuple  # the MatrixLayout of each input part, in order
    baby: int  # B and L of fc_schedule
    fold: int
    diagonals: tuple  # per part, p one-row Plaintexts of row_width values
    bias: Plaintext  # one row: the bias in columns 0..p-1
    out_layout: MatrixLayout


def plan_fc(spec: FcSpec, layouts) -> FcPlan:
    """Schedule, diagonal rows and bias row of an fc layer over these parts.

    The features are the first logical_width slots of each part's rows, in
    part order (all h*w cells of a grid: see spread_to_grid). Each diagonal
    and the bias is one Plaintext row of f slots, repeated over the batch's
    rows.
    """
    layouts = tuple(layouts)
    if not layouts:
        raise ValueError("fc_layer needs at least one input part")
    m, f = layouts[0].rows, layouts[0].row_width
    if any((lay.rows, lay.row_width) != (m, f) for lay in layouts):
        raise ValueError("input parts disagree on rows and row width")
    p = spec.out_dim
    widths = [lay.logical_width for lay in layouts]
    if sum(widths) != spec.in_dim:
        raise ValueError(
            f"input parts supply {sum(widths)} features, fc expects {spec.in_dim}")
    baby, fold = fc_schedule(widths, p, f)
    blocks = np.split(spec.weight.T, np.cumsum(widths)[:-1])
    diagonals = tuple(tuple(Plaintext(row) for row in _diagonal_rows(block, f, baby))
                      for block in blocks)
    bias = Plaintext(np.pad(spec.bias, (0, f - p)))
    return FcPlan(layouts, baby, fold, diagonals, bias, row_major_layout(m, f, p))


def fc_layer(backend: SimdBackend, parts, plan: FcPlan) -> EncodedMatrix:
    """Fully-connected layer over packed input parts, as plan_fc planned it.

    Slot c of every row gathers sum_g sum_{d<p} D_{g,d}[c] * x_g[c-d], the
    diagonal D_{g,d} holding the weight from input slot c-d of part g to
    output column c mod p. A right rotation by d pulls the previous row's
    tail only into slots c < d, and input slots past n_g meet zero weights,
    so no mask is needed and input pad slots may hold anything. With
    d = b + B*a each part is rotated right by b < B once (baby steps,
    hoistable). Giant step a is one backend.dot S_a of those parts and the
    diagonals pre-rotated left by B*a, each encrypted from its Plaintext row
    just before its product; acc = rot(acc, -B) + S_a from the last a down
    chains the giant steps through one key. One backend.fold of L doubling steps of stride
    p*2^s adds the bands into columns 0..p-1, then the plaintext bias row; slots past p
    keep partial band sums, which the next fc layer's zero weights ignore.
    """
    parts = list(parts)
    if tuple(part.layout for part in parts) != plan.layouts:
        raise ValueError("input parts differ from the layouts the fc was planned for")
    baby, p, f = plan.baby, plan.out_layout.logical_width, plan.out_layout.row_width
    spun = [[backend.rot(part.ct, -b) if b else part.ct for b in range(baby)]
            for part in parts]

    acc = None
    for a in reversed(range(-(-p // baby))):
        bs = range(min(baby, p - baby * a))
        x = backend.dot([steps[b] for steps in spun for b in bs],
                        (encode_row_major(backend, diags[baby * a + b], f).ct
                         for diags in plan.diagonals for b in bs))
        acc = x if acc is None else backend.add(backend.rot(acc, -baby), x)
    acc = backend.add(backend.fold(acc, [p << s for s in range(plan.fold)]), plan.bias)
    return EncodedMatrix(acc, plan.out_layout)


# -------------------------------------------------------------- pipeline

@dataclass
class LayerCost:
    """Ops and budget bits of one layer: measured by infer, predicted by bench.

    infer also records the layer's wall time in `seconds`, which equality
    and bench.cost_mismatch leave out.
    """

    name: str
    mul: int = 0
    cmul: int = 0
    rot: int = 0
    add: int = 0
    depth_bits: int = 0
    seconds: float = field(default=0.0, compare=False)


@dataclass
class InferenceResult:
    logits: np.ndarray
    depth_bits: int  # log_q minus the result budget: depth along the data path
    layers: list = field(default_factory=list)  # one measured LayerCost each
    op_counts: dict = field(default_factory=dict)  # ledger deltas for this call

    @property
    def layer_depths(self) -> list[tuple[str, int]]:
        """(name, bits consumed) of each layer."""
        return [(c.name, c.depth_bits) for c in self.layers]


def layer_names(net: NetworkSpec) -> list[str]:
    """conv-1, act-1, fc-1, ...: each layer's kind and its rank among them."""
    names, seen = [], {}
    for layer in net.layers:
        tag = {"ConvSpec": "conv", "ActSpec": "act", "FcSpec": "fc"}[
            type(layer).__name__]
        seen[tag] = seen.get(tag, 0) + 1
        names.append(f"{tag}-{seen[tag]}")
    return names


def infer(backend: SimdBackend, net: NetworkSpec, packed: EncodedMatrix,
          encrypted_kernels: bool = False) -> InferenceResult:
    """Run the network over a packed batch; logits come back per image.

    The spec was checked when it was made; the first batch at a rows x
    row_width geometry plans it (net.plan), before any op. A plan makes
    each Plaintext row once, so a later batch makes none but the packed
    images'. The per-layer rows and op_counts are differences of snapshots
    of the backend's shared ledger, so a backend serves one infer at a time.
    """
    lay = packed.layout
    if lay.kind is not LayoutKind.IMAGE_GRID or (lay.grid_h, lay.grid_w) != (
            net.input_h, net.input_w):
        grid = f"a {lay.grid_h}x{lay.grid_w} grid" if lay.grid_h else "no grid"
        raise ValueError(f"packed batch does not match the network geometry: its "
                         f"{lay.kind.value} layout has {grid}, the network takes "
                         f"{net.input_h}x{net.input_w} images")
    plans = net.plan(lay.rows, lay.row_width)
    start = before = backend.ledger.snapshot()
    parts = [packed]
    budget = min(p.ct.budget_bits for p in parts)
    costs = []
    for name, layer, plan in zip(layer_names(net), net.layers, plans):
        tick = time.perf_counter()
        try:
            if isinstance(layer, ConvSpec):
                parts = conv_layer(backend, parts[0], plan, encrypted_kernels)
            elif isinstance(layer, ActSpec):
                parts = [apply_activation(backend, p, layer.coeffs)
                         for p in parts]
            else:
                parts = [fc_layer(backend, parts, plan)]
        except DepthExhaustedError as e:
            raise DepthExhaustedError(f"budget exhausted in layer {name}: {e}") from e
        now = min(p.ct.budget_bits for p in parts)
        after = backend.ledger.snapshot()
        costs.append(LayerCost(name, depth_bits=budget - now,
                               seconds=time.perf_counter() - tick,
                               **{k: after[k] - before[k] for k in OP_KINDS}))
        budget, before = now, after
    logits = decrypt_rows(backend, parts[0])[:, :net.classes]
    after = backend.ledger.snapshot()
    return InferenceResult(
        logits=logits,
        depth_bits=backend.params.log_q - budget,
        layers=costs,
        op_counts={k: after[k] - start[k] for k in after},
    )


def infer_images(backend: SimdBackend, net: NetworkSpec, images,
                 row_width: int, **kw) -> InferenceResult:
    """Pack a normalized image batch and run infer."""
    packed = pack_image_batch(backend, images, row_width)
    return infer(backend, net, packed, **kw)


# ------------------------------------------------------------- reference

def conv2d_valid(images: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Plain batched valid cross-correlation, accumulated tap by tap."""
    m, h, w = images.shape
    k = kernel.shape[0]
    oh, ow = h - k + 1, w - k + 1
    out = np.zeros((m, oh, ow))
    for u in range(k):
        for v in range(k):
            out += kernel[u, v] * images[:, u:u + oh, v:v + ow]
    return out


def reference_infer(net: NetworkSpec, images) -> np.ndarray:
    """Plaintext forward pass; the oracle the encrypted path must match.

    It refuses the images pack_image_batch refuses, non-finite ones too.
    """
    x = real_array(images, "images")
    require_finite(x, "images")
    if x.ndim != 3 or x.shape[1:] != (net.input_h, net.input_w):
        raise ValueError(f"images have shape {x.shape}, network wants "
                         f"(m, {net.input_h}, {net.input_w})")
    for layer in net.layers:
        if isinstance(layer, ConvSpec):
            chans = [conv2d_valid(x, layer.kernels[c]) + layer.biases[c]
                     for c in range(layer.channels)]
            x = np.stack(chans, axis=1)  # (m, C, oh, ow)
        elif isinstance(layer, ActSpec):
            c0, c1, c2, c3 = layer.coeffs
            x = c0 + c1 * x + c2 * x * x + c3 * x * x * x
        else:
            # channel-major flatten; in_dim, not -1, so zero images reshape too
            x = x.reshape(x.shape[0], layer.in_dim) @ layer.weight.T + layer.bias
    return x


# --------------------------------------------------------------- presets

def stock_geometry() -> dict:
    """Published MNIST model geometry: 28x28, 4 kernels 3x3, 2704-64-10."""
    return dict(h=28, w=28, k=3, channels=4, hidden=64, classes=10,
                batch=32, row_width=1024)


def reduced_geometry() -> dict:
    """Small twin of the stock chain for fast end-to-end checks."""
    return dict(h=8, w=8, k=3, channels=2, hidden=8, classes=4,
                batch=8, row_width=128)


def random_network(rng: np.random.Generator, h: int = 28, w: int = 28,
                   k: int = 3, channels: int = 4, hidden: int = 64,
                   classes: int = 10, batch: int | None = None,
                   row_width: int | None = None) -> NetworkSpec:
    """Random weights at fan-in scale so the cubics keep values tame.

    The weights do not depend on `batch` or `row_width`; they are accepted
    so a whole geometry dict (stock_geometry(), reduced_geometry()) can be
    passed as keywords. An impossible geometry is refused before any draw.
    """
    for name, size in dict(k=k, channels=channels, hidden=hidden,
                           classes=classes).items():
        if size < 1:
            raise ValueError(f"random_network needs {name} >= 1, got {size}")
    if k > min(h, w):
        raise ValueError(f"kernel size k={k} does not fit a {h}x{w} image")

    def uni(shape, fan_in):
        s = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-s, s, size=shape)

    oh, ow = h - k + 1, w - k + 1
    fc1_in = channels * oh * ow
    return NetworkSpec(h, w, (
        ConvSpec(uni((channels, k, k), k * k), uni((channels,), k * k)),
        ActSpec(STOCK_ACT1),
        FcSpec(uni((hidden, fc1_in), fc1_in), uni((hidden,), fc1_in)),
        ActSpec(STOCK_ACT2),
        FcSpec(uni((classes, hidden), hidden), uni((classes,), hidden)),
    ))
