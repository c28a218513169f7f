"""Closed-form cost model and benchmark runner.

The schedule of every layer is deterministic, so operation counts and the
budget depth of the data path can be predicted exactly from the geometry:

conv (C channels)    rot k^2-1 (shared image taps), add C*k^2,
                     cmul C*k^2, the mask folded into the tap weights
                     (encrypted kernels: mul C*k^2, cmul C for the mask)
act (per part)       2 mul, 2 cmul, 3 add (Horner cubic)
fc                   G input parts of n slots per row, output width p,
                     baby-step size B and L fold steps from
                     network.fc_schedule: G*p mul (one per diagonal),
                     rot G*(B-1) baby + ceil(p/B)-1 giant + L fold,
                     add G*p - 1 products and giant steps + L fold + 1 bias

Depth assumes weight ciphertexts are fresher than the data path (true
whenever the weights are encrypted at full budget), so only the data-side
rescales count: conv delta_c (or delta + delta_c encrypted), act
2*delta, fc delta.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .backend import BackendParams, DepthExhaustedError, SlotSimulator
from .network import (ActSpec, ConvSpec, InferenceResult, NetworkSpec,
                      fc_schedule, infer_images, layer_names)


@dataclass
class LayerCost:
    name: str
    mul: int = 0
    cmul: int = 0
    rot: int = 0
    add: int = 0
    depth_bits: int = 0


def predict_layer_costs(net: NetworkSpec, batch: int, row_width: int,
                        params: BackendParams,
                        encrypted_kernels: bool = False) -> list[LayerCost]:
    """Per-layer op counts and depth for one batch through the network.

    No count depends on `batch`: every schedule works row-locally.
    """
    net.validate()
    f = row_width
    d, dc = params.delta_bits, params.delta_c_bits
    costs = []
    parts = 1
    width = net.input_h * net.input_w  # slots per row the next fc reads
    for name, layer in zip(layer_names(net), net.layers):
        cost = LayerCost(name)
        if isinstance(layer, ConvSpec):
            c, taps = layer.channels, layer.k * layer.k
            cost.rot = taps - 1
            cost.add = c * taps
            if encrypted_kernels:
                cost.mul = c * taps
                cost.cmul = c
                cost.depth_bits = d + dc
            else:
                cost.cmul = c * taps
                cost.depth_bits = dc
            parts = c
        elif isinstance(layer, ActSpec):
            cost.mul = 2 * parts
            cost.cmul = 2 * parts
            cost.add = 3 * parts
            cost.depth_bits = 2 * d
        else:
            g, p = parts, layer.out_dim
            baby, fold = fc_schedule([width] * g, p, f)
            cost.mul = g * p
            cost.rot = g * (baby - 1) + -(-p // baby) - 1 + fold
            cost.add = g * p + fold
            cost.depth_bits = d
            parts, width = 1, p
        costs.append(cost)
    return costs


def total_op_counts(costs) -> dict:
    """Per-layer op counts summed into one total per kind."""
    return {k: sum(getattr(c, k) for c in costs) for k in ("mul", "cmul", "rot", "add")}


def predict_op_counts(net: NetworkSpec, batch: int, row_width: int,
                      params: BackendParams,
                      encrypted_kernels: bool = False) -> dict:
    return total_op_counts(predict_layer_costs(net, batch, row_width, params,
                                               encrypted_kernels))


def predict_depth_bits(net: NetworkSpec, batch: int, row_width: int,
                       params: BackendParams,
                       encrypted_kernels: bool = False) -> int:
    return sum(c.depth_bits for c in predict_layer_costs(
        net, batch, row_width, params, encrypted_kernels))


def check_depth_budget(net: NetworkSpec, batch: int, row_width: int,
                       params: BackendParams,
                       encrypted_kernels: bool = False) -> list[LayerCost]:
    """The closed-form layer costs, checked against log_q before a run.

    A layer's ops all succeed exactly when the bits left cover its depth,
    so the first layer that does not fit, named in the raised
    DepthExhaustedError, is the one a run would fail in.
    """
    costs = predict_layer_costs(net, batch, row_width, params,
                                encrypted_kernels)
    left = params.log_q
    for cost in costs:
        if cost.depth_bits > left:
            total = sum(c.depth_bits for c in costs)
            raise DepthExhaustedError(
                f"budget exhausted in layer {cost.name}: it needs "
                f"{cost.depth_bits} bits, {left} are left; the network needs "
                f"{total} depth bits in all, log_q is {params.log_q}")
        left -= cost.depth_bits
    return costs


@dataclass
class BenchReport:
    result: InferenceResult
    predicted: list
    batch: int
    row_width: int
    threads: int
    wall_seconds: float

    @property
    def counts_match(self) -> bool:
        want = total_op_counts(self.predicted)
        return all(self.result.op_counts[k] == want[k] for k in want)

    @property
    def depth_mismatch(self) -> str | None:
        """The first layer whose measured depth differs from the closed form."""
        for c, (name, bits) in zip(self.predicted, self.result.layer_depths):
            if (c.name, c.depth_bits) != (name, bits):
                return (f"layer {c.name}: measured {bits} depth bits, "
                        f"closed form {c.depth_bits}")
        want = sum(c.depth_bits for c in self.predicted)
        if self.result.depth_bits != want:
            return (f"total: measured {self.result.depth_bits} depth bits, "
                    f"closed form {want}")
        return None


def run_bench(net: NetworkSpec, params: BackendParams, batch: int,
              threads: int = 1, encrypted_kernels: bool = False,
              seed: int = 0) -> BenchReport:
    """One random batch through the network with timing and cost audit."""
    row_width = params.slots // batch
    predicted = check_depth_budget(net, batch, row_width, params,
                                   encrypted_kernels)
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 1.0, size=(batch, net.input_h, net.input_w))
    backend = SlotSimulator(params)
    start = time.perf_counter()
    result = infer_images(backend, net, images, row_width, threads=threads,
                          encrypted_kernels=encrypted_kernels)
    wall = time.perf_counter() - start
    return BenchReport(result, predicted, batch, row_width, threads, wall)
