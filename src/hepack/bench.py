"""Closed-form cost model: one LayerCost per layer, as infer measures it.

The schedule of every layer is deterministic, so operation counts and the
budget depth of the data path can be predicted exactly from the geometry:

conv (C channels)    rot k^2-1 (shared image taps), add C*k^2,
                     cmul C*k^2 by the scalar tap weights
                     (encrypted kernels: mul C*k^2, cmul C for the mask)
act (per part)       2 mul, 2 cmul, 3 add (Horner cubic)
fc                   G input parts of n slots per row, output width p,
                     baby-step size B and L fold steps from
                     network.fc_schedule: G*p mul (one per diagonal),
                     rot G*(B-1) baby + ceil(p/B)-1 giant by -B + L fold,
                     add G*p - 1 products and giant steps + L fold + 1 bias

Depth assumes weight ciphertexts are fresher than the data path (true
whenever the weights are encrypted at full budget), so only the data-side
rescales count: conv delta_c (or delta + delta_c encrypted), act
2*delta, fc delta. `cost_mismatch` holds a run's InferenceResult.layers
against these rows, field by field.
"""

from __future__ import annotations

from .backend import OP_KINDS, BackendParams, DepthExhaustedError
from .encodings import require_image_fits
from .network import (ActSpec, ConvSpec, LayerCost, NetworkSpec, fc_schedule,
                      layer_names)


def predict_layer_costs(net: NetworkSpec, batch: int, row_width: int,
                        params: BackendParams,
                        encrypted_kernels: bool = False) -> list[LayerCost]:
    """Per-layer op counts and depth for one batch through the network.

    No count depends on `batch`: every schedule works row-locally.
    """
    f = row_width
    d, dc = params.delta_bits, params.delta_c_bits
    costs = []
    parts = 1
    width = net.input_h * net.input_w  # slots per row the next fc reads
    require_image_fits(width, f)  # in pack_image_batch's words, before any fc fold check
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
    return {k: sum(getattr(c, k) for c in costs) for k in OP_KINDS}


def predict_op_counts(net: NetworkSpec, batch: int, row_width: int,
                      params: BackendParams) -> dict:
    return total_op_counts(predict_layer_costs(net, batch, row_width, params))


def predict_depth_bits(net: NetworkSpec, batch: int, row_width: int,
                       params: BackendParams) -> int:
    return sum(c.depth_bits for c in predict_layer_costs(
        net, batch, row_width, params))


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


def cost_mismatch(measured, predicted) -> str | None:
    """The first layer and field where measured costs leave the closed form."""
    names = [c.name for c in measured]
    if names != [c.name for c in predicted]:
        return (f"layers: measured {names}, closed form "
                f"{[c.name for c in predicted]}")
    for got, want in zip(measured, predicted):
        for k in OP_KINDS + ("depth_bits",):
            if getattr(got, k) != getattr(want, k):
                unit = "depth bits" if k == "depth_bits" else k
                return (f"layer {got.name}: measured {getattr(got, k)} {unit}, "
                        f"closed form {getattr(want, k)}")
    return None
