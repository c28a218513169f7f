import copy
import dataclasses
import gc
import itertools
import pickle
import re
import sys
import time
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import signal

import hepack.network
from hepack import (
    ActSpec,
    BackendParams,
    ConvSpec,
    DepthExhaustedError,
    EncodedMatrix,
    FcSpec,
    LayerCost,
    LayoutKind,
    MatrixLayout,
    NetworkSpec,
    SlotSimulator,
    STOCK_ACT1,
    STOCK_ACT2,
    apply_activation,
    conv_layer,
    decrypt_rows,
    encode_row_major,
    eval_poly,
    fc_layer,
    grid_layout,
    infer,
    infer_images,
    pack_image_batch,
    plan_fc,
    random_network,
    reduced_geometry,
    reference_infer,
    row_major_layout,
    span_kernel,
    spread_to_grid,
    stock_geometry,
)
from hepack.bench import (check_depth_budget, cost_mismatch, predict_layer_costs,
                          predict_op_counts)
from hepack.backend import OP_KINDS
from hepack.linalg import make_valid_region_mask
from hepack.network import fc_schedule
from common import Forwarding, ledger_delta, plaintexts_made, sim


def reduced_net(seed=0, **overrides):
    geo = reduced_geometry() | overrides
    return random_network(np.random.default_rng(seed), **geo), geo


def run_fc(backend, parts, spec):
    """fc_layer over the parts, planned for their layouts as infer plans it."""
    return fc_layer(backend, parts, plan_fc(spec, [x.layout for x in parts]))


# ------------------------------------------------------------- activation

def test_eval_poly_matches_polyval():
    rng = np.random.default_rng(0)
    backend = sim(16)
    x = rng.normal(size=16)
    coeffs = (0.3, -1.2, 0.5, 2.0)
    got = backend.decrypt(eval_poly(backend, backend.encrypt(x), coeffs))
    ref = np.polyval(coeffs[::-1], x)
    assert np.allclose(got, ref, atol=1e-12)


def test_eval_poly_costs_full_depth_even_for_low_degree():
    backend = sim(16)
    for coeffs in [(0.0, 1.0, 0.0, 0.0), (1.0, 2.0, 3.0, 4.0)]:
        before = backend.ledger.snapshot()
        out = eval_poly(backend, backend.encrypt(np.ones(16)), coeffs)
        assert out.budget_bits == 1200 - 2 * 45
        assert ledger_delta(backend, before) == {
            "mul": 2, "cmul": 2, "rot": 0, "add": 3,
            "consumed_bits": 2 * 45 + 2 * 20}


_coeff = st.one_of(st.just(0.0), st.floats(-100, 100))


@st.composite
def _poly_params(draw):
    dc = draw(st.integers(1, 40))
    d = draw(st.integers(dc + 1, 60))
    return BackendParams(log_n=draw(st.integers(1, 7)), delta_bits=d,
                         delta_c_bits=dc,
                         log_q=draw(st.integers(2 * d, 2 * d + 100)))


@settings(max_examples=80, deadline=None)
@given(st.tuples(_coeff, _coeff, _coeff, _coeff), _poly_params(),
       st.lists(st.floats(-8, 8), min_size=1, max_size=64))
@example(coeffs=(0.0, 0.0, 2.0, 0.0),
         params=BackendParams(log_n=1, log_q=4, delta_bits=2, delta_c_bits=1),
         xs=[2.387765951560457e-161])  # a subnormal result
def test_eval_poly_property(coeffs, params, xs):
    backend = SlotSimulator(params)
    x = np.resize(np.array(xs), params.slots)
    before = backend.ledger.snapshot()
    out = eval_poly(backend, backend.encrypt(x), coeffs)
    got = backend.decrypt(out)
    # Relative to the size of the terms, so a sum that cancels is judged
    # against what went into it; the floor keeps subnormal results, whose
    # relative tolerance underflows to 0, from failing on their last bit.
    scale = np.polyval(np.abs(coeffs[::-1]), np.abs(x))
    tol = 1e-12 * scale + np.finfo(float).tiny
    assert np.all(np.abs(got - np.polyval(coeffs[::-1], x)) <= tol)
    d, dc = params.delta_bits, params.delta_c_bits
    assert ledger_delta(backend, before) == {
        "mul": 2, "cmul": 2, "rot": 0, "add": 3,
        "consumed_bits": 2 * d + 2 * dc}
    assert out.budget_bits == params.log_q - 2 * d


def test_activation_constant_lands_on_pad_slots():
    backend = sim(32)
    mat = np.array([[0.5, -0.5, 1.0]] * 4)
    enc = encode_row_major(backend, mat, 8)
    acted = apply_activation(backend, enc, STOCK_ACT2)
    rows = decrypt_rows(backend, acted)
    assert np.allclose(rows[:, 3:], STOCK_ACT2[0], atol=1e-12)


def test_stock_activation_coefficients_are_pinned():
    assert STOCK_ACT1 == (-0.00015120704, 0.4610149, 2.0225089, -1.4511951)
    assert STOCK_ACT2 == (-1.5650465, -0.9943767, 1.6794522, 0.5350255)


# --------------------------------------------------------------- fc layer

def test_fc_layer_row_major_input():
    rng = np.random.default_rng(1)
    backend = sim(8 * 16)
    x = rng.normal(size=(8, 6))
    spec = FcSpec(rng.normal(size=(4, 6)), rng.normal(size=4))
    out = run_fc(backend, [encode_row_major(backend, x, 16)], spec)
    rows = decrypt_rows(backend, out)
    ref = x @ spec.weight.T + spec.bias
    assert np.max(np.abs(rows[:, :4] - ref)) < 1e-9
    assert out.layout == row_major_layout(8, 16, 4)
    # Slots past p keep partial band sums; the next fc layer ignores them.
    assert rows[:, 4:].any()
    nxt = FcSpec(rng.normal(size=(3, 4)), rng.normal(size=3))
    twice = decrypt_rows(backend, run_fc(backend, [out], nxt))
    assert np.max(np.abs(twice[:, :3] - (ref @ nxt.weight.T + nxt.bias))) < 1e-9


def test_fc_layer_grid_input_uses_valid_region():
    # The spread spec reads the 3x4 valid region of each 4x5 grid and
    # puts zero weights on the cells outside it, whatever they hold.
    rng = np.random.default_rng(2)
    backend = sim(4 * 32)
    images = rng.normal(size=(4, 4, 5))
    spec = FcSpec(rng.normal(size=(4, 12)), rng.normal(size=4))
    packed = pack_image_batch(backend, images, 32)
    out = run_fc(backend, [packed], spread_to_grid(spec, 4, 5, 3, 4))
    rows = decrypt_rows(backend, out)
    ref = images[:, :3, :4].reshape(4, -1) @ spec.weight.T + spec.bias
    assert np.max(np.abs(rows[:, :4] - ref)) < 1e-9


def test_fc_layer_multi_channel_grid_input():
    # Two channel ciphertexts feeding one fc layer, channel-major features.
    rng = np.random.default_rng(3)
    backend = sim(4 * 16)
    chan = rng.normal(size=(2, 4, 3, 4))
    spec = FcSpec(rng.normal(size=(4, 12)), rng.normal(size=4))
    parts = [pack_image_batch(backend, chan[c], 16) for c in range(2)]
    out = run_fc(backend, parts, spread_to_grid(spec, 3, 4, 2, 3))
    feats = np.concatenate([chan[c][:, :2, :3].reshape(4, -1) for c in range(2)],
                           axis=1)
    ref = feats @ spec.weight.T + spec.bias
    assert np.max(np.abs(decrypt_rows(backend, out)[:, :4] - ref)) < 1e-9


def test_spread_fc_over_conv_outputs_matches_the_channel_major_flatten():
    # The handoff infer makes: conv channel grids into an fc spread over
    # them equals reference_infer's flatten of the valid regions.
    rng = np.random.default_rng(7)
    net = random_network(rng, **reduced_geometry())
    conv, fc = net.layers[0], net.layers[2]
    images = rng.normal(size=(8, 8, 8))
    backend = sim(8 * 128)
    packed = pack_image_batch(backend, images, 128)
    plans = [span_kernel(conv.kernels[c], conv.biases[c], 8, 8, 8, 128)
             for c in range(conv.channels)]
    parts = conv_layer(backend, packed, plans)
    out = run_fc(backend, parts, spread_to_grid(fc, 8, 8, 6, 6))
    ref = reference_infer(NetworkSpec(8, 8, (conv, fc)), images)
    assert np.max(np.abs(decrypt_rows(backend, out)[:, :fc.out_dim] - ref)) < 1e-9


@pytest.mark.parametrize("in_dim,oh,ow", [(13, 3, 4), (12, 4, 4), (12, 0, 4)])
def test_spread_to_grid_needs_whole_regions_inside_the_grid(in_dim, oh, ow):
    with pytest.raises(ValueError, match=re.escape(
            f"fc layer with {in_dim} inputs does not read whole {oh}x{ow} "
            f"regions of a 3x4 grid")):
        spread_to_grid(FcSpec(np.ones((2, in_dim)), np.zeros(2)), 3, 4, oh, ow)


def test_fc_layer_splits_columns_when_wider_than_batch():
    rng = np.random.default_rng(4)
    backend = sim(8 * 32)
    x = rng.normal(size=(8, 6))
    spec = FcSpec(rng.normal(size=(16, 6)), rng.normal(size=16))
    out = run_fc(backend, [encode_row_major(backend, x, 32)], spec)
    rows = decrypt_rows(backend, out)
    ref = x @ spec.weight.T + spec.bias
    assert np.max(np.abs(rows[:, :16] - ref)) < 1e-9


def test_fc_layer_rejects_a_row_too_short_to_fold():
    # n=6, p=20: the partial sums reach slot 24, so the fold needs
    # p * 2 = 40 slots per row, more than the 32 there are.
    rng = np.random.default_rng(40)
    backend = sim(8 * 32)
    x = rng.normal(size=(8, 6))
    spec = FcSpec(rng.normal(size=(20, 6)), rng.normal(size=20))
    with pytest.raises(ValueError, match="n=6 .* p=20 .* f=32"):
        run_fc(backend, [encode_row_major(backend, x, 32)], spec)


def test_fc_layer_checks_feature_count():
    backend = sim(4 * 8)
    enc = encode_row_major(backend, np.ones((4, 3)), 8)
    with pytest.raises(ValueError, match="expects"):
        run_fc(backend, [enc], FcSpec(np.ones((2, 5)), np.zeros(2)))


def test_fc_layer_needs_an_input_part():
    with pytest.raises(ValueError, match="fc_layer needs at least one input part"):
        run_fc(sim(4 * 8), [], FcSpec(np.ones((2, 3)), np.zeros(2)))


def test_fc_layer_parts_must_share_rows():
    backend = sim(4 * 8)
    parts = [encode_row_major(backend, np.ones((4, 3)), 8),
             encode_row_major(backend, np.ones((2, 3)), 16)]
    with pytest.raises(ValueError, match="disagree"):
        run_fc(backend, parts, FcSpec(np.ones((2, 6)), np.zeros(2)))


def test_fc_layer_runs_only_on_the_layouts_it_was_planned_for():
    backend = sim(4 * 8)
    enc = encode_row_major(backend, np.ones((4, 3)), 8)
    plan = plan_fc(FcSpec(np.ones((2, 3)), np.zeros(2)), [enc.layout])
    narrow = encode_row_major(backend, np.ones((4, 2)), 8)
    for parts in ([enc, enc], [narrow], []):
        with pytest.raises(ValueError, match="differ from the layouts the fc was planned"):
            fc_layer(backend, parts, plan)


def _fold_width(n, p):
    """p*2^L for the fewest folds L that bring p-wide bands over slots
    0..n+p-2 home: the slots per row an fc layer needs."""
    return p << next(l for l in itertools.count() if p << l >= n + p - 1)


@st.composite
def _fc_cases(draw):
    m = draw(st.sampled_from([1, 2, 4]))
    f = draw(st.sampled_from([8, 16, 32, 64]))
    p = draw(st.integers(1, f))
    n_max = max(n for n in range(1, f + 1) if _fold_width(n, p) <= f)
    oh, ow = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        if oh * ow <= n_max and draw(st.booleans()):
            gh = draw(st.integers(oh, n_max // ow))
            shapes.append(("grid", gh, draw(st.integers(ow, n_max // gh))))
        else:
            shapes.append(("rows", draw(st.integers(1, n_max))))
    p2 = draw(st.sampled_from([q for q in range(1, f + 1) if _fold_width(p, q) <= f]))
    return m, f, p, p2, (oh, ow), shapes, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_fc_cases())
def test_fc_layer_property(case):
    m, f, p, p2, (oh, ow), shapes, seed = case
    rng = np.random.default_rng(seed)
    backend = Forwarding(sim(m * f))  # its inherited fold steps reach the recorded rot
    parts, feats, widths, raw, spread = [], [], [], [], []
    for shape in shapes:
        # Junk in every slot the features do not fill: pad slots and
        # invalid grid anchors, as an activation leaves them.
        slots = rng.normal(size=(m, f))
        if shape[0] == "grid":
            _, gh, gw = shape
            x = rng.normal(size=(m, oh, ow))
            for a in range(oh):
                slots[:, a * gw: a * gw + ow] = x[:, a]
            layout = grid_layout(m, f, gh, gw)
        else:
            x = rng.normal(size=(m, shape[1]))
            slots[:, :shape[1]] = x
            layout = row_major_layout(m, f, shape[1])
        feats.append(x.reshape(m, -1))
        widths.append(layout.logical_width)
        raw.append(rng.normal(size=(p, feats[-1].shape[1])))
        spread.append(spread_to_grid(FcSpec(raw[-1], np.zeros(p)), gh, gw, oh, ow).weight
                      if shape[0] == "grid" else raw[-1])
        parts.append(EncodedMatrix(backend.encrypt(slots.reshape(-1)), layout))
    x = np.concatenate(feats, axis=1)
    spec = FcSpec(np.hstack(spread), rng.normal(size=p))

    before, amounts, rot = backend.ledger.snapshot(), set(), backend.rot
    backend.rot = lambda ct, k: amounts.add(k) or rot(ct, k)
    out = run_fc(backend, parts, spec)
    backend.rot = rot
    counts = ledger_delta(backend, before)
    y = x @ np.hstack(raw).T + spec.bias
    assert np.max(np.abs(decrypt_rows(backend, out)[:, :p] - y)) < 1e-9
    assert out.layout == row_major_layout(m, f, p)

    g, n, delta = len(parts), max(widths), backend.params.delta_bits
    baby = min((g * (b - 1) + -(-p // b), b) for b in range(1, p + 1))[1]
    fold = next(l for l in range(f + 1) if p << l >= n + p - 1)
    assert fc_schedule(widths, p, f) == (baby, fold)
    assert counts == {
        "mul": g * p, "cmul": 0,
        "rot": g * (baby - 1) + -(-p // baby) - 1 + fold,
        "add": g * p + fold, "consumed_bits": g * p * delta}
    assert out.ct.budget_bits == 1200 - delta
    # One Galois key per amount: baby steps, the one giant step -B, the folds.
    giants = -(-p // baby)
    chain = {-baby} if giants > 1 else set()
    assert amounts == {-b for b in range(1, baby)} | chain | {p << s for s in range(fold)}
    assert len(amounts) == baby - 1 + (giants > 1) + fold

    # Slots past p hold partial band sums; the next layer must not see them.
    nxt = FcSpec(rng.normal(size=(p2, p)), rng.normal(size=p2))
    twice = decrypt_rows(backend, run_fc(backend, [out], nxt))
    assert np.max(np.abs(twice[:, :p2] - (y @ nxt.weight.T + nxt.bias))) < 1e-9


def test_pad_contamination_is_contained():
    # The cubic's constant term fills pad columns; the next fc layer reads
    # only the logical columns, so the trailing garbage never reaches logits.
    rng = np.random.default_rng(6)
    backend = sim(4 * 8)
    x = rng.normal(size=(4, 3))
    enc = encode_row_major(backend, x, 8)
    acted = apply_activation(backend, enc, STOCK_ACT1)
    pads = decrypt_rows(backend, acted)[:, 3:]
    assert np.allclose(pads, STOCK_ACT1[0], atol=1e-12)
    assert np.abs(pads).max() > 0
    spec = FcSpec(rng.normal(size=(2, 3)), rng.normal(size=2))
    out = run_fc(backend, [acted], spec)
    c0, c1, c2, c3 = STOCK_ACT1
    x_act = c0 + c1 * x + c2 * x ** 2 + c3 * x ** 3
    ref = x_act @ spec.weight.T + spec.bias
    assert np.max(np.abs(decrypt_rows(backend, out)[:, :2] - ref)) < 1e-9


# ----------------------------------------------------------- full network

def test_network_validation():
    conv = ConvSpec(np.ones((1, 2, 2)), np.zeros(1))
    fc = FcSpec(np.ones((2, 9)), np.zeros(2))
    fc_raw = FcSpec(np.ones((2, 16)), np.zeros(2))
    with pytest.raises(ValueError, match="must come first"):
        NetworkSpec(4, 4, (fc_raw, conv, fc))
    with pytest.raises(ValueError, match="expects"):
        NetworkSpec(4, 4, (conv, FcSpec(np.ones((2, 5)), np.zeros(2))))
    with pytest.raises(ValueError, match="4 coefficients"):
        NetworkSpec(4, 4, (conv, ActSpec((1.0, 2.0)), fc))
    with pytest.raises(ValueError, match=re.escape(
            "activation needs 4 coefficients, got shape ()")):
        NetworkSpec(4, 4, (conv, ActSpec(0.5), fc))
    with pytest.raises(ValueError, match="end with an fc"):
        NetworkSpec(4, 4, (conv, ActSpec((0.0,) * 4)))
    with pytest.raises(ValueError, match="unknown layer"):
        NetworkSpec(4, 4, (conv, "relu", fc))
    assert NetworkSpec(4, 4, (conv, fc)).classes == 2


@pytest.mark.parametrize("kernels,biases,fc_shape,fc_bias,cause", [
    ((2, 2, 2), 1, (2, 18), 2, "conv needs 2 biases, one per kernel"),
    ((1, 0, 0), 1, (2, 25), 2, "conv kernels must be (C, k, k)"),
    ((0, 2, 2), 0, (2, 0), 2, "conv kernels must be (C, k, k)"),
    ((1, 2, 3), 1, (2, 9), 2, "conv kernels must be (C, k, k)"),
    ((1, 2, 2), 1, (2, 9), 1, "fc layer 1 needs 2 biases"),
    ((1, 2, 2), 1, (9,), 9, "fc layer 1 weight must be 2-D (out, in)"),
    ((1, 2, 2), 1, (0, 9), 0,
     "fc layer 1 weight must be 2-D (out, in) with out >= 1, got shape (0, 9)"),
    ((1, 5, 5), 1, (2, 1), 2, "conv layer 0 kernel larger than image: k=5 on 4x4"),
], ids=["short-conv-bias", "zero-k", "no-kernels", "non-square", "short-fc-bias",
        "1-d-fc-weight", "no-fc-outputs", "kernel-larger-than-image"])
def test_validate_names_a_layer_of_the_wrong_shape(kernels, biases, fc_shape,
                                                  fc_bias, cause):
    layers = (ConvSpec(np.ones(kernels), np.zeros(biases)),
              FcSpec(np.ones(fc_shape), np.zeros(fc_bias)))
    with pytest.raises(ValueError, match=re.escape(cause)):
        NetworkSpec(4, 4, layers)


@pytest.mark.parametrize("shape", [(2, 10, 10), (8, 8), (1, 8, 8, 1)],
                         ids=["wrong-grid", "no-batch-axis", "4-d"])
def test_reference_infer_refuses_images_of_another_shape(shape):
    net, geo = reduced_net()
    with pytest.raises(ValueError, match=re.escape(
            f"images have shape {shape}, network wants (m, 8, 8)")):
        reference_infer(net, np.zeros(shape))


def test_reference_infer_of_no_images_is_an_empty_logit_batch():
    # As multiply_matrices gives (0, p) for zero rows; a flatten by -1 could not reshape.
    net, geo = reduced_net()
    fc_only = NetworkSpec(2, 2, (FcSpec(np.ones((3, 4)), np.zeros(3)),))
    for spec, classes in ((net, geo["classes"]), (fc_only, 3)):
        out = reference_infer(spec, np.zeros((0, spec.input_h, spec.input_w)))
        assert out.shape == (0, classes)


def test_cost_mismatch_names_layer_lists_that_differ():
    measured = [LayerCost("conv-1"), LayerCost("fc-1")]
    predicted = [LayerCost("conv-1"), LayerCost("act-1"), LayerCost("fc-1")]
    assert cost_mismatch(measured, predicted) == (
        "layers: measured ['conv-1', 'fc-1'], closed form ['conv-1', 'act-1', 'fc-1']")


def finite_checks(monkeypatch) -> list:
    """(size, operand name) of each require_finite call hepack makes from now on."""
    real, checked = hepack.backend.require_finite, []

    def counted(values, what):
        checked.append((np.size(values), what))
        return real(values, what)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hepack") and getattr(mod, "require_finite", None) is real:
            monkeypatch.setattr(mod, "require_finite", counted)
    return checked


def assert_refused_when_made(net, layers, cause):
    # A spec is checked once, when it is made, so no spec reaches an op unchecked.
    with pytest.raises(ValueError, match=re.escape(cause)):
        NetworkSpec(net.input_h, net.input_w, tuple(layers))


@pytest.mark.parametrize("pos,cause", [(0, "conv needs 2 biases"),
                                       (4, "fc layer 4 needs 4 biases")],
                         ids=["conv-1", "fc-2"])
def test_short_bias_fails_before_any_op(pos, cause):
    net, _ = reduced_net()
    layers = list(net.layers)
    if pos == 0:
        layers[0] = ConvSpec(layers[0].kernels, layers[0].biases[:1])
    else:
        layers[pos] = FcSpec(layers[pos].weight, layers[pos].bias[:1])
    assert_refused_when_made(net, layers, cause)


@pytest.mark.parametrize("pos,field,value,cause", [
    (0, "kernels", np.nan, "conv layer 0 kernels has 1 non-finite values (NaN or inf)"),
    (0, "biases", np.inf, "conv layer 0 biases has 1 non-finite values (NaN or inf)"),
    (1, "coeffs", np.inf, "act layer 1 coefficients has 1 non-finite values (NaN or inf)"),
    (2, "weight", np.nan, "fc layer 2 weights has 1 non-finite values (NaN or inf)"),
    (4, "bias", -np.inf, "fc layer 4 biases has 1 non-finite values (NaN or inf)"),
    (2, "weight", 1j, "fc layer 2 weights must be real, got complex values"),
], ids=["conv-tap", "conv-bias", "act-coeff", "fc-1-weight", "fc-2-bias",
        "fc-1-complex-weight"])
def test_non_finite_values_fail_before_any_op(pos, field, value, cause):
    net, _ = reduced_net()
    layers = list(net.layers)
    poisoned = np.array(getattr(layers[pos], field), dtype=np.result_type(float, value))
    poisoned.flat[0] = value
    layers[pos] = dataclasses.replace(layers[pos], **{field: poisoned})
    assert_refused_when_made(net, layers, cause)


@pytest.mark.parametrize("coeff", ["a", None], ids=["str", "none"])
def test_non_numeric_values_fail_before_any_op(coeff):
    net, _ = reduced_net()
    layers = list(net.layers)
    layers[1] = dataclasses.replace(layers[1], coeffs=(coeff, 1.0, 2.0, 3.0))
    assert_refused_when_made(net, layers, "act layer 1 coefficients must be numeric")


@pytest.mark.parametrize("make", [
    lambda: ConvSpec(np.ones((1, 2, 2)), np.zeros(1)),
    lambda: ActSpec(STOCK_ACT1),
    lambda: FcSpec(np.ones((2, 9)), np.zeros(2)),
], ids=["conv", "act", "fc"])
def test_layer_specs_compare_and_hash_by_identity(make):
    # Array fields would make a field-wise == ambiguous and a hash impossible.
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_a_made_spec_is_not_checked_again(monkeypatch):
    # Making a spec checks every weight of every layer once; planning, the
    # closed form and the oracle trust it after that.
    net, geo = reduced_net(seed=31)
    m, f = geo["batch"], geo["row_width"]
    images = np.random.default_rng(32).uniform(size=(m, geo["h"], geo["w"]))
    checked = finite_checks(monkeypatch)
    NetworkSpec(net.input_h, net.input_w, net.layers)
    made = {what for _, what in checked}
    assert made == {"conv layer 0 kernels", "conv layer 0 biases",
                    "act layer 1 coefficients", "fc layer 2 weights",
                    "fc layer 2 biases", "act layer 3 coefficients",
                    "fc layer 4 weights", "fc layer 4 biases"}
    checked.clear()
    net.plan(m, f)
    predict_layer_costs(net, m, f, sim(m * f).params)
    reference_infer(net, images)
    assert checked and made.isdisjoint(what for _, what in checked)


def test_reference_infer_refuses_the_non_finite_images_infer_refuses():
    # The oracle gave NaN logits for a batch the encrypted path refuses.
    net, geo = reduced_net()
    m, f = geo["batch"], geo["row_width"]
    images = np.zeros((m, geo["h"], geo["w"]))
    images[1, 2, 3] = np.nan
    for run in (lambda: infer_images(sim(m * f), net, images, f),
                lambda: reference_infer(net, images)):
        with pytest.raises(ValueError, match=re.escape(
                "images has 1 non-finite values (NaN or inf)")):
            run()


def test_random_network_rejects_misspelt_geometry_keys():
    rng = np.random.default_rng(0)
    with pytest.raises(TypeError):
        random_network(rng, chanels=8, hiden=16)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("geo,cause", [
    (dict(h=2, w=2, k=3), "kernel size k=3 does not fit a 2x2 image"),
    (dict(h=8, w=2, k=3), "kernel size k=3 does not fit a 8x2 image"),
    (dict(k=0), "random_network needs k >= 1, got 0"),
    (dict(channels=0), "random_network needs channels >= 1, got 0"),
    (dict(hidden=0), "random_network needs hidden >= 1, got 0"),
    (dict(classes=0), "random_network needs classes >= 1, got 0"),
], ids=["kernel-over-image", "kernel-over-width", "k", "channels", "hidden",
        "classes"])
def test_random_network_refuses_an_impossible_geometry(geo, cause):
    # Named before anything is drawn, with no numpy warning on the way.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=re.escape(cause)):
        random_network(rng, **reduced_geometry() | geo)
    assert rng.bit_generator.state == state


def test_reference_infer_against_scipy():
    net, geo = reduced_net(seed=7)
    rng = np.random.default_rng(8)
    images = rng.uniform(size=(4, geo["h"], geo["w"]))
    conv, act1, fc1, act2, fc2 = net.layers
    chans = [signal.correlate2d(img, kern, mode="valid") + b
             for img in images
             for kern, b in zip(conv.kernels, conv.biases)]
    x = np.stack(chans).reshape(4, conv.channels, geo["h"] - 2, geo["w"] - 2)

    def cubic(spec, v):
        c0, c1, c2, c3 = spec.coeffs
        return c0 + c1 * v + c2 * v ** 2 + c3 * v ** 3

    x = cubic(act1, x).reshape(4, -1)
    x = cubic(act2, x @ fc1.weight.T + fc1.bias)
    ref = x @ fc2.weight.T + fc2.bias
    assert np.max(np.abs(reference_infer(net, images) - ref)) < 1e-9


def test_reduced_pipeline_matches_reference():
    net, geo = reduced_net(seed=9)
    rng = np.random.default_rng(10)
    images = rng.uniform(size=(geo["batch"], geo["h"], geo["w"]))
    backend = sim(geo["batch"] * geo["row_width"])
    res = infer_images(backend, net, images, geo["row_width"])
    ref = reference_infer(net, images)
    assert res.logits.shape == ref.shape
    assert np.max(np.abs(res.logits - ref)) < 1e-6
    assert np.array_equal(res.logits.argmax(axis=1), ref.argmax(axis=1))


def test_pipeline_with_hidden_wider_than_batch():
    net, geo = reduced_net(seed=11, hidden=16)
    rng = np.random.default_rng(12)
    images = rng.uniform(size=(geo["batch"], geo["h"], geo["w"]))
    backend = sim(geo["batch"] * geo["row_width"])
    res = infer_images(backend, net, images, geo["row_width"])
    assert np.max(np.abs(res.logits - reference_infer(net, images))) < 1e-6


def test_pipeline_with_awkward_class_count():
    net, geo = reduced_net(seed=13, classes=6)
    rng = np.random.default_rng(14)
    images = rng.uniform(size=(geo["batch"], geo["h"], geo["w"]))
    backend = sim(geo["batch"] * geo["row_width"])
    res = infer_images(backend, net, images, geo["row_width"])
    assert np.max(np.abs(res.logits - reference_infer(net, images))) < 1e-6


def test_pipeline_with_encrypted_kernels():
    net, geo = reduced_net(seed=15)
    rng = np.random.default_rng(16)
    images = rng.uniform(size=(geo["batch"], geo["h"], geo["w"]))
    backend = sim(geo["batch"] * geo["row_width"])
    res = infer_images(backend, net, images, geo["row_width"],
                       encrypted_kernels=True)
    assert np.max(np.abs(res.logits - reference_infer(net, images))) < 1e-6
    assert res.depth_bits == 65 + 90 + 45 + 90 + 45


def test_depth_accounting_layer_by_layer():
    net, geo = reduced_net(seed=17)
    rng = np.random.default_rng(18)
    images = rng.uniform(size=(geo["batch"], geo["h"], geo["w"]))
    backend = sim(geo["batch"] * geo["row_width"])
    res = infer_images(backend, net, images, geo["row_width"])
    assert res.layer_depths == [
        ("conv-1", 20), ("act-1", 90), ("fc-1", 45),
        ("act-2", 90), ("fc-2", 45)]
    assert res.depth_bits == 290
    assert res.op_counts["consumed_bits"] > 0


@pytest.mark.parametrize("encrypted", [False, True])
def test_measured_layers_equal_the_closed_form(encrypted):
    net, geo = reduced_net(seed=17)
    rng = np.random.default_rng(18)
    images = rng.uniform(size=(geo["batch"], geo["h"], geo["w"]))
    m, f = geo["batch"], geo["row_width"]
    backend = sim(m * f)
    start = time.perf_counter()
    res = infer_images(backend, net, images, f, encrypted_kernels=encrypted)
    wall = time.perf_counter() - start
    predicted = predict_layer_costs(net, m, f, backend.params, encrypted)
    assert res.layers == predicted
    for kind in ("mul", "cmul", "rot", "add"):
        assert res.op_counts[kind] == sum(getattr(c, kind) for c in res.layers)
    # Each measured row holds its layer's wall time, which equality and
    # cost_mismatch leave out: the closed form's rows hold 0.
    assert all(c.seconds > 0 for c in res.layers)
    assert sum(c.seconds for c in res.layers) < wall
    assert not any(c.seconds for c in predicted)
    assert cost_mismatch(res.layers, predicted) is None


def test_back_to_back_calls_on_one_backend_report_their_own_costs():
    # The rows and op_counts are diffs of the backend's shared ledger: one
    # infer at a time, and each call sees only its own ops.
    net, geo = reduced_net(seed=21)
    rng = np.random.default_rng(22)
    m, f = geo["batch"], geo["row_width"]
    backend = sim(m * f)
    model = predict_layer_costs(net, m, f, backend.params)
    totals = predict_op_counts(net, m, f, backend.params)
    results = [infer_images(backend, net,
                            rng.uniform(size=(m, geo["h"], geo["w"])), f)
               for _ in range(2)]
    for res in results:
        assert res.layers == model
        assert {k: res.op_counts[k] for k in totals} == totals
    assert results[0].op_counts == results[1].op_counts
    ledger = backend.ledger.snapshot()
    assert {k: ledger[k] for k in totals} == {k: 2 * v for k, v in totals.items()}


def test_infer_plans_a_network_once_per_geometry(monkeypatch):
    # The first batch at a rows x row_width geometry plans the spec's layers
    # (it was checked when made); later batches, in either kernel mode, only
    # run ops.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    for name in ("_diagonal_rows", "spread_to_grid", "span_kernel"):
        monkeypatch.setattr(hepack.network, name,
                            counted(name, getattr(hepack.network, name)))
    net, geo = reduced_net(seed=23)
    m, h, w = geo["batch"], geo["h"], geo["w"]
    images = np.random.default_rng(24).uniform(size=(m, h, w))
    planned = ("_diagonal_rows", "spread_to_grid", "span_kernel")
    for f, new in ((128, True), (256, True), (128, False)):
        calls.clear()
        infer_images(sim(m * f), net, images, f)
        assert sorted(calls) == (sorted(planned) if new else [])
        calls.clear()
        res = infer_images(sim(m * f), net, images, f, encrypted_kernels=True)
        assert not calls
        fresh = NetworkSpec(net.input_h, net.input_w, copy.deepcopy(net.layers))
        want = infer_images(sim(m * f), fresh, images, f, encrypted_kernels=True)
        assert res.logits.tobytes() == want.logits.tobytes()
        assert (res.layers, res.op_counts) == (want.layers, want.op_counts)
        assert res.layers == predict_layer_costs(net, m, f, sim(m * f).params, True)
        assert np.max(np.abs(res.logits - reference_infer(net, images))) < 1e-6
    assert net.plan(m, 128) is net.plan(m, 128) is not net.plan(m, 256)
    # A spec is a plain value over layers that compare by identity: over the
    # same layer objects specs are equal and share plans, over copies not.
    same = NetworkSpec(net.input_h, net.input_w, net.layers)
    assert same == net != fresh and len({net, same, fresh}) == 2
    assert same.plan(m, 128) is net.plan(m, 128) is not fresh.plan(m, 128)


@pytest.mark.parametrize("encrypted", [False, True])
def test_a_planned_stock_batch_checks_one_slot_sized_array(encrypted, monkeypatch):
    # Plaintexts are checked once, when they are made: the plan's fc rows
    # and cached masks never again, and conv weights are scalars. So
    # after planning, the only full-slot finiteness pass is the packed
    # images' Plaintext, which encrypt reads them as; the unplanned path
    # made 309 of them per batch.
    geo = stock_geometry()
    net = random_network(np.random.default_rng(0), **geo)
    m, f = geo["batch"], geo["row_width"]
    backend = sim(m * f)
    images = np.random.default_rng(1).uniform(size=(m, geo["h"], geo["w"]))
    infer_images(backend, net, images, f, encrypted_kernels=encrypted)
    checked = finite_checks(monkeypatch)
    res = infer_images(backend, net, images, f, encrypted_kernels=encrypted)
    assert [(size, what) for size, what in checked if size > f] == [
        (m * geo["h"] * geo["w"], "images"), (m * f, "plaintext")]
    assert np.max(np.abs(res.logits - reference_infer(net, images))) < 1e-6


def test_a_pickled_or_copied_spec_leaves_its_plans_behind():
    net, geo = reduced_net(seed=27)
    m, f = geo["batch"], geo["row_width"]
    images = np.random.default_rng(28).uniform(size=(m, geo["h"], geo["w"]))
    size = len(pickle.dumps(net))
    first = infer_images(sim(m * f), net, images, f)
    assert len(pickle.dumps(net)) == size
    for twin in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert twin != net and twin not in hepack.network._planned
        again = infer_images(sim(m * f), twin, images, f)
        assert again.logits.tobytes() == first.logits.tobytes()
    # A shallow copy holds the same layers, so it is equal and shares the plans.
    assert copy.copy(net) == net and copy.copy(net).plan(m, f) is net.plan(m, f)
    assert list(hepack.network._planned[net]) == [(m, f)]


def test_a_planned_network_holds_one_layout_per_geometry():
    net, geo = reduced_net(seed=31)
    m, f, h, w = geo["batch"], geo["row_width"], geo["h"], geo["w"]
    conv, act1, fc1, act2, fc2 = net.plan(m, f)
    assert act1 is act2 is None
    # Each planned layout equals one made afresh and is the factory's one object.
    fresh = MatrixLayout(m, f, h * w, LayoutKind.IMAGE_GRID, grid_h=h, grid_w=w)
    assert all(kp.layout == fresh and kp.layout is grid_layout(m, f, h, w) for kp in conv)
    assert fc1.layouts == tuple(kp.layout for kp in conv)
    for plan, p in ((fc1, geo["hidden"]), (fc2, geo["classes"])):
        assert plan.out_layout == MatrixLayout(m, f, p, LayoutKind.ROW_MAJOR)
        assert plan.out_layout is row_major_layout(m, f, p)
    assert fc2.layouts == (fc1.out_layout,)


def test_planning_keeps_no_spec_alive():
    net, geo = reduced_net(seed=29)
    m, f = geo["batch"], geo["row_width"]
    infer_images(sim(m * f), net, np.zeros((m, geo["h"], geo["w"])), f)
    assert net in hepack.network._planned
    # The plans hold no reference back to their spec, so it dies with its last name.
    gone = weakref.ref(net)
    del net
    gc.collect()
    assert gone() is None


@pytest.mark.parametrize("encrypted", [False, True])
def test_a_planned_stock_batch_makes_one_plaintext(encrypted, monkeypatch):
    # The plans hold every fc row and conv makes none, so a later batch
    # makes only the packed images' Plaintext, in either kernel mode.
    geo = stock_geometry()
    net = random_network(np.random.default_rng(2), **geo)
    m, f = geo["batch"], geo["row_width"]
    backend = sim(m * f)
    images = np.random.default_rng(3).uniform(size=(m, geo["h"], geo["w"]))
    infer_images(backend, net, images, f, encrypted_kernels=encrypted)
    made = plaintexts_made(monkeypatch)
    infer_images(backend, net, images, f, encrypted_kernels=encrypted)
    assert made == [m * f]


@pytest.mark.parametrize("encrypted", [False, True])
def test_planning_makes_no_conv_plaintext(encrypted, monkeypatch):
    # Conv weights and biases are scalars, so the first batch at a geometry
    # makes Plaintexts only for its packed images and the fc rows: per fc
    # layer one diagonal per part and output column, and one bias row.
    net, geo = reduced_net(seed=33)
    m, f, h, w = geo["batch"], geo["row_width"], geo["h"], geo["w"]
    make_valid_region_mask(grid_layout(m, f, h, w), geo["k"])  # the encrypted mask, cached
    made = plaintexts_made(monkeypatch)
    infer_images(sim(m * f), net, np.zeros((m, h, w)), f, encrypted_kernels=encrypted)
    fc_rows = geo["channels"] * geo["hidden"] + 1 + geo["classes"] + 1
    assert sorted(made) == [f] * fc_rows + [m * f]


@pytest.mark.parametrize("make,cause", [
    (lambda: ActSpec(((1.0, 2.0), 3.0, 4.0, 5.0)), "ActSpec coeffs"),
    (lambda: FcSpec([[1.0, 2.0], [3.0]], [0.0, 0.0]), "FcSpec weight"),
    (lambda: ConvSpec([[[1.0, 2.0], [3.0]]], [0.0]), "ConvSpec kernels"),
], ids=["act", "fc", "conv"])
def test_a_ragged_layer_value_is_refused_by_name(make, cause):
    # numpy's own inhomogeneous-shape error names neither the layer nor the field.
    with pytest.raises(ValueError, match=re.escape(
            f"{cause} is ragged: its nested sequences differ in length")):
        make()


@pytest.mark.parametrize("pos,field", [(0, "kernels"), (2, "weight")],
                         ids=["conv-kernel", "fc-weight"])
def test_a_planned_spec_cannot_go_stale(pos, field):
    # The spec owns read-only copies of its arrays and a tuple of its layers,
    # so no edit, to the caller's objects or the spec's, reaches its plans.
    net, geo = reduced_net(seed=25)
    m, f = geo["batch"], geo["row_width"]
    images = np.random.default_rng(26).uniform(size=(m, geo["h"], geo["w"]))
    layers = list(net.layers)
    mine = np.array(getattr(layers[pos], field))
    layers[pos] = dataclasses.replace(layers[pos], **{field: mine})
    spec = NetworkSpec(net.input_h, net.input_w, layers)
    first = infer_images(sim(m * f), spec, images, f)
    with pytest.raises(ValueError, match="read-only"):
        getattr(spec.layers[pos], field)[(0,) * mine.ndim] = 1.0
    mine[(0,) * mine.ndim] = 1.0
    layers[pos] = layers[1]
    again = infer_images(sim(m * f), spec, images, f)
    assert again.logits.tobytes() == first.logits.tobytes()


def test_a_planned_spec_keeps_its_coefficients_when_the_list_changes():
    # ActSpec owns a read-only copy, so neither it nor a list edited after
    # the check, here to NaN, reaches a planned batch.
    net, geo = reduced_net(seed=29)
    m, f = geo["batch"], geo["row_width"]
    images = np.random.default_rng(30).uniform(size=(m, geo["h"], geo["w"]))
    coeffs = list(STOCK_ACT1)
    layers = list(net.layers)
    layers[1] = ActSpec(coeffs)
    spec = NetworkSpec(net.input_h, net.input_w, layers)
    backend = sim(m * f)
    first = infer_images(backend, spec, images, f)
    with pytest.raises(ValueError, match="read-only"):
        spec.layers[1].coeffs[0] = 1.0
    coeffs[:] = [np.nan] * 4
    again = infer_images(backend, spec, images, f)
    assert again.logits.tobytes() == first.logits.tobytes()
    assert (again.layers, again.op_counts, again.depth_bits) == (
        first.layers, first.op_counts, first.depth_bits)


@pytest.mark.parametrize("geometry,encrypted,count", [
    (reduced_geometry, False, 20), (reduced_geometry, True, 38),
    (stock_geometry, False, 266), (stock_geometry, True, 302),
], ids=["reduced", "reduced-encrypted", "stock", "stock-encrypted"])
def test_infer_encrypts_only_weights(geometry, encrypted, count, monkeypatch):
    # Activation constants and biases are plaintext adds. After packing, infer
    # encrypts G*p diagonals per fc layer and, with encrypted kernels, C*k^2
    # conv weights: nothing else.
    geo = geometry()
    net = random_network(np.random.default_rng(0), **geo)
    m, f = geo["batch"], geo["row_width"]
    backend = sim(m * f)
    images = np.random.default_rng(1).uniform(size=(m, geo["h"], geo["w"]))
    packed = pack_image_batch(backend, images, f)
    encrypt, calls = backend.encrypt, []
    monkeypatch.setattr(backend, "encrypt", lambda msg: calls.append(1) or encrypt(msg))
    infer(backend, net, packed, encrypted_kernels=encrypted)
    conv, _, fc1, _, fc2 = net.layers
    weights = conv.channels * fc1.out_dim + fc2.out_dim
    assert len(calls) == count == weights + encrypted * conv.channels * conv.k ** 2


@pytest.mark.parametrize("encrypted", [False, True])
@pytest.mark.parametrize("geometry,keys,layers", [
    (reduced_geometry, 13, {"conv-1": {1, 2, 8, 9, 10, 16, 17, 18},
                            "fc-1": {-1, -2, 8, 16, 32, 64},
                            "fc-2": {-1, -2, 4, 8}}),
    (stock_geometry, 19, {"conv-1": {1, 2, 28, 29, 30, 56, 57, 58},
                          "fc-1": {-1, -2, -3, -4, 64, 128, 256, 512},
                          "fc-2": {-1, -2, 10, 20, 40}}),
], ids=["reduced", "stock"])
def test_infer_rotation_amounts_per_layer(geometry, keys, layers, encrypted,
                                          monkeypatch):
    # Each distinct amount is one Galois key the client makes: conv taps,
    # fc baby steps, one giant step -B per fc layer and the folds.
    geo = geometry()
    net = random_network(np.random.default_rng(0), **geo)
    m, f = geo["batch"], geo["row_width"]
    backend = Forwarding(sim(m * f))  # its inherited fold steps reach the recorded rot
    packed = pack_image_batch(backend, np.zeros((m, geo["h"], geo["w"])), f)
    rot, amounts = backend.rot, []
    monkeypatch.setattr(backend, "rot", lambda ct, k: amounts.append(k) or rot(ct, k))
    res = infer(backend, net, packed, encrypted_kernels=encrypted)
    ends = np.cumsum([c.rot for c in res.layers])
    got = {c.name: set(amounts[end - c.rot:end])
           for c, end in zip(res.layers, ends) if c.rot}
    assert got == layers
    assert len(set(amounts)) == keys


@st.composite
def _networks(draw):
    """A random small network, its geometry and a kernel mode.

    The row width is the smallest power of two that holds the image and
    both fc folds, doubled on some draws, so every draw runs.
    """
    h, w = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    k, channels = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    hidden, classes = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    need = max(_fold_width(h * w, hidden), _fold_width(hidden, classes))
    f = (1 << (need - 1).bit_length()) << draw(st.integers(0, 1))
    geo = dict(h=h, w=w, k=k, channels=channels, hidden=hidden, classes=classes,
               batch=draw(st.sampled_from([1, 2, 4])), row_width=f)
    seed = draw(st.integers(0, 2**32 - 1))
    return geo, draw(st.booleans()), seed, draw(st.integers(0, 4))


@settings(max_examples=60, deadline=None)
@given(_networks())
def test_whole_network_property(case):
    geo, encrypted, seed, cut = case
    rng = np.random.default_rng(seed)
    net = random_network(rng, **geo)
    m, f = geo["batch"], geo["row_width"]
    images = rng.uniform(size=(m, geo["h"], geo["w"]))
    params = BackendParams.for_slots(m * f)
    res = infer_images(SlotSimulator(params), net, images, f,
                       encrypted_kernels=encrypted)
    ref = reference_infer(net, images)
    assert np.max(np.abs(res.logits - ref)) <= 1e-9 * np.max(np.abs(ref))
    assert np.array_equal(res.logits.argmax(axis=1), ref.argmax(axis=1))
    assert res.layers == predict_layer_costs(net, m, f, params, encrypted)

    # One bit short of the depth through layer `cut`: the closed form and the
    # run must give up in the same layer.
    depth = np.cumsum([c.depth_bits for c in res.layers])
    shallow = BackendParams.for_slots(
        m * f, log_q=max(int(depth[cut]) - 1, params.delta_bits + 1))
    first = next(c.name for c, d in zip(res.layers, depth) if d > shallow.log_q)
    cause = f"^budget exhausted in layer {first}:"
    with pytest.raises(DepthExhaustedError, match=cause):
        check_depth_budget(net, m, f, shallow, encrypted)
    with pytest.raises(DepthExhaustedError, match=cause):
        infer_images(SlotSimulator(shallow), net, images, f,
                     encrypted_kernels=encrypted)


def test_infer_rejects_mismatched_batch():
    # The refusal names the packed layout and the network's input, before any op.
    net, geo = reduced_net(seed=19)
    m, f = geo["batch"], geo["row_width"]
    backend = sim(m * f)
    for packed, layout in (
            (pack_image_batch(backend, np.ones((m, 6, 6)), f), "image_grid layout has a 6x6"),
            (pack_image_batch(backend, np.ones((m, 10, 10)), f),
             "image_grid layout has a 10x10"),
            (encode_row_major(backend, np.ones((m, 64)), f), "row_major layout has no")):
        with pytest.raises(ValueError, match=re.escape(
                f"packed batch does not match the network geometry: its {layout} "
                f"grid, the network takes 8x8 images")):
            infer(backend, net, packed)
    assert backend.ledger.counts == dict.fromkeys(OP_KINDS, 0)


def test_shallow_budget_fails_in_a_named_layer():
    net, geo = reduced_net(seed=20)
    rng = np.random.default_rng(21)
    images = rng.uniform(size=(geo["batch"], geo["h"], geo["w"]))
    backend = sim(geo["batch"] * geo["row_width"], log_q=100)
    with pytest.raises(DepthExhaustedError, match="in layer act-1"):
        infer_images(backend, net, images, geo["row_width"])


@pytest.mark.parametrize("encrypted", [False, True])
def test_budget_check_names_the_layer_a_run_fails_in(encrypted):
    net, geo = reduced_net(seed=22)
    rng = np.random.default_rng(23)
    images = rng.uniform(size=(geo["batch"], geo["h"], geo["w"]))
    m, f = geo["batch"], geo["row_width"]
    depths = [c.depth_bits for c in predict_layer_costs(
        net, m, f, BackendParams.for_slots(m * f), encrypted)]
    edges = {int(e) + s for e in np.cumsum(depths) for s in (-1, 0)}
    for log_q in sorted(q for q in edges if q > 45):
        params = BackendParams.for_slots(m * f, log_q=log_q)
        try:
            check_depth_budget(net, m, f, params, encrypted)
        except DepthExhaustedError as e:
            layer = str(e).split(":")[0]
            with pytest.raises(DepthExhaustedError, match=f"^{layer}:"):
                infer_images(SlotSimulator(params), net, images, f,
                             encrypted_kernels=encrypted)
        else:
            res = infer_images(SlotSimulator(params), net, images, f,
                               encrypted_kernels=encrypted)
            assert res.depth_bits == sum(depths) <= log_q


def test_geometry_presets():
    stock = stock_geometry()
    assert (stock["h"], stock["w"], stock["k"]) == (28, 28, 3)
    assert (stock["channels"], stock["hidden"], stock["classes"]) == (4, 64, 10)
    assert stock["batch"] * stock["row_width"] == 32768
    net = random_network(np.random.default_rng(0), **stock)
    assert net.layers[2].weight.shape == (64, 2704)
    reduced = reduced_geometry()
    assert reduced["batch"] * reduced["row_width"] == 1024
