import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hepack import (
    CipherVec,
    SlotSimulator,
    conv_layer,
    convolve_images,
    decrypt_rows,
    encode_row_major,
    he_conv,
    pack_image_batch,
    span_kernel,
)
from hepack.linalg import make_valid_region_mask
from hepack.network import reduced_geometry
from common import conv_oracle, ledger_delta, plaintexts_made, sim


KERNEL_2X2 = np.array([[1.0, 2.0], [3.0, 4.0]])


def span_grid(plan, di, dj):
    for sdi, sdj, span in plan.spans:
        if (sdi, sdj) == (di, dj):
            h, w = plan.layout.grid_h, plan.layout.grid_w
            return span[: h * w].reshape(h, w)
    raise AssertionError("span not found")


def test_spans_tile_a_4x4_grid():
    plan = span_kernel(KERNEL_2X2, 0.0, 4, 4, rows=1, row_width=16)
    assert np.array_equal(span_grid(plan, 0, 0), [[1, 2, 1, 2],
                                                  [3, 4, 3, 4],
                                                  [1, 2, 1, 2],
                                                  [3, 4, 3, 4]])
    assert np.array_equal(span_grid(plan, 0, 1), [[0, 1, 2, 0],
                                                  [0, 3, 4, 0],
                                                  [0, 1, 2, 0],
                                                  [0, 3, 4, 0]])
    assert np.array_equal(span_grid(plan, 1, 0), [[0, 0, 0, 0],
                                                  [1, 2, 1, 2],
                                                  [3, 4, 3, 4],
                                                  [0, 0, 0, 0]])
    assert np.array_equal(span_grid(plan, 1, 1), [[0, 0, 0, 0],
                                                  [0, 1, 2, 0],
                                                  [0, 3, 4, 0],
                                                  [0, 0, 0, 0]])


@pytest.mark.parametrize("encrypted", [False, True])
def test_zero_batch_reads_the_bias_on_exactly_the_valid_region(encrypted):
    backend = sim(64)
    packed = pack_image_batch(backend, np.zeros((2, 4, 4)), row_width=32)
    plans = [span_kernel(KERNEL_2X2, bias, 4, 4, rows=2, row_width=32)
             for bias in (7.0, -2.5)]
    outs = conv_layer(backend, packed, plans, encrypted_kernels=encrypted)
    for bias, out in zip((7.0, -2.5), outs):
        rows = decrypt_rows(backend, out)
        if not encrypted:  # unmasked: every slot holds a partial sum, 0 here, plus the bias
            assert np.array_equal(rows, np.full((2, 32), bias))
            continue
        valid = np.zeros((4, 4))
        valid[:3, :3] = bias
        for row in rows:
            assert np.array_equal(row[:16].reshape(4, 4), valid)
            assert not row[16:].any()  # pad slots


@pytest.mark.parametrize("h,w,k", [(5, 6, 3), (4, 4, 2), (3, 7, 2)])
def test_span_cell_formula(h, w, k):
    rng = np.random.default_rng(h + w + k)
    kern = rng.normal(size=(k, k))
    plan = span_kernel(kern, 0.0, h, w, rows=2, row_width=64)
    for di in range(k):
        for dj in range(k):
            grid = span_grid(plan, di, dj)
            for r in range(h):
                for c in range(w):
                    a, b = r - (r - di) % k, c - (c - dj) % k
                    inside = (a >= di and a + k <= h and b >= dj and b + k <= w
                              and (a - di) % k == 0 and (b - dj) % k == 0)
                    expect = kern[(r - di) % k, (c - dj) % k] if inside else 0.0
                    assert grid[r, c] == expect


def test_span_kernel_validation():
    with pytest.raises(ValueError):
        span_kernel(np.ones((2, 3)), 0.0, 4, 4, 1, 16)
    with pytest.raises(ValueError):
        span_kernel(np.ones((5, 5)), 0.0, 4, 4, 1, 16)
    with pytest.raises(ValueError):
        span_kernel(np.ones((2, 2)), 0.0, 5, 5, 1, 16)
    with pytest.raises(ValueError, match="rows must be a power of two, got 3"):
        span_kernel(np.ones((2, 2)), 0.0, 3, 4, 3, 12)
    with pytest.raises(ValueError, match=re.escape(
            "conv kernel has 1 non-finite values (NaN or inf)")):
        span_kernel([[1.0, np.nan], [0.0, 0.0]], 0.0, 4, 4, 1, 16)
    with pytest.raises(ValueError, match=re.escape(
            "conv bias has 1 non-finite values (NaN or inf)")):
        span_kernel(np.ones((2, 2)), np.inf, 4, 4, 1, 16)
    with pytest.raises(ValueError, match=re.escape(
            "conv bias must be a scalar, got shape (1,)")):
        span_kernel(np.ones((2, 2)), np.array([0.5]), 4, 4, 1, 16)
    with pytest.raises(ValueError, match="conv bias must be a scalar"):
        convolve_images(np.ones((2, 4, 4)), np.ones((2, 2)), bias=np.array([0.5]))
    with pytest.raises(ValueError, match="conv kernel has 1 non-finite"):
        convolve_images(np.ones((2, 4, 4)), [[1.0, np.nan], [0.0, 0.0]])


@pytest.mark.parametrize("mode", ["plain", "encrypted"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("h,w", [(3, 3), (4, 5), (7, 6)])
def test_convolution_matches_oracle(mode, k, h, w):
    rng = np.random.default_rng(h * 100 + w * 10 + k)
    images = rng.normal(size=(4, h, w))
    kern = rng.normal(size=(k, k))
    got = convolve_images(images, kern, bias=0.5,
                          encrypted_kernels=(mode == "encrypted"))
    ref = conv_oracle(images, kern, 0.5)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) < 1e-9


def test_delta_kernel_copies_the_window_corner():
    rng = np.random.default_rng(1)
    images = rng.normal(size=(2, 5, 5))
    out = convolve_images(images, [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(out, images[:, :4, :4], atol=1e-12)


def test_batch_matches_single_image_runs_bitwise():
    rng = np.random.default_rng(2)
    images = rng.normal(size=(4, 6, 6))
    kern = rng.normal(size=(3, 3))
    batched = convolve_images(images, kern, bias=0.25)
    for i in range(4):
        single = convolve_images(images[i:i + 1], kern, bias=0.25)
        assert np.array_equal(batched[i], single[0])


def test_plaintext_kernel_costs():
    backend = sim(4 * 64)
    packed = pack_image_batch(backend, np.ones((4, 6, 6)), 64)
    plan = span_kernel(np.ones((3, 3)), 1.0, 6, 6, 4, 64)
    before = backend.ledger.snapshot()
    out = he_conv(backend, packed, plan)
    assert ledger_delta(backend, before) == {
        "mul": 0, "cmul": 9, "rot": 9 - 1, "add": 9,
        "consumed_bits": 9 * 20}
    assert out.ct.budget_bits == 1200 - 20


def test_encrypted_kernel_costs():
    backend = sim(4 * 64)
    packed = pack_image_batch(backend, np.ones((4, 6, 6)), 64)
    plan = span_kernel(np.ones((3, 3)), 1.0, 6, 6, 4, 64)
    before = backend.ledger.snapshot()
    out = he_conv(backend, packed, plan, encrypted_kernels=True)
    assert ledger_delta(backend, before) == {
        "mul": 9, "cmul": 1, "rot": 9 - 1, "add": 9,
        "consumed_bits": 9 * 45 + 20}
    assert out.ct.budget_bits == 1200 - (45 + 20)


def test_conv_layer_runs_every_kernel():
    rng = np.random.default_rng(3)
    images = rng.normal(size=(2, 5, 5))
    kerns = rng.normal(size=(3, 2, 2))
    biases = [0.1, -0.2, 0.3]
    backend = sim(2 * 32)
    packed = pack_image_batch(backend, images, 32)
    plans = [span_kernel(k, b, 5, 5, 2, 32) for k, b in zip(kerns, biases)]
    outs = conv_layer(backend, packed, plans)
    assert len(outs) == 3
    for out, kern, bias in zip(outs, kerns, biases):
        grid = backend.decrypt(out.ct).reshape(2, 32)[:, :25].reshape(2, 5, 5)
        ref = conv_oracle(images, kern, bias)
        assert np.max(np.abs(grid[:, :4, :4] - ref)) < 1e-9


@pytest.mark.parametrize("encrypted", [False, True])
def test_conv_layer_makes_no_plaintext(monkeypatch, encrypted):
    # A tap weight and a bias are scalars; only the encrypted path reads a
    # Plaintext, the valid-region mask, and that one is cached.
    rng = np.random.default_rng(5)
    backend = sim(2 * 32)
    packed = pack_image_batch(backend, rng.uniform(size=(2, 5, 5)), 32)
    plans = [span_kernel(rng.normal(size=(2, 2)), b, 5, 5, 2, 32) for b in (0.1, -0.2, 0.3)]
    make_valid_region_mask(packed.layout, 2)  # cached from here on
    made = plaintexts_made(monkeypatch)
    conv_layer(backend, packed, plans, encrypted_kernels=encrypted)
    assert made == []


def test_kernel_modes_agree_bitwise_on_the_valid_anchors():
    # Guards the scalar-weight path: w_uv * tap, summed in the same order
    # and plus the bias, is what the encrypted path computes before its
    # mask, so the valid anchors agree to the bit.
    geo = reduced_geometry()
    m, f, h, w = geo["batch"], geo["row_width"], geo["h"], geo["w"]
    rng = np.random.default_rng(31)
    images = rng.normal(size=(m, h, w))
    k = 5
    plans = [span_kernel(rng.normal(size=(k, k)), rng.normal(), h, w, m, f)
             for _ in range(3)]
    runs = []
    for encrypted in (False, True):
        backend = sim(m * f)
        outs = conv_layer(backend, pack_image_batch(backend, images, f), plans, encrypted)
        runs.append([decrypt_rows(backend, o)[:, :h * w].reshape(m, h, w)[:, :h - k + 1, :w - k + 1]
                     for o in outs])
    for plain, enc in zip(*runs):
        assert plain.tobytes() == enc.tobytes()


def test_kernel_plans_compare_by_identity_and_hash():
    a = span_kernel(KERNEL_2X2, 0.5, 4, 4, 2, 32)
    b = span_kernel(KERNEL_2X2, 0.5, 4, 4, 2, 32)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert {a: "first", b: "second"}[a] == "first"


def test_he_conv_geometry_checks():
    backend = sim(2 * 32)
    packed = pack_image_batch(backend, np.ones((2, 5, 5)), 32)
    wrong = span_kernel(np.ones((2, 2)), 0.0, 4, 4, 2, 32)
    with pytest.raises(ValueError, match="geometry"):
        he_conv(backend, packed, wrong)


def test_conv_layer_rejects_mixed_kernel_sizes():
    backend = sim(2 * 32)
    packed = pack_image_batch(backend, np.ones((2, 5, 5)), 32)
    plans = [span_kernel(np.ones((k, k)), 0.0, 5, 5, 2, 32) for k in (2, 3, 2)]
    with pytest.raises(ValueError, match=r"mix sizes \[2, 3\]"):
        conv_layer(backend, packed, plans)
    with pytest.raises(ValueError, match="at least one"):
        conv_layer(backend, packed, [])


def test_conv_layer_needs_an_image_grid():
    backend = sim(2 * 32)
    rows = encode_row_major(backend, np.ones((2, 25)), 32)
    plan = span_kernel(np.ones((2, 2)), 0.0, 5, 5, 2, 32)
    with pytest.raises(ValueError, match="conv_layer needs an image-grid layout"):
        conv_layer(backend, rows, [plan])


def test_convolve_images_requires_power_of_two_batch():
    with pytest.raises(ValueError, match="power of two"):
        convolve_images(np.ones((3, 4, 4)), np.ones((2, 2)))


@pytest.mark.parametrize("images,kernel,cause", [
    (np.ones((2, 4, 4)), 1.0, r"conv kernel must be 2-D, got shape \(\)"),
    (np.ones((4, 4)), np.ones((2, 2)), r"images must be 3-D, got shape \(4, 4\)"),
    (np.ones((2, 4, 4)), np.ones((2, 3)), r"conv kernel must be square, got shape \(2, 3\)"),
], ids=["scalar-kernel", "2-d-images", "non-square-kernel"])
def test_convolve_images_names_a_bad_operand(images, kernel, cause):
    with pytest.raises(ValueError, match=cause):
        convolve_images(images, kernel)


def test_encrypted_kernel_sum_streams_its_tap_products():
    # 25 shared taps must stay alive; the 25 tap products must not.
    m, f, h = 32, 1024, 28
    ct_bytes = m * f * 8
    rng = np.random.default_rng(5)
    backend = sim(m * f)
    packed = pack_image_batch(backend, rng.normal(size=(m, h, h)), f)
    plan = span_kernel(rng.normal(size=(5, 5)), 0.1, h, h, m, f)
    tracemalloc.start()
    try:
        outs = conv_layer(backend, packed, [plan], encrypted_kernels=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(outs) == 1
    assert peak < 40 * ct_bytes, f"peak {peak / ct_bytes:.1f} ciphertexts"


class TilingSimulator(SlotSimulator):
    """A simulator whose every ciphertext owns a slot-sized buffer, one-value ones too."""

    def encrypt(self, message):
        ct = super().encrypt(message)
        return CipherVec(np.array(ct.slots), ct.budget_bits)


def test_encrypted_kernels_match_tiled_constant_ciphertexts():
    # Holding each encrypted weight as one value changes no output bit and no count.
    geo = reduced_geometry()
    m, f, h, w = geo["batch"], geo["row_width"], geo["h"], geo["w"]
    rng = np.random.default_rng(29)
    images = rng.normal(size=(m, h, w))
    plans = [span_kernel(rng.normal(size=(5, 5)), rng.normal(), h, w, m, f)
             for _ in range(3)]
    strides, runs = [], []
    for backend in (sim(m * f), TilingSimulator(sim(m * f).params)):
        strides.append(backend.encrypt(plans[0].kernel[0, 0]).slots.strides)
        packed = pack_image_batch(backend, images, f)
        outs = conv_layer(backend, packed, plans, encrypted_kernels=True)
        runs.append(([(backend.decrypt(o.ct).tobytes(), o.ct.budget_bits) for o in outs],
                     backend.ledger.snapshot()))
    assert strides == [(0,), (8,)]
    assert runs[0] == runs[1]
    assert runs[0][1]["mul"] == 3 * 25


@st.composite
def _conv_layers(draw):
    h, w = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    k = draw(st.integers(1, min(h, w)))
    batch = draw(st.sampled_from([1, 2, 4]))
    spare = draw(st.sampled_from([1, 2]))  # 2 leaves a whole pad half per row
    return (h, w, k, batch, spare, draw(st.integers(1, 3)), draw(st.booleans()),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(_conv_layers())
def test_conv_layer_property(case):
    h, w, k, batch, spare, channels, encrypted, seed = case
    rng = np.random.default_rng(seed)
    f = spare << (h * w - 1).bit_length()
    images = rng.normal(size=(batch, h, w))
    kerns = rng.normal(size=(channels, k, k))
    biases = rng.normal(size=channels)
    plans = [span_kernel(kern, b, h, w, batch, f) for kern, b in zip(kerns, biases)]

    backend = sim(batch * f)
    packed = pack_image_batch(backend, images, f)
    before = backend.ledger.snapshot()
    outs = conv_layer(backend, packed, plans, encrypted)
    got = [backend.decrypt(o.ct) for o in outs]
    delta = ledger_delta(backend, before)
    budgets = [o.ct.budget_bits for o in outs]
    oh, ow = h - k + 1, w - k + 1
    for slots, kern, bias in zip(got, kerns, biases):
        rows = slots.reshape(batch, f)
        grid = rows[:, : h * w].reshape(batch, h, w)
        assert np.max(np.abs(grid[:, :oh, :ow] - conv_oracle(images, kern, bias))) < 1e-9
        if encrypted:  # only the encrypted path's mask specifies the other slots
            off = np.ones((h, w), dtype=bool)
            off[:oh, :ow] = False
            assert np.all(grid[:, off] == 0.0)
            assert np.all(rows[:, h * w:] == 0.0)

    params = backend.params
    taps = k * k
    mul = channels * taps if encrypted else 0
    cmul = channels if encrypted else channels * taps
    assert delta == {
        "mul": mul, "cmul": cmul, "rot": taps - 1, "add": channels * taps,
        "consumed_bits": mul * params.delta_bits + cmul * params.delta_c_bits}
    depth = params.delta_c_bits + (params.delta_bits if encrypted else 0)
    assert budgets == [params.log_q - depth] * channels
