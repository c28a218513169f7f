import dataclasses
import re

import numpy as np
import pytest

from hepack import (
    FcSpec,
    NetworkSpec,
    WeightsParseError,
    load_weights_csv,
    random_network,
    reduced_geometry,
    save_weights_csv,
    stock_geometry,
)


def test_round_trip_is_bitwise(tmp_path):
    net = random_network(np.random.default_rng(0), **reduced_geometry())
    path = tmp_path / "w.csv"
    save_weights_csv(net, path)
    back = load_weights_csv(path)
    assert (back.input_h, back.input_w) == (net.input_h, net.input_w)
    conv_a, act1_a, fc1_a, act2_a, fc2_a = net.layers
    conv_b, act1_b, fc1_b, act2_b, fc2_b = back.layers
    assert np.array_equal(conv_a.kernels, conv_b.kernels)
    assert np.array_equal(conv_a.biases, conv_b.biases)
    assert np.array_equal(act1_a.coeffs, act1_b.coeffs)
    assert np.array_equal(act2_a.coeffs, act2_b.coeffs)
    assert np.array_equal(fc1_a.weight, fc1_b.weight)
    assert np.array_equal(fc1_a.bias, fc1_b.bias)
    assert np.array_equal(fc2_a.weight, fc2_b.weight)
    assert np.array_equal(fc2_a.bias, fc2_b.bias)


def test_stock_shapes_survive_the_file(tmp_path):
    net = random_network(np.random.default_rng(1), **stock_geometry())
    path = tmp_path / "stock.csv"
    save_weights_csv(net, path)
    back = load_weights_csv(path)
    assert back.layers[0].kernels.shape == (4, 3, 3)
    assert back.layers[2].weight.shape == (64, 2704)
    assert back.layers[4].weight.shape == (10, 64)
    # one header + 4 channels, two acts, fc headers + rows + biases
    lines = path.read_text().splitlines()
    assert len(lines) == (1 + 4) + 1 + (1 + 64 + 1) + 1 + (1 + 10 + 1)


def write(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    return path


GOOD_HEAD = "#conv 2 3 3 1\n1.0,0.0,0.0,1.0,0.5\n"
GOOD_TAIL = "#fc 2 4\n1.0,0.0,0.0,0.0\n0.0,1.0,0.0,0.0\n0.1,0.2\n"


def test_minimal_file_parses(tmp_path):
    net = load_weights_csv(write(tmp_path, GOOD_HEAD + GOOD_TAIL))
    assert len(net.layers) == 2
    assert net.classes == 2


def test_non_numeric_cell_names_its_line(tmp_path):
    path = write(tmp_path, "#conv 2 3 3 1\n1.0,0.0,zap,1.0,0.5\n" + GOOD_TAIL)
    with pytest.raises(WeightsParseError, match="line 2: non-numeric"):
        load_weights_csv(path)


@pytest.mark.parametrize("act", ["0.0 zap 1.0 2.0", "0.0 1.0,2.0 3.0 4.0"],
                         ids=["word", "comma"])
def test_non_numeric_act_coefficient_names_its_line(tmp_path, act):
    # #act cells are whitespace separated, so a comma makes a cell non-numeric.
    path = write(tmp_path, GOOD_HEAD + f"#act {act}\n" + GOOD_TAIL)
    cause = f"line 3: non-numeric value in '{act}'"
    with pytest.raises(WeightsParseError, match=re.escape(cause)):
        load_weights_csv(path)


@pytest.mark.parametrize("text,where", [
    (GOOD_HEAD + "#fc 2 4\n1.0,nan,0.0,0.0\n0.0,1.0,0.0,0.0\n0.1,0.2\n", "line 4"),
    (GOOD_HEAD + "#act 0.0 1.0 inf 0.0\n" + GOOD_TAIL, "line 3"),
])
def test_non_finite_value_names_its_line(tmp_path, text, where):
    with pytest.raises(WeightsParseError, match=f"{where}: non-finite value"):
        load_weights_csv(write(tmp_path, text))


def test_wrong_value_count_names_its_line(tmp_path):
    path = write(tmp_path, "#conv 2 3 3 1\n1.0,0.0,1.0,0.5\n" + GOOD_TAIL)
    with pytest.raises(WeightsParseError, match="line 2: expected 5 values"):
        load_weights_csv(path)


def test_truncated_fc_section_names_what_was_missing(tmp_path):
    path = write(tmp_path, GOOD_HEAD + "#fc 2 4\n1.0,0.0,0.0,0.0\n")
    with pytest.raises(WeightsParseError, match="fc weight row"):
        load_weights_csv(path)


def test_file_ended_names_the_last_line(tmp_path):
    path = write(tmp_path, "#conv 2 3 3 2\n\n1.0,0.0,0.0,1.0,0.5")
    with pytest.raises(WeightsParseError,
                       match="line 3: file ended inside a conv channel line"):
        load_weights_csv(path)


def test_missing_bias_line_is_reported(tmp_path):
    path = write(tmp_path, GOOD_HEAD + "#fc 1 4\n1.0,0.0,0.0,0.0\n")
    with pytest.raises(WeightsParseError, match="bias line"):
        load_weights_csv(path)


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, GOOD_HEAD + "#pool 2\n" + GOOD_TAIL)
    with pytest.raises(WeightsParseError, match="unknown section"):
        load_weights_csv(path)


def test_stray_data_line_rejected(tmp_path):
    path = write(tmp_path, "1.0,2.0\n" + GOOD_HEAD + GOOD_TAIL)
    with pytest.raises(WeightsParseError, match="section header"):
        load_weights_csv(path)


def test_network_must_open_with_conv(tmp_path):
    path = write(tmp_path, "#fc 2 4\n1,0,0,0\n0,1,0,0\n0.1,0.2\n")
    with pytest.raises(WeightsParseError, match="#conv"):
        load_weights_csv(path)


def test_save_needs_a_leading_conv_layer(tmp_path):
    # Only a #conv header records the input size, so such a file could
    # not be loaded back.
    net = NetworkSpec(2, 2, (FcSpec(np.eye(4)[:2], np.zeros(2)),))
    path = tmp_path / "w.csv"
    with pytest.raises(ValueError, match="first layer is not a conv layer"):
        save_weights_csv(net, path)
    assert not path.exists()


def test_save_refuses_a_network_that_load_would_refuse(tmp_path):
    net = random_network(np.random.default_rng(0), **reduced_geometry())
    kernels = net.layers[0].kernels.copy()
    kernels[0, 1, 1] = np.nan
    layers = (dataclasses.replace(net.layers[0], kernels=kernels),) + net.layers[1:]
    path = tmp_path / "w.csv"
    with pytest.raises(ValueError, match=re.escape(
            "conv layer 0 kernels has 1 non-finite values (NaN or inf)")):
        save_weights_csv(NetworkSpec(net.input_h, net.input_w, layers), path)
    assert not path.exists()


def test_bad_act_arity(tmp_path):
    path = write(tmp_path, GOOD_HEAD + "#act 1.0 2.0\n" + GOOD_TAIL)
    with pytest.raises(WeightsParseError, match="act needs"):
        load_weights_csv(path)


@pytest.mark.parametrize("text,cause", [
    ("#conv 2 3 3\n" + GOOD_TAIL, "line 1: #conv needs k h w out_channels"),
    (GOOD_HEAD + "#fc 2\n", "line 3: #fc needs rows cols"),
], ids=["conv-three-sizes", "fc-one-size"])
def test_header_with_the_wrong_field_count_names_its_line(tmp_path, text, cause):
    with pytest.raises(WeightsParseError, match=cause):
        load_weights_csv(write(tmp_path, text))


def test_inconsistent_dimensions_are_caught(tmp_path):
    path = write(tmp_path, GOOD_HEAD + "#fc 2 9\n" +
                 "1,0,0,0,0,0,0,0,0\n0,1,0,0,0,0,0,0,0\n0.1,0.2\n")
    with pytest.raises(WeightsParseError, match="inconsistent network"):
        load_weights_csv(path)


def test_non_integer_header_field(tmp_path):
    path = write(tmp_path, "#conv 2 3 3 one\n1,0,0,1,0.5\n" + GOOD_TAIL)
    with pytest.raises(WeightsParseError, match="non-integer"):
        load_weights_csv(path)


ZERO_K_CONV = ("#conv 0 4 4 1\n0.5\n#fc 2 25\n" + ",".join(["0"] * 25) + "\n"
               + ",".join(["0"] * 25) + "\n0.1,0.2\n")


@pytest.mark.parametrize("text,cause", [
    (ZERO_K_CONV, r"line 1: #conv sizes must be positive, got \(0, 4, 4, 1\)"),
    ("#conv 3 4 4 -1\n" + GOOD_TAIL, r"line 1: #conv sizes must be positive"),
    (GOOD_HEAD + "#fc -2 9\n", r"line 3: #fc sizes must be positive"),
], ids=["zero-k", "negative-channels", "negative-fc-rows"])
def test_non_positive_header_size_names_its_line(tmp_path, text, cause):
    with pytest.raises(WeightsParseError, match=cause):
        load_weights_csv(write(tmp_path, text))
