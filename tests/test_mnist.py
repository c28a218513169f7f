import re
import struct

import numpy as np
import pytest

from hepack import (
    image_blocks,
    load_idx_images,
    load_idx_labels,
    load_mnist,
    write_idx_images,
    write_idx_labels,
)


def test_image_round_trip_and_scaling(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
    path = tmp_path / "imgs"
    write_idx_images(path, raw)
    back = load_idx_images(path)
    assert back.shape == (7, 5, 4)
    assert back.dtype == np.float64
    assert np.array_equal(back, raw / 255.0)
    assert back.max() <= 1.0 and back.min() >= 0.0


def test_label_round_trip(tmp_path):
    labels = np.array([0, 9, 3, 7], dtype=np.uint8)
    path = tmp_path / "labels"
    write_idx_labels(path, labels)
    back = load_idx_labels(path)
    assert back.dtype == np.int64
    assert np.array_equal(back, labels)


def test_load_mnist_cross_checks_counts(tmp_path):
    write_idx_images(tmp_path / "i", np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / "l", np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError, match="3 images but 4 labels"):
        load_mnist(tmp_path / "i", tmp_path / "l")
    write_idx_labels(tmp_path / "l3", np.zeros(3, dtype=np.uint8))
    images, labels = load_mnist(tmp_path / "i", tmp_path / "l3")
    assert images.shape == (3, 2, 2)
    assert labels.shape == (3,)


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">IIII", 0x00000802, 1, 2, 2) + bytes(4))
    with pytest.raises(ValueError, match="bad image magic"):
        load_idx_images(path)
    with pytest.raises(ValueError, match="bad label magic"):
        load_idx_labels(path)


def test_truncated_files_are_rejected(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(5))
    with pytest.raises(ValueError, match="truncated payload"):
        load_idx_images(path)
    path.write_bytes(struct.pack(">II", 0x00000803, 1))
    with pytest.raises(ValueError, match="truncated"):
        load_idx_images(path)


@pytest.mark.parametrize("load,header,payload", [
    (load_idx_images, struct.pack(">IIII", 0x00000803, 2, 3, 3), 18),
    (load_idx_labels, struct.pack(">II", 0x00000801, 4), 4),
], ids=["images", "labels"])
def test_bytes_past_the_payload_are_rejected(tmp_path, load, header, payload):
    # A count too small in the header would otherwise drop data silently.
    path = tmp_path / "long"
    path.write_bytes(header + bytes(payload + 3))
    cause = f"{path}: 3 bytes past the {payload}-byte payload"
    with pytest.raises(ValueError, match=re.escape(cause)):
        load(path)
    path.write_bytes(header + bytes(payload))
    assert load(path).size == payload


def test_write_idx_images_needs_three_dims(tmp_path):
    cause = "images must be (count, h, w), got shape (2, 2)"
    with pytest.raises(ValueError, match=re.escape(cause)):
        write_idx_images(tmp_path / "i", np.zeros((2, 2)))


@pytest.mark.parametrize("write,values,cause", [
    (write_idx_images, [[[0.7]]], "images must be whole numbers in 0..255, got 0.7"),
    (write_idx_images, [[[300]]], "images must be whole numbers in 0..255, got 300"),
    (write_idx_images, [[[0, -1]]], "images must be whole numbers in 0..255, got -1"),
    (write_idx_images, [[[1, np.nan]]], "images must be whole numbers in 0..255, got nan"),
    (write_idx_images, [[[1j]]], "images must be real, got complex values"),
    (write_idx_images, [[[1, 2], [3]]], "images is ragged"),
    (write_idx_labels, [1, 300], "labels must be whole numbers in 0..255, got 300"),
    (write_idx_labels, [-2], "labels must be whole numbers in 0..255, got -2"),
    (write_idx_labels, [2.9, 1], "labels must be whole numbers in 0..255, got 2.9"),
    (write_idx_labels, ["a"], "labels must be numeric"),
], ids=["fraction", "over-255", "negative", "nan", "complex", "ragged",
        "label-over-255", "negative-label", "fractional-label", "string-label"])
def test_idx_writers_refuse_what_a_byte_cannot_hold(tmp_path, write, values, cause):
    # Refused by name before the file is opened, not wrapped modulo 256 or truncated.
    path = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(cause)):
        write(path, values)
    assert not path.exists()


def test_idx_writers_take_whole_numbers_of_any_dtype_and_empty_arrays(tmp_path):
    write_idx_images(tmp_path / "i", np.array([[[0.0, 255.0]]]))
    assert np.array_equal(load_idx_images(tmp_path / "i"), [[[0.0, 1.0]]])
    write_idx_labels(tmp_path / "l", np.array([9, 0], dtype=np.int64))
    assert np.array_equal(load_idx_labels(tmp_path / "l"), [9, 0])
    write_idx_images(tmp_path / "e", np.zeros((0, 3, 2), dtype=np.uint8))
    assert load_idx_images(tmp_path / "e").shape == (0, 3, 2)
    write_idx_labels(tmp_path / "el", [])
    assert load_idx_labels(tmp_path / "el").shape == (0,)


def test_image_blocks_pads_the_tail():
    images = np.ones((10, 2, 2))
    blocks = image_blocks(images, 4)
    assert [valid for _, valid in blocks] == [4, 4, 2]
    last, valid = blocks[-1]
    assert last.shape == (4, 2, 2)
    assert np.array_equal(last[:2], np.ones((2, 2, 2)))
    assert not last[2:].any()


def test_image_blocks_published_test_set_shape():
    blocks = image_blocks(np.zeros((10000, 1, 1)), 32)
    assert len(blocks) == 313
    assert blocks[-1][1] == 16
    assert all(b.shape[0] == 32 for b, _ in blocks)


def test_image_blocks_exact_multiple_has_no_pad():
    blocks = image_blocks(np.zeros((8, 2, 2)), 4)
    assert [valid for _, valid in blocks] == [4, 4]


def test_image_blocks_validation():
    with pytest.raises(ValueError, match="batch must be at least 1, got 0"):
        image_blocks(np.zeros((4, 2, 2)), 0)
