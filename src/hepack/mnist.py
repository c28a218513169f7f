"""IDX image/label files and batch slicing.

Big-endian format: magic, then dimension sizes as 32-bit words, then the
payload bytes, which must end the file: bytes past it are an error, not
ignored. Image files use magic 0x00000803 with dims (count, h, w);
label files 0x00000801 with dims (count,). Pixels come back as float64
scaled to [0, 1].
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .backend import real_array, require_integer

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def _read_be32(fh, path, what) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise ValueError(f"{path}: truncated {what}")
    return struct.unpack(">I", raw)[0]


def _read_idx(path, kind: str, magic: int, dims) -> np.ndarray:
    """Check the magic, read one 32-bit size per dim, then the uint8 payload."""
    with open(path, "rb") as fh:
        got = _read_be32(fh, path, "magic")
        if got != magic:
            raise ValueError(
                f"{path}: bad {kind} magic 0x{got:08x}, want 0x{magic:08x}")
        shape = tuple(_read_be32(fh, path, dim) for dim in dims)
        size = math.prod(shape)
        payload = fh.read(size)
        extra = len(fh.read())
    if len(payload) != size:
        raise ValueError(
            f"{path}: truncated payload, want {size} bytes, got {len(payload)}")
    if extra:
        raise ValueError(f"{path}: {extra} bytes past the {size}-byte payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def _write_idx(path, magic: int, arr: np.ndarray, what: str):
    """Write the header, then the uint8 payload: each value a whole number in 0..255."""
    whole = (arr >= 0) & (arr <= 255) & (np.floor(arr) == arr)  # NaN fails all three
    if not whole.all():
        raise ValueError(f"{what} must be whole numbers in 0..255, got {arr[~whole][0]:g}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{1 + arr.ndim}I", magic, *arr.shape))
        fh.write(arr.astype(np.uint8).tobytes())


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file; returns (count, h, w) float64 in [0, 1]."""
    pixels = _read_idx(path, "image", IMAGE_MAGIC, ("count", "height", "width"))
    return pixels.astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file; returns (count,) int64."""
    return _read_idx(path, "label", LABEL_MAGIC, ("count",)).astype(np.int64)


def load_mnist(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    """Load both files and cross-check the counts."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{images.shape[0]} images but {labels.shape[0]} labels")
    return images, labels


def write_idx_images(path, images):
    """Write a (count, h, w) array of whole numbers in 0..255 as an IDX image file."""
    arr = real_array(images, "images")
    if arr.ndim != 3:
        raise ValueError(f"images must be (count, h, w), got shape {arr.shape}")
    _write_idx(path, IMAGE_MAGIC, arr, "images")


def write_idx_labels(path, labels):
    _write_idx(path, LABEL_MAGIC, real_array(labels, "labels", ndim=1), "labels")


def image_blocks(images, batch: int) -> list[tuple[np.ndarray, int]]:
    """Slice into fixed-size blocks, zero-padding the last partial one.

    Returns (block, valid) pairs where only the first `valid` rows are
    real images. 10000 images at batch 32 give 313 blocks, the last one
    holding 16 zero rows of pad.
    """
    imgs = real_array(images, "images", ndim=3)
    if require_integer(batch, "batch") < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    blocks = []
    for start in range(0, imgs.shape[0], batch):
        chunk = imgs[start:start + batch]
        valid = chunk.shape[0]
        if valid < batch:
            pad = np.zeros((batch - valid,) + imgs.shape[1:])
            chunk = np.concatenate([chunk, pad])
        blocks.append((chunk, valid))
    return blocks
