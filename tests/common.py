"""Shared helpers for the test suite."""

import numpy as np

from hepack import BackendParams, SlotSimulator
from hepack.network import conv2d_valid


def sim(slots: int, **kw) -> SlotSimulator:
    return SlotSimulator(BackendParams.for_slots(slots, **kw))


def ledger_delta(backend, before: dict) -> dict:
    after = backend.ledger.snapshot()
    return {k: after[k] - before[k] for k in after}


def conv_oracle(images: np.ndarray, kernel: np.ndarray, bias: float = 0.0) -> np.ndarray:
    """Valid cross-correlation (the reference_infer one), plus bias."""
    return conv2d_valid(images, kernel) + bias
