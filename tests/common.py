"""Shared helpers for the test suite."""

import numpy as np

from hepack import BackendParams, Plaintext, SimdBackend, SlotSimulator
from hepack.network import conv2d_valid


def sim(slots: int, **kw) -> SlotSimulator:
    return SlotSimulator(BackendParams.for_slots(slots, **kw))


class Forwarding(SimdBackend):
    """Forwards the six ops to a wrapped backend and inherits SimdBackend.dot and
    SimdBackend.fold, as perfbench's TracingBackend does."""

    def __init__(self, wrapped):
        self.wrapped, self.params, self.ledger = wrapped, wrapped.params, wrapped.ledger

    def encrypt(self, message):
        return self.wrapped.encrypt(message)

    def decrypt(self, ct):
        return self.wrapped.decrypt(ct)

    def add(self, a, b):
        return self.wrapped.add(a, b)

    def mul(self, a, b):
        return self.wrapped.mul(a, b)

    def cmul(self, a, mask):
        return self.wrapped.cmul(a, mask)

    def rot(self, a, amount):
        return self.wrapped.rot(a, amount)


def ledger_delta(backend, before: dict) -> dict:
    after = backend.ledger.snapshot()
    return {k: after[k] - before[k] for k in after}


def conv_oracle(images: np.ndarray, kernel: np.ndarray, bias: float = 0.0) -> np.ndarray:
    """Valid cross-correlation (the reference_infer one), plus bias."""
    return conv2d_valid(images, kernel) + bias


def plaintexts_made(monkeypatch) -> list:
    """The row length of each Plaintext made from now on."""
    real, made = Plaintext.__post_init__, []

    def counted(self):
        real(self)
        made.append(self.row.size)

    monkeypatch.setattr(Plaintext, "__post_init__", counted)
    return made
