"""Exact SIMD-slot ciphertext simulator with modulus budget accounting.

Every value is a vector of `slots` float64 numbers. Arithmetic is exact
(no encryption noise); what is modeled is the leveled-scheme bookkeeping:
each ciphertext carries a remaining modulus budget in bits, a
ciphertext-ciphertext product burns `delta_bits`, a plaintext-mask product
burns `delta_c_bits`, and rotations and additions are free. `cmul` and
`add` take plaintexts (a scalar, or a vector zero-padded to the slots), so
server constants are never encrypted. A shared ledger counts every
operation so schedules can be audited.

The simulator is the only backend shipped here, but everything above it
talks to the small `SimdBackend` interface, so a real leveled scheme can
be dropped in behind the same six operations.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np


class CapacityError(ValueError):
    """Raised when a message or plaintext does not fit the slot count."""


class DepthExhaustedError(RuntimeError):
    """Raised when an operation would drive a ciphertext budget negative."""


@dataclass(frozen=True)
class BackendParams:
    """Scheme-level parameters.

    log_n: ring degree exponent, 1..17 as in real CKKS rings; the slot
        count is 2**(log_n - 1).
    log_q: fresh ciphertext modulus budget in bits.
    delta_bits: bits consumed by one ciphertext-ciphertext multiply.
    delta_c_bits: bits consumed by one plaintext-mask multiply.
    """

    log_n: int = 16
    log_q: int = 1200
    delta_bits: int = 45
    delta_c_bits: int = 20

    def __post_init__(self):
        if not 1 <= self.log_n <= 17:
            raise ValueError(f"log_n must be in 1..17, got {self.log_n}")
        if not (self.log_q > self.delta_bits > self.delta_c_bits > 0):
            raise ValueError(
                "need log_q > delta_bits > delta_c_bits > 0, got "
                f"{self.log_q}/{self.delta_bits}/{self.delta_c_bits}"
            )

    @property
    def slots(self) -> int:
        return 1 << (self.log_n - 1)

    @classmethod
    def for_slots(cls, slots: int, **kw) -> "BackendParams":
        """Params with exactly `slots` slots (must be a power of two)."""
        n = int(slots).bit_length()
        if slots <= 0 or (1 << (n - 1)) != slots:
            raise ValueError(f"slot count must be a power of two, got {slots}")
        return cls(log_n=n, **kw)


@dataclass(frozen=True)
class CipherVec:
    """A simulated ciphertext: slot vector plus remaining budget bits.

    Instances are immutable; backend operations return new ones. The
    slot array is marked read-only to keep accidental in-place edits out.
    """

    slots: np.ndarray
    budget_bits: int

    def __post_init__(self):
        if self.budget_bits < 0:
            raise DepthExhaustedError("budget_bits must be >= 0")
        self.slots.flags.writeable = False


OP_KINDS = ("mul", "cmul", "rot", "add")  # the ops the ledger counts


@dataclass
class ModulusLedger:
    """Plain op counter, one `counts` entry per OP_KINDS kind; one backend per thread."""

    delta_bits: int
    delta_c_bits: int
    counts: dict = field(default_factory=lambda: dict.fromkeys(OP_KINDS, 0))

    def bump(self, kind: str):
        self.counts[kind] += 1

    @property
    def consumed_bits(self) -> int:
        """Total rescale work: every mul and cmul summed, not depth."""
        return (self.counts["mul"] * self.delta_bits
                + self.counts["cmul"] * self.delta_c_bits)

    def snapshot(self) -> dict:
        return {**self.counts, "consumed_bits": self.consumed_bits}

    def reset(self):
        self.counts = dict.fromkeys(OP_KINDS, 0)


class SimdBackend(ABC):
    """The six operations the rest of the library is written against."""

    params: BackendParams
    ledger: ModulusLedger

    @abstractmethod
    def encrypt(self, message) -> CipherVec: ...

    @abstractmethod
    def decrypt(self, ct: CipherVec) -> np.ndarray: ...

    @abstractmethod
    def add(self, a: CipherVec, b) -> CipherVec: ...

    @abstractmethod
    def mul(self, a: CipherVec, b: CipherVec) -> CipherVec: ...

    @abstractmethod
    def cmul(self, a: CipherVec, mask) -> CipherVec: ...

    @abstractmethod
    def rot(self, a: CipherVec, amount: int) -> CipherVec: ...


def require_finite(values, what: str):
    """The one numeric rule: only real finite values encode. `what` names the operand."""
    if np.iscomplexobj(values):
        raise ValueError(f"{what} must be real, got complex values")
    try:
        finite = np.isfinite(values)
    except TypeError:
        raise ValueError(f"{what} must be numeric") from None
    if not finite.all():
        bad = int(np.count_nonzero(~finite))
        raise ValueError(f"{what} has {bad} non-finite values (NaN or inf)")


class SlotSimulator(SimdBackend):
    """Exact plaintext simulator of a leveled SIMD scheme."""

    def __init__(self, params: BackendParams | None = None):
        self.params = params or BackendParams()
        self.ledger = ModulusLedger(self.params.delta_bits, self.params.delta_c_bits)

    def _plaintext(self, values, what: str):
        """The one plaintext intake: a finite scalar stays a float, a vector is zero-padded."""
        if np.ndim(values) == 0:
            require_finite(values, what)
            return float(values)
        arr = np.asarray(values).reshape(-1)
        n = self.params.slots
        if arr.shape[0] > n:
            raise CapacityError(
                f"{what} has {arr.shape[0]} values but backend has {n} slots"
            )
        require_finite(arr, what)
        arr = arr.astype(np.float64, copy=False)
        if arr.shape[0] < n:
            arr = np.concatenate([arr, np.zeros(n - arr.shape[0])])
        return arr

    def encrypt(self, message) -> CipherVec:
        """Fresh ciphertext at full budget of a real finite message, zero-padded.

        The slots are the ciphertext's own copy: a later edit to `message`
        does not reach it. A full float64 message is copied once, C-ordered.
        """
        own = np.array(message, order="C").reshape(-1)
        return CipherVec(self._plaintext(own, "message"), self.params.log_q)

    def decrypt(self, ct: CipherVec) -> np.ndarray:
        return ct.slots.copy()

    def add(self, a: CipherVec, b) -> CipherVec:
        """Sum with a ciphertext, or with a plaintext that spends no budget."""
        if isinstance(b, CipherVec):
            b_slots, budget = b.slots, min(a.budget_bits, b.budget_bits)
        else:
            b_slots, budget = self._plaintext(b, "plaintext"), a.budget_bits
        self.ledger.bump("add")
        return CipherVec(a.slots + b_slots, budget)

    def mul(self, a: CipherVec, b: CipherVec) -> CipherVec:
        if not (isinstance(a, CipherVec) and isinstance(b, CipherVec)):
            raise TypeError("mul takes two ciphertexts; multiply by a plaintext with cmul")
        lvl = min(a.budget_bits, b.budget_bits)
        if lvl < self.params.delta_bits:
            raise DepthExhaustedError(
                f"mul needs {self.params.delta_bits} bits, only {lvl} left"
            )
        self.ledger.bump("mul")
        return CipherVec(a.slots * b.slots, lvl - self.params.delta_bits)

    def cmul(self, a: CipherVec, mask) -> CipherVec:
        """Product with a plaintext mask, vector or scalar."""
        if a.budget_bits < self.params.delta_c_bits:
            raise DepthExhaustedError(
                f"cmul needs {self.params.delta_c_bits} bits, only {a.budget_bits} left"
            )
        m = self._plaintext(mask, "mask")
        self.ledger.bump("cmul")
        return CipherVec(a.slots * m, a.budget_bits - self.params.delta_c_bits)

    def rot(self, a: CipherVec, amount: int) -> CipherVec:
        """Cyclic rotation by a whole amount; positive moves slot i+amount into slot i."""
        try:
            amount = operator.index(amount)
        except TypeError:
            raise ValueError(f"rotation amount must be an integer, got {amount}") from None
        self.ledger.bump("rot")
        k = amount % a.slots.shape[0]
        return CipherVec(np.concatenate((a.slots[k:], a.slots[:k])), a.budget_bits)
