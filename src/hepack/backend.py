"""Exact SIMD-slot ciphertext simulator with modulus budget accounting.

Every value is a vector of `slots` float64 numbers. Arithmetic is exact
(no encryption noise); what is modeled is the leveled-scheme bookkeeping:
each ciphertext carries a remaining modulus budget in bits, a
ciphertext-ciphertext product burns `delta_bits`, a plaintext-mask product
burns `delta_c_bits`, and rotations and additions are free. A `Plaintext`
is a value encoded once: one real finite row, checked and copied when it
is made, that repeats over the slots. `encrypt`, `cmul` and `add` take it
without checking it again, as a real library multiplies by a pre-encoded
plaintext; they read a finite scalar as every slot, and a raw array only
if it fills the slots, as its Plaintext (encode_row_major pads matrices).
So server constants are never encrypted. A shared ledger counts every
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


def require_real(values, what: str):
    """Refuse complex values before a float64 cast could drop their imaginary part."""
    if np.iscomplexobj(values):
        raise ValueError(f"{what} must be real, got complex values")


def require_finite(values, what: str):
    """The one numeric rule: only real finite values encode. `what` names the operand."""
    require_real(values, what)
    try:
        finite = np.isfinite(values)
    except TypeError:
        raise ValueError(f"{what} must be numeric") from None
    if not finite.all():
        bad = int(np.count_nonzero(~finite))
        raise ValueError(f"{what} has {bad} non-finite values (NaN or inf)")


@dataclass(frozen=True, eq=False)
class Plaintext:
    """One real finite row, checked and copied once, repeated over the slots.

    The row is a read-only float64 copy, so a later edit to the source
    does not reach it. Its length must divide the slot count of the
    backend it meets; a row as long as the slots is used as it is.
    """

    row: np.ndarray

    def __post_init__(self):
        require_finite(self.row, "plaintext")
        row = np.array(self.row, dtype=np.float64).reshape(-1)
        if not row.size:
            raise ValueError("plaintext has no values")
        row.flags.writeable = False
        object.__setattr__(self, "row", row)


def _require_ciphertext(ct, op: str):
    """Refuse a non-ciphertext operand before an op counts or reads it."""
    if not isinstance(ct, CipherVec):
        raise TypeError(f"{op} takes a ciphertext, got {type(ct).__name__}")


def _slotwise(op, slots: np.ndarray, plain):
    """op(slots, plain), a shorter Plaintext row broadcast over the rows it repeats down."""
    if isinstance(plain, np.ndarray) and plain.shape[0] < slots.shape[0]:
        return op(slots.reshape(-1, plain.shape[0]), plain).reshape(-1)
    return op(slots, plain)


class SlotSimulator(SimdBackend):
    """Exact plaintext simulator of a leveled SIMD scheme."""

    def __init__(self, params: BackendParams | None = None):
        self.params = params or BackendParams()
        self.ledger = ModulusLedger(self.params.delta_bits, self.params.delta_c_bits)

    def _plaintext(self, values, what: str):
        """The one plaintext intake: a Plaintext's row, or a finite scalar as a float.

        A raw array of exactly `slots` values is read as its Plaintext; any
        other length is refused, as repeating and zero-padding it disagree.
        """
        n = self.params.slots
        if not isinstance(values, Plaintext):
            if np.ndim(values) == 0:
                require_finite(values, what)
                return float(values)
            if np.size(values) != n:
                raise CapacityError(
                    f"{what} has {np.size(values)} values but backend has {n} slots: "
                    f"pad it to {n} values, or make it a Plaintext row to repeat it")
            return Plaintext(values).row
        if n % values.row.shape[0]:
            raise CapacityError(f"{what} row of {values.row.shape[0]} values "
                                f"does not divide the {n} slots")
        return values.row

    def encrypt(self, message) -> CipherVec:
        """Fresh ciphertext at full budget of a plaintext, repeated over the slots.

        A slot-length row is used as it is, its Plaintext's read-only copy;
        a shorter row or a scalar is tiled into a fresh array.
        """
        row = self._plaintext(message, "message")
        if isinstance(row, float):
            row = np.full(1, row)
        if row.shape[0] == self.params.slots:
            return CipherVec(row, self.params.log_q)
        slots = np.empty(self.params.slots)
        slots.reshape(-1, row.shape[0])[:] = row
        return CipherVec(slots, self.params.log_q)

    def decrypt(self, ct: CipherVec) -> np.ndarray:
        _require_ciphertext(ct, "decrypt")
        return ct.slots.copy()

    def add(self, a: CipherVec, b) -> CipherVec:
        """Sum with a ciphertext, or with a plaintext that spends no budget."""
        _require_ciphertext(a, "add")
        if isinstance(b, CipherVec):
            slots, budget = a.slots + b.slots, min(a.budget_bits, b.budget_bits)
        else:
            plain = self._plaintext(b, "plaintext")
            slots, budget = _slotwise(np.add, a.slots, plain), a.budget_bits
        self.ledger.bump("add")
        return CipherVec(slots, budget)

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
        """Product with a plaintext mask: a Plaintext, a slot-length array or a scalar."""
        _require_ciphertext(a, "cmul")
        if a.budget_bits < self.params.delta_c_bits:
            raise DepthExhaustedError(
                f"cmul needs {self.params.delta_c_bits} bits, only {a.budget_bits} left"
            )
        m = self._plaintext(mask, "mask")
        self.ledger.bump("cmul")
        return CipherVec(_slotwise(np.multiply, a.slots, m),
                         a.budget_bits - self.params.delta_c_bits)

    def rot(self, a: CipherVec, amount: int) -> CipherVec:
        """Cyclic rotation by a whole amount; positive moves slot i+amount into slot i."""
        _require_ciphertext(a, "rot")
        try:
            amount = operator.index(amount)
        except TypeError:
            raise ValueError(f"rotation amount must be an integer, got {amount}") from None
        self.ledger.bump("rot")
        k = amount % a.slots.shape[0]
        return CipherVec(np.concatenate((a.slots[k:], a.slots[:k])), a.budget_bits)
