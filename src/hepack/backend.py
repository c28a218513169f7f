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
So server constants are never encrypted. A ciphertext of one value holds
it once, as a read-only stride-0 view, not a slot-sized array. A shared
ledger counts every operation so schedules can be audited.

The simulator is the only backend shipped here, but everything above it
talks to the small `SimdBackend` interface, so a real leveled scheme can
be dropped in behind the same six operations.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields

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
        for f in fields(self):
            object.__setattr__(self, f.name, require_integer(getattr(self, f.name), f.name))
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
        n = require_integer(slots, "slot count").bit_length()
        if slots <= 0 or (1 << (n - 1)) != slots:
            raise ValueError(f"slot count must be a power of two, got {slots}")
        return cls(log_n=n, **kw)


class CipherVec:
    """A simulated ciphertext: slot vector plus remaining budget bits.

    Slotted and immutable (setting an attribute raises AttributeError); backend
    operations return new ones. The slot array is read-only, against in-place edits.
    """

    __slots__ = ("slots", "budget_bits")

    def __init__(self, slots: np.ndarray, budget_bits: int):
        if budget_bits < 0:
            raise DepthExhaustedError("budget_bits must be >= 0")
        slots.setflags(False)  # write=False, by position: numpy parses a keyword slowly
        _set_slots(self, slots)  # the slots' own setters, past __setattr__
        _set_budget_bits(self, budget_bits)

    def __setattr__(self, name, *_):
        raise AttributeError(f"CipherVec is immutable: cannot set or delete {name}")
    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle remake it through __init__
        return CipherVec, (self.slots, self.budget_bits)


_set_slots, _set_budget_bits = CipherVec.slots.__set__, CipherVec.budget_bits.__set__

OP_KINDS = ("mul", "cmul", "rot", "add")  # the ops the ledger counts


@dataclass
class ModulusLedger:
    """Plain op counter, one `counts` entry per OP_KINDS kind; one backend per thread."""

    delta_bits: int
    delta_c_bits: int
    counts: dict = field(default_factory=lambda: dict.fromkeys(OP_KINDS, 0))

    @property
    def consumed_bits(self) -> int:
        """Total rescale work: every mul and cmul summed, not depth."""
        return (self.counts["mul"] * self.delta_bits
                + self.counts["cmul"] * self.delta_c_bits)

    def snapshot(self) -> dict:
        return {**self.counts, "consumed_bits": self.consumed_bits}


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


def require_integer(value, what: str) -> int:
    """operator.index, naming the operand: a float, even a whole one, is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value}") from None


def _ndim(values, what: str) -> int:
    """np.ndim, naming the operand where a ragged nested sequence has no shape."""
    try:
        return np.ndim(values)
    except ValueError:
        raise ValueError(f"{what} is ragged: its nested sequences differ in length") from None


def real_array(values, what: str, ndim: int | None = None) -> np.ndarray:
    """The one float64 intake of an outside array, maybe the caller's own; ragged,
    complex, non-numeric or (with `ndim`) wrongly ranked values are refused by name."""
    _ndim(values, what)  # a ragged nested sequence is refused here, by name
    arr = np.asarray(values)
    if arr.dtype.kind == "c":  # before a float64 cast could drop the imaginary part
        raise ValueError(f"{what} must be real, got complex values")
    if arr.dtype.kind not in "biuf":  # None or a string, which the cast reads as NaN or parses
        raise ValueError(f"{what} must be numeric")
    arr = arr.astype(np.float64, copy=False)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    return arr


def require_finite(values, what: str):
    """The one numeric rule: only real finite values encode. `what` names the operand."""
    if isinstance(values, float) and math.isfinite(values):  # np.float64 too
        return  # a finite scalar costs one scalar check; any other value is counted below
    finite = np.isfinite(real_array(values, what))
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
            if _ndim(values, what) == 0:
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

        One value is held once, as a read-only stride-0 view of a fresh float64;
        a slot-length row is used as it is, its Plaintext's read-only copy; any
        other row is tiled into a fresh array.
        """
        row, n = self._plaintext(message, "message"), self.params.slots
        if isinstance(row, float) or row.shape[0] == 1:
            row = np.ndarray((n,), np.float64, np.array(row, np.float64), strides=(0,))
        if row.shape[0] == n:
            return CipherVec(row, self.params.log_q)
        slots = np.empty(n)
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
        self.ledger.counts["add"] += 1
        return CipherVec(slots, budget)

    def mul(self, a: CipherVec, b: CipherVec) -> CipherVec:
        if not (isinstance(a, CipherVec) and isinstance(b, CipherVec)):
            raise TypeError("mul takes two ciphertexts; multiply by a plaintext with cmul")
        lvl = min(a.budget_bits, b.budget_bits)
        if lvl < self.params.delta_bits:
            raise DepthExhaustedError(f"mul needs {self.params.delta_bits} bits, only {lvl} left")
        self.ledger.counts["mul"] += 1
        return CipherVec(a.slots * b.slots, lvl - self.params.delta_bits)

    def cmul(self, a: CipherVec, mask) -> CipherVec:
        """Product with a plaintext mask: a Plaintext, a slot-length array or a scalar."""
        _require_ciphertext(a, "cmul")
        if a.budget_bits < self.params.delta_c_bits:
            raise DepthExhaustedError(
                f"cmul needs {self.params.delta_c_bits} bits, only {a.budget_bits} left"
            )
        m = self._plaintext(mask, "mask")
        self.ledger.counts["cmul"] += 1
        return CipherVec(_slotwise(np.multiply, a.slots, m),
                         a.budget_bits - self.params.delta_c_bits)

    def rot(self, a: CipherVec, amount: int) -> CipherVec:
        """Cyclic rotation by a whole amount; positive moves slot i+amount into slot i."""
        _require_ciphertext(a, "rot")
        k = require_integer(amount, "rotation amount") % a.slots.shape[0]
        self.ledger.counts["rot"] += 1
        return CipherVec(np.concatenate((a.slots[k:], a.slots[:k])), a.budget_bits)
