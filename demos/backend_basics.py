"""Tour of the slot backend: packing, the six ops, dot, fold, and the bit budget.

Every ciphertext is a vector of 2^(log_n - 1) slots plus a modulus budget
in bits. Ciphertext products burn 45 bits, plaintext-mask products 20,
rotations and additions are free. Once the budget cannot cover the next
product the backend refuses, which is how depth limits surface here.
"""

import numpy as np

from hepack import (BackendParams, CapacityError, DepthExhaustedError, Plaintext,
                    SlotSimulator)

params = BackendParams(log_n=4, log_q=1200)
backend = SlotSimulator(params)
print(f"ring degree 2^{params.log_n} -> {params.slots} slots, "
      f"fresh budget {params.log_q} bits")

# A raw array fills every slot; a Plaintext row repeats over the slots.
a = backend.encrypt(np.arange(1.0, params.slots + 1))
b = backend.encrypt(Plaintext([10.0, 20.0]))
print("a      ", backend.decrypt(a))
print("b      ", backend.decrypt(b))
print("a+b    ", backend.decrypt(backend.add(a, b)), "budget", backend.add(a, b).budget_bits)
print("a*b    ", backend.decrypt(backend.mul(a, b)), "budget", backend.mul(a, b).budget_bits)
print("2a     ", backend.decrypt(backend.cmul(a, 2.0)), "budget", backend.cmul(a, 2.0).budget_bits)
print("rot(a,1)", backend.decrypt(backend.rot(a, 1)))
# dot sums products left to right: mul for a ciphertext operand, cmul for
# any other, so 2a + a*b costs what cmul, mul and add cost apart.
ab = backend.dot([a, a], [2.0, b])
print("2a+a*b ", backend.decrypt(ab), "budget", ab.budget_bits)
# fold runs a rotate-and-add ladder: acc = acc + rot(acc, s) for each s.
# Steps 1, 2, 4 put the total of all 8 slots in every slot, at the cost
# of one rot and one add per step and no budget.
before = backend.ledger.snapshot()
total = backend.fold(a, [1, 2, 4])
after = backend.ledger.snapshot()
print("fold(a) ", backend.decrypt(total), "budget", total.budget_bits)
print("  ledger", {k: after[k] - before[k] for k in ("rot", "add")})

# The whole vector rotates; masks carve out windows. This row of 4 keeps
# the first and third slot of every 4.
mask = Plaintext([1.0, 0.0, 1.0, 0.0])
print("masked ", backend.decrypt(backend.cmul(a, mask)))
# A raw array of any other length is refused rather than zero-padded.
try:
    backend.cmul(a, np.array([1.0, 0.0, 1.0]))
except CapacityError as e:
    print("refused:", e)

# Chain products until the 1200-bit budget refuses the next one.
ct = backend.encrypt(np.ones(params.slots))
count = 0
try:
    while True:
        ct = backend.mul(ct, backend.encrypt(np.ones(params.slots)))
        count += 1
except DepthExhaustedError as e:
    print(f"{count} chained products fit (45 bits each), then: {e}")

print("ledger:", backend.ledger.snapshot())
