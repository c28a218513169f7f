"""End-to-end encrypted inference on a small random network.

Same five-layer chain as the full model (conv, cubic, fc, cubic, fc) on
an 8x8 grid so the whole thing runs in well under a second. The decrypted
logits are compared against a plain numpy forward pass, and each layer's
measured ops and budget bits are printed above the closed-form prediction.
"""

import numpy as np

from hepack import (BackendParams, SlotSimulator, infer_images,
                    predict_layer_costs, random_network, reduced_geometry,
                    reference_infer)

geo = reduced_geometry()
print("geometry:", geo)

rng = np.random.default_rng(0)
net = random_network(rng, **geo)
images = rng.uniform(0.0, 1.0, size=(geo["batch"], geo["h"], geo["w"]))

params = BackendParams.for_slots(geo["batch"] * geo["row_width"])
backend = SlotSimulator(params)
res = infer_images(backend, net, images, geo["row_width"])
ref = reference_infer(net, images)

print(f"\nmax |logit error| vs plain forward pass: {np.abs(res.logits - ref).max():.2e}")
print("argmax agreement:", (res.logits.argmax(1) == ref.argmax(1)).sum(),
      "/", geo["batch"])

predicted = predict_layer_costs(net, geo["batch"], geo["row_width"], params)
print(f"\n{'':<10}{'layer':<8}{'mul':>6}{'cmul':>6}{'rot':>6}{'add':>6}{'depth':>6}")
for label, costs in (("measured", res.layers), ("predicted", predicted)):
    for cost in costs:
        print(f"{label:<10}{cost.name:<8}{cost.mul:>6}{cost.cmul:>6}"
              f"{cost.rot:>6}{cost.add:>6}{cost.depth_bits:>6}")
print(f"depth {res.depth_bits} of {params.log_q} budget bits")
print("closed form matches layer by layer:", res.layers == predicted)
