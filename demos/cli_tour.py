"""The three CLI commands run against generated files in a temp directory.

Builds a small random network, saves it in the weight CSV dialect, writes
a synthetic IDX image/label pair, then drives `hepack infer`, `hepack
verify`, and `hepack bench` through their Python entry point exactly as
the shell would. The directory is removed when the tour ends.
"""

import tempfile
from pathlib import Path

import numpy as np

from hepack import (random_network, reduced_geometry, reference_infer,
                    save_weights_csv, write_idx_images, write_idx_labels)
from hepack.cli import main

with tempfile.TemporaryDirectory(prefix="hepack-demo-") as tmp_name:
    tmp = Path(tmp_name)
    geo = reduced_geometry()
    net = random_network(np.random.default_rng(0), **geo)
    weights = tmp / "weights.csv"
    save_weights_csv(net, weights)

    rng = np.random.default_rng(1)
    raw = rng.integers(0, 256, size=(20, geo["h"], geo["w"]), dtype=np.uint8)
    labels = reference_infer(net, raw / 255.0).argmax(axis=1)
    images = tmp / "images.idx"
    write_idx_images(images, raw)
    write_idx_labels(tmp / "labels.idx", labels)
    print("wrote", weights, "and", images)

    print("\n$ hepack infer ...")
    rc = main(["infer", "--weights", str(weights), "--images", str(images),
               "--labels", str(tmp / "labels.idx"), "--out", str(tmp / "pred.csv"),
               "--batch", "8", "--logn", "11"])
    print("exit code", rc)
    print("first prediction line:",
          (tmp / "pred.csv").read_text().splitlines()[0])

    print("\n$ hepack verify ...")
    rc = main(["verify"])
    print("exit code", rc)

    print("\n$ hepack bench ...")
    rc = main(["bench", "--weights", str(weights), "--batch", "8", "--logn", "11"])
    print("exit code", rc)
