"""Command line front end: infer, verify, bench."""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .backend import BackendParams, DepthExhaustedError, SlotSimulator
from .bench import check_depth_budget, cost_mismatch, total_op_counts
from .mnist import image_blocks, load_idx_images, load_mnist
from .network import infer_images, random_network, stock_geometry
from .verify import run_all
from .weights_io import WeightsParseError, load_weights_csv

TIMED_BATCHES = 5  # bench reports each layer's median over this many planned batches


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--batch", type=int, default=32, help="images per block")
    sub.add_argument("--logq", type=int, default=1200, help="fresh budget bits")
    sub.add_argument("--logn", type=int, default=16, help="ring degree exponent")
    sub.add_argument("--delta", type=int, default=45,
                     help="bits burned per ciphertext-ciphertext mul")
    sub.add_argument("--delta-c", type=int, default=20,
                     help="bits burned per plaintext-mask mul")
    sub.add_argument("--encrypted-kernels", action="store_true",
                     help="encrypt conv kernels as ciphertexts, not plaintext weights")


def _preflight(args, net) -> tuple[BackendParams, int, list]:
    """Backend params, row width and the layer costs, checked against log_q."""
    params = BackendParams(log_n=args.logn, log_q=args.logq,
                           delta_bits=args.delta, delta_c_bits=args.delta_c)
    if args.batch < 1:
        raise ValueError(f"batch must be at least 1, got {args.batch}")
    if params.slots % args.batch:
        raise ValueError(f"batch {args.batch} must divide {params.slots} slots")
    row_width = params.slots // args.batch
    return params, row_width, check_depth_budget(
        net, args.batch, row_width, params, args.encrypted_kernels)


def cmd_infer(args) -> int:
    net = load_weights_csv(args.weights)
    params, row_width, _ = _preflight(args, net)
    if args.labels:
        images, labels = load_mnist(args.images, args.labels)
    else:
        images, labels = load_idx_images(args.images), None
    if not images.shape[0]:
        raise ValueError(f"{args.images}: no images to classify")
    if images.shape[1:] != (net.input_h, net.input_w):
        raise ValueError(
            f"images are {images.shape[1]}x{images.shape[2]}, network wants "
            f"{net.input_h}x{net.input_w}")
    backend = SlotSimulator(params)
    blocks = image_blocks(images, args.batch)
    start = time.perf_counter()
    rows, correct, seen = [], 0, 0
    for bi, (block, valid) in enumerate(blocks):
        res = infer_images(backend, net, block, row_width,
                           encrypted_kernels=args.encrypted_kernels)
        guesses = res.logits.argmax(axis=1)
        for i in range(valid):
            rows.append((seen + i, res.logits[i], guesses[i]))
        if labels is not None:
            want = labels[seen: seen + valid]
            hits = int((guesses[:valid] == want).sum())
            correct += hits
            print(f"block {bi + 1}/{len(blocks)}: {hits}/{valid} correct")
        seen += valid
    wall = time.perf_counter() - start
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for idx, logits, guess in rows:
            cells = ",".join(repr(float(v)) for v in logits)
            fh.write(f"{idx},{cells},{guess}\n")
    totals = backend.ledger.snapshot()
    print(f"wrote {len(rows)} predictions to {args.out}")
    if labels is not None:
        print(f"accuracy {correct}/{seen} = {correct / seen:.4f}")
    print(f"depth {res.depth_bits}/{params.log_q} bits; ledger "
          f"mul={totals['mul']} cmul={totals['cmul']} rot={totals['rot']} "
          f"add={totals['add']} rescale_bits={totals['consumed_bits']}")
    print(f"wall {wall:.2f}s")
    return 0


def cmd_verify(args) -> int:
    results = run_all(args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_bench(args) -> int:
    if args.weights:
        net = load_weights_csv(args.weights)
        source = args.weights
    else:
        g = stock_geometry()
        net = random_network(np.random.default_rng(args.seed), **g)
        source = f"random stock geometry (seed {args.seed})"
    params, row_width, predicted = _preflight(args, net)
    images = np.random.default_rng(args.seed).uniform(
        0.0, 1.0, size=(args.batch, net.input_h, net.input_w))
    backend = SlotSimulator(params)
    # The first batch plans the network; the next TIMED_BATCHES run only ops.
    walls, layer_s = [], []
    for _ in range(1 + TIMED_BATCHES):
        start = time.perf_counter()
        res = infer_images(backend, net, images, row_width,
                           encrypted_kernels=args.encrypted_kernels)
        walls.append(time.perf_counter() - start)
        layer_s.append([c.seconds for c in res.layers])
    layer_ms = np.median(layer_s[1:], axis=0) * 1e3
    total_ms = np.median(np.sum(layer_s[1:], axis=1)) * 1e3
    print(f"network: {source}")
    print(f"batch {args.batch} x row_width {row_width} "
          f"({params.slots} slots)")
    print(f"{'layer':<8}{'mul':>8}{'cmul':>8}{'rot':>8}{'add':>8}{'depth':>8}")
    for c in predicted:
        print(f"{c.name:<8}{c.mul:>8}{c.cmul:>8}{c.rot:>8}{c.add:>8}{c.depth_bits:>8}")
    for label, costs in (("total", predicted), ("measured", res.layers)):
        ops = total_op_counts(costs)
        print(f"{label:<8}{ops['mul']:>8}{ops['cmul']:>8}{ops['rot']:>8}"
              f"{ops['add']:>8}{sum(c.depth_bits for c in costs):>8}")
    print("planned batch ms: " + ", ".join(
        f"{c.name} {ms:.2f}" for c, ms in zip(res.layers, layer_ms))
        + f", total {total_ms:.2f}")
    bad = cost_mismatch(res.layers, predicted)
    print(f"MISMATCH in {bad}" if bad
          else "every layer's counts and depth match closed form")
    print(f"wall {np.median(walls[1:]):.2f}s")
    return 1 if bad else 0


def main(argv=None) -> int:
    top = argparse.ArgumentParser(
        prog="hepack",
        description="row-packed homomorphic matrix kernels and CNN inference")
    subs = top.add_subparsers(dest="command", required=True)

    p_infer = subs.add_parser("infer", help="classify an IDX image file")
    p_infer.add_argument("--weights", required=True, help="network CSV")
    p_infer.add_argument("--images", required=True, help="IDX image file")
    p_infer.add_argument("--labels", help="IDX label file (prints accuracy)")
    p_infer.add_argument("--out", default="predictions.csv",
                         help="prediction CSV path")
    _add_common(p_infer)
    p_infer.set_defaults(fn=cmd_infer)

    p_verify = subs.add_parser("verify", help="run the oracle-equivalence suite")
    p_verify.add_argument("--seed", type=int, default=0, help="rng seed")
    p_verify.set_defaults(fn=cmd_verify)

    p_bench = subs.add_parser(
        "bench", help="time a planned batch, audit op counts and layer depths")
    p_bench.add_argument("--weights", help="network CSV (default: random)")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="rng seed for the random network and batch")
    _add_common(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    args = top.parse_args(argv)
    try:
        return args.fn(args)
    except (WeightsParseError, ValueError, OSError, DepthExhaustedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
