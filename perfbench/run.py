"""Run the hepack benchmark: one workload, or all of them, for one seed.

    python3 perfbench/run.py --workload stock --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --out perfbench/results/seed0.json

Prints the environment and every metric by name with its unit and sample
count, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer ones. Exits 1 if any call failed and
2 if the hepack sources are not found under `src/` beside this directory.

Inputs are written to, and traced runs' spans kept in, `.perfbench/` at
the repository root. Each workload runs in a fresh process; `all` starts
one per workload and waits for each.
"""

from __future__ import annotations

import os

# One thread everywhere: the loop is closed and single-threaded by design.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
# Set-up is timed in this many further fresh processes; the median of
# those and the run's own set-up is reported, so lazily filled caches
# cannot hide work moved into set-up.
SETUP_PROCESSES = 2
CHILD_TIMEOUT_S = 150


def _hepack_from_src() -> bool:
    """Import hepack from src/ beside the benchmark, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import hepack
    except ImportError:
        return False
    return os.path.abspath(hepack.__file__) == os.path.join(
        SRC, "hepack", "__init__.py")


def _child(args: list[str]) -> str:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"child {args} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def _setup_samples(name: str, seed: int, workdir: str) -> list[float]:
    return [json.loads(_child(["--workload", name, "--seed", str(seed),
                               "--setup-only", workdir]).splitlines()[-1])
            ["setup_s"] for _ in range(SETUP_PROCESSES)]


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}})


def run_one(args, harness, workloads) -> int:
    os.makedirs(WORK, exist_ok=True)
    if args.setup_only:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.setup_only)
        wl.prepare(write=False)
        seconds, _ = harness.timed_setup(wl)
        print(json.dumps({"setup_s": seconds}))
        return 0
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        if args.trace:
            spans = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.json")
            run = harness.measure_traced(wl, args.seconds, spans_path=spans)
        else:
            samples = _setup_samples(args.workload, args.seed, workdir)
            run = harness.measure(wl, args.seconds, samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = harness.environment(ROOT)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("\n".join(harness.report_lines(run)))
    if args.trace:
        print(f"spans: {os.path.relpath(spans, ROOT)}")
    if args.out:
        _write_results(args, env, {run.workload: run.summary()})
    print(_result_line(run.correct, run.attempted, run.failed, run.metrics),
          flush=True)
    return 0 if run.correct else 1


def _write_results(args, env: dict, results: dict):
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(dict(env=env, seed=args.seed, seconds=args.seconds,
                       trace=args.trace, workloads=results), fh, indent=1)


def run_all(args, workloads) -> int:
    """Each workload in its own fresh process, one after the other."""
    os.makedirs(WORK, exist_ok=True)
    env, results, metrics = None, {}, {}
    for name in workloads.WORKLOADS:
        part = os.path.join(WORK, f"all-{name}-{os.getpid()}.json")
        out = _child(["--workload", name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace",
                      str(args.trace), "--out", part])
        print("\n".join(out.splitlines()[:-1]), flush=True)
        with open(part, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(part)
        env = env or doc["env"]
        results[name] = doc["workloads"][name]
        for k, m in results[name]["metrics"].items():
            metrics[f"{name}.{k}"] = m
    if args.out:
        _write_results(args, env, results)
    correct = all(r["correct"] for r in results.values())
    print(_result_line(correct, sum(r["attempted"] for r in results.values()),
                       sum(r["failed"] for r in results.values()), metrics),
          flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("stock", "conv-bank", "matmul-mix", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full results as JSON here")
    ap.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not _hepack_from_src():
        print(f"error: hepack sources not found under {SRC}", file=sys.stderr)
        return 2
    import harness
    import workloads
    if args.workload == "all":
        return run_all(args, workloads)
    return run_one(args, harness, workloads)


if __name__ == "__main__":
    sys.exit(main())
