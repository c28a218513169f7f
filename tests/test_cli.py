import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hepack import (
    SlotSimulator,
    random_network,
    reduced_geometry,
    reference_infer,
    save_weights_csv,
    write_idx_images,
    write_idx_labels,
)
from hepack import bench, verify
from hepack.cli import main
from hepack.verify import check_matmul_partitioned


@pytest.fixture
def reduced_files(tmp_path):
    """Weight CSV plus 20 synthetic 8x8 images labeled by the plain model."""
    geo = reduced_geometry()
    net = random_network(np.random.default_rng(0), **geo)
    weights = tmp_path / "weights.csv"
    save_weights_csv(net, weights)
    rng = np.random.default_rng(1)
    raw = rng.integers(0, 256, size=(20, geo["h"], geo["w"]), dtype=np.uint8)
    labels = reference_infer(net, raw / 255.0).argmax(axis=1)
    images = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    write_idx_images(images, raw)
    write_idx_labels(labels_path, labels)
    return dict(weights=weights, images=images, labels=labels_path,
                tmp=tmp_path, net=net, raw=raw)


SMALL = ["--batch", "8", "--logn", "11"]


def test_infer_end_to_end(reduced_files, capsys):
    out = reduced_files["tmp"] / "pred.csv"
    rc = main(["infer", "--weights", str(reduced_files["weights"]),
               "--images", str(reduced_files["images"]),
               "--labels", str(reduced_files["labels"]),
               "--out", str(out), *SMALL])
    assert rc == 0
    text = capsys.readouterr().out
    assert "block 1/3" in text and "block 3/3" in text
    assert "accuracy 20/20 = 1.0000" in text
    assert "depth 290/1200 bits" in text
    lines = out.read_text().splitlines()
    assert len(lines) == 20
    for i, line in enumerate(lines):
        cells = line.split(",")
        assert int(cells[0]) == i
        assert len(cells) == 1 + 4 + 1  # index, one logit per class, argmax
        assert 0 <= int(cells[-1]) < 4


def test_infer_prints_the_ledger_line(reduced_files, capsys):
    main(["infer", "--weights", str(reduced_files["weights"]),
          "--images", str(reduced_files["images"]),
          "--out", str(reduced_files["tmp"] / "pred.csv"), *SMALL])
    assert ("depth 290/1200 bits; ledger mul=78 cmul=72 rot=63 add=159 "
            "rescale_bits=4950\n") in capsys.readouterr().out


def test_infer_predictions_match_the_plain_model(reduced_files):
    out = reduced_files["tmp"] / "pred.csv"
    main(["infer", "--weights", str(reduced_files["weights"]),
          "--images", str(reduced_files["images"]),
          "--out", str(out), *SMALL])
    ref = reference_infer(reduced_files["net"], reduced_files["raw"] / 255.0)
    got = np.array([[float(v) for v in line.split(",")[1:-1]]
                    for line in out.read_text().splitlines()])
    assert np.max(np.abs(got - ref)) < 1e-6


def test_infer_without_labels_prints_no_accuracy(reduced_files, capsys):
    out = reduced_files["tmp"] / "pred.csv"
    rc = main(["infer", "--weights", str(reduced_files["weights"]),
               "--images", str(reduced_files["images"]),
               "--out", str(out), *SMALL])
    assert rc == 0
    assert "accuracy" not in capsys.readouterr().out


def test_infer_shallow_budget_names_the_layer(reduced_files, capsys):
    rc = main(["infer", "--weights", str(reduced_files["weights"]),
               "--images", str(reduced_files["images"]),
               "--out", str(reduced_files["tmp"] / "p.csv"),
               "--logq", "100", *SMALL])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "budget exhausted in layer act-1" in err


@pytest.mark.parametrize("command", ["infer", "bench"])
def test_shallow_budget_fails_before_anything_is_encrypted(
        reduced_files, capsys, monkeypatch, command):
    def no_encrypt(self, message):
        raise AssertionError("encrypted before the budget check")

    monkeypatch.setattr(SlotSimulator, "encrypt", no_encrypt)
    out = reduced_files["tmp"] / "p.csv"
    args = [command, "--weights", str(reduced_files["weights"]),
            "--logq", "280", *SMALL]
    if command == "infer":
        args += ["--images", str(reduced_files["images"]), "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert ("error: budget exhausted in layer fc-2: it needs 45 bits, 35 are "
            "left; the network needs 290 depth bits in all, log_q is 280") in err
    assert not out.exists()


def test_infer_rejects_wrong_image_size(reduced_files, tmp_path, capsys):
    small = tmp_path / "small.idx"
    write_idx_images(small, np.zeros((4, 6, 6), dtype=np.uint8))
    rc = main(["infer", "--weights", str(reduced_files["weights"]),
               "--images", str(small),
               "--out", str(tmp_path / "p.csv"), *SMALL])
    assert rc == 1
    assert "network wants 8x8" in capsys.readouterr().err


def test_infer_refuses_an_empty_image_file(reduced_files, tmp_path, capsys, monkeypatch):
    # Zero images would print a depth no batch measured; the file is named
    # before any backend is built or prediction file written.
    def no_backend(params):
        raise AssertionError("built a backend for no images")

    monkeypatch.setattr("hepack.cli.SlotSimulator", no_backend)
    empty = tmp_path / "empty.idx"
    write_idx_images(empty, np.zeros((0, 8, 8), dtype=np.uint8))
    out = tmp_path / "p.csv"
    rc = main(["infer", "--weights", str(reduced_files["weights"]),
               "--images", str(empty), "--out", str(out), *SMALL])
    assert rc == 1
    assert f"error: {empty}: no images to classify" in capsys.readouterr().err
    assert not out.exists()


def test_infer_reports_parse_errors(tmp_path, reduced_files, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("#conv 3 8 8 2\n1.0,zap\n")
    rc = main(["infer", "--weights", str(bad),
               "--images", str(reduced_files["images"]), *SMALL])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_infer_missing_file_is_an_error(reduced_files, tmp_path, capsys):
    rc = main(["infer", "--weights", str(reduced_files["weights"]),
               "--images", str(tmp_path / "nope.idx"), *SMALL])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_infer_batch_must_divide_slots(reduced_files, capsys):
    rc = main(["infer", "--weights", str(reduced_files["weights"]),
               "--images", str(reduced_files["images"]),
               "--batch", "7", "--logn", "11"])
    assert rc == 1
    assert "must divide" in capsys.readouterr().err


def test_infer_rejects_an_oversized_ring(reduced_files, capsys):
    # 2^33 slots would need 64 GiB. The bad --logq keeps a build without the
    # log_n bound from allocating them: it fails here on the message instead.
    rc = main(["infer", "--weights", str(reduced_files["weights"]),
               "--images", str(reduced_files["images"]),
               "--batch", "8", "--logn", "34", "--logq", "10"])
    assert rc == 1
    assert "log_n must be in 1..17, got 34" in capsys.readouterr().err


@pytest.mark.parametrize("batch", ["0", "-8"])
def test_infer_batch_must_be_positive(reduced_files, capsys, batch):
    rc = main(["infer", "--weights", str(reduced_files["weights"]),
               "--images", str(reduced_files["images"]),
               "--batch", batch, "--logn", "11"])
    assert rc == 1
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["infer", "bench"])
def test_threads_is_not_an_option(reduced_files, capsys, command):
    args = [command, "--weights", str(reduced_files["weights"]), *SMALL,
            "--threads", "2"]
    if command == "infer":
        args += ["--images", str(reduced_files["images"]),
                 "--out", str(reduced_files["tmp"] / "p.csv")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_infer_takes_no_seed(reduced_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["infer", "--weights", str(reduced_files["weights"]),
              "--images", str(reduced_files["images"]), "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_verify_passes_and_is_deterministic(capsys):
    assert main(["verify"]) == 0
    first = capsys.readouterr().out
    assert first.count("PASS") == 6
    assert "FAIL" not in first
    assert "6/6 checks passed" in first
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == first


def test_verify_takes_only_a_seed(capsys):
    for flag, value in [("--logq", "10"), ("--delta", "30"), ("--batch", "7")]:
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert main(["verify", "--seed", "1"]) == 0
    assert "6/6 checks passed" in capsys.readouterr().out


def test_verify_partitioned_check_runs_the_partitioned_product(monkeypatch):
    real = verify.he_matmul_partitioned

    def drop_last_block(backend, a_parts, b_blocks, **kw):
        return real(backend, a_parts[:-1], b_blocks[:-1], **kw)

    rng = np.random.default_rng(0)
    assert check_matmul_partitioned(rng).passed
    monkeypatch.setattr(verify, "he_matmul_partitioned", drop_last_block)
    assert not check_matmul_partitioned(rng).passed


def _row(text, label):
    """The numbers of the bench table row that starts with `label`."""
    line, = (ln for ln in text.splitlines() if ln.startswith(label))
    return line.split()[1:]


def test_bench_audits_op_counts(reduced_files, capsys):
    rc = main(["bench", "--weights", str(reduced_files["weights"]), *SMALL])
    assert rc == 0
    text = capsys.readouterr().out
    assert "every layer's counts and depth match closed form" in text
    assert "conv-1" in text and "fc-2" in text
    assert ("\nlayer        mul    cmul     rot     add   depth\n"
            "conv-1         0      18       8      18      20\n") in text
    assert _row(text, "total") == _row(text, "measured")
    assert "MISMATCH" not in text
    # The timed batch is the second, which the first planned; each layer's
    # ms and their total follow the table's totals.
    timed, = (ln for ln in text.splitlines() if ln.startswith("planned batch ms: "))
    cells = [cell.split() for cell in timed.removeprefix("planned batch ms: ").split(", ")]
    assert [name for name, _ in cells] == ["conv-1", "act-1", "fc-1", "act-2", "fc-2",
                                           "total"]
    assert all(float(ms) > 0 for _, ms in cells)


def test_bench_names_the_first_layer_off_the_depth_model(reduced_files, capsys,
                                                          monkeypatch):
    real = bench.predict_layer_costs

    def off_by_one(*args, **kw):
        costs = real(*args, **kw)
        for cost in costs:
            if cost.name in ("fc-1", "fc-2"):
                cost.depth_bits += 1
        return costs

    monkeypatch.setattr(bench, "predict_layer_costs", off_by_one)
    rc = main(["bench", "--weights", str(reduced_files["weights"]), *SMALL])
    assert rc == 1
    text = capsys.readouterr().out
    assert "MISMATCH in layer fc-1: measured 45 depth bits, closed form 46" in text
    assert "fc-2" not in text.split("MISMATCH")[1]


def _cmul_moved_from_conv_to_act(monkeypatch):
    """Patch the closed form so one conv-1 cmul is booked to act-1 instead."""
    real = bench.predict_layer_costs

    def moved(*args, **kw):
        costs = real(*args, **kw)
        by_name = {c.name: c for c in costs}
        by_name["conv-1"].cmul -= 1
        by_name["act-1"].cmul += 1
        return costs

    monkeypatch.setattr(bench, "predict_layer_costs", moved)


def test_bench_names_a_layer_off_the_model_when_totals_agree(
        reduced_files, capsys, monkeypatch):
    _cmul_moved_from_conv_to_act(monkeypatch)
    rc = main(["bench", "--weights", str(reduced_files["weights"]), *SMALL])
    assert rc == 1
    text = capsys.readouterr().out
    assert _row(text, "total") == _row(text, "measured")
    assert "MISMATCH in layer conv-1: measured 18 cmul, closed form 17" in text


def test_verify_cost_model_fails_when_totals_agree(monkeypatch):
    assert verify.check_cost_model(np.random.default_rng(0)).passed
    _cmul_moved_from_conv_to_act(monkeypatch)
    result = verify.check_cost_model(np.random.default_rng(0))
    assert not result.passed
    assert "layer conv-1" in result.detail


def test_bench_encrypted_kernels(reduced_files, capsys):
    rc = main(["bench", "--weights", str(reduced_files["weights"]),
               "--encrypted-kernels", *SMALL])
    assert rc == 0
    assert ("every layer's counts and depth match closed form"
            in capsys.readouterr().out)


def test_verify_needs_numpy_alone(tmp_path):
    # scipy and hypothesis are test extras; None in sys.modules makes any
    # import of them raise ImportError, as if they were not installed.
    code = ("import sys; sys.modules['scipy'] = sys.modules['hypothesis'] = None; "
            "from hepack.cli import main; sys.exit(main(['verify']))")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "6/6 checks passed" in proc.stdout
