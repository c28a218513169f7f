"""Weight-file round trip: a tiny line-oriented CSV dialect.

Sections in network order, each opened by a header line:

  #conv k h w out_channels   then one line per channel: k*k kernel values
                             row-major, then the channel bias (k*k+1 values)
  #act c0 c1 c2 c3           coefficients ride on the header itself
  #fc rows cols              then `rows` weight lines of `cols` values
                             (row o = weights of output o), then one line
                             of `rows` bias values

Values are comma separated, UTF-8, LF lines, '.' decimal point, written
with repr() so a save/load round trip is bitwise exact. Every value must
be finite and every header size at least 1. Only #conv records the input
size, so a file, and a network to save, must start with a conv layer.
"""

from __future__ import annotations

import numpy as np

from .network import ActSpec, ConvSpec, FcSpec, NetworkSpec


class WeightsParseError(ValueError):
    """Malformed weight file; message carries the offending line number."""


def _floats(text: str, lineno: int, expect: int) -> np.ndarray:
    try:
        vals = np.array(text.split(","), dtype=np.float64)
    except ValueError:
        raise WeightsParseError(f"line {lineno}: non-numeric value in {text!r}") from None
    if len(vals) != expect:
        raise WeightsParseError(
            f"line {lineno}: expected {expect} values, found {len(vals)}")
    _require_finite(vals, lineno)
    return vals


def _require_finite(vals, lineno: int):
    vals = np.asarray(vals, dtype=np.float64)
    bad = vals[~np.isfinite(vals)]
    if bad.size:
        raise WeightsParseError(f"line {lineno}: non-finite value {float(bad[0])!r}")


def _sizes(head, lineno: int, names: str) -> tuple:
    """The header's integer sizes, one per name in `names`, each at least 1."""
    tag = "#" + head[0]
    if len(head) != 1 + len(names.split()):
        raise WeightsParseError(f"line {lineno}: {tag} needs {names}")
    try:
        sizes = tuple(int(x) for x in head[1:])
    except ValueError:
        raise WeightsParseError(f"line {lineno}: non-integer {tag} field") from None
    if min(sizes) < 1:
        raise WeightsParseError(
            f"line {lineno}: {tag} sizes must be positive, got {sizes}")
    return sizes


class _Lines:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.pos = 0

    def next_content(self, need: str) -> tuple[str, int]:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line, self.pos
        raise WeightsParseError(
            f"line {self.pos}: file ended inside {need}")

    def exhausted(self) -> bool:
        return all(not line.strip() for line in self.lines[self.pos:])


def load_weights_csv(path) -> NetworkSpec:
    """Parse a weight file into a validated NetworkSpec."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = _Lines(fh.read())
    layers = []
    geom = None
    while not reader.exhausted():
        line, lineno = reader.next_content("a section header")
        if not line.startswith("#"):
            raise WeightsParseError(
                f"line {lineno}: expected a section header, found {line!r}")
        head = line[1:].split()
        tag = head[0] if head else ""
        if tag == "conv":
            k, h, w, channels = _sizes(head, lineno, "k h w out_channels")
            kernels = np.zeros((channels, k, k))
            biases = np.zeros(channels)
            for c in range(channels):
                row, ln = reader.next_content("a conv channel line")
                vals = _floats(row, ln, k * k + 1)
                kernels[c] = np.array(vals[: k * k]).reshape(k, k)
                biases[c] = vals[-1]
            layers.append(ConvSpec(kernels, biases))
            geom = (h, w)
        elif tag == "act":
            if len(head) != 5:
                raise WeightsParseError(f"line {lineno}: #act needs c0 c1 c2 c3")
            try:
                coeffs = tuple(float(x) for x in head[1:])
            except ValueError:
                raise WeightsParseError(
                    f"line {lineno}: non-numeric #act coefficient") from None
            _require_finite(coeffs, lineno)
            layers.append(ActSpec(coeffs))
        elif tag == "fc":
            rows, cols = _sizes(head, lineno, "rows cols")
            weight = np.zeros((rows, cols))
            for r in range(rows):
                row, ln = reader.next_content("an fc weight row")
                weight[r] = _floats(row, ln, cols)
            brow, ln = reader.next_content("the fc bias line")
            bias = np.array(_floats(brow, ln, rows))
            layers.append(FcSpec(weight, bias))
        else:
            raise WeightsParseError(f"line {lineno}: unknown section {line!r}")
    if geom is None:
        raise WeightsParseError("weight file must start with a #conv section")
    if not layers:
        raise WeightsParseError("weight file holds no sections")
    try:
        return NetworkSpec(geom[0], geom[1], tuple(layers)).validate()
    except ValueError as e:
        raise WeightsParseError(f"inconsistent network: {e}") from None


def save_weights_csv(net: NetworkSpec, path):
    """Write a NetworkSpec in the section format above.

    Only a #conv header records the input size, so the first layer must be
    a conv layer; otherwise this raises ValueError before opening `path`.
    """
    if not net.layers or not isinstance(net.layers[0], ConvSpec):
        raise ValueError("cannot save a network whose first layer is not a "
                         "conv layer: only a #conv header records the input size")
    def fmt(values) -> str:
        return ",".join(repr(float(v)) for v in np.asarray(values).reshape(-1))

    out = []
    for layer in net.layers:
        if isinstance(layer, ConvSpec):
            out.append(f"#conv {layer.k} {net.input_h} {net.input_w} {layer.channels}")
            for c in range(layer.channels):
                out.append(fmt(list(layer.kernels[c].reshape(-1)) + [layer.biases[c]]))
        elif isinstance(layer, ActSpec):
            out.append("#act " + " ".join(repr(float(c)) for c in layer.coeffs))
        else:
            out.append(f"#fc {layer.out_dim} {layer.in_dim}")
            for r in range(layer.out_dim):
                out.append(fmt(layer.weight[r]))
            out.append(fmt(layer.bias))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
