"""Weight-file round trip: a tiny line-oriented CSV dialect.

Sections in network order, each opened by a header line:

  #conv k h w out_channels   then one line per channel: k*k kernel values
                             row-major, then the channel bias (k*k+1 values)
  #act c0 c1 c2 c3           coefficients ride on the header, space separated
  #fc rows cols              then `rows` weight lines of `cols` values
                             (row o = weights of output o), then one line
                             of `rows` bias values

Values are comma separated, UTF-8, LF lines, '.' decimal point, written
with repr() so a save/load round trip is bitwise exact. Blank lines are
skipped. Every value, #act coefficients included, must be numeric and
finite, and every header size at least 1. Only #conv records the input
size, so a file, and a network to save, must start with a conv layer.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .network import ActSpec, ConvSpec, FcSpec, NetworkSpec


class WeightsParseError(ValueError):
    """Malformed weight file; message carries the offending line number."""


def _floats(text: str, lineno: int, expect: int, sep: str | None = ",") -> np.ndarray:
    """The `expect` finite numbers of one line, cells split on `sep`."""
    try:
        vals = np.array(text.split(sep), dtype=np.float64)
    except ValueError:
        raise WeightsParseError(f"line {lineno}: non-numeric value in {text!r}") from None
    if len(vals) != expect:
        raise WeightsParseError(
            f"line {lineno}: expected {expect} values, found {len(vals)}")
    if not np.isfinite(vals).all():
        bad = vals[~np.isfinite(vals)][0]
        raise WeightsParseError(f"line {lineno}: non-finite value {float(bad)!r}")
    return vals


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


def load_weights_csv(path) -> NetworkSpec:
    """Parse a weight file into a NetworkSpec, which checks itself when made."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    lines = ((n, s.strip()) for n, s in enumerate(raw, 1) if s.strip())

    def take(count: int, expect: int, need: str) -> np.ndarray:
        rows = [_floats(row, n, expect) for n, row in islice(lines, count)]
        if len(rows) < count:
            raise WeightsParseError(f"line {len(raw)}: file ended inside {need}")
        return np.array(rows)

    layers, geom = [], None
    for lineno, line in lines:
        if not line.startswith("#"):
            raise WeightsParseError(
                f"line {lineno}: expected a section header, found {line!r}")
        head = line[1:].split()
        tag = head[0] if head else ""
        if tag == "conv":
            k, h, w, channels = _sizes(head, lineno, "k h w out_channels")
            vals = take(channels, k * k + 1, "a conv channel line")
            layers.append(ConvSpec(vals[:, :-1].reshape(channels, k, k), vals[:, -1]))
            geom = (h, w)
        elif tag == "act":
            if len(head) != 5:
                raise WeightsParseError(f"line {lineno}: #act needs c0 c1 c2 c3")
            coeffs = _floats(" ".join(head[1:]), lineno, 4, sep=None)
            layers.append(ActSpec(coeffs))
        elif tag == "fc":
            rows, cols = _sizes(head, lineno, "rows cols")
            weight = take(rows, cols, "an fc weight row")
            layers.append(FcSpec(weight, take(1, rows, "the fc bias line")[0]))
        else:
            raise WeightsParseError(f"line {lineno}: unknown section {line!r}")
    if geom is None:
        raise WeightsParseError("weight file must start with a #conv section")
    try:
        return NetworkSpec(geom[0], geom[1], tuple(layers))
    except ValueError as e:
        raise WeightsParseError(f"inconsistent network: {e}") from None


def save_weights_csv(net: NetworkSpec, path):
    """Write a NetworkSpec in the section format above.

    Only a #conv header records the input size, so the first layer must be
    a conv layer; otherwise this raises ValueError before opening `path`.
    Every NetworkSpec was checked when it was made, as a loaded one is.
    """
    if not isinstance(net.layers[0], ConvSpec):
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
