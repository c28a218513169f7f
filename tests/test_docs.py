"""README's stock cost numbers must be the ones the closed form gives."""

import re
from pathlib import Path

import numpy as np

from hepack import (BackendParams, predict_depth_bits, predict_op_counts,
                    random_network, stock_geometry)

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _stock_model():
    g = stock_geometry()
    net = random_network(np.random.default_rng(0), **g)
    params = BackendParams.for_slots(g["batch"] * g["row_width"])
    args = (net, g["batch"], g["row_width"], params)
    return predict_op_counts(*args), predict_depth_bits(*args), params


def test_readme_stock_cost_line_matches_the_closed_form():
    found = re.search(
        r"stock geometry\s+predicts\s+`mul=(\d+),\s+cmul=(\d+),\s+rot=(\d+),"
        r"\s+add=(\d+)`\s+and\s+depth\s+`(\d+)`\s+bits", README)
    assert found, "README has no stock cost-model line"
    ops, depth, _ = _stock_model()
    mul, cmul, rot, add, bits = map(int, found.groups())
    assert dict(mul=mul, cmul=cmul, rot=rot, add=add) == ops
    assert bits == depth


def test_readme_stock_budget_line_matches_the_closed_form():
    found = re.search(r"spends\s+(\d+)\s+of\s+the\s+(\d+)\s+budget\s+bits",
                      README)
    assert found, "README has no stock budget line"
    _, depth, params = _stock_model()
    assert tuple(map(int, found.groups())) == (depth, params.log_q)
