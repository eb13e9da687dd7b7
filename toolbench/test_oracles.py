"""Hand-worked cases for the benchmark's oracles and span arithmetic.

    python3 -m pytest toolbench/test_oracles.py
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import tracing  # noqa: E402


def tiny_layers():
    """Input 2 -> hidden 2 (identity weights) -> output 1 with weights (2, 3), bias 1."""
    return [
        {"W": np.eye(2), "b": np.zeros(2), "gamma": np.ones(2), "beta": np.zeros(2)},
        {"W": np.array([[2.0, 3.0]]), "b": np.array([1.0])},
    ]


def test_forward_by_hand():
    # z = (1, 0): mean 0.5, population variance 0.25, so the normalised pair is
    # +-0.5 / sqrt(0.25 + 1e-5); ReLU keeps the first; output 1 + 2 * that.
    kept = 0.5 / math.sqrt(0.25 + 1e-5)
    out = oracles.forward(tiny_layers(), np.array([[1.0, 0.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(1.0 + 2.0 * kept, abs=1e-15)


def test_forward_reports_relu_pattern():
    active = []
    oracles.forward(tiny_layers(), np.array([[1.0, 0.0], [0.0, 1.0]]), active)
    assert [a.tolist() for a in active] == [[[True, False], [False, True]]]


def test_read_checkpoint_layers(tmp_path):
    doc = {"layer_dims": [2, 2, 1], "parameters": [
        {"weights": ["1.0", "0.0", "0.0", "1.0"], "bias": ["0.0", "0.0"], "gamma": ["1.0", "1.0"], "beta": ["0.0", "0.0"]},
        {"weights": ["2.0", "3.0"], "bias": ["1.0"]},
    ]}
    path = tmp_path / "head.json"
    path.write_text(json.dumps(doc))
    layers = oracles.read_checkpoint_layers(path)
    for got, want in zip(layers, tiny_layers()):
        assert set(got) == set(want)
        for key in want:
            assert np.array_equal(got[key], want[key])


def test_cosine_argmax_ties_go_to_lowest_id():
    queries = np.array([[1.0, 0.0], [1.0, 1.0]])
    candidates = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    best, top, second = oracles.cosine_argmax(queries, candidates, np.array([5, 3, 9]))
    # Row 0: ids 5 and 3 both score 1. Row 1: all three score 1/sqrt(2).
    assert best.tolist() == [3, 3]
    assert top[0] == pytest.approx(1.0) and second[0] == pytest.approx(1.0)
    assert top[1] == pytest.approx(1 / math.sqrt(2))


def test_cosine_argmax_with_mask_and_zero_norm():
    candidates = np.array([[1.0, 0.0], [0.0, 2.0]])
    # Removing column 0 leaves candidate 5 with zero norm: undefined.
    best, top, _ = oracles.cosine_argmax(np.array([[1.0, 1.0]]), candidates, np.array([5, 7]), keep=np.array([1]))
    assert best.tolist() == [-1] and math.isnan(top[0])
    # Removing column 1 leaves the query (0, 3) -> (0,): undefined as well.
    best, _, _ = oracles.cosine_argmax(np.array([[0.0, 3.0]]), candidates, np.array([5, 7]), keep=np.array([0]))
    assert best.tolist() == [-1]


def test_cosine_argmax_per_query_candidates():
    queries = np.array([[1.0, 0.0], [0.0, 1.0]])
    candidates = np.array([[[0.0, 1.0], [1.0, 0.1]], [[0.0, 1.0], [1.0, 0.1]]])
    ids = np.array([[4, 8], [4, 8]])
    best, _, _ = oracles.cosine_argmax(queries, candidates, ids)
    assert best.tolist() == [8, 4]


def test_round_half_up_clamped():
    x = np.array([2.5, 3.5, 1.49, 6.5, 7.6, -1.0, 0.5, 4.4999999])
    assert oracles.round_half_up_clamped(x).tolist() == [3, 4, 1, 7, 7, 1, 1, 4]


def test_constant_predictor_mse():
    # Column means (2, 10); squared errors 1, 1 and 4, 4 -> mean 2.5.
    targets = np.array([[1.0, 8.0], [3.0, 12.0]])
    assert oracles.constant_predictor_mse(targets) == pytest.approx(2.5)


def test_finite_difference_of_a_linear_head():
    # Output-only head: pred = 3 * x + 0.5 with x = 2, target 1: diff 5.5,
    # loss 30.25, dL/dW = 2 * 5.5 * 2 = 22, dL/db = 11.
    layers = [{"W": np.array([[3.0]]), "b": np.array([0.5])}]
    x, t = np.array([[2.0]]), np.array([[1.0]])
    assert oracles.loss(layers, x, t) == pytest.approx(30.25)
    numeric, smooth = oracles.finite_difference(layers, x, t, [(0, "W", 0), (0, "b", 0)], 1e-5)
    assert numeric == pytest.approx([22.0, 11.0], rel=1e-8)
    assert smooth.tolist() == [True, True]
    assert layers[0]["W"][0, 0] == 3.0  # restored


def test_finite_difference_flags_a_kink():
    # Hidden pair normalises to about (+1, -1); a bias step of 3 flips both
    # units, so the probe straddles a kink.
    layers = tiny_layers()
    numeric, smooth = oracles.finite_difference(layers, np.array([[1.0, 0.0]]), np.array([[0.0]]),
                                                [(0, "beta", 1), (1, "b", 0)], 3.0)
    assert smooth.tolist() == [False, True]


def test_splitmix64_published_sequence():
    assert oracles.splitmix64(1234567, 3) == [6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert tuple(oracles.splitmix64(1234567, 5)) == oracles.SPLITMIX64_1234567


def test_norm_bound_grows_with_sigma_and_shrinks_with_count():
    assert oracles.norm_bound(32, 0.5, 50) == pytest.approx(0.5 * math.sqrt(2 / 50) * (math.sqrt(32) + 8))
    assert oracles.norm_bound(32, 0.5, 200) < oracles.norm_bound(32, 0.5, 50) < oracles.norm_bound(32, 1.0, 50)


def test_self_time_subtracts_children_only():
    tracer = tracing.Tracer()
    tracer.active = True
    outer = tracer._open(tracer._name_id("outer"))
    inner = tracer._open(tracer._name_id("inner"))
    tracer._close(inner)
    tracer._close(outer)
    tracer.start[:] = array("d", [0.0, 1.0])
    tracer.end[:] = array("d", [10.0, 4.0])
    totals = tracer.totals(rounds=1)
    assert totals["outer.s"] == 10.0 and totals["outer.self_s"] == 7.0
    assert totals["inner.s"] == 3.0 and totals["inner.self_s"] == 3.0
    assert totals["outer.calls"] == 1.0


def test_benchmark_json_lists_what_run_prints():
    import run
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"train", "select", "sweep", "ingest"}
