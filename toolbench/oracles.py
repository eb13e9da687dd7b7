"""Reference computations the benchmark checks toolmatch against.

Each function is rebuilt here from its published definition with plain numpy
and imports nothing from toolmatch, so a fault in the program cannot hide in
its own check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

LAYER_NORM_EPSILON = 1e-5
RATING_MIN, RATING_MAX = 1.0, 7.0
MASK64 = (1 << 64) - 1

# SplitMix64 outputs for seed 1234567, as published with the generator.
SPLITMIX64_1234567 = (6457827717110365317, 3203168211198807973, 9817491932198370423,
                      4593380528125082431, 16408922859458223821)


def read_checkpoint_layers(path) -> list[dict]:
    """Parameters of a checkpoint JSON as one dict per linear layer.

    Hidden layers carry ``W``, ``b``, ``gamma`` and ``beta``; the output layer
    only ``W`` and ``b``. ``W`` has shape (out, in).
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    dims = doc["layer_dims"]
    layers = []
    for i, group in enumerate(doc["parameters"]):
        fan_in, fan_out = dims[i], dims[i + 1]
        layer = {"W": np.array([float(v) for v in group["weights"]]).reshape(fan_out, fan_in),
                 "b": np.array([float(v) for v in group["bias"]])}
        if "gamma" in group:
            layer["gamma"] = np.array([float(v) for v in group["gamma"]])
            layer["beta"] = np.array([float(v) for v in group["beta"]])
        layers.append(layer)
    return layers


def forward(layers: list[dict], x: np.ndarray, active: list | None = None) -> np.ndarray:
    """Linear, then population-variance LayerNorm, then ReLU per hidden layer;
    a plain linear output layer. ``x`` is (n, d); returns (n, out).

    When ``active`` is a list, each hidden layer's ReLU pattern (which units
    pass) is appended to it.
    """
    a = np.asarray(x, dtype=np.float64)
    for layer in layers[:-1]:
        z = a @ layer["W"].T + layer["b"]
        centred = z - z.mean(axis=1, keepdims=True)
        var = (centred * centred).mean(axis=1, keepdims=True)
        y = layer["gamma"] * centred / np.sqrt(var + LAYER_NORM_EPSILON) + layer["beta"]
        if active is not None:
            active.append(y > 0.0)
        a = np.maximum(y, 0.0)
    return a @ layers[-1]["W"].T + layers[-1]["b"]


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    diff = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    return float(np.mean(diff * diff))


def constant_predictor_mse(targets: np.ndarray) -> float:
    """MSE of the best constant prediction (the column means) on these targets."""
    t = np.asarray(targets, dtype=np.float64)
    return mse(t, np.broadcast_to(t.mean(axis=0), t.shape))


def loss(layers: list[dict], x: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error of the oracle forward pass over every cell."""
    return mse(forward(layers, x), targets)


def finite_difference(layers: list[dict], x: np.ndarray, targets: np.ndarray,
                      coords: list[tuple[int, str, int]], h: float) -> tuple[np.ndarray, np.ndarray]:
    """Central differences of :func:`loss` at (layer, parameter name, flat index)
    coordinates; parameters are restored after each probe.

    Returns the differences and, per probe, whether every ReLU kept its state
    across the step. Where one flips, the loss has a kink inside the step and
    the difference is no estimate of the gradient.
    """
    base: list = []
    forward(layers, x, base)
    out = np.empty(len(coords))
    smooth = np.empty(len(coords), dtype=bool)
    for n, (li, name, k) in enumerate(coords):
        flat = layers[li][name].reshape(-1)
        orig = flat[k]
        values, patterns = [], []
        for step in (h, -h):
            flat[k] = orig + step
            active: list = []
            values.append(mse(forward(layers, x, active), targets))
            patterns.append(active)
        flat[k] = orig
        out[n] = (values[0] - values[1]) / (2.0 * h)
        smooth[n] = all(np.array_equal(p, q) for pattern in patterns for p, q in zip(pattern, base))
    return out, smooth


def cosine_argmax(queries: np.ndarray, candidates: np.ndarray, ids: np.ndarray,
                  keep: np.ndarray | None = None):
    """Cosine argmax of each query row over candidate rows, on the kept columns.

    ``candidates`` is (m, k) shared by all queries, or (n, m, k) per query.
    Ties go to the lowest id. Returns (best id, top score, runner-up score)
    arrays; a query whose scores are undefined (a zero-norm vector after
    masking) gets best id -1 and NaN scores.
    """
    q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(candidates, dtype=np.float64)
    ids = np.asarray(ids)
    if keep is not None:
        q = q[..., keep]
        c = c[..., keep]
    qn = np.linalg.norm(q, axis=-1)
    cn = np.linalg.norm(c, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        if c.ndim == 2:
            scores = (q @ c.T) / np.outer(qn, cn)
            bad = (qn == 0.0) | (cn == 0.0).any()
            ids = np.broadcast_to(ids, scores.shape)
        else:
            scores = np.einsum("nk,nmk->nm", q, c) / (qn[:, None] * cn)
            bad = (qn == 0.0) | (cn == 0.0).any(axis=1)
        top = scores.max(axis=1, initial=-np.inf, where=~np.isnan(scores))
        tied = scores == top[:, None]
    best = np.where(tied, ids, np.iinfo(np.int64).max).min(axis=1)
    sorted_scores = -np.sort(-np.nan_to_num(scores, nan=-np.inf), axis=1)
    second = sorted_scores[:, 1] if scores.shape[1] > 1 else np.full(len(top), -np.inf)
    best = np.where(bad, -1, best)
    return best, np.where(bad, np.nan, top), np.where(bad, np.nan, second)


def round_half_up_clamped(x: np.ndarray) -> np.ndarray:
    """Clamp to [1, 7], then round to nearest with halves going up."""
    return np.floor(np.clip(np.asarray(x, dtype=np.float64), RATING_MIN, RATING_MAX) + 0.5).astype(np.int64)


def splitmix64(seed: int, n: int) -> list[int]:
    """First ``n`` outputs of SplitMix64 (Steele, Lea & Flood) from ``seed``."""
    state = seed & MASK64
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def norm_bound(dim: int, sigma: float, n: int, t: float = 8.0) -> float:
    """Bound on the norm of the difference of two means of ``n`` i.i.d.
    N(0, sigma^2 I_dim) vectors: that difference is N(0, 2 sigma^2 / n I),
    whose norm exceeds sigma * sqrt(2 / n) * (sqrt(dim) + t) with probability
    below exp(-t^2 / 2)."""
    return sigma * math.sqrt(2.0 / n) * (math.sqrt(dim) + t)
