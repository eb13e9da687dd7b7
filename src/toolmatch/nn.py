"""Dense network math for attribute heads: forward, backprop, Adam, gradcheck.

The architecture family is fixed: a stack of fully connected layers where
every hidden layer is followed by layer normalization and ReLU, and the final
output layer has neither. Gradients are hand-derived for exactly this family
(including the layer-norm Jacobian) and all math runs in float64 so that
finite-difference checks and bit-reproducibility hold at desk scale.

Parameter order used everywhere (gradients, Adam moments, checkpoints):
for each hidden layer ``weights, bias, gamma, beta``, then the output layer's
``weights, bias``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from toolmatch.domain import NUM_ATTRIBUTES
from toolmatch.rng import SplitMix64

LAYER_NORM_EPSILON = 1e-5
# Float64 elements in one gradcheck block's stack of perturbed intermediates (8 MiB).
BLOCK_ELEMENTS = 1 << 20


@dataclass(eq=False)
class DenseLayer:
    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray  # (out_dim,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weights must be 2-D and bias 1-D")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} does not match "
                f"output dimension {self.weights.shape[0]}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters must be finite")


@dataclass(eq=False)
class LayerNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    epsilon: float = LAYER_NORM_EPSILON

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.gamma.shape != self.beta.shape or self.gamma.ndim != 1:
            raise ValueError("gamma and beta must be 1-D vectors of equal length")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


@dataclass(eq=False)
class MlpHead:
    """Parameters of one attribute-prediction head."""

    layer_dims: tuple[int, ...]
    layers: list[DenseLayer]
    norms: list[LayerNormParams]  # one per hidden layer
    rng_seed: int

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def num_hidden(self) -> int:
        return len(self.layer_dims) - 2

    def parameters(self) -> list[np.ndarray]:
        """Live parameter arrays in canonical order."""
        params: list[np.ndarray] = []
        for layer, norm in zip(self.layers[:-1], self.norms):
            params.extend((layer.weights, layer.bias, norm.gamma, norm.beta))
        params.extend((self.layers[-1].weights, self.layers[-1].bias))
        return params

    def copy(self) -> "MlpHead":
        return MlpHead(
            layer_dims=tuple(self.layer_dims),
            layers=[DenseLayer(l.weights.copy(), l.bias.copy()) for l in self.layers],
            norms=[LayerNormParams(n.gamma.copy(), n.beta.copy(), n.epsilon) for n in self.norms],
            rng_seed=self.rng_seed,
        )


def validate_layer_dims(layer_dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError(f"layer_dims needs at least input and output, got {dims}")
    if any(d <= 0 for d in dims):
        raise ValueError(f"layer dimensions must be positive, got {dims}")
    if dims[-1] != NUM_ATTRIBUTES:
        raise ValueError(f"output dimension must be {NUM_ATTRIBUTES}, got {dims[-1]}")
    return dims


def init_head(layer_dims, seed: int) -> MlpHead:
    """Build a head with fan-in-scaled uniform weights (He-style, suited to ReLU).

    Weights are drawn row-major from U(-sqrt(6/fan_in), sqrt(6/fan_in)) on a
    SplitMix64 stream, so the same seed gives bit-identical parameters on any
    platform. Biases start at zero, layer-norm scales at one, shifts at zero.
    """
    dims = validate_layer_dims(layer_dims)
    rng = SplitMix64(seed)
    layers: list[DenseLayer] = []
    norms: list[LayerNormParams] = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniforms(fan_out * fan_in, -limit, limit).reshape(fan_out, fan_in)
        layers.append(DenseLayer(w, np.zeros(fan_out)))
        if i < len(dims) - 2:  # hidden layer: attach a norm
            norms.append(LayerNormParams(np.ones(fan_out), np.zeros(fan_out)))
    return MlpHead(layer_dims=dims, layers=layers, norms=norms, rng_seed=seed)


def layer_norm_forward(x: np.ndarray, p: LayerNormParams) -> np.ndarray:
    """Normalize a vector to zero mean / unit variance (population), then scale-shift."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.dim,):
        raise ValueError(f"input shape {x.shape} does not match norm dimension ({p.dim},)")
    mean = x.mean()
    var = x.var()  # population (biased) variance
    return p.gamma * (x - mean) / np.sqrt(var + p.epsilon) + p.beta


def _layer_norm_batch(z: np.ndarray, p: LayerNormParams):
    """Batched layer norm. Returns (xhat, inv_std, y) with shapes (B,H),(B,1),(B,H)."""
    mean = z.mean(axis=1, keepdims=True)
    var = z.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + p.epsilon)
    xhat = (z - mean) * inv_std
    return xhat, inv_std, p.gamma * xhat + p.beta


def _as_batch(x: np.ndarray, input_dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != input_dim:
            raise ValueError(f"input dimension {x.shape[0]} does not match head input {input_dim}")
        return x[None, :], True
    if x.ndim == 2:
        if x.shape[1] != input_dim:
            raise ValueError(f"input dimension {x.shape[1]} does not match head input {input_dim}")
        return x, False
    raise ValueError(f"input must be 1-D or 2-D, got shape {x.shape}")


def head_forward(head: MlpHead, x: np.ndarray) -> np.ndarray:
    """Forward pass: (linear -> layer norm -> ReLU) per hidden layer, final linear.

    Accepts a single vector or a (batch, input_dim) matrix; output has 13
    columns. Raises if any intermediate goes non-finite (divergence signal).
    """
    batch, squeeze = _as_batch(x, head.input_dim)
    out = _forward(head, batch)[-1]
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite value in forward pass (diverged parameters?)")
    return out[0] if squeeze else out


def _forward(head: MlpHead, x: np.ndarray) -> list[np.ndarray]:
    """Plain forward over a (B, d) batch; returns per-layer activations, last is output."""
    a = x
    acts = []
    for layer, norm in zip(head.layers[:-1], head.norms):
        z = a @ layer.weights.T + layer.bias
        _, _, y = _layer_norm_batch(z, norm)
        a = np.maximum(y, 0.0)
        acts.append(a)
    final = head.layers[-1]
    acts.append(a @ final.weights.T + final.bias)
    return acts


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over the 13 attribute dimensions of squared prediction error."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def batch_loss(head: MlpHead, x: np.ndarray, targets: np.ndarray) -> float:
    """Mean over the batch of per-sample MSE (the quantity training minimizes)."""
    batch, _ = _as_batch(x, head.input_dim)
    out = _forward(head, batch)[-1]
    diff = out - np.asarray(targets, dtype=np.float64).reshape(out.shape)
    return float(np.mean(diff * diff))


def _loss_and_grads(head: MlpHead, x: np.ndarray, targets: np.ndarray):
    """One cached forward plus full backward; returns (loss, grads in canonical order)."""
    X, _ = _as_batch(x, head.input_dim)
    T = np.asarray(targets, dtype=np.float64)
    if T.shape != (X.shape[0], head.layer_dims[-1]):
        raise ValueError(
            f"targets shape {T.shape} does not match (batch, {head.layer_dims[-1]})"
        )
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")

    B = X.shape[0]
    n_hidden = head.num_hidden
    # Forward with caches.
    inputs = [X]  # input to each linear layer
    xhats, inv_stds, ys = [], [], []
    a = X
    for layer, norm in zip(head.layers[:-1], head.norms):
        z = a @ layer.weights.T + layer.bias
        xhat, inv_std, y = _layer_norm_batch(z, norm)
        a = np.maximum(y, 0.0)
        xhats.append(xhat)
        inv_stds.append(inv_std)
        ys.append(y)
        inputs.append(a)
    final = head.layers[-1]
    out = inputs[-1] @ final.weights.T + final.bias

    diff = out - T
    loss = float(np.mean(diff * diff))
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss in backward pass")

    # d loss / d out for loss = mean_b mean_i diff^2.
    d_out = (2.0 / (B * head.layer_dims[-1])) * diff

    grads: list[np.ndarray | None] = [None] * (4 * n_hidden + 2)
    grads[4 * n_hidden] = d_out.T @ inputs[-1]  # final weights
    grads[4 * n_hidden + 1] = d_out.sum(axis=0)  # final bias
    d_a = d_out @ final.weights

    for i in range(n_hidden - 1, -1, -1):
        norm = head.norms[i]
        d_y = d_a * (ys[i] > 0.0)  # ReLU subgradient at 0 is 0
        grads[4 * i + 2] = (d_y * xhats[i]).sum(axis=0)  # gamma
        grads[4 * i + 3] = d_y.sum(axis=0)  # beta
        d_xhat = d_y * norm.gamma
        # Layer-norm Jacobian with population variance.
        d_z = inv_stds[i] * (
            d_xhat
            - d_xhat.mean(axis=1, keepdims=True)
            - xhats[i] * (d_xhat * xhats[i]).mean(axis=1, keepdims=True)
        )
        grads[4 * i] = d_z.T @ inputs[i]  # weights
        grads[4 * i + 1] = d_z.sum(axis=0)  # bias
        d_a = d_z @ head.layers[i].weights

    for g in grads:
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient")
    return loss, grads


def head_backward(head: MlpHead, x: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
    """Exact analytic gradient of mean batch MSE w.r.t. every parameter.

    Gradients come back in canonical parameter order and are averaged over
    the batch (the batch mean is part of the loss, so larger batches do not
    scale the gradient).
    """
    return _loss_and_grads(head, x, targets)[1]


@dataclass(eq=False)
class AdamState:
    """Adam optimizer state; moment shapes mirror the parameter shapes."""

    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    first_moment: list[np.ndarray] = field(default_factory=list)
    second_moment: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[np.ndarray], learning_rate: float,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        if learning_rate < 0:
            raise ValueError(f"learning rate must be non-negative, got {learning_rate}")
        if not (0.0 < beta1 < 1.0 and 0.0 < beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        return cls(
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
            first_moment=[np.zeros_like(p) for p in params],
            second_moment=[np.zeros_like(p) for p in params],
        )


def adam_update(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """Standard bias-corrected Adam step, applied to the parameter arrays in place."""
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ValueError("params, grads, and state must have the same structure")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def gradcheck(head: MlpHead, x: np.ndarray, targets: np.ndarray, h: float = 1e-5) -> float:
    """Central finite differences of the batch loss against analytic gradients.

    Returns the max over all parameters of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``.

    Perturbing one parameter by ``h`` moves one column of one cached
    intermediate by ``h`` times a known vector (an input column for a weight,
    ones for a bias or beta, the normalized pre-activation for a gamma), and
    cannot change anything upstream of it. So the probes of one parameter
    array are evaluated in blocks: each block stacks its perturbed copies of
    that intermediate along a leading axis and runs them through the rest of
    the network together.
    """
    if not 1e-6 <= h <= 1e-3:
        raise ValueError(f"perturbation h must lie in [1e-6, 1e-3], got {h}")
    X, _ = _as_batch(x, head.input_dim)
    T = np.asarray(targets, dtype=np.float64).reshape(X.shape[0], head.layer_dims[-1])
    _, analytic = _loss_and_grads(head, X, T)
    n_hidden = head.num_hidden
    batch = X.shape[0]

    # Unperturbed caches: acts[k] enters linear layer k, zs[k] leaves it,
    # xhats[k] and ys[k] are hidden layer k's normalized pre-activation and
    # layer-norm output.
    acts, zs, xhats, ys = [X], [], [], []
    for layer, norm in zip(head.layers[:-1], head.norms):
        zs.append(acts[-1] @ layer.weights.T + layer.bias)
        xhat, _, y = _layer_norm_batch(zs[-1], norm)
        xhats.append(xhat)
        ys.append(y)
        acts.append(np.maximum(y, 0.0))
    final = head.layers[-1]
    zs.append(acts[-1] @ final.weights.T + final.bias)
    inv_count = 1.0 / T.size
    if not np.isfinite(((zs[-1] - T) ** 2).sum()):
        raise FloatingPointError("non-finite loss")

    def losses(v: np.ndarray, j: int, normalized: bool) -> np.ndarray:
        """Batch loss of each probe in a (probes, batch, width) stack holding
        linear layer j's output, or hidden layer j's layer-norm output when
        ``normalized``."""
        while j < n_hidden:
            if not normalized:
                norm = head.norms[j]
                v -= v.mean(axis=-1, keepdims=True)
                v *= 1.0 / np.sqrt((v * v).mean(axis=-1, keepdims=True) + norm.epsilon)
                v *= norm.gamma
                v += norm.beta
            np.maximum(v, 0.0, out=v)
            layer = head.layers[j + 1]
            # A stacked matmul runs one small product per probe. Flattening the
            # stack into one large product rounds differently and measured
            # twice the noise on gradients under the 1e-8 floor.
            v = v @ layer.weights.T
            v += layer.bias
            j, normalized = j + 1, False
        v -= T
        v *= v
        return v.reshape(len(v), -1).sum(axis=1) * inv_count

    widest = max(head.layer_dims)
    block = max(1, BLOCK_ELEMENTS // (2 * batch * widest))
    worst = 0.0
    for group, grad in enumerate(analytic):
        k, part = divmod(group, 4) if group < 4 * n_hidden else (n_hidden, group - 4 * n_hidden)
        base, normalized = (zs[k], False) if part < 2 else (ys[k], True)
        for lo in range(0, grad.size, block):
            f = np.arange(lo, min(lo + block, grad.size))
            if part == 0:  # weights (out, in): entry f moves output f // in by h * input f % in
                cols, inputs = divmod(f, acts[k].shape[1])
                step = acts[k][:, inputs].T
            elif part == 2:  # gamma f moves column f by h * xhat
                cols, step = f, xhats[k][:, f].T
            else:  # bias or beta f moves column f by h
                cols, step = f, np.ones((len(f), batch))
            probes = np.arange(len(f))
            stack = np.repeat(base[None], 2 * len(f), axis=0)
            stack[probes, :, cols] += h * step
            stack[probes + len(f), :, cols] -= h * step
            both = losses(stack, k, normalized)
            numeric = (both[: len(f)] - both[len(f):]) / (2.0 * h)
            a = grad.reshape(-1)[f]
            err = np.abs(a - numeric) / np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
            worst = max(worst, float(np.fmax.reduce(err)))  # NaN errors are skipped
    return worst
