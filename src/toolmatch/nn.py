"""Dense network math for attribute heads: forward, backprop, Adam, gradcheck.

The architecture family is fixed: a stack of fully connected layers where
every hidden layer is followed by layer normalization and ReLU, and the final
output layer has neither. Gradients are hand-derived for exactly this family
(including the layer-norm Jacobian) and all math runs in float64 so that
finite-difference checks and bit-reproducibility hold at desk scale.

Each head keeps all its parameters in one float64 vector, ``MlpHead.vector``,
in canonical order: for each hidden layer ``weights, bias, gamma, beta``, then
the output layer's ``weights, bias``, each array row-major. Every layer's and
norm's arrays are views of that vector. Gradients come back as one fresh
vector in the same layout, Adam keeps its moments as vectors of that length,
and checkpoints list the arrays in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from toolmatch.domain import NUM_ATTRIBUTES
from toolmatch.rng import SplitMix64

LAYER_NORM_EPSILON = 1e-5
# Float64 elements in one gradcheck block's stack of perturbed intermediates (8 MiB).
BLOCK_ELEMENTS = 1 << 20
# Elements per block of an Adam step: each step runs in two scratch blocks of
# this many float64 values, so its temporaries stay in cache.
ADAM_CHUNK = 32768


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
    """Parameters of one attribute-prediction head.

    Construction copies the given arrays into ``vector`` and rebinds every
    ``DenseLayer.weights/bias`` and ``LayerNormParams.gamma/beta`` as a view of
    it, so writing through either one writes the other.
    """

    layer_dims: tuple[int, ...]
    layers: list[DenseLayer]
    norms: list[LayerNormParams]  # one per hidden layer
    rng_seed: int
    vector: np.ndarray = field(init=False, repr=False)
    _layout: list[tuple[int, int, tuple[int, ...]]] = field(init=False, repr=False)

    def __post_init__(self):
        dims = self.layer_dims
        shapes = [l.weights.shape for l in self.layers]
        widths = [n.dim for n in self.norms]
        if shapes != list(zip(dims[1:], dims[:-1])) or widths != list(dims[1:-1]):
            raise ValueError(f"layer weights {shapes} and norm widths {widths} "
                             f"do not match layer_dims {tuple(dims)}")
        params = self.parameters()
        self._layout, start = [], 0
        for p in params:
            self._layout.append((start, start + p.size, p.shape))
            start += p.size
        self.vector = np.concatenate([p.reshape(-1) for p in params])
        views = iter(self.views(self.vector))
        for layer, norm in zip(self.layers[:-1], self.norms):
            layer.weights, layer.bias, norm.gamma, norm.beta = (
                next(views), next(views), next(views), next(views))
        self.layers[-1].weights, self.layers[-1].bias = next(views), next(views)

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

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of a vector in this head's layout, one per parameter in canonical order."""
        return [flat[start:stop].reshape(shape) for start, stop, shape in self._layout]

    def copy(self) -> "MlpHead":
        return MlpHead(
            layer_dims=tuple(self.layer_dims),
            layers=[DenseLayer(l.weights, l.bias) for l in self.layers],
            norms=[LayerNormParams(n.gamma, n.beta, n.epsilon) for n in self.norms],
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


def _loss_and_grads(head: MlpHead, x: np.ndarray, targets: np.ndarray):
    """One cached forward plus full backward.

    Returns (loss, gradient), the gradient one fresh vector in the head's
    layout (see ``MlpHead.views``).
    """
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

    grad = np.empty_like(head.vector)
    grads = head.views(grad)
    np.matmul(d_out.T, inputs[-1], out=grads[4 * n_hidden])  # final weights
    np.sum(d_out, axis=0, out=grads[4 * n_hidden + 1])  # final bias
    d_above, weights_above = d_out, final.weights

    # Layer 0's input gradient is never formed: nothing upstream needs it.
    for i in range(n_hidden - 1, -1, -1):
        norm = head.norms[i]
        d_a = d_above @ weights_above
        d_y = d_a * (ys[i] > 0.0)  # ReLU subgradient at 0 is 0
        np.sum(d_y * xhats[i], axis=0, out=grads[4 * i + 2])  # gamma
        np.sum(d_y, axis=0, out=grads[4 * i + 3])  # beta
        d_xhat = d_y * norm.gamma
        # Layer-norm Jacobian with population variance.
        d_z = inv_stds[i] * (
            d_xhat
            - d_xhat.mean(axis=1, keepdims=True)
            - xhats[i] * (d_xhat * xhats[i]).mean(axis=1, keepdims=True)
        )
        np.matmul(d_z.T, inputs[i], out=grads[4 * i])  # weights
        np.sum(d_z, axis=0, out=grads[4 * i + 1])  # bias
        d_above, weights_above = d_z, head.layers[i].weights

    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient")
    return loss, grad


def head_backward(head: MlpHead, x: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
    """Exact analytic gradient of mean batch MSE w.r.t. every parameter.

    Gradients come back in canonical parameter order, as views of one fresh
    vector in the head's layout, and are averaged over the batch (the batch
    mean is part of the loss, so larger batches do not scale the gradient).
    """
    return head.views(_loss_and_grads(head, x, targets)[1])


@dataclass(eq=False)
class AdamState:
    """Adam optimizer state; moment shapes mirror the parameter shapes (for a
    head trained by ``train_head``, one vector each, in the head's layout)."""

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
    """Standard bias-corrected Adam step, applied to the parameter arrays in place.

    Each array is updated in blocks of ``ADAM_CHUNK`` elements through two
    scratch blocks, with the same floating-point operations in the same order
    as the whole-array expression
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g); p -= lr*(m/bc1)/(sqrt(v/bc2)+eps)``.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ValueError("params, grads, and state must have the same structure")
    arrays = list(zip(params, grads, state.first_moment, state.second_moment))
    for p, g, m, v in arrays:
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        if not all(a.flags.c_contiguous for a in (p, g, m, v)):
            raise ValueError("parameters, gradients and moments must be C-contiguous")
    state.step_count += 1
    t = state.step_count
    b1, b2, lr, eps = state.beta1, state.beta2, state.learning_rate, state.eps
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    size = min(ADAM_CHUNK, max((p.size for p in params), default=0))
    scratch1, scratch2 = np.empty(size), np.empty(size)
    for p, g, m, v in arrays:
        p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
        for lo in range(0, p.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, p.size)
            pc, gc, mc, vc = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            s1, s2 = scratch1[:hi - lo], scratch2[:hi - lo]
            mc *= b1
            np.multiply(gc, 1.0 - b1, out=s1)
            mc += s1
            vc *= b2
            np.multiply(gc, gc, out=s1)
            s1 *= 1.0 - b2
            vc += s1
            np.divide(mc, bc1, out=s1)
            s1 *= lr
            np.divide(vc, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += eps
            s1 /= s2
            pc -= s1


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
    analytic = head.views(_loss_and_grads(head, X, T)[1])
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
