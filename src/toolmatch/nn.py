"""Dense network math for attribute heads: forward, backprop, Adam, gradcheck.

The architecture family is fixed: a stack of fully connected layers where
every hidden layer is followed by layer normalization and ReLU, and the final
output layer has neither. Gradients are hand-derived for exactly this family
(including the layer-norm Jacobian) and all math runs in float64 so that
finite-difference checks and bit-reproducibility hold at desk scale.

Each head keeps all its parameters in one float64 vector, ``MlpHead.vector``,
in canonical order: for each hidden layer ``weights, bias, gamma, beta``, then
the output layer's ``weights, bias``, each array row-major. A head is its
``layer_dims`` and that vector; ``MlpHead.parameters()`` views it per array,
and checkpoints list the arrays in the same order.

One cached forward pass, ``_forward``, runs the layer stack over a batch: the
prediction path keeps only its output, backprop and ``gradcheck`` read its
per-layer caches. Every product and reduction in it works on the last axis,
so it also runs over a stack of batches; an (n, 1, d) stack of rows gives
each row the bits it gets alone. Gradients come back as one fresh vector in
the head's layout, and Adam steps that vector in place with moments of the
same length.
"""

from __future__ import annotations

import math
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
# Adam's moment decay rates and denominator guard.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(eq=False)
class MlpHead:
    """Parameters of one attribute-prediction head: its widths and one vector.

    Construction validates ``layer_dims`` and copies ``vector``, which must
    hold every parameter in canonical order and be finite. ``parameters()``
    returns views of the vector, built once here, so writing through a view
    writes the vector.
    """

    layer_dims: tuple[int, ...]
    vector: np.ndarray = field(repr=False)
    _layout: list[tuple[int, int, tuple[int, ...]]] = field(init=False, repr=False)
    _params: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        dims = self.layer_dims = validate_layer_dims(self.layer_dims)
        self.vector = np.array(self.vector, dtype=np.float64)
        self._layout, start = [], 0
        for k, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            norm = [(fan_out,)] * 2 if k < len(dims) - 2 else []
            for shape in [(fan_out, fan_in), (fan_out,)] + norm:
                stop = start + math.prod(shape)
                self._layout.append((start, stop, shape))
                start = stop
        if self.vector.shape != (start,):
            raise ValueError(f"parameter vector of shape {self.vector.shape} does not match "
                             f"layer_dims {dims}, which take ({start},)")
        if not np.isfinite(self.vector).all():
            raise ValueError("head parameters must be finite")
        self._params = self.views(self.vector)

    @property
    def num_hidden(self) -> int:
        return len(self.layer_dims) - 2

    def parameters(self) -> list[np.ndarray]:
        """Live parameter arrays in canonical order: hidden layer k's weights,
        bias, gamma and beta at ``4*k`` to ``4*k + 3``, then the output
        layer's weights and bias."""
        return list(self._params)

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of a vector in this head's layout, one per parameter in canonical order."""
        return [flat[start:stop].reshape(shape) for start, stop, shape in self._layout]


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
    parts: list[np.ndarray] = []
    for k, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        limit = np.sqrt(6.0 / fan_in)
        parts += [rng.uniforms(fan_out * fan_in, -limit, limit), np.zeros(fan_out)]
        if k < len(dims) - 2:  # hidden layer: its norm's gamma and beta
            parts += [np.ones(fan_out), np.zeros(fan_out)]
    return MlpHead(dims, np.concatenate(parts))


def _layer_norm_batch(z: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """Layer norm over the last axis. Returns (xhat, inv_std, y) with shapes (..., H), (..., 1), (..., H).

    The mean and population variance are ``np.add.reduce`` sums divided by
    the width, which are the operations ``z.mean`` and ``z.var`` run, in the
    same order, without their Python wrappers. ``z`` is left unchanged.
    """
    n = z.shape[-1]
    xhat = z - np.add.reduce(z, axis=-1, keepdims=True) / n  # the deviation, normalized in place below
    inv_std = 1.0 / np.sqrt(np.add.reduce(xhat * xhat, axis=-1, keepdims=True) / n + LAYER_NORM_EPSILON)
    xhat *= inv_std
    y = gamma * xhat
    y += beta
    return xhat, inv_std, y


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

    Accepts a single vector, a (batch, input_dim) matrix or a stack of such
    matrices; output has 13 columns. Raises if any intermediate goes
    non-finite (divergence signal).
    """
    if np.ndim(x) == 3:  # a stack of batches
        batch, squeeze = np.asarray(x, dtype=np.float64), False
        if batch.shape[2] != head.layer_dims[0]:
            raise ValueError(f"input dimension {batch.shape[2]} does not match head input {head.layer_dims[0]}")
    else:
        batch, squeeze = _as_batch(x, head.layer_dims[0])
    out = _forward(head, batch)[0]
    if not np.logical_and.reduce(np.isfinite(out), axis=None):
        raise FloatingPointError("non-finite value in forward pass (diverged parameters?)")
    return out[0] if squeeze else out


def _forward(head: MlpHead, x: np.ndarray) -> tuple[np.ndarray, list, list]:
    """Forward over a (B, d) batch, or a stack of them. Returns ``(out, inputs, hidden)``:
    ``inputs[k]`` enters linear layer k (the final one included) and
    ``hidden[k]`` is hidden layer k's ``(z, xhat, inv_std, y)``, its linear
    output and its layer norm's normalized input, inverse deviation and output.
    """
    params = head.parameters()
    inputs, hidden = [x], []
    for k in range(head.num_hidden):
        weights, bias, gamma, beta = params[4 * k:4 * k + 4]
        z = inputs[-1] @ weights.T + bias
        xhat, inv_std, y = _layer_norm_batch(z, gamma, beta)
        hidden.append((z, xhat, inv_std, y))
        inputs.append(np.maximum(y, 0.0))
    return inputs[-1] @ params[-2].T + params[-1], inputs, hidden


def _loss_and_grads(head: MlpHead, x: np.ndarray, targets: np.ndarray):
    """Mean batch MSE and its gradient: the cached forward, then a full backward.

    Returns (loss, gradient), the gradient one fresh vector in the head's
    layout (see ``MlpHead.views``).
    """
    X, _ = _as_batch(x, head.layer_dims[0])
    T = np.asarray(targets, dtype=np.float64)
    if T.shape != (X.shape[0], head.layer_dims[-1]):
        raise ValueError(
            f"targets shape {T.shape} does not match (batch, {head.layer_dims[-1]})"
        )
    if X.shape[0] == 0:
        raise ValueError("batch must be non-empty")

    B = X.shape[0]
    n_hidden = head.num_hidden
    params = head.parameters()
    out, inputs, hidden = _forward(head, X)
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
    d_above, weights_above = d_out, params[-2]

    # Layer 0's input gradient is never formed: nothing upstream needs it.
    for i in range(n_hidden - 1, -1, -1):
        _, xhat, inv_std, y = hidden[i]
        d_a = d_above @ weights_above
        d_y = d_a * (y > 0.0)  # ReLU subgradient at 0 is 0
        np.sum(d_y * xhat, axis=0, out=grads[4 * i + 2])  # gamma
        np.sum(d_y, axis=0, out=grads[4 * i + 3])  # beta
        d_xhat = d_y * params[4 * i + 2]
        # Layer-norm Jacobian with population variance.
        width = d_xhat.shape[1]
        d_z = inv_std * (
            d_xhat
            - np.add.reduce(d_xhat, axis=1, keepdims=True) / width
            - xhat * (np.add.reduce(d_xhat * xhat, axis=1, keepdims=True) / width)
        )
        np.matmul(d_z.T, inputs[i], out=grads[4 * i])  # weights
        np.sum(d_z, axis=0, out=grads[4 * i + 1])  # bias
        d_above, weights_above = d_z, params[4 * i]

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
    """Adam optimizer state for one parameter vector, such as a head's
    ``MlpHead.vector``: each moment is one vector of that length."""

    learning_rate: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def for_params(cls, vector: np.ndarray, learning_rate: float) -> "AdamState":
        if learning_rate < 0:
            raise ValueError(f"learning rate must be non-negative, got {learning_rate}")
        return cls(learning_rate, np.zeros_like(vector), np.zeros_like(vector))


def adam_update(vector: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """Standard bias-corrected Adam step, applied to the parameter vector in place.

    The vector is updated in blocks of ``ADAM_CHUNK`` elements through two
    scratch blocks, with the same floating-point operations in the same order
    as the whole-array expression
    ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*(g*g); p -= lr*(m/bc1)/(sqrt(v/bc2)+eps)``.
    """
    arrays = (vector, grad, state.first_moment, state.second_moment)
    if vector.ndim != 1 or any(a.shape != vector.shape for a in arrays):
        raise ValueError("parameter, gradient and moments must be 1-D of one shape, got shapes "
                         f"{', '.join(str(a.shape) for a in arrays)}")
    if not all(a.flags.c_contiguous for a in arrays):
        raise ValueError("parameter, gradient and moments must be C-contiguous")
    state.step_count += 1
    t = state.step_count
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.learning_rate, ADAM_EPS
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    size = min(ADAM_CHUNK, vector.size)
    scratch1, scratch2 = np.empty(size), np.empty(size)
    for lo in range(0, vector.size, ADAM_CHUNK):
        hi = min(lo + ADAM_CHUNK, vector.size)
        pc, gc, mc, vc = (a[lo:hi] for a in arrays)
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
    X, _ = _as_batch(x, head.layer_dims[0])
    analytic = head.views(_loss_and_grads(head, X, targets)[1])
    T = np.asarray(targets, dtype=np.float64)
    n_hidden = head.num_hidden
    params = head.parameters()
    batch = X.shape[0]
    inv_count = 1.0 / T.size

    # Unperturbed caches: acts[k] enters linear layer k, zs[k] leaves it, and
    # hidden[k] is hidden layer k's (z, xhat, inv_std, y).
    out, acts, hidden = _forward(head, X)
    zs = [z for z, _, _, _ in hidden] + [out]

    def losses(v: np.ndarray, j: int, normalized: bool) -> np.ndarray:
        """Batch loss of each probe in a (probes, batch, width) stack holding
        linear layer j's output, or hidden layer j's layer-norm output when
        ``normalized``."""
        while j < n_hidden:
            if not normalized:
                width = v.shape[-1]
                v -= np.add.reduce(v, axis=-1, keepdims=True) / width
                v *= 1.0 / np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True) / width + LAYER_NORM_EPSILON)
                v *= params[4 * j + 2]
                v += params[4 * j + 3]
            np.maximum(v, 0.0, out=v)
            # A stacked matmul runs one small product per probe. Flattening the
            # stack into one large product rounds differently and measured
            # twice the noise on gradients under the 1e-8 floor.
            v = v @ params[4 * j + 4].T
            v += params[4 * j + 5]
            j, normalized = j + 1, False
        v -= T
        v *= v
        return v.reshape(len(v), -1).sum(axis=1) * inv_count

    widest = max(head.layer_dims)
    block = max(1, BLOCK_ELEMENTS // (2 * batch * widest))
    worst = 0.0
    for group, grad in enumerate(analytic):
        k, part = divmod(group, 4) if group < 4 * n_hidden else (n_hidden, group - 4 * n_hidden)
        base, normalized = (zs[k], False) if part < 2 else (hidden[k][3], True)
        for lo in range(0, grad.size, block):
            f = np.arange(lo, min(lo + block, grad.size))
            if part == 0:  # weights (out, in): entry f moves output f // in by h * input f % in
                cols, inputs = divmod(f, acts[k].shape[1])
                step = acts[k][:, inputs].T
            elif part == 2:  # gamma f moves column f by h * xhat
                cols, step = f, hidden[k][1][:, f].T
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
