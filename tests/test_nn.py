"""Dense-net math against independent oracles: straight-line forward
reimplementation, closed-form gradients, a hand-rolled Adam trace, and
central finite differences."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from toolmatch.nn import (
    ADAM_CHUNK,
    LAYER_NORM_EPSILON,
    AdamState,
    MlpHead,
    _forward,
    _layer_norm_batch,
    _loss_and_grads,
    adam_update,
    gradcheck,
    head_backward,
    head_forward,
    init_head,
    validate_layer_dims,
)
from toolmatch.rng import SplitMix64


def head_of(dims, *arrays):
    """A head built from its parameter arrays, given in canonical order."""
    return MlpHead(tuple(dims), np.concatenate([np.ravel(a) for a in arrays]))


def make_zero_head(dims):
    """Zero weights, biases and shifts; unit layer-norm scales."""
    arrays = []
    for k, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        arrays += [np.zeros((fan_out, fan_in)), np.zeros(fan_out)]
        if k < len(dims) - 2:
            arrays += [np.ones(fan_out), np.zeros(fan_out)]
    return head_of(dims, *arrays)


def hidden_layers(head):
    """(weights, bias, gamma, beta) of each hidden layer, read from parameters()."""
    params = head.parameters()
    return [params[4 * k:4 * k + 4] for k in range(head.num_hidden)]


def layer_norm(x, gamma, beta):
    """Layer norm of one vector through the batched implementation."""
    return _layer_norm_batch(np.asarray(x, dtype=np.float64)[None, :], gamma, beta)[2][0]


def batch_loss(head, x, targets):
    """Mean batch MSE, the quantity training minimizes."""
    return _loss_and_grads(head, x, targets)[0]


def reference_forward(head, x):
    """Independent straight-line forward pass over one vector."""
    a = np.asarray(x, dtype=np.float64)
    for weights, bias, gamma, beta in hidden_layers(head):
        z = weights @ a + bias
        mean = sum(z) / len(z)
        var = sum((zi - mean) ** 2 for zi in z) / len(z)
        xhat = np.array([(zi - mean) / math.sqrt(var + LAYER_NORM_EPSILON) for zi in z])
        y = gamma * xhat + beta
        a = np.array([max(yi, 0.0) for yi in y])
    weights, bias = head.parameters()[-2:]
    return weights @ a + bias


class TestInit:
    def test_bit_identical_given_seed(self):
        h1 = init_head([8, 256, 64, 13], seed=1)
        h2 = init_head([8, 256, 64, 13], seed=1)
        for p1, p2 in zip(h1.parameters(), h2.parameters()):
            assert np.array_equal(p1, p2)

    @pytest.mark.parametrize("dims, digest", [
        ([768, 256, 64, 13], "00e40ddfb9789986333b6dc10e411e0aeb3f7a0ff16acbb0b014890d123a99fb"),
        ([768, 256, 128, 64, 13], "30ddbfd2d0b8357e1c6544c3922601aa6e18dca8e36a89c39170df9684307a20"),
    ])
    def test_parameters_pinned_across_versions(self, dims, digest):
        # The sha256 of the canonical-order parameter bytes recorded when
        # weights were still drawn one uniform() call at a time: the same seed
        # must give the same checkpoint in every version.
        head = init_head(dims, seed=1)
        got = hashlib.sha256(b"".join(p.tobytes() for p in head.parameters())).hexdigest()
        assert got == digest

    def test_different_seed_differs(self):
        h1 = init_head([8, 13], seed=1)
        h2 = init_head([8, 13], seed=2)
        assert not np.array_equal(h1.parameters()[0], h2.parameters()[0])

    def test_single_linear_layer_has_no_norms(self):
        head = init_head([8, 13], seed=5)
        assert head.num_hidden == 0
        assert [p.shape for p in head.parameters()] == [(13, 8), (13,)]

    def test_structure(self):
        head = init_head([8, 256, 64, 13], seed=1)
        assert head.layer_dims == (8, 256, 64, 13)
        params = head.parameters()
        assert [p.shape for p in params] == [
            (256, 8), (256,), (256,), (256,), (64, 256), (64,), (64,), (64,), (13, 64), (13,)]
        for bias in params[1::4]:
            assert np.all(bias == 0.0)
        for _, _, gamma, beta in hidden_layers(head):
            assert np.all(gamma == 1.0) and np.all(beta == 0.0)

    def test_fan_in_variance_within_20_percent(self):
        # U(-limit, limit) with limit = sqrt(6/fan_in) has variance 2/fan_in.
        head = init_head([8, 256, 64, 13], seed=1)
        for weights, fan_in in zip(head.parameters()[0::4], (8, 256, 64)):
            target = 2.0 / fan_in
            sample = float(weights.var())
            assert abs(sample - target) / target < 0.20
            limit = math.sqrt(6.0 / fan_in)
            assert float(np.abs(weights).max()) < limit

    def test_invalid_dims(self):
        with pytest.raises(ValueError, match="at least"):
            validate_layer_dims([13])
        with pytest.raises(ValueError, match="positive"):
            validate_layer_dims([8, 0, 13])
        with pytest.raises(ValueError, match="must be 13"):
            validate_layer_dims([8, 12])

    def test_parameter_order(self):
        # weights, bias, gamma, beta of the hidden layer, then the output
        # layer's weights and bias, laid end to end in the vector.
        head = init_head([4, 6, 13], seed=3)
        params = head.parameters()
        assert [p.shape for p in params] == [(6, 4), (6,), (6,), (6,), (13, 6), (13,)]
        starts = np.cumsum([0] + [p.size for p in params])[:-1]
        for i, p in enumerate(params):
            p.reshape(-1)[0] = 100.0 + i
        assert head.vector[starts].tolist() == [100.0 + i for i in range(6)]
        # The views are built once: every call returns the same arrays.
        assert all(a is b for a, b in zip(params, head.parameters()))


class TestLayerNorm:
    def test_constant_input_gives_zero(self):
        out = layer_norm(np.full(4, 3.0), np.ones(4), np.zeros(4))
        assert np.array_equal(out, np.zeros(4))

    def test_constant_input_beta_passthrough(self):
        out = layer_norm(np.full(4, 3.0), np.ones(4), np.full(4, 2.5))
        assert np.array_equal(out, np.full(4, 2.5))

    def test_two_point_hand_value(self):
        # x=(1,-1): mean 0, population var 1, y = 1/sqrt(1 + 1e-5).
        assert LAYER_NORM_EPSILON == 1e-5
        out = layer_norm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2))
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        assert out[0] == expected and out[1] == -expected
        assert abs(out[0] - 0.999995) < 1e-6

    def test_population_variance_not_sample(self):
        # With n-1 normalization the two-point case would give 1/sqrt(2+eps).
        out = layer_norm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2))
        assert abs(out[0] - 1.0 / math.sqrt(2.0)) > 0.2

    def test_output_moments_property(self):
        rng = SplitMix64(40)
        for _ in range(20):
            x = rng.normals(16) * rng.uniform(0.1, 10.0)
            y = layer_norm(x, np.ones(16), np.zeros(16))
            assert abs(float(y.mean())) <= 1e-10
            var_x = float(np.asarray(x).var())
            expected = 1.0 / (1.0 + LAYER_NORM_EPSILON / var_x)
            assert abs(float(y.var()) - expected) < 1e-6

    @pytest.mark.parametrize("width", [13, 64, 128, 256, 1000])
    def test_bytes_equal_numpy_mean_and_var(self, width):
        """The wrapper-free reductions give the bytes of ``z.mean``/``z.var``,
        for 2-D batches and (n, 1, H) stacks, constant rows and rows far from
        zero included, and leave ``z`` as it was (backprop caches it)."""
        rng = np.random.default_rng(width)
        gamma, beta = rng.standard_normal(width), rng.standard_normal(width)
        for batch in (1, 2, 3, 4, 37, 256):
            z = rng.standard_normal((batch, width)) * rng.uniform(0.01, 100.0, (batch, 1))
            z[::3] += 1e6
            z[1::5] = rng.standard_normal((len(z[1::5]), 1))  # constant rows: zero variance
            for stack in (z, z[:, None, :]):
                before = stack.copy()
                mean = stack.mean(axis=-1, keepdims=True)
                inv_std = 1.0 / np.sqrt(stack.var(axis=-1, keepdims=True) + LAYER_NORM_EPSILON)
                xhat = (stack - mean) * inv_std
                got = _layer_norm_batch(stack, gamma, beta)
                for a, b in zip(got, (xhat, inv_std, gamma * xhat + beta)):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), (width, batch, stack.ndim)
                assert stack.tobytes() == before.tobytes()

    def test_dimension_mismatch(self):
        # A norm must be as wide as the layer it follows: a 4-wide norm after
        # a 5-wide layer leaves the vector two values short.
        with pytest.raises(ValueError, match=r"shape \(111,\) does not match .* take \(113,\)"):
            head_of((4, 5, 13), np.zeros((5, 4)), np.zeros(5), np.ones(4), np.zeros(4),
                    np.zeros((13, 5)), np.zeros(13))


class TestForward:
    def test_zero_head_outputs_zeros(self):
        head = make_zero_head([8, 16, 13])
        out = head_forward(head, np.arange(8.0))
        assert np.array_equal(out, np.zeros(13))

    def test_identity_padded_affine(self):
        w = np.zeros((13, 8))
        for i in range(8):
            w[i, i] = 1.0
        head = head_of((8, 13), w, np.full(13, 2.0))
        x = np.arange(8.0)
        out = head_forward(head, x)
        assert np.array_equal(out[:8], x + 2.0)
        assert np.array_equal(out[8:], np.full(5, 2.0))

    def test_matches_straight_line_reimplementation(self):
        rng = SplitMix64(60)
        for dims in [(8, 256, 64, 13), (5, 7, 3, 13), (6, 13)]:
            head = init_head(dims, rng.next_u64())
            x = rng.normals(dims[0])
            got = head_forward(head, x)
            want = reference_forward(head, x)
            denom = np.maximum(np.abs(want), 1e-30)
            assert float(np.max(np.abs(got - want) / denom)) < 1e-10

    def test_batch_matches_vector_path(self):
        head = init_head([4, 8, 13], seed=2)
        rng = SplitMix64(61)
        xs = rng.normals(12).reshape(3, 4)
        batch_out = head_forward(head, xs)
        assert batch_out.shape == (3, 13)
        for i in range(3):
            assert np.allclose(batch_out[i], head_forward(head, xs[i]), rtol=1e-12, atol=1e-14)

    def test_deterministic(self):
        head = init_head([4, 8, 13], seed=2)
        x = np.arange(4.0)
        assert np.array_equal(head_forward(head, x), head_forward(head, x))

    def test_dimension_mismatch(self):
        head = init_head([4, 13], seed=0)
        with pytest.raises(ValueError, match="dimension"):
            head_forward(head, np.zeros(5))

    def test_stack_of_rows_matches_each_row_alone(self):
        head = init_head([4, 8, 13], seed=2)
        xs = SplitMix64(62).normals(20).reshape(5, 4)
        out = head_forward(head, xs[:, None, :])
        assert out.shape == (5, 1, 13)
        for i in range(5):
            assert out[i, 0].tobytes() == head_forward(head, xs[i]).tobytes()
        with pytest.raises(ValueError, match="input dimension 5 does not match head input 4"):
            head_forward(head, np.zeros((2, 1, 5)))
        with pytest.raises(ValueError, match="input must be 1-D or 2-D"):
            head_forward(head, np.zeros((2, 1, 1, 4)))

    def test_non_finite_signals_divergence(self):
        # Varied first-layer rows keep hidden activations non-constant so the
        # layer norm cannot cancel them before the huge final weights overflow.
        head = make_zero_head([4, 8, 13])
        params = head.parameters()
        params[0][:] = np.arange(32.0).reshape(8, 4)
        params[4][:] = 1e308
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            head_forward(head, np.ones(4))


class TestForwardCache:
    def test_caches_match_independent_recomputation(self):
        rng = SplitMix64(62)
        for dims in [(8, 256, 64, 13), (5, 7, 3, 13), (6, 13)]:
            head = init_head(dims, rng.next_u64())
            x = rng.normals(3 * dims[0]).reshape(3, dims[0])
            out, inputs, hidden = _forward(head, x)
            assert len(inputs) == len(dims) - 1 and len(hidden) == head.num_hidden
            a = x
            for k, (weights, bias, gamma, beta) in enumerate(hidden_layers(head)):
                assert np.array_equal(inputs[k], a)
                z = a @ weights.T + bias
                centred = z - z.mean(axis=1, keepdims=True)
                inv_std = 1.0 / np.sqrt((centred ** 2).mean(axis=1, keepdims=True) + LAYER_NORM_EPSILON)
                xhat = centred * inv_std
                y = gamma * xhat + beta
                for got, want in zip(hidden[k], (z, xhat, inv_std, y)):
                    assert got.shape == want.shape and np.array_equal(got, want)
                a = np.maximum(y, 0.0)
            assert np.array_equal(inputs[-1], a)
            weights, bias = head.parameters()[-2:]
            assert np.array_equal(out, a @ weights.T + bias)

    def test_loss_and_gradient_difference_the_forward_output(self):
        # Training's loss and its output gradient read the same bits that
        # head_forward returns for the batch.
        rng = SplitMix64(63)
        head = init_head([6, 16, 8, 13], rng.next_u64())
        for batch in (1, 4):
            x = rng.normals(batch * 6).reshape(batch, 6)
            t = rng.uniforms(batch * 13, 1, 7).reshape(batch, 13)
            diff = head_forward(head, x) - t
            loss, grad = _loss_and_grads(head, x, t)
            assert loss == float(np.mean(diff * diff))
            assert np.array_equal(head.views(grad)[-1], np.sum((2.0 / (batch * 13)) * diff, axis=0))


def bias_head(pred):
    """A single linear layer with zero weights: every input maps to ``pred``."""
    return head_of((4, 13), np.zeros((13, 4)), pred)


class TestMseLoss:
    def test_identity_is_zero(self):
        v = np.linspace(1, 7, 13)
        assert batch_loss(bias_head(v), np.ones((1, 4)), v[None, :]) == 0.0

    def test_constant_offset(self):
        v = np.zeros(13)
        assert batch_loss(bias_head(v + 1.0), np.ones((1, 4)), v[None, :]) == 1.0

    def test_hand_value(self):
        pred = np.zeros(13)
        pred[0] = 2.0
        assert batch_loss(bias_head(pred), np.ones((1, 4)), np.zeros((1, 13))) == 4.0 / 13.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="targets"):
            batch_loss(bias_head(np.zeros(13)), np.ones((1, 4)), np.zeros((1, 12)))


class TestParameterVector:
    def test_layout_is_canonical_order(self):
        head = init_head([5, 8, 6, 13], seed=4)
        params = head.parameters()
        assert np.array_equal(head.vector, np.concatenate([p.reshape(-1) for p in params]))
        for p, view in zip(params, head.views(head.vector)):
            assert np.shares_memory(p, head.vector)
            assert np.array_equal(p, view)

    def test_backward_results_share_no_memory(self):
        head = init_head([5, 8, 13], seed=4)
        x, t = np.ones((2, 5)), np.ones((2, 13))
        first = head_backward(head, x, t)
        second = head_backward(head, x, t)
        for g in first:
            assert not np.shares_memory(g, head.vector)
            for other in second:
                assert not np.shares_memory(g, other)
        for g in second:
            assert not np.shares_memory(g, head.vector)

    def test_writes_through_layers_reach_vector_and_forward(self):
        head = init_head([5, 8, 13], seed=4)
        x = np.arange(5.0)
        before = head_forward(head, x)
        params = head.parameters()
        params[4][...] = 0.0
        params[5][...] = 3.0
        assert np.array_equal(head_forward(head, x), np.full(13, 3.0))
        assert not np.array_equal(before, np.full(13, 3.0))
        assert np.array_equal(head.vector[-13:], np.full(13, 3.0))
        params[0][0, 0] = 42.0
        assert head.vector[0] == 42.0

    def test_copy_shares_nothing(self):
        # A head built from another head's widths and vector is a deep copy.
        head = init_head([5, 8, 13], seed=4)
        dup = MlpHead(head.layer_dims, head.vector)
        assert not np.shares_memory(dup.vector, head.vector)
        for a in dup.parameters():
            for b in head.parameters():
                assert not np.shares_memory(a, b)
        assert np.array_equal(dup.vector, head.vector)

    def test_construction_does_not_alias_inputs(self):
        vector = np.zeros(13 * 4 + 13)
        head = MlpHead((4, 13), vector)
        vector[...] = 1.0
        assert np.array_equal(head.vector, np.zeros(13 * 4 + 13))

    def test_structure_must_match_layer_dims(self):
        with pytest.raises(ValueError, match="match"):
            head_of((4, 13), np.zeros((13, 5)), np.zeros(13))
        with pytest.raises(ValueError, match="match"):
            head_of((4, 13), np.zeros((13, 4)), np.zeros(13), np.ones(13), np.zeros(13))
        with pytest.raises(ValueError, match="match"):
            MlpHead((4, 13), np.zeros((13, 5)))  # the right size, but not a flat vector

    def test_a_head_is_its_widths_and_one_finite_vector(self):
        assert [f.name for f in dataclasses.fields(MlpHead) if f.init] == ["layer_dims", "vector"]
        head = MlpHead([4, 13], np.zeros(65))
        assert head.layer_dims == (4, 13) and head.vector.dtype == np.float64
        for bad in (np.inf, np.nan):
            vector = np.zeros(65)
            vector[7] = bad
            with pytest.raises(ValueError, match="finite"):
                MlpHead((4, 13), vector)
        with pytest.raises(ValueError, match="must be 13"):
            MlpHead((4, 12), np.zeros(60))


class TestBackward:
    def test_zero_gradient_at_minimum(self):
        head = make_zero_head([4, 6, 13])
        x = np.ones((3, 4))
        targets = np.zeros((3, 13))
        grads = head_backward(head, x, targets)
        for g in grads:
            assert np.array_equal(g, np.zeros_like(g))

    def test_single_linear_closed_form(self):
        rng = SplitMix64(70)
        w = rng.normals(13 * 4).reshape(13, 4)
        b = rng.normals(13)
        head = head_of((4, 13), w, b)
        x = rng.normals(4)
        target = rng.uniforms(13, 1, 7)
        pred = head_forward(head, x)
        grads = head_backward(head, x[None, :], target[None, :])
        want_w = (2.0 / 13.0) * np.outer(pred - target, x)
        want_b = (2.0 / 13.0) * (pred - target)
        assert np.allclose(grads[0], want_w, rtol=1e-12, atol=1e-14)
        assert np.allclose(grads[1], want_b, rtol=1e-12, atol=1e-14)

    def test_batch_gradient_is_mean_of_singles(self):
        head = init_head([5, 8, 13], seed=9)
        rng = SplitMix64(71)
        x = rng.normals(10).reshape(2, 5)
        t = rng.uniforms(26, 1, 7).reshape(2, 13)
        batch = head_backward(head, x, t)
        g0 = head_backward(head, x[0:1], t[0:1])
        g1 = head_backward(head, x[1:2], t[1:2])
        for gb, a, b in zip(batch, g0, g1):
            assert np.allclose(gb, 0.5 * (a + b), rtol=1e-12, atol=1e-15)

    def test_empty_batch_rejected(self):
        head = init_head([4, 13], seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            head_backward(head, np.zeros((0, 4)), np.zeros((0, 13)))

    def test_target_shape_mismatch(self):
        head = init_head([4, 13], seed=0)
        with pytest.raises(ValueError, match="targets"):
            head_backward(head, np.zeros((2, 4)), np.zeros((3, 13)))


def reference_adam(vector, grad, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent Adam recurrence for a constant gradient."""
    p = vector.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t in range(1, steps + 1):
        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def whole_array_adam(vector, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as one expression over the whole vector, in the operation order
    the chunked update must reproduce bit for bit."""
    p = vector.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads_per_step, start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return p


def assert_rejected(vector, grad, state, match):
    """The step raises and leaves the count, the vector and the moments as they were."""
    before = [a.copy() for a in (vector, state.first_moment, state.second_moment)]
    with pytest.raises(ValueError, match=match):
        adam_update(vector, grad, state)
    assert state.step_count == 0
    for a, b in zip((vector, state.first_moment, state.second_moment), before):
        assert np.array_equal(a, b)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        vector = np.array([1.0, -2.0, 3.0])
        state = AdamState.for_params(vector, learning_rate=0.1)
        adam_update(vector, np.zeros(3), state)
        assert state.step_count == 1
        assert np.array_equal(vector, [1.0, -2.0, 3.0])
        assert np.array_equal(state.first_moment, np.zeros(3))
        assert np.array_equal(state.second_moment, np.zeros(3))

    def test_first_step_identity(self):
        g = 0.7
        lr = 0.05
        vector = np.array([1.0])
        state = AdamState.for_params(vector, learning_rate=lr)
        adam_update(vector, np.array([g]), state)
        # Bias correction makes mhat=g and sqrt(vhat)=g on step one.
        assert vector[0] == pytest.approx(1.0 - lr * g / (g + 1e-8), rel=1e-15)

    def test_two_steps_match_reference_trace(self):
        rng = SplitMix64(80)
        vector = rng.normals(10)
        grad = rng.normals(10)
        want = reference_adam(vector, grad, lr=0.01, steps=2)
        state = AdamState.for_params(vector, learning_rate=0.01)
        adam_update(vector, grad, state)
        adam_update(vector, grad, state)
        assert np.allclose(vector, want, rtol=1e-12, atol=1e-15)

    def test_chunk_boundaries_match_whole_array_expression(self):
        rng = SplitMix64(82)
        for size in (2 * ADAM_CHUNK + 3, ADAM_CHUNK, ADAM_CHUNK + 1, 1):
            vector = rng.normals(size)
            steps = [rng.normals(size) for _ in range(5)]
            want = whole_array_adam(vector, steps, lr=0.01)
            state = AdamState.for_params(vector, learning_rate=0.01)
            for grad in steps:
                adam_update(vector, grad, state)
            assert np.array_equal(vector, want), size

    def test_non_contiguous_rejected(self):
        strided = np.zeros(8)[::2]
        state = AdamState.for_params(np.zeros(4), learning_rate=0.1)
        assert_rejected(strided, np.zeros(4), state, "contiguous")
        assert_rejected(np.zeros(4), strided, state, "contiguous")
        state.first_moment = np.zeros(8)[::2]
        assert_rejected(np.zeros(4), np.zeros(4), state, "contiguous")

    def test_shape_mismatch(self):
        state = AdamState.for_params(np.zeros(3), learning_rate=0.1)
        assert_rejected(np.zeros(3), np.zeros(4), state, r"shape.*\(3,\), \(4,\)")

    def test_structure_mismatch(self):
        # Adam steps one 1-D vector: a 2-D parameter or a moment of another
        # length is rejected before any state changes.
        state = AdamState.for_params(np.zeros((2, 3)), learning_rate=0.1)
        assert_rejected(np.zeros((2, 3)), np.zeros((2, 3)), state, "1-D")
        state = AdamState.for_params(np.zeros(3), learning_rate=0.1)
        state.second_moment = np.zeros(4)
        assert_rejected(np.zeros(3), np.zeros(3), state, "1-D")

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError, match="learning rate"):
            AdamState.for_params(np.zeros(1), learning_rate=-1.0)

    def test_small_step_does_not_increase_loss(self):
        # One Adam step at lr=1e-6 on a fixed batch.
        rng = SplitMix64(81)
        for _ in range(10):
            head = init_head([6, 16, 13], rng.next_u64())
            x = rng.normals(12).reshape(2, 6)
            t = rng.uniforms(26, 1, 7).reshape(2, 13)
            before, grad = _loss_and_grads(head, x, t)
            state = AdamState.for_params(head.vector, learning_rate=1e-6)
            adam_update(head.vector, grad, state)
            assert batch_loss(head, x, t) <= before


class TestGradcheck:
    def test_zero_everything_gives_zero_error(self):
        head = make_zero_head([4, 6, 13])
        assert gradcheck(head, np.zeros((1, 4)), np.zeros((1, 13)), 1e-5) == 0.0

    def test_single_linear_quadratic(self):
        rng = SplitMix64(90)
        head = init_head([4, 13], rng.next_u64())
        x = rng.normals(8).reshape(2, 4)
        t = rng.normals(26).reshape(2, 13)
        assert gradcheck(head, x, t, 1e-5) <= 1e-7

    def test_two_hidden_layers(self):
        rng = SplitMix64(91)
        head = init_head([8, 32, 16, 13], rng.next_u64())
        x = rng.normals(16).reshape(2, 8)
        t = head_forward(head, x) + 0.03 * rng.normals(26).reshape(2, 13)
        assert gradcheck(head, x, t, 1e-5) < 1e-4

    def test_many_seeds_small_architectures(self):
        rng = SplitMix64(92)
        worst = 0.0
        for _ in range(20):
            head = init_head([6, 24, 12, 13], rng.next_u64())
            x = rng.normals(12).reshape(2, 6)
            t = head_forward(head, x) + 0.03 * rng.normals(26).reshape(2, 13)
            worst = max(worst, gradcheck(head, x, t, 1e-5))
        assert worst < 1e-4

    def test_h_domain(self):
        head = init_head([4, 13], seed=0)
        x = np.ones((1, 4))
        t = np.ones((1, 13))
        for bad in (1e-7, 1e-2, 0.0):
            with pytest.raises(ValueError, match="perturbation"):
                gradcheck(head, x, t, bad)
        gradcheck(head, x, t, 1e-6)
        gradcheck(head, x, t, 1e-3)

    def test_wrong_target_shape_rejected(self):
        # A transposed or flat target array is not reshaped into a batch.
        head = init_head([4, 8, 13], seed=0)
        x = np.ones((2, 4))
        for bad in (np.zeros((13, 2)), np.zeros(26)):
            with pytest.raises(ValueError, match=re.escape(f"targets shape {bad.shape}")):
                gradcheck(head, x, bad)

    def test_probe_paths_match_full_loss(self):
        # The cached-prefix probes must compute the same loss surface that
        # batch_loss sees, to finite-difference precision.
        rng = SplitMix64(93)
        head = init_head([5, 10, 8, 13], rng.next_u64())
        x = rng.normals(10).reshape(2, 5)
        t = rng.normals(26).reshape(2, 13)
        # Manual central difference using batch_loss for a few parameters in
        # every group, compared against the analytic gradient.
        grads = head_backward(head, x, t)
        h = 1e-5
        for arr, grad in zip(head.parameters(), grads):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            k = flat.size // 2
            orig = flat[k]
            flat[k] = orig + h
            lp = batch_loss(head, x, t)
            flat[k] = orig - h
            lm = batch_loss(head, x, t)
            flat[k] = orig
            numeric = (lp - lm) / (2 * h)
            assert abs(numeric - gflat[k]) / max(abs(numeric), abs(gflat[k]), 1e-8) < 1e-4
