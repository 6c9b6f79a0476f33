import numpy as np
import pytest

from instrumentid.nn import (
    temporal_conv_forward, temporal_conv_backward,
    maxpool_forward, maxpool_backward,
    relu, relu_backward,
    fully_connected_forward, fully_connected_backward,
    sigmoid, sigmoid_backward,
    dropout, dropout_backward,
)

from helpers import conv_naive, maxpool_naive, numeric_gradient, relative_error


class TestTemporalConv:
    def test_central_difference_on_ramp(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
        w = np.array([[[1.0, 0.0, -1.0]]])
        out = temporal_conv_forward(x, w, np.zeros(1))
        np.testing.assert_allclose(out, [[-2.0, -2.0, -2.0]])

    def test_zero_weights_gives_bias(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 9))
        w = np.zeros((3, 2, 4))
        b = np.array([0.5, -1.0, 2.0])
        out = temporal_conv_forward(x, w, b)
        np.testing.assert_array_equal(out, np.repeat(b[:, None], 6, axis=1))

    def test_full_size_output_shape(self):
        # Table-1-scale first layer: 44100 samples, filter 3101, 256 maps
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 44100)).astype(np.float32)
        w = rng.normal(size=(256, 1, 3101)).astype(np.float32) * 0.01
        out = temporal_conv_forward(x, w, np.zeros(256, dtype=np.float32))
        assert out.shape == (256, 41000)
        assert np.isfinite(out).all()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 12))
        w = rng.normal(size=(2, 3, 5))
        b = rng.normal(size=2)
        out = temporal_conv_forward(x, w, b)
        np.testing.assert_allclose(out, conv_naive(x, w, b), rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 2, 4))
        zero_b = np.zeros(2)
        x1 = rng.normal(size=(2, 10))
        x2 = rng.normal(size=(2, 10))
        a, b = 1.7, -0.3
        lhs = temporal_conv_forward(a * x1 + b * x2, w, zero_b)
        rhs = a * temporal_conv_forward(x1, w, zero_b) + b * temporal_conv_forward(x2, w, zero_b)
        assert relative_error(lhs, rhs) < 1e-5

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            temporal_conv_forward(np.zeros((2, 8)), np.zeros((1, 3, 4)), np.zeros(1))

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="shorter than filter"):
            temporal_conv_forward(np.zeros((1, 3)), np.zeros((1, 1, 4)), np.zeros(1))

    def test_backward_zero_grad(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 8))
        w = rng.normal(size=(3, 2, 3))
        gx, gw, gb = temporal_conv_backward(x, w, np.zeros((3, 6)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_backward_single_position(self):
        # one output position: grad_weights[m, c, k] = x[c, k] * grad_out[m, 0]
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(4, 2, 3))
        g = rng.normal(size=(4, 1))
        _, gw, gb = temporal_conv_backward(x, w, g)
        np.testing.assert_allclose(gw, g[:, 0][:, None, None] * x[None, :, :])
        np.testing.assert_allclose(gb, g[:, 0])

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 10))
        w = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=3)
        r = rng.normal(size=(3, 7))

        gx, gw, gb = temporal_conv_backward(x, w, r)
        fd_x = numeric_gradient(lambda v: (temporal_conv_forward(v, w, b) * r).sum(), x)
        fd_w = numeric_gradient(lambda v: (temporal_conv_forward(x, v, b) * r).sum(), w)
        fd_b = numeric_gradient(lambda v: (temporal_conv_forward(x, w, v) * r).sum(), b)
        assert relative_error(gx, fd_x) < 1e-5
        assert relative_error(gw, fd_w) < 1e-5
        assert relative_error(gb, fd_b) < 1e-5
        # the weight-only call skips the input gradient, nothing else
        none_x, gw_only, gb_only = temporal_conv_backward(x, w, r, needs_input_grad=False)
        assert none_x is None
        np.testing.assert_array_equal(gw_only, gw)
        np.testing.assert_array_equal(gb_only, gb)

    def test_backward_rejects_bad_grad_shape(self):
        with pytest.raises(ValueError, match="does not match conv output"):
            temporal_conv_backward(np.zeros((1, 8)), np.zeros((2, 1, 3)), np.zeros((2, 5)))


class TestMaxPool:
    def test_basic_windows(self):
        x = np.array([[1.0, 3.0, 2.0, 5.0, 4.0, 0.0]])
        out, arg = maxpool_forward(x, 2, 2)
        np.testing.assert_array_equal(out, [[3.0, 5.0, 4.0]])
        np.testing.assert_array_equal(arg, [[1, 3, 4]])

    def test_table1_pooling_arithmetic(self):
        x = np.random.default_rng(7).normal(size=(2, 41000))
        out, _ = maxpool_forward(x, 40, 20)
        assert out.shape == (2, 2049)

    def test_constant_input_ties_break_to_first(self):
        x = np.full((1, 10), 3.3)
        out, arg = maxpool_forward(x, 4, 2)
        np.testing.assert_array_equal(out, np.full((1, 4), 3.3))
        np.testing.assert_array_equal(arg, [[0, 2, 4, 6]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 25))
        for size, stride in [(4, 2), (5, 5), (3, 1)]:
            out, arg = maxpool_forward(x, size, stride)
            nout, narg = maxpool_naive(x, size, stride)
            np.testing.assert_array_equal(out, nout)
            np.testing.assert_array_equal(arg, narg)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="shorter than pool"):
            maxpool_forward(np.zeros((1, 3)), 4, 2)

    def test_backward_nonoverlapping_routes_once(self):
        x = np.array([[1.0, 3.0, 2.0, 5.0]])
        _, arg = maxpool_forward(x, 2, 2)
        g = maxpool_backward(arg, np.array([[10.0, 20.0]]), x.shape)
        np.testing.assert_array_equal(g, [[0.0, 10.0, 0.0, 20.0]])

    def test_backward_accumulates_shared_winner(self):
        # overlapping windows (size 4, stride 2) both won by the global max
        x = np.array([[0.0, 1.0, 9.0, 2.0, 1.0, 0.0]])
        out, arg = maxpool_forward(x, 4, 2)
        assert arg.tolist() == [[2, 2]]
        g = maxpool_backward(arg, np.array([[5.0, 7.0]]), x.shape)
        np.testing.assert_array_equal(g, [[0.0, 0.0, 12.0, 0.0, 0.0, 0.0]])

    def test_backward_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            maxpool_backward(np.array([[9]]), np.array([[1.0]]), (1, 4))

    def test_backward_matches_finite_differences(self):
        # strict-max windows: values spaced 0.1 apart, far beyond the FD step
        rng = np.random.default_rng(9)
        x = rng.permutation(24).reshape(2, 12) * 0.1
        r = rng.normal(size=(2, 5))

        def f(v):
            out, _ = maxpool_forward(v, 4, 2)
            return (out * r).sum()

        _, arg = maxpool_forward(x, 4, 2)
        gx = maxpool_backward(arg, r, x.shape)
        assert relative_error(gx, numeric_gradient(f, x)) < 1e-5


class TestReluSigmoidDropout:
    def test_relu_values(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_idempotent(self):
        x = np.random.default_rng(10).normal(size=(3, 7))
        np.testing.assert_array_equal(relu(relu(x)), relu(x))

    def test_relu_gradient(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, size=(4, 6))
        x[np.abs(x) < 1e-3] = 0.5  # stay away from the kink
        r = rng.normal(size=x.shape)
        gx = relu_backward(x, r)
        fd = numeric_gradient(lambda v: (relu(v) * r).sum(), x)
        assert relative_error(gx, fd) < 1e-5

    def test_relu_zero_derivative_at_zero(self):
        np.testing.assert_array_equal(relu_backward(np.zeros(3), np.ones(3)), np.zeros(3))

    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array(0.0)) == 0.5

    def test_sigmoid_stable_extremes(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.isfinite(out).all()
        assert 0.0 <= out[0] < 1e-300
        assert out[1] == 1.0  # saturates in float64, stays finite

    def test_sigmoid_range_is_open_interval_for_moderate_inputs(self):
        x = np.linspace(-30, 30, 101)
        out = sigmoid(x)
        assert ((out > 0) & (out < 1)).all()

    def test_sigmoid_gradient(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5,))
        r = rng.normal(size=(5,))
        gx = sigmoid_backward(sigmoid(x), r)
        fd = numeric_gradient(lambda v: (sigmoid(v) * r).sum(), x)
        assert relative_error(gx, fd) < 1e-5

    def test_dropout_rate_zero_is_identity(self):
        x = np.random.default_rng(13).normal(size=(2, 5))
        out, mask = dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out, x)
        assert mask is None

    def test_dropout_inference_is_identity(self):
        x = np.random.default_rng(14).normal(size=(2, 5))
        out, mask = dropout(x, 0.9, None, training=False)
        np.testing.assert_array_equal(out, x)
        assert mask is None

    def test_dropout_rejects_bad_rate(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="drop rate"):
                dropout(np.ones(3), rate, np.random.default_rng(0), training=True)

    def test_dropout_mean_preserved(self):
        # E[dropout(x)] = x: 1e5 seeded draws on x=1, rate 0.5; SE = 1/sqrt(1e5)
        rng = np.random.default_rng(15)
        out, _ = dropout(np.ones(100_000), 0.5, rng, training=True)
        se = 1.0 / np.sqrt(100_000)
        assert abs(out.mean() - 1.0) < 3 * se

    def test_dropout_backward_uses_mask(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(50,))
        out, mask = dropout(x, 0.3, np.random.default_rng(1), training=True)
        g = dropout_backward(mask, 0.3, np.ones_like(x))
        # gradient is 1/(1-rate) exactly where the activation survived
        np.testing.assert_allclose(g[mask], 1.0 / 0.7)
        np.testing.assert_array_equal(g[~mask], 0.0)


class TestFullyConnected:
    def test_forward(self):
        w = np.array([[1.0, 2.0], [0.0, -1.0]])
        out = fully_connected_forward(np.array([3.0, 4.0]), w, np.array([1.0, 1.0]))
        np.testing.assert_array_equal(out, [12.0, -3.0])

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError, match="fc shape mismatch"):
            fully_connected_forward(np.zeros(3), np.zeros((2, 4)), np.zeros(2))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=6)
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        r = rng.normal(size=4)
        gx, gw, gb = fully_connected_backward(x, w, r)
        assert relative_error(gx, numeric_gradient(
            lambda v: (fully_connected_forward(v, w, b) * r).sum(), x)) < 1e-6
        assert relative_error(gw, numeric_gradient(
            lambda v: (fully_connected_forward(x, v, b) * r).sum(), w)) < 1e-6
        assert relative_error(gb, numeric_gradient(
            lambda v: (fully_connected_forward(x, w, v) * r).sum(), b)) < 1e-6
