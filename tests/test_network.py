import numpy as np
import pytest

from instrumentid.nn import (
    LayerKind, ModelParams, SgdConfig,
    table1_layers, reduced_layers, infer_shapes, flatten_size, init_params,
    forward, backward, sgd_step, bce_loss,
    FULL_INPUT_LENGTH, REDUCED_INPUT_LENGTH,
)
from instrumentid.nn import model as nnm

from helpers import numeric_gradient, relative_error


def test_table1_shape_chain():
    specs = table1_layers()
    shapes = infer_shapes(specs, FULL_INPUT_LENGTH, 1)
    conv_pool = [s for s, spec in zip(shapes, specs)
                 if spec.kind in (LayerKind.TEMPORAL_CONV, LayerKind.MAX_POOL)]
    assert conv_pool == [
        (256, 41000), (256, 2049),
        (384, 1750), (384, 87),
        (384, 68), (384, 16),
    ]
    assert flatten_size(specs, FULL_INPUT_LENGTH) == 6144
    assert shapes[-1] == (11,)


def test_reduced_shape_chain():
    specs = reduced_layers()
    shapes = infer_shapes(specs, REDUCED_INPUT_LENGTH, 1)
    assert flatten_size(specs, REDUCED_INPUT_LENGTH) == 54
    assert shapes[-1] == (11,)


def test_single_conv_filter_equals_input():
    shapes = infer_shapes([nnm.conv(3, 7)], 7, 1)
    assert shapes == [(3, 1)]


def test_input_shorter_than_first_filter_names_layer_zero():
    with pytest.raises(ValueError, match="layer 0"):
        infer_shapes(table1_layers(), 3100, 1)


def test_intermediate_too_short_names_layer_index():
    specs = [nnm.conv(2, 5), nnm.max_pool(10, 10)]
    with pytest.raises(ValueError, match="layer 1"):
        infer_shapes(specs, 8, 1)


@pytest.mark.parametrize("make", [
    lambda: nnm.conv(0, 5), lambda: nnm.conv(4, 0),
    lambda: nnm.max_pool(4, 0), lambda: nnm.max_pool(0, 2),
    lambda: nnm.fully_connected(0), lambda: nnm.dropout(1.0),
])
def test_layer_constructors_reject_out_of_range_values(make):
    with pytest.raises(ValueError, match=">= 1|in \\[0, 1\\)"):
        make()


def test_init_params_shapes_and_determinism():
    specs = reduced_layers()
    p1 = init_params(specs, REDUCED_INPUT_LENGTH, seed=42)
    p2 = init_params(specs, REDUCED_INPUT_LENGTH, seed=42)
    p3 = init_params(specs, REDUCED_INPUT_LENGTH, seed=43)
    assert [w.shape for w in p1.weights] == [
        (4, 1, 11), (6, 4, 5), (6, 6, 3), (16, 54), (11, 16)]
    for a, b in zip(p1.weights, p2.weights):
        np.testing.assert_array_equal(a, b)
    assert any((a != b).any() for a, b in zip(p1.weights, p3.weights))
    for w, spec_fan in zip(p1.weights, [11, 20, 18, 54, 16]):
        bound = np.sqrt(6.0 / spec_fan)
        assert np.abs(w).max() <= bound
    assert all(not b.any() for b in p1.biases)


def _tiny_specs(drop_rate=0.0):
    return nnm.reduced_layers(drop_rate)


def _tiny_input(batch=2, length=80, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, 1, length))


def test_forward_output_in_unit_interval():
    specs = _tiny_specs()
    params = init_params(specs, 80, seed=0, dtype=np.float64)
    preds, _ = forward(params, specs, _tiny_input(), mode="eval")
    assert preds.shape == (2, 11)
    assert ((preds > 0) & (preds < 1)).all()


def test_composed_network_gradients_match_finite_differences():
    # eval mode: dropout is the identity, everything else differentiable
    specs = _tiny_specs(drop_rate=0.5)
    params = init_params(specs, 80, seed=1, dtype=np.float64)
    batch = _tiny_input(batch=2, seed=2)
    y = np.random.default_rng(3).integers(0, 2, size=(2, 11))

    def loss_with(params_mod):
        preds, _ = forward(params_mod, specs, batch, mode="eval")
        return bce_loss(preds, y)[0]

    preds, cache = forward(params, specs, batch, mode="eval")
    _, grad_pred = bce_loss(preds, y)
    grads = backward(cache, grad_pred)

    for i in range(len(params.weights)):
        def f_w(v, i=i):
            trial = params.copy()
            trial.weights[i] = v
            return loss_with(trial)

        def f_b(v, i=i):
            trial = params.copy()
            trial.biases[i] = v
            return loss_with(trial)

        fd_w = numeric_gradient(f_w, params.weights[i])
        fd_b = numeric_gradient(f_b, params.biases[i])
        assert relative_error(grads.weights[i], fd_w) < 1e-4, f"weights {i}"
        assert relative_error(grads.biases[i], fd_b) < 1e-4, f"biases {i}"


def test_backward_asks_no_input_gradient_of_layer_zero(monkeypatch):
    from instrumentid.nn import layers
    conv_backward = layers.temporal_conv_backward
    calls = []

    def spy(x, w, g, **kwargs):
        calls.append((x.shape[0], kwargs.get("needs_input_grad", True)))
        return conv_backward(x, w, g, **kwargs)

    specs = _tiny_specs()
    params = init_params(specs, 80, seed=1, dtype=np.float64)
    preds, cache = forward(params, specs, _tiny_input(batch=2), mode="eval")
    expected = backward(cache, np.ones_like(preds))
    monkeypatch.setattr(layers, "temporal_conv_backward", spy)
    grads = backward(cache, np.ones_like(preds))
    # input channels 6, 4, 1 per clip: conv2, conv1, then conv0 on the audio
    assert calls == [(6, True), (4, True), (1, False)] * 2
    for got, want in zip(grads.weights + grads.biases, expected.weights + expected.biases):
        np.testing.assert_array_equal(got, want)


def test_dropout_gradient_under_fixed_mask():
    # with a frozen mask the train-mode network is differentiable too
    specs = _tiny_specs(drop_rate=0.4)
    params = init_params(specs, 80, seed=4, dtype=np.float64)
    batch = _tiny_input(batch=1, seed=5)
    y = np.random.default_rng(6).integers(0, 2, size=(1, 11))

    preds, cache = forward(params, specs, batch, mode="train", rng=np.random.default_rng(7))
    _, grad_pred = bce_loss(preds, y)
    grads = backward(cache, grad_pred)

    # replay the identical mask by re-seeding the rng for every FD evaluation
    def loss_with_weights(v, idx):
        trial = params.copy()
        trial.weights[idx] = v
        p, _ = forward(trial, specs, batch, mode="train", rng=np.random.default_rng(7))
        return bce_loss(p, y)[0]

    idx = len(params.weights) - 1  # last FC sits above the dropout layer
    fd = numeric_gradient(lambda v: loss_with_weights(v, idx), params.weights[idx])
    assert relative_error(grads.weights[idx], fd) < 1e-4


def test_forward_deterministic_under_seeded_rng():
    specs = _tiny_specs(drop_rate=0.5)
    params = init_params(specs, 80, seed=8)
    batch = _tiny_input(batch=3, seed=9).astype(np.float32)
    p1, _ = forward(params, specs, batch, mode="train", rng=np.random.default_rng(11))
    p2, _ = forward(params, specs, batch, mode="train", rng=np.random.default_rng(11))
    np.testing.assert_array_equal(p1, p2)


def test_sgd_step_zero_gradient_is_identity():
    specs = _tiny_specs()
    params = init_params(specs, 80, seed=10)
    stepped = sgd_step(params, params.zeros_like(), 0.5)
    for a, b in zip(params.weights + params.biases, stepped.weights + stepped.biases):
        np.testing.assert_array_equal(a, b)


def test_sgd_step_hand_computed_scalar():
    # loss (w - 3)^2 / 2 at w = 0: gradient -3, so lr 0.1 moves w to 0.3
    params = ModelParams([np.array([0.0])], [np.array([0.0])])
    grads = ModelParams([np.array([-3.0])], [np.array([0.0])])
    new = sgd_step(params, grads, 0.1)
    assert new.weights[0][0] == pytest.approx(0.3)


def test_loss_decreases_over_first_steps():
    specs = _tiny_specs(drop_rate=0.5)
    params = init_params(specs, REDUCED_INPUT_LENGTH, seed=12, dtype=np.float64)
    rng = np.random.default_rng(13)
    batch = rng.normal(size=(16, 1, REDUCED_INPUT_LENGTH))
    y = rng.integers(0, 2, size=(16, 11))

    losses = []
    for step in range(5):
        preds, cache = forward(params, specs, batch, mode="train",
                               rng=np.random.default_rng(100 + step))
        loss, grad_pred = bce_loss(preds, y)
        losses.append(loss)
        params = sgd_step(params, backward(cache, grad_pred), 1e-3)
    assert losses[-1] < losses[0]
    assert all(np.isfinite(losses))


def test_sgd_config_validation():
    with pytest.raises(ValueError, match="learning rate"):
        SgdConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="batch size"):
        SgdConfig(batch_size=0)
    with pytest.raises(ValueError, match="seed"):
        SgdConfig(seed=-1)
