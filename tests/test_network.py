import copy
import math
import weakref

import numpy as np
import pytest

from instrumentid.nn import (
    LayerKind, ModelParams, SgdConfig,
    table1_layers, reduced_layers, infer_shapes, init_params,
    forward, backward, sgd_step, bce_loss,
    FULL_INPUT_LENGTH, REDUCED_INPUT_LENGTH,
)
from instrumentid.nn import layers as L
from instrumentid.nn import model as nnm

from helpers import numeric_gradient, relative_error, traced_peak


def test_table1_shape_chain():
    # each conv's unpooled map, then its pooled maps, its output
    specs = table1_layers()
    shapes = infer_shapes(specs, FULL_INPUT_LENGTH, 1)
    ins = [(1, FULL_INPUT_LENGTH)] + shapes
    conv_pool = [s for spec, shape, out in zip(specs, ins, shapes)
                 if spec.kind is LayerKind.TEMPORAL_CONV for s in (spec.map_shape(shape), out)]
    assert len(specs) == 11
    assert conv_pool == [
        (256, 41000), (256, 2049),
        (384, 1750), (384, 87),
        (384, 68), (384, 16),
    ]
    fc0 = next(i for i, spec in enumerate(specs) if spec.kind is LayerKind.FULLY_CONNECTED)
    assert math.prod(shapes[fc0 - 1]) == 6144
    assert shapes[-1] == (11,)


def test_reduced_shape_chain():
    specs = reduced_layers()
    shapes = infer_shapes(specs, REDUCED_INPUT_LENGTH, 1)
    fc0 = next(i for i, spec in enumerate(specs) if spec.kind is LayerKind.FULLY_CONNECTED)
    assert math.prod(shapes[fc0 - 1]) == 54
    assert shapes[-1] == (11,)


def test_single_conv_filter_equals_input():
    shapes = infer_shapes([nnm.conv(3, 7, (1, 1))], 7, 1)
    assert shapes == [(3, 1)]


def test_input_shorter_than_first_filter_names_layer_zero():
    with pytest.raises(ValueError, match="layer 0"):
        infer_shapes(table1_layers(), 3100, 1)


def test_intermediate_too_short_names_layer_index():
    specs = [nnm.conv(2, 3, (1, 1)), nnm.conv(2, 7, (1, 1))]
    with pytest.raises(ValueError, match="layer 1: length 6 shorter than filter size 7"):
        infer_shapes(specs, 8, 1)


@pytest.mark.parametrize("index", [0, 1])
def test_map_shorter_than_its_pool_names_layer_index(index):
    # a 4-sample map under a 5-sample pool, in layer 0 or layer 1
    specs = [nnm.conv(2, 5, (5, 1)), nnm.relu()]
    length = 8
    if index:
        specs.insert(0, nnm.conv(2, 1, (1, 1)))
    with pytest.raises(ValueError, match=f"layer {index}: map length 4 shorter than pool size 5"):
        infer_shapes(specs, length, 1)
    assert infer_shapes(specs, length + 1, 1)[index] == (2, 1)


@pytest.mark.parametrize("make", [
    lambda: nnm.conv(0, 5, (1, 1)), lambda: nnm.conv(4, 0, (1, 1)),
    lambda: nnm.conv(4, 5, (4, 0)), lambda: nnm.conv(4, 5, (0, 2)),
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


def _one_shot_init(shapes, seed):
    """The whole-tensor draws init_params used to make, cast afterwards."""
    rng = np.random.default_rng(seed)
    out = []
    for shape in shapes:
        bound = np.sqrt(6.0 / np.prod(shape[1:]))
        out.append(rng.uniform(-bound, bound, size=shape).astype(np.float32))
    return out


def test_init_params_bit_identical_to_one_shot_draw():
    # equal tensors in order also mean the rng stream continued identically
    specs = reduced_layers()
    shapes = [w for w, _ in nnm.param_shapes(specs, REDUCED_INPUT_LENGTH)]
    got = init_params(specs, REDUCED_INPUT_LENGTH, seed=42).weights
    for a, b in zip(got, _one_shot_init(shapes, 42), strict=True):
        np.testing.assert_array_equal(a, b)
    # conv1's filter geometry (256 channels, 300 taps), fewer maps
    conv1 = init_params([nnm.conv(24, 300, (1, 1))], 300, 256, seed=7).weights[0]
    np.testing.assert_array_equal(conv1, _one_shot_init([(24, 256, 300)], 7)[0])


def test_init_params_peak_memory_near_parameter_size():
    layers = [nnm.conv(24, 300, (1, 1))]
    params, peak = traced_peak(init_params, layers, 300, 256, 0)
    nbytes = sum(t.nbytes for t in params.weights + params.biases)
    # a whole float64 draw would peak at 3x: no more than one row on top
    assert peak < 1.25 * nbytes, (peak, nbytes)


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


def test_zero_clips_give_zero_predictions():
    specs = reduced_layers()
    params = init_params(specs, REDUCED_INPUT_LENGTH, seed=0)
    batch = np.zeros((0, 1, REDUCED_INPUT_LENGTH), np.float32)
    preds, _ = forward(params, specs, batch, mode="eval")
    assert preds.shape == (0, 11)
    preds, cache = forward(params, specs, batch, mode="train", rng=np.random.default_rng(0))
    grads = backward(cache, np.zeros_like(preds))
    for grad, param in zip(grads.weights + grads.biases, params.weights + params.biases):
        np.testing.assert_array_equal(grad, np.zeros_like(param))


def test_eval_mode_keeps_no_cache():
    specs = _tiny_specs(drop_rate=0.5)
    params = init_params(specs, 80, seed=0, dtype=np.float64)
    preds, cache = forward(params, specs, _tiny_input(), mode="eval")
    assert cache is None
    train_preds, _ = forward(params, _tiny_specs(), _tiny_input(), mode="train")
    np.testing.assert_array_equal(preds, train_preds)


def test_composed_network_gradients_match_finite_differences():
    # train mode at drop rate 0: dropout is the identity and draws nothing
    specs = _tiny_specs()
    params = init_params(specs, 80, seed=1, dtype=np.float64)
    batch = _tiny_input(batch=2, seed=2)
    y = np.random.default_rng(3).integers(0, 2, size=(2, 11))

    def loss_with(params_mod):
        preds, _ = forward(params_mod, specs, batch, mode="train")
        return bce_loss(preds, y)[0]

    preds, cache = forward(params, specs, batch, mode="train")
    _, grad_pred = bce_loss(preds, y)
    grads = backward(cache, grad_pred)

    for i in range(len(params.weights)):
        def f_w(v, i=i):
            trial = copy.deepcopy(params)
            trial.weights[i] = v
            return loss_with(trial)

        def f_b(v, i=i):
            trial = copy.deepcopy(params)
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
        calls.append((x.shape[:-2], x.shape[-2], kwargs.get("needs_input_grad", True)))
        return conv_backward(x, w, g, **kwargs)

    specs = _tiny_specs()
    params = init_params(specs, 80, seed=1, dtype=np.float64)
    preds, cache = forward(params, specs, _tiny_input(batch=2), mode="train")
    expected = backward(cache, np.ones_like(preds))
    monkeypatch.setattr(layers, "temporal_conv_backward", spy)
    _, cache = forward(params, specs, _tiny_input(batch=2), mode="train")  # the first is spent
    grads = backward(cache, np.ones_like(preds))
    # one call per conv layer over both clips, input channels 6, 4, 1:
    # conv2, conv1, then conv0 on the audio
    assert calls == [((2,), 6, True), ((2,), 4, True), ((2,), 1, False)]
    for got, want in zip(grads.weights + grads.biases, expected.weights + expected.biases):
        np.testing.assert_array_equal(got, want)


def test_second_backward_on_a_spent_cache_raises():
    specs = _tiny_specs()
    params = init_params(specs, 80, seed=54, dtype=np.float64)
    preds, cache = forward(params, specs, _tiny_input(batch=2), mode="train")
    backward(cache, np.ones_like(preds))
    # every slot was dropped once its layer's call returned
    assert cache.weights == [None] * len(specs) and cache.caches == [None] * len(specs)
    with pytest.raises(ValueError, match="consumed by an earlier backward"):
        backward(cache, np.ones_like(preds))


def test_a_floating_point_error_of_a_parameterless_layer_keeps_its_message(monkeypatch):
    # The gradient sink names only the gradients it checks: an error the
    # sigmoid's backward raises itself reaches the caller as it was raised,
    # before any layer has stepped.
    def overflow(out, grad_out):
        raise FloatingPointError("overflow encountered in multiply")

    monkeypatch.setattr(L, "sigmoid_backward", overflow)
    specs = reduced_layers()
    params = init_params(specs, REDUCED_INPUT_LENGTH, seed=59)
    before = copy.deepcopy(params)
    batch = np.random.default_rng(60).normal(size=(2, 1, REDUCED_INPUT_LENGTH))
    preds, cache = forward(params, specs, batch.astype(np.float32), "train",
                           rng=np.random.default_rng(61))
    with pytest.raises(FloatingPointError, match="^overflow encountered in multiply$"):
        backward(cache, np.ones_like(preds), 0.1)
    for got, want in zip(params.weights + params.biases, before.weights + before.biases):
        assert np.array_equal(got, want)


def test_a_layer_steps_its_weight_before_its_bias_is_checked(monkeypatch):
    # Each gradient is checked and applied as it is handed over, weight
    # first: a non-finite bias gradient of the direct conv0 stops the step
    # after conv0's weights moved and before its bias did.
    conv_backward = L.temporal_conv_backward

    def poisoned(x, weights, grad_out, **kwargs):
        grad_x, grad_weights, grad_bias = conv_backward(x, weights, grad_out, **kwargs)
        if x.shape[-2] == 1:  # conv0's one input channel
            grad_bias[0] = np.inf
        return grad_x, grad_weights, grad_bias

    monkeypatch.setattr(L, "temporal_conv_backward", poisoned)
    specs = _tiny_specs()
    params = init_params(specs, 80, seed=62)
    before = copy.deepcopy(params)
    preds, cache = forward(params, specs, _tiny_input(batch=2).astype(np.float32), "train")
    with pytest.raises(FloatingPointError, match="^non-finite bias gradient 0$"):
        backward(cache, np.ones_like(preds), 0.1)
    moved = [not np.array_equal(p, q) for p, q in
             zip(params.weights + params.biases, before.weights + before.biases)]
    assert moved[0] and not moved[len(params.weights)]
    assert all(moved[1:len(params.weights)])


def test_fft_conv_holds_no_whole_spectrum_or_weight_gradient(monkeypatch):
    # One multi-channel FFT conv, whose filter spectrum (557 KB) and weight
    # gradient (270 KB) dwarf every other array. Its forward and its
    # backward with the update build the spectrum a map at a time, and the
    # backward applies each map's gradient to the weights as soon as it is
    # made, so neither traced peak reaches either array's size.
    from instrumentid.nn import layers
    monkeypatch.setattr(layers, "_FFT_CHUNK_ELEMS", 1 << 10)  # one map per chunk
    _force_fft(monkeypatch, min_channels=2)
    specs = [nnm.conv(32, 1, (1, 1)), nnm.conv(32, 33, (34, 34)),
             nnm.fully_connected(11), nnm.sigmoid()]
    params = init_params(specs, 66, seed=55, dtype=np.float64)
    before = params.weights[1].copy()
    batch = np.random.default_rng(56).normal(size=(1, 1, 66))
    spectrum_bytes = 34 * 32 * 32 * 16  # bins x maps x channels, complex128
    gradient_bytes = params.weights[1].nbytes

    (preds, cache), forward_peak = traced_peak(forward, params, specs, batch, "train")
    grads, backward_peak = traced_peak(backward, cache, np.ones_like(preds), 0.5)
    assert grads.weights[1] is None and not np.array_equal(params.weights[1], before)
    smaller = min(spectrum_bytes, gradient_bytes)
    assert max(forward_peak, backward_peak) < smaller, (forward_peak, backward_peak, smaller)


def test_gradients_are_gone_before_the_layers_below_run_backward():
    # fc0's weight gradient (384 KB) is the largest array. Given a learning
    # rate, each layer takes its step as its backward call returns, so that
    # gradient is freed before conv0 runs backward; without one it is held
    # through it, for sgd_step.
    specs = [nnm.conv(16, 1, (8, 8)), nnm.relu(),
             nnm.fully_connected(12), nnm.sigmoid()]
    params = init_params(specs, 2000, seed=57, dtype=np.float64)
    batch = np.random.default_rng(58).normal(size=(3, 1, 2000))
    gradient_bytes = params.weights[1].nbytes

    def step(learning_rate):
        preds, cache = forward(params, specs, batch, "train")
        grads, peak = traced_peak(backward, cache, np.ones_like(preds), learning_rate)
        return [g is None for g in grads.weights + grads.biases], peak

    buffered, buffered_peak = step(None)
    applied, stepped_peak = step(0.5)
    assert buffered == [False] * 4
    assert applied == [True] * 4
    assert buffered_peak - stepped_peak > 0.75 * gradient_bytes, (buffered_peak, stepped_peak)


def test_update_in_backward_is_bit_identical_to_sgd_step(monkeypatch):
    # Once on the direct kernel, then with every conv on the FFT kernel, a
    # few maps per chunk, in float32. Every layer takes its SGD step inside
    # backward; the one-channel conv0 and the multi-channel conv1 and conv2
    # on the FFT kernel step chunk by chunk. The step equals forward,
    # backward into buffers, then sgd_step, bit for bit.
    from instrumentid.nn import layers
    monkeypatch.setattr(layers, "_FFT_CHUNK_ELEMS", 1 << 6)
    specs = _tiny_specs(drop_rate=0.5)
    params = init_params(specs, 80, seed=70)
    batch = _tiny_input(batch=5, seed=71).astype(np.float32)
    targets = np.random.default_rng(72).integers(0, 2, size=(5, 11))

    def step(learning_rate):
        p = copy.deepcopy(params)
        preds, cache = forward(p, specs, batch, mode="train", rng=np.random.default_rng(73))
        _, grad = bce_loss(preds, targets)
        grads = backward(cache, grad, learning_rate)
        applied = [g is None for g in grads.weights + grads.biases]
        return preds, sgd_step(p, grads, 0.1), applied

    for kernel in ("direct", "fft"):
        if kernel == "fft":
            _force_fft(monkeypatch)
        preds, fused, applied = step(0.1)
        want_preds, want, _ = step(None)
        assert applied == [True] * 10, kernel
        assert np.array_equal(preds, want_preds)
        for got, w in zip(fused.weights + fused.biases, want.weights + want.biases, strict=True):
            assert got.dtype == np.float32 and np.array_equal(got, w), kernel


def _zeros_like(params):
    return ModelParams([np.zeros_like(w) for w in params.weights],
                       [np.zeros_like(b) for b in params.biases])


def _per_clip_reference(params, specs, batch, mode, rng):
    """Forward each clip alone, sharing one rng, and sum the clips' gradients."""
    preds, caches = [], []
    for clip in batch:
        p, c = forward(params, specs, clip[None], mode=mode, rng=rng)
        preds.append(p[0])
        caches.append(c)
    preds = np.stack(preds)

    def grads_of(grad_loss):
        total = _zeros_like(params)
        for g, c in zip(grad_loss, caches):
            clip_grads = backward(c, g[None])
            for acc, grad in zip(total.weights + total.biases,
                                 clip_grads.weights + clip_grads.biases):
                acc += grad
        return total
    return preds, grads_of


def _assert_params_close(got, want, rtol=1e-12):
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        np.testing.assert_allclose(a, b, rtol=rtol, atol=0)


def test_batched_forward_backward_match_per_clip_reference():
    specs = _tiny_specs(drop_rate=0.5)
    params = init_params(specs, 80, seed=20, dtype=np.float64)
    batch = _tiny_input(batch=5, seed=21)
    grad_loss = np.random.default_rng(22).normal(size=(5, 11))

    preds, cache = forward(params, specs, batch, mode="train", rng=np.random.default_rng(23))
    ref_preds, ref_grads = _per_clip_reference(
        params, specs, batch, "train", np.random.default_rng(23))
    np.testing.assert_allclose(preds, ref_preds, rtol=1e-12, atol=0)
    _assert_params_close(backward(cache, grad_loss), ref_grads(grad_loss))


@pytest.mark.parametrize("kernel", ["direct", "fft"])
def test_eval_predictions_are_the_concatenated_group_calls(monkeypatch, kernel):
    # With the bound shrunk to two clips of the largest footprint, an eval
    # call runs the whole network over groups of 2, 2 and 1 clips, and its
    # predictions are those of one call per group. The largest footprint is
    # conv0's 4 x 70 map on the direct kernel; on the FFT kernel conv0 never
    # makes that map, and its 80-sample input is the largest.
    from instrumentid.nn import layers
    if kernel == "fft":
        _force_fft(monkeypatch)
    specs = _tiny_specs(drop_rate=0.5)
    params = init_params(specs, 80, seed=24, dtype=np.float64)
    batch = _tiny_input(batch=5, seed=25)
    shapes = [(1, 80)] + infer_shapes(specs, 80, 1)
    largest = nnm._largest_footprint(specs, shapes, 1)
    assert largest == {"direct": 4 * 70, "fft": 80}[kernel]
    monkeypatch.setattr(layers, "_CONV_CHUNK_ELEMS", 2 * largest + 1)
    calls = _spy_layer_calls(monkeypatch, specs)
    preds, _ = forward(params, specs, batch, mode="eval")
    groups = [slice(0, 2), slice(2, 4), slice(4, 5)]
    assert calls == [("forward", i, s.stop - s.start) for s in groups for i in range(len(specs))]
    want = np.concatenate([forward(params, specs, batch[s], mode="eval")[0] for s in groups])
    assert np.array_equal(preds, want)


def _spy_layer_calls(monkeypatch, specs):
    """Record ``(direction, layer index, clips)`` for every forward and
    backward call of a layer of ``specs``."""
    index = {id(layer): i for i, layer in enumerate(specs)}
    calls = []

    def spy(kind, method):
        def call(self, *args, **kwargs):
            x = args[0] if method.__name__ == "forward" else args[2]
            calls.append((method.__name__, index[id(self)], len(x)))
            return method(self, *args, **kwargs)
        monkeypatch.setattr(kind, method.__name__, call)

    for kind in {type(layer) for layer in specs}:
        spy(kind, kind.forward)
        spy(kind, kind.backward)
    return calls


def _conv_plans(specs, input_length, clips):
    """Each conv's ``fft_plan`` for a call on ``clips`` clips, None for the
    direct kernel."""
    inputs = [(1, input_length)] + infer_shapes(specs, input_length, 1)[:-1]
    return [layer.fft_plan(shape, clips) for layer, shape in zip(specs, inputs)
            if layer.kind is LayerKind.TEMPORAL_CONV]


def _nffts(specs, input_length, clips):
    """Each conv's ``nfft`` for a call on ``clips`` clips, None for the direct kernel."""
    return [plan and plan.nfft for plan in _conv_plans(specs, input_length, clips)]


# Each conv's nfft by the clips of a call: a filter spectrum shared by more
# clips makes a longer nfft (fewer blocks) pay, and conv2's 20-tap filters
# worth transforming. A one-clip call keeps the per-clip picks.
TABLE1_PICKS = {1: [12288, 384, None], 2: [24576, 512, None], 16: [24576, 768, 48]}
# the reduced net stays direct up to the largest eval group
REDUCED_CLIPS = (1, 16, 22_075)


def _picks_hold():
    return (all(_nffts(table1_layers(), FULL_INPUT_LENGTH, clips) == picks
                for clips, picks in TABLE1_PICKS.items())
            and all(_nffts(reduced_layers(), REDUCED_INPUT_LENGTH, clips) == [None] * 3
                    for clips in REDUCED_CLIPS))


@pytest.mark.parametrize("clips", sorted(TABLE1_PICKS))
def test_conv_kernel_choice_follows_filter_length_and_clips(clips):
    # long filters (Table-1 conv0, conv1) take the FFT kernel at any clip
    # count, short ones direct until enough clips share their spectrum
    assert _nffts(table1_layers(), FULL_INPUT_LENGTH, clips) == TABLE1_PICKS[clips]
    assert _conv_plans(table1_layers(), FULL_INPUT_LENGTH, clips)[:2] == {
        1: [L.FftPlan(nfft=12288, hop=9188, blocks=5, bins=6145),
            L.FftPlan(nfft=384, hop=85, blocks=21, bins=193)],
        2: [L.FftPlan(nfft=24576, hop=21476, blocks=2, bins=12289),
            L.FftPlan(nfft=512, hop=213, blocks=9, bins=257)],
        16: [L.FftPlan(nfft=24576, hop=21476, blocks=2, bins=12289),
             L.FftPlan(nfft=768, hop=469, blocks=4, bins=385)],
    }[clips]


@pytest.mark.parametrize("clips", REDUCED_CLIPS)
def test_reduced_net_stays_direct(clips):
    assert _nffts(reduced_layers(), REDUCED_INPUT_LENGTH, clips) == [None] * 3


def test_kernel_picks_hold_over_the_fft_cost_range(monkeypatch):
    # _FFT_COST's comment: every pinned pick holds from 12 to 14, and only
    # there. Below, conv2 takes the FFT kernel at 2 clips; above, conv1
    # falls back to nfft 384 at 2 clips. The plans are cached, so the cache
    # is cleared at each value and again once the constant is restored.
    holds = []
    try:
        for cost in range(4, 41):
            with monkeypatch.context() as patch:
                patch.setattr(L, "_FFT_COST", cost)
                L.fft_plan.cache_clear()
                if _picks_hold():
                    holds.append(cost)
    finally:
        L.fft_plan.cache_clear()
    assert holds == [12, 13, 14]
    assert L._FFT_COST in holds


def _force_fft(monkeypatch, min_channels=1):
    """Every conv of the tiny net with at least ``min_channels`` input
    channels on the FFT kernel, at ``nfft`` twice its filter size: a few
    blocks per clip."""
    def plan(self, shape, clips):
        return (L.overlap_save(2 * self.filter_size, self.filter_size, shape[1])
                if shape[0] >= min_channels else None)
    monkeypatch.setattr(nnm.conv, "fft_plan", plan)


def test_fft_network_matches_direct_and_builds_spectra_per_map_chunk(monkeypatch):
    # Every FFT conv builds one map chunk's filter spectrum at a time in
    # each pass that reads it: the forward, and the input gradient of every
    # conv but layer 0
    from instrumentid.nn import layers
    specs = _tiny_specs(drop_rate=0.5)
    params = init_params(specs, 80, seed=28, dtype=np.float64)
    batch = _tiny_input(batch=5, seed=29)
    grad_loss = np.random.default_rng(30).normal(size=(5, 11))
    direct, direct_cache = forward(params, specs, batch, mode="train",
                                   rng=np.random.default_rng(31))
    direct_grads = backward(direct_cache, grad_loss)

    _force_fft(monkeypatch)
    monkeypatch.setattr(layers, "_CONV_CHUNK_ELEMS", 300)  # no bound on a train call
    monkeypatch.setattr(layers, "_FFT_CHUNK_ELEMS", 1)  # one map per chunk
    build, built = layers.filter_spectrum, []

    def spy(w, nfft):
        built.append(w.shape[:2])  # (maps, channels)
        return build(w, nfft)

    monkeypatch.setattr(layers, "filter_spectrum", spy)
    preds, cache = forward(params, specs, batch, mode="train", rng=np.random.default_rng(31))
    # conv0, conv1 and conv2, map by map
    per_chunk = [[(1, 1)] * 4, [(1, 4)] * 6, [(1, 6)] * 6]
    assert built == sum(per_chunk, [])
    grads = backward(cache, grad_loss)
    assert built == sum(per_chunk + per_chunk[:0:-1], [])  # conv2's, then conv1's input gradient
    np.testing.assert_allclose(preds, direct, rtol=1e-10, atol=0)
    for got, want in zip(grads.weights + grads.biases, direct_grads.weights + direct_grads.biases):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_no_filter_spectrum_outlives_its_pass(monkeypatch, mode):
    from instrumentid.nn import layers
    _force_fft(monkeypatch)
    monkeypatch.setattr(layers, "_FFT_CHUNK_ELEMS", 1)  # one map per chunk
    specs = _tiny_specs(drop_rate=0.5)
    params = init_params(specs, 80, seed=43, dtype=np.float64)
    build, conv_forward = layers.filter_spectrum, layers.fft_conv_forward
    spectra, alive = [], []  # weak references; the live count at each conv call

    def spy_build(w, nfft):
        spectrum = build(w, nfft)
        spectra.append(weakref.ref(spectrum))
        return spectrum

    def spy_forward(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in spectra))
        return conv_forward(*args, **kwargs)

    monkeypatch.setattr(layers, "filter_spectrum", spy_build)
    monkeypatch.setattr(layers, "fft_conv_forward", spy_forward)
    _, cache = forward(params, specs, _tiny_input(batch=5, seed=44), mode=mode,
                       rng=np.random.default_rng(45))
    assert len(spectra) == 4 + 6 + 6 and alive == [0, 0, 0]
    assert not any(ref() is not None for ref in spectra)


@pytest.mark.parametrize("kernel", ["direct", "fft"])
def test_train_mode_runs_each_layer_once_however_small_the_bound(monkeypatch, kernel):
    # With the bound shrunk below one clip's footprint, a train step still
    # calls every layer once over the whole batch, forward and backward, and
    # walks the layer shapes once. The results are those at the default
    # bound, up to the rounding of the direct kernel's im2col chunks, which
    # the bound also sizes.
    from instrumentid.nn import layers
    if kernel == "fft":
        _force_fft(monkeypatch)
    specs = _tiny_specs(drop_rate=0.5)
    params = init_params(specs, 80, seed=36, dtype=np.float64)
    batch = _tiny_input(batch=5, seed=37)
    grad_loss = np.random.default_rng(38).normal(size=(5, 11))
    whole, whole_cache = forward(params, specs, batch, mode="train",
                                 rng=np.random.default_rng(39))
    whole_grads = backward(whole_cache, grad_loss)

    monkeypatch.setattr(layers, "_CONV_CHUNK_ELEMS", 1)
    walks = []
    walk = nnm.infer_shapes
    monkeypatch.setattr(nnm, "infer_shapes", lambda *args: walks.append(args) or walk(*args))
    calls = _spy_layer_calls(monkeypatch, specs)
    preds, cache = forward(params, specs, batch, mode="train", rng=np.random.default_rng(39))
    grads = backward(cache, grad_loss)
    run = range(len(specs))
    assert calls == ([("forward", i, 5) for i in run]
                     + [("backward", i, 5) for i in reversed(run)])
    assert len(walks) == 1
    np.testing.assert_allclose(preds, whole, rtol=1e-12, atol=0)
    _assert_params_close(grads, whole_grads)


def test_forward_walks_each_layer_shape_once(monkeypatch):
    specs = reduced_layers()
    params = init_params(specs, REDUCED_INPUT_LENGTH, seed=58)
    calls = []
    for kind in (nnm._Layer, nnm.conv, nnm.fully_connected):
        def spy(self, shape, _f=kind.output_shape):
            calls.append(type(self))
            return _f(self, shape)
        monkeypatch.setattr(kind, "output_shape", spy)
    forward(params, specs, np.zeros((16, 1, REDUCED_INPUT_LENGTH), np.float32), mode="eval")
    assert calls == [type(layer) for layer in specs]  # 11 layers, one call each


def _eval_group(specs, input_length):
    """``(largest footprint, clips per eval group)`` of ``specs`` on
    one-channel clips: the largest per-clip footprint of a layer call,
    which ``forward`` hands to ``nn.layers._chunks``, and the clips of it
    that fit the bound."""
    shapes = [(1, input_length)] + infer_shapes(specs, input_length, 1)
    largest = nnm._largest_footprint(specs, shapes, 1)
    return largest, L._CONV_CHUNK_ELEMS // largest


def test_eval_groups_are_16_clips_for_table1_and_22075_for_the_reduced_net():
    # Table-1: conv1's block spectra, 193 bins x 21 blocks x 256 channels a
    # clip. conv0 is on the FFT kernel, so its 256 x 41,000 map is never
    # made and counts for nothing: its footprint is its 256 x 2,049 pooled
    # maps.
    assert _eval_group(table1_layers(), FULL_INPUT_LENGTH) == (1_037_568, 16)
    shapes = [(1, FULL_INPUT_LENGTH)] + infer_shapes(table1_layers(), FULL_INPUT_LENGTH, 1)
    assert table1_layers()[0].footprint(shapes[0], shapes[1], 1) == 256 * 2049
    # the reduced net, all direct kernel, which makes each whole map before
    # pooling it: conv0's 4 x 190 map
    assert _eval_group(reduced_layers(), REDUCED_INPUT_LENGTH) == (760, 22_075)


@pytest.mark.parametrize("clips", [1, 16, 5000])  # one clip, a train batch, an eval set
def test_table1_eval_group_arrays_fit_the_bound(clips):
    # every array a layer call of a group, planned for its own clips,
    # makes: its input and its output, and for a conv on the direct kernel
    # its whole map (conv2 below 3 clips), on the FFT kernel its block
    # spectra (conv0 and conv1, and conv2 from 3 clips)
    specs = table1_layers()
    group = min(clips, _eval_group(specs, FULL_INPUT_LENGTH)[1])
    ins = [(1, FULL_INPUT_LENGTH)] + infer_shapes(specs, FULL_INPUT_LENGTH, 1)
    kernels = []
    for i, layer in enumerate(specs):
        arrays = [np.prod(ins[i]), np.prod(ins[i + 1])]
        if layer.kind is LayerKind.TEMPORAL_CONV:
            plan = layer.fft_plan(ins[i], group)
            kernels.append("direct" if plan is None else "fft")
            arrays.append(np.prod(layer.map_shape(ins[i])) if plan is None
                          else plan.bins * plan.blocks * ins[i][0])
        assert max(arrays) * group <= L._CONV_CHUNK_ELEMS, layer
    assert kernels == ["fft", "fft", "direct" if group == 1 else "fft"]


@pytest.mark.parametrize("specs, length", [(table1_layers(), FULL_INPUT_LENGTH),
                                           (reduced_layers(), REDUCED_INPUT_LENGTH)],
                         ids=["table1", "reduced"])
def test_no_call_has_a_larger_per_clip_footprint_than_one_clip(specs, length):
    # eval groups are sized from the one-clip plans and then planned at
    # their own size, which only fits the bound if no call of more clips
    # makes more per clip. Table-1 conv1's block spectra, the one-clip
    # largest, are 1,037,568 values a clip at 1 clip, 592,128 at 2 and
    # 394,240 at 16, below conv0's 524,544 pooled values.
    shapes = [(1, length)] + infer_shapes(specs, length, 1)
    one = nnm._largest_footprint(specs, shapes, 1)
    for clips in [*range(2, 65), 100, 1000, 5000, 22_075, 1 << 20]:
        assert nnm._largest_footprint(specs, shapes, clips) <= one, clips
    if length == FULL_INPUT_LENGTH:
        plans = [specs[2].fft_plan(shapes[2], clips) for clips in (1, 2, 16)]
        assert [p.bins * p.blocks * 256 for p in plans] == [1_037_568, 592_128, 394_240]


def test_reduced_eval_past_the_bound_runs_in_groups(monkeypatch):
    # 22,076 clips are two eval groups, of 22,075 clips and of one, each
    # running every layer
    specs = reduced_layers()
    params = init_params(specs, REDUCED_INPUT_LENGTH, seed=57)
    batch = np.zeros((22_076, 1, REDUCED_INPUT_LENGTH), dtype=np.float32)
    calls = _spy_layer_calls(monkeypatch, specs)
    preds, _ = forward(params, specs, batch, mode="eval")
    assert calls == [("forward", i, clips) for clips in (22_075, 1) for i in range(len(specs))]
    assert preds.shape == (22_076, 11)


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
        trial = copy.deepcopy(params)
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
    stepped = sgd_step(params, _zeros_like(params), 0.5)
    for a, b in zip(params.weights + params.biases, stepped.weights + stepped.biases):
        np.testing.assert_array_equal(a, b)


def test_sgd_step_writes_into_the_gradients_and_leaves_params_alone():
    rng = np.random.default_rng(57)
    params = ModelParams([rng.normal(size=(200, 300)).astype(np.float32)],
                         [rng.normal(size=200).astype(np.float32)])
    grads = ModelParams([rng.normal(size=(200, 300)).astype(np.float32)],
                        [rng.normal(size=200).astype(np.float32)])
    before = copy.deepcopy(params)
    want = [p - np.float32(0.25) * g for p, g in zip(params.weights + params.biases,
                                                    grads.weights + grads.biases)]
    stepped, peak = traced_peak(sgd_step, params, grads, 0.25)
    # within the parameters plus the gradients: no third set of tensors
    assert peak < params.weights[0].nbytes / 10, peak
    for p, b in zip(params.weights + params.biases, before.weights + before.biases):
        np.testing.assert_array_equal(p, b)
    for got, g, w in zip(stepped.weights + stepped.biases, grads.weights + grads.biases, want):
        assert got is g
        np.testing.assert_array_equal(got, w)


def test_sgd_step_rejects_a_gradient_of_another_dtype():
    params = ModelParams([np.zeros(3, np.float32)], [np.zeros(1, np.float32)])
    grads = ModelParams([np.zeros(3, np.float64)], [np.zeros(1, np.float32)])
    with pytest.raises(ValueError, match="float64 != parameter"):
        sgd_step(params, grads, 0.1)


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
