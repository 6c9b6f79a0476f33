import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from instrumentid.nn import (
    temporal_conv_forward, temporal_conv_backward,
    filter_spectrum, fft_conv_forward, fft_conv_input_grad, fft_conv_param_grads,
    maxpool_forward, maxpool_backward,
    relu, relu_backward,
    fully_connected_forward, fully_connected_backward,
    sigmoid, sigmoid_backward,
    dropout, dropout_backward,
)

from instrumentid.nn import model as nnm
from instrumentid.nn.layers import _chunks, fft_plan, overlap_save

from helpers import (
    conv_backward_naive, conv_naive, maxpool_backward_loop, maxpool_naive, maxpool_window_argmax,
    numeric_gradient, relative_error, sigmoid_two_branch, traced_peak,
)

FD_TOL = 1e-4  # the acceptance suite's gradient tolerance


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

    @settings(max_examples=120, deadline=None)
    @given(lead=st.sampled_from([(), (0,), (1,), (3,), (2, 2)]), maps=st.integers(1, 4),
           channels=st.integers(1, 4), filter_size=st.integers(1, 7), out_len=st.integers(1, 9),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2 ** 31 - 1))
    @example((2,), 3, 1, 5, 1, np.float32, 0)  # one channel, one output position
    @example((0,), 2, 3, 4, 6, np.float64, 1)  # zero clips
    def test_backward_matches_loop_oracle(self, lead, maps, channels, filter_size, out_len,
                                          dtype, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(*lead, channels, filter_size + out_len - 1)).astype(dtype)
        w = rng.normal(size=(maps, channels, filter_size)).astype(dtype)
        g = rng.normal(size=(*lead, maps, out_len)).astype(dtype)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for got, want in zip(temporal_conv_backward(x, w, g), conv_backward_naive(x, w, g)):
            assert got.shape == want.shape and got.dtype == dtype
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max(initial=1.0))

    @pytest.mark.parametrize("bound", [1 << 6, 1 << 10])
    def test_chunked_matches_one_chunk(self, monkeypatch, bound):
        # small integers, so every sum is exact whatever the chunks' order
        from instrumentid.nn import layers
        rng = np.random.default_rng(34)
        x = rng.integers(-3, 4, size=(5, 3, 24)).astype(np.float64)
        w = rng.integers(-3, 4, size=(4, 3, 5)).astype(np.float64)
        b = rng.integers(-3, 4, size=4).astype(np.float64)
        g = rng.integers(-3, 4, size=(5, 4, 20)).astype(np.float64)

        def run():
            return (temporal_conv_forward(x, w, b), *temporal_conv_backward(x, w, g))

        whole = run()
        monkeypatch.setattr(layers, "_CONV_CHUNK_ELEMS", bound)
        for got, want in zip(run(), whole):
            np.testing.assert_array_equal(got, want)

    def test_backward_frees_the_weight_pass_before_the_input_pass(self):
        # The weight gradient's window copy ``cols`` and the input gradient's
        # per-tap products have the same size C here (one chunk each); the
        # input pass runs once the window copy is gone, so the two are never
        # held together (measured 1.8 C, against 3.0 C with it kept).
        rng = np.random.default_rng(37)
        x = rng.normal(size=(4, 32, 60))
        w = rng.normal(size=(32, 32, 8))
        g = rng.normal(size=(4, 32, 53))
        cols_bytes = 4 * 53 * 32 * 8 * x.itemsize  # clips x outputs x channels x taps
        _, peak = traced_peak(temporal_conv_backward, x, w, g)
        assert peak < 2.3 * cols_bytes, peak / cols_bytes


def _assert_close_to_max(got, want, tol):
    """Elementwise agreement within ``tol`` of the largest reference value."""
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def _fft_against_direct(x, w, b, nfft, tol, needs_input_grad=True):
    """FFT forward and both backward passes, in ``conv.backward``'s order,
    against the direct kernel on the same inputs."""
    want = temporal_conv_forward(x, w, b)
    out = fft_conv_forward(x, w, b, nfft)
    _assert_close_to_max(out, want, tol)
    g = np.random.default_rng(0).normal(size=want.shape).astype(x.dtype)
    want_gx, want_gw, want_gb = temporal_conv_backward(x, w, g, needs_input_grad)
    if needs_input_grad:
        gx = fft_conv_input_grad(x, w, g, nfft)
        _assert_close_to_max(gx, want_gx, tol)
    # the weight gradient is added into the caller's buffer
    start = np.random.default_rng(1).normal(size=w.shape).astype(w.dtype)
    buffer = start.copy()
    gw, gb = fft_conv_param_grads(x, g, nfft, buffer)
    assert gw is buffer
    _assert_close_to_max(gw - start, want_gw, tol)
    _assert_close_to_max(gb, want_gb, tol)


class TestFftConv:
    @settings(max_examples=40, deadline=None)
    @given(maps=st.integers(1, 4), channels=st.integers(1, 3), filter_size=st.integers(1, 12),
           hop=st.integers(1, 20), out_len=st.integers(1, 45),
           lead=st.sampled_from([(), (1,), (3,), (2, 2)]), needs_input_grad=st.booleans(),
           seed=st.integers(0, 2 ** 31 - 1))
    @example(maps=2, channels=3, filter_size=7, hop=10, out_len=30, lead=(2,),
             needs_input_grad=True, seed=0)  # output length an exact multiple of the hop
    @example(maps=3, channels=2, filter_size=8, hop=1, out_len=9, lead=(3,),
             needs_input_grad=True, seed=1)  # hop 1: nfft equal to the filter size
    @example(maps=3, channels=1, filter_size=5, hop=4, out_len=11, lead=(2,),
             needs_input_grad=False, seed=2)  # weight gradient only, as for layer 0
    @example(maps=4, channels=1, filter_size=6, hop=5, out_len=12, lead=(3,),
             needs_input_grad=True, seed=3)  # a one-channel input gradient
    def test_matches_direct_kernel_float64(self, maps, channels, filter_size, hop, out_len,
                                           lead, needs_input_grad, seed):
        nfft = filter_size + hop - 1
        nfft += nfft % 2  # even lengths only; an odd one gets one more hop
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(*lead, channels, out_len + filter_size - 1))
        w = rng.normal(size=(maps, channels, filter_size))
        b = rng.normal(size=maps)
        _fft_against_direct(x, w, b, nfft, 1e-10, needs_input_grad)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(2, 2, 17))
        w = rng.normal(size=(3, 2, 6))
        b = rng.normal(size=3)
        r = rng.normal(size=(2, 3, 12))
        nfft = 10  # hop 5: three blocks, the last one padded

        def loss(x, w, b):
            return (fft_conv_forward(x, w, b, nfft) * r).sum()

        gx = fft_conv_input_grad(x, w, r, nfft)
        gw, gb = fft_conv_param_grads(x, r, nfft, np.zeros_like(w))
        assert relative_error(gx, numeric_gradient(lambda v: loss(v, w, b), x)) < FD_TOL
        assert relative_error(gw, numeric_gradient(lambda v: loss(x, v, b), w)) < FD_TOL
        assert relative_error(gb, numeric_gradient(lambda v: loss(x, w, v), b)) < FD_TOL

    @pytest.mark.parametrize("layer, shape, clips, nfft", [
        # Table-1 conv0, a few maps, at the plans of a call on 1 and 2 clips
        (nnm.conv(256, 3101), (1, 1, 44100), 1, 12288),
        (nnm.conv(256, 3101), (2, 1, 44100), 2, 24576),
        # Table-1 conv1 and conv2, a few maps and channels, at 1, 2 and 16 clips
        (nnm.conv(384, 300), (1, 256, 2049), 1, 384),
        (nnm.conv(384, 300), (1, 256, 2049), 2, 512),
        (nnm.conv(384, 300), (1, 256, 2049), 16, 768),
        (nnm.conv(384, 20), (1, 384, 87), 3, 32),
        (nnm.conv(384, 20), (1, 384, 87), 16, 48),
    ])
    def test_float32_at_table1_geometry(self, layer, shape, clips, nfft):
        # the nfft production runs for a call on ``clips`` clips; the oracle
        # needs only a clip or two of it
        *lead, channels, length = shape
        assert layer.fft_plan((channels, length), clips).nfft == nfft
        rng = np.random.default_rng(31)
        x = rng.normal(size=(*lead, min(channels, 3), length)).astype(np.float32)
        w = (rng.normal(size=(2, len(x[0]), layer.filter_size)) * 0.05).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        # the input gradient of a one-channel first layer is never asked for
        _fft_against_direct(x, w, b, nfft, 1e-5, needs_input_grad=channels > 1)

    def test_filter_spectrum_layout(self):
        w = np.random.default_rng(32).normal(size=(5, 3, 4)).astype(np.float32)
        spectrum = filter_spectrum(w, 8)
        assert spectrum.shape == (5, 5, 3) and spectrum.dtype == np.complex64
        np.testing.assert_allclose(
            spectrum, np.conj(np.fft.rfft(w, n=8, axis=2)).transpose(2, 0, 1), rtol=1e-6)
        one = filter_spectrum(w[:, :1], 8)
        assert one.shape == (5, 5, 1) and one.dtype == np.complex64
        np.testing.assert_allclose(
            one, np.conj(np.fft.rfft(w[:, :1], n=8, axis=2)).transpose(2, 0, 1), rtol=1e-6)
        # any channel count: the [bins, maps, channels] view of a contiguous
        # [maps, bins, channels] array, so each map's bins are written close together
        for result in (spectrum, one):
            assert result.transpose(1, 0, 2).flags.c_contiguous
        with pytest.raises(ValueError, match="even and >= filter size"):
            filter_spectrum(w, 7)
        with pytest.raises(ValueError, match="even and >= filter size"):
            filter_spectrum(w, 2)

    @pytest.mark.parametrize("transform", ["filter_spectrum", "block_spectra"])
    def test_float32_transforms_make_no_double_precision_copy(self, transform):
        # The float64 loop would hold a complex128 copy of the result (twice
        # its bytes) beside the complex64 result and a float64 copy of the
        # input: over 5x the result here. In float32 the peak is the result
        # and, for the filters, the one map chunk zero-padded to nfft that is
        # transformed straight into it.
        from instrumentid.nn import layers
        rng = np.random.default_rng(34)
        if transform == "filter_spectrum":
            w = rng.normal(size=(8, 64, 300)).astype(np.float32)  # one map chunk
            run = lambda: filter_spectrum(w, 384)
        else:
            x = rng.normal(size=(1, 64, 4000)).astype(np.float32)
            # conv1's nfft and hop: 3701 outputs in 44 blocks
            run = lambda: layers._block_spectra(x, layers.overlap_save(384, 300, 4000), 384)
        result, peak = traced_peak(run)
        assert result.dtype == np.complex64
        assert peak < 3 * result.nbytes

    @pytest.mark.parametrize("channels", [1, 3])
    def test_transforms_get_inputs_padded_to_nfft(self, monkeypatch, channels):
        # np.fft.rfft given a longer n pads the input row by row, at about
        # half the speed of transforming an input padded beforehand
        calls = []
        rfft = np.fft.rfft

        def spy(a, *args, **kwargs):
            calls.append((np.shape(a), args, kwargs))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        rng = np.random.default_rng(36)
        x = rng.normal(size=(2, channels, 100)).astype(np.float32)
        w = rng.normal(size=(4, channels, 9)).astype(np.float32)
        fft_conv_forward(x, w, np.zeros(4, np.float32), 32)
        g = rng.normal(size=(2, 4, 92)).astype(np.float32)
        fft_conv_input_grad(x, w, g, 32)
        fft_conv_param_grads(x, g, 32, np.zeros_like(w))
        assert len(calls) >= 3
        for shape, args, kwargs in calls:
            assert not args and "n" not in kwargs and shape[-1] == 32, (shape, args, kwargs)

    def test_backward_peak_is_two_block_spectra(self, monkeypatch):
        # Beyond the chunk-bounded stages, the two backward passes hold the
        # input-gradient spectra, then the input block spectra beside the
        # input gradient, each S bytes, and no third array of that size: no
        # transposed copy of the spectra, no full-size product temporary,
        # and the spectra freed before the inverse transform.
        from instrumentid.nn import layers
        monkeypatch.setattr(layers, "_FFT_CHUNK_ELEMS", 1 << 12)
        rng = np.random.default_rng(35)
        x = rng.normal(size=(8, 16, 600))
        w = rng.normal(size=(8, 16, 41))
        g = rng.normal(size=(8, 8, 560))
        spectra_bytes = 65 * 8 * 7 * 16 * 16  # bins x clips x blocks x channels, complex128

        def backward():
            gx = fft_conv_input_grad(x, w, g, 128)
            return gx, fft_conv_param_grads(x, g, 128, np.zeros(w.shape))

        _, peak = traced_peak(backward)
        assert peak < 2.5 * spectra_bytes, peak / spectra_bytes

    def test_forward_peak_is_spectra_output_and_one_chunk_of_products(self, monkeypatch):
        # Beyond its input, the per-bin forward holds the input block
        # spectra, its output and one map chunk's products. The chunk's
        # filter spectrum, built before them, and each of its inverse
        # transforms and layout copies, run a working chunk of maps at a
        # time, are at most one working chunk more: no map-chunk sized
        # transform output or copy beside the products.
        from instrumentid.nn import layers
        monkeypatch.setattr(layers, "_FFT_CHUNK_ELEMS", 1 << 16)  # 7 maps a chunk
        monkeypatch.setattr(layers, "_FFT_WORK_ELEMS", 1 << 14, raising=False)  # 1 map
        rng = np.random.default_rng(38)
        x = rng.normal(size=(8, 16, 608))  # 16 blocks of 32 outputs at nfft 128
        w = rng.normal(size=(16, 16, 97))
        out, peak = traced_peak(fft_conv_forward, x, w, np.zeros(16), 128)
        spectra_bytes = 65 * 16 * 8 * 16 * 16  # bins x channels x clips x blocks, complex128
        products_bytes = 65 * 7 * 8 * 16 * 16  # bins x maps x clips x blocks
        work_bytes = 16 << 14
        assert peak < spectra_bytes + out.nbytes + products_bytes + work_bytes, (
            (peak - spectra_bytes - out.nbytes - products_bytes) / work_bytes)

    @pytest.mark.parametrize("chunk", [1 << 20, 1 << 12])
    @pytest.mark.parametrize("clips", [0, 1, 3])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_working_chunks_are_bit_exact(self, monkeypatch, chunk, clips, channels):
        # Every working split runs along results that are independent of
        # each other, transform rows, per-bin GEMMs and broadcast maps, never
        # along a summed axis, so no output moves by a bit. At a map-chunk
        # bound of 2^20 the default working bound splits nothing here; 2^6
        # splits every stage down to single rows, bins, maps and channels.
        from instrumentid.nn import layers
        monkeypatch.setattr(layers, "_FFT_CHUNK_ELEMS", chunk)
        rng = np.random.default_rng(37)
        x = rng.normal(size=(clips, channels, 300)).astype(np.float32)
        w = rng.normal(size=(7, channels, 41)).astype(np.float32)
        b = rng.normal(size=7).astype(np.float32)
        g = rng.normal(size=(clips, 7, 260)).astype(np.float32)
        plan = overlap_save(64, 41, 300)
        transforms = []
        irfft = np.fft.irfft

        def spy(*args, **kwargs):
            transforms.append(None)
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", spy)

        def run():
            transforms.clear()
            return (fft_conv_forward(x, w, b, 64), fft_conv_input_grad(x, w, g, 64),
                    *fft_conv_param_grads(x, g, 64, np.zeros_like(w)),
                    layers._per_bin_spectra(x, plan, 64),
                    layers._per_bin_spectra(x, plan, 64, rows_last=True),
                    layers._per_bin_spectra(g, plan, plan.hop)), len(transforms)

        whole, calls = run()
        monkeypatch.setattr(layers, "_FFT_WORK_ELEMS", 1 << 6)
        split, split_calls = run()
        assert split_calls > calls if clips else split_calls >= calls
        for got, want in zip(split, whole, strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_one_channel_input_gradient_inside_a_network(self):
        # conv1 reads conv0's one feature map: a one-channel FFT conv, whose
        # input gradient is the path of conv0's weight gradient
        specs = [nnm.conv(1, 3), nnm.conv(8, 1001), nnm.max_pool(100, 100), nnm.relu(),
                 nnm.fully_connected(2), nnm.sigmoid()]
        length = 4000
        assert specs[1].fft_plan((1, length - 2), 2) is not None
        params = nnm.init_params(specs, length, seed=60, dtype=np.float64)
        batch = np.random.default_rng(61).normal(size=(2, 1, length))
        r = np.random.default_rng(62).normal(size=(2, 2))

        def loss(w0):
            trial = nnm.ModelParams([w0, *params.weights[1:]], params.biases)
            return (nnm.forward(trial, specs, batch, mode="eval")[0] * r).sum()

        _, cache = nnm.forward(params, specs, batch, mode="train")
        grads = nnm.backward(cache, r)
        fd = numeric_gradient(loss, params.weights[0])
        assert relative_error(grads.weights[0], fd) < FD_TOL

    @pytest.mark.parametrize("channels", [1, 3])
    def test_chunked_over_maps_matches_one_chunk(self, monkeypatch, channels):
        from instrumentid.nn import layers
        rng = np.random.default_rng(33)
        x = rng.normal(size=(2, channels, 40))
        w = rng.normal(size=(7, channels, 9))
        b = rng.normal(size=7)
        g = rng.normal(size=(2, 7, 32))

        def run():
            return (fft_conv_forward(x, w, b, 16), fft_conv_input_grad(x, w, g, 16),
                    *fft_conv_param_grads(x, g, 16, np.zeros_like(w)))

        whole = run()
        monkeypatch.setattr(layers, "_FFT_CHUNK_ELEMS", 1)  # one map per chunk
        chunked = run()
        for got, want in zip(chunked, whole):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestFftConvWithPool:
    """An FFT conv that runs the max pool on its output a working chunk of
    maps at a time (``pool``), and the backward passes that scatter the
    pooled gradient a map chunk at a time (``argmax``)."""

    @pytest.fixture
    def small_chunks(self, monkeypatch):
        # several map chunks, each of several working chunks, some of one map
        from instrumentid.nn import layers
        monkeypatch.setattr(layers, "_FFT_CHUNK_ELEMS", 1 << 12)
        monkeypatch.setattr(layers, "_FFT_WORK_ELEMS", 1 << 10)

    @staticmethod
    def _operands(clips, channels, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(clips, channels, 300)).astype(np.float32)
        w = rng.normal(size=(7, channels, 41)).astype(np.float32)
        b = rng.normal(size=7).astype(np.float32)
        return x, w, b

    @pytest.mark.parametrize("clips", [0, 1, 3])
    @pytest.mark.parametrize("channels", [1, 3])  # the one-channel and the per-bin branch
    def test_forward_is_conv_then_pool_bit_for_bit(self, small_chunks, clips, channels):
        x, w, b = self._operands(clips, channels, 39)
        # overlapping windows that leave the last 2 of 260 outputs unread
        want, want_argmax = maxpool_forward(fft_conv_forward(x, w, b, 64), 5, 3)
        pooled, argmax = fft_conv_forward(x, w, b, 64, pool=(5, 3))
        assert pooled.dtype == want.dtype and argmax.dtype == want_argmax.dtype
        assert np.array_equal(pooled, want) and np.array_equal(argmax, want_argmax)
        if clips:  # one clip with no leading axis
            want, want_argmax = maxpool_forward(fft_conv_forward(x[0], w, b, 64), 5, 3)
            pooled, argmax = fft_conv_forward(x[0], w, b, 64, pool=(5, 3))
            assert np.array_equal(pooled, want) and np.array_equal(argmax, want_argmax)

    @pytest.mark.parametrize("clips", [0, 1, 3])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("learning_rate", [None, 0.1])
    def test_backward_is_unpool_then_conv_backward_bit_for_bit(self, small_chunks, clips,
                                                               channels, learning_rate):
        x, w, b = self._operands(clips, channels, 40)
        out = fft_conv_forward(x, w, b, 64)
        _, argmax = fft_conv_forward(x, w, b, 64, pool=(5, 3))
        # rounded: pooled gradients often meet where windows share a winner
        g = np.round(np.random.default_rng(41).normal(size=argmax.shape), 1).astype(np.float32)
        grad_out = maxpool_backward(argmax, g, out.shape)
        assert np.array_equal(fft_conv_input_grad(x, w, g, 64, argmax=argmax),
                              fft_conv_input_grad(x, w, grad_out, 64))
        # into a gradient buffer, or into the weights as an SGD step
        got_w, got_b = fft_conv_param_grads(x, g, 64, w.copy(), learning_rate, argmax=argmax)
        want_w, want_b = fft_conv_param_grads(x, grad_out, 64, w.copy(), learning_rate)
        assert got_w.dtype == want_w.dtype and np.array_equal(got_w, want_w)
        assert got_b.dtype == want_b.dtype and np.array_equal(got_b, want_b)
        # the bias gradient, taken a chunk of maps at a time, is numpy's sum
        assert np.array_equal(got_b, grad_out.sum(axis=(0, 2)))

    def test_backward_rejects_a_pooled_gradient_that_does_not_match_its_argmax(self):
        x, w, b = self._operands(2, 3, 42)
        _, argmax = fft_conv_forward(x, w, b, 64, pool=(5, 3))
        with pytest.raises(ValueError, match="grad_out shape"):
            fft_conv_input_grad(x, w, np.zeros((2, 7, 85), np.float32), 64, argmax=argmax)
        with pytest.raises(ValueError, match="out of range"):
            fft_conv_param_grads(x, np.zeros(argmax.shape, np.float32), 64, np.zeros_like(w),
                                 argmax=argmax + 260)
        with pytest.raises(ValueError, match="shorter than pool size"):
            fft_conv_forward(x, w, b, 64, pool=(261, 1))

    @pytest.mark.parametrize("channels", [1, 2])
    def test_gradients_match_finite_differences(self, channels):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(2, channels, 40))
        w = rng.normal(size=(3, channels, 6))
        b = rng.normal(size=3)
        nfft = 10  # hop 5: seven blocks, the last one padded
        pooled, argmax = fft_conv_forward(x, w, b, nfft, pool=(4, 3))
        r = rng.normal(size=pooled.shape)

        def loss(x, w, b):
            return (fft_conv_forward(x, w, b, nfft, pool=(4, 3))[0] * r).sum()

        gx = fft_conv_input_grad(x, w, r, nfft, argmax=argmax)
        gw, gb = fft_conv_param_grads(x, r, nfft, np.zeros_like(w), argmax=argmax)
        # an input that feeds no kept maximum has a gradient of 0 up to the
        # transforms' rounding (~1e-16), and its differences meet it within
        # theirs (~1e-11): compared at a floor of 1e-6, not the default 1e-8
        fd = numeric_gradient(lambda v: loss(v, w, b), x)
        assert relative_error(gx, fd, floor=1e-6) < FD_TOL
        assert relative_error(gw, numeric_gradient(lambda v: loss(x, v, b), w)) < FD_TOL
        assert relative_error(gb, numeric_gradient(lambda v: loss(x, w, v), b)) < FD_TOL

    def test_conv0_peaks_far_below_its_whole_output(self):
        # Table-1 conv0 and pool0 on one clip: the unfused forward returns a
        # 42 MB output, and pool0's backward a gradient of the same size
        layer = nnm.conv(256, 3101)
        nfft = layer.fft_plan((1, 44100), 1).nfft
        rng = np.random.default_rng(44)
        x = rng.normal(size=(1, 1, 44100)).astype(np.float32)
        w = (rng.normal(size=(256, 1, 3101)) * 0.02).astype(np.float32)
        output_bytes = 256 * 41000 * x.itemsize
        (pooled, argmax), peak = traced_peak(fft_conv_forward, x, w, np.zeros(256, np.float32),
                                             nfft, (40, 20))
        assert pooled.shape == argmax.shape == (1, 256, 2049)
        assert peak < output_bytes / 4, peak / output_bytes
        g = rng.normal(size=pooled.shape).astype(np.float32)
        _, peak = traced_peak(fft_conv_param_grads, x, g, nfft, np.zeros_like(w), None, argmax)
        assert peak < output_bytes / 4, peak / output_bytes


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 500), per_item=st.integers(0, 10 ** 6), bound=st.integers(1, 1 << 24))
@example(n=500, per_item=3, bound=1000)  # 333 items, then a shorter last chunk of 167
def test_chunks_tile_the_range_in_equal_steps(n, per_item, bound):
    step = max(1, bound // max(1, per_item))
    chunks = [list(range(n)[s]) for s in _chunks(n, per_item, bound)]
    assert sum(chunks, []) == list(range(n))
    sizes = [len(chunk) for chunk in chunks]
    assert min(sizes) > 0
    assert sizes[:-1] == [step] * (len(sizes) - 1) and sizes[-1] <= step


@settings(max_examples=300, deadline=None)
@given(filter_size=st.integers(1, 5000), extra=st.integers(0, 5000),
       outputs=st.integers(1, 10 ** 6), short=st.integers(0, 5000),
       maps=st.integers(1, 512), channels=st.integers(1, 512), clips=st.integers(0, 64))
@example(filter_size=3101, extra=9187, outputs=41000, short=3100, maps=256,
         channels=1, clips=1)  # Table-1 conv0: nfft 12288, five blocks
@example(filter_size=300, extra=84, outputs=1750, short=299, maps=384,
         channels=256, clips=1)  # Table-1 conv1: nfft 384, 21 blocks
def test_overlap_save_plans_cover_the_outputs(filter_size, extra, outputs, short, maps,
                                              channels, clips):
    nfft = filter_size + extra + (filter_size + extra) % 2  # even, >= the filter size
    length = filter_size + outputs - 1
    plan = overlap_save(nfft, filter_size, length)
    assert (plan.nfft, plan.hop) == (nfft, nfft - filter_size + 1)
    # the fewest blocks of hop outputs that cover every output
    assert (plan.blocks - 1) * plan.hop < outputs <= plan.blocks * plan.hop
    assert plan.bins == nfft // 2 + 1
    # an nfft shorter than the filter, or odd, has no plan
    for bad in (min(short, filter_size - 1), nfft + 1):
        with pytest.raises(ValueError, match=rf"filter size {filter_size}, got {bad}$"):
            overlap_save(bad, filter_size, length)
    # the cost rule picks an even fast length (2^a or 3 * 2^a) of at least the filter size
    picked = fft_plan(maps, filter_size, (channels, length), clips)
    if picked is not None:
        n = picked.nfft
        assert n % 2 == 0 and n // (n & -n) in (1, 3) and n >= filter_size
        assert picked == overlap_save(n, filter_size, length)


@pytest.mark.parametrize("call", [
    lambda x, w, g: temporal_conv_forward(x, w, np.zeros(3)),
    lambda x, w, g: temporal_conv_backward(x, w, g),
    lambda x, w, g: temporal_conv_backward(x, w, g, needs_input_grad=False),
    lambda x, w, g: fft_conv_forward(x, w, np.zeros(3), 8),
    lambda x, w, g: fft_conv_input_grad(x, w, g, 8),
    lambda x, w, g: fft_conv_param_grads(x, g, 8, np.zeros_like(w)),
], ids=["direct-forward", "direct-backward", "direct-weight-backward",
        "fft-forward", "fft-input-backward", "fft-weight-backward"])
def test_conv_entry_points_reject_channel_mismatch(call):
    # a one-channel input against four-channel filters; grad_out has the
    # output's shape, so only the channel count is wrong
    x, w, g = np.ones((2, 1, 20)), np.ones((3, 4, 5)), np.ones((2, 3, 16))
    with pytest.raises(ValueError, match="channel mismatch"):
        call(x, w, g)


@pytest.mark.parametrize("call", [
    lambda x, f, g: temporal_conv_forward(x, f, np.zeros(3)),
    lambda x, f, g: temporal_conv_backward(x, f, g),
    lambda x, f, g: fft_conv_forward(x, f, np.zeros(3), 8),
    lambda x, f, g: fft_conv_input_grad(x, f, g, 8),
    lambda x, f, g: fft_conv_param_grads(x, g, 8, f),
], ids=["direct-forward", "direct-backward", "fft-forward", "fft-input-backward",
        "fft-weight-backward"])
def test_conv_entry_points_reject_a_filter_operand_that_is_not_3d(call):
    # weights [maps, filter]: the channel axis is missing
    x, f, g = np.ones((2, 1, 20)), np.ones((3, 5)), np.ones((2, 3, 16))
    with pytest.raises(ValueError, match=r"must be \[maps, channels, filter\]"):
        call(x, f, g)


class TestMaxPool:
    def test_basic_windows(self):
        x = np.array([[1.0, 3.0, 2.0, 5.0, 4.0, 0.0]])
        out, arg = maxpool_forward(x, 2, 2)
        np.testing.assert_array_equal(out, [[3.0, 5.0, 4.0]])
        np.testing.assert_array_equal(arg, [[1, 3, 4]])

    def test_table1_pooling_arithmetic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 41000))
        out, arg = maxpool_forward(x, 40, 20)
        assert out.shape == (2, 2049)
        assert arg.dtype == np.uint16  # the narrowest type that indexes 41,000 samples
        g = rng.normal(size=out.shape)
        np.testing.assert_array_equal(maxpool_backward(arg, g, x.shape),
                                      maxpool_backward(arg.astype(np.int64), g, x.shape))

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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 9),
           st.sampled_from([(), (3,), (2, 2)]), st.integers(1, 3),
           st.integers(0, 2 ** 31 - 1))
    @example(40, 20, 7, (2,), 4, 0)  # pool0
    @example(30, 20, 3, (), 2, 1)  # pool1
    @example(8, 4, 5, (2,), 3, 2)  # pool2
    @example(3, 5, 4, (), 1, 3)  # gaps between windows
    def test_blocked_argmax_matches_window_argmax(self, size, stride, extra, lead, maps, seed):
        # rounded ReLU outputs: many zeros and repeated values, so ties are common
        rng = np.random.default_rng(seed)
        length = size + extra
        x = relu(np.round(rng.normal(size=(*lead, maps, length)), 1))
        out, arg = maxpool_forward(x, size, stride)
        want_out, want_arg = maxpool_window_argmax(x, size, stride)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(arg, want_arg)
        assert out.dtype == x.dtype and arg.dtype == np.min_scalar_type(length - 1)

    @pytest.mark.parametrize("size,stride", [(4, 2), (3, 5), (6, 4), (2, 2)])
    def test_blocked_argmax_propagates_nan_like_window_argmax(self, size, stride):
        x = np.arange(24.0).reshape(2, 12)
        x[0, 5] = x[1, 0] = x[1, 3] = np.nan
        out, arg = maxpool_forward(x, size, stride)
        want_out, want_arg = maxpool_window_argmax(x, size, stride)
        np.testing.assert_array_equal(out, want_out)
        np.testing.assert_array_equal(arg, want_arg)

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

    @pytest.mark.parametrize("size,stride", [(40, 20), (8, 4), (3, 1), (2, 3)])
    @pytest.mark.parametrize("lead", [(), (0,), (3,), (2, 2)])
    @pytest.mark.parametrize("index_type", [None, np.int64])
    def test_backward_matches_window_loop(self, size, stride, lead, index_type):
        # rounded ReLU outputs: overlapping windows often share a winner
        rng = np.random.default_rng(size + stride)
        x = relu(np.round(rng.normal(size=(*lead, 3, 260 + size)), 1)).astype(np.float32)
        _, arg = maxpool_forward(x, size, stride)
        assert arg.dtype == np.uint16
        if index_type is not None:
            arg = arg.astype(index_type)
        g = rng.normal(size=arg.shape).astype(np.float32)
        got = maxpool_backward(arg, g, x.shape)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, maxpool_backward_loop(arg, g, x.shape))

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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("zero_d", [False, True], ids=["vector", "0-d"])
    def test_sigmoid_matches_two_branch_formula_bit_for_bit(self, dtype, zero_d):
        edges = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan])
        x = np.concatenate([edges, 30 * np.random.default_rng(16).normal(size=10**5)])
        if dtype is np.int64:
            x = np.rint(x[np.isfinite(x)])
        x = x.astype(dtype)
        inputs = list(x[:9]) if zero_d else [x]  # the edges and two draws
        for v in inputs:
            v = np.asarray(v)
            got, want = sigmoid(v), sigmoid_two_branch(v)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)

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


def test_leading_axes_match_per_clip():
    # a [2, 3, ...] stack equals each clip alone; parameter gradients sum
    rng = np.random.default_rng(18)
    x = rng.normal(size=(2, 3, 2, 30))
    w = rng.normal(size=(4, 2, 5))
    b = rng.normal(size=4)
    clips = x.reshape(6, 2, 30)

    out = temporal_conv_forward(x, w, b)
    g = rng.normal(size=out.shape)
    gx, gw, gb = temporal_conv_backward(x, w, g)
    per_clip = [temporal_conv_backward(c, w, gc) for c, gc in zip(clips, g.reshape(6, 4, 26))]
    np.testing.assert_allclose(
        out.reshape(6, 4, 26), [temporal_conv_forward(c, w, b) for c in clips], rtol=1e-12)
    np.testing.assert_allclose(gx.reshape(6, 2, 30), [p[0] for p in per_clip], rtol=1e-12)
    np.testing.assert_allclose(gw, sum(p[1] for p in per_clip), rtol=1e-12)
    np.testing.assert_allclose(gb, sum(p[2] for p in per_clip), rtol=1e-12)

    pooled, arg = maxpool_forward(x, 4, 3)
    gp = rng.normal(size=pooled.shape)
    gpx = maxpool_backward(arg, gp, x.shape)
    for i, c in enumerate(clips):
        c_out, c_arg = maxpool_forward(c, 4, 3)
        np.testing.assert_array_equal(pooled.reshape(6, 2, -1)[i], c_out)
        np.testing.assert_array_equal(
            gpx.reshape(6, 2, 30)[i], maxpool_backward(c_arg, gp.reshape(6, 2, -1)[i], c.shape))

    fw = rng.normal(size=(5, 30))
    fb = rng.normal(size=5)
    fc_out = fully_connected_forward(x, fw, fb)
    gf = rng.normal(size=fc_out.shape)
    fx, fgw, fgb = fully_connected_backward(x, fw, gf)
    rows, grows = x.reshape(-1, 30), gf.reshape(-1, 5)
    per_row = [fully_connected_backward(r, fw, gr) for r, gr in zip(rows, grows)]
    np.testing.assert_allclose(
        fc_out.reshape(-1, 5), [fully_connected_forward(r, fw, fb) for r in rows], rtol=1e-12)
    np.testing.assert_allclose(fx.reshape(-1, 30), [p[0] for p in per_row], rtol=1e-12)
    np.testing.assert_allclose(fgw, sum(p[1] for p in per_row), rtol=1e-12)
    np.testing.assert_allclose(fgb, sum(p[2] for p in per_row), rtol=1e-12)
