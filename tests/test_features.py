import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from instrumentid import features
from instrumentid.audio import SAMPLE_RATE
from instrumentid.features import (
    MfccConfig, mel_filterbank, mel_filter_centers_hz, dct_matrix,
    hz_to_mel, mfcc, deltas, gaussian_fit, clip_features,
    LOG_FLOOR,
)

from helpers import deltas_naive, mel_filterbank_loop


CFG = MfccConfig()


class TestConfig:
    def test_rejects_non_power_of_two_frame(self):
        with pytest.raises(ValueError, match="power of two"):
            MfccConfig(frame_size=1000)

    def test_rejects_too_many_coeffs(self):
        with pytest.raises(ValueError, match="num_coeffs"):
            MfccConfig(mel_bands=10, num_coeffs=11)

    def test_feature_dim_arithmetic(self):
        assert CFG.stacked_dim == 39
        assert CFG.feature_dim == 39 + 39 * 40 // 2 == 819


class TestDct:
    def test_orthonormal(self):
        g = dct_matrix(CFG.mel_bands)
        residual = np.abs(g.T @ g - np.eye(CFG.mel_bands)).max()
        assert residual < 1e-10

    def test_constant_vector_maps_to_first_coefficient(self):
        g = dct_matrix(8)
        out = g @ np.full(8, 3.0)
        assert out[0] == pytest.approx(3.0 * np.sqrt(8))
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-12)


class TestMelFilterbank:
    def test_nonnegative(self):
        assert mel_filterbank(CFG).min() >= 0.0

    def test_each_bin_in_at_most_two_filters(self):
        fb = mel_filterbank(CFG)
        assert ((fb > 0).sum(axis=0) <= 2).all()

    @pytest.mark.parametrize("cfg", [CFG, MfccConfig(frame_size=256, mel_bands=7, num_coeffs=3)])
    def test_matches_per_band_loop(self, cfg):
        bin_mels = hz_to_mel(np.arange(cfg.frame_size // 2 + 1) * SAMPLE_RATE / cfg.frame_size)
        points = np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2.0), cfg.mel_bands + 2)
        assert np.array_equal(mel_filterbank(cfg), mel_filterbank_loop(bin_mels, points))

    def test_centers_increase(self):
        centers = mel_filter_centers_hz(CFG)
        assert (np.diff(centers) > 0).all()
        assert centers[-1] < SAMPLE_RATE / 2


class TestMfcc:
    def test_silence_is_dct_of_log_floor(self):
        out = mfcc(np.zeros(44100), CFG)
        expected_c0 = np.sqrt(CFG.mel_bands) * np.log(LOG_FLOOR)
        np.testing.assert_allclose(out[:, 0], expected_c0, rtol=1e-12)
        np.testing.assert_allclose(out[:, 1:], 0.0, atol=1e-9)

    def test_frame_count(self):
        out = mfcc(np.zeros(44100), CFG)
        assert out.shape == (83, CFG.num_coeffs)

    def test_one_khz_tone_peaks_in_nearest_filter(self):
        t = np.arange(44100) / 44100.0
        clip = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
        frames = (len(clip) - CFG.frame_size) // CFG.hop + 1
        idx = np.arange(CFG.frame_size)[None, :] + CFG.hop * np.arange(frames)[:, None]
        spectrum = np.abs(np.fft.rfft(clip[idx] * np.hanning(CFG.frame_size), axis=1))
        energies = (spectrum @ mel_filterbank(CFG).T).mean(axis=0)
        centers_mel = hz_to_mel(mel_filter_centers_hz(CFG))
        nearest = int(np.argmin(np.abs(centers_mel - hz_to_mel(1000.0))))
        assert int(np.argmax(energies)) == nearest

    def test_constants_built_once_per_config(self, monkeypatch):
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return mel_filterbank(cfg)

        monkeypatch.setattr(features, "mel_filterbank", counted)
        features._mfcc_constants.cache_clear()
        clip = np.random.default_rng(17).normal(size=8000)
        small = MfccConfig(frame_size=512, hop=256, mel_bands=20, num_coeffs=6)
        outs = [mfcc(clip, small) for _ in range(5)]
        assert calls == [small]
        mfcc(clip, CFG)
        mfcc(clip, MfccConfig())  # an equal config shares the entry
        assert calls == [small, CFG]
        for cached in features._mfcc_constants(small):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0
        for rows in features._upper_triangle(4):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 1

        frames = (len(clip) - small.frame_size) // small.hop + 1
        idx = np.arange(small.frame_size)[None, :] + small.hop * np.arange(frames)[:, None]
        spectrum = np.abs(np.fft.rfft(clip[idx] * np.hanning(small.frame_size), axis=1))
        log_energy = np.log(spectrum @ mel_filterbank(small).T + LOG_FLOOR)
        fresh = log_energy @ dct_matrix(small.mel_bands)[:small.num_coeffs].T
        for out in outs:
            assert np.array_equal(out, fresh)

    def test_clip_shorter_than_frame_rejected(self):
        with pytest.raises(ValueError, match="shorter than frame"):
            mfcc(np.zeros(1024), CFG)


class TestDeltas:
    def test_constant_input_zero_deltas(self):
        d1, d2 = deltas(np.full((20, 5), 2.5))
        assert not d1.any() and not d2.any()

    def test_linear_ramp_away_from_edges(self):
        v = np.array([0.5, -1.0, 2.0])
        mat = np.arange(30)[:, None] * v[None, :]
        d1, d2 = deltas(mat)
        np.testing.assert_allclose(d1[2:-2], np.tile(v, (26, 1)), atol=1e-12)
        np.testing.assert_allclose(d2[4:-4], 0.0, atol=1e-12)

    def test_matches_naive_oracle_exactly(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(17, 13))
        d1, d2 = deltas(mat)
        n1, n2 = deltas_naive(mat)
        np.testing.assert_array_equal(d1, n1)
        np.testing.assert_array_equal(d2, n2)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(12, 4))
        y = rng.normal(size=(12, 4))
        a, b = rng.normal(), rng.normal()
        lhs = deltas(a * x + b * y)[0]
        rhs = a * deltas(x)[0] + b * deltas(y)[0]
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestGaussianFit:
    def test_identical_frames_zero_covariance(self):
        frame = np.array([1.0, -2.0, 3.0])
        mean, cov_upper = np.split(gaussian_fit(np.tile(frame, (2, 1))), [3])
        np.testing.assert_allclose(mean, frame)
        np.testing.assert_allclose(cov_upper, 0.0, atol=1e-15)

    def test_hand_computed_covariance(self):
        # rows (s, 0), (-s, 0), (0, s), (0, -s): zero mean,
        # cov = diag(2 s^2 / 3) with the unbiased 1/(n-1) divisor
        s = 2.0
        frames = np.array([[s, 0.0], [-s, 0.0], [0.0, s], [0.0, -s]])
        mean, cov_upper = np.split(gaussian_fit(frames), [2])
        np.testing.assert_allclose(mean, [0.0, 0.0])
        np.testing.assert_allclose(cov_upper, [2 * s * s / 3, 0.0, 2 * s * s / 3])

    def test_rejects_single_frame(self):
        with pytest.raises(ValueError, match=">= 2 frames"):
            gaussian_fit(np.ones((1, 4)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(25, 6))
        a = np.split(gaussian_fit(frames), [6])
        b = np.split(gaussian_fit(frames[rng.permutation(25)]), [6])
        np.testing.assert_allclose(a[0], b[0], atol=1e-12)  # means
        np.testing.assert_allclose(a[1], b[1], atol=1e-12)  # covariance upper triangles

    def test_full_clip_feature_vector_length(self):
        rng = np.random.default_rng(4)
        vec = clip_features(rng.uniform(-0.5, 0.5, size=44100), CFG)
        assert vec.shape == (819,)
        assert np.isfinite(vec).all()

