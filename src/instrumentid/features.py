"""MFCC / delta features with Gaussian summarization for the shallow baselines."""

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import SAMPLE_RATE

LOG_FLOOR = 1e-10
DELTA_WINDOW = 2  # regression half-width for delta features


@dataclass(frozen=True)
class MfccConfig:
    frame_size: int = 2048
    hop: int = 512
    mel_bands: int = 40
    num_coeffs: int = 13

    def __post_init__(self):
        if self.frame_size < 2 or self.frame_size & (self.frame_size - 1):
            raise ValueError(f"frame size must be a power of two, got {self.frame_size}")
        if self.hop < 1:
            raise ValueError(f"hop must be >= 1, got {self.hop}")
        if not 1 <= self.num_coeffs <= self.mel_bands:
            raise ValueError(
                f"need 1 <= num_coeffs <= mel_bands, got {self.num_coeffs}/{self.mel_bands}"
            )

    @property
    def stacked_dim(self) -> int:
        return 3 * self.num_coeffs

    @property
    def feature_dim(self) -> int:
        d = self.stacked_dim
        return d + d * (d + 1) // 2


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: MfccConfig) -> np.ndarray:
    """Triangular filters with mel-spaced centers spanning 0 .. SAMPLE_RATE / 2.

    Triangles are linear in the mel domain, so each spectral bin gets weight
    from at most the two filters whose span contains it.

    :returns: ``[mel_bands, frame_size // 2 + 1]``
    """
    bin_mels = hz_to_mel(np.arange(cfg.frame_size // 2 + 1) * SAMPLE_RATE / cfg.frame_size)
    points = np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2.0), cfg.mel_bands + 2)
    left, center, right = points[:-2, None], points[1:-1, None], points[2:, None]
    rise = (bin_mels - left) / (center - left)
    fall = (right - bin_mels) / (right - center)
    return np.clip(np.minimum(rise, fall), 0.0, None)


def mel_filter_centers_hz(cfg: MfccConfig) -> np.ndarray:
    points = np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2.0), cfg.mel_bands + 2)
    return mel_to_hz(points[1:-1])


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis, ``G @ x`` transforms, ``G.T @ G = I``."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    g = np.sqrt(2.0 / n) * np.cos(np.pi * (j + 0.5) * k / n)
    g[0] /= np.sqrt(2.0)
    return g


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def _mfcc_constants(cfg: MfccConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Hann window, ``mel_filterbank(cfg).T`` and the kept DCT rows
    (transposed), built once per config."""
    return (_read_only(np.hanning(cfg.frame_size)),
            _read_only(mel_filterbank(cfg)).T,
            _read_only(dct_matrix(cfg.mel_bands))[:cfg.num_coeffs].T)


def mfcc(clip, cfg: MfccConfig = MfccConfig()) -> np.ndarray:
    """Mel-frequency cepstral coefficients, one row per analysis frame.

    Per frame: Hann window, magnitude spectrum, triangular mel filterbank,
    ``log(energy + 1e-10)``, orthonormal DCT-II keeping the first
    ``num_coeffs`` coefficients. Frames are non-padded:
    ``(len(clip) - frame_size) // hop + 1`` of them. The window, filterbank
    and DCT rows are built once per ``cfg`` and shared, read-only, by every
    later call with an equal config.
    """
    clip = np.asarray(clip, dtype=np.float64)
    if clip.ndim != 1:
        raise ValueError(f"clip must be 1-D, got shape {clip.shape}")
    if len(clip) < cfg.frame_size:
        raise ValueError(f"clip of {len(clip)} samples shorter than frame {cfg.frame_size}")
    window, filters, dct_rows = _mfcc_constants(cfg)
    frames = sliding_window_view(clip, cfg.frame_size)[::cfg.hop] * window
    spectrum = np.abs(np.fft.rfft(frames, axis=1))
    log_energy = np.log(spectrum @ filters + LOG_FLOOR)
    return log_energy @ dct_rows


def deltas(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """First and second order regression deltas with replicated edge frames.

    ``delta[t] = sum_{n=1..2} n * (c[t+n] - c[t-n]) / (2 * sum n^2)``; the
    second order applies the same operator to the first.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 2 or coeffs.shape[0] < 1:
        raise ValueError(f"coefficient matrix must be [frames, coeffs], got {coeffs.shape}")

    def one(mat):
        p = np.pad(mat, ((DELTA_WINDOW, DELTA_WINDOW), (0, 0)), mode="edge")
        t = mat.shape[0]
        num = sum(n * (p[DELTA_WINDOW + n:DELTA_WINDOW + n + t]
                       - p[DELTA_WINDOW - n:DELTA_WINDOW - n + t])
                  for n in range(1, DELTA_WINDOW + 1))
        return num / (2.0 * sum(n * n for n in range(1, DELTA_WINDOW + 1)))

    d1 = one(coeffs)
    return d1, one(d1)


def gaussian_fit(stacked) -> np.ndarray:
    """Column means, then the upper triangle (row-major) of the unbiased
    sample covariance: one vector of ``d + d * (d + 1) / 2`` values for ``d``
    columns."""
    stacked = np.asarray(stacked, dtype=np.float64)
    if stacked.ndim != 2:
        raise ValueError(f"stacked matrix must be 2-D, got shape {stacked.shape}")
    frames, d = stacked.shape
    if frames < 2:
        raise ValueError(f"need >= 2 frames for covariance, got {frames}")
    mean = stacked.mean(axis=0)
    centered = stacked - mean
    cov = centered.T @ centered / (frames - 1)
    return np.concatenate([mean, cov[_upper_triangle(d)]])


@cache
def _upper_triangle(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(d)``, built once per ``d``."""
    return tuple(_read_only(i) for i in np.triu_indices(d))


def clip_features(clip, cfg: MfccConfig = MfccConfig()) -> np.ndarray:
    """Full per-clip feature vector: mean || upper-triangle covariance of
    the stacked (MFCC, delta, delta-delta) frames."""
    c = mfcc(clip, cfg)
    d1, d2 = deltas(c)
    return gaussian_fit(np.hstack([c, d1, d2]))


FEATURE_CACHE_VERSION = 2  # part of the feature cache key; bump when features change
