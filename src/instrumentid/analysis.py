"""First-layer filter analysis: magnitude spectra sorted by dominant frequency."""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .labeling import moving_average

MIN_FFT_LEN = 4096
SMOOTH_TAPS = 5


@dataclass
class FilterSpectrum:
    filter_index: int
    magnitudes: np.ndarray   # raw |FFT|, length fft_len // 2 + 1
    rescaled: np.ndarray     # per-row min-max rescale into [0, 1]
    dominant_bin: int


def filter_spectra(first_layer_weights) -> list[FilterSpectrum]:
    """Zero-padded magnitude spectrum per filter, with min-max rescaling.

    A flat spectrum (max == min) rescales to all zeros. The dominant bin is
    the argmax of the raw magnitudes (first bin wins ties).
    """
    w = np.asarray(first_layer_weights, dtype=np.float64)
    if w.ndim != 3 or w.shape[1] != 1:
        raise ValueError(
            f"expected first-layer weights [maps, 1, filter_size], got shape {w.shape}"
        )
    filters = w[:, 0, :]
    n = max(MIN_FFT_LEN, 1 << (filters.shape[1] - 1).bit_length())
    mags = np.abs(np.fft.rfft(filters, n=n, axis=1))
    out = []
    for i, m in enumerate(mags):
        lo, hi = m.min(), m.max()
        rescaled = (m - lo) / (hi - lo) if hi > lo else np.zeros_like(m)
        out.append(FilterSpectrum(i, m, rescaled, int(np.argmax(m))))
    return out


def sort_by_dominant_bin(spectra) -> list[FilterSpectrum]:
    """Ascending by dominant bin; stable, so ties keep filter order."""
    return sorted(spectra, key=lambda s: s.dominant_bin)


def smooth_filters(first_layer_weights) -> np.ndarray:
    """Low-pass the time-domain filters with a ``SMOOTH_TAPS`` centered moving average."""
    w = np.asarray(first_layer_weights, dtype=np.float64)
    return moving_average(w[:, 0, :].T, 1.0, SMOOTH_TAPS).T


def write_spectra_csv(path, spectra) -> None:
    """One row per filter: the rescaled magnitudes, in the given (sorted) order."""
    lines = ["# rescaled magnitude spectra, one filter per row, sorted by dominant bin"]
    for s in spectra:
        lines.append(",".join(f"{v:.6f}" for v in s.rescaled))
    Path(path).write_text("\n".join(lines) + "\n")


def write_smoothed_csv(path, smoothed) -> None:
    lines = ["# smoothed time-domain filter taps, one filter per row"]
    for row in np.asarray(smoothed):
        lines.append(",".join(f"{v:.6g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_pgm(path, matrix) -> None:
    """Binary PGM (P5, maxval 255) of a [0, 1] matrix, row per filter."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"PGM expects a matrix, got shape {m.shape}")
    if m.min() < 0.0 or m.max() > 1.0:
        raise ValueError("PGM input values must lie in [0, 1]")
    gray = np.round(m * 255).astype(np.uint8)
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + gray.tobytes())


def analyze_filters(params, out_dir) -> list[FilterSpectrum]:
    """Emit spectra.csv / spectra.pgm / filters_smoothed.csv for layer-1 filters.

    :returns: the spectra in emitted (sorted) order
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spectra = sort_by_dominant_bin(filter_spectra(params.weights[0]))
    write_spectra_csv(out_dir / "spectra.csv", spectra)
    write_pgm(out_dir / "spectra.pgm", np.stack([s.rescaled for s in spectra]))
    write_smoothed_csv(out_dir / "filters_smoothed.csv", smooth_filters(params.weights[0]))
    return spectra
