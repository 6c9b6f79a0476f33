"""Shared test utilities: a WAV encoder, brute-force oracles, and gradient checks.

Everything here is deliberately independent of the package implementation it
verifies: naive loops, direct formulas, no shared code paths. The one
exception is ``decode_wav``, a whole-file decode strung from the package's
own header parser and sample decoder.
"""

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# ---------------------------------------------------------------------------
# test-only WAV encoder


def encode_wav(samples, sample_rate=44100, bits=16, channels=1, format_code=None):
    """Encode samples (mono 1-D or [frames, channels]) as a RIFF/WAVE byte string."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    assert samples.shape[1] == channels
    if format_code is None:
        format_code = 3 if bits == 32 and samples.dtype.kind == "f" else 1
    if format_code == 3:
        raw = samples.astype("<f4").tobytes()
    elif bits == 16:
        raw = np.clip(np.round(samples * 2.0 ** 15), -2 ** 15, 2 ** 15 - 1).astype("<i2").tobytes()
    elif bits == 24:
        ints = np.clip(np.round(samples * 2.0 ** 23), -2 ** 23, 2 ** 23 - 1).astype(np.int64)
        flat = ints.ravel()
        raw = b"".join(int(v).to_bytes(3, "little", signed=True) for v in flat)
    elif bits == 32:
        raw = np.clip(np.round(samples * 2.0 ** 31), -2 ** 31, 2 ** 31 - 1).astype("<i4").tobytes()
    else:
        raise ValueError(bits)
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", format_code, channels, sample_rate,
                      sample_rate * block_align, block_align, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(raw)) + raw
    if len(raw) % 2:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def encode_int16_wav(int16_values, sample_rate=44100):
    """Encode raw int16 sample values without any scaling."""
    raw = np.asarray(int16_values, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate, sample_rate * 2, 2, 16)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(raw)) + raw
    if len(raw) % 2:
        chunks += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def decode_wav(data):
    """``(sample_rate, float32 mono samples)`` of a whole RIFF/WAVE byte string."""
    from instrumentid.audio import parse_wav, parse_wav_header

    sample_rate, frames, format_code, channels, bits, offset = parse_wav_header(data)
    raw = data[offset:offset + frames * channels * bits // 8]
    return sample_rate, parse_wav(raw, format_code, channels, bits)


# ---------------------------------------------------------------------------
# synthetic corpus


def synth_track(instruments, duration=3.0, sample_rate=44100, step=0.05, amp=0.25):
    """One synthetic track: gated sinusoid per active instrument interval.

    ``instruments`` maps name -> (frequency_hz, [(start_s, end_s), ...]).
    Returns (samples float array, activation CSV text).
    """
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    samples = np.zeros(n)
    names = sorted(instruments)
    times = np.arange(0.0, duration + step / 2, step)
    conf = np.zeros((len(times), len(names)))
    for j, name in enumerate(names):
        freq, intervals = instruments[name]
        for start, end in intervals:
            gate = (t >= start) & (t < end)
            samples[gate] += amp * np.sin(2 * np.pi * freq * t[gate])
            conf[(times >= start) & (times < end), j] = 0.9
    header = "time," + ",".join(names)
    rows = [f"{ti:.6f}," + ",".join(f"{c:.3f}" for c in row) for ti, row in zip(times, conf)]
    return samples, header + "\n" + "\n".join(rows) + "\n"


def write_corpus(root, tracks, duration=3.0, step=0.05):
    """Materialize a corpus: audio/*.wav + activations/*.lab under ``root``.

    ``tracks`` maps track_id -> {instrument: (freq, intervals)}.
    """
    from pathlib import Path

    audio_dir = Path(root) / "audio"
    act_dir = Path(root) / "activations"
    audio_dir.mkdir(parents=True, exist_ok=True)
    act_dir.mkdir(parents=True, exist_ok=True)
    for track_id, instruments in tracks.items():
        samples, csv = synth_track(instruments, duration=duration, step=step)
        (audio_dir / f"{track_id}.wav").write_bytes(encode_wav(samples, bits=16))
        (act_dir / f"{track_id}_ACTIVATION_CONF.lab").write_text(csv)
    return audio_dir, act_dir


def write_config(path, **overrides):
    """Write a flat key=value config file."""
    from pathlib import Path

    lines = [f"{key} = {value}" for key, value in overrides.items()]
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


def synthetic_clip_dataset(n_clips=16, seed=0, n_classes=11):
    """In-memory training set: sinusoid mixtures with consistent labels.

    Component frequencies sit at 5..55 Hz so they survive the reduced-mode
    decimation; label bit i is set iff component i is present.
    """
    from instrumentid.audio import CLIP_SAMPLES
    from instrumentid.nn import REDUCED_INPUT_LENGTH
    from instrumentid.training import LoadedDataset, global_contrast_normalize, reduce_clip

    rng = np.random.default_rng(seed)
    t = np.arange(CLIP_SAMPLES) / 44100.0
    freqs = 5.0 * (np.arange(n_classes) + 1)
    clips = np.empty((n_clips, 1, REDUCED_INPUT_LENGTH), dtype=np.float32)
    labels = np.zeros((n_clips, n_classes), dtype=np.uint8)
    for i in range(n_clips):
        chosen = rng.choice(n_classes, size=1 + i % 3, replace=False)
        sig = sum(0.3 * np.sin(2 * np.pi * freqs[c] * t + 0.1 * c) for c in chosen)
        clips[i, 0] = global_contrast_normalize(
            reduce_clip(sig.astype(np.float32), REDUCED_INPUT_LENGTH))
        labels[i, chosen] = 1
    ids = [f"synth:{i}" for i in range(n_clips)]
    return LoadedDataset(clips, labels, ids)


def eleven_class_corpus(root):
    """Six synthetic tracks over exactly ten instrument categories.

    With min_songs=1 every category is kept, so the taxonomy resolves to
    10 named classes + OTHER = 11, matching the network output size.
    """
    def on(freq):
        return (freq, [(0.0, 3.0)])

    def half(freq):
        return (freq, [(0.0, 1.6)])

    tracks = {
        "t0": {"c00": on(100.0), "c01": half(160.0)},
        "t1": {"c02": on(220.0), "c03": half(280.0)},
        "t2": {"c04": on(340.0), "c05": half(400.0)},
        "t3": {"c06": on(460.0), "c07": half(520.0)},
        "t4": {"c08": on(580.0), "c09": half(640.0)},
        "t5": {"c00": half(100.0), "c05": on(400.0)},
    }
    return write_corpus(root, tracks)


# ---------------------------------------------------------------------------
# brute-force numeric oracles


def conv_naive(x, w, b):
    """Triple-loop valid cross-correlation."""
    channels, length = x.shape
    maps, _, filter_size = w.shape
    out_len = length - filter_size + 1
    out = np.zeros((maps, out_len), dtype=np.float64)
    for m in range(maps):
        for t in range(out_len):
            acc = b[m]
            for c in range(channels):
                for k in range(filter_size):
                    acc += x[c, t + k] * w[m, c, k]
            out[m, t] = acc
    return out


def maxpool_naive(x, size, stride):
    maps, length = x.shape
    out_len = (length - size) // stride + 1
    out = np.zeros((maps, out_len))
    arg = np.zeros((maps, out_len), dtype=np.int64)
    for m in range(maps):
        for t in range(out_len):
            window = x[m, t * stride:t * stride + size]
            arg[m, t] = t * stride + int(np.argmax(window))
            out[m, t] = window.max()
    return out, arg


def maxpool_window_argmax(x, size, stride):
    """Argmax over a strided window view of ``[..., maps, length]``: the
    pool kernel before it took block maxima."""
    windows = sliding_window_view(x, size, axis=-1)[..., ::stride, :]
    arg = windows.argmax(axis=-1) + np.arange(windows.shape[-2]) * stride
    return np.take_along_axis(x, arg, axis=-1), arg


def moving_average_naive(series, step, window_seconds=0.1):
    """Truncated centered windowed mean, loop form."""
    series = np.asarray(series, dtype=np.float64)
    w = int(round(window_seconds / step))
    assert w >= 1
    left, right = (w - 1) // 2, w // 2
    n = len(series)
    out = np.zeros(n)
    for i in range(n):
        lo, hi = max(0, i - left), min(n, i + right + 1)
        out[i] = series[lo:hi].mean()
    return out


def clip_label_naive(table, start, end, threshold=0.5, window_seconds=0.1):
    """max-of-windowed-mean labeling, computed column by column."""
    step = float(table.times[1] - table.times[0])
    labels = np.zeros(len(table.columns), dtype=np.uint8)
    mask = (table.times >= start) & (table.times < end)
    for i in range(len(table.columns)):
        smoothed = moving_average_naive(table.conf[:, i], step, window_seconds)
        labels[i] = 1 if smoothed[mask].max() >= threshold else 0
    return labels


def deltas_naive(mat):
    """Regression deltas with explicit edge replication."""
    mat = np.asarray(mat, dtype=np.float64)
    t_len = mat.shape[0]

    def at(m, t):
        return m[min(max(t, 0), t_len - 1)]

    def one(m):
        out = np.zeros_like(m)
        for t in range(t_len):
            out[t] = (1 * (at(m, t + 1) - at(m, t - 1))
                      + 2 * (at(m, t + 2) - at(m, t - 2))) / 10.0
        return out

    d1 = one(mat)
    return d1, one(d1)


def metrics_naive(pred, truth):
    """Independent confusion-count metric computation, loop form."""
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    n, n_labels = pred.shape
    tp = fp = fn = 0
    per_f1 = []
    match_bits = 0
    exact = 0
    for rowp, rowt in zip(pred, truth):
        if (rowp == rowt).all():
            exact += 1
        match_bits += int((rowp == rowt).sum())
    for l in range(n_labels):
        ltp = int(((pred[:, l] == 1) & (truth[:, l] == 1)).sum())
        lfp = int(((pred[:, l] == 1) & (truth[:, l] == 0)).sum())
        lfn = int(((pred[:, l] == 0) & (truth[:, l] == 1)).sum())
        tp, fp, fn = tp + ltp, fp + lfp, fn + lfn
        per_f1.append(2 * ltp / (2 * ltp + lfp + lfn) if 2 * ltp + lfp + lfn else 0.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f_micro = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "accuracy": match_bits / (n * n_labels),
        "exact_match": exact / n,
        "precision": precision,
        "recall": recall,
        "f_micro": f_micro,
        "f_macro": float(np.mean(per_f1)),
    }


def gini_split_loop(values, targets, min_leaf):
    """Boundary-by-boundary Gini split search: (impurity, midpoint threshold)."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    t = targets[order]
    n = len(v)
    pos_prefix = np.cumsum(t)
    total_pos = pos_prefix[-1]
    best = (np.inf, None)
    boundaries = np.nonzero(v[1:] != v[:-1])[0]
    for b in boundaries:
        n_left = b + 1
        n_right = n - n_left
        if n_left < min_leaf or n_right < min_leaf:
            continue
        pos_left = pos_prefix[b]
        pos_right = total_pos - pos_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        gini = (n_left * 2.0 * p_l * (1.0 - p_l) + n_right * 2.0 * p_r * (1.0 - p_r)) / n
        if gini < best[0]:
            best = (gini, 0.5 * (v[b] + v[b + 1]))
    return best


# ---------------------------------------------------------------------------
# finite differences


def numeric_gradient(f, x, step=1e-4):
    """Central finite differences of a scalar function over array x (float64)."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))
