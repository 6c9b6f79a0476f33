"""Shared test utilities: a WAV encoder, brute-force oracles, gradient checks,
a traced memory peak and an open-descriptor count.

Everything here is deliberately independent of the package implementation it
verifies: naive loops, direct formulas, no shared code paths. The one
exception is ``decode_wav``, a whole-file decode strung from the package's
own header parser and sample decoder.
"""

import os
import struct
import tracemalloc

import numpy as np
import pytest
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
    from instrumentid.training import LoadedDataset, global_contrast_normalize

    rng = np.random.default_rng(seed)
    t = np.arange(CLIP_SAMPLES) / 44100.0
    freqs = 5.0 * (np.arange(n_classes) + 1)
    clips = np.empty((n_clips, 1, REDUCED_INPUT_LENGTH), dtype=np.float32)
    labels = np.zeros((n_clips, n_classes), dtype=np.uint8)
    for i in range(n_clips):
        chosen = rng.choice(n_classes, size=1 + i % 3, replace=False)
        sig = sum(0.3 * np.sin(2 * np.pi * freqs[c] * t + 0.1 * c) for c in chosen)
        picked = sig.astype(np.float32)[::CLIP_SAMPLES // REDUCED_INPUT_LENGTH]
        clips[i, 0] = global_contrast_normalize(picked[:REDUCED_INPUT_LENGTH])
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


def conv_backward_naive(x, w, grad_out):
    """Loop gradients of :func:`conv_naive` over ``[..., channels, length]``
    clips: ``(input, weights, bias)``, the last two summed over the clips."""
    maps, channels, filter_size = w.shape
    clips = x.reshape(-1, channels, x.shape[-1])
    g = grad_out.reshape(len(clips), maps, grad_out.shape[-1])
    gx = np.zeros(clips.shape)
    gw = np.zeros(w.shape)
    gb = np.zeros(maps)
    for n in range(len(clips)):
        for m in range(maps):
            for t in range(g.shape[-1]):
                gb[m] += g[n, m, t]
                for c in range(channels):
                    for k in range(filter_size):
                        gx[n, c, t + k] += g[n, m, t] * w[m, c, k]
                        gw[m, c, k] += g[n, m, t] * clips[n, c, t + k]
    return gx.reshape(x.shape), gw, gb


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


def maxpool_backward_loop(argmax, grad_out, input_shape):
    """Window by window, in order, each output gradient added at its
    window's argmax in a dense zero input gradient."""
    grad = np.zeros(input_shape, dtype=grad_out.dtype)
    rows = grad.reshape(-1, input_shape[-1])
    windows = argmax.shape[-1]
    for row, args, gs in zip(rows, argmax.reshape(len(rows), windows),
                             grad_out.reshape(len(rows), windows)):
        for a, g in zip(args, gs):
            row[a] += g
    return grad


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


def forest_predict_loop(model, features):
    """Row-by-row, tree-by-tree walk over each label's node table: the fraction
    of its trees voting 1. A split's left child is the next node."""
    scores = np.zeros((len(features), len(model.tables)))
    for label_idx, (roots, feature, value, right) in enumerate(model.tables):
        for i, row in enumerate(features):
            votes = 0
            for node in roots:
                while right[node] >= 0:
                    node = node + 1 if row[feature[node]] < value[node] else right[node]
                votes += value[node]
            scores[i, label_idx] = votes / len(roots)
    return scores


def mel_filterbank_loop(bin_mels, points):
    """One triangular filter per loop pass, rising over [points[j], points[j + 1]]
    and falling to points[j + 2], both in mels."""
    fb = np.zeros((len(points) - 2, len(bin_mels)))
    for j in range(len(points) - 2):
        left, center, right = points[j], points[j + 1], points[j + 2]
        rise = (bin_mels - left) / (center - left)
        fall = (right - bin_mels) / (right - center)
        fb[j] = np.clip(np.minimum(rise, fall), 0.0, None)
    return fb


def collapse_labels_loop(raw_bits, raw_names, taxonomy):
    """Name-by-name OR of the set raw bits into the final class vector: raw
    name -> category (itself when unmapped) -> class (OTHER when unmapped)."""
    out = np.zeros(len(taxonomy.classes), dtype=np.uint8)
    for bit, name in zip(raw_bits, raw_names):
        if bit:
            category = taxonomy.raw_to_category.get(name, name)
            out[taxonomy.classes.index(taxonomy.category_to_class.get(category, "OTHER"))] = 1
    return out


def stratified_split_greedy(track_labels, test_fraction, seed):
    """Greedy iterative stratification with per-side counters kept one by one:
    ``(train_ids, test_ids, label_coverage)``. Label vectors hold only 0/1."""
    ids = sorted(track_labels)
    labels = np.asarray([np.asarray(track_labels[t]).ravel() for t in ids])
    n_tracks, n_labels = labels.shape
    rng = np.random.default_rng(seed)

    fractions = np.array([1.0 - test_fraction, test_fraction])
    totals = labels.sum(axis=0).astype(np.float64)
    desired_label = fractions[:, None] * totals[None, :]
    desired_total = fractions * n_tracks
    assigned_count = np.zeros((2, n_labels), dtype=np.int64)
    remaining = totals.astype(np.int64).copy()
    side_of = np.full(n_tracks, -1, dtype=np.int64)

    def choose_side(track, focus_label=None):
        forced = set()
        for l in np.nonzero(labels[track])[0]:
            if totals[l] >= 2 and remaining[l] == 1:
                for s in (0, 1):
                    if assigned_count[s, l] == 0:
                        forced.add(s)
        if len(forced) == 1:
            return forced.pop()
        if focus_label is not None:
            q = desired_label[:, focus_label]
            if q[0] != q[1]:
                return int(np.argmax(q))
        if desired_total[0] != desired_total[1]:
            return int(np.argmax(desired_total))
        return int(rng.integers(2))

    def assign(track, side):
        side_of[track] = side
        for l in np.nonzero(labels[track])[0]:
            desired_label[side, l] -= 1.0
            assigned_count[side, l] += 1
            remaining[l] -= 1
        desired_total[side] -= 1.0

    while True:
        candidates = [l for l in range(n_labels) if remaining[l] > 0]
        if not candidates:
            break
        focus = min(candidates, key=lambda l: (remaining[l], l))
        for track in range(n_tracks):
            if side_of[track] < 0 and labels[track, focus]:
                assign(track, choose_side(track, focus))
    for track in np.flatnonzero(side_of < 0):
        assign(track, choose_side(track))

    train_ids = [ids[i] for i in range(n_tracks) if side_of[i] == 0]
    test_ids = [ids[i] for i in range(n_tracks) if side_of[i] == 1]
    return train_ids, test_ids, assigned_count


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


def sigmoid_two_branch(x):
    """The logistic function with one exp per sign of x, the negative and
    non-negative entries gathered and scattered separately."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def logistic_descent_loop(xz, y, learning_rate, epochs, seed):
    """The documented per-epoch update on ``[dims, labels]`` weights, with the
    seeded initial draw of ``logistic_train``."""
    n, d = xz.shape
    w = np.random.default_rng(seed).uniform(-1e-3, 1e-3, size=(d, y.shape[1]))
    for _ in range(epochs):
        w -= learning_rate * xz.T @ (sigmoid_two_branch(xz @ w) - y) / n
    return w


# ---------------------------------------------------------------------------
# memory


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the most bytes ``tracemalloc`` saw allocated
    during the call beyond those it traced when the call began.

    Started here, tracing stops when the call ends, in any case. Called
    while tracing is already on, as inside a function given to another
    ``traced_peak``, it leaves tracing on; the outer peak then counts from
    this call on.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


# ---------------------------------------------------------------------------
# open files


def descriptors_on(path):
    """How many of this process's open file descriptors point at ``path``."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to list open descriptors")
    target = os.path.realpath(path)
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}") == target
        except OSError:  # the descriptor listdir itself held, closed since
            pass
    return count
