"""Acceptance suite: one test per release criterion, stated tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Criterion 10 (full-corpus reference run) needs real MedleyDB data
and is skipped unless MEDLEYDB_AUDIO_DIR / MEDLEYDB_ACTIVATION_DIR are set.
"""

import copy
import math
import os
import time

import numpy as np
import pytest

from instrumentid.analysis import analyze_filters, filter_spectra, sort_by_dominant_bin
from instrumentid.cli import main as cli_main
from instrumentid.config import RunConfig
from instrumentid.features import MfccConfig, dct_matrix, deltas, hz_to_mel, \
    mel_filter_centers_hz, mel_filterbank
from instrumentid.labeling import ActivationTable, clip_label, stratified_split
from instrumentid.metrics import evaluate
from instrumentid.nn import (
    FULL_INPUT_LENGTH, REDUCED_INPUT_LENGTH, ModelParams,
    bce_loss, dropout, dropout_backward, forward, backward,
    fully_connected_backward, fully_connected_forward,
    infer_shapes, init_params,
    maxpool_backward, maxpool_forward, reduced_layers,
    relu, relu_backward, sigmoid, sigmoid_backward, table1_layers,
    temporal_conv_backward, temporal_conv_forward,
)
from instrumentid.nn.model import LayerKind
from instrumentid.training import global_contrast_normalize, train_model

from helpers import (
    clip_label_naive, deltas_naive, eleven_class_corpus, metrics_naive,
    numeric_gradient, relative_error, synthetic_clip_dataset, write_config,
)

FD_TOL = 1e-4
FD_STEP = 1e-4


def report(criterion: int, name: str) -> None:
    print(f"[acceptance] criterion {criterion} ({name}): PASS")


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    """Every layer and the composed reduced network pass float64 FD checks."""
    started = time.perf_counter()
    rng = np.random.default_rng(20)

    def check(analytic, f, x):
        assert relative_error(analytic, numeric_gradient(f, x, FD_STEP)) < FD_TOL

    # per-layer checks at the reduced architecture's actual shapes:
    # convs 11/5/3 over maps 1->4->6->6, pools 4/2/2 on the induced lengths
    conv_cases = [((1, 200), (4, 1, 11)), ((4, 47), (6, 4, 5)), ((6, 21), (6, 6, 3))]
    for x_shape, w_shape in conv_cases:
        x = rng.normal(size=x_shape)
        w = rng.normal(size=w_shape)
        b = rng.normal(size=w_shape[0])
        r = rng.normal(size=(w_shape[0], x_shape[1] - w_shape[2] + 1))
        gx, gw, gb = temporal_conv_backward(x, w, r)
        check(gx, lambda v: (temporal_conv_forward(v, w, b) * r).sum(), x)
        check(gw, lambda v: (temporal_conv_forward(x, v, b) * r).sum(), w)
        check(gb, lambda v: (temporal_conv_forward(x, w, v) * r).sum(), b)

    pool_cases = [((4, 190), 4, 4), ((6, 43), 2, 2), ((6, 19), 2, 2)]
    for x_shape, size, stride in pool_cases:
        # strict-max windows: a scaled permutation keeps every gap >> FD step
        x = rng.permutation(x_shape[0] * x_shape[1]).reshape(x_shape) * 0.01
        out_len = (x_shape[1] - size) // stride + 1
        r = rng.normal(size=(x_shape[0], out_len))
        _, arg = maxpool_forward(x, size, stride)
        gx = maxpool_backward(arg, r, x_shape)
        check(gx, lambda v: (maxpool_forward(v, size, stride)[0] * r).sum(), x)

    x = rng.uniform(-1, 1, size=(6, 9))
    x[np.abs(x) < 1e-3] = 0.3  # kink exclusion
    r = rng.normal(size=x.shape)
    check(relu_backward(x, r), lambda v: (relu(v) * r).sum(), x)

    for in_dim, out_dim in [(54, 16), (16, 11)]:
        xv = rng.normal(size=in_dim)
        w = rng.normal(size=(out_dim, in_dim))
        b = rng.normal(size=out_dim)
        r = rng.normal(size=out_dim)
        gx, gw, gb = fully_connected_backward(xv, w, r)
        check(gx, lambda v: (fully_connected_forward(v, w, b) * r).sum(), xv)
        check(gw, lambda v: (fully_connected_forward(xv, v, b) * r).sum(), w)
        check(gb, lambda v: (fully_connected_forward(xv, w, v) * r).sum(), b)

    xs = rng.normal(size=11)
    r = rng.normal(size=11)
    check(sigmoid_backward(sigmoid(xs), r), lambda v: (sigmoid(v) * r).sum(), xs)

    xd = rng.normal(size=16)
    _, mask = dropout(xd, 0.5, np.random.default_rng(1), training=True)
    # fixed mask: dropout is linear, gradient is the mask-scaled identity
    coeff = mask / 0.5
    g_in = rng.normal(size=16)
    check(dropout_backward(mask, 0.5, g_in),
          lambda v: (v * coeff * g_in).sum(), xd)

    p = rng.uniform(0.05, 0.95, size=11)
    y = rng.integers(0, 2, size=11).astype(float)
    _, grad = bce_loss(p, y)
    check(grad, lambda v: bce_loss(v, y)[0], p)

    # composed 5-layer network at the reduced sizes (train mode at drop rate
    # 0: dropout is the identity and draws nothing)
    specs = reduced_layers(0.0)
    params = init_params(specs, REDUCED_INPUT_LENGTH, seed=21, dtype=np.float64)
    batch = rng.normal(size=(1, 1, REDUCED_INPUT_LENGTH))
    y = rng.integers(0, 2, size=(1, 11))

    preds, cache = forward(params, specs, batch, mode="train")
    _, grad_pred = bce_loss(preds, y)
    grads = backward(cache, grad_pred)

    def loss_with(trial):
        out, _ = forward(trial, specs, batch, mode="train")
        return bce_loss(out, y)[0]

    for i in range(len(params.weights)):
        def f_w(v, i=i):
            trial = copy.deepcopy(params)
            trial.weights[i] = v
            return loss_with(trial)

        def f_b(v, i=i):
            trial = copy.deepcopy(params)
            trial.biases[i] = v
            return loss_with(trial)

        assert relative_error(grads.weights[i],
                              numeric_gradient(f_w, params.weights[i], FD_STEP)) < FD_TOL
        assert relative_error(grads.biases[i],
                              numeric_gradient(f_b, params.biases[i], FD_STEP)) < FD_TOL

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report(1, f"gradient suite, rel err < {FD_TOL}, {elapsed:.1f}s")


def test_criterion_2_shape_oracle():
    started = time.perf_counter()
    specs = table1_layers()
    shapes = infer_shapes(specs, FULL_INPUT_LENGTH, 1)
    ins = [(1, FULL_INPUT_LENGTH)] + shapes
    # each conv's unpooled map, then its pooled maps, its output
    conv_pool = [s for spec, shape, out in zip(specs, ins, shapes)
                 if spec.kind is LayerKind.TEMPORAL_CONV for s in (spec.map_shape(shape), out)]
    assert conv_pool == [(256, 41000), (256, 2049), (384, 1750),
                         (384, 87), (384, 68), (384, 16)]
    fc0 = next(i for i, spec in enumerate(specs) if spec.kind is LayerKind.FULLY_CONNECTED)
    assert math.prod(shapes[fc0 - 1]) == 6144
    assert shapes[-1] == (11,)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, "Table 1 shape chain, flatten 6144, output 11")


def test_criterion_3_overfit_reduced(tmp_path):
    """16 consistent synthetic clips: mean training BCE < 0.05 in <= 500 epochs."""
    started = time.perf_counter()
    data = synthetic_clip_dataset(n_clips=16, seed=0)

    def run(out_dir):
        cfg = RunConfig(output_dir=out_dir, reduced=True, drop_rate=0.0,
                        learning_rate=0.2, batch_size=16, epochs=500,
                        train_seed=0, eval_each_epoch=False)
        return train_model(cfg, data, log=lambda *_: None)

    h1 = run(tmp_path / "a")
    h2 = run(tmp_path / "b")
    best = min(h.train_loss for h in h1)
    assert best < 0.05, f"best mean training BCE {best:.4f}"
    assert [h.train_loss for h in h1] == [h.train_loss for h in h2], "nondeterministic"
    assert (tmp_path / "a/checkpoints/epoch_0500.ckpt").read_bytes() == \
        (tmp_path / "b/checkpoints/epoch_0500.ckpt").read_bytes()
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"overfit test took {elapsed:.1f}s"
    report(3, f"overfit BCE {best:.4f} < 0.05, deterministic, {elapsed:.0f}s")


def test_criterion_4_metrics_oracle():
    truth = np.zeros((2, 11), dtype=int)
    truth[0, [0, 1]] = 1
    truth[1, 0] = 1
    predicted = np.zeros((2, 11), dtype=int)
    predicted[0, 0] = 1
    predicted[1, [0, 2]] = 1
    r = evaluate(predicted, truth)
    assert r.precision_micro == 2 / 3
    assert r.recall_micro == 2 / 3
    assert r.f_micro == 2 / 3
    assert r.hamming_accuracy == 20 / 22

    rng = np.random.default_rng(40)
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        pred = rng.integers(0, 2, size=(n, 11))
        truth = rng.integers(0, 2, size=(n, 11))
        got = evaluate(pred, truth)
        naive = metrics_naive(pred, truth)
        assert got.hamming_accuracy == naive["accuracy"]
        assert got.exact_match == naive["exact_match"]
        assert got.precision_micro == naive["precision"]
        assert got.recall_micro == naive["recall"]
        assert got.f_micro == naive["f_micro"]
        assert got.f_macro == naive["f_macro"]
    report(4, "hand-counted example + 1000 random pairs bit-for-bit")


def test_criterion_5_label_generation_oracle():
    rng = np.random.default_rng(50)
    for _ in range(100):
        steps = int(rng.integers(30, 90))
        n_inst = int(rng.integers(1, 7))
        step = float(rng.choice([0.02, 0.05, 0.1]))
        times = np.arange(steps) * step
        conf = rng.uniform(0, 1, size=(steps, n_inst))
        table = ActivationTable("synthetic", times, [f"i{k}" for k in range(n_inst)], conf)
        duration = times[-1]
        n_clips = max(1, int(duration))
        for clip_idx in range(n_clips):
            start = float(clip_idx)
            end = min(float(clip_idx + 1), duration + step / 2)
            got = clip_label(table, start, end)
            expected = clip_label_naive(table, start, end)
            np.testing.assert_array_equal(got, expected)
    report(5, "clip_label equals brute-force max-of-windowed-mean, 100 tables")


def test_criterion_6_split_properties():
    rng = np.random.default_rng(60)
    labels = {f"t{i:03d}": (rng.uniform(size=11) < 0.35).astype(int) for i in range(122)}
    totals = np.sum(list(labels.values()), axis=0)
    for seed in range(50):
        res = stratified_split(labels, test_fraction=0.2, seed=seed)
        assert set(res.train_ids) | set(res.test_ids) == set(labels)
        assert not set(res.train_ids) & set(res.test_ids)
        for l in range(11):
            if totals[l] >= 2:
                assert res.label_coverage[0, l] >= 1, f"label {l} absent from train"
                assert res.label_coverage[1, l] >= 1, f"label {l} absent from test"
            if totals[l] >= 10:
                frac = res.label_coverage[1, l] / totals[l]
                assert 0.1 <= frac <= 0.3, f"label {l} test share {frac:.2f}"
    report(6, "50 seeds x 122 tracks: disjoint, covered, proportions within 10 pts")


def test_criterion_7_dsp_checks():
    cfg = MfccConfig()
    g = dct_matrix(cfg.mel_bands)
    residual = np.abs(g.T @ g - np.eye(cfg.mel_bands)).max()
    assert residual < 1e-10, f"DCT orthonormality residual {residual:.2e}"

    t = np.arange(44100) / 44100.0
    clip = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    frames = (len(clip) - cfg.frame_size) // cfg.hop + 1
    idx = np.arange(cfg.frame_size)[None, :] + cfg.hop * np.arange(frames)[:, None]
    spectrum = np.abs(np.fft.rfft(clip[idx] * np.hanning(cfg.frame_size), axis=1))
    energies = (spectrum @ mel_filterbank(cfg).T).mean(axis=0)
    nearest = int(np.argmin(np.abs(hz_to_mel(mel_filter_centers_hz(cfg)) - hz_to_mel(1000.0))))
    assert int(np.argmax(energies)) == nearest

    rng = np.random.default_rng(70)
    mat = rng.normal(size=(29, 13))
    d1, d2 = deltas(mat)
    n1, n2 = deltas_naive(mat)
    np.testing.assert_array_equal(d1, n1)
    np.testing.assert_array_equal(d2, n2)

    for _ in range(20):
        clip = rng.uniform(-1, 1, size=44100).astype(np.float32)
        out = global_contrast_normalize(clip)
        assert abs(float(out.mean())) < 1e-6
        assert abs(float(out.std()) - 1.0) < 1e-5
    report(7, "DCT orthonormal, 1 kHz mel peak, exact deltas, GCN moments")


def test_criterion_8_pipeline_determinism(tmp_path):
    eleven_class_corpus(tmp_path)

    def run(tag):
        cfg_path = write_config(
            tmp_path / f"run_{tag}.cfg",
            audio_dir="audio", activation_dir="activations", output_dir=f"out_{tag}",
            min_songs=1, test_fraction=0.34, split_seed=1,
            reduced="true", epochs=2, batch_size=8, learning_rate=0.1,
            train_seed=0, drop_rate=0.5,
        )
        assert cli_main(["prepare-dataset", "--config", str(cfg_path)]) == 0
        assert cli_main(["train", "--config", str(cfg_path)]) == 0
        assert cli_main(["evaluate", "--config", str(cfg_path)]) == 0
        return tmp_path / f"out_{tag}"

    out_a = run("a")
    out_b = run("b")
    compared = [
        "train_manifest.tsv", "test_manifest.tsv", "taxonomy_resolved.tsv",
        "split_train.txt", "split_test.txt",
        "checkpoints/epoch_0001.ckpt", "checkpoints/epoch_0002.ckpt",
        "cnn_report.txt", "cnn_row.csv",
    ]
    for name in compared:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    report(8, f"{len(compared)} artifacts byte-identical across seeded reruns")


def test_criterion_9_filter_analysis(tmp_path):
    bins = [1700, 250, 960, 2040, 512]
    t = np.arange(3101)
    w = np.stack([np.cos(2 * np.pi * k * t / 4096) for k in bins])[:, None, :]
    params = ModelParams([w.astype(np.float32)], [np.zeros(len(bins), dtype=np.float32)])

    spectra = filter_spectra(params.weights[0])
    assert [s.dominant_bin for s in spectra] == bins
    ordered = sort_by_dominant_bin(spectra)
    assert [s.dominant_bin for s in ordered] == sorted(bins)
    for s in spectra:
        assert s.rescaled.min() == 0.0 and s.rescaled.max() == 1.0
        m = s.magnitudes
        np.testing.assert_allclose(s.rescaled, (m - m.min()) / (m.max() - m.min()))

    emitted = analyze_filters(params, tmp_path / "filters")
    assert [s.dominant_bin for s in emitted] == sorted(bins)
    lines = (tmp_path / "filters" / "spectra.csv").read_text().splitlines()[1:]
    emitted_bins = [int(np.argmax([float(v) for v in line.split(",")])) for line in lines]
    assert emitted_bins == sorted(bins)
    report(9, "planted sinusoid bins recovered and emitted in sorted order")


needs_medleydb = pytest.mark.skipif(
    not (os.environ.get("MEDLEYDB_AUDIO_DIR") and os.environ.get("MEDLEYDB_ACTIVATION_DIR")),
    reason="full-corpus reference run needs MedleyDB; set MEDLEYDB_AUDIO_DIR "
           "and MEDLEYDB_ACTIVATION_DIR (not a gating criterion)")


@needs_medleydb
def test_criterion_10_full_corpus_reference(tmp_path):
    """Optional long-running reproduction: all four result rows on MedleyDB."""
    cfg_path = write_config(
        tmp_path / "medleydb.cfg",
        audio_dir=os.environ["MEDLEYDB_AUDIO_DIR"],
        activation_dir=os.environ["MEDLEYDB_ACTIVATION_DIR"],
        output_dir=tmp_path / "out",
        epochs=int(os.environ.get("MEDLEYDB_EPOCHS", "10")),
    )
    assert cli_main(["prepare-dataset", "--config", str(cfg_path)]) == 0
    assert cli_main(["train", "--config", str(cfg_path)]) == 0
    assert cli_main(["evaluate", "--config", str(cfg_path)]) == 0
    for kind in ("majority", "logistic", "forest"):
        assert cli_main(["baseline", "--config", str(cfg_path), "--kind", kind]) == 0

    def accuracy(stem):
        row = (tmp_path / "out" / f"{stem}_row.csv").read_text().splitlines()[1]
        return float(row.split(",")[0])

    cnn = accuracy("cnn")
    majority = accuracy("baseline_majority")
    print(f"[acceptance] reproduction note: CNN accuracy {cnn:.4f} "
          f"vs majority {majority:.4f} (reference: 0.8274 vs 0.7037)")
    assert cnn > majority
