import ast
import os
import re
from pathlib import Path

import numpy as np
import pytest

import instrumentid.audio
from instrumentid.audio import CLIP_SAMPLES, WavFile
from instrumentid.config import RunConfig
from instrumentid.dataset import prepare_dataset, read_manifest, ManifestRow
from instrumentid.nn import REDUCED_INPUT_LENGTH
from instrumentid.training import (
    _point_best, architecture, check_params_match, evaluate_model,
    global_contrast_normalize, iter_raw_clips, load_dataset, load_resume, train_model,
)

from helpers import decode_wav, encode_wav, synthetic_clip_dataset, traced_peak, write_corpus


class TestGcn:
    def test_constant_clip_maps_to_zeros(self):
        out = global_contrast_normalize(np.full(100, 0.7, dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros(100, dtype=np.float32))

    def test_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            clip = rng.uniform(-1, 1, size=44100).astype(np.float32)
            out = global_contrast_normalize(clip)
            assert abs(float(out.mean())) < 1e-6
            assert abs(float(out.std()) - 1.0) < 1e-5
            assert out.shape == clip.shape
            assert np.isfinite(out).all()

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        clip = rng.normal(size=5000)
        base = global_contrast_normalize(clip)
        for a, b in [(2.5, 1.0), (-0.7, 3.0), (1e-3, -2.0)]:
            out = global_contrast_normalize(a * clip + b)
            np.testing.assert_allclose(out, np.sign(a) * base, atol=1e-9)

    def test_preserves_dtype(self):
        out = global_contrast_normalize(np.random.default_rng(2).normal(size=64).astype(np.float32))
        assert out.dtype == np.float32

    @pytest.mark.parametrize("shape", [(1,), (7,), (200,), (44100,), (3, 50)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
    def test_matches_mean_and_std_bit_for_bit(self, shape, dtype):
        clip = (np.random.default_rng(3).normal(size=shape) * 300 + 7).astype(dtype)
        x = clip.astype(np.float64)
        want = ((x - x.mean()) / max(x.std(), 1e-8)).astype(np.float64 if dtype == np.int16 else dtype)
        got = global_contrast_normalize(clip)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_reduce_clip_decimates(tmp_path):
    # a ramp whose sample k decodes to exactly k / 2^16: 32-bit PCM holds k * 2^15
    path = tmp_path / "ramp.wav"
    path.write_bytes(encode_wav(np.arange(CLIP_SAMPLES) / 2.0 ** 16, bits=32, format_code=1))
    with WavFile(path) as track:
        out = track.clip(0, REDUCED_INPUT_LENGTH) * 2.0 ** 16
    assert out.shape == (REDUCED_INPUT_LENGTH,)
    assert out[0] == 0.0 and out[1] == 220.0
    np.testing.assert_array_equal(out, np.arange(REDUCED_INPUT_LENGTH) * 220.0)


synthetic_dataset = synthetic_clip_dataset


def reduced_config(tmp_path, **overrides):
    cfg = RunConfig(output_dir=tmp_path / "out", reduced=True, drop_rate=0.5,
                    learning_rate=0.1, batch_size=16, epochs=2, train_seed=0)
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestTrainModel:
    def test_smoke_writes_checkpoints_and_history(self, tmp_path):
        cfg = reduced_config(tmp_path)
        data = synthetic_dataset()
        history = train_model(cfg, data, log=lambda *_: None)
        assert [h.epoch for h in history] == [1, 2]
        assert (cfg.checkpoint_dir() / "epoch_0001.ckpt").exists()
        assert (cfg.checkpoint_dir() / "epoch_0002.ckpt").exists()
        assert (cfg.checkpoint_dir() / "best.ckpt").exists()
        assert all(np.isfinite(h.train_loss) for h in history)

    def test_two_runs_bit_identical(self, tmp_path):
        data = synthetic_dataset()
        cfg1 = reduced_config(tmp_path, output_dir=tmp_path / "a")
        cfg2 = reduced_config(tmp_path, output_dir=tmp_path / "b")
        h1 = train_model(cfg1, data, log=lambda *_: None)
        h2 = train_model(cfg2, data, log=lambda *_: None)
        assert [h.train_loss for h in h1] == [h.train_loss for h in h2]
        for name in ("epoch_0001.ckpt", "epoch_0002.ckpt"):
            assert (cfg1.checkpoint_dir() / name).read_bytes() == \
                (cfg2.checkpoint_dir() / name).read_bytes()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        data = synthetic_dataset()
        full = reduced_config(tmp_path, output_dir=tmp_path / "full", epochs=3)
        h_full = train_model(full, data, log=lambda *_: None)

        part = reduced_config(tmp_path, output_dir=tmp_path / "part", epochs=1)
        train_model(part, data, log=lambda *_: None)
        resumed_cfg = reduced_config(tmp_path, output_dir=tmp_path / "part", epochs=3)
        resume = load_resume(resumed_cfg, part.checkpoint_dir() / "epoch_0001.ckpt")
        h_resumed = train_model(resumed_cfg, data, resume=resume, log=lambda *_: None)
        assert [h.epoch for h in h_resumed] == [2, 3]
        assert [h.train_loss for h in h_resumed] == [h.train_loss for h in h_full[1:]]
        assert (full.checkpoint_dir() / "epoch_0003.ckpt").read_bytes() == \
            (resumed_cfg.checkpoint_dir() / "epoch_0003.ckpt").read_bytes()

    def test_eval_report_each_epoch(self, tmp_path):
        cfg = reduced_config(tmp_path, epochs=1)
        data = synthetic_dataset()
        test = synthetic_dataset(n_clips=6, seed=5)
        history = train_model(cfg, data, test_data=test, log=lambda *_: None)
        assert history[0].report is not None
        assert 0.0 <= history[0].report.f_micro <= 1.0

    def test_best_link_swapped_without_a_gap(self, tmp_path, monkeypatch):
        for name in ("epoch_0001.ckpt", "epoch_0002.ckpt"):
            (tmp_path / name).write_bytes(name.encode())
        best = tmp_path / "best.ckpt"
        _point_best(tmp_path, tmp_path / "epoch_0001.ckpt")

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            _point_best(tmp_path, tmp_path / "epoch_0002.ckpt")
        monkeypatch.undo()
        assert best.read_bytes() == b"epoch_0001.ckpt"
        _point_best(tmp_path, tmp_path / "epoch_0002.ckpt")
        assert os.readlink(best) == "epoch_0002.ckpt"
        assert not (tmp_path / "best.ckpt.tmp").is_symlink()

    def test_step_frees_forward_cache_and_gradients_early(self, tmp_path, monkeypatch):
        # the filter spectra are gone before the update, and one step's
        # gradients before the next step's forward
        import gc
        import instrumentid.training as training
        from instrumentid.nn import ForwardCache, ModelParams

        def alive(kind):
            gc.collect()
            return sum(isinstance(o, kind) for o in gc.get_objects())

        at_forward, at_update = [], []
        forward, sgd_step = training.forward, training.sgd_step

        def spy_forward(*args, **kwargs):
            at_forward.append(alive(ModelParams))
            return forward(*args, **kwargs)

        def spy_sgd_step(*args):
            at_update.append(alive(ForwardCache))
            return sgd_step(*args)

        monkeypatch.setattr(training, "forward", spy_forward)
        monkeypatch.setattr(training, "sgd_step", spy_sgd_step)
        train_model(reduced_config(tmp_path, batch_size=8), synthetic_dataset(),
                    log=lambda *_: None)
        assert len(at_update) >= 4 and set(at_update) == {0}
        assert len(set(at_forward)) == 1

    def test_non_finite_loss_stops_before_the_update(self, tmp_path, monkeypatch):
        import instrumentid.training as training
        finite_backward_inputs = []
        backward = training.backward

        def spy_backward(cache, grad_pred, learning_rate=None):
            finite_backward_inputs.append(bool(np.isfinite(grad_pred).all()))
            return backward(cache, grad_pred)

        monkeypatch.setattr(training, "backward", spy_backward)
        data = synthetic_dataset()
        data.clips[5, 0, 100] = np.nan
        cfg = reduced_config(tmp_path, batch_size=4)
        with pytest.raises(FloatingPointError, match="epoch 1 step ") as err:
            train_model(cfg, data, log=lambda *_: None)
        assert repr(data.ids[5]) in str(err.value)
        step = int(re.search(r"step (\d+)", str(err.value)).group(1))
        # every earlier batch ran backward and the update; the NaN batch did not
        assert finite_backward_inputs == [True] * (step - 1)
        assert not list(cfg.checkpoint_dir().glob("epoch_*"))

    def test_non_finite_gradient_of_conv0_stops_before_its_layer_steps(
            self, tmp_path, monkeypatch):
        # The reduced net at batch 4 runs every layer once over the batch,
        # even with the bound shrunk. A NaN in conv0's weight gradient is
        # found as conv0's one backward call returns: after every other
        # layer's step, before conv0's own.
        import copy
        import instrumentid.training as training
        from instrumentid.nn import init_params, layers

        monkeypatch.setattr(layers, "_CONV_CHUNK_ELEMS", 1500)
        conv_backward, calls = layers.temporal_conv_backward, []

        def poisoned(x, weights, grad_out, needs_input_grad=True, argmax=None):
            grad_x, grad_weights, grad_bias = conv_backward(x, weights, grad_out, needs_input_grad,
                                                            argmax=argmax)
            if x.shape[-2] == 1:  # conv0's one input channel
                calls.append(len(x))
                grad_weights[0, 0, 0] = np.nan
            return grad_x, grad_weights, grad_bias

        monkeypatch.setattr(layers, "temporal_conv_backward", poisoned)
        updates = []
        monkeypatch.setattr(training, "sgd_step", lambda *args: updates.append(args))
        data = synthetic_dataset()
        cfg = reduced_config(tmp_path, batch_size=4)
        specs, input_length = architecture(cfg)
        params = init_params(specs, input_length, seed=cfg.train_seed)
        before = copy.deepcopy(params)
        with pytest.raises(FloatingPointError,
                           match=r"epoch 1 step 1: non-finite weight gradient 0 behind finite loss"
                           ) as err:
            train_model(cfg, data, resume=(params, 0), log=lambda *_: None)
        assert str(err.value).endswith("; no checkpoint written")
        clips = ast.literal_eval(re.search(r"on clips (\[.*?\])", str(err.value)).group(1))
        assert len(clips) == 4 and set(clips) <= set(data.ids)
        assert calls == [4]  # one call over the batch
        moved = [not np.array_equal(p, q) for p, q in
                 zip(params.weights + params.biases, before.weights + before.biases)]
        assert moved == [False, True, True, True, True] * 2  # every layer but conv0
        assert updates == []
        assert not list(cfg.checkpoint_dir().glob("epoch_*"))

    def test_non_finite_weight_chunk_of_an_fft_conv_stops_before_its_update(
            self, tmp_path, monkeypatch):
        # conv1 and conv2 on the FFT kernel, one map per chunk, each run once
        # over the batch, so backward applies their steps chunk by chunk. A
        # non-finite gradient of conv2's second map stops the run after the
        # first map's step and before the second's.
        import instrumentid.training as training
        from instrumentid.nn import layers, model as nnm

        def plan(self, shape, clips):
            return (layers.overlap_save(2 * self.filter_size, self.filter_size, shape[1])
                    if shape[0] > 1 else None)

        monkeypatch.setattr(nnm.conv, "fft_plan", plan)
        monkeypatch.setattr(layers, "_FFT_CHUNK_ELEMS", 1)
        param_grads, conv2 = layers.fft_conv_param_grads, {}

        def poisoned(x, grad_out, nfft, weights, take, **kwargs):
            if x.shape[-2] == 6:  # conv2's input channels
                grad_out = grad_out.copy()  # pool2's gradient, which conv2 scatters
                grad_out[:, 1] = np.nan
                conv2.update(before=weights.copy(), weights=weights, taken=[])

                def spy(maps, grad):
                    conv2["taken"].append((maps.start, maps.stop))
                    take(maps, grad)
                return param_grads(x, grad_out, nfft, weights, spy, **kwargs)
            return param_grads(x, grad_out, nfft, weights, take, **kwargs)

        monkeypatch.setattr(layers, "fft_conv_param_grads", poisoned)
        updates = []
        monkeypatch.setattr(training, "sgd_step", lambda *args: updates.append(args))
        data = synthetic_dataset()
        cfg = reduced_config(tmp_path, batch_size=4)
        with pytest.raises(FloatingPointError,
                           match=r"epoch 1 step 1: non-finite weight gradient 2 behind finite loss"
                           ) as err:
            train_model(cfg, data, log=lambda *_: None)
        assert str(err.value).endswith("; no checkpoint written")
        clips = ast.literal_eval(re.search(r"on clips (\[.*?\])", str(err.value)).group(1))
        assert len(clips) == 4 and set(clips) <= set(data.ids)
        # the step went into the weights themselves: map 0 moved, no later map did
        assert conv2["taken"] == [(0, 1), (1, 2)]  # map 1's chunk raised
        assert not np.array_equal(conv2["weights"][0], conv2["before"][0])
        np.testing.assert_array_equal(conv2["weights"][1:], conv2["before"][1:])
        assert updates == []
        assert not list(cfg.checkpoint_dir().glob("epoch_*"))

    def test_non_finite_gradient_of_an_fc_stops_before_its_layer_steps(
            self, tmp_path, monkeypatch):
        # The reduced net at batch 4 runs each layer once, so each takes its SGD
        # step as its backward call returns, last layer first. A NaN in fc0's
        # weight gradient stops the run after fc1's step and before fc0's,
        # and before any layer below fc0 has run its backward.
        import copy
        import instrumentid.training as training
        from instrumentid.nn import init_params, layers

        fc_backward = layers.fully_connected_backward

        def poisoned(x, weights, grad_out):
            grad_x, grad_weights, grad_bias = fc_backward(x, weights, grad_out)
            if weights.shape[0] == 16:  # fc0's output units
                grad_weights[0, 0] = np.nan
            return grad_x, grad_weights, grad_bias

        monkeypatch.setattr(layers, "fully_connected_backward", poisoned)
        updates = []
        monkeypatch.setattr(training, "sgd_step", lambda *args: updates.append(args))
        cfg = reduced_config(tmp_path, batch_size=4)
        specs, input_length = architecture(cfg)
        params = init_params(specs, input_length, seed=cfg.train_seed)
        before = copy.deepcopy(params)
        with pytest.raises(FloatingPointError,
                           match=r"epoch 1 step 1: non-finite weight gradient 3 behind finite loss"
                           ) as err:
            train_model(cfg, synthetic_dataset(), resume=(params, 0), log=lambda *_: None)
        assert str(err.value).endswith("; no checkpoint written")
        moved = [not np.array_equal(p, q) for p, q in
                 zip(params.weights + params.biases, before.weights + before.biases)]
        assert moved == [False, False, False, False, True] * 2  # fc1's weights and bias only
        assert updates == []
        assert not list(cfg.checkpoint_dir().glob("epoch_*"))

    def test_rejects_wrong_class_count(self, tmp_path):
        cfg = reduced_config(tmp_path)
        data = synthetic_dataset(n_classes=7)
        with pytest.raises(ValueError, match="7 classes"):
            train_model(cfg, data, log=lambda *_: None)

    def test_bad_architecture_names_the_layer_before_any_checkpoint_dir(
            self, tmp_path, monkeypatch):
        import instrumentid.training as training
        specs, _ = architecture(reduced_config(tmp_path))
        monkeypatch.setattr(training, "architecture", lambda config: (specs, 10))
        cfg = reduced_config(tmp_path)
        with pytest.raises(ValueError, match="layer 0: length 10 shorter than filter size 11"):
            train_model(cfg, synthetic_dataset(), log=lambda *_: None)
        assert not cfg.checkpoint_dir().exists()

    def test_fresh_network_near_chance(self, tmp_path):
        # untrained predictions sit near sigmoid(~0) = 0.5, so thresholded
        # hamming accuracy tracks the label density of the test set
        cfg = reduced_config(tmp_path)
        data = synthetic_dataset(n_clips=12, seed=3)
        specs, input_length = architecture(cfg)
        from instrumentid.nn import init_params
        params = init_params(specs, input_length, seed=0)
        report = evaluate_model(params, specs, data, threshold=0.5)
        assert 0.0 <= report.hamming_accuracy <= 1.0


class TestLoadDataset:
    def _prepared(self, tmp_path):
        write_corpus(tmp_path, {
            "alpha": {"piano": (440.0, [(0.0, 3.0)])},
            "beta": {"voice": (330.0, [(0.0, 3.0)])},
        })
        cfg = RunConfig(audio_dir=tmp_path / "audio", activation_dir=tmp_path / "activations",
                        output_dir=tmp_path / "out", min_songs=1, test_fraction=0.5)
        prepare_dataset(cfg, log=lambda *_: None)
        return cfg

    def test_loads_reduced_clips(self, tmp_path):
        cfg = self._prepared(tmp_path)
        rows, classes = read_manifest(cfg.train_manifest())
        data = load_dataset(rows, REDUCED_INPUT_LENGTH)
        assert data.clips.shape == (len(rows), 1, REDUCED_INPUT_LENGTH)
        assert data.labels.shape == (len(rows), len(classes))
        assert data.clips.dtype == np.float32
        assert all(":" in i for i in data.ids)

    def test_full_length_load(self, tmp_path):
        cfg = self._prepared(tmp_path)
        rows, _ = read_manifest(cfg.train_manifest())
        data = load_dataset(rows[:2], CLIP_SAMPLES)
        assert data.clips.shape == (2, 1, CLIP_SAMPLES)

    def test_clips_concatenate_to_track_prefix(self, tmp_path):
        duration = 150_000 / CLIP_SAMPLES
        write_corpus(tmp_path, {"alpha": {"piano": (440.0, [(0.0, duration)])}},
                     duration=duration)
        cfg = RunConfig(audio_dir=tmp_path / "audio", activation_dir=tmp_path / "activations",
                        output_dir=tmp_path / "out", min_songs=1, test_fraction=0.4)
        prepare_dataset(cfg, log=lambda *_: None)
        rows = read_manifest(cfg.train_manifest())[0] + read_manifest(cfg.test_manifest())[0]
        rows.sort(key=lambda r: r.clip_index)
        joined = np.concatenate(list(iter_raw_clips(rows)))
        _, samples = decode_wav((tmp_path / "audio" / "alpha.wav").read_bytes())
        assert len(rows) == 3
        np.testing.assert_array_equal(joined, samples[:3 * CLIP_SAMPLES])

    def test_manifest_audio_mismatch_aborts_with_clip_id(self, tmp_path):
        cfg = self._prepared(tmp_path)
        rows, _ = read_manifest(cfg.train_manifest())
        bad = ManifestRow(rows[0].track_id, 99, rows[0].source_path, rows[0].labels)
        with pytest.raises(ValueError, match=":99"):
            load_dataset(rows + [bad], REDUCED_INPUT_LENGTH)

    def test_negative_clip_index_aborts_with_clip_id(self, tmp_path):
        cfg = self._prepared(tmp_path)
        rows, _ = read_manifest(cfg.train_manifest())
        bad = ManifestRow(rows[0].track_id, -1, rows[0].source_path, rows[0].labels)
        with pytest.raises(ValueError, match=re.escape(f"{rows[0].track_id}:-1")):
            load_dataset(rows + [bad], REDUCED_INPUT_LENGTH)

    def test_each_clip_decodes_only_its_own_bytes(self, tmp_path, monkeypatch):
        decode, read_bytes = instrumentid.audio.parse_wav, Path.read_bytes
        calls, wav_reads = [], []

        def spy(raw, *layout):
            calls.append(len(raw))
            return decode(raw, *layout)

        def read_spy(path):
            if path.suffix == ".wav":
                wav_reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(instrumentid.audio, "parse_wav", spy)
        monkeypatch.setattr(Path, "read_bytes", read_spy)
        write_corpus(tmp_path, {f"t{i}": {"piano": (440.0 + i, [(0.0, 3.0)])} for i in range(3)})
        cfg = RunConfig(audio_dir=tmp_path / "audio", activation_dir=tmp_path / "activations",
                        output_dir=tmp_path / "out", min_songs=1, test_fraction=0.4)
        prepare_dataset(cfg, log=lambda *_: None)
        assert calls == []
        rows = read_manifest(cfg.train_manifest())[0] + read_manifest(cfg.test_manifest())[0]
        assert len({r.source_path for r in rows}) == 3 and len(rows) == 9
        clip_bytes = REDUCED_INPUT_LENGTH * 2  # the picked 16-bit mono frames
        grouped = load_dataset(rows, REDUCED_INPUT_LENGTH)
        assert calls == [clip_bytes] * 9
        # rows interleaved across tracks decode the same bytes into the same clips
        interleaved = sorted(rows, key=lambda r: (r.clip_index, r.track_id))
        shuffled = load_dataset(interleaved, REDUCED_INPUT_LENGTH)
        assert calls == [clip_bytes] * 18
        order = [grouped.ids.index(i) for i in shuffled.ids]
        np.testing.assert_array_equal(shuffled.clips, grouped.clips[order])
        assert wav_reads == []

    @pytest.mark.traced_peak
    def test_one_clip_load_holds_one_clip_not_the_track(self, tmp_path):
        wav = tmp_path / "long.wav"
        frames = np.random.default_rng(3).uniform(-0.5, 0.5, size=(60 * CLIP_SAMPLES, 2))
        wav.write_bytes(encode_wav(frames, bits=16, channels=2))
        del frames
        row = ManifestRow("long", 30, str(wav), np.zeros(11, dtype=np.uint8))
        clip_decode = CLIP_SAMPLES * 2 * 8  # one clip's float64 stereo values, 0.7 MB
        _, peak = traced_peak(load_dataset, [row], CLIP_SAMPLES)
        assert peak < 4 * clip_decode  # a whole-track decode is 60 times one clip's

    def test_non_finite_wav_error_names_the_file(self, tmp_path):
        cfg = self._prepared(tmp_path)
        wav = tmp_path / "audio" / "alpha.wav"
        samples = np.zeros(3 * CLIP_SAMPLES)
        samples[CLIP_SAMPLES + 7] = np.nan
        wav.write_bytes(encode_wav(samples, bits=32, format_code=3))
        rows = read_manifest(cfg.train_manifest())[0] + read_manifest(cfg.test_manifest())[0]
        with pytest.raises(ValueError, match=re.escape(str(wav)) + ".*non-finite"):
            load_dataset(rows, REDUCED_INPUT_LENGTH)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            load_dataset([], REDUCED_INPUT_LENGTH)


def test_check_params_match_flags_architecture_mismatch(tmp_path):
    from instrumentid.nn import init_params, reduced_layers, table1_layers
    params = init_params(reduced_layers(), REDUCED_INPUT_LENGTH, seed=0)
    check_params_match(params, reduced_layers(), REDUCED_INPUT_LENGTH)
    with pytest.raises(ValueError, match="reduced"):
        check_params_match(params, table1_layers(), 44100)
