import io
import os
import struct

import numpy as np
import pytest

from instrumentid.nn import (
    ModelParams, SgdConfig, init_params, reduced_layers, REDUCED_INPUT_LENGTH,
    save_checkpoint, load_checkpoint, CheckpointError,
)

from helpers import descriptors_on, traced_peak


@pytest.fixture
def sample(tmp_path):
    params = init_params(reduced_layers(), REDUCED_INPUT_LENGTH, seed=5)
    sgd = SgdConfig(learning_rate=0.0125, batch_size=16, epochs=7, seed=987654321)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, sgd, epoch=3)
    return path, params, sgd


def test_round_trip_bit_exact(sample):
    path, params, sgd = sample
    loaded, sgd2, epoch = load_checkpoint(path)
    assert epoch == 3
    assert (sgd2.learning_rate, sgd2.batch_size, sgd2.epochs, sgd2.seed) == \
        (sgd.learning_rate, sgd.batch_size, sgd.epochs, sgd.seed)
    assert len(loaded.weights) == len(params.weights)
    for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
        assert a.dtype == np.float32 == b.dtype
        np.testing.assert_array_equal(a, b)


def test_double_round_trip_identical_bytes(sample, tmp_path):
    path, _, sgd = sample
    params, sgd2, epoch = load_checkpoint(path)
    second = tmp_path / "again.ckpt"
    save_checkpoint(second, params, sgd2, epoch)
    assert second.read_bytes() == path.read_bytes()


def _replace_head(data, params):
    return b"XXXX" + data[4:]


def _truncate(data, params):
    return data[:-10]


def _flip_tensor_byte(data, params):
    at = data.index(params.weights[1].tobytes()) + 7
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def _v1_header(data, params):
    return b"ICNN" + struct.pack("<HI", 1, len(params.weights)) + data[10:]


def _rewrite(**changes):
    def rewrite(data, params):
        with np.load(io.BytesIO(data)) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays.update(changes)
        arrays = {key: value for key, value in arrays.items() if value is not None}
        out = io.BytesIO()
        np.savez(out, **arrays)
        return out.getvalue()
    return rewrite


# a stored scalar of the wrong shape or kind: (field, value, the kind it must be)
SCALAR_DAMAGE = [
    ("version", np.array([2]), "integer"),
    ("learning_rate", np.array([0.0125]), "float"),
    ("epoch", np.array("x"), "integer"),
]


@pytest.mark.parametrize("damage, match", [
    (_replace_head, "not a checkpoint archive"),
    (_truncate, "damaged"),
    (_flip_tensor_byte, "damaged"),
    (_v1_header, "not a checkpoint archive"),
    (_rewrite(bias_1=None), "bias_1"),
    (_rewrite(version=np.array(3)), "version 3"),
    (_rewrite(learning_rate=np.float64(np.nan)), "learning rate must be finite"),
    (_rewrite(batch_size=np.array(0)), "batch size must be >= 1"),
    (_rewrite(epoch=np.array(-1)), "'epoch' -1 is outside 0 to 7"),
    *[(_rewrite(**{key: value}), rf"stored '{key}' is not a 0-d {kind} \(dtype")
      for key, value, kind in SCALAR_DAMAGE],
], ids=["bad-leading-bytes", "truncated", "flipped-tensor-byte", "v1-header",
        "missing-key", "wrong-version", "nan-learning-rate", "zero-batch-size",
        "negative-epoch", "1-d-version", "1-d-learning-rate", "text-epoch"])
def test_rejects_damaged_checkpoint(sample, tmp_path, damage, match):
    path, params, _ = sample
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(damage(path.read_bytes(), params))
    with pytest.raises(CheckpointError, match=match) as err:
        load_checkpoint(broken)
    assert str(broken) in str(err.value)
    # closed by load_checkpoint itself, not by freeing the frames the traceback holds
    assert descriptors_on(broken) == 0


def test_interrupted_save_keeps_previous_checkpoint(sample, monkeypatch):
    path, params, sgd = sample
    before = path.read_bytes()

    def crash(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        save_checkpoint(path, params, sgd, epoch=4)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_checkpoint(path)[2] == 3


@pytest.mark.parametrize("fail", ["savez", "replace"])
def test_failed_save_leaves_no_temporary_file(sample, monkeypatch, fail):
    path, params, sgd = sample
    before = path.read_bytes()

    def crash(*args, **kwargs):
        raise OSError(f"simulated {fail} failure")

    monkeypatch.setattr(np if fail == "savez" else os, fail, crash)
    with pytest.raises(OSError, match=f"simulated {fail} failure"):
        save_checkpoint(path, params, sgd, epoch=4)
    monkeypatch.undo()
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]
    assert path.read_bytes() == before


def test_save_and_load_memory_bounded_by_parameters(tmp_path):
    """Save holds no second copy of the tensors, load at most one more."""
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((512, 1024), dtype=np.float32) for _ in range(12)]
    biases = [np.zeros(512, np.float32) for _ in weights]
    params = ModelParams(weights, biases)
    nbytes = sum(t.nbytes for t in weights + biases)
    assert nbytes >= 16 * 2 ** 20
    path = tmp_path / "big.ckpt"
    sgd = SgdConfig()

    _, save_peak = traced_peak(save_checkpoint, path, params, sgd, 1)
    (loaded, _, _), load_peak = traced_peak(load_checkpoint, path)
    assert save_peak < 0.25 * nbytes, (save_peak, nbytes)
    assert load_peak < 1.25 * nbytes, (load_peak, nbytes)
    for a, b in zip(weights, loaded.weights):
        np.testing.assert_array_equal(a, b)
