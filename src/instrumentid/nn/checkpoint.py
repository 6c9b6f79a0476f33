"""Model checkpoints as one NumPy archive (``np.savez``), format version 2.

The archive holds ``weight_{i}`` and ``bias_{i}`` (float32) for each
parameterized layer, and 0-d arrays ``version``, ``learning_rate``
(float64), ``batch_size``, ``epochs``, ``seed`` (uint64) and ``epoch``.
Round-trips are bit-exact. A file that does not start as a zip archive,
such as a version 1 one, is refused, as are stored fields that are not 0-d
of their kind (a float learning rate, integers elsewhere) or that
``SgdConfig`` rejects, and an ``epoch`` outside 0 to ``epochs``.
"""

import os
import zipfile
from pathlib import Path

import numpy as np

from .model import ModelParams, SgdConfig

FORMAT_VERSION = 2


class CheckpointError(ValueError):
    pass


def write_archive(path, **arrays) -> None:
    """Write ``arrays`` as one ``np.savez`` archive at ``path``, atomically.

    The archive goes to ``<name>.tmp`` and is renamed over ``path``, so a
    crash leaves the previous file or the new one, never a partial one. A
    write or rename that raises removes the temporary file before the error
    propagates.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, params: ModelParams, sgd: SgdConfig, epoch: int) -> None:
    tensors = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        tensors[f"weight_{i}"] = np.asarray(w, dtype=np.float32)
        tensors[f"bias_{i}"] = np.asarray(b, dtype=np.float32)
    write_archive(
        path, version=np.array(FORMAT_VERSION), **tensors,
        learning_rate=np.float64(sgd.learning_rate), batch_size=np.array(sgd.batch_size),
        epochs=np.array(sgd.epochs), seed=np.uint64(sgd.seed), epoch=np.array(epoch),
    )


def load_checkpoint(path):
    """Read a checkpoint back; returns ``(params, sgd_config, epoch)``."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head != b"PK\x03\x04":
            raise CheckpointError(f"{path}: not a checkpoint archive (leading bytes {head!r})")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                arrays = {key: archive[key] for key in archive.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as err:
            raise CheckpointError(f"{path}: damaged checkpoint archive: {err}") from err

    def field(key):
        if key not in arrays:
            raise CheckpointError(f"{path}: checkpoint has no {key!r} array")
        return arrays[key]

    def scalar(key, kind="integer"):  # the Python value of a 0-d array of its kind
        value = field(key)
        if value.ndim or value.dtype.kind not in ("f" if kind == "float" else "iu"):
            raise CheckpointError(f"{path}: stored {key!r} is not a 0-d {kind} "
                                  f"(dtype {value.dtype}, shape {value.shape})")
        return value.item()

    version = scalar("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    layers = range(sum(key.startswith("weight_") for key in arrays))
    params = ModelParams([field(f"weight_{i}") for i in layers],
                         [field(f"bias_{i}") for i in layers])
    stored = dict(learning_rate=scalar("learning_rate", "float"),
                  batch_size=scalar("batch_size"), epochs=scalar("epochs"), seed=scalar("seed"))
    try:
        sgd = SgdConfig(**stored)
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from err
    epoch = scalar("epoch")
    if not 0 <= epoch <= sgd.epochs:
        raise CheckpointError(f"{path}: stored 'epoch' {epoch} is outside 0 to {sgd.epochs}, "
                              "the stored 'epochs'")
    return params, sgd, epoch
