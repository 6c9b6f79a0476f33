"""Upper bounds on the traced memory of the Table-1 network's calls.

Each bound is the ``tracemalloc`` peak of the call, above the parameters
and the input, measured with NumPy 2.x (a batch-2 train step 36.4 MiB, a
one-clip eval forward 26.0 MiB), plus a 5% margin. A change that makes a
call hold one more large array, such as a whole conv output (42 MB a clip
for conv0) or a whole filter spectrum (152 MB for conv1), fails them, as
does planning the batch-2 step's FFT convs as if it held one clip (45.7
MiB: conv1's 21 block spectra a clip at nfft 384, against 9 at 512).
"""

import numpy as np
import pytest

from instrumentid.nn import (
    FULL_INPUT_LENGTH, NUM_CLASSES, backward, bce_loss, forward, init_params, table1_layers,
)

from helpers import traced_peak

MIB = 1 << 20
MARGIN = 1.05


@pytest.fixture(scope="module")
def table1():
    specs = table1_layers()
    return specs, init_params(specs, FULL_INPUT_LENGTH, seed=0)


def _clips(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, 1, FULL_INPUT_LENGTH)).astype(np.float32),
            rng.integers(0, 2, size=(n, NUM_CLASSES)).astype(np.uint8))


def test_table1_train_step_at_batch_2(table1):
    # the benchmark's table1_step: forward, loss and backward with the SGD
    # step; the step moves the weights, which the peak does not depend on
    specs, params = table1
    x, y = _clips(2, 1)

    def step():
        preds, cache = forward(params, specs, x, "train", np.random.default_rng(2))
        loss, grad = bce_loss(preds, y)
        del preds
        backward(cache, grad, 0.01)
        return loss

    loss, peak = traced_peak(step)
    assert np.isfinite(loss)
    assert peak < 36.4 * MARGIN * MIB, peak / MIB


def test_table1_eval_forward_of_one_clip(table1):
    specs, params = table1
    x, _ = _clips(1, 3)
    (preds, cache), peak = traced_peak(forward, params, specs, x, "eval")
    assert preds.shape == (1, NUM_CLASSES) and cache is None
    assert peak < 26.0 * MARGIN * MIB, peak / MIB
