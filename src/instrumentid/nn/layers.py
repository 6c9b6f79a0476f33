"""Forward/backward primitives for the 1-D convolutional network.

All functions are pure and preserve the input dtype (float32 for training,
float64 for gradient checks). Every primitive takes any number of leading
batch axes: convolution and pooling inputs are ``[..., channels, length]``,
fully-connected inputs ``[..., features]``, and the elementwise layers take
any shape. One clip is the case with no leading axis; ``model.forward``
passes a group of clips as one ``[clips, ...]`` array, so each layer runs
once per group and its products are one GEMM over all clips of the group.
Weight and bias gradients are summed over the leading axes.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Bound on window elements materialized per im2col chunk (~128 MiB float64).
_CONV_CHUNK_ELEMS = 1 << 24


def _conv_chunk(out_len: int, clips: int, channels: int, filter_size: int) -> int:
    """Output positions per chunk, so clips x positions x channels x taps fits the bound."""
    return max(1, min(out_len, _CONV_CHUNK_ELEMS // max(1, clips * channels * filter_size)))


def temporal_conv_forward(x, weights, bias):
    """Valid cross-correlation along the time axis.

    The filter spans the full channel dimension and slides with stride 1:
    ``out[..., m, t] = bias[m] + sum_{c,k} x[..., c, t + k] * weights[m, c, k]``.

    :param x: input ``[..., channels, length]``
    :param weights: filters ``[maps, channels, filter_size]``
    :param bias: per-map offsets ``[maps]``
    :returns: ``[..., maps, length - filter_size + 1]``
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    if x.ndim < 2:
        raise ValueError(f"conv input must be [..., channels, length], got shape {x.shape}")
    if weights.ndim != 3:
        raise ValueError(f"conv weights must be [maps, channels, filter], got shape {weights.shape}")
    *lead, channels, length = x.shape
    maps, w_channels, filter_size = weights.shape
    if w_channels != channels:
        raise ValueError(
            f"channel mismatch: input shape {x.shape} vs weights shape {weights.shape}"
        )
    if bias.shape != (maps,):
        raise ValueError(f"bias shape {bias.shape} does not match {maps} feature maps")
    if length < filter_size:
        raise ValueError(f"input length {length} shorter than filter size {filter_size}")

    out_len = length - filter_size + 1
    x = x.reshape(-1, channels, length)
    clips = len(x)
    windows = sliding_window_view(x, filter_size, axis=2)  # [clips, channels, out_len, filter]
    out = np.empty((clips, maps, out_len), dtype=np.result_type(x, weights))
    step = _conv_chunk(out_len, clips, channels, filter_size)
    for start in range(0, out_len, step):
        stop = min(start + step, out_len)
        # [maps, clips, positions]: one GEMM over every clip of the chunk
        out[:, :, start:stop] = np.tensordot(
            weights, windows[:, :, start:stop, :], axes=([1, 2], [1, 3])
        ).transpose(1, 0, 2)
    out += bias[:, None]
    return out.reshape(*lead, maps, out_len)


def temporal_conv_backward(x, weights, grad_out, needs_input_grad: bool = True):
    """Gradients of :func:`temporal_conv_forward` w.r.t. input, weights, bias.

    The weight and bias gradients are summed over the leading axes. With
    ``needs_input_grad`` false the input gradient is skipped and returned as
    None; the network's first layer needs none.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    grad_out = np.asarray(grad_out)
    *lead, channels, length = x.shape
    maps, _, filter_size = weights.shape
    out_len = length - filter_size + 1
    if grad_out.shape != (*lead, maps, out_len):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match conv output "
            f"{(*lead, maps, out_len)}"
        )
    x = x.reshape(-1, channels, length)
    grad_out = grad_out.reshape(-1, maps, out_len)
    clips = len(x)

    grad_bias = grad_out.sum(axis=(0, 2))

    windows = sliding_window_view(x, filter_size, axis=2)
    grad_weights = np.zeros_like(weights)
    step = _conv_chunk(out_len, clips, channels, filter_size)
    for start in range(0, out_len, step):
        stop = min(start + step, out_len)
        # contract clips and positions: [maps, channels, filter]
        grad_weights += np.tensordot(
            grad_out[:, :, start:stop], windows[:, :, start:stop, :], axes=([0, 2], [0, 2])
        )

    if not needs_input_grad:
        return None, grad_weights, grad_bias
    grad_x = np.zeros_like(x)
    for k in range(filter_size):
        # grad_x[..., c, t + k] += sum_m grad_out[..., m, t] * weights[m, c, k]
        grad_x[:, :, k:k + out_len] += weights[:, :, k].T @ grad_out
    return grad_x.reshape(*lead, channels, length), grad_weights, grad_bias


def maxpool_forward(x, pool_size: int, pool_stride: int):
    """Max pooling over windows ``[t * stride, t * stride + pool_size)``.

    Takes ``[..., maps, length]``. Returns the pooled map and the absolute
    argmax index per output cell (first occurrence wins on ties), which the
    backward pass routes through.
    """
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"pool input must be [..., maps, length], got shape {x.shape}")
    if pool_size < 1 or pool_stride < 1:
        raise ValueError(f"pool size/stride must be >= 1, got {pool_size}/{pool_stride}")
    length = x.shape[-1]
    if length < pool_size:
        raise ValueError(f"input length {length} shorter than pool size {pool_size}")
    windows = sliding_window_view(x, pool_size, axis=-1)[..., ::pool_stride, :]
    offsets = windows.argmax(axis=-1)  # first max within window
    argmax = offsets + np.arange(windows.shape[-2]) * pool_stride
    out = np.take_along_axis(x, argmax, axis=-1)
    return out, argmax


def maxpool_backward(argmax, grad_out, input_shape):
    """Scatter each output gradient to its recorded argmax position.

    Overlapping windows that share a winner accumulate there; everything
    else stays zero. ``input_shape`` is ``[..., maps, length]``.
    """
    argmax = np.asarray(argmax)
    grad_out = np.asarray(grad_out)
    if argmax.shape != grad_out.shape:
        raise ValueError(f"argmax shape {argmax.shape} != grad_out shape {grad_out.shape}")
    if argmax.shape[:-1] != tuple(input_shape[:-1]):
        raise ValueError(f"argmax shape {argmax.shape} does not match input shape {input_shape}")
    length = input_shape[-1]
    if argmax.size and (argmax.min() < 0 or argmax.max() >= length):
        raise ValueError(f"argmax index out of range for input length {length}")
    grad_x = np.zeros(input_shape, dtype=grad_out.dtype)
    # every leading axis and the map axis become rows of one 2-D scatter
    rows = grad_x.reshape(-1, length)
    argmax = argmax.reshape(len(rows), -1)
    np.add.at(rows, (np.arange(len(rows))[:, None], argmax), grad_out.reshape(argmax.shape))
    return grad_x


def relu(x):
    return np.maximum(np.asarray(x), 0)


def relu_backward(out, grad_out):
    """Pass gradient where x > 0; the derivative at exactly 0 is taken as 0.

    ``out`` may be x or relu(x), which are positive at the same places.
    """
    out = np.asarray(out)
    grad_out = np.asarray(grad_out)
    if out.shape != grad_out.shape:
        raise ValueError(f"input shape {out.shape} != grad_out shape {grad_out.shape}")
    return np.where(out > 0, grad_out, np.zeros((), dtype=grad_out.dtype))


def fully_connected_forward(x, weights, bias):
    """Affine map ``x @ weights.T + bias`` on ``[..., features]`` inputs."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    if x.ndim < 1 or weights.ndim != 2:
        raise ValueError(
            f"fc expects [..., in] input and [out, in] weights, got {x.shape} and {weights.shape}"
        )
    if weights.shape[1] != x.shape[-1] or bias.shape != (weights.shape[0],):
        raise ValueError(
            f"fc shape mismatch: input {x.shape}, weights {weights.shape}, bias {bias.shape}"
        )
    return x @ weights.T + bias


def fully_connected_backward(x, weights, grad_out):
    """Gradients of :func:`fully_connected_forward`; weight and bias
    gradients are summed over the leading axes."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    grad_out = np.asarray(grad_out)
    if grad_out.shape != (*x.shape[:-1], weights.shape[0]):
        raise ValueError(f"grad_out shape {grad_out.shape} does not match fc input {x.shape}")
    grad_x = grad_out @ weights
    rows = grad_out.reshape(-1, weights.shape[0])
    grad_weights = rows.T @ x.reshape(len(rows), -1)
    grad_bias = rows.sum(axis=0)
    return grad_x, grad_weights, grad_bias


def sigmoid(x):
    """Numerically stable logistic function, branching on the sign of x."""
    x = np.asarray(x)
    out = np.empty_like(x, dtype=x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(out, grad_out):
    """Gradient through the sigmoid given its cached output."""
    out = np.asarray(out)
    return grad_out * out * (1.0 - out)


def dropout(x, drop_rate: float, rng, training: bool):
    """Inverted dropout: zero with probability ``drop_rate``, scale survivors.

    Returns ``(output, mask)``; the mask is None in inference mode or when
    the rate is 0, in which case the op is the identity and consumes no
    random numbers.
    """
    x = np.asarray(x)
    if not 0.0 <= drop_rate < 1.0:
        raise ValueError(f"drop rate must be in [0, 1), got {drop_rate}")
    if not training or drop_rate == 0.0:
        return x, None
    mask = rng.random(x.shape) >= drop_rate
    out = x * mask / np.asarray(1.0 - drop_rate, dtype=x.dtype)
    return out, mask


def dropout_backward(mask, drop_rate: float, grad_out):
    if mask is None:
        return grad_out
    return grad_out * mask / np.asarray(1.0 - drop_rate, dtype=grad_out.dtype)
