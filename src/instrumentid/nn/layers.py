"""Forward/backward primitives for the 1-D convolutional network.

All functions are pure, preserve the input dtype (float32 for training,
float64 for gradient checks) and operate on single clips: convolution and
pooling inputs are ``[channels, length]`` arrays, fully-connected inputs are
flat vectors. Batching is handled one level up in ``model.forward``.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Bound on window elements materialized per im2col chunk (~128 MiB float64).
_CONV_CHUNK_ELEMS = 1 << 24


def _conv_chunk(out_len: int, channels: int, filter_size: int) -> int:
    return max(1, min(out_len, _CONV_CHUNK_ELEMS // max(1, channels * filter_size)))


def temporal_conv_forward(x, weights, bias):
    """Valid cross-correlation along the time axis.

    The filter spans the full channel dimension and slides with stride 1:
    ``out[m, t] = bias[m] + sum_{c,k} x[c, t + k] * weights[m, c, k]``.

    :param x: input ``[channels, length]``
    :param weights: filters ``[maps, channels, filter_size]``
    :param bias: per-map offsets ``[maps]``
    :returns: ``[maps, length - filter_size + 1]``
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    if x.ndim != 2:
        raise ValueError(f"conv input must be [channels, length], got shape {x.shape}")
    if weights.ndim != 3:
        raise ValueError(f"conv weights must be [maps, channels, filter], got shape {weights.shape}")
    channels, length = x.shape
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
    windows = sliding_window_view(x, filter_size, axis=1)  # [channels, out_len, filter]
    out = np.empty((maps, out_len), dtype=np.result_type(x, weights))
    step = _conv_chunk(out_len, channels, filter_size)
    for start in range(0, out_len, step):
        stop = min(start + step, out_len)
        out[:, start:stop] = np.tensordot(
            weights, windows[:, start:stop, :], axes=([1, 2], [0, 2])
        )
    out += bias[:, None]
    return out


def temporal_conv_backward(x, weights, grad_out, needs_input_grad: bool = True):
    """Gradients of :func:`temporal_conv_forward` w.r.t. input, weights, bias.

    With ``needs_input_grad`` false the input gradient is skipped and
    returned as None; the network's first layer needs none.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    grad_out = np.asarray(grad_out)
    channels, length = x.shape
    maps, _, filter_size = weights.shape
    out_len = length - filter_size + 1
    if grad_out.shape != (maps, out_len):
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match conv output ({maps}, {out_len})"
        )

    grad_bias = grad_out.sum(axis=1)

    windows = sliding_window_view(x, filter_size, axis=1)
    grad_weights = np.zeros_like(weights)
    step = _conv_chunk(out_len, channels, filter_size)
    for start in range(0, out_len, step):
        stop = min(start + step, out_len)
        grad_weights += np.tensordot(
            grad_out[:, start:stop], windows[:, start:stop, :], axes=([1], [1])
        )

    if not needs_input_grad:
        return None, grad_weights, grad_bias
    grad_x = np.zeros_like(x)
    for k in range(filter_size):
        # grad_x[c, t + k] += sum_m grad_out[m, t] * weights[m, c, k]
        grad_x[:, k:k + out_len] += weights[:, :, k].T @ grad_out
    return grad_x, grad_weights, grad_bias


def maxpool_forward(x, pool_size: int, pool_stride: int):
    """Max pooling over windows ``[t * stride, t * stride + pool_size)``.

    Returns the pooled map and the absolute argmax index per output cell
    (first occurrence wins on ties), which the backward pass routes through.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"pool input must be [maps, length], got shape {x.shape}")
    if pool_size < 1 or pool_stride < 1:
        raise ValueError(f"pool size/stride must be >= 1, got {pool_size}/{pool_stride}")
    maps, length = x.shape
    if length < pool_size:
        raise ValueError(f"input length {length} shorter than pool size {pool_size}")
    windows = sliding_window_view(x, pool_size, axis=1)[:, ::pool_stride, :]
    offsets = windows.argmax(axis=2)  # first max within window
    argmax = offsets + np.arange(windows.shape[1])[None, :] * pool_stride
    out = np.take_along_axis(x, argmax, axis=1)
    return out, argmax


def maxpool_backward(argmax, grad_out, input_shape):
    """Scatter each output gradient to its recorded argmax position.

    Overlapping windows that share a winner accumulate there; everything
    else stays zero.
    """
    argmax = np.asarray(argmax)
    grad_out = np.asarray(grad_out)
    if argmax.shape != grad_out.shape:
        raise ValueError(f"argmax shape {argmax.shape} != grad_out shape {grad_out.shape}")
    maps, length = input_shape
    if argmax.size and (argmax.min() < 0 or argmax.max() >= length):
        raise ValueError(f"argmax index out of range for input length {length}")
    grad_x = np.zeros(input_shape, dtype=grad_out.dtype)
    rows = np.broadcast_to(np.arange(maps)[:, None], argmax.shape)
    np.add.at(grad_x, (rows, argmax), grad_out)
    return grad_x


def relu(x):
    return np.maximum(np.asarray(x), 0)


def relu_backward(x, grad_out):
    """Pass gradient where x > 0; the derivative at exactly 0 is taken as 0."""
    x = np.asarray(x)
    grad_out = np.asarray(grad_out)
    if x.shape != grad_out.shape:
        raise ValueError(f"input shape {x.shape} != grad_out shape {grad_out.shape}")
    return np.where(x > 0, grad_out, np.zeros((), dtype=grad_out.dtype))


def fully_connected_forward(x, weights, bias):
    """Affine map ``weights @ x + bias`` on a flat input vector."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    if x.ndim != 1 or weights.ndim != 2:
        raise ValueError(
            f"fc expects vector input and [out, in] weights, got {x.shape} and {weights.shape}"
        )
    if weights.shape[1] != x.shape[0] or bias.shape != (weights.shape[0],):
        raise ValueError(
            f"fc shape mismatch: input {x.shape}, weights {weights.shape}, bias {bias.shape}"
        )
    return weights @ x + bias


def fully_connected_backward(x, weights, grad_out):
    x = np.asarray(x)
    weights = np.asarray(weights)
    grad_out = np.asarray(grad_out)
    if grad_out.shape != (weights.shape[0],):
        raise ValueError(f"grad_out shape {grad_out.shape} does not match {weights.shape[0]} outputs")
    grad_x = weights.T @ grad_out
    grad_weights = np.outer(grad_out, x)
    grad_bias = grad_out.copy()
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
