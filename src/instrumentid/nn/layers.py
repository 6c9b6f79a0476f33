"""Forward/backward primitives for the 1-D convolutional network.

All functions preserve the input dtype (float32 for training, float64 for
gradient checks). Every primitive takes any number of leading batch axes:
convolution and pooling inputs are ``[..., channels, length]``,
fully-connected inputs ``[..., features]``, and the elementwise layers take
any shape. One clip is the case with no leading axis; ``model.forward``
passes a group of clips as one ``[clips, ...]`` array, so each layer runs
once per group and its products are one GEMM over all clips of the group.
Weight and bias gradients are summed over the leading axes. The functions
are pure, except that the convolution backward passes add the weight
gradient into a caller's ``grad_weights`` array when given one, so a
network's groups accumulate into one buffer.

Convolution has two kernels for one result. The direct kernel
(:func:`temporal_conv_forward`) multiplies im2col windows by the filters.
The overlap-save FFT kernel (:func:`fft_conv_forward`) takes the filters as
:func:`filter_spectrum`, built once per set of weights, and makes one
complex product per frequency bin over all channels, clips and blocks: the
frequency-major layout of Mathieu, Henaff & LeCun (arXiv:1312.5851) and
Vasilache et al. (arXiv:1412.7580). It is far cheaper for long filters. Its
stages run in chunks of feature maps; each chunk's spectra and products stay
within ``_FFT_CHUNK_ELEMS`` elements, which bounds the kernel's transient
memory.

The FFT kernel transforms in the input's precision, so float32 data runs
on pocketfft's float32 loop. ``np.fft.rfft`` with its default norm passes
the Python int 1 as its scale, which selects the float64 loop even for
float32 input: a float64 copy of the input, a complex128 result and a cast
back to complex64, at about twice the time. :func:`_rfft` asks for
``norm="forward"`` instead, whose ``1/n`` scale has the input's precision,
and multiplies the result by ``n`` in place. ``np.fft.irfft``'s default
already scales in the input's precision.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Bound on window elements materialized per im2col chunk (~128 MiB float64).
_CONV_CHUNK_ELEMS = 1 << 24
# Bound on the elements of one map chunk of the FFT kernel (8 MiB complex64).
_FFT_CHUNK_ELEMS = 1 << 20


def _conv_chunk(out_len: int, clips: int, channels: int, filter_size: int) -> int:
    """Output positions per chunk, so clips x positions x channels x taps fits the bound."""
    return max(1, min(out_len, _CONV_CHUNK_ELEMS // max(1, clips * channels * filter_size)))


def _check_conv_input(x, maps: int, channels: int, filter_size: int, bias=None):
    if x.ndim < 2:
        raise ValueError(f"conv input must be [..., channels, length], got shape {x.shape}")
    if x.shape[-2] != channels:
        raise ValueError(
            f"channel mismatch: input shape {x.shape} vs {channels}-channel filters"
        )
    if bias is not None and bias.shape != (maps,):
        raise ValueError(f"bias shape {bias.shape} does not match {maps} feature maps")
    if x.shape[-1] < filter_size:
        raise ValueError(f"input length {x.shape[-1]} shorter than filter size {filter_size}")


def _check_grad_out(grad_out, x_shape, maps: int, filter_size: int):
    *lead, _, length = x_shape
    expected = (*lead, maps, length - filter_size + 1)
    if grad_out.shape != expected:
        raise ValueError(
            f"grad_out shape {grad_out.shape} does not match conv output {expected}"
        )


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
    if weights.ndim != 3:
        raise ValueError(f"conv weights must be [maps, channels, filter], got shape {weights.shape}")
    maps, channels, filter_size = weights.shape
    _check_conv_input(x, maps, channels, filter_size, bias)
    *lead, _, length = x.shape

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


def temporal_conv_backward(x, weights, grad_out, needs_input_grad: bool = True,
                           grad_weights=None):
    """Gradients of :func:`temporal_conv_forward` w.r.t. input, weights, bias.

    The weight and bias gradients are summed over the leading axes. The
    weight gradient is added into ``grad_weights`` when given (it is then
    the array returned), else into a fresh zero array. With
    ``needs_input_grad`` false the input gradient is skipped and returned as
    None; the network's first layer needs none.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    grad_out = np.asarray(grad_out)
    *lead, channels, length = x.shape
    maps, _, filter_size = weights.shape
    out_len = length - filter_size + 1
    _check_grad_out(grad_out, x.shape, maps, filter_size)
    x = x.reshape(-1, channels, length)
    grad_out = grad_out.reshape(-1, maps, out_len)
    clips = len(x)

    grad_bias = grad_out.sum(axis=(0, 2))

    windows = sliding_window_view(x, filter_size, axis=2)
    if grad_weights is None:
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


def _map_chunk(maps: int, elems_per_map: int) -> int:
    """Maps per FFT chunk, so maps x elems_per_map fits ``_FFT_CHUNK_ELEMS``."""
    return max(1, min(maps, _FFT_CHUNK_ELEMS // max(1, elems_per_map)))


def _fft_geometry(spectrum, filter_size: int, length: int):
    """``(nfft, hop, blocks)`` of the overlap-save pass over ``length`` samples."""
    nfft = 2 * (spectrum.shape[0] - 1)
    hop = nfft - filter_size + 1
    if hop < 1:
        raise ValueError(f"spectrum of nfft {nfft} is shorter than filter size {filter_size}")
    return nfft, hop, -(-(length - filter_size + 1) // hop)


def _rfft(a, n: int, axis: int):
    """``np.fft.rfft(a, n, axis)``, transformed in ``a``'s precision."""
    out = np.fft.rfft(a, n=n, axis=axis, norm="forward")
    out *= n  # in place while the result is fresh; no complex128 copy
    return out


def _block_spectra(x, nfft: int, hop: int, blocks: int, width: int):
    """rfft at length ``nfft`` of ``blocks`` windows of ``width`` samples,
    ``hop`` apart, of ``x [clips, rows, length]`` zero-padded at the end.

    :returns: ``[bins, rows, clips * blocks]``, clip-major along the last axis
    """
    clips, rows, length = x.shape
    padded = np.zeros((clips, rows, (blocks - 1) * hop + width), dtype=x.dtype)
    padded[:, :, :length] = x
    windows = sliding_window_view(padded, width, axis=2)[:, :, ::hop]
    spectra = _rfft(windows, nfft, 3)  # [clips, rows, blocks, bins]
    return spectra.transpose(3, 1, 0, 2).reshape(-1, rows, clips * blocks)


def filter_spectrum(weights, nfft: int):
    """Conjugate rfft of the filters at length ``nfft``: ``[bins, maps, channels]``.

    ``bins = nfft // 2 + 1``; ``nfft`` must be even and at least the filter
    size. The spectrum is written in map chunks straight into the per-bin
    layout, so no padded or transposed copy of all the filters is made.
    """
    weights = np.asarray(weights)
    if weights.ndim != 3:
        raise ValueError(f"conv weights must be [maps, channels, filter], got shape {weights.shape}")
    maps, channels, filter_size = weights.shape
    if nfft % 2 or nfft < filter_size:
        raise ValueError(f"nfft must be even and >= filter size {filter_size}, got {nfft}")
    bins = nfft // 2 + 1
    spectrum = np.empty((bins, maps, channels), dtype=np.result_type(weights, np.complex64))
    step = _map_chunk(maps, channels * bins)
    for start in range(0, maps, step):
        chunk = _rfft(weights[start:start + step], nfft, 2)
        np.conjugate(chunk.transpose(2, 0, 1), out=spectrum[:, start:start + step])
    return spectrum


def fft_conv_forward(x, spectrum, bias, filter_size: int):
    """:func:`temporal_conv_forward` by overlap-save FFT convolution.

    ``spectrum`` is :func:`filter_spectrum` of the ``[maps, channels,
    filter_size]`` weights at an even ``nfft``. Each block of ``nfft`` input
    samples gives ``hop = nfft - filter_size + 1`` outputs: per frequency bin
    the product ``spectrum[f] @ block spectra[f]``, over all channels,
    clips and blocks at once, then an inverse rfft keeping the first ``hop``
    values.
    """
    x = np.asarray(x)
    spectrum = np.asarray(spectrum)
    bias = np.asarray(bias)
    bins, maps, channels = spectrum.shape
    _check_conv_input(x, maps, channels, filter_size, bias)
    *lead, _, length = x.shape
    nfft, hop, blocks = _fft_geometry(spectrum, filter_size, length)
    out_len = length - filter_size + 1

    x = x.reshape(-1, channels, length)
    clips = len(x)
    spectra = _block_spectra(x, nfft, hop, blocks, nfft)  # [bins, channels, clips * blocks]
    out = np.empty((clips, maps, out_len), dtype=np.result_type(x, spectrum.real))
    step = _map_chunk(maps, bins * clips * blocks)
    for start in range(0, maps, step):
        stop = min(start + step, maps)
        y = np.fft.irfft(spectrum[:, start:stop] @ spectra, n=nfft, axis=0)[:hop]
        # [hop, maps, clips, blocks] -> [clips, maps, blocks * hop]
        y = y.reshape(hop, stop - start, clips, blocks).transpose(2, 1, 3, 0)
        out[:, start:stop] = y.reshape(clips, stop - start, blocks * hop)[:, :, :out_len]
    out += bias[:, None]
    return out.reshape(*lead, maps, out_len)


def fft_conv_backward(x, spectrum, grad_out, filter_size: int,
                      needs_input_grad: bool = True, grad_weights=None):
    """Gradients of :func:`fft_conv_forward`, as :func:`temporal_conv_backward`.

    Per map chunk the output gradient is cut into blocks of ``hop`` values
    and transformed. The weight gradient is, per bin, the conjugate of those
    spectra times the input block spectra, summed over clips and blocks; its
    inverse rfft keeps the first ``filter_size`` lags and is added into
    ``grad_weights`` (a fresh zero array when None), one map chunk at a
    time. The input gradient is, per bin, the transposed product with the
    filter spectrum, then an overlap-add of the ``nfft``-sample blocks.
    """
    x = np.asarray(x)
    spectrum = np.asarray(spectrum)
    grad_out = np.asarray(grad_out)
    bins, maps, channels = spectrum.shape
    _check_conv_input(x, maps, channels, filter_size)
    _check_grad_out(grad_out, x.shape, maps, filter_size)
    *lead, _, length = x.shape
    nfft, hop, blocks = _fft_geometry(spectrum, filter_size, length)

    x = x.reshape(-1, channels, length)
    grad_out = grad_out.reshape(-1, maps, length - filter_size + 1)
    clips = len(x)
    grad_bias = grad_out.sum(axis=(0, 2))
    if grad_weights is None:
        grad_weights = np.zeros((maps, channels, filter_size),
                                dtype=np.result_type(x, spectrum.real))

    # [bins, clips * blocks, channels], the layout both products below read fastest
    spectra = np.ascontiguousarray(_block_spectra(x, nfft, hop, blocks, nfft).transpose(0, 2, 1))
    conj_grad_x = None  # conjugate input-gradient spectra, laid out as ``spectra``
    if needs_input_grad:
        conj_grad_x = np.zeros(spectra.shape, np.result_type(spectra, spectrum))
    step = _map_chunk(maps, bins * max(channels, clips * blocks))
    for start in range(0, maps, step):
        stop = min(start + step, maps)
        # [bins, maps, clips * blocks]
        conj_g = np.conjugate(_block_spectra(grad_out[:, start:stop], nfft, hop, blocks, hop))
        lags = np.fft.irfft(conj_g @ spectra, n=nfft, axis=0)[:filter_size]
        grad_weights[start:stop] += lags.transpose(1, 2, 0)
        if conj_grad_x is not None:
            conj_grad_x += conj_g.transpose(0, 2, 1) @ spectrum[:, start:stop]
    if conj_grad_x is None:
        return None, grad_weights, grad_bias

    pieces = np.fft.irfft(np.conjugate(conj_grad_x, out=conj_grad_x), n=nfft, axis=0)
    # [nfft, clips, blocks, channels] -> [clips, channels, blocks, nfft]
    pieces = pieces.reshape(nfft, clips, blocks, channels).transpose(1, 3, 2, 0)
    grad_x = np.zeros_like(x, dtype=pieces.dtype)
    for j in range(blocks):
        start = j * hop
        width = min(nfft, length - start)
        grad_x[:, :, start:start + width] += pieces[:, :, j, :width]
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
