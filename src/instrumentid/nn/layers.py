"""Forward/backward primitives for the 1-D convolutional network.

All functions preserve the input dtype (float32 for training, float64 for
gradient checks). Every primitive takes any number of leading batch axes:
convolution and pooling inputs are ``[..., channels, length]``,
fully-connected inputs ``[..., features]``, and the elementwise layers take
any shape. One clip is the case with no leading axis; ``model.forward``
passes clips as one ``[clips, ...]`` array, so each layer call's products
are one GEMM over all its clips. Weight and bias gradients are summed over
the leading axes. The functions are pure, except that the convolution
backward passes add the weight gradient into a caller's ``grad_weights``
array when given one, so a network's calls accumulate into one buffer.

Convolution has two kernels for one result. The direct kernel
(:func:`temporal_conv_forward`) multiplies im2col windows by the filters.
The overlap-save FFT kernel (:func:`fft_conv_forward`) takes the filters as
:func:`filter_spectrum`, built once per set of weights, and makes one
complex product per frequency bin over all channels, clips and blocks: the
frequency-major layout of Mathieu, Henaff & LeCun (arXiv:1312.5851) and
Vasilache et al. (arXiv:1412.7580). Its backward is two passes, which
``conv.backward`` calls in turn: :func:`fft_conv_input_grad`, the only one
that reads the filter spectrum, then :func:`fft_conv_param_grads`. With one
input channel, as in a first layer on raw audio, each bin's product is an
outer product, so the forward and the weight-gradient pass instead keep the
rfft's own layout, bins last: the product is one broadcast multiply of the
``[maps, bins]`` filter spectra by the ``[clips, blocks, bins]`` block
spectra, and every transform runs along the contiguous last axis with no
transposed copy. The input-gradient pass has the per-bin form only, since
a first layer asks for no input gradient. The FFT kernel is far cheaper
than the direct one for long filters.
:func:`fft_length` picks the kernel and its length by one cost rule, on the
block geometry of :func:`overlap_save`, which both FFT kernels share. The
kernel's stages run in chunks of feature maps; each chunk's spectra and
products stay within ``_FFT_CHUNK_ELEMS`` elements. Beyond those, a call
holds one array of :func:`block_spectra_size` per clip, which
``model.forward`` counts when it sizes its calls: the input's block spectra
in forward and in the weight-gradient pass of backward, the input-gradient
spectra in its input-gradient pass. The per-bin GEMM form builds its
spectra in the layout its products read, chunk by chunk. Every chunked
loop of both kernels takes its slices from one planner, :func:`_chunks`.

Every forward transform, of input blocks, output-gradient blocks and
filters alike, is a call of :func:`_block_spectra`, whose docstring gives
the padding and precision rule. ``np.fft.irfft``'s default already scales
in the input's precision.
"""

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Bound on window elements materialized per im2col chunk (~128 MiB float64).
_CONV_CHUNK_ELEMS = 1 << 24
# Bound on the elements of one map chunk of the FFT kernel (8 MiB complex64).
_FFT_CHUNK_ELEMS = 1 << 20
# One real FFT of length n costs about _FFT_COST * n * log2(n) multiply-adds
# of the direct kernel's float32 GEMM. Timed on one core for the kernel's
# float32 transform stages at the Table-1 shapes (pocketfft against
# OpenBLAS), n from 384 to 12288: 6 to 13. Every value from 8 to 40 gives
# both nets the same kernels and lengths.
_FFT_COST = 10


def _chunks(n: int, per_item: int, bound: int) -> list[slice]:
    """Slices covering ``range(n)`` in order, each of ``max(1, bound //
    per_item)`` items but the last, which may be shorter: a chunk of items
    of ``per_item`` elements each is one item or within ``bound`` elements.
    A ``per_item`` of 0 counts as 1."""
    step = max(1, bound // max(1, per_item))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _check_filters(filters) -> None:
    if np.ndim(filters) != 3:
        raise ValueError("conv filters must be [maps, channels, filter] weights or their "
                         f"[bins, maps, channels] spectrum, got shape {np.shape(filters)}")


def _conv_operands(x, filters, filter_size=None, bias=None, grad_out=None):
    """Check a conv call's ``filters``, ``x``, ``bias`` and ``grad_out``,
    and flatten the leading axes of ``x`` and ``grad_out``.

    ``filters`` are the ``[maps, channels, filter_size]`` weights or, given
    ``filter_size``, their :func:`filter_spectrum` ``[bins, maps, channels]``.

    :returns: ``(lead, x [clips, channels, length], grad_out [clips, maps,
        out_len] or None)``, ``lead`` being the leading axes of ``x``
    """
    _check_filters(filters)
    if filter_size is None:
        maps, channels, filter_size = filters.shape
    else:
        maps, channels = filters.shape[1:]
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"conv input must be [..., channels, length], got shape {x.shape}")
    if x.shape[-2] != channels:
        raise ValueError(
            f"channel mismatch: input shape {x.shape} vs {channels}-channel filters"
        )
    if bias is not None and bias.shape != (maps,):
        raise ValueError(f"bias shape {bias.shape} does not match {maps} feature maps")
    *lead, _, length = x.shape
    if length < filter_size:
        raise ValueError(f"input length {length} shorter than filter size {filter_size}")
    out_shape = (*lead, maps, length - filter_size + 1)
    if grad_out is not None:
        grad_out = np.asarray(grad_out)
        if grad_out.shape != out_shape:
            raise ValueError(f"grad_out shape {grad_out.shape} does not match conv output {out_shape}")
        grad_out = grad_out.reshape(-1, maps, out_shape[-1])
    return lead, x.reshape(-1, channels, length), grad_out


def temporal_conv_forward(x, weights, bias):
    """Valid cross-correlation along the time axis.

    The filter spans the full channel dimension and slides with stride 1:
    ``out[..., m, t] = bias[m] + sum_{c,k} x[..., c, t + k] * weights[m, c, k]``.

    :param x: input ``[..., channels, length]``
    :param weights: filters ``[maps, channels, filter_size]``
    :param bias: per-map offsets ``[maps]``
    :returns: ``[..., maps, length - filter_size + 1]``
    """
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    lead, x, _ = _conv_operands(x, weights, bias=bias)
    maps, channels, filter_size = weights.shape
    clips, _, length = x.shape
    out_len = length - filter_size + 1
    windows = sliding_window_view(x, filter_size, axis=2)  # [clips, channels, out_len, filter]
    out = np.empty((clips, maps, out_len), dtype=np.result_type(x, weights))
    for t in _chunks(out_len, clips * channels * filter_size, _CONV_CHUNK_ELEMS):
        # [maps, clips, positions]: one GEMM over every clip of the chunk
        out[:, :, t] = np.tensordot(weights, windows[:, :, t],
                                    axes=([1, 2], [1, 3])).transpose(1, 0, 2)
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
    weights = np.asarray(weights)
    lead, x, grad_out = _conv_operands(x, weights, grad_out=grad_out)
    maps, channels, filter_size = weights.shape
    clips, _, length = x.shape
    out_len = length - filter_size + 1

    grad_bias = grad_out.sum(axis=(0, 2))

    windows = sliding_window_view(x, filter_size, axis=2)
    if grad_weights is None:
        grad_weights = np.zeros_like(weights)
    for t in _chunks(out_len, clips * channels * filter_size, _CONV_CHUNK_ELEMS):
        # contract clips and positions: [maps, channels, filter]
        grad_weights += np.tensordot(grad_out[:, :, t], windows[:, :, t], axes=([0, 2], [0, 2]))

    if not needs_input_grad:
        return None, grad_weights, grad_bias
    grad_x = np.zeros_like(x)
    for k in range(filter_size):
        # grad_x[..., c, t + k] += sum_m grad_out[..., m, t] * weights[m, c, k]
        grad_x[:, :, k:k + out_len] += weights[:, :, k].T @ grad_out
    return grad_x.reshape(*lead, channels, length), grad_weights, grad_bias


def overlap_save(nfft: int, filter_size: int, length: int):
    """``(hop, blocks)``: outputs per ``nfft``-sample block, and the blocks
    that cover the ``length - filter_size + 1`` outputs."""
    hop = nfft - filter_size + 1
    if hop < 1:
        raise ValueError(f"spectrum of nfft {nfft} is shorter than filter size {filter_size}")
    return hop, -(-(length - filter_size + 1) // hop)


@functools.cache  # every forward asks twice per conv, for a handful of geometries
def fft_length(maps: int, filter_size: int, shape):
    """``nfft`` of the FFT kernel for ``[maps, channels, filter_size]``
    filters over a ``[channels, length]`` input, or None where the direct
    kernel costs less.

    The cost rule, in multiply-adds per clip: the direct kernel costs
    ``maps * channels * filter_size * out_len``. The FFT kernel at length
    ``n``, with ``(hop, blocks)`` from :func:`overlap_save`, costs ``maps *
    channels + (maps + channels) * blocks`` transforms of ``_FFT_COST * n *
    log2(n)`` each, the filter spectrum counted whole as if every ``forward``
    call held one clip, plus four per complex multiply-add of the per-bin
    products, ``bins * maps * channels * blocks``. ``n`` runs over the even
    sizes ``2^a`` and ``3 * 2^a`` (fast FFT lengths at most 4/3 apart) from
    the filter size on. The cheapest wins if it beats the direct kernel.
    Short filters stay direct: their filter transforms alone outweigh the
    direct product.
    """
    channels, length = shape
    best, best_cost = None, maps * channels * filter_size * (length - filter_size + 1)
    for n in sorted(base << k for base in (2, 3) for k in range(length.bit_length() + 1)):
        if n % 2 or n < filter_size:
            continue
        bins = n // 2 + 1
        _, blocks = overlap_save(n, filter_size, length)
        transforms = maps * channels + (maps + channels) * blocks
        cost = _FFT_COST * transforms * n * math.log2(n) + 4 * bins * maps * channels * blocks
        if cost < best_cost:
            best, best_cost = n, cost
    return best


def block_spectra_size(nfft: int, filter_size: int, shape) -> int:
    """Values of one ``[channels, length]`` clip's block spectra at ``nfft``:
    ``bins x blocks x channels``, held once in each backward pass,
    :func:`fft_conv_input_grad` and :func:`fft_conv_param_grads`."""
    channels, length = shape
    return (nfft // 2 + 1) * overlap_save(nfft, filter_size, length)[1] * channels


def _block_spectra(x, nfft: int, hop: int, blocks: int, width: int, out=None):
    """rfft at length ``nfft`` of ``blocks`` windows of ``width`` samples,
    ``hop`` apart, of ``x [clips, rows, length]`` zero-padded at the end.

    ``width`` is ``nfft``, or ``hop`` for blocks that tile ``x``; those are
    zero-padded to ``nfft`` here, since ``np.fft.rfft`` given a longer ``n``
    pads row by row, at about half the speed. The transform runs in the
    input's precision: with its default norm ``np.fft.rfft`` passes the
    Python int 1 as its scale, which selects the float64 loop even for
    float32 input (a float64 input copy and a complex128 result, at about
    twice the time). So it is asked for ``norm="forward"``, a ``1/n`` scale
    in the input's precision, and the result is multiplied by ``nfft`` in
    place.

    :returns: the rfft's own layout, ``[clips, rows, blocks, bins]``, in
        ``out`` when given (any strides); the per-bin GEMM form copies it
        into its own chunk by chunk (:func:`_per_bin_spectra`)
    """
    clips, rows, length = x.shape
    if width == hop < nfft:
        windows = np.zeros((clips, rows, blocks, nfft), dtype=x.dtype)
        tiled = (blocks - 1) * hop
        windows[:, :, :-1, :hop] = x[:, :, :tiled].reshape(clips, rows, blocks - 1, hop)
        windows[:, :, -1, :length - tiled] = x[:, :, tiled:]
    else:
        padded = np.zeros((clips, rows, (blocks - 1) * hop + width), dtype=x.dtype)
        padded[:, :, :length] = x
        windows = sliding_window_view(padded, width, axis=2)[:, :, ::hop]
    out = np.fft.rfft(windows, norm="forward", out=out)
    out *= nfft  # in place; no complex128 copy
    return out


def filter_spectrum(weights, nfft: int):
    """Conjugate rfft of the filters at length ``nfft``: ``[bins, maps, channels]``.

    ``bins = nfft // 2 + 1``; ``nfft`` must be even and at least the filter
    size. Each map chunk of filters is transformed as one block of
    :func:`_block_spectra`, written straight into the layout its kernel
    reads and conjugated there, so beyond the result only one padded chunk
    is held: the per-bin layout, or for one channel the transposed view of
    a contiguous ``[maps, bins]`` array, the rfft's own layout.
    """
    weights = np.asarray(weights)
    _check_filters(weights)
    maps, channels, filter_size = weights.shape
    if nfft % 2 or nfft < filter_size:
        raise ValueError(f"nfft must be even and >= filter size {filter_size}, got {nfft}")
    bins = nfft // 2 + 1
    dtype = np.result_type(weights, np.complex64)
    if channels == 1:
        spectrum = np.empty((maps, bins), dtype).T[:, :, None]
    else:
        spectrum = np.empty((bins, maps, channels), dtype)
    for m in _chunks(maps, channels * bins, _FFT_CHUNK_ELEMS):
        # the chunk's place in the spectrum as one block: [maps, channels, 1, bins]
        chunk = spectrum[:, m].transpose(1, 2, 0)[:, :, None]
        _block_spectra(weights[m], nfft, filter_size, 1, filter_size, chunk)
        np.conjugate(chunk, out=chunk)
    return spectrum


def _per_bin_spectra(x, nfft: int, hop: int, blocks: int, width: int, rows_last: bool = False):
    """:func:`_block_spectra` of ``x [clips, rows, length]`` in the per-bin
    GEMM layout ``[bins, rows, clips * blocks]``, or ``[bins, clips *
    blocks, rows]`` with ``rows_last``.

    Chunks of rows within ``_FFT_CHUNK_ELEMS`` are transformed in the rfft's
    own layout and copied into place, so beyond the result one chunk is
    held: a peak of 1.14x the result at Table-1 conv1's batch-16 shapes,
    against 2x for a transposed copy of the whole and 1.26x for an rfft
    writing through the transposed view, at about the same speed.
    """
    clips, rows, _ = x.shape
    bins = nfft // 2 + 1
    out = np.empty((bins, clips, blocks, rows) if rows_last else (bins, rows, clips, blocks),
                   np.result_type(x, np.complex64))
    for r in _chunks(rows, bins * clips * blocks, _FFT_CHUNK_ELEMS):
        # [clips, rows, blocks, bins]; the copy reads it strided and writes in order
        chunk = _block_spectra(x[:, r], nfft, hop, blocks, width)
        if rows_last:
            out[..., r] = chunk.transpose(3, 0, 2, 1)
        else:
            out[:, r] = chunk.transpose(3, 1, 0, 2)
    return out.reshape(bins, -1, rows) if rows_last else out.reshape(bins, rows, -1)


def fft_conv_forward(x, spectrum, bias, filter_size: int):
    """:func:`temporal_conv_forward` by overlap-save FFT convolution.

    ``spectrum`` is :func:`filter_spectrum` of the ``[maps, channels,
    filter_size]`` weights at an even ``nfft``. Each block of ``nfft`` input
    samples gives ``hop = nfft - filter_size + 1`` outputs: per frequency bin
    the product ``spectrum[f] @ block spectra[f]``, over all channels,
    clips and blocks at once, then an inverse rfft keeping the first ``hop``
    values. With one channel that product is a broadcast multiply of the
    ``[maps, bins]`` filter spectra by the ``[clips, blocks, bins]`` block
    spectra, inverse transformed along the bins, the last axis.
    """
    spectrum = np.asarray(spectrum)
    bias = np.asarray(bias)
    lead, x, _ = _conv_operands(x, spectrum, filter_size, bias)
    bins, maps, channels = spectrum.shape
    clips, _, length = x.shape
    nfft = 2 * (bins - 1)
    hop, blocks = overlap_save(nfft, filter_size, length)
    out_len = length - filter_size + 1
    if channels == 1:
        spectra = _block_spectra(x, nfft, hop, blocks, nfft)  # [clips, 1, blocks, bins]
    else:
        spectra = _per_bin_spectra(x, nfft, hop, blocks, nfft)  # [bins, channels, clips * blocks]
    out = np.empty((clips, maps, out_len), dtype=np.result_type(x, spectrum.real))
    for m in _chunks(maps, bins * clips * blocks, _FFT_CHUNK_ELEMS):
        if channels == 1:
            # [maps, 1, bins] filter spectra times block spectra: [clips, maps, blocks, hop]
            y = np.fft.irfft(spectrum[:, m, 0].T[:, None] * spectra, n=nfft)[..., :hop]
        else:
            y = np.fft.irfft(spectrum[:, m] @ spectra, n=nfft, axis=0)[:hop]
            # [hop, maps, clips, blocks] -> [clips, maps, blocks, hop]
            y = y.reshape(*y.shape[:2], clips, blocks).transpose(2, 1, 3, 0)
        out[:, m] = y.reshape(*y.shape[:2], blocks * hop)[:, :, :out_len]
    out += bias[:, None]
    return out.reshape(*lead, maps, out_len)


def fft_conv_input_grad(x, spectrum, grad_out, filter_size: int):
    """The input gradient of :func:`fft_conv_forward`: the backward pass
    that reads the filter ``spectrum``, run before
    :func:`fft_conv_param_grads`, after which the spectrum may be freed.

    Per map chunk the output gradient is cut into blocks of ``hop`` values
    and transformed. Per bin, those spectra times the transposed filter
    spectrum, summed over maps, are the input-gradient spectra: per-bin
    GEMMs over ``[bins, clips * blocks, channels]`` for any channel count,
    added in slices of bins within ``_FFT_CHUNK_ELEMS``. The spectra are then
    inverse transformed and overlap-added in ``nfft``-sample blocks, a few
    clips at a time within ``_FFT_CHUNK_ELEMS``. So beyond the chunks the
    pass holds only the input-gradient spectra, as large as the input block
    spectra, which it never makes.
    """
    spectrum = np.asarray(spectrum)
    lead, x, grad_out = _conv_operands(x, spectrum, filter_size, grad_out=grad_out)
    bins, maps, channels = spectrum.shape
    clips, _, length = x.shape
    nfft = 2 * (bins - 1)
    hop, blocks = overlap_save(nfft, filter_size, length)
    dtype = np.result_type(x, spectrum)
    # [bins, clips * blocks, channels], summed as conjugates, then conjugated in place
    grad_x_spectra = np.zeros((bins, clips * blocks, channels), dtype)
    for m in _chunks(maps, bins * max(channels, clips * blocks), _FFT_CHUNK_ELEMS):
        conj_g = _per_bin_spectra(grad_out[:, m], nfft, hop, blocks, hop)
        np.conjugate(conj_g, out=conj_g)
        for f in _chunks(bins, clips * blocks * channels, _FFT_CHUNK_ELEMS):
            grad_x_spectra[f] += conj_g[f].transpose(0, 2, 1) @ spectrum[f, m]
    np.conjugate(grad_x_spectra, out=grad_x_spectra)

    grad_x = np.zeros_like(x, dtype=np.finfo(dtype).dtype)
    for c in _chunks(clips, nfft * blocks * channels, _FFT_CHUNK_ELEMS):
        # [nfft, clips, blocks, channels] -> [clips, channels, blocks, nfft]
        pieces = np.fft.irfft(grad_x_spectra[:, c.start * blocks:c.stop * blocks], n=nfft, axis=0)
        pieces = pieces.reshape(nfft, -1, blocks, channels).transpose(1, 3, 2, 0)
        for j in range(blocks):
            start = j * hop
            width = min(nfft, length - start)
            grad_x[c, :, start:start + width] += pieces[:, :, j, :width]
    return grad_x.reshape(*lead, channels, length)


def fft_conv_param_grads(x, grad_out, nfft: int, grad_weights):
    """``(grad_weights, grad_bias)`` of :func:`fft_conv_forward` at
    ``nfft``, the weight gradient added into the ``[maps, channels,
    filter_size]`` array ``grad_weights``: the backward pass that reads no
    filter spectrum, run after :func:`fft_conv_input_grad`.

    Per map chunk the output gradient blocks are transformed and, per bin,
    their conjugate times the input block spectra, summed over clips and
    blocks, is the conjugate spectrum of the lags. Its inverse rfft keeps
    the first ``filter_size`` lags. Summing over every clip of
    the call before that inverse rfft is what makes one call over a batch
    cheaper than one per clip. With more than one channel the product is a
    per-bin GEMM against input spectra made in its layout; with one channel
    a broadcast multiply in the rfft's own layout. Beyond the chunks the
    pass holds the input block spectra.
    """
    _, x, grad_out = _conv_operands(x, grad_weights, grad_out=grad_out)
    maps, channels, filter_size = grad_weights.shape
    clips, _, length = x.shape
    bins = nfft // 2 + 1
    hop, blocks = overlap_save(nfft, filter_size, length)
    chunks = _chunks(maps, bins * max(channels, clips * blocks), _FFT_CHUNK_ELEMS)
    if channels == 1:
        spectra = _block_spectra(x, nfft, hop, blocks, nfft)  # [clips, 1, blocks, bins]
        np.conjugate(spectra, out=spectra)
        for m in chunks:
            g = _block_spectra(grad_out[:, m], nfft, hop, blocks, hop)
            g *= spectra
            # the sum is the conjugate of the lags' spectra: [maps, bins]
            lags = np.fft.irfft(np.conjugate(g.sum(axis=(0, 2))), n=nfft)[:, :filter_size]
            grad_weights[m, 0] += lags
    else:
        spectra = _per_bin_spectra(x, nfft, hop, blocks, nfft, rows_last=True)
        for m in chunks:
            conj_g = _per_bin_spectra(grad_out[:, m], nfft, hop, blocks, hop)
            np.conjugate(conj_g, out=conj_g)
            lags = np.fft.irfft(conj_g @ spectra, n=nfft, axis=0)[:filter_size]
            grad_weights[m] += lags.transpose(1, 2, 0)
    return grad_weights, grad_out.sum(axis=(0, 2))


def maxpool_forward(x, pool_size: int, pool_stride: int):
    """Max pooling over windows ``[t * stride, t * stride + pool_size)``.

    Takes ``[..., maps, length]``. Returns the pooled map and the absolute
    argmax index per output cell (first occurrence wins on ties), which the
    backward pass routes through.

    Every window is a run of ``pool_size / g`` contiguous blocks of ``g =
    gcd(pool_size, pool_stride)`` samples, and windows start ``pool_stride /
    g`` blocks apart. So each block's argmax is taken once, over contiguous
    memory, and a window keeps the largest of its block maxima, an earlier
    block winning ties (and a NaN, as ``argmax`` does).
    """
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"pool input must be [..., maps, length], got shape {x.shape}")
    if pool_size < 1 or pool_stride < 1:
        raise ValueError(f"pool size/stride must be >= 1, got {pool_size}/{pool_stride}")
    length = x.shape[-1]
    if length < pool_size:
        raise ValueError(f"input length {length} shorter than pool size {pool_size}")
    g = math.gcd(pool_size, pool_stride)
    per_window, step = pool_size // g, pool_stride // g
    n = (length - pool_size) // pool_stride + 1
    used = (n - 1) * step + per_window  # blocks any window reaches
    blocks = x[..., :used * g].reshape(*x.shape[:-1], used, g)
    offsets = blocks.argmax(axis=-1)
    maxima = np.take_along_axis(blocks, offsets[..., None], axis=-1)[..., 0]
    offsets += np.arange(0, used * g, g)  # absolute index of each block's max
    last = (n - 1) * step + 1
    out, argmax = maxima[..., :last:step].copy(), offsets[..., :last:step].copy()
    for k in range(1, per_window):
        later = maxima[..., k:k + last:step]
        better = (later > out) | (np.isnan(later) & ~np.isnan(out))
        np.copyto(out, later, where=better)
        np.copyto(argmax, offsets[..., k:k + last:step], where=better)
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
    """Numerically stable logistic function: one ``e = exp(-|x|)``, then
    ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)`` elsewhere (NaN too)."""
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if np.issubdtype(x.dtype, np.floating) else out.astype(np.float64)


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
