"""Forward/backward primitives for the 1-D convolutional network.

All functions preserve the input dtype (float32 for training, float64 for
gradient checks). Every primitive takes any number of leading batch axes:
convolution and pooling inputs are ``[..., channels, length]``,
fully-connected inputs ``[..., features]``, and the elementwise layers take
any shape. One clip is the case with no leading axis; ``model.forward``
passes clips as one ``[clips, ...]`` array, so each layer call's products
are one GEMM over all its clips. Weight and bias gradients are summed over
the leading axes. The functions are pure, except that
:func:`fft_conv_param_grads` writes the weight gradient into a caller's
array: added into a buffer, or applied to the weights.

Convolution has two kernels for one result. The direct kernel
(:func:`temporal_conv_forward`) multiplies im2col windows, a read-only
strided view of the input, by the filters: its forward and weight gradient
are one GEMM per chunk of output positions, and its input gradient is one
GEMM over all taps per chunk of clips, then one shifted add per tap.
The overlap-save FFT kernel (:func:`fft_conv_forward`) takes the filters as
their :func:`filter_spectrum`, stored maps-major, and makes one complex
product per frequency bin over all channels, clips and blocks: the
frequency-major layout of Mathieu, Henaff & LeCun (arXiv:1312.5851) and
Vasilache et al. (arXiv:1412.7580). Each pass that reads the spectrum
builds it one map chunk at a time, as fbfft does, so no whole one is held.
Its backward is two passes, which ``conv.backward`` calls in turn:
:func:`fft_conv_input_grad`, the only one that reads the filter spectrum,
then :func:`fft_conv_param_grads`, which adds each map chunk's weight
gradient into a buffer or, given a learning rate, applies it to the
weights as an SGD step (:func:`sgd_update`) as soon as the chunk is done,
so that no whole weight gradient is held, as in LOMO (Lv et al.,
arXiv:2306.09782). With one input channel, as in a first layer on raw
audio, each bin's product is an outer product, so the forward and the
weight-gradient pass instead keep the rfft's own layout, bins last: the
product is one broadcast multiply of the ``[maps, bins]`` filter spectra by
the ``[clips, blocks, bins]`` block spectra, and every transform runs along
the contiguous last axis with no transposed copy. The input-gradient pass
has the per-bin form only, since a first layer asks for no input gradient.
The FFT kernel is far cheaper than the direct one for long filters.
:func:`fft_plan` picks the kernel by one cost rule, for the clips of a
call: they share one filter spectrum, so the more clips, the longer the
``nfft`` it may pick and the shorter the filters it moves to the FFT
kernel. Its :class:`FftPlan`,
the ``nfft``, hop, blocks and bins of the overlap-save geometry, has one
constructor, :func:`overlap_save`, which every FFT pass calls on its own
operands. The kernel has two bounds. Map chunks, within
``_FFT_CHUNK_ELEMS`` elements, set the shape of the per-bin GEMMs: their
operands, a map chunk's filter spectrum among them, and products. Working
chunks, within ``_FFT_WORK_ELEMS``, a cache-sized eighth of that, bound
everything else: each one-channel broadcast product, each layout copy and
each transform but those of :func:`filter_spectrum` and of the
weight-gradient lags. Every working
split runs along results independent of each other (transform rows, the
bins' GEMMs, broadcast maps), never along a summed axis, so its size
changes no bit of any output; nor does building the spectrum per map
chunk, since each filter's transform is its own row. Beyond the chunks, a
call holds ``bins x blocks x channels`` values per clip, which
``model.forward`` counts when it sizes its eval calls: the input's block
spectra in forward and in the weight-gradient pass of backward, the
input-gradient spectra in its input-gradient pass. The per-bin GEMM form builds its
spectra in the layout its products read, chunk by chunk, and writes the
weight-gradient products maps-major, so their inverse transforms give each
map's lags as contiguous rows. Every chunked loop of both kernels takes its
slices from one planner, :func:`_chunks`. Max pooling keeps its argmax in
the narrowest unsigned type that indexes its input; both its passes index
the flattened input, once per call. The FFT kernel can also run a max pool
on its output: the forward pools each working chunk of maps as soon as it
is laid out, and both backward passes scatter the pooled gradient a map
chunk at a time, so neither the whole output nor its gradient is made.
Pooling and its scatter treat each row of maps on its own, so the pair
gives the bits of the conv followed by the pool.

Every forward transform, of input blocks, output-gradient blocks and
filters alike, is a call of :func:`_block_spectra`, whose docstring gives
the padding and precision rule. ``np.fft.irfft``'s default already scales
in the input's precision.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Bound on window elements materialized per im2col chunk (~128 MiB float64),
# and on a group's largest layer array in an eval-mode model.forward.
_CONV_CHUNK_ELEMS = 1 << 24
# Bound on the elements of one map chunk of the FFT kernel's per-bin GEMMs
# (8 MiB complex64): it sets their shape.
_FFT_CHUNK_ELEMS = 1 << 20
# Bound on the elements of every other FFT-kernel temporary (1 MiB
# complex64, half of a 2 MiB per-core L2 cache); the working bound is this
# or _FFT_CHUNK_ELEMS, whichever is smaller.
_FFT_WORK_ELEMS = 1 << 17
# One real FFT of length n costs about _FFT_COST * n * log2(n) multiply-adds
# of the direct kernel's float32 GEMM. Timed on one core for the kernel's
# float32 transform stages at the Table-1 shapes (pocketfft against
# OpenBLAS), n from 384 to 12288: 6 to 13. Within that, 12 keeps Table-1
# conv2 direct at 2 clips, where it ran faster than at nfft 32 (0.043
# against 0.057 CPU s a step), and moves it to the FFT kernel from 3 clips
# (about even at 3 and 4, faster from 8). Every value from 12 to 14 gives
# both nets the same kernels and lengths at 1, 2 and 16 clips.
_FFT_COST = 12


def _chunks(n: int, per_item: int, bound: int) -> list[slice]:
    """Slices covering ``range(n)`` in order, each of ``max(1, bound //
    per_item)`` items but the last, which may be shorter: a chunk of items
    of ``per_item`` elements each is one item or within ``bound`` elements.
    A ``per_item`` of 0 counts as 1."""
    step = max(1, bound // max(1, per_item))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _work_chunks(n: int, per_item: int) -> list[slice]:
    """:func:`_chunks` at the FFT kernel's working bound."""
    return _chunks(n, per_item, min(_FFT_WORK_ELEMS, _FFT_CHUNK_ELEMS))


def _windows(x, width: int, count: int, step: int = 1):
    """Read-only ``[clips, rows, count, width]`` view of ``x [clips, rows,
    length]``: ``count`` windows of ``width`` samples, ``step`` apart."""
    clips, rows, _ = x.shape
    stride = x.strides
    return as_strided(x, (clips, rows, count, width),
                      (*stride[:2], step * stride[2], stride[2]), writeable=False)


def _check_filters(weights) -> None:
    if np.ndim(weights) != 3:
        raise ValueError("conv filters must be [maps, channels, filter] weights, "
                         f"got shape {np.shape(weights)}")


def _conv_operands(x, weights, bias=None, grad_out=None, argmax=None):
    """Check a conv call's ``[maps, channels, filter_size]`` ``weights``,
    ``x``, ``bias`` and ``grad_out``: the output gradient or, given the
    ``argmax`` of a max pool on the output, the pool's gradient, checked as
    :func:`maxpool_backward` checks its operands. Flatten the leading axes
    of ``x``, ``grad_out`` and ``argmax``.

    :returns: ``(lead, x [clips, channels, length], grad_out [clips, maps,
        n] or None, argmax [clips, maps, n] or None)``, ``lead`` being the
        leading axes of ``x``
    """
    _check_filters(weights)
    maps, channels, filter_size = weights.shape
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
    if argmax is not None:
        argmax, grad_out = _unpool_operands(argmax, grad_out, out_shape)
        argmax = argmax.reshape(-1, maps, argmax.shape[-1])
    elif grad_out is not None:
        grad_out = np.asarray(grad_out)
        if grad_out.shape != out_shape:
            raise ValueError(f"grad_out shape {grad_out.shape} does not match conv output {out_shape}")
    if grad_out is not None:
        grad_out = grad_out.reshape(-1, maps, grad_out.shape[-1])
    return lead, x.reshape(-1, channels, length), grad_out, argmax


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
    lead, x, *_ = _conv_operands(x, weights, bias=bias)
    maps, channels, filter_size = weights.shape
    clips, _, length = x.shape
    out_len = length - filter_size + 1
    windows = _windows(x, filter_size, out_len)  # [clips, channels, out_len, filter]
    rows = weights.reshape(maps, channels * filter_size)
    out = np.empty((clips, maps, out_len), dtype=np.result_type(x, weights))
    for t in _chunks(out_len, clips * channels * filter_size, _CONV_CHUNK_ELEMS):
        width = t.stop - t.start
        # one GEMM over every clip of the chunk: [maps, clips * positions]. np.dot,
        # not @, which rounds differently on its matrix-vector path (one map)
        cols = windows[:, :, t].transpose(1, 3, 0, 2).reshape(channels * filter_size, clips * width)
        out[:, :, t] = np.dot(rows, cols).reshape(maps, clips, width).transpose(1, 0, 2)
    out += bias[:, None]
    return out.reshape(*lead, maps, out_len)


def temporal_conv_backward(x, weights, grad_out, needs_input_grad: bool = True):
    """Gradients of :func:`temporal_conv_forward` w.r.t. input, weights, bias.

    The weight and bias gradients are summed over the leading axes. The
    first chunk's product is the weight gradient, which the later chunks
    add into. With ``needs_input_grad`` false the input gradient is skipped
    and returned as None; the network's first layer needs none.
    """
    weights = np.asarray(weights)
    lead, x, grad_out, _ = _conv_operands(x, weights, grad_out=grad_out)
    maps, channels, filter_size = weights.shape
    clips, _, length = x.shape
    out_len = length - filter_size + 1

    grad_bias = grad_out.sum(axis=(0, 2))

    windows = _windows(x, filter_size, out_len)
    grad_weights = None
    for t in _chunks(out_len, clips * channels * filter_size, _CONV_CHUNK_ELEMS):
        width = t.stop - t.start
        # contract clips and positions: [maps, channels * filter]
        rows = grad_out[:, :, t].transpose(1, 0, 2).reshape(maps, clips * width)
        cols = windows[:, :, t].transpose(0, 2, 1, 3).reshape(clips * width, channels * filter_size)
        product = np.dot(rows, cols).reshape(maps, channels, filter_size)
        if grad_weights is None:
            grad_weights = product.astype(weights.dtype, copy=False)
        else:
            grad_weights += product
        del rows, cols, product  # freed before the next chunk's and the input-gradient pass

    if not needs_input_grad:
        return None, grad_weights, grad_bias
    # every tap's product in one GEMM, [filter * channels, maps] @ [maps, out_len] per clip
    taps = weights.transpose(2, 1, 0).reshape(filter_size * channels, maps)
    grad_x = np.zeros_like(x)
    for c in _chunks(clips, filter_size * channels * out_len, _CONV_CHUNK_ELEMS):
        products = (taps @ grad_out[c]).reshape(c.stop - c.start, filter_size, channels, out_len)
        for k in range(filter_size):
            # grad_x[..., c, t + k] += sum_m grad_out[..., m, t] * weights[m, c, k]
            grad_x[c, :, k:k + out_len] += products[:, k]
    return grad_x.reshape(*lead, channels, length), grad_weights, grad_bias


@dataclass(frozen=True)
class FftPlan:
    """The overlap-save geometry of an FFT conv, made by :func:`overlap_save`."""
    nfft: int
    hop: int
    blocks: int
    bins: int


def overlap_save(nfft: int, filter_size: int, length: int) -> FftPlan:
    """The :class:`FftPlan` of a ``filter_size`` filter over ``length``
    samples at an even ``nfft`` of at least the filter size: each
    ``nfft``-sample block gives ``hop`` outputs, ``blocks`` blocks cover the
    ``length - filter_size + 1`` outputs, and a block's rfft has ``bins``."""
    if nfft % 2 or nfft < filter_size:
        raise ValueError(f"nfft must be even and >= filter size {filter_size}, got {nfft}")
    hop = nfft - filter_size + 1
    return FftPlan(nfft, hop, -(-(length - filter_size + 1) // hop), nfft // 2 + 1)


@functools.cache  # conv.footprint, forward and backward each ask, for a handful of geometries
def fft_plan(maps: int, filter_size: int, shape, clips: int):
    """The FFT kernel's :class:`FftPlan` for ``[maps, channels,
    filter_size]`` filters over ``clips`` clips of a ``[channels, length]``
    input in one call, or None where the direct kernel costs less.

    The cost rule, in multiply-adds per clip: the direct kernel costs
    ``maps * channels * filter_size * out_len``. The FFT kernel at length
    ``n``, on the plan :func:`overlap_save` makes, costs ``maps * channels
    / clips + (maps + channels) * blocks`` transforms of ``_FFT_COST * n *
    log2(n)`` each, the filter spectrum being made once per call and shared
    by its clips (0 clips count as 1), plus four per complex multiply-add of
    the per-bin products, ``bins * maps * channels * blocks``. ``n`` runs
    over the even sizes ``2^a`` and ``3 * 2^a`` (fast FFT lengths at most
    4/3 apart) from the filter size on. The cheapest wins if it beats the
    direct kernel. Short filters stay direct: their filter transforms alone
    outweigh the direct product, the more so the fewer clips share them. So
    a call of more clips may take a longer ``nfft`` (fewer blocks), or the
    FFT kernel where one clip takes the direct one.
    """
    channels, length = shape
    best, best_cost = None, maps * channels * filter_size * (length - filter_size + 1)
    for n in sorted(base << k for base in (2, 3) for k in range(length.bit_length() + 1)):
        if n % 2 or n < filter_size:
            continue
        plan = overlap_save(n, filter_size, length)
        transforms = maps * channels / max(1, clips) + (maps + channels) * plan.blocks
        cost = (_FFT_COST * transforms * n * math.log2(n)
                + 4 * plan.bins * maps * channels * plan.blocks)
        if cost < best_cost:
            best, best_cost = plan, cost
    return best


def _block_spectra(x, plan: FftPlan, width: int, out=None):
    """rfft at length ``plan.nfft`` of ``plan.blocks`` windows of ``width``
    samples, ``plan.hop`` apart, of ``x [clips, rows, length]`` zero-padded.

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
    nfft, hop, blocks = plan.nfft, plan.hop, plan.blocks
    clips, rows, length = x.shape
    if width == hop < nfft:
        windows = np.zeros((clips, rows, blocks, nfft), dtype=x.dtype)
        tiled = (blocks - 1) * hop
        windows[:, :, :-1, :hop] = x[:, :, :tiled].reshape(clips, rows, blocks - 1, hop)
        windows[:, :, -1, :length - tiled] = x[:, :, tiled:]
    else:
        padded = np.zeros((clips, rows, (blocks - 1) * hop + width), dtype=x.dtype)
        padded[:, :, :length] = x
        windows = _windows(padded, width, blocks, hop)
    out = np.fft.rfft(windows, norm="forward", out=out)
    out *= nfft  # in place; no complex128 copy
    return out


def filter_spectrum(weights, nfft: int):
    """Conjugate rfft of the filters at length ``nfft``: ``[bins, maps, channels]``.

    ``bins = nfft // 2 + 1``; ``nfft`` must be even and at least the filter
    size. The result is the ``[bins, maps, channels]`` view of a contiguous
    ``[maps, bins, channels]`` array, maps-major: each map chunk of filters
    is transformed as one block of :func:`_block_spectra` straight into its
    place, a map's bins ``channels`` values apart, and conjugated there, so
    beyond the result only one padded chunk is held. The per-bin GEMMs read
    this layout as fast as a bins-major one; with one channel it is the
    rfft's own ``[maps, bins]`` layout, which the broadcast form reads.
    """
    weights = np.asarray(weights)
    _check_filters(weights)
    maps, channels, filter_size = weights.shape
    plan = overlap_save(nfft, filter_size, filter_size)  # one block, the filters padded
    spectrum = np.empty((maps, plan.bins, channels), np.result_type(weights, np.complex64))
    spectrum = spectrum.transpose(1, 0, 2)
    for m in _chunks(maps, channels * plan.bins, _FFT_CHUNK_ELEMS):
        # the chunk's place in the spectrum as one block: [maps, channels, 1, bins]
        chunk = spectrum[:, m].transpose(1, 2, 0)[:, :, None]
        _block_spectra(weights[m], plan, nfft, chunk)
        np.conjugate(chunk, out=chunk)
    return spectrum


def _per_bin_spectra(x, plan: FftPlan, width: int, rows_last: bool = False):
    """:func:`_block_spectra` of ``x [clips, rows, length]`` in the per-bin
    GEMM layout ``[bins, rows, clips * blocks]``, or ``[bins, clips *
    blocks, rows]`` with ``rows_last``.

    Working chunks of rows are transformed in the rfft's own layout and
    copied into place, so beyond the result one working chunk is held. At
    Table-1 conv1's batch-16 shapes the traced peak is 1.02x the result for
    the input (1.14x with map-chunk-sized row chunks, 2x for a transposed
    copy of the whole, 1.26x for an rfft writing through the transposed
    view, at about the same speed) and 1.38x for a 16-map output-gradient
    chunk (3.0x with one row chunk of the whole).
    """
    clips, rows, _ = x.shape
    bins, blocks = plan.bins, plan.blocks
    out = np.empty((bins, clips, blocks, rows) if rows_last else (bins, rows, clips, blocks),
                   np.result_type(x, np.complex64))
    for r in _work_chunks(rows, bins * clips * blocks):
        # [clips, rows, blocks, bins]; the copy reads it strided and writes in order
        chunk = _block_spectra(x[:, r], plan, width)
        if rows_last:
            out[..., r] = chunk.transpose(3, 0, 2, 1)
        else:
            out[:, r] = chunk.transpose(3, 1, 0, 2)
    return out.reshape(bins, -1, rows) if rows_last else out.reshape(bins, rows, -1)


def fft_conv_forward(x, weights, bias, nfft: int, pool=None):
    """:func:`temporal_conv_forward` by overlap-save FFT convolution.

    The ``[maps, channels, filter_size]`` ``weights`` are transformed at an
    even ``nfft`` of at least the filter size a map chunk at a time. Each
    block of ``nfft`` input samples gives ``hop = nfft - filter_size + 1``
    outputs: per frequency bin the product of the filter spectra by the
    block spectra, over all channels, clips and blocks at once, then an
    inverse rfft keeping the first ``hop`` values. With one channel that
    product is a broadcast multiply of the ``[maps, bins]`` filter spectra
    by the ``[clips, blocks, bins]`` block spectra, inverse transformed
    along the bins, the last axis, a working chunk of maps at a time. The
    per-bin GEMMs run a map chunk at a time, and each chunk's products are
    inverse transformed and laid out a working chunk of its maps at a time.
    Each working chunk's bias is added as it is laid out.

    Given ``pool``, a ``(pool_size, pool_stride)`` pair, each working chunk
    is max pooled as soon as its bias is added, and the call returns
    ``(pooled, argmax)``, the arrays :func:`maxpool_forward` makes of the
    whole output, which is never made: a pool on the output fused into the
    conv, as in fused-layer CNN evaluation (Alwani et al., MICRO 2016).
    """
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    lead, x, *_ = _conv_operands(x, weights, bias)
    maps, channels, filter_size = weights.shape
    clips, _, length = x.shape
    plan = overlap_save(nfft, filter_size, length)
    hop, blocks = plan.hop, plan.blocks
    out_len = length - filter_size + 1
    dtype = np.result_type(x, weights)
    if pool is None:
        out = np.empty((clips, maps, out_len), dtype)
    else:
        _check_pool(out_len, *pool)
        pooled_len = (out_len - pool[0]) // pool[1] + 1
        out = np.empty((clips, maps, pooled_len), dtype)
        argmax = np.empty_like(out, np.min_scalar_type(out_len - 1))

    def place(m, y):  # y [clips, maps, blocks, hop], each block's outputs in order
        conv = out[:, m] if pool is None else np.empty((clips, m.stop - m.start, out_len), dtype)
        conv[...] = y.reshape(*y.shape[:2], blocks * hop)[:, :, :out_len]
        conv += bias[m, None]
        if pool is not None:
            out[:, m], argmax[:, m] = _maxpool(conv, *pool)

    if channels == 1:
        spectra = _block_spectra(x, plan, nfft)  # [clips, 1, blocks, bins]
        for m in _work_chunks(maps, plan.bins * clips * blocks):
            # [maps, 1, bins] filter spectra times block spectra: [clips, maps, blocks, hop]
            filters = filter_spectrum(weights[m], nfft)[:, :, 0].T[:, None]
            place(m, np.fft.irfft(filters * spectra, n=nfft)[..., :hop])
    else:
        spectra = _per_bin_spectra(x, plan, nfft)  # [bins, channels, clips * blocks]
        for m in _chunks(maps, plan.bins * max(channels, clips * blocks), _FFT_CHUNK_ELEMS):
            # [bins, maps, clips * blocks]
            products = filter_spectrum(weights[m], nfft) @ spectra
            for k in _work_chunks(m.stop - m.start, nfft * clips * blocks):
                y = np.fft.irfft(products[:, k], n=nfft, axis=0)[:hop]
                # [hop, maps, clips, blocks] -> [clips, maps, blocks, hop]
                place(slice(m.start + k.start, m.start + k.stop),
                      y.reshape(hop, k.stop - k.start, clips, blocks).transpose(2, 1, 3, 0))
                del y  # before the next working chunk is transformed
            del products  # before the next chunk's products are made
    out = out.reshape(*lead, *out.shape[1:])
    return out if pool is None else (out, argmax.reshape(out.shape))


def _grad_chunk(grad_out, argmax, out_len: int, m: slice):
    """The conv output gradient of maps ``m``, ``[clips, maps, out_len]``: a
    slice of ``grad_out``, or, given the ``argmax`` of a pool on the output,
    ``grad_out``'s slice, the pool's gradient, scattered through it as
    :func:`maxpool_backward` scatters the whole."""
    if argmax is None:
        return grad_out[:, m]
    return _unpool(argmax[:, m], grad_out[:, m], (len(grad_out), m.stop - m.start, out_len))


def fft_conv_input_grad(x, weights, grad_out, nfft: int, argmax=None):
    """The input gradient of :func:`fft_conv_forward` at ``nfft``: the
    backward pass that reads the filter spectrum, built a map chunk at a
    time from ``weights``, run before :func:`fft_conv_param_grads`. Given
    the ``argmax`` of a forward with a pool, ``grad_out`` is the pooled
    maps' gradient, and each map chunk's output gradient is scattered from
    it just before it is transformed, so the whole one is never made.

    Per map chunk the output gradient is cut into blocks of ``hop`` values
    and transformed. Per bin, those spectra times the transposed filter
    spectrum, summed over maps, are the input-gradient spectra: per-bin
    GEMMs over ``[bins, clips * blocks, channels]`` for any channel count,
    called a working chunk of bins at a time. The spectra are then inverse
    transformed and overlap-added in ``nfft``-sample blocks, a working chunk
    of clips at a time, or of one clip's channels where one clip is more
    than a working chunk. So beyond the chunks the pass holds only the
    input-gradient spectra, as large as the input block spectra, which it
    never makes.
    """
    weights = np.asarray(weights)
    lead, x, grad_out, argmax = _conv_operands(x, weights, grad_out=grad_out, argmax=argmax)
    maps, channels, filter_size = weights.shape
    clips, _, length = x.shape
    plan = overlap_save(nfft, filter_size, length)
    hop, blocks, bins = plan.hop, plan.blocks, plan.bins
    dtype = np.result_type(x, weights, np.complex64)
    # [bins, clips * blocks, channels], summed as conjugates, then conjugated in place
    grad_x_spectra = np.zeros((bins, clips * blocks, channels), dtype)
    for m in _chunks(maps, bins * max(channels, clips * blocks), _FFT_CHUNK_ELEMS):
        g = _grad_chunk(grad_out, argmax, length - filter_size + 1, m)
        conj_g = _per_bin_spectra(g, plan, hop)
        np.conjugate(conj_g, out=conj_g)
        filters = filter_spectrum(weights[m], nfft)
        for f in _work_chunks(bins, clips * blocks * channels):
            grad_x_spectra[f] += conj_g[f].transpose(0, 2, 1) @ filters[f]
        del g, conj_g, filters  # before the next chunk's are made
    np.conjugate(grad_x_spectra, out=grad_x_spectra)

    grad_x = np.zeros_like(x, dtype=np.finfo(dtype).dtype)
    for c in _work_chunks(clips, nfft * blocks * channels):
        rows = slice(c.start * blocks, c.stop * blocks)
        for r in _work_chunks(channels, nfft * (rows.stop - rows.start)):
            # [nfft, clips, blocks, channels] -> [clips, channels, blocks, nfft]
            pieces = np.fft.irfft(grad_x_spectra[:, rows, r], n=nfft, axis=0)
            pieces = pieces.reshape(nfft, -1, blocks, r.stop - r.start).transpose(1, 3, 2, 0)
            for j in range(blocks):
                start = j * hop
                width = min(nfft, length - start)
                grad_x[c, r, start:start + width] += pieces[:, :, j, :width]
            del pieces  # before the next working chunk is transformed
    return grad_x.reshape(*lead, channels, length)


def fft_conv_param_grads(x, grad_out, nfft: int, target, learning_rate=None, argmax=None):
    """``(target, grad_bias)`` of :func:`fft_conv_forward` at ``nfft``: the
    backward pass that reads no filter spectrum, run after
    :func:`fft_conv_input_grad`; given ``argmax``, it takes a pooled
    ``grad_out`` as that pass does.

    Each map chunk's weight gradient goes into the ``[maps, channels,
    filter_size]`` array ``target`` as soon as it is done: added into a
    gradient buffer or, given a ``learning_rate``, applied to the weights
    by :func:`sgd_update` once it is found finite (else FloatingPointError,
    the earlier chunks applied), so that no whole gradient is held.

    Per map chunk the output gradient blocks are transformed and, per bin,
    their conjugate times the input block spectra, summed over clips and
    blocks, is the conjugate spectrum of the lags. Its inverse rfft keeps
    the first ``filter_size`` lags. Summing over every clip of
    the call before that inverse rfft is what makes one call over a batch
    cheaper than one per clip. With more than one channel the product is a
    per-bin GEMM against input spectra made in its layout, written into a
    ``[maps, bins, channels]`` array and inverse transformed into a
    contiguous ``[maps, channels, nfft]`` one, so each map's lags are rows;
    with one channel it is a broadcast multiply in the rfft's own layout, a
    working chunk of maps at a time. Beyond the chunks the pass holds the
    input block spectra. The bias gradient adds each clip's sum of a map's
    output gradient, clip by clip, the order of numpy's ``sum(axis=(0,
    2))`` over more than one map, so it takes those sums chunk by chunk.
    """
    _, x, grad_out, argmax = _conv_operands(x, target, grad_out=grad_out, argmax=argmax)
    maps, channels, filter_size = target.shape
    clips, _, length = x.shape
    plan = overlap_save(nfft, filter_size, length)
    sums = np.empty((clips, maps), grad_out.dtype)  # each clip's output gradient sum per map

    def chunk(m):  # maps m's output gradient, each clip's sum per map taken on the way
        g = _grad_chunk(grad_out, argmax, length - filter_size + 1, m)
        sums[:, m] = g.sum(axis=2)
        return g

    def take(m, lags):  # the weight gradient of maps m, [maps, channels, filter_size]
        if learning_rate is None:
            target[m] += lags
        elif not np.isfinite(lags).all():
            raise FloatingPointError(f"non-finite weight gradient of maps {m.start}-{m.stop - 1}")
        else:
            sgd_update(target[m], lags, learning_rate, out=target[m])

    if channels == 1:
        spectra = _block_spectra(x, plan, nfft)  # [clips, 1, blocks, bins]
        np.conjugate(spectra, out=spectra)
        for m in _work_chunks(maps, plan.bins * clips * plan.blocks):
            g = _block_spectra(chunk(m), plan, plan.hop)
            g *= spectra
            # the sum is the conjugate of the lags' spectra: [maps, bins]
            lags = np.fft.irfft(np.conjugate(g.sum(axis=(0, 2))), n=nfft)[:, :filter_size]
            take(m, lags[:, None])
    else:
        spectra = _per_bin_spectra(x, plan, nfft, rows_last=True)
        chunks = _chunks(maps, plan.bins * max(channels, clips * plan.blocks), _FFT_CHUNK_ELEMS)
        # one chunk's lag spectra, maps-major, and their lags, each lag row contiguous
        dtype = np.result_type(x, grad_out, np.complex64)
        lag_spectra = np.empty((chunks[0].stop, plan.bins, channels), dtype)
        lags = np.empty((chunks[0].stop, channels, nfft), np.finfo(dtype).dtype)
        for m in chunks:
            k = m.stop - m.start
            conj_g = _per_bin_spectra(chunk(m), plan, plan.hop)
            np.conjugate(conj_g, out=conj_g)
            np.matmul(conj_g, spectra, out=lag_spectra[:k].transpose(1, 0, 2))
            np.fft.irfft(lag_spectra[:k], n=nfft, axis=1, out=lags[:k].transpose(0, 2, 1))
            take(m, lags[:k, :, :filter_size])
            del conj_g  # before the next chunk's spectra are made
    return target, sums.sum(axis=0)


def sgd_update(param, grad, learning_rate: float, out):
    """``param - learning_rate * grad`` into ``out`` (``param`` or
    ``grad``), returned: two ufunc steps and no temporary, ``grad``
    overwritten by ``learning_rate * grad`` in the parameter's dtype, then
    ``out`` by ``param`` minus it."""
    np.multiply(np.asarray(learning_rate, dtype=param.dtype), grad, out=grad)
    return np.subtract(param, grad, out=out)


def maxpool_forward(x, pool_size: int, pool_stride: int):
    """Max pooling over windows ``[t * stride, t * stride + pool_size)``.

    Takes ``[..., maps, length]``. Returns the pooled map and the absolute
    argmax index per output cell (first occurrence wins on ties), which the
    backward pass routes through. The indices are of the narrowest unsigned
    type that holds ``length - 1`` (``np.min_scalar_type``): uint16 for the
    41,000 samples of Table-1 pool0, a quarter of an int64 cache.

    Every window is a run of ``pool_size / g`` contiguous blocks of ``g =
    gcd(pool_size, pool_stride)`` samples, and windows start ``pool_stride /
    g`` blocks apart. So each block's argmax is taken once, over contiguous
    memory, and a window keeps the largest of its block maxima, an earlier
    block winning ties (and a NaN, as ``argmax`` does). Each row of maps is
    pooled on its own, so pooling any slice of the maps gives that slice of
    the result, as :func:`fft_conv_forward` does a chunk of maps at a time.
    """
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"pool input must be [..., maps, length], got shape {x.shape}")
    _check_pool(x.shape[-1], pool_size, pool_stride)
    return _maxpool(x, pool_size, pool_stride)


def _check_pool(length: int, pool_size: int, pool_stride: int) -> None:
    if pool_size < 1 or pool_stride < 1:
        raise ValueError(f"pool size/stride must be >= 1, got {pool_size}/{pool_stride}")
    if length < pool_size:
        raise ValueError(f"input length {length} shorter than pool size {pool_size}")


def _maxpool(x, pool_size: int, pool_stride: int):
    """:func:`maxpool_forward` of checked operands."""
    length = x.shape[-1]
    g = math.gcd(pool_size, pool_stride)
    per_window, step = pool_size // g, pool_stride // g
    n = (length - pool_size) // pool_stride + 1
    used = (n - 1) * step + per_window  # blocks any window reaches
    lead = x.shape[:-1]
    rows = math.prod(lead)
    blocks = x[..., :used * g].reshape(*lead, used, g)
    flat = blocks.argmax(axis=-1).reshape(rows, used)
    flat += np.arange(0, used * g, g)  # absolute index of each block's max in its row
    offsets = flat.astype(np.min_scalar_type(length - 1)).reshape(*lead, used)
    flat += np.arange(0, rows * length, length)[:, None]  # and in x, flattened
    maxima = np.take(x, flat).reshape(*lead, used)
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
    else stays zero. ``input_shape`` is ``[..., maps, length]``; ``argmax``
    is used in the integer type it comes in, such as the narrow one of
    :func:`maxpool_forward`. Each row is scattered on its own, as for the
    forward.
    """
    return _unpool(*_unpool_operands(argmax, grad_out, input_shape), input_shape)


def _unpool_operands(argmax, grad_out, input_shape):
    """``(argmax, grad_out)`` as arrays, checked against each other and
    against the pool's ``input_shape``."""
    argmax = np.asarray(argmax)
    grad_out = np.asarray(grad_out)
    if argmax.shape != grad_out.shape:
        raise ValueError(f"argmax shape {argmax.shape} != grad_out shape {grad_out.shape}")
    if argmax.shape[:-1] != tuple(input_shape[:-1]):
        raise ValueError(f"argmax shape {argmax.shape} does not match input shape {input_shape}")
    length = input_shape[-1]
    if argmax.size and (argmax.min() < 0 or argmax.max() >= length):
        raise ValueError(f"argmax index out of range for input length {length}")
    return argmax, grad_out


def _unpool(argmax, grad_out, input_shape):
    """:func:`maxpool_backward` of checked operands."""
    length = input_shape[-1]
    grad_x = np.zeros(input_shape, dtype=grad_out.dtype)
    # one 1-D scatter: every leading axis and the map axis become rows of the flat input
    rows, n = math.prod(argmax.shape[:-1]), argmax.shape[-1]
    flat = argmax.reshape(rows, n).astype(np.intp)
    flat += np.arange(0, rows * length, length)[:, None]
    np.add.at(grad_x.reshape(grad_x.size), flat.reshape(flat.size), grad_out.reshape(flat.size))
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
    grad_weights = rows.T @ x.reshape(len(rows), x.shape[-1])
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
