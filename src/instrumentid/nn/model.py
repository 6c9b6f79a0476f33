"""Network assembly: layer types, shape inference, forward/backward, SGD.

The layer vocabulary is fixed to what the instrument-recognition network
needs: temporal convolution, max pooling, ReLU, fully connected, dropout and
a final sigmoid, one small type each. :func:`table1_layers` is the production
architecture (one-second 44.1 kHz clips); :func:`reduced_layers` is a
scaled-down twin used for fast tests and smoke training on short inputs.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import layers as L

FULL_INPUT_LENGTH = 44100
REDUCED_INPUT_LENGTH = 200
NUM_CLASSES = 11


class LayerKind(enum.Enum):
    TEMPORAL_CONV = "temporal_conv"
    MAX_POOL = "max_pool"
    RELU = "relu"
    FULLY_CONNECTED = "fully_connected"
    DROPOUT = "dropout"
    SIGMOID = "sigmoid"


class _Layer:
    """Shape, parameters and the ``nn.layers`` glue of one layer kind.

    Shapes are per clip. Layers with ``has_params`` give ``param_shapes(input
    shape)``. ``prepare(wb, input shape)`` turns the ``(weights, bias)``
    pair, else ``()``, into the form the layer computes with; ``forward``
    calls it once and every group and ``backward`` reuse the result.
    ``forward(x, weights, training, rng)`` takes a group of clips
    ``[clips, ...]`` and returns ``(output, cache)``; ``backward(cache,
    weights, g, needs_input_grad, grads)`` adds the parameter gradients,
    summed over the group, into the ``(weight, bias)`` buffers ``grads`` and
    returns the input gradient.
    """

    has_params = False

    def output_shape(self, shape):
        return shape

    def prepare(self, wb, shape):
        return wb


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _map_length(shape, what: str, window: int, name: str) -> int:
    _require(len(shape) == 2, f"{what} requires a [channels, length] input, got {shape}")
    _require(shape[1] >= window, f"length {shape[1]} shorter than {name} {window}")
    return shape[1]


# One real FFT of length n costs about _FFT_COST * n * log2(n) multiply-adds
# of the direct kernel's float32 GEMM. Timed on one core for the kernel's
# float32 transform stages at the Table-1 shapes (pocketfft against
# OpenBLAS), n from 384 to 12288: 6 to 13. Every value from 8 to 40 gives
# both nets the same kernels and lengths.
_FFT_COST = 10
# Most complex values one layer's filter spectrum may hold: 256 MiB in
# complex64. The spectra live through a training step beside the parameters
# and their gradients.
_SPECTRUM_ELEMS = 1 << 25


@dataclass(frozen=True)
class conv(_Layer):
    feature_maps: int
    filter_size: int
    kind = LayerKind.TEMPORAL_CONV
    has_params = True

    def __post_init__(self):
        _require(self.feature_maps >= 1, f"conv needs feature_maps >= 1, got {self.feature_maps}")
        _require(self.filter_size >= 1, f"conv needs filter_size >= 1, got {self.filter_size}")

    def output_shape(self, shape):
        length = _map_length(shape, "conv", self.filter_size, "filter size")
        return (self.feature_maps, length - self.filter_size + 1)

    def param_shapes(self, shape):
        return (self.feature_maps, shape[0], self.filter_size), (self.feature_maps,)

    def fft_length(self, shape):
        """``nfft`` of the overlap-save FFT kernel for a ``[channels, length]``
        input, or None where the direct kernel costs less.

        The cost rule, in multiply-adds per clip: the direct kernel costs
        ``maps * channels * filter_size * out_len``. The FFT kernel at length
        ``n``, with ``hop = n - filter_size + 1`` and ``blocks = ceil(out_len
        / hop)``, costs ``maps * channels + (maps + channels) * blocks``
        transforms of ``_FFT_COST * n * log2(n)`` each, the filter spectrum
        counted whole as if every ``forward`` call held one clip, plus four
        per complex multiply-add of the per-bin products, ``bins * maps *
        channels * blocks``. ``n`` runs over the even sizes ``2^a`` and ``3 *
        2^a`` (fast FFT lengths at most 4/3 apart) from the filter size on,
        skipping any whose spectrum (``bins * maps * channels`` values)
        exceeds ``_SPECTRUM_ELEMS``. The cheapest wins if it beats the direct
        kernel. Short filters stay direct: their filter transforms alone
        outweigh the direct product.
        """
        maps, taps = self.feature_maps, self.filter_size
        channels, length = shape
        out_len = length - taps + 1
        best, best_cost = None, maps * channels * taps * out_len
        for n in sorted(base << k for base in (2, 3) for k in range(length.bit_length() + 1)):
            bins = n // 2 + 1
            if n % 2 or n < taps or bins * maps * channels > _SPECTRUM_ELEMS:
                continue
            blocks = -(-out_len // (n - taps + 1))
            transforms = maps * channels + (maps + channels) * blocks
            cost = _FFT_COST * transforms * n * math.log2(n) + 4 * bins * maps * channels * blocks
            if cost < best_cost:
                best, best_cost = n, cost
        return best

    def prepare(self, wb, shape):
        """``(weights, bias, filter spectrum or None)``: the spectrum picks the FFT kernel."""
        nfft = self.fft_length(shape)
        return (*wb, None if nfft is None else L.filter_spectrum(wb[0], nfft))

    def forward(self, x, weights, training, rng):
        w, b, spectrum = weights
        if spectrum is None:
            return L.temporal_conv_forward(x, w, b), x
        return L.fft_conv_forward(x, spectrum, b, self.filter_size), x

    def backward(self, x, weights, g, needs_input_grad, grads):
        w, _, spectrum = weights
        grad_w, grad_b = grads
        if spectrum is None:
            g, _, gb = L.temporal_conv_backward(
                x, w, g, needs_input_grad=needs_input_grad, grad_weights=grad_w)
        else:
            g, _, gb = L.fft_conv_backward(
                x, spectrum, g, self.filter_size,
                needs_input_grad=needs_input_grad, grad_weights=grad_w)
        grad_b += gb
        return g


@dataclass(frozen=True)
class max_pool(_Layer):
    pool_size: int
    pool_stride: int
    kind = LayerKind.MAX_POOL

    def __post_init__(self):
        _require(self.pool_size >= 1, f"pool needs pool_size >= 1, got {self.pool_size}")
        _require(self.pool_stride >= 1, f"pool needs pool_stride >= 1, got {self.pool_stride}")

    def output_shape(self, shape):
        length = _map_length(shape, "pool", self.pool_size, "pool size")
        return (shape[0], (length - self.pool_size) // self.pool_stride + 1)

    def forward(self, x, weights, training, rng):
        out, argmax = L.maxpool_forward(x, self.pool_size, self.pool_stride)
        return out, (argmax, x.shape)

    def backward(self, cache, weights, g, needs_input_grad, grads):
        argmax, in_shape = cache
        return L.maxpool_backward(argmax, g, in_shape)


@dataclass(frozen=True)
class relu(_Layer):
    kind = LayerKind.RELU

    def forward(self, x, weights, training, rng):
        out = L.relu(x)
        return out, out  # the next layer holds the output anyway

    def backward(self, cache, weights, g, needs_input_grad, grads):
        return L.relu_backward(cache, g)


@dataclass(frozen=True)
class fully_connected(_Layer):
    output_size: int
    kind = LayerKind.FULLY_CONNECTED
    has_params = True

    def __post_init__(self):
        _require(self.output_size >= 1, f"fc needs output_size >= 1, got {self.output_size}")

    def output_shape(self, shape):
        return (self.output_size,)

    def param_shapes(self, shape):
        return (self.output_size, math.prod(shape)), (self.output_size,)

    def forward(self, x, weights, training, rng):
        flat = x.reshape(len(x), -1)
        return L.fully_connected_forward(flat, *weights), (flat, x.shape)

    def backward(self, cache, weights, g, needs_input_grad, grads):
        flat, in_shape = cache
        g, *param_grads = L.fully_connected_backward(flat, weights[0], g)
        for acc, grad in zip(grads, param_grads):
            acc += grad
        return g.reshape(in_shape)


@dataclass(frozen=True)
class dropout(_Layer):
    drop_rate: float = 0.5
    kind = LayerKind.DROPOUT

    def __post_init__(self):
        _require(0.0 <= self.drop_rate < 1.0,
                 f"dropout rate must be in [0, 1), got {self.drop_rate}")

    def forward(self, x, weights, training, rng):
        if training and self.drop_rate > 0 and rng is None:
            raise ValueError("training mode with dropout requires an rng")
        return L.dropout(x, self.drop_rate, rng, training)

    def backward(self, cache, weights, g, needs_input_grad, grads):
        return L.dropout_backward(cache, self.drop_rate, g)


@dataclass(frozen=True)
class sigmoid(_Layer):
    kind = LayerKind.SIGMOID

    def forward(self, x, weights, training, rng):
        out = L.sigmoid(x)
        return out, out

    def backward(self, cache, weights, g, needs_input_grad, grads):
        return L.sigmoid_backward(cache, g)


def table1_layers(drop_rate: float = dropout.drop_rate) -> list[_Layer]:
    """The production architecture: three conv/pool/ReLU blocks, then FC 400 -> 11."""
    return [
        conv(256, 3101), max_pool(40, 20), relu(),
        conv(384, 300), max_pool(30, 20), relu(),
        conv(384, 20), max_pool(8, 4), relu(),
        fully_connected(400), relu(), dropout(drop_rate),
        fully_connected(NUM_CLASSES), sigmoid(),
    ]


def reduced_layers(drop_rate: float = dropout.drop_rate) -> list[_Layer]:
    """Scaled-down twin of :func:`table1_layers` for 200-sample inputs."""
    return [
        conv(4, 11), max_pool(4, 4), relu(),
        conv(6, 5), max_pool(2, 2), relu(),
        conv(6, 3), max_pool(2, 2), relu(),
        fully_connected(16), relu(), dropout(drop_rate),
        fully_connected(NUM_CLASSES), sigmoid(),
    ]


def infer_shapes(layers, input_length: int, input_channels: int = 1):
    """Output shape after each layer, flattening before the first FC layer.

    Raises ValueError naming the layer index when a layer cannot take the
    shape before it, such as a map shorter than a filter or pool window.
    """
    if input_length < 1 or input_channels < 1:
        raise ValueError(f"bad input shape [{input_channels}, {input_length}]")
    shape: tuple[int, ...] = (input_channels, input_length)
    shapes = []
    for i, layer in enumerate(layers):
        try:
            shape = layer.output_shape(shape)
        except ValueError as err:
            raise ValueError(f"layer {i}: {err}") from None
        shapes.append(shape)
    return shapes


def _input_shapes(layers, input_length: int, input_channels: int):
    shapes = infer_shapes(layers, input_length, input_channels)
    return [(input_channels, input_length)] + shapes[:-1]


def flatten_size(layers, input_length: int, input_channels: int = 1) -> int:
    """Size of the flattened map entering the first fully-connected layer."""
    for layer, shape in zip(layers, _input_shapes(layers, input_length, input_channels)):
        if layer.kind is LayerKind.FULLY_CONNECTED:
            return math.prod(shape)
    raise ValueError("architecture has no fully-connected layer")


def param_shapes(layers, input_length: int, input_channels: int = 1):
    """(weight shape, bias shape) per parameterized layer, in network order."""
    shapes = _input_shapes(layers, input_length, input_channels)
    return [layer.param_shapes(s) for layer, s in zip(layers, shapes) if layer.has_params]


@dataclass
class SgdConfig:
    learning_rate: float = 1e-2
    batch_size: int = 16
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")


@dataclass
class ModelParams:
    """Weight/bias pairs for the parameterized layers, in network order."""

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def zeros_like(self) -> "ModelParams":
        return ModelParams(
            [np.zeros_like(w) for w in self.weights], [np.zeros_like(b) for b in self.biases]
        )


def init_params(layers, input_length: int, input_channels: int = 1,
                seed: int = 0, dtype=np.float32) -> ModelParams:
    """Seeded uniform init in [-sqrt(6/fan_in), +sqrt(6/fan_in)], zero biases.

    Each weight tensor is drawn one row (output unit) at a time and cast as
    it goes, so only one row exists in float64; the rng stream, and so every
    value, is the same as for one draw of the whole tensor.
    """
    rng = np.random.default_rng(seed)
    params = ModelParams()
    for w_shape, b_shape in param_shapes(layers, input_length, input_channels):
        bound = np.sqrt(6.0 / math.prod(w_shape[1:]))
        weights = np.empty(w_shape, dtype=dtype)
        for row in weights:
            row[...] = rng.uniform(-bound, bound, size=row.shape)
        params.weights.append(weights)
        params.biases.append(np.zeros(b_shape, dtype=dtype))
    return params


@dataclass
class ForwardCache:
    """Everything backward() needs: the layers, each layer's weights as
    prepared for the call (conv filter spectra included) and per-group,
    per-layer caches."""

    layers: list
    params: ModelParams
    weights: list  # per layer, what ``prepare`` made of its parameters
    clips: int
    group: int  # clips per group; the last group may be shorter
    group_caches: list  # one list of per-layer caches per group of clips


def _layer_params(params: ModelParams, layers) -> list:
    """Each layer's ``(weights, bias)`` pair, or ``()`` if it has none."""
    pairs = zip(params.weights, params.biases)
    return [next(pairs) if layer.has_params else () for layer in layers]


def _group_size(layers, input_length: int, input_channels: int) -> int:
    """Most clips whose largest layer output stays within the conv chunk bound."""
    shapes = infer_shapes(layers, input_length, input_channels)
    return max(1, L._CONV_CHUNK_ELEMS // max(math.prod(s) for s in shapes))


def forward(params: ModelParams, layers, batch, mode: str = "train", rng=None):
    """Run the network over a ``[batch, channels, length]`` stack of clips.

    Each layer prepares its weights once per call (a long-filter conv
    builds its filter spectrum), then runs once per group of consecutive
    clips, the groups in index order; a group is as many clips as keep the
    largest layer output within ``nn.layers._CONV_CHUNK_ELEMS`` elements.
    Dropout draws over a group consume the rng in clip order, so results are
    deterministic for a fixed rng state and do not depend on the grouping.
    Eval mode keeps no caches and drops the prepared weights on return, so
    the groups bound its memory.

    :returns: ``(predictions [batch, output], cache)``; the cache is None in
        eval mode
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    batch = np.asarray(batch)
    if batch.ndim != 3:
        raise ValueError(f"batch must be [clips, channels, length], got shape {batch.shape}")
    training = mode == "train"
    layers = list(layers)
    channels, length = batch.shape[1:]
    weights = [layer.prepare(wb, shape) for layer, wb, shape in zip(
        layers, _layer_params(params, layers), _input_shapes(layers, length, channels))]
    group = _group_size(layers, length, channels)
    preds, group_caches = [], []
    for start in range(0, len(batch), group):
        x = batch[start:start + group]
        caches = []
        for layer, w in zip(layers, weights):
            x, layer_cache = layer.forward(x, w, training, rng)
            if training:
                caches.append(layer_cache)
        preds.append(x)
        group_caches.append(caches)
    if not training:
        return np.concatenate(preds), None
    return np.concatenate(preds), ForwardCache(
        layers, params, weights, len(batch), group, group_caches)


def backward(cache: ForwardCache, grad_loss) -> ModelParams:
    """Backpropagate ``grad_loss`` ([batch, output]) to parameter gradients.

    ``grad_loss`` is the gradient of the (batch-mean) loss w.r.t. the
    predictions, so the per-clip contributions are summed: the result is the
    gradient of the same batch-mean loss. Every layer adds its gradients
    into the one set of buffers returned, the groups in index order for
    determinism, and reuses the weights ``forward`` prepared. Layer 0
    computes no gradient for the network input.
    """
    grad_loss = np.asarray(grad_loss)
    if grad_loss.shape[0] != cache.clips:
        raise ValueError(f"grad_loss batch {grad_loss.shape[0]} != cached batch {cache.clips}")
    grads = cache.params.zeros_like()
    layer_grads = _layer_params(grads, cache.layers)
    for start, caches in zip(range(0, cache.clips, cache.group), cache.group_caches):
        g = grad_loss[start:start + cache.group]
        for i in reversed(range(len(cache.layers))):
            g = cache.layers[i].backward(caches[i], cache.weights[i], g, i > 0, layer_grads[i])
    return grads


def sgd_step(params: ModelParams, grads: ModelParams, learning_rate: float) -> ModelParams:
    """Plain SGD update ``w <- w - lr * g``; returns fresh arrays."""
    if len(grads.weights) != len(params.weights):
        raise ValueError("gradient does not match parameter layout")
    new = ModelParams()
    for w, gw in zip(params.weights, grads.weights):
        if w.shape != gw.shape:
            raise ValueError(f"gradient shape {gw.shape} != weight shape {w.shape}")
        new.weights.append(w - np.asarray(learning_rate, dtype=w.dtype) * gw)
    for b, gb in zip(params.biases, grads.biases):
        new.biases.append(b - np.asarray(learning_rate, dtype=b.dtype) * gb)
    return new
