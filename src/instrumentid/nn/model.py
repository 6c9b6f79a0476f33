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
    """Shape, parameters and the ``nn.layers`` glue of one layer kind, per clip.

    Layers with ``has_params`` give ``param_shapes(input shape)``. ``forward(x,
    wb, training, rng)`` takes the ``(weights, bias)`` pair, else ``()``, and
    returns ``(output, cache)``; ``backward(cache, g, needs_input_grad)``
    returns ``(input grad, parameter grads)``.
    """

    has_params = False

    def output_shape(self, shape):
        return shape


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _map_length(shape, what: str, window: int, name: str) -> int:
    _require(len(shape) == 2, f"{what} requires a [channels, length] input, got {shape}")
    _require(shape[1] >= window, f"length {shape[1]} shorter than {name} {window}")
    return shape[1]


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

    def forward(self, x, wb, training, rng):
        return L.temporal_conv_forward(x, *wb), (x, wb[0])

    def backward(self, cache, g, needs_input_grad):
        g, *param_grads = L.temporal_conv_backward(*cache, g, needs_input_grad=needs_input_grad)
        return g, param_grads


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

    def forward(self, x, wb, training, rng):
        out, argmax = L.maxpool_forward(x, self.pool_size, self.pool_stride)
        return out, (argmax, x.shape)

    def backward(self, cache, g, needs_input_grad):
        argmax, in_shape = cache
        return L.maxpool_backward(argmax, g, in_shape), ()


@dataclass(frozen=True)
class relu(_Layer):
    kind = LayerKind.RELU

    def forward(self, x, wb, training, rng):
        return L.relu(x), x

    def backward(self, cache, g, needs_input_grad):
        return L.relu_backward(cache, g), ()


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

    def forward(self, x, wb, training, rng):
        flat = x.reshape(-1)
        return L.fully_connected_forward(flat, *wb), (flat, wb[0], x.shape)

    def backward(self, cache, g, needs_input_grad):
        flat, w, in_shape = cache
        g, *param_grads = L.fully_connected_backward(flat, w, g)
        return g.reshape(in_shape), param_grads


@dataclass(frozen=True)
class dropout(_Layer):
    drop_rate: float
    kind = LayerKind.DROPOUT

    def __post_init__(self):
        _require(0.0 <= self.drop_rate < 1.0,
                 f"dropout rate must be in [0, 1), got {self.drop_rate}")

    def forward(self, x, wb, training, rng):
        if training and self.drop_rate > 0 and rng is None:
            raise ValueError("training mode with dropout requires an rng")
        return L.dropout(x, self.drop_rate, rng, training)

    def backward(self, cache, g, needs_input_grad):
        return L.dropout_backward(cache, self.drop_rate, g), ()


@dataclass(frozen=True)
class sigmoid(_Layer):
    kind = LayerKind.SIGMOID

    def forward(self, x, wb, training, rng):
        out = L.sigmoid(x)
        return out, out

    def backward(self, cache, g, needs_input_grad):
        return L.sigmoid_backward(cache, g), ()


def table1_layers(drop_rate: float = 0.5) -> list[_Layer]:
    """The production architecture: three conv/pool/ReLU blocks, then FC 400 -> 11."""
    return [
        conv(256, 3101), max_pool(40, 20), relu(),
        conv(384, 300), max_pool(30, 20), relu(),
        conv(384, 20), max_pool(8, 4), relu(),
        fully_connected(400), relu(), dropout(drop_rate),
        fully_connected(NUM_CLASSES), sigmoid(),
    ]


def reduced_layers(drop_rate: float = 0.5) -> list[_Layer]:
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
    """Seeded uniform init in [-sqrt(6/fan_in), +sqrt(6/fan_in)], zero biases."""
    rng = np.random.default_rng(seed)
    params = ModelParams()
    for w_shape, b_shape in param_shapes(layers, input_length, input_channels):
        bound = np.sqrt(6.0 / math.prod(w_shape[1:]))
        params.weights.append(rng.uniform(-bound, bound, size=w_shape).astype(dtype))
        params.biases.append(np.zeros(b_shape, dtype=dtype))
    return params


@dataclass
class ForwardCache:
    """Everything backward() needs: the layers and per-clip, per-layer caches."""

    layers: list
    params: ModelParams
    clip_caches: list  # one list of per-layer caches per clip


def _layer_params(params: ModelParams, layers) -> list:
    """Each layer's ``(weights, bias)`` pair, or ``()`` if it has none."""
    pairs = zip(params.weights, params.biases)
    return [next(pairs) if layer.has_params else () for layer in layers]


def forward(params: ModelParams, layers, batch, mode: str = "train", rng=None):
    """Run the network over a ``[batch, channels, length]`` stack of clips.

    Clips are processed in index order (dropout draws are consumed in that
    order too), so results are deterministic for a fixed rng state.

    :returns: ``(predictions [batch, output], cache)``
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    batch = np.asarray(batch)
    if batch.ndim != 3:
        raise ValueError(f"batch must be [clips, channels, length], got shape {batch.shape}")
    training = mode == "train"
    layers = list(layers)
    layer_params = _layer_params(params, layers)
    preds, clip_caches = [], []
    for x in batch:
        caches = []
        for layer, wb in zip(layers, layer_params):
            x, layer_cache = layer.forward(x, wb, training, rng)
            caches.append(layer_cache)
        preds.append(x)
        clip_caches.append(caches)
    return np.stack(preds), ForwardCache(layers, params, clip_caches)


def backward(cache: ForwardCache, grad_loss) -> ModelParams:
    """Backpropagate ``grad_loss`` ([batch, output]) to parameter gradients.

    ``grad_loss`` is the gradient of the (batch-mean) loss w.r.t. the
    predictions, so the per-clip contributions are summed: the result is the
    gradient of the same batch-mean loss. Accumulation runs in clip index
    order for determinism. Layer 0 computes no gradient for the network input.
    """
    grad_loss = np.asarray(grad_loss)
    if grad_loss.shape[0] != len(cache.clip_caches):
        raise ValueError(
            f"grad_loss batch {grad_loss.shape[0]} != cached batch {len(cache.clip_caches)}"
        )
    grads = cache.params.zeros_like()
    layer_grads = _layer_params(grads, cache.layers)
    for g, caches in zip(grad_loss, cache.clip_caches):
        for i in reversed(range(len(cache.layers))):
            g, param_grads = cache.layers[i].backward(caches[i], g, i > 0)
            for acc, grad in zip(layer_grads[i], param_grads):
                acc += grad
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
