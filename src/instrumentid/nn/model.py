"""Network assembly: layer types, shape inference, forward/backward, SGD.

The layer vocabulary is fixed to what the instrument-recognition network
needs: temporal convolution with the max pool on its output, ReLU, fully
connected, dropout and a final sigmoid, one small type each. :func:`table1_layers` is the production
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
    # no layer has this kind, since each conv runs its own pool; perfbench's
    # layer namer still reads it
    MAX_POOL = "max_pool"
    RELU = "relu"
    FULLY_CONNECTED = "fully_connected"
    DROPOUT = "dropout"
    SIGMOID = "sigmoid"


class _Layer:
    """Shape, parameters and the ``nn.layers`` glue of one layer kind.

    Shapes are per clip. Layers with ``has_params`` give ``param_shapes(input
    shape)``; ``footprint(input shape, output shape, clips)``, both shapes
    read from the one walk of :func:`infer_shapes`, sizes eval calls (see
    :func:`forward`).
    ``forward(x, weights, training, rng)`` takes clips ``[clips, ...]`` and
    the layer's weights, ``(weight, bias)`` or empty; it returns ``(output,
    cache)``. ``backward(cache, weights, g, needs_input_grad, take)``
    returns the input gradient, made first, and hands the parameter
    gradients, summed over the clips, to :func:`_gradient_sink`'s
    ``take(k, grad, rows=slice(None))``: ``k`` 0 for the weight, then 1
    for the bias, ``rows`` a slice of the weight's maps.
    """

    has_params = False

    def output_shape(self, shape):
        return shape

    def footprint(self, shape, out, clips):
        """Elements of the largest array a call of ``clips`` clips makes per
        clip: its input or output."""
        return max(math.prod(shape), math.prod(out))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


@dataclass(frozen=True)
class conv(_Layer):
    """A temporal conv and the max pool on its output, ``pool`` being its
    ``(size, stride)``; ``(1, 1)`` is the identity. Its output is the
    pooled maps."""

    feature_maps: int
    filter_size: int
    pool: tuple[int, int]
    kind = LayerKind.TEMPORAL_CONV
    has_params = True

    def __post_init__(self):
        _require(self.feature_maps >= 1, f"conv needs feature_maps >= 1, got {self.feature_maps}")
        _require(self.filter_size >= 1, f"conv needs filter_size >= 1, got {self.filter_size}")
        _require(min(self.pool) >= 1, f"conv needs pool size and stride >= 1, got {self.pool}")

    def map_shape(self, shape):
        """The unpooled maps of a ``[channels, length]`` input."""
        _require(len(shape) == 2, f"conv requires a [channels, length] input, got {shape}")
        _require(shape[1] >= self.filter_size,
                 f"length {shape[1]} shorter than filter size {self.filter_size}")
        return (self.feature_maps, shape[1] - self.filter_size + 1)

    def output_shape(self, shape):
        maps, length = self.map_shape(shape)
        size, stride = self.pool
        _require(length >= size, f"map length {length} shorter than pool size {size}")
        return (maps, (length - size) // stride + 1)

    def param_shapes(self, shape):
        return (self.feature_maps, shape[0], self.filter_size), (self.feature_maps,)

    def fft_plan(self, shape, clips):
        """``nn.layers.fft_plan`` of this layer for a call on ``clips`` clips
        of a ``[channels, length]`` input: the FFT kernel's ``FftPlan``, or
        None for the direct kernel."""
        return L.fft_plan(self.feature_maps, self.filter_size, shape, clips)

    def footprint(self, shape, out, clips):
        """As for any layer, with the whole unpooled map as the output on the
        direct kernel, which makes that map and then pools it. The FFT
        kernel never makes it; there the block spectra, ``bins x blocks x
        channels`` per clip at the plan for ``clips``, count if larger."""
        plan = self.fft_plan(shape, clips)
        if plan is None:
            return super().footprint(shape, self.map_shape(shape), clips)
        return max(super().footprint(shape, out, clips), plan.bins * plan.blocks * shape[0])

    def forward(self, x, weights, training, rng):
        """The pooled maps, on the kernel ``fft_plan`` picks for ``x``'s
        shape and clips; the cache keeps ``x`` and the pool's argmax."""
        plan = self.fft_plan(x.shape[-2:], len(x))
        pooled, argmax = (L.temporal_conv_forward(x, *weights, pool=self.pool) if plan is None
                          else L.fft_conv_forward(x, *weights, plan.nfft, pool=self.pool))
        return pooled, (x, argmax)

    def backward(self, cache, weights, g, needs_input_grad, take):
        """The kernel ``fft_plan`` picks for ``x``, as in the forward, given
        the pooled maps' gradient ``g``, which it scatters through the kept
        argmax. On the FFT kernel, two passes:
        ``nn.layers.fft_conv_input_grad``, then
        ``nn.layers.fft_conv_param_grads``, which hands ``take`` the weight
        gradient a map chunk at a time."""
        x, argmax = cache
        w, _ = weights
        plan = self.fft_plan(x.shape[-2:], len(x))
        if plan is None:
            grad_x, gw, gb = L.temporal_conv_backward(
                x, w, g, needs_input_grad=needs_input_grad, argmax=argmax)
            take(0, gw)
        else:
            grad_x = (L.fft_conv_input_grad(x, w, g, plan.nfft, argmax=argmax)
                      if needs_input_grad else None)
            gb = L.fft_conv_param_grads(x, g, plan.nfft, w, lambda maps, gw: take(0, gw, maps),
                                        argmax=argmax)
        take(1, gb)
        return grad_x


@dataclass(frozen=True)
class relu(_Layer):
    kind = LayerKind.RELU

    def forward(self, x, weights, training, rng):
        out = L.relu(x)
        return out, out  # the next layer holds the output anyway

    def backward(self, cache, weights, g, needs_input_grad, take):
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
        flat = x.reshape(len(x), math.prod(x.shape[1:]))  # -1 fails on zero clips
        return L.fully_connected_forward(flat, *weights), (flat, x.shape)

    def backward(self, cache, weights, g, needs_input_grad, take):
        flat, in_shape = cache
        g, gw, gb = L.fully_connected_backward(flat, weights[0], g)
        take(0, gw)
        take(1, gb)
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

    def backward(self, cache, weights, g, needs_input_grad, take):
        return L.dropout_backward(cache, self.drop_rate, g)


@dataclass(frozen=True)
class sigmoid(_Layer):
    kind = LayerKind.SIGMOID

    def forward(self, x, weights, training, rng):
        out = L.sigmoid(x)
        return out, out

    def backward(self, cache, weights, g, needs_input_grad, take):
        return L.sigmoid_backward(cache, g)


def table1_layers(drop_rate: float = dropout.drop_rate) -> list[_Layer]:
    """The production architecture: three conv/pool/ReLU blocks, then FC 400 -> 11."""
    return [
        conv(256, 3101, (40, 20)), relu(),
        conv(384, 300, (30, 20)), relu(),
        conv(384, 20, (8, 4)), relu(),
        fully_connected(400), relu(), dropout(drop_rate),
        fully_connected(NUM_CLASSES), sigmoid(),
    ]


def reduced_layers(drop_rate: float = dropout.drop_rate) -> list[_Layer]:
    """Scaled-down twin of :func:`table1_layers` for 200-sample inputs."""
    return [
        conv(4, 11, (4, 4)), relu(),
        conv(6, 5, (2, 2)), relu(),
        conv(6, 3, (2, 2)), relu(),
        fully_connected(16), relu(), dropout(drop_rate),
        fully_connected(NUM_CLASSES), sigmoid(),
    ]


def infer_shapes(layers, input_length: int, input_channels: int = 1):
    """Output shape after each layer, flattening before the first FC layer.

    Raises ValueError naming the layer index when a layer cannot take the
    shape before it, such as an input shorter than a conv's filter or a map
    shorter than its pool.
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


def param_shapes(layers, input_length: int, input_channels: int = 1):
    """(weight shape, bias shape) per parameterized layer, in network order."""
    shapes = [(input_channels, input_length)] + infer_shapes(layers, input_length, input_channels)
    return [layer.param_shapes(s) for layer, s in zip(layers, shapes) if layer.has_params]


@dataclass
class SgdConfig:
    learning_rate: float = 1e-2
    batch_size: int = 16
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:  # NaN fails too
            raise ValueError(
                f"learning rate must be finite and > 0 (learning_rate = {self.learning_rate})")
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
    """Everything backward() needs: the layers, each layer's weights and
    each layer's cache from its one call over the batch.

    :func:`backward` consumes it: it sets each slot of ``weights`` and
    ``caches`` to None once the layer's backward call has returned, so that
    the arrays no one else holds are freed as it goes, and marks it
    ``spent``. The weights are the arrays of the ``params`` given to
    :func:`forward`, so a step taken in :func:`backward` is written there."""

    layers: list
    weights: list  # per layer, ``(weight, bias)`` or empty
    clips: int
    caches: list  # per layer, over the whole batch
    spent: bool = False  # set by backward


def _layer_params(params: ModelParams, layers) -> list:
    """Each layer's ``(weights, bias)`` pair, or ``()`` if it has none."""
    pairs = zip(params.weights, params.biases)
    return [next(pairs) if layer.has_params else () for layer in layers]


def _largest_footprint(layers, shapes, clips) -> int:
    """The largest per-clip footprint of a layer call on ``clips`` clips,
    for the per-clip ``shapes`` of the input and of each layer's output."""
    return max((layer.footprint(shapes[i], shapes[i + 1], clips)
                for i, layer in enumerate(layers)), default=0)


def forward(params: ModelParams, layers, batch, mode: str = "train", rng=None):
    """Run the network over a ``[batch, channels, length]`` stack of clips.

    In train mode every layer runs once over the whole batch, so its
    products are one GEMM per call, and keeps its cache for
    :func:`backward`; a train step's memory grows with the batch. Eval mode
    keeps no caches and runs the whole network over consecutive groups of
    clips, concatenating their predictions, so its memory is bounded
    however many clips it gets: ``nn.layers._chunks`` sizes the groups by
    the largest per-clip footprint of a one-clip layer call (the largest of
    its input, its output and, on the FFT kernel, its block spectra; see
    :func:`_largest_footprint`), read from the call's one
    :func:`infer_shapes` walk, against ``nn.layers._CONV_CHUNK_ELEMS``
    elements, so each group is one clip or fits the bound. That is 16 clips
    for the Table-1 net, by conv1's 1,037,568 block-spectrum values a clip,
    and 22,075 for the reduced net, by conv0's 4 x 190 map. No call of
    more clips has a larger per-clip footprint, so a group planned at its
    own size fits too.

    Every call, a train call or an eval group, plans each conv for the
    clips it holds (``conv.fft_plan``): more clips share one filter
    spectrum, so Table-1 conv0 and conv1 take a longer ``nfft`` from 2
    clips on, and conv2 the FFT kernel from 3, while a one-clip call runs
    as it always has. So each group's predictions are those of a call on
    its clips alone, which may differ from one call on more or fewer clips
    at the rounding level: by the plan of its convs, and as a matrix
    product may round differently with its row count.

    Each conv runs the max pool on its output within its call, on either
    kernel. An FFT conv builds its filter spectrum one map chunk at a time
    in each pass that reads it, so no whole spectrum is held, and pools a
    map chunk at a time, so neither its whole output nor, in
    :func:`backward`, that output's gradient is ever made. Dropout draws
    over the clips in clip order, so results are deterministic for a fixed
    rng state.

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
    shapes = [(channels, length)] + infer_shapes(layers, length, channels)
    weights = _layer_params(params, layers)
    caches = []  # kept in train mode only

    def run(x):
        for layer, layer_weights in zip(layers, weights):
            x, layer_cache = layer.forward(x, layer_weights, training, rng)
            if training:
                caches.append(layer_cache)
        return x

    if training:
        return run(batch), ForwardCache(layers, weights, len(batch), caches)
    groups = L._chunks(len(batch), _largest_footprint(layers, shapes, 1), L._CONV_CHUNK_ELEMS)
    return np.concatenate([run(batch[s]) for s in groups or [slice(0, 0)]]), None


def sgd_update(param, grad, learning_rate: float, out):
    """``param - learning_rate * grad`` into ``out`` (``param`` or
    ``grad``), returned: two ufunc steps and no temporary, ``grad``
    overwritten by ``learning_rate * grad`` in the parameter's dtype, then
    ``out`` by ``param`` minus it."""
    np.multiply(np.asarray(learning_rate, dtype=param.dtype), grad, out=grad)
    return np.subtract(param, grad, out=out)


def _gradient_sink(params, grads, index: int, learning_rate):
    """The ``take`` :func:`backward` gives parameterized layer ``index``,
    of ``(weight, bias)`` ``params``: the one place a gradient is cast to
    its parameter's dtype, checked and applied. Given a ``learning_rate``,
    a non-finite gradient raises FloatingPointError and any other is
    applied to ``params[k][rows]`` (:func:`sgd_update`); without one, a
    whole gradient is stored in ``grads[k]`` as it is, and a chunk of rows
    added into a zeroed buffer there."""
    def take(k, grad, rows=slice(None)):
        param = params[k]
        grad = grad.astype(param.dtype, copy=False)
        if learning_rate is not None:
            if not np.isfinite(grad).all():
                raise FloatingPointError(f"non-finite {('weight', 'bias')[k]} gradient {index}")
            sgd_update(param[rows], grad, learning_rate, out=param[rows])
        elif rows == slice(None):
            grads[k] = grad
        else:
            if grads[k] is None:
                grads[k] = np.zeros_like(param)  # the chunks add into it
            grads[k][rows] += grad
    return take


def backward(cache: ForwardCache, grad_loss, learning_rate=None) -> ModelParams:
    """Backpropagate ``grad_loss`` ([batch, output]) to parameter gradients,
    consuming ``cache``.

    ``grad_loss`` is the gradient of the (batch-mean) loss w.r.t. the
    predictions, so the per-clip contributions are summed: the result is the
    gradient of the same batch-mean loss. Each layer runs backward once over
    the whole batch, from the output to the input. Layer 0 computes no
    gradient for the network input. Each layer hands its parameter
    gradients to one sink, :func:`_gradient_sink`.

    Given a ``learning_rate``, the sink checks each gradient and applies it
    as an SGD step, into the very arrays of ``params``, as it is handed
    over, so every slot of the result is None; an FFT conv hands its weight
    gradient over a map chunk at a time, so the whole of it never exists.
    A non-finite gradient raises FloatingPointError naming its kind and
    index, as in ``non-finite bias gradient 3``, with all that was handed
    over before it applied: the layers nearer the output, the layer's
    weight before its bias, an FFT conv's earlier map chunks. A
    FloatingPointError a layer raises itself passes as it is.

    A layer's cache and weights leave ``cache`` as its call returns, and
    the cache is spent: a second backward on it raises ValueError.
    """
    if cache.spent:
        raise ValueError("this ForwardCache was consumed by an earlier backward; "
                         "run forward again for a new one")
    grad_loss = np.asarray(grad_loss)
    if grad_loss.shape[0] != cache.clips:
        raise ValueError(f"grad_loss batch {grad_loss.shape[0]} != cached batch {cache.clips}")
    cache.spent = True
    layers, weights, caches = cache.layers, cache.weights, cache.caches
    grads = [[None, None] for _ in layers]
    g = grad_loss
    for i in reversed(range(len(layers))):
        index = sum(layer.has_params for layer in layers[:i])
        take = _gradient_sink(weights[i], grads[i], index, learning_rate)
        g = layers[i].backward(caches[i], weights[i], g, i > 0, take)
        caches[i] = weights[i] = None
    pairs = [pair for layer, pair in zip(layers, grads) if layer.has_params]
    return ModelParams([w for w, _ in pairs], [b for _, b in pairs])


def sgd_step(params: ModelParams, grads: ModelParams, learning_rate: float) -> ModelParams:
    """Plain SGD update ``w <- w - lr * g`` for gradients a caller holds,
    :func:`backward`'s without a learning rate, written into the arrays of
    ``grads``, which is returned as the new parameters.

    ``params`` is left as it is and ``grads`` is consumed: each gradient is
    scaled by ``lr`` in place and then overwritten by ``w`` minus it
    (:func:`sgd_update`), the values of ``w - lr * g``, so a step
    holds no third copy of the parameters. Every gradient must have its
    parameter's shape and dtype, or be None: a slot :func:`backward` has
    already applied to its parameter, which is then the new parameter; given
    a learning rate, :func:`backward` applies every slot.
    """
    if (len(grads.weights), len(grads.biases)) != (len(params.weights), len(params.biases)):
        raise ValueError("gradient does not match parameter layout")
    pairs = list(zip(params.weights + params.biases, grads.weights + grads.biases))
    for p, g in pairs:
        if g is not None and (p.shape, p.dtype) != (g.shape, g.dtype):
            raise ValueError(f"gradient {g.shape} {g.dtype} != parameter {p.shape} {p.dtype}")
    new = [p if g is None else sgd_update(p, g, learning_rate, out=g) for p, g in pairs]
    grads.weights[:], grads.biases[:] = new[:len(grads.weights)], new[len(grads.weights):]
    return grads
