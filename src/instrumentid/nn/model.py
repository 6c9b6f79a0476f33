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
    shape)``; ``footprint(input shape, output shape, clips)``, both shapes
    read from the one walk of :func:`infer_shapes`, sizes eval calls (see
    :func:`forward`).
    ``forward(x, weights, training, rng)`` takes clips ``[clips, ...]`` and
    the layer's weights, ``(weight, bias)`` or empty; it returns ``(output,
    cache)``. A ``conv`` may also take the ``max_pool`` after it and return
    the pooled maps, the pool layer then not being called (see
    :func:`forward`). ``backward(cache, weights, g, needs_input_grad, grads,
    learning_rate)`` puts the parameter gradients, summed over the clips and
    in the parameters' dtype, into the ``[weight, bias]`` list ``grads`` and
    returns the input gradient; given a ``learning_rate``, it may apply a
    weight gradient as an SGD step instead, leaving its slot None.
    :func:`backward` steps what is left in ``grads``.
    """

    has_params = False

    def output_shape(self, shape):
        return shape

    def footprint(self, shape, out, clips):
        """Elements of the largest array a call of ``clips`` clips makes per
        clip: its input or output."""
        return max(math.prod(shape), math.prod(out))


def _grad(param, grad):
    """``grad`` in ``param``'s dtype."""
    return grad.astype(param.dtype, copy=False)


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

    def fft_plan(self, shape, clips):
        """``nn.layers.fft_plan`` of this layer for a call on ``clips`` clips
        of a ``[channels, length]`` input: the FFT kernel's ``FftPlan``, or
        None for the direct kernel."""
        return L.fft_plan(self.feature_maps, self.filter_size, shape, clips)

    def footprint(self, shape, out, clips):
        """As for any layer, or on the FFT kernel its block spectra, ``bins x
        blocks x channels`` per clip at the plan for ``clips``, if larger.
        For a conv that runs its pool, ``out`` is the pooled shape: its
        whole output is never made."""
        plan = self.fft_plan(shape, clips)
        spectra = 0 if plan is None else plan.bins * plan.blocks * shape[0]
        return max(super().footprint(shape, out, clips), spectra)

    def forward(self, x, weights, training, rng, pool=None):
        """The kernel ``fft_plan`` picks for ``x``'s shape and clips. Given
        the ``max_pool`` layer after it, an FFT conv runs it too, a map
        chunk at a time (``nn.layers.fft_conv_forward``), returns the pooled
        maps and keeps their argmax."""
        plan = self.fft_plan(x.shape[-2:], len(x))
        if plan is None:
            return L.temporal_conv_forward(x, *weights), (x, None)
        if pool is None:
            return L.fft_conv_forward(x, *weights, plan.nfft), (x, None)
        pooled, argmax = L.fft_conv_forward(x, *weights, plan.nfft,
                                            pool=(pool.pool_size, pool.pool_stride))
        return pooled, (x, argmax)

    def backward(self, cache, weights, g, needs_input_grad, grads, learning_rate):
        """The kernel ``fft_plan`` picks for ``x``, as in the forward.
        On the FFT kernel, two passes: ``nn.layers.fft_conv_input_grad``,
        then ``nn.layers.fft_conv_param_grads``, into a weight gradient
        buffer made then or, given a ``learning_rate``, into the weights as
        an SGD step. A conv that ran its pool gets the pooled maps' gradient
        ``g``, which both passes scatter through the kept argmax."""
        x, argmax = cache
        w, b = weights
        plan = self.fft_plan(x.shape[-2:], len(x))
        if plan is None:
            grad_x, grads[0], gb = L.temporal_conv_backward(
                x, w, g, needs_input_grad=needs_input_grad)
        else:
            grad_x = (L.fft_conv_input_grad(x, w, g, plan.nfft, argmax=argmax)
                      if needs_input_grad else None)
            if learning_rate is None:
                grads[0] = np.zeros_like(w)  # the map chunks add into it
            target = w if learning_rate is not None else grads[0]
            _, gb = L.fft_conv_param_grads(x, g, plan.nfft, target, learning_rate, argmax=argmax)
        grads[1] = _grad(b, gb)
        return grad_x


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

    def backward(self, cache, weights, g, needs_input_grad, grads, learning_rate):
        argmax, in_shape = cache
        return L.maxpool_backward(argmax, g, in_shape)


@dataclass(frozen=True)
class relu(_Layer):
    kind = LayerKind.RELU

    def forward(self, x, weights, training, rng):
        out = L.relu(x)
        return out, out  # the next layer holds the output anyway

    def backward(self, cache, weights, g, needs_input_grad, grads, learning_rate):
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

    def backward(self, cache, weights, g, needs_input_grad, grads, learning_rate):
        flat, in_shape = cache
        g, *param_grads = L.fully_connected_backward(flat, weights[0], g)
        grads[:] = map(_grad, weights, param_grads)
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

    def backward(self, cache, weights, g, needs_input_grad, grads, learning_rate):
        return L.dropout_backward(cache, self.drop_rate, g)


@dataclass(frozen=True)
class sigmoid(_Layer):
    kind = LayerKind.SIGMOID

    def forward(self, x, weights, training, rng):
        out = L.sigmoid(x)
        return out, out

    def backward(self, cache, weights, g, needs_input_grad, grads, learning_rate):
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
    """Everything backward() needs: the layers, each layer's weights, the
    convs that ran their pool, and each layer's cache from its one call over
    the batch; a pool its conv ran has a cache of None.

    :func:`backward` consumes it: it sets each slot of ``weights`` and
    ``caches`` to None once the layer's backward call has returned, so that
    the arrays no one else holds are freed as it goes, and marks it
    ``spent``. The weights are the arrays of the ``params`` given to
    :func:`forward`, so a step taken in :func:`backward` is written there."""

    layers: list
    weights: list  # per layer, ``(weight, bias)`` or empty
    clips: int
    pooling: frozenset  # the FFT convs that run the max pool after them, by index
    caches: list  # per layer, over the whole batch
    spent: bool = False  # set by backward


def _layer_params(params: ModelParams, layers) -> list:
    """Each layer's ``(weights, bias)`` pair, or ``()`` if it has none."""
    pairs = zip(params.weights, params.biases)
    return [next(pairs) if layer.has_params else () for layer in layers]


def _pooling_convs(layers, shapes, clips) -> frozenset:
    """The indices of the convs that run the ``max_pool`` after them in a
    call on ``clips`` clips, for the per-clip ``shapes`` of the input and of
    each layer's output: each conv on the FFT kernel followed by one."""
    return frozenset(i for i, (layer, after) in enumerate(zip(layers, layers[1:]))
                     if isinstance(layer, conv) and isinstance(after, max_pool)
                     and layer.fft_plan(shapes[i], clips) is not None)


def _largest_footprint(layers, shapes, clips) -> int:
    """The largest per-clip footprint of a layer call on ``clips`` clips,
    for the per-clip ``shapes`` of the input and of each layer's output: a
    conv that runs its pool (:func:`_pooling_convs`) counts the pooled maps
    as its output, and the pool, which is not called, counts nothing."""
    pooling = _pooling_convs(layers, shapes, clips)
    return max((layer.footprint(shapes[i], shapes[i + 1 + (i in pooling)], clips)
                for i, layer in enumerate(layers) if i - 1 not in pooling), default=0)


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
    and 22,075 for the reduced net, by conv0's 4 x 190 output. No call of
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

    An FFT conv builds its filter spectrum one map chunk at a time in each
    pass that reads it, so no whole spectrum is held. An FFT conv followed
    by a max pool runs the pool itself, a map chunk at a time, so neither
    its whole output nor, in :func:`backward`, the pool's input gradient is
    ever made; the pool layer is then not called. Dropout draws over the
    clips in clip order, so results are deterministic for a fixed rng
    state.

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

    def run(x, pooling):
        for i, layer in enumerate(layers):
            if i - 1 in pooling:  # the conv before it ran this pool
                layer_cache = None
            elif i in pooling:
                x, layer_cache = layer.forward(x, weights[i], training, rng, pool=layers[i + 1])
            else:
                x, layer_cache = layer.forward(x, weights[i], training, rng)
            if training:
                caches.append(layer_cache)
        return x

    if training:
        pooling = _pooling_convs(layers, shapes, len(batch))
        return run(batch, pooling), ForwardCache(layers, weights, len(batch), pooling, caches)
    groups = L._chunks(len(batch), _largest_footprint(layers, shapes, 1), L._CONV_CHUNK_ELEMS)
    return np.concatenate([run(batch[s], _pooling_convs(layers, shapes, s.stop - s.start))
                           for s in groups or [slice(0, 0)]]), None


def backward(cache: ForwardCache, grad_loss, learning_rate=None) -> ModelParams:
    """Backpropagate ``grad_loss`` ([batch, output]) to parameter gradients,
    consuming ``cache``.

    ``grad_loss`` is the gradient of the (batch-mean) loss w.r.t. the
    predictions, so the per-clip contributions are summed: the result is the
    gradient of the same batch-mean loss. Each layer runs backward once over
    the whole batch, from the output to the input. Layer 0 computes no
    gradient for the network input. A pool that its conv ran passes the
    pooled maps' gradient on to the conv, which scatters it.

    Given a ``learning_rate``, every layer takes its SGD step here, into
    the very arrays of ``params``, as its call returns. Every gradient the
    layer made, weight and bias, is checked for non-finite values, then
    each is applied in place (``nn.layers.sgd_update``), so every slot of
    the result is None. An FFT conv applies its weight gradient within the
    call, a map chunk at a time as each chunk is done and found finite, so
    its whole weight gradient never exists. A non-finite gradient raises
    FloatingPointError naming its kind and index, as in ``non-finite bias
    gradient 3``, with the layers nearer the output, and an FFT conv's
    chunks before it, already applied.

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
        if i - 1 not in cache.pooling:  # else the conv before it scatters g
            try:
                g = layers[i].backward(caches[i], weights[i], g, i > 0, grads[i], learning_rate)
            except FloatingPointError:  # an FFT conv's weight chunk, before its update
                raise FloatingPointError(f"non-finite weight gradient {index}") from None
        caches[i] = None
        if learning_rate is not None:  # its gradients are whole: check, then step
            for kind, grad in zip(("weight", "bias"), grads[i]):
                if grad is not None and not np.isfinite(grad).all():
                    raise FloatingPointError(f"non-finite {kind} gradient {index}")
            for param, grad in zip(weights[i], grads[i]):
                if grad is not None:
                    L.sgd_update(param, grad, learning_rate, out=param)
            grads[i] = [None, None]
        weights[i] = None
    pairs = [pair for layer, pair in zip(layers, grads) if layer.has_params]
    return ModelParams([w for w, _ in pairs], [b for _, b in pairs])


def sgd_step(params: ModelParams, grads: ModelParams, learning_rate: float) -> ModelParams:
    """Plain SGD update ``w <- w - lr * g`` for gradients a caller holds,
    :func:`backward`'s without a learning rate, written into the arrays of
    ``grads``, which is returned as the new parameters.

    ``params`` is left as it is and ``grads`` is consumed: each gradient is
    scaled by ``lr`` in place and then overwritten by ``w`` minus it
    (``nn.layers.sgd_update``), the values of ``w - lr * g``, so a step
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
    new = [p if g is None else L.sgd_update(p, g, learning_rate, out=g) for p, g in pairs]
    grads.weights[:], grads.biases[:] = new[:len(grads.weights)], new[len(grads.weights):]
    return grads
