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
    shape)``; ``footprint(input shape, output shape)``, both read from the
    one walk of :func:`infer_shapes`, sizes the calls (see :func:`forward`).
    ``forward(x, weights, training, rng)`` takes clips ``[clips, ...]`` and
    the layer's weights list, ``[weight, bias]`` or empty, which every call
    and ``backward`` share; it returns ``(output, cache)``. A ``conv`` may
    also take the ``max_pool`` after it and return the pooled maps, the
    pool layer then not being called (see :func:`forward`). A front layer's
    list, which its group calls share (see :func:`forward`), has a third
    slot, None at first, where a forward may keep a form made from the pair
    for the later calls and the input gradient. ``backward(cache, weights,
    g, needs_input_grad, grads, learning_rate)`` adds the parameter
    gradients, summed over the clips, into the ``[weight, bias]`` list
    ``grads`` (see :func:`_add`) and returns the input gradient; given a
    ``learning_rate``, which only a tail layer gets, it may apply a weight
    gradient as an SGD step instead, leaving its slot None. :func:`backward`
    steps what a layer's last call left in ``grads``. A ``backward`` may
    drop the third slot once it has read it for the last time.
    """

    has_params = False

    def output_shape(self, shape):
        return shape

    def footprint(self, shape, out):
        """Elements of the largest array a call makes per clip: its input or output."""
        return max(math.prod(shape), math.prod(out))


def _add(grads: list, k: int, param, grad):
    """Add ``grad`` into the layer's gradient buffer ``grads[k]``; at the
    layer's first call, ``grad`` in ``param``'s dtype becomes the buffer."""
    if grads[k] is None:
        grads[k] = grad.astype(param.dtype, copy=False)
    else:
        grads[k] += grad


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

    def fft_plan(self, shape):
        """``nn.layers.fft_plan`` of this layer for a ``[channels, length]``
        input: the FFT kernel's ``FftPlan``, or None for the direct kernel."""
        return L.fft_plan(self.feature_maps, self.filter_size, shape)

    def footprint(self, shape, out):
        """As for any layer, or on the FFT kernel its block spectra, ``bins x
        blocks x channels`` per clip, if larger."""
        plan = self.fft_plan(shape)
        spectra = 0 if plan is None else plan.bins * plan.blocks * shape[0]
        return max(super().footprint(shape, out), spectra)

    def forward(self, x, weights, training, rng, pool=None):
        """The kernel ``fft_plan`` picks for ``x``'s shape. On the FFT kernel
        a front layer builds its whole filter spectrum into the third slot
        of ``weights`` at its first call; a tail layer's pass builds it per
        map chunk. Given the ``max_pool`` layer after it, an FFT conv runs
        it too, a map chunk at a time (``nn.layers.fft_conv_forward``),
        returns the pooled maps and keeps their argmax."""
        plan = self.fft_plan(x.shape[-2:])
        if plan is None:
            return L.temporal_conv_forward(x, *weights[:2]), (x, None)
        if len(weights) == 3 and weights[2] is None:
            weights[2] = L.filter_spectrum(weights[0], plan.nfft)
        if pool is None:
            return L.fft_conv_forward(x, *weights[:2], plan.nfft, *weights[2:]), (x, None)
        pooled, argmax = L.fft_conv_forward(x, *weights[:2], plan.nfft, *weights[2:],
                                            pool=(pool.pool_size, pool.pool_stride))
        return pooled, (x, argmax)

    def backward(self, cache, weights, g, needs_input_grad, grads, learning_rate):
        """The kernel ``fft_plan`` picks for ``x``'s shape, as in the forward.
        On the FFT kernel, two passes: ``nn.layers.fft_conv_input_grad``,
        from the kept spectrum, which is then dropped from ``weights``, or
        per map chunk; and only after that ``nn.layers.fft_conv_param_grads``,
        into a weight gradient buffer made then on the layer's first call
        or, given a ``learning_rate``, into the weights as an SGD step.
        Without an input gradient the spectrum is not read, and may already
        be gone. A conv that ran its pool gets the pooled maps' gradient
        ``g``, which both passes scatter through the kept argmax."""
        x, argmax = cache
        w, b = weights[:2]
        plan = self.fft_plan(x.shape[-2:])
        if plan is None:
            grad_x, grads[0], gb = L.temporal_conv_backward(
                x, w, g, needs_input_grad=needs_input_grad, grad_weights=grads[0])
        else:
            grad_x = (L.fft_conv_input_grad(x, w, g, plan.nfft, *weights[2:], argmax=argmax)
                      if needs_input_grad else None)
            weights[2:] = [None] * len(weights[2:])  # a kept spectrum's last read in this call
            if learning_rate is None and grads[0] is None:
                grads[0] = np.zeros_like(w)  # every call's map chunks add into it
            target = w if learning_rate is not None else grads[0]
            _, gb = L.fft_conv_param_grads(x, g, plan.nfft, target, learning_rate, argmax=argmax)
        _add(grads, 1, b, gb)
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
        return L.fully_connected_forward(flat, *weights[:2]), (flat, x.shape)

    def backward(self, cache, weights, g, needs_input_grad, grads, learning_rate):
        flat, in_shape = cache
        g, *param_grads = L.fully_connected_backward(flat, weights[0], g)
        for k, grad in enumerate(param_grads):
            _add(grads, k, weights[k], grad)
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
    """Everything backward() needs: the layers, each layer's weights list as
    the forward left it (with the filter spectrum of a front FFT conv but
    layer 0), the convs that ran their pool, and the per-layer caches of
    the front, group by group, and of the tail (see :func:`forward`); a
    pool its conv ran has a cache of None.

    :func:`backward` consumes it: it sets each slot of ``weights`` and of the
    cache lists to None once the slot's last reader has returned, so that
    the arrays no one else holds are freed as it goes, and marks it
    ``spent``. The weights lists hold the arrays of the ``params`` given to
    :func:`forward`, so a step taken in :func:`backward` is written there."""

    layers: list
    weights: list  # per layer, ``[weight, bias]`` and a front layer's kept form, or empty
    clips: int
    pooling: frozenset  # the FFT convs that run the max pool after them, by index
    split: int  # index of the first tail layer; the layers before it are the front
    groups: list  # the front's clip slices, in order
    front_caches: list  # one list of the front layers' caches per group
    tail_caches: list  # the tail layers' caches, each over the whole batch
    spent: bool = False  # set by backward


def _layer_params(params: ModelParams, layers) -> list:
    """Each layer's ``(weights, bias)`` pair, or ``()`` if it has none."""
    pairs = zip(params.weights, params.biases)
    return [next(pairs) if layer.has_params else () for layer in layers]


def _pooling_convs(layers, shapes) -> frozenset:
    """The indices of the convs that run the ``max_pool`` after them, for
    the per-clip ``shapes`` of the input and of each layer's output: each
    conv on the FFT kernel followed by one."""
    return frozenset(i for i, (layer, after) in enumerate(zip(layers, layers[1:]))
                     if isinstance(layer, conv) and isinstance(after, max_pool)
                     and layer.fft_plan(shapes[i]) is not None)


def _front_tail(layers, shapes, clips: int, pooling):
    """``(split, groups)`` by the rule in :func:`forward`, for the per-clip
    ``shapes`` of the input and of each layer's output and the
    :func:`_pooling_convs`: the first tail layer and the front's clip
    slices, none if the front is empty. A conv's pool takes the conv's
    footprint, so the split never parts the two."""
    footprints = [layer.footprint(a, b) for layer, a, b in zip(layers, shapes, shapes[1:])]
    for i in pooling:
        footprints[i + 1] = footprints[i]
    split = len(layers)
    while split and footprints[split - 1] * clips <= L._CONV_CHUNK_ELEMS:
        split -= 1
    return split, (L._chunks(clips, max(footprints[:split]), L._CONV_CHUNK_ELEMS) if split else [])


def forward(params: ModelParams, layers, batch, mode: str = "train", rng=None):
    """Run the network over a ``[batch, channels, length]`` stack of clips.

    Each layer gets a list of its weights. A front FFT conv builds its
    whole filter spectrum into a third slot of its list at its first call,
    so once per ``forward`` call however many groups it runs in; a tail FFT
    conv holds none, its passes building one map chunk's at a time. A kept
    spectrum goes after its last reader: in eval mode, and for layer 0,
    which computes no input gradient, after the layer's last forward call;
    else in :func:`backward`. An FFT conv followed by a max pool runs the
    pool itself, a map chunk at a time, so neither its whole output nor, in
    :func:`backward`, the pool's input gradient is ever made; the pool
    layer is then not called. The layers run in two parts, sized by each
    layer's per-clip footprint (the largest of its input, its output and,
    on the FFT kernel, its block spectra, read from the call's one
    :func:`infer_shapes` walk; a conv's pool takes the conv's) against
    ``nn.layers._CONV_CHUNK_ELEMS`` elements:

    - the tail, the longest suffix of layers whose footprint for the whole
      batch fits the bound, runs once per layer over the whole batch;
    - the front, the layers before it, runs once per group of clips, in
      clip order: ``nn.layers._chunks`` sizes the groups by the largest
      front footprint, so each group is one clip or fits the bound.

    The Table-1 net at a batch of 2 to 16 runs conv0 and pool0 in the front
    and the rest once over the batch; from 17 clips conv1's block spectra
    no longer fit, and relu0, conv1 and pool1 join the front. conv0's
    footprint, its 10,496,000-element output per clip, is more than half
    the bound, so every Table-1 front group is one clip. The Table-1 net on
    one clip, and the reduced net up to 22,075 clips, is all tail; above
    that the reduced net's conv0 and pool0 run in groups of 22,075 clips.
    Dropout draws over the clips in clip order, so results are
    deterministic for a fixed rng state and do not depend on the split.
    Eval mode keeps no caches, so the bound holds its memory per call.

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
    pooling = _pooling_convs(layers, shapes)
    split, groups = _front_tail(layers, shapes, len(batch), pooling)
    weights = [[*pair, None] if pair and i < split else list(pair)
               for i, pair in enumerate(_layer_params(params, layers))]

    def run(x, first, stop, last):
        caches = []
        for i in range(first, stop):
            if i - 1 in pooling:  # the conv before it ran this pool
                layer_cache = None
            elif i in pooling:
                x, layer_cache = layers[i].forward(x, weights[i], training, rng,
                                                   pool=layers[i + 1])
            else:
                x, layer_cache = layers[i].forward(x, weights[i], training, rng)
            if training:
                caches.append(layer_cache)
            if last and (i == 0 or not training):  # no input gradient will read them
                weights[i][2:] = [None] * len(weights[i][2:])
        return x, caches

    fronts = [run(batch[s], 0, split, s.stop == len(batch)) for s in groups]
    front_caches = [caches for _, caches in fronts]
    x = np.concatenate([out for out, _ in fronts]) if split else batch
    del fronts  # the groups' pieces of ``x``
    preds, tail_caches = run(x, split, len(layers), True)
    if not training:
        return preds, None
    return preds, ForwardCache(layers, weights, len(batch), pooling, split, groups,
                               front_caches, tail_caches)


def backward(cache: ForwardCache, grad_loss, learning_rate=None) -> ModelParams:
    """Backpropagate ``grad_loss`` ([batch, output]) to parameter gradients,
    consuming ``cache``.

    ``grad_loss`` is the gradient of the (batch-mean) loss w.r.t. the
    predictions, so the per-clip contributions are summed: the result is the
    gradient of the same batch-mean loss. The tail layers run backward once
    over the whole batch, then the front layers once per group of clips
    that ``forward`` ran, in clip order for determinism; each layer reuses
    the weights list ``forward`` left and adds its gradients into its own
    buffers, which its first backward call makes. Layer 0 computes no
    gradient for the network input. A pool that its conv ran passes the
    pooled maps' gradient on to the conv, which scatters it.

    Given a ``learning_rate``, every layer takes its SGD step here, into
    the very arrays of ``params``, as soon as its gradients are whole: when
    its last call returns, a tail layer's one call or a front layer's for
    the last group. Every gradient the layer made, weight and bias, summed
    over the groups, is checked for non-finite values, then each is applied
    in place (``nn.layers.sgd_update``), so every slot of the result is
    None. A tail FFT conv applies its weight gradient within the call, a
    map chunk at a time as each chunk is done and found finite, so its
    whole weight gradient never exists; a front FFT conv's groups add their
    chunks into one buffer, since ``w - lr*(a+b)`` is not ``(w - lr*a) -
    lr*b``. A non-finite gradient raises FloatingPointError naming its kind
    and index, as in ``non-finite bias gradient 3``, with the layers nearer
    the output, and a tail FFT conv's chunks before it, already applied.

    A layer's caches and weights leave ``cache`` once their last reader
    returns: a tail layer's after its one call, a front layer's after the
    last group's. That last call gets the cache's own weights list of the
    layer, and a front FFT conv frees its filter spectrum there before it
    makes its weight gradient; earlier groups get a copy of the list. So a
    second backward on the cache raises ValueError.
    """
    if cache.spent:
        raise ValueError("this ForwardCache was consumed by an earlier backward; "
                         "run forward again for a new one")
    grad_loss = np.asarray(grad_loss)
    if grad_loss.shape[0] != cache.clips:
        raise ValueError(f"grad_loss batch {grad_loss.shape[0]} != cached batch {cache.clips}")
    cache.spent = True
    layers, weights = cache.layers, cache.weights
    grads = [[None, None] for _ in layers]

    def run(g, first, caches, last, rate):
        for i in reversed(range(first, first + len(caches))):
            layer_weights = weights[i] if last else list(weights[i])
            index = sum(layer.has_params for layer in layers[:i])
            if i - 1 not in cache.pooling:  # else the conv before it scatters g
                try:
                    g = layers[i].backward(caches[i - first], layer_weights, g, i > 0, grads[i],
                                           rate)
                except FloatingPointError:  # a tail FFT conv's weight chunk, before its update
                    raise FloatingPointError(f"non-finite weight gradient {index}") from None
            if learning_rate is not None and last:  # its gradients are whole: check, then step
                for kind, grad in zip(("weight", "bias"), grads[i]):
                    if grad is not None and not np.isfinite(grad).all():
                        raise FloatingPointError(f"non-finite {kind} gradient {index}")
                for param, grad in zip(layer_weights, grads[i]):
                    if grad is not None:
                        L.sgd_update(param, grad, learning_rate, out=param)
                grads[i] = [None, None]
            caches[i - first] = None
            if last:
                weights[i] = None
        return g

    g = run(grad_loss, cache.split, cache.tail_caches, True, learning_rate)
    for s, caches in zip(cache.groups, cache.front_caches):  # none if layer 0 is in the tail
        run(g[s], 0, caches, s.stop == cache.clips, None)
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
