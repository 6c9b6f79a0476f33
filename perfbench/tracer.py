"""Spans recorded from outside the program by wrapping module attributes.

A :class:`Tracer` replaces ``module.attr`` with a timing wrapper for as long
as it is installed. It patches the attribute each caller looks the function
up through (``instrumentid.nn.layers.temporal_conv_forward``, which
``nn.model`` reaches as ``L.temporal_conv_forward``; ``forward`` as imported
into ``instrumentid.training``), so no file of the program changes. Spans
stay in memory; :meth:`Tracer.summary` folds them into per-name totals and
self times, and the caller writes them out when the run ends.

:class:`StepClock` is the one hook the untraced run keeps: it stamps the
start of each training forward and the end of the SGD step after it, which
is the only way to time single steps inside ``train_model`` from outside.
"""

import functools
import importlib
import math
import os
import time

from reference import wall_clock

# (module, attribute, span name). Each entry is the name a caller in the
# program resolves at call time; one original function may appear under
# several callers (``parse_wav`` from ``dataset`` and from ``audio``).
TRACE_POINTS = [
    ("instrumentid.audio", "parse_wav", "audio.parse_wav"),
    ("instrumentid.dataset", "parse_wav", "audio.parse_wav"),
    ("instrumentid.dataset", "parse_activation_csv", "labeling.parse_activation_csv"),
    ("instrumentid.dataset", "clip_label", "labeling.clip_label"),
    ("instrumentid.dataset", "stratified_split", "labeling.stratified_split"),
    ("instrumentid.dataset", "build_taxonomy", "labeling.build_taxonomy"),
    ("instrumentid.dataset", "collapse_labels", "labeling.collapse_labels"),
    ("instrumentid.dataset", "write_manifest", "dataset.write_manifest"),
    ("instrumentid.dataset", "read_manifest", "dataset.read_manifest"),
    ("instrumentid.dataset", "prepare_dataset", "dataset.prepare_dataset"),
    ("instrumentid.training", "load_dataset", "training.load_dataset"),
    ("instrumentid.training", "global_contrast_normalize", "training.global_contrast_normalize"),
    ("instrumentid.training", "train_model", "training.train_model"),
    ("instrumentid.training", "evaluate_model", "training.evaluate_model"),
    ("instrumentid.training", "predict_probs", "training.predict_probs"),
    ("instrumentid.training", "init_params", "nn.model.init_params"),
    ("instrumentid.training", "forward", "nn.model.forward"),
    ("instrumentid.training", "backward", "nn.model.backward"),
    ("instrumentid.training", "sgd_step", "nn.model.sgd_step"),
    ("instrumentid.training", "bce_loss", "nn.loss.bce_loss"),
    ("instrumentid.training", "save_checkpoint", "nn.checkpoint.save_checkpoint"),
    ("instrumentid.nn.checkpoint", "load_checkpoint", "nn.checkpoint.load_checkpoint"),
    ("instrumentid.training", "evaluate", "metrics.evaluate"),
    ("instrumentid.metrics", "evaluate", "metrics.evaluate"),
    ("instrumentid.features", "mfcc", "features.mfcc"),
    ("instrumentid.features", "deltas", "features.deltas"),
    ("instrumentid.features", "gaussian_fit", "features.gaussian_fit"),
    ("instrumentid.features", "clip_features", "features.clip_features"),
    ("instrumentid.baselines", "logistic_train", "baselines.logistic_train"),
    ("instrumentid.baselines", "logistic_predict", "baselines.logistic_predict"),
    ("instrumentid.baselines", "forest_train", "baselines.forest_train"),
    ("instrumentid.baselines", "forest_predict", "baselines.forest_predict"),
    ("instrumentid.baselines", "majority_baseline", "baselines.majority_baseline"),
    ("instrumentid.analysis", "analyze_filters", "analysis.analyze_filters"),
]

# nn.layers functions: name -> (layer kind, direction, index of the argument
# whose per-clip shape identifies the layer, or None for single layers).
LAYER_FUNCTIONS = {
    "temporal_conv_forward": ("conv", "fwd", 0),
    "temporal_conv_backward": ("conv", "bwd", 0),
    "maxpool_forward": ("pool", "fwd", 0),
    "maxpool_backward": ("pool", "bwd", 2),
    "relu": ("relu", "fwd", 0),
    "relu_backward": ("relu", "bwd", 0),
    "fully_connected_forward": ("fc", "fwd", 0),
    "fully_connected_backward": ("fc", "bwd", 0),
    "dropout": ("dropout", "fwd", None),
    "dropout_backward": ("dropout", "bwd", None),
    "sigmoid": ("sigmoid", "fwd", None),
    "sigmoid_backward": ("sigmoid", "bwd", None),
}


def _shape_of(value):
    shape = getattr(value, "shape", None)
    return tuple(shape) if shape is not None else tuple(value)


class LayerNamer:
    """Maps a layer call to its Table-1 style name (``conv0``, ``relu3``).

    Layers are told apart by kind and by the per-clip shape of their input,
    matched as a suffix so that a batched ``[batch, ...]`` input maps to the
    same layer. ``input_shapes`` maps kind -> per-clip input shapes in
    network order.
    """

    def __init__(self, input_shapes: dict):
        self._candidates = {}
        for kind, shapes in input_shapes.items():
            named = [(tuple(s), f"{kind}{i}") for i, s in enumerate(shapes)]
            # longest shapes first, so (384, 16) wins over (16,)
            self._candidates[kind] = sorted(named, key=lambda item: -len(item[0]))

    def name(self, kind: str, shape) -> str:
        for cand, name in self._candidates.get(kind, ()):
            if len(shape) >= len(cand) and tuple(shape[len(shape) - len(cand):]) == cand:
                return name
        return f"{kind}?"

    @classmethod
    def from_specs(cls, specs, input_length: int):
        """Build from the program's layer specs; empty if their API changed."""
        try:
            from instrumentid.nn.model import LayerKind, infer_shapes
            kinds = {LayerKind.TEMPORAL_CONV: "conv", LayerKind.MAX_POOL: "pool",
                     LayerKind.RELU: "relu", LayerKind.FULLY_CONNECTED: "fc"}
            shapes = {}
            shape = (1, input_length)
            for spec, out in zip(specs, infer_shapes(specs, input_length, 1)):
                kind = kinds.get(spec.kind)
                if kind == "fc":
                    shapes.setdefault(kind, []).append((math.prod(shape),))
                elif kind is not None:
                    shapes.setdefault(kind, []).append(tuple(shape))
                shape = out
            return cls(shapes)
        except (ImportError, AttributeError, TypeError, ValueError):
            return cls({})


class _Patcher:
    """Replaces module attributes and puts the originals back."""

    def __init__(self):
        self._patches = []

    def _patch(self, module, attr: str, new) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


class Tracer(_Patcher):
    """In-memory span recorder over patched module attributes.

    A span is ``[name, start, end, parent_index, detail]``; ``detail`` is a
    small value computed after the call (a layer name, a byte count, a
    batch size). Spans of nested wrapped calls point at their parent, so a
    span's self time is its duration minus its children's.
    """

    def __init__(self, namer: LayerNamer | None = None):
        super().__init__()
        self.spans = []
        self.missing = []
        self._stack = []
        self._namer = namer or LayerNamer({})

    def _wrap(self, module, attr: str, name: str, detail=None):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[index]
                span[1], span[2] = start, end
            if detail is not None:
                spans[index][4] = detail(args, kwargs, result)
            return result

        self._patch(module, attr, wrapper)

    def install(self) -> "Tracer":
        for module_name, attr, name in TRACE_POINTS:
            module = importlib.import_module(module_name)
            self._wrap(module, attr, name, _DETAILS.get(name))
        layers = importlib.import_module("instrumentid.nn.layers")
        for attr, (kind, direction, arg) in LAYER_FUNCTIONS.items():
            self._wrap(layers, attr, f"nn.layers.{direction}", self._layer_detail(kind, arg))
        return self

    def _layer_detail(self, kind: str, arg):
        namer = self._namer

        def detail(args, kwargs, result):
            if arg is None or len(args) <= arg:
                return kind
            return namer.name(kind, _shape_of(args[arg]))
        return detail

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, wrapped child calls."""
        child_time = [0.0] * len(self.spans)
        child_calls = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                child_calls[parent] += 1
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "child_calls": 0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["child_calls"] += child_calls[i]
        return out

    def layer_seconds(self) -> dict:
        """Seconds in nn.layers calls per ``(layer name, direction)``."""
        out = {}
        for name, start, end, _, detail in self.spans:
            if name.startswith("nn.layers."):
                key = (detail, name.rsplit(".", 1)[1])
                out[key] = out.get(key, 0.0) + end - start
        return out

    def details(self, name: str) -> list:
        return [span[4] for span in self.spans if span[0] == name]


def _nbytes(args, kwargs, result):
    return len(args[0]) if args else 0


def _file_size(args, kwargs, result):
    try:
        return os.path.getsize(args[0])
    except (IndexError, OSError, TypeError):
        return 0


def _forward_mode(args, kwargs) -> str:
    """The ``mode`` argument of ``forward(params, specs, batch, mode, rng)``."""
    return kwargs.get("mode", args[3] if len(args) > 3 else "train")


def _forward_detail(args, kwargs, result):
    return (_forward_mode(args, kwargs), len(args[2]) if len(args) > 2 else 0)


def _backward_detail(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else 0


_DETAILS = {
    "audio.parse_wav": _nbytes,
    "nn.checkpoint.save_checkpoint": _file_size,
    "nn.model.forward": _forward_detail,
    "nn.model.backward": _backward_detail,
}


class StepClock(_Patcher):
    """Times each SGD step inside ``train_model`` from outside.

    A step runs from the training-mode ``forward`` call to the return of the
    ``sgd_step`` after it, so loss and backward fall inside it.
    """

    def __init__(self):
        super().__init__()
        self.steps = []
        self._start = None

    def install(self) -> "StepClock":
        training = importlib.import_module("instrumentid.training")
        forward, sgd_step = training.forward, training.sgd_step

        @functools.wraps(forward)
        def timed_forward(*args, **kwargs):
            if _forward_mode(args, kwargs) == "train":
                self._start = wall_clock()
            return forward(*args, **kwargs)

        @functools.wraps(sgd_step)
        def timed_sgd_step(*args, **kwargs):
            result = sgd_step(*args, **kwargs)
            if self._start is not None:
                self.steps.append(wall_clock() - self._start)
                self._start = None
            return result

        self._patch(training, "forward", timed_forward)
        self._patch(training, "sgd_step", timed_sgd_step)
        return self
