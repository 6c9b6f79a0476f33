"""Computed FLOPs and bytes for the convolution and fully-connected layers.

These are counts derived from the layer shapes, not hardware counters: one
multiply-add is two FLOPs, bias adds are left out, and bytes are the
compulsory traffic (each operand read once, each result written once) at
the given item size.

The backward count is the useful work: the weight gradient of every layer
(accumulated over the clips of a batch, so one multiply-add per weight and
output position), plus the input gradient of every layer except the first,
whose input is the audio and needs no gradient. An implementation that
computes the first layer's input gradient anyway spends time the count does
not credit, which shows as a lower backward GFLOP/s for ``conv0``.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LayerCost:
    name: str
    fwd_flops: int
    bwd_flops: int
    fwd_bytes: int
    bwd_bytes: int


def conv_cost(name: str, channels: int, length: int, maps: int, filter_size: int,
              needs_input_grad: bool, itemsize: int = 4) -> LayerCost:
    """Valid stride-1 temporal convolution of a ``[channels, length]`` clip."""
    out_len = length - filter_size + 1
    macs = maps * channels * filter_size * out_len
    x, w, y = channels * length, maps * channels * filter_size, maps * out_len
    bwd_macs = macs * (2 if needs_input_grad else 1)
    # reads x and grad_out, writes grad_w; the input gradient also reads w
    # and writes grad_x
    bwd_elems = x + y + w + (w + x if needs_input_grad else 0)
    return LayerCost(name, 2 * macs, 2 * bwd_macs, itemsize * (x + w + y), itemsize * bwd_elems)


def fc_cost(name: str, inputs: int, outputs: int, needs_input_grad: bool,
            itemsize: int = 4) -> LayerCost:
    """Affine map of a flat ``[inputs]`` vector to ``[outputs]``."""
    macs = inputs * outputs
    bwd_macs = macs * (2 if needs_input_grad else 1)
    w = inputs * outputs
    bwd_elems = inputs + outputs + w + (w + inputs if needs_input_grad else 0)
    return LayerCost(name, 2 * macs, 2 * bwd_macs, itemsize * (inputs + w + outputs),
                     itemsize * bwd_elems)


def network_costs(specs, input_length: int, itemsize: int = 4) -> dict:
    """Per-clip cost of each conv and fc layer, keyed ``conv0`` .. ``fc1``.

    Returns an empty dict if the program's layer-spec API is not the one
    this was written against.
    """
    try:
        from instrumentid.nn.model import LayerKind, infer_shapes
        costs = {}
        shape = (1, input_length)
        counts = {"conv": 0, "fc": 0}
        first = True
        for spec, out in zip(specs, infer_shapes(specs, input_length, 1)):
            if spec.kind is LayerKind.TEMPORAL_CONV:
                name = f"conv{counts['conv']}"
                counts["conv"] += 1
                costs[name] = conv_cost(name, shape[0], shape[1], spec.feature_maps,
                                        spec.filter_size, not first, itemsize)
                first = False
            elif spec.kind is LayerKind.FULLY_CONNECTED:
                name = f"fc{counts['fc']}"
                counts["fc"] += 1
                costs[name] = fc_cost(name, math.prod(shape), spec.output_size, not first,
                                      itemsize)
                first = False
            shape = out
        return costs
    except (ImportError, AttributeError, TypeError, ValueError):
        return {}
