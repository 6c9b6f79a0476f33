from .layers import (
    temporal_conv_forward, temporal_conv_backward,
    maxpool_forward, maxpool_backward,
    relu, relu_backward,
    fully_connected_forward, fully_connected_backward,
    sigmoid, sigmoid_backward,
    dropout, dropout_backward,
)
from .loss import bce_loss, CLAMP_EPS
from .model import (
    LayerKind, ModelParams, SgdConfig, ForwardCache,
    table1_layers, reduced_layers, infer_shapes, flatten_size, param_shapes, init_params,
    forward, backward, sgd_step,
    FULL_INPUT_LENGTH, REDUCED_INPUT_LENGTH, NUM_CLASSES,
)
from .checkpoint import save_checkpoint, load_checkpoint, CheckpointError
