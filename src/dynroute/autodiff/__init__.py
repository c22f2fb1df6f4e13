from .checkpoint import load_checkpoint, load_params, save_checkpoint
from .gradcheck import GradCheckReport, grad_check
from .ops import (
    avg_pool_to,
    bilinear_upsample_2x,
    conv2d_1x1,
    depthwise_separable_conv3x3,
    fully_connected,
    router,
)
from .tensor import (
    Tape,
    Tensor,
    active_tape,
    add,
    as_tensor,
    concat,
    exp,
    gather_rows,
    mul,
    straight_through,
    tsum,
)

__all__ = [
    "GradCheckReport",
    "Tape",
    "Tensor",
    "active_tape",
    "add",
    "as_tensor",
    "avg_pool_to",
    "bilinear_upsample_2x",
    "concat",
    "conv2d_1x1",
    "depthwise_separable_conv3x3",
    "exp",
    "fully_connected",
    "gather_rows",
    "grad_check",
    "load_checkpoint",
    "load_params",
    "mul",
    "router",
    "save_checkpoint",
    "straight_through",
    "tsum",
]
