"""Differentiable multiply-accumulate accounting for routed networks.

Per-node cost combines the conv block with the gated resolution changes:

    cost_i = max(G_i) * c_conv + g_up * c_up + g_keep * c_keep + g_down * c_down

and the network cost is the sum over nodes. Constants count multiplies
only: a separable 3x3 conv is H*W*C_in*(9 + C_out), a 1x1 conv is
H_out*W_out*C_in*C_out, identity and bilinear interpolation are free,
biases are excluded. Router, stem, and head costs stay out of the
network cost; CostConstants.router_madds holds the router total, which
cost-report prints beside its CSV.

The max runs over the node's valid directions only, so when every gate
of a node is closed its gradient goes to a direction that exists. Gates
are the ones Supernet.forward lets through: a closed path or a node with
no live input contributes 0. With billed_conv=True the conv term is
charged as inference bills it, c_conv in full once any gate is open,
while its gradient stays that of max(G_i) * c_conv (straight-through);
the training budget uses this form, because the relaxed max(G_i) term
charges a node whose gates sit just above the threshold a small fraction
of the conv it will run in full.

network_cost is one tape entry that lists each gate tensor twice, last
node first, for its direction gradient and then its conv gradient (at
the first valid maximum): the tape adds them to the gate's gradient one
at a time, as the chain of per-node ops it replaces did, where one
summed array would round differently for a gate with another consumer.

binary_route_cost bills a set of open masks as given; the masks that
Supernet.forward records never leave open a node without live input.
count_executed_madds is an independent oracle: it re-walks the trellis
with plain numpy for a single sample, executing exactly the ops the open
masks admit and counting multiplies from the actual array shapes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .autodiff import tensor as ad_tensor
from .errors import UsageError
from .supernet import NodeId, Supernet, SupernetSpec, reachable_nodes, valid_directions


def sepconv3x3_madds(out_h: int, out_w: int, c_in: int, c_out: int) -> int:
    return out_h * out_w * c_in * (9 + c_out)


def conv1x1_madds(out_h: int, out_w: int, c_in: int, c_out: int) -> int:
    return out_h * out_w * c_in * c_out


def _conv_out(size: int, stride: int) -> int:
    return (size - 1) // stride + 1


@dataclass(frozen=True)
class NodeCost:
    c_conv: float
    c_up: float
    c_keep: float
    c_down: float
    valid: tuple[bool, bool, bool] = (True, True, True)  # up, keep, down

    @property
    def direction_vector(self) -> np.ndarray:
        return np.array([self.c_up, self.c_keep, self.c_down])

    @property
    def all_open(self) -> float:
        return self.c_conv + self.c_up + self.c_keep + self.c_down


@dataclass
class CostConstants:
    spec: SupernetSpec
    input_h: int
    input_w: int
    per_node: dict[NodeId, NodeCost]
    router_madds: float  # informational, never part of the network cost

    @property
    def total(self) -> float:
        """Cost with every gate open (the normalization constant)."""
        return float(sum(nc.all_open for nc in self.per_node.values()))


def compile_cost_table(spec: SupernetSpec, input_h: int, input_w: int) -> CostConstants:
    spec.validate()
    div = spec.min_divisor
    if input_h % div != 0 or input_w % div != 0:
        raise UsageError(
            f"input size {input_h}x{input_w} must be divisible by {div}"
        )
    per_node: dict[NodeId, NodeCost] = {}
    router_total = 0.0
    for node in reachable_nodes(spec):
        s = node.scale
        c = spec.channels_per_scale[s]
        h = input_h // (8 * 2**s)
        w = input_w // (8 * 2**s)
        valid = valid_directions(spec, node)
        c_conv = float(sepconv3x3_madds(h, w, c, c))
        c_up = 0.0
        c_down = 0.0
        if valid[0]:
            c_up = float(conv1x1_madds(h, w, c, spec.channels_per_scale[s - 1]))
        if valid[2]:
            c_down = float(
                conv1x1_madds(_conv_out(h, 2), _conv_out(w, 2), c, spec.channels_per_scale[s + 1])
            )
        per_node[node] = NodeCost(
            c_conv=c_conv, c_up=c_up, c_keep=0.0, c_down=c_down,
            valid=tuple(bool(v) for v in valid),
        )
        # router: 1x1 conv on the 2x2 pooled map plus the 3-way dense layer
        router_total += conv1x1_madds(2, 2, c, c) + c * 3
    return CostConstants(
        spec=spec, input_h=input_h, input_w=input_w, per_node=per_node,
        router_madds=float(router_total),
    )


def network_cost(
    gate_map: dict[NodeId, Tensor | np.ndarray], table: CostConstants, billed_conv: bool = False
) -> Tensor:
    """Sum of node costs over every reachable node, in the map's key
    order; differentiable in gates. gate_map maps each NodeId to its
    (B, 3) or (3,) gates, e.g. a train-mode RouteRecord.gate_tensors.
    Records through autodiff.tensor.record, looked up at call time, so
    tools that wrap that hook see the op.
    """
    expected = set(table.per_node.keys())
    if set(gate_map) != expected:
        raise UsageError(
            f"route covers {len(gate_map)} nodes but the cost table has "
            f"{len(expected)}; spec mismatch"
        )
    nodes = []  # (gates, node constants, valid columns), last node first
    total = None
    for node, gates in gate_map.items():
        g, nc = ad.as_tensor(gates), table.per_node[node]
        cols = np.flatnonzero(nc.valid)
        valid = g.data[..., cols]
        largest = np.max(valid, axis=-1)
        if billed_conv:
            largest = (largest > 0).astype(np.float64)
        c = largest * nc.c_conv + np.sum(g.data * nc.direction_vector, axis=-1)
        total = c if total is None else total + c
        nodes.insert(0, (g, nc, cols))

    def backward(grad):
        h = np.expand_dims(grad, -1)
        grads = []
        for g, nc, cols in nodes:
            first_max = np.expand_dims(cols[np.argmax(g.data[..., cols], axis=-1)], -1)
            direction = np.broadcast_to(h, g.data.shape) * nc.direction_vector
            grads += [direction, np.where(first_max == np.arange(3), h * nc.c_conv, 0.0)]
        return grads

    inputs = [g for g, _, _ in nodes for _ in range(2)]
    return ad_tensor.record(inputs, total, backward)


def binary_route_cost(masks: dict[NodeId, np.ndarray], table: CostConstants) -> np.ndarray:
    """Per-sample cost of binarized routes, as plain float64 (B,)."""
    return network_cost(masks, table).data.copy()


# ---------------------------------------------------------------------------
# instrumented oracle
# ---------------------------------------------------------------------------


class _Counter:
    def __init__(self):
        self.total = 0

    def sepconv_relu(
        self, x: np.ndarray, w_dw: np.ndarray, w_pw: np.ndarray, b_pw: np.ndarray, stride: int
    ) -> np.ndarray:
        c_in, h, wdt = x.shape
        oh = (h + 2 - 3) // stride + 1
        ow = (wdt + 2 - 3) // stride + 1
        xp = np.zeros((c_in, h + 2, wdt + 2))
        xp[:, 1 : 1 + h, 1 : 1 + wdt] = x
        t = np.zeros((c_in, oh, ow))
        for u in range(3):
            for v in range(3):
                t += w_dw[:, u, v][:, None, None] * xp[:, u : u + stride * oh : stride, v : v + stride * ow : stride]
        out = np.einsum("oc,chw->ohw", w_pw, t)
        self.total += t.size * 9  # depthwise: 9 multiplies per produced element
        self.total += out.size * c_in  # pointwise: one dot of length C_in each
        return np.maximum(out + b_pw[:, None, None], 0.0)  # bias and ReLU are not counted

    def conv1x1(self, x: np.ndarray, w: np.ndarray, stride: int = 1) -> np.ndarray:
        xs = x[:, ::stride, ::stride]
        out = np.einsum("oc,chw->ohw", w, xs)
        self.total += out.size * x.shape[0]
        return out


def _upsample2x_plain(x: np.ndarray) -> np.ndarray:
    """2x bilinear upsampling of (C, H, W), align corners false, derived
    here and not from the executor's coefficients: output i of an axis
    of n samples reads source position (i + 0.5) / 2 - 0.5, clamped to
    [0, n - 1], between the samples at its floor and its ceiling."""
    for axis in (1, 2):
        n = x.shape[axis]
        pos = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
        below = np.floor(pos).astype(np.intp)
        above = np.minimum(below + 1, n - 1)
        frac = (pos - below).reshape((-1, 1) if axis == 1 else (-1,))
        x = np.take(x, below, axis=axis) * (1.0 - frac) + np.take(x, above, axis=axis) * frac
    return x


def count_executed_madds(
    net: Supernet,
    image: np.ndarray,
    open_masks: dict[NodeId, np.ndarray],
) -> tuple[int, dict[int, np.ndarray]]:
    """Execute one sample's routed trellis and count multiplies.

    image is (C, H, W); open_masks maps NodeId to a (3,) bool vector.
    Walks the trellis independently of Supernet.forward: direction
    validity is re-derived from receiver existence, the drop rule from
    the open masks, and a node's input is the mean of the paths that
    reached it. Returns (multiply count, dict of final scale features)
    so callers can also cross-check features if they wish; open paths
    carry unscaled features, so those equal Supernet.forward's for gates
    of exactly 0 or 1.
    """
    spec = net.spec
    counter = _Counter()
    p = {k: v.data for k, v in net.params.items()}

    x = image.astype(np.float64)
    stem = _Counter()  # the stem's count is dropped (outside the routable region)
    for i in range(3):
        x = stem.sepconv_relu(x, p[f"stem.{i}.dw_w"], p[f"stem.{i}.pw_w"], p[f"stem.{i}.pw_b"], 2)

    incoming: dict[int, list[np.ndarray]] = {0: [x]}
    final: dict[int, np.ndarray] = {}
    for layer in range(1, spec.num_layers + 1):
        nxt: dict[int, list[np.ndarray]] = {}
        for scale in range(min(layer, spec.num_scales)):
            node = NodeId(layer, scale)
            h = image.shape[1] // (8 * 2**scale)
            w = image.shape[2] // (8 * 2**scale)
            arrived = incoming.get(scale)
            if arrived:
                feat = sum(arrived[1:], arrived[0]) / len(arrived)
            else:
                feat = np.zeros((spec.channels_per_scale[scale], h, w))
            mask = np.asarray(open_masks[node], dtype=bool)
            if not mask.any():
                continue  # block dropped: contributes nothing downstream
            base = f"node.{layer}.{scale}"
            y = counter.sepconv_relu(
                feat, p[f"{base}.conv.dw_w"], p[f"{base}.conv.pw_w"], p[f"{base}.conv.pw_b"], 1
            )
            if mask[0] and scale - 1 >= 0 and layer < spec.num_layers:
                up = _upsample2x_plain(counter.conv1x1(y, p[f"{base}.up_w"]))
                _accumulate(nxt, scale - 1, up)
            if mask[1]:
                if layer == spec.num_layers:
                    final[scale] = y
                else:
                    _accumulate(nxt, scale, y)
            if mask[2] and scale + 1 < spec.num_scales and layer < spec.num_layers:
                down = counter.conv1x1(y, p[f"{base}.down_w"], stride=2)
                _accumulate(nxt, scale + 1, down)
        incoming = nxt
    return counter.total, final


def _accumulate(store: dict[int, list[np.ndarray]], key: int, value: np.ndarray) -> None:
    store.setdefault(key, []).append(value)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


@dataclass
class CostReport:
    sample_costs: list[float]
    total_cost: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.sample_costs)) if self.sample_costs else 0.0

    @property
    def max(self) -> float:
        return float(np.max(self.sample_costs)) if self.sample_costs else 0.0

    @property
    def min(self) -> float:
        return float(np.min(self.sample_costs)) if self.sample_costs else 0.0

    @property
    def std(self) -> float:
        return float(np.std(self.sample_costs)) if self.sample_costs else 0.0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("sample_id,C_net,C_tot,ratio\n")
        for i, c in enumerate(self.sample_costs):
            buf.write(f"{i},{c!r},{self.total_cost!r},{c / self.total_cost!r}\n")
        buf.write("aggregate,mean,max,min,std\n")
        buf.write(f",{self.mean!r},{self.max!r},{self.min!r},{self.std!r}\n")
        return buf.getvalue()
