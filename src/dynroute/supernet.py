"""Gated multi-scale trellis network with per-node routers.

The network keeps feature maps at up to num_scales resolutions, starting
at 1/8 of the input after a stem of three stride-2 conv blocks. A conv
block is a 3x3 separable conv, its bias and a ReLU, run as one op with
one tape entry (relu=True of depthwise_separable_conv3x3). Each (layer,
scale) node takes the mean of the open paths arriving from the previous
layer (resolution-up from the scale below, keep from the same scale,
resolution-down from the scale above), runs a router that emits a 3-way
gate, and a conv block whose output is sent along the gated directions:

    up:   1x1 conv to the next-higher resolution's channels, then 2x
          bilinear upsampling
    keep: identity
    down: stride-2 1x1 conv to the next-lower resolution's channels

Layer l exposes scales 0..min(l, num_scales)-1, so the trellis expands
by one scale per layer until all scales are live. At the final layer the
keep direction feeds the output projections; up and down have no
receiver there and are masked invalid, exactly like the scale
boundaries. Averaging instead of summing the incoming paths keeps the
feature scale from growing with the number of open paths (up to 3x per
layer when every gate is near 1).

Gating is the same in both modes, so train and infer compute the same
features for any gates, within rounding (acceptance criterion 4: without
a tape the channel contractions run as BLAS matmul, see autodiff/ops.py):

* A path is open for a sample when its gate is at or above the spec
  threshold and its node is live; an open path carries its output scaled
  by the gate value, a closed path carries nothing.
* A node is live for a sample when at least one open path reaches it
  (the stem feeds layer 1). A node with no live input is dropped: its
  gates are closed whatever its router says, it runs no conv block and
  it is not billed.
* Infer mode records the resulting open masks and computes only the
  rows a route reads: a node's conv block runs only on the samples with
  at least one open path out of it, and each up/down transform only on
  the samples whose path in that direction is open. A path's output
  travels with its sample indices and goes back to its rows of the batch
  (zeros elsewhere) only where the whole batch is read: at a router's
  input and at the output projections. A node with forced gates builds
  its input only on the rows its conv block runs on, and the stem runs
  only on the samples node (1, 0) runs on, not at all when none does.
  Every sample's features are bit-identical to running each conv on the
  whole batch; a forced node's input may differ only in the sign of a
  zero, which its conv cannot see. Train mode runs the conv block on the
  whole batch and also runs the transforms of closed paths at live
  nodes, so their gates still receive gradient (a closed path's output
  is zero in the forward pass).
* Each layer settles the gates, open masks and samples per direction of
  all its nodes in one (B, k, 3) array step, before any of its conv
  blocks runs; a router node's gates come from its router, run first.
  In infer mode, once no sample reaches a layer and no node from there
  on has a router, the pass stops: the remaining nodes are recorded
  with their forced gates and closed masks.
* Infer mode also skips work at the outputs. A scale no route reaches
  projects to zeros without its conv (train mode runs it, so the
  optimizer still steps proj.{s}.w), and the extra level's rows whose
  last scale is all zero are copies of one row computed per state of
  the extra.* parameters (ZeroRowMemo, shared with the detection head);
  for a trained model that row is the broadcast extra.pw_b.

The router is one op with one tape entry (ad.router): it pools its
input to 2x2 region means, mixes channels with a 1x1 conv, averages over
space and standardizes the pooled vector of each sample (zero mean, unit
variance over channels) before the 3-way dense layer and tanh, so its
gates do not depend on the overall scale of the features, only on their
channel pattern. Its gate is max(0, tanh(logit)), boundary-masked;
forced gates (numpy arrays) replace it and take no gradient. In train
mode a node's gate and masks are one straight-through op on the tanh:
it forwards the open gates and passes the gradient at the valid
directions of live rows, so a closed gate keeps the tanh gradient and
the budget can open it again when a sample's route costs less than its
target. In both modes a node's input is one op (path_mean) that scales
each incoming path by its gate column (the open gates in train mode),
brings the paths to the node's rows, adds them and divides by n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .autodiff import tensor as ad_tensor
from .errors import ConfigurationError, UsageError


# each gate's direction and the scale offset of the node it feeds, in
# gate column order (up, keep, down)
DIRECTIONS = (("up", -1), ("keep", 0), ("down", 1))


# a path: the sorted sample indices it holds (None: every sample), its
# ungated output there, its source node's (B, 3) gates and their column
Part = tuple[np.ndarray | None, Tensor, Tensor, int]


class NodeId(NamedTuple):
    layer: int  # 1-based
    scale: int  # 0 = highest resolution (1/8)


@dataclass(frozen=True)
class SupernetSpec:
    """The trellis shape; the defaults are the desk run's. The paper-scale
    trellis is SupernetSpec(num_layers=16, channels_per_scale=(64, 128,
    256, 512), head_channels=256), with in_channels=3 for RGB images."""

    num_layers: int = 8
    num_scales: int = 4
    channels_per_scale: tuple[int, ...] = (8, 16, 32, 64)
    gate_threshold: float = 1e-4
    head_channels: int = 32
    in_channels: int = 1  # a PGM image

    def validate(self) -> None:
        if self.num_layers < 1:
            raise ConfigurationError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.num_scales < 1:
            raise ConfigurationError(f"num_scales must be >= 1, got {self.num_scales}")
        if len(self.channels_per_scale) != self.num_scales:
            raise ConfigurationError(
                f"channels_per_scale has {len(self.channels_per_scale)} entries "
                f"for {self.num_scales} scales"
            )
        if min(self.channels_per_scale) < 1:  # 0 -> 0 would pass as doubling
            raise ConfigurationError(f"channels_per_scale entries must be >= 1, got {list(self.channels_per_scale)}")
        for a, b in zip(self.channels_per_scale, self.channels_per_scale[1:]):
            if b != 2 * a:
                raise ConfigurationError(
                    f"channels must double between adjacent scales, got {a} -> {b}"
                )
        if not 0 < self.gate_threshold <= 1:  # above 1 no tanh gate opens
            raise ConfigurationError(f"gate_threshold must be in (0, 1], got {self.gate_threshold}")
        if self.head_channels < 1 or self.in_channels < 1:
            raise ConfigurationError("head_channels and in_channels must be >= 1")

    @property
    def min_divisor(self) -> int:
        """Smallest spatial divisor an input must satisfy (8 * 2^(S-1))."""
        return 8 * (2 ** (self.num_scales - 1))


def reachable_nodes(spec: SupernetSpec) -> list[NodeId]:
    """Nodes in the fixed flattening order: layer-major, then scale."""
    return [
        NodeId(layer, scale)
        for layer in range(1, spec.num_layers + 1)
        for scale in range(min(layer, spec.num_scales))
    ]


def valid_directions(spec: SupernetSpec, node: NodeId) -> np.ndarray:
    """Boolean (up, keep, down) validity mask for one node.

    up/down are invalid at the scale boundaries and at the final layer,
    where no receiving node exists; keep is always valid (at the final
    layer it feeds the output projection).
    """
    last = node.layer == spec.num_layers
    up = node.scale > 0 and not last
    down = node.scale < spec.num_scales - 1 and not last
    return np.array([up, True, down], dtype=bool)


@dataclass
class RouteRecord:
    """Per-sample gates for every reachable node of one forward pass."""

    node_ids: list[NodeId]
    gates: dict[NodeId, np.ndarray]  # (B, 3) router or forced gates, boundary-masked
    masks: dict[NodeId, np.ndarray]  # (B, 3) bool: gate open and node live
    gate_tensors: dict[NodeId, Tensor] | None = None  # train mode: open-path gates

    @property
    def batch_size(self) -> int:
        return self.gates[self.node_ids[0]].shape[0]

    def route_vectors(self) -> np.ndarray:
        """(B, 3n) gates of open paths (0 where closed), in node order."""
        return np.concatenate(
            [self.gates[n] * self.masks[n] for n in self.node_ids], axis=1
        )


def binarize_gates(gates: np.ndarray, threshold: float) -> np.ndarray:
    """Inference-time gate thresholding: open iff gate >= threshold."""
    return np.asarray(gates) >= threshold


def path_mean(parts: list[Part], n_open: np.ndarray | None, rows: np.ndarray | None, batch: int) -> Tensor:
    """A node's input as one op: each incoming path times its gate column,
    brought to the sorted sample indices rows (None: every sample), added
    in contribution order and divided by the open count n_open (B,) where
    it exceeds 1 (None: no division).

    On every sample, a path goes back to its rows of the batch in its own
    memory layout, as its transform on the whole batch would give, so a
    router's reductions add in the same order. On a subset, paths that
    hold exactly those rows add as they are, without index work; else each
    row sums the paths that hold it, in order: equal but for the sign of a
    zero, which no conv output sees (its taps add every product into +0).

    Only a call without rows records (through autodiff.tensor.record,
    looked up at call time). Its backward repeats the float steps of the
    gate, add and mean chain it replaced: a path's gradient is the
    output's times 1/n, in the gated path's layout, times the gate column,
    and the column's gradient sums that times the path over channels,
    then rows, then columns.
    """
    gated = [out.data * g.data[slice(None) if r is None else r, j].reshape(-1, 1, 1, 1) for r, out, g, j in parts]
    placed = list(gated)
    if rows is None:
        for k, (r, *_) in enumerate(parts):
            if r is not None:
                placed[k] = np.zeros_like(gated[k], shape=(batch,) + gated[k].shape[1:])
                placed[k][r] = gated[k]
    elif not all(r is not None and np.array_equal(r, rows) for r, *_ in parts):
        slot = np.full(batch, -1)
        slot[rows] = np.arange(rows.size)
        placed = [np.zeros((rows.size,) + gated[0].shape[1:])]
        for (r, *_), path in zip(parts, gated):
            at = slot if r is None else slot[r]
            held = at >= 0
            placed[0][at[held]] += path[held]
    total = placed[0]
    for path in placed[1:]:
        total = total + path
    n = n_open if rows is None or n_open is None else n_open[rows]
    scale = None if n is None or np.all(n <= 1) else (1.0 / np.maximum(n, 1.0)).reshape(-1, 1, 1, 1)
    if scale is not None:
        total = total * scale
    if rows is not None or ad_tensor.active_tape() is None or any(r is not None for r, *_ in parts):
        return Tensor(total)  # untracked, as inference runs

    def backward(g):
        g = g if scale is None else g * scale
        grads = []
        for (_, out, gates, j), path in zip(parts, gated):
            g_path = ad_tensor._first_grad(g, path)
            col = gates.data[:, j].reshape(-1, 1, 1, 1)
            g_gates = np.zeros(gates.data.shape)
            g_gates[:, j] = ad_tensor._unbroadcast(g_path * out.data, col.shape).reshape(-1)
            grads += [g_path * col, g_gates]
        return grads

    return ad_tensor.record([t for _, out, gates, _ in parts for t in (out, gates)], total, backward)


class ZeroRowMemo:
    """Tapeless outputs of an all-zero input row, computed once per state
    of the parameters they read.

    run(fn, x, tag) returns fn(x), a tuple of (B, ...) Tensors, with the
    outputs of x's all-zero rows copied from an entry keyed by x's
    (C, H, W) and tag: fn runs only on x's nonzero rows, or not at all,
    and a missing entry is filled from one zero row run beside them. fn
    must compute each row on its own and not see the sign of a zero (a
    depthwise conv adds every product into a +0), so a copy is what fn
    would give that row, bit for bit. refresh() empties the memo when a
    parameter's bytes differ from those it was filled with (an optimizer
    step, ad.load_params, an in-place edit, even +0.0 to -0.0). Under a
    recording tape, run calls fn on the whole batch and neither reads
    nor fills the memo.
    """

    def __init__(self, params: list[Tensor]):
        self._params = params
        self._state: tuple[bytes, ...] = ()
        self._rows: dict[tuple, tuple[np.ndarray, ...]] = {}

    def refresh(self) -> None:
        state = tuple(p.data.tobytes() for p in self._params)
        if state != self._state:
            self._rows.clear()
            self._state = state

    def run(self, fn, x: Tensor, tag=None) -> tuple[Tensor, ...]:
        if ad.active_tape() is not None:
            return fn(x)
        zero = ~x.data.any(axis=(1, 2, 3))
        n_zero = np.count_nonzero(zero)
        if n_zero == 0:
            return fn(x)
        key = (x.data.shape[1:], tag)
        memo = self._rows.get(key)
        ran = None
        if memo is None or n_zero < zero.size:
            runs = ~zero
            if memo is None:
                first = int(np.argmax(zero))
                runs[first] = True
            ran = fn(ad.gather_rows(x, np.flatnonzero(runs)))
            if memo is None:
                at = np.count_nonzero(runs[:first])
                memo = self._rows[key] = tuple(t.data[at : at + 1].copy() for t in ran)
        outs = tuple(Tensor(row.repeat(zero.size, axis=0)) for row in memo)
        if ran is not None:
            for out, part in zip(outs, ran):
                out.data[runs] = part.data
        return outs


def kaiming_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Uniform weights in +-sqrt(6 / fan_in), drawn from rng."""
    bound = float(np.sqrt(6.0 / max(1, fan_in)))
    return rng.uniform(-bound, bound, size=shape)


class Supernet:
    """Parameter container plus the forward pass over the trellis."""

    def __init__(self, spec: SupernetSpec, seed: int = 0):
        spec.validate()
        self.spec = spec
        self.nodes = reachable_nodes(spec)
        self.node_masks = {n: valid_directions(spec, n) for n in self.nodes}
        self._index = {n: i for i, n in enumerate(self.nodes)}
        self._valid = np.array([self.node_masks[n] for n in self.nodes])  # (N, 3)
        self.params: dict[str, Tensor] = {}
        self._input_hw: tuple[int, int] = (0, 0)  # set per forward pass
        self._init_params(np.random.default_rng(seed))
        self._extra_zero_rows = ZeroRowMemo([self.params[f"extra.{k}"] for k in ("dw_w", "pw_w", "pw_b")])

    # -- parameters --------------------------------------------------------

    def _add(self, name: str, data: np.ndarray) -> None:
        self.params[name] = Tensor(data, requires_grad=True)

    def _init_params(self, rng: np.random.Generator) -> None:
        spec = self.spec
        c0 = spec.channels_per_scale[0]
        ch_in = spec.in_channels
        for i in range(3):
            cin = ch_in if i == 0 else c0
            self._add(f"stem.{i}.dw_w", kaiming_uniform(rng, (cin, 3, 3), 9))
            self._add(f"stem.{i}.pw_w", kaiming_uniform(rng, (c0, cin), cin))
            self._add(f"stem.{i}.pw_b", np.zeros(c0))
        for n in self.nodes:
            c = spec.channels_per_scale[n.scale]
            base = f"node.{n.layer}.{n.scale}"
            self._add(f"{base}.conv.dw_w", kaiming_uniform(rng, (c, 3, 3), 9))
            self._add(f"{base}.conv.pw_w", kaiming_uniform(rng, (c, c), c))
            self._add(f"{base}.conv.pw_b", np.zeros(c))
            self._add(f"{base}.router.conv_w", kaiming_uniform(rng, (c, c), c))
            self._add(f"{base}.router.fc_w", kaiming_uniform(rng, (c, 3), c))
            # +0.5 pre-activation so training starts with most paths open
            self._add(f"{base}.router.fc_b", np.full(3, 0.5))
            if self.node_masks[n][0]:
                cu = spec.channels_per_scale[n.scale - 1]
                self._add(f"{base}.up_w", kaiming_uniform(rng, (cu, c), c))
            if self.node_masks[n][2]:
                cd = spec.channels_per_scale[n.scale + 1]
                self._add(f"{base}.down_w", kaiming_uniform(rng, (cd, c), c))
        hc = spec.head_channels
        for s in range(spec.num_scales):
            cs = spec.channels_per_scale[s]
            self._add(f"proj.{s}.w", kaiming_uniform(rng, (hc, cs), cs))
        self._add("extra.dw_w", kaiming_uniform(rng, (hc, 3, 3), 9))
        self._add("extra.pw_w", kaiming_uniform(rng, (hc, hc), hc))
        self._add("extra.pw_b", np.zeros(hc))

    # -- building blocks ----------------------------------------------------

    def _sepconv(self, prefix: str, x: Tensor, stride: int = 1) -> Tensor:
        return ad.depthwise_separable_conv3x3(
            x,
            self.params[f"{prefix}.dw_w"],
            self.params[f"{prefix}.pw_w"],
            self.params[f"{prefix}.pw_b"],
            stride=stride,
            relu=True,
        )

    def stem_forward(self, images: Tensor) -> Tensor:
        x = images
        for i in range(3):
            x = self._sepconv(f"stem.{i}", x, stride=2)
        return x

    def router_forward(self, node: NodeId, x: Tensor) -> Tensor:
        """The (B, 3) tanh of the router's logits, one op (ad.router); the
        gates are its positive part, boundary-masked (see forward)."""
        base = f"node.{node.layer}.{node.scale}.router"
        return ad.router(x, *(self.params[f"{base}.{k}"] for k in ("conv_w", "fc_w", "fc_b")))

    # -- forward ------------------------------------------------------------

    def forward(
        self,
        images,
        mode: str = "train",
        forced_gates: dict[NodeId, np.ndarray] | None = None,
    ) -> tuple[list[Tensor], RouteRecord]:
        """Run the trellis; returns pyramid features and the route record.

        The pyramid has num_scales + 1 levels: one projection per scale
        plus one extra level from a stride-2 separable conv on the last.
        forced_gates maps NodeId to a (B, 3) or (3,) array of finite gates
        in [0, 1] that replaces the router's gates (still boundary-masked);
        nodes it leaves out run their routers.
        """
        if mode not in ("train", "infer"):
            raise UsageError(f"mode must be 'train' or 'infer', got {mode!r}")
        images = ad.as_tensor(images)
        if images.data.ndim != 4:
            raise UsageError(f"expected B,C,H,W images, got shape {images.data.shape}")
        B, C, H, W = images.data.shape
        div = self.spec.min_divisor
        if H < 1 or W < 1 or H % div != 0 or W % div != 0:
            raise UsageError(
                f"image spatial size {H}x{W} must be positive and divisible by {div} "
                f"for {self.spec.num_scales} scales"
            )
        if C != self.spec.in_channels:
            raise UsageError(
                f"expected {self.spec.in_channels} input channels, got {C}"
            )
        # every node's boundary-masked gates, in node order: forced ones
        # now, a router node's when its layer is reached
        gates_all, routed = self._forced_gate_array(forced_gates, B)
        # with forced gates in infer mode, the pass ends at the first layer
        # no sample reaches, unless a router runs at it or after it
        last_router = max((i for i, r in enumerate(routed) if r), default=-1)

        spec = self.spec
        tau = spec.gate_threshold
        self._input_hw = (H, W)
        masks_all = np.zeros(gates_all.shape, dtype=bool)
        gate_tensors: dict[NodeId, Tensor] = {}
        # contributions flowing into the current layer, keyed by scale, and
        # per sample and scale how many open paths reach it; the stem feeds
        # layer 1
        incoming: dict[int, list[Part]] = {}
        open_in = np.ones((B, 1))
        last_outputs: dict[int, Part] = {}

        lo = 0  # index of the layer's first node
        for layer in range(1, spec.num_layers + 1):
            k = min(layer, spec.num_scales)
            live = open_in > 0
            if mode == "infer" and lo > last_router and not live.any():
                break  # every node from here on stays closed
            nodes = self.nodes[lo : lo + k]
            next_incoming: dict[int, list[Part]] = {}
            # a router and the train path read the node's input on every
            # sample; a forced gate in infer mode only on the block's rows
            inputs: dict[int, Tensor] = {}
            tanhs: dict[int, Tensor] = {}
            for i, node in enumerate(nodes):
                if mode == "train" or routed[lo + i]:
                    inputs[i] = self._node_input(node, images, incoming.get(i, []), open_in[:, i], None)
                if routed[lo + i]:
                    tanhs[i] = self.router_forward(node, inputs[i])
                    gates_all[:, lo + i] = np.maximum(tanhs[i].data, 0.0) * self.node_masks[node]
            # the layer's (B, k, 3) gates, open masks and samples per direction
            gates = gates_all[:, lo : lo + k]
            open_mask = masks_all[:, lo : lo + k]
            np.logical_and(binarize_gates(gates, tau), live[:, :, None], out=open_mask)
            if mode == "train":
                # open paths carry the gate value; closed paths at live
                # nodes carry nothing forward but still pass gradient back
                needed = self._valid[lo : lo + k] & live[:, :, None]
            else:
                needed = open_mask
            counts = needed.sum(axis=0).tolist()  # samples per node and direction
            for i, node in enumerate(nodes):
                if mode == "train":
                    pre = tanhs[i] if i in tanhs else Tensor(gates[:, i])
                    gate_tensors[node] = ad.straight_through(
                        pre, gates[:, i] * open_mask[:, i], passes=needed[:, i]
                    )
                if not any(counts[i]):
                    continue  # conv block dropped for the whole batch
                # the gates a path carries: in infer mode read only at open rows
                path_gates = gate_tensors[node] if mode == "train" else Tensor(gates[:, i])
                # infer runs the block on the samples with an open path only
                # (None: on every sample, as train mode always does)
                runs = None
                if mode == "infer" and B not in counts[i]:
                    runs = np.flatnonzero(needed[:, i].any(axis=1))
                if i in inputs:
                    x = ad.gather_rows(inputs[i], runs)
                else:
                    x = self._node_input(node, images, incoming.get(i, []), open_in[:, i], runs)
                y = self._sepconv(f"node.{node.layer}.{node.scale}.conv", x)
                for j, (direction, delta) in enumerate(DIRECTIONS):
                    if counts[i][j] == 0:
                        continue
                    # infer sends the path on its open samples only (None: all)
                    rows = None
                    if mode == "infer" and counts[i][j] < B:
                        rows = np.flatnonzero(needed[:, i, j])
                    y_rows = y
                    if rows is not None and rows.size < y.data.shape[0]:
                        y_rows = ad.gather_rows(y, rows if runs is None else np.searchsorted(runs, rows))
                    part = (rows, self._transform(node, direction, y_rows), path_gates, j)
                    if direction == "keep" and layer == spec.num_layers:
                        last_outputs[node.scale] = part
                    else:
                        next_incoming.setdefault(node.scale + delta, []).append(part)
            incoming = next_incoming
            # open paths into the next layer's scales: keep, up from the
            # scale above, down from the scale below
            k_next = min(layer + 1, spec.num_scales)
            open_in = np.zeros((B, k_next))
            open_in[:, :k] += open_mask[:, :, 1]
            open_in[:, : k - 1] += open_mask[:, 1:, 0]
            open_in[:, 1:] += open_mask[:, : k_next - 1, 2]
            lo += k

        pyramid = self._project(last_outputs, B, mode)
        record = RouteRecord(
            node_ids=list(self.nodes),
            gates={n: gates_all[:, i] for i, n in enumerate(self.nodes)},
            masks={n: masks_all[:, i] for i, n in enumerate(self.nodes)},
            gate_tensors=gate_tensors if mode == "train" else None,
        )
        return pyramid, record

    def _node_input(
        self, node: NodeId, images: Tensor, parts: list[Part], n_open: np.ndarray, rows: np.ndarray | None
    ) -> Tensor:
        """Mean of the open incoming paths (zeros when none) at the sorted
        sample indices rows (None: every sample), one op (path_mean);
        layer 1 reads the stem."""
        if node.layer == 1:
            return self.stem_forward(ad.gather_rows(images, rows))
        B = n_open.shape[0]
        if not parts:
            return Tensor(np.zeros(self._node_shape(node, B)))
        return path_mean(parts, n_open, rows, B)

    def _node_shape(self, node: NodeId, batch: int) -> tuple[int, int, int, int]:
        b, size = batch, self._scale_size(node.scale)
        return (b, self.spec.channels_per_scale[node.scale], size[0], size[1])

    def _scale_size(self, scale: int) -> tuple[int, int]:
        h = self._input_hw[0] // (8 * 2**scale)
        w = self._input_hw[1] // (8 * 2**scale)
        return h, w

    def _forced_gate_array(self, forced, batch) -> tuple[np.ndarray, list[bool]]:
        """The (B, N, 3) forced gates in node order, boundary-masked, zeros
        at the other nodes, and per node whether it runs its router.

        Raises UsageError naming the node for a key that is not one of the
        net's nodes and for a gate array that is not (3,) or (B, 3) or
        holds a value that is not finite or not in [0, 1].
        """
        gates = np.zeros((batch, len(self.nodes), 3))
        routed = [True] * len(self.nodes)
        shapes = ((3,), (batch, 3))
        for node, value in (forced or {}).items():
            i = self._index.get(node)
            if i is None:
                raise UsageError(f"forced_gates: {node!r} is not a node of this supernet")
            value = np.asarray(value)
            if value.shape not in shapes:
                raise UsageError(
                    f"forced_gates[{node}]: expected shape (3,) or ({batch}, 3), got {value.shape}"
                )
            try:
                gates[:, i] = value
            except (TypeError, ValueError) as exc:
                raise UsageError(f"forced_gates[{node}]: {exc}") from None
            routed[i] = False
        in_range = (gates >= 0.0) & (gates <= 1.0)  # False at NaN
        if not in_range.all():
            node = self.nodes[np.flatnonzero(~in_range.all(axis=(0, 2)))[0]]
            raise UsageError(f"forced_gates[{node}]: gates must be finite and in [0, 1]")
        gates *= self._valid
        return gates, routed

    def _transform(self, node: NodeId, direction: str, y: Tensor) -> Tensor:
        base = f"node.{node.layer}.{node.scale}"
        if direction == "keep":
            return y
        if direction == "up":
            return ad.bilinear_upsample_2x(ad.conv2d_1x1(y, self.params[f"{base}.up_w"]))
        return ad.conv2d_1x1(y, self.params[f"{base}.down_w"], stride=2)

    def _project(self, last_outputs: dict[int, Part], B: int, mode: str) -> list[Tensor]:
        """The output projections and the extra level. In infer mode a
        scale no route reaches is zeros, without its conv: the conv has
        no bias and its matmul sums start at +0. Train mode runs it, so
        proj.{s}.w still gets a (zero) gradient and momentum."""
        pyramid: list[Tensor] = []
        for s in range(self.spec.num_scales):
            if s in last_outputs:
                feat = path_mean([last_outputs[s]], None, None, B)
            elif mode == "infer":
                pyramid.append(Tensor(np.zeros((B, self.spec.head_channels) + self._scale_size(s))))
                continue
            else:
                feat = Tensor(np.zeros(self._node_shape(NodeId(self.spec.num_layers, s), B)))
            pyramid.append(ad.conv2d_1x1(feat, self.params[f"proj.{s}.w"]))
        if mode == "infer":
            self._extra_zero_rows.refresh()
            extra = self._extra_zero_rows.run(lambda top: (self._extra_level(top),), pyramid[-1])[0]
        else:
            extra = self._extra_level(pyramid[-1])
        pyramid.append(extra)
        return pyramid

    def _extra_level(self, top: Tensor) -> Tensor:
        return ad.depthwise_separable_conv3x3(
            top,
            self.params["extra.dw_w"],
            self.params["extra.pw_w"],
            self.params["extra.pw_b"],
            stride=2,
        )


def build_supernet(spec: SupernetSpec, seed: int = 0) -> Supernet:
    """Construct a supernet with deterministic parameter initialization."""
    return Supernet(spec, seed)
