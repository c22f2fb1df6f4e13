"""Per-layer tracing of dynroute, done from outside the program.

The tracer replaces dynroute's public entry points (module functions,
class methods and the autodiff ``record`` hook) with wrappers that open
a span around the original call. Spans nest through a stack; a span's
self time is its duration minus the time of the spans directly inside
it. Aggregates (total, self, calls) are kept in memory per span name and
turned into per-layer metrics when the traced phase ends.

Nothing under ``src/`` is edited; ``Tracer.restore`` puts every patched
attribute back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

import dynroute.autodiff as ad
from dynroute import cli, costmodel, data_synth, head_loss, scale_budget, similarity, trainer
from dynroute.autodiff import ops as ad_ops
from dynroute.autodiff import tensor as ad_tensor
from dynroute.supernet import Supernet, binarize_gates

# every op that hands a backward closure to ``record``; anything else
# (an op added later) is reported under "other"
BACKWARD_OPS = (
    "add", "sub", "mul", "div", "neg", "square", "exp", "sqrt", "tanh",
    "sigmoid", "log_sigmoid", "relu", "clamp", "minimum", "tsum", "sum_axis",
    "mean", "max_over_vector", "reshape", "transpose", "concat", "take",
    "cosine_similarity", "conv2d_1x1", "depthwise_separable_conv3x3",
    "avg_pool_to", "global_avg_pool", "fully_connected", "bilinear_upsample_2x",
)
FWD_OPS = (
    "conv2d_1x1", "depthwise_separable_conv3x3", "bilinear_upsample_2x",
    "avg_pool_to", "fully_connected",
)
NUM_SCALES = 4  # the desk-scale trellis every workload builds

# (name, unit, better); values are per timed operation unless noted
PER_LAYER = (
    [
        ("autodiff.tape_ops", "count", "lower"),
        ("autodiff.backward_ms", "ms", "lower"),
    ]
    + [(f"autodiff.backward_ms.{op}", "ms", "lower") for op in BACKWARD_OPS + ("other",)]
    + [(f"autodiff.fwd_ms.{op}", "ms", "lower") for op in FWD_OPS]
    + [(f"autodiff.calls.{op}", "count", "lower") for op in FWD_OPS]
    + [
        ("autodiff.ckpt_load_ms", "ms", "lower"),
        ("autodiff.ckpt_save_ms", "ms", "lower"),
        ("supernet.forward_self_ms", "ms", "lower"),
        ("supernet.stem_ms", "ms", "lower"),
        ("supernet.router_ms", "ms", "lower"),
        ("supernet.useful_share", "ratio", "higher"),
        ("supernet.ns_per_madd", "ns", "lower"),
    ]
    + [(f"supernet.ns_per_madd.s{s}", "ns", "lower") for s in range(NUM_SCALES)]
    + [
        ("costmodel.network_cost_ms", "ms", "lower"),
        ("costmodel.tape_ops", "count", "lower"),
        ("costmodel.binary_route_cost_ms", "ms", "lower"),
        ("costmodel.cost_ratio", "ratio", "lower"),
        ("scale_budget.budget_loss_ms", "ms", "lower"),
        ("scale_budget.encode_ms", "ms", "lower"),
        ("similarity.loss_ms", "ms", "lower"),
        ("similarity.tape_ops", "count", "lower"),
        ("head_loss.forward_ms", "ms", "lower"),
        ("head_loss.assign_targets_ms", "ms", "lower"),
        ("head_loss.detection_loss_ms", "ms", "lower"),
        ("head_loss.tape_ops", "count", "lower"),
        ("data_synth.generate_ms", "ms", "lower"),
        ("data_synth.load_corpus_ms", "ms", "lower"),
        ("trainer.opt_step_ms", "ms", "lower"),
        ("trainer.step_self_ms", "ms", "lower"),
        ("trainer.evaluate_routing_self_ms", "ms", "lower"),
        ("trainer.group_cosine_ms", "ms", "lower"),
        ("cli.eval_self_ms", "ms", "lower"),
        ("cli.load_model_ms", "ms", "lower"),
        ("trace_overhead_pct", "%", "lower"),
        ("trace_accounted_share", "ratio", "higher"),
    ]
)

# span name -> metric name, reported as inclusive time per operation
_TOTAL_MS = {
    "autodiff.backward": "autodiff.backward_ms",
    "autodiff.ckpt_load": "autodiff.ckpt_load_ms",
    "supernet.stem": "supernet.stem_ms",
    "supernet.router": "supernet.router_ms",
    "costmodel.network_cost": "costmodel.network_cost_ms",
    "costmodel.binary_route_cost": "costmodel.binary_route_cost_ms",
    "scale_budget.budget_loss": "scale_budget.budget_loss_ms",
    "scale_budget.encode": "scale_budget.encode_ms",
    "similarity.loss": "similarity.loss_ms",
    "head_loss.forward": "head_loss.forward_ms",
    "head_loss.assign_targets": "head_loss.assign_targets_ms",
    "head_loss.detection_loss": "head_loss.detection_loss_ms",
    "data_synth.load_corpus": "data_synth.load_corpus_ms",
    "trainer.opt_step": "trainer.opt_step_ms",
    "trainer.group_cosine": "trainer.group_cosine_ms",
    "cli.load_model": "cli.load_model_ms",
}
# span name -> metric name, reported as self time per operation
_SELF_MS = {
    "supernet.forward": "supernet.forward_self_ms",
    "trainer.train": "trainer.step_self_ms",
    "trainer.evaluate_routing": "trainer.evaluate_routing_self_ms",
    "cli.main": "cli.eval_self_ms",
}
# spans whose tape growth is counted, by count name
_TAPE_COUNTED = {
    "costmodel.network_cost": "costmodel.tape_ops",
    "similarity.loss": "similarity.tape_ops",
    "head_loss.forward": "head_loss.tape_ops",
    "head_loss.detection_loss": "head_loss.tape_ops",
}
# once-per-run spans made during set-up, reported in ms per run
_SETUP_MS = {
    "data_synth.generate": "data_synth.generate_ms",
    "autodiff.ckpt_save": "autodiff.ckpt_save_ms",
}


class Tracer:
    """Span aggregates plus the counts the per-layer metrics need."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.routes: list = []  # (cost table, route record) per supernet forward
        self._stack: list[list] = []  # [name, start, time of child spans]
        self._patches: list[tuple[object, str, object]] = []
        self._net = None
        self._node_weights: dict[int, tuple[int, float, bool]] = {}
        self._tables: dict = {}

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> float:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        tape_count = _TAPE_COUNTED.get(name)
        if tape_count is None:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                tape = ad.active_tape()
                before = len(tape) if tape is not None else 0
                try:
                    return self.call(name, fn, *args, **kwargs)
                finally:
                    if tape is not None:
                        self.counts[tape_count] += len(tape) - before
        return wrapper

    def _patch_span(self, name: str, *owners_attr) -> None:
        """Wrap one function under one span name wherever it is bound."""
        for owner, attr in owners_attr:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        """Wrap every traced entry point of dynroute."""
        self._install_autodiff()
        self._install_supernet()
        self._patch_span("costmodel.network_cost",
                         (trainer, "network_cost"), (costmodel, "network_cost"))
        self._patch_span("costmodel.binary_route_cost",
                         (trainer, "binary_route_cost"), (cli, "binary_route_cost"),
                         (costmodel, "binary_route_cost"))
        # trainer imports global_budget_loss from the module at call time
        self._patch_span("scale_budget.budget_loss", (scale_budget, "global_budget_loss"))
        self._patch_span("scale_budget.encode",
                         (trainer, "encode_scales"), (scale_budget, "encode_scales"))
        self._patch_span("similarity.loss",
                         (trainer, "local_similarity_loss"),
                         (similarity, "local_similarity_loss"))
        self._patch_span("head_loss.forward", (head_loss.DetectionHead, "forward"))
        self._patch_span("head_loss.assign_targets",
                         (trainer, "assign_targets"), (head_loss, "assign_targets"))
        self._patch_span("head_loss.detection_loss",
                         (trainer, "detection_loss"), (head_loss, "detection_loss"))
        self._patch_span("data_synth.load_corpus",
                         (cli, "load_corpus"), (data_synth, "load_corpus"))
        self._patch_span("trainer.opt_step", (trainer.SgdMomentum, "step"))
        self._patch_span("trainer.evaluate_routing", (cli, "evaluate_routing"))
        self._patch_span("trainer.group_cosine", (trainer, "group_cosine_stats"))
        # cmd_eval imports load_model from trainer at call time
        self._patch_span("cli.load_model", (trainer, "load_model"))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._net = None
        self._node_weights = {}

    def _install_autodiff(self) -> None:
        orig_record = ad_tensor.record
        active_tape = ad_tensor.active_tape
        known = frozenset(BACKWARD_OPS)
        tracer = self

        def traced_record(inputs, out_data, backward):
            if active_tape() is None:
                return orig_record(inputs, out_data, backward)
            op = sys._getframe(1).f_code.co_name
            name = "autodiff.bwd." + (op if op in known else "other")

            def timed_backward(g):
                return tracer.call(name, backward, g)

            return orig_record(inputs, out_data, timed_backward)

        self._patch(ad_tensor, "record", traced_record)
        self._patch(ad_ops, "record", traced_record)

        orig_backward = ad.Tape.backward

        def traced_backward(tape, loss):
            tracer.counts["autodiff.tape_ops"] += len(tape)
            return tracer.call("autodiff.backward", orig_backward, tape, loss)

        self._patch(ad.Tape, "backward", traced_backward)
        self._patch_span("autodiff.ckpt_load", (trainer, "load_checkpoint"))

        for op in FWD_OPS:
            if op == "conv2d_1x1":
                self._patch(ad, op, self._priced_conv(f"autodiff.fwd.{op}", getattr(ad, op), 1, "w"))
            elif op == "depthwise_separable_conv3x3":
                self._patch(ad, op, self._priced_conv(f"autodiff.fwd.{op}", getattr(ad, op), 2, "w_pw"))
            else:
                self._patch_span(f"autodiff.fwd.{op}", (ad, op))

    def _priced_conv(self, name: str, fn, weight_pos: int, weight_kw: str):
        """Span a conv op and, when its weight belongs to a trellis node,
        charge the call's time and cost-table MAdds to that node's scale."""

        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = self.end()
                w = args[weight_pos] if len(args) > weight_pos else kwargs[weight_kw]
                entry = self._node_weights.get(id(w))
                if entry is not None:
                    scale, madds_per_sample, is_block = entry
                    batch = args[0].data.shape[0]
                    madds = madds_per_sample * batch
                    self.counts["node_conv_s"] += dur
                    self.counts["node_madds"] += madds
                    self.counts[f"node_conv_s.s{scale}"] += dur
                    self.counts[f"node_madds.s{scale}"] += madds
                    if is_block:
                        self.counts["pairs_run"] += batch

        return wrapper

    def _install_supernet(self) -> None:
        orig_forward = Supernet.forward
        tracer = self

        def traced_forward(net, images, *args, **kwargs):
            h, w = ad.as_tensor(images).data.shape[2:]
            table = tracer._use_net(net, h, w)
            pyramid, record = tracer.call("supernet.forward", orig_forward, net, images, *args, **kwargs)
            tracer.routes.append((table, record))
            return pyramid, record

        self._patch(Supernet, "forward", traced_forward)
        self._patch_span("supernet.stem", (Supernet, "stem_forward"))
        self._patch_span("supernet.router", (Supernet, "router_forward"))

    def _use_net(self, net: Supernet, h: int, w: int):
        """Map the weight tensors of net's trellis nodes to their scale and
        per-sample cost-table MAdds, so conv calls can be priced."""
        key = (net.spec, h, w)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = costmodel.compile_cost_table(net.spec, h, w)
        if net is not self._net:
            weights = {}
            for node, cost in table.per_node.items():
                base = f"node.{node.layer}.{node.scale}"
                weights[id(net.params[f"{base}.conv.pw_w"])] = (node.scale, cost.c_conv, True)
                if f"{base}.up_w" in net.params:
                    weights[id(net.params[f"{base}.up_w"])] = (node.scale, cost.c_up, False)
                if f"{base}.down_w" in net.params:
                    weights[id(net.params[f"{base}.down_w"])] = (node.scale, cost.c_down, False)
            self._net, self._node_weights = net, weights
        return table

    # -- metrics ------------------------------------------------------------

    def accounted_share(self, root: str) -> float:
        """Self times of every span over the total time of the root spans.

        Exactly 1 when spans nest properly: each instant of a root span is
        then charged to exactly one span's self time.
        """
        root_total = self.total.get(root, 0.0)
        if root_total <= 0:
            return 0.0
        spent = sum(t for name, t in self.self_time.items() if name not in _SETUP_MS)
        return spent / root_total

    def metrics(self, ops: int, overhead_pct: float, root: str) -> dict[str, float]:
        """Per-layer metrics; times and counts are per traced operation."""
        per_op = 1.0 / max(1, ops)
        out = {name: 0.0 for name, _unit, _better in PER_LAYER}
        for span, metric in _TOTAL_MS.items():
            out[metric] = self.total.get(span, 0.0) * 1e3 * per_op
        for span, metric in _SELF_MS.items():
            out[metric] = self.self_time.get(span, 0.0) * 1e3 * per_op
        for span, metric in _SETUP_MS.items():
            out[metric] = self.total.get(span, 0.0) * 1e3
        for op in BACKWARD_OPS + ("other",):
            out[f"autodiff.backward_ms.{op}"] = self.total.get(f"autodiff.bwd.{op}", 0.0) * 1e3 * per_op
        for op in FWD_OPS:
            out[f"autodiff.fwd_ms.{op}"] = self.total.get(f"autodiff.fwd.{op}", 0.0) * 1e3 * per_op
            out[f"autodiff.calls.{op}"] = self.calls.get(f"autodiff.fwd.{op}", 0) * per_op
        for count in ("autodiff.tape_ops", "costmodel.tape_ops", "similarity.tape_ops", "head_loss.tape_ops"):
            out[count] = self.counts.get(count, 0.0) * per_op
        out["supernet.ns_per_madd"] = _ns_per(self.counts["node_conv_s"], self.counts["node_madds"])
        for s in range(NUM_SCALES):
            out[f"supernet.ns_per_madd.s{s}"] = _ns_per(
                self.counts[f"node_conv_s.s{s}"], self.counts[f"node_madds.s{s}"]
            )
        useful, ratios = self._route_stats()
        pairs_run = self.counts["pairs_run"]
        out["supernet.useful_share"] = useful / pairs_run if pairs_run else 0.0
        out["costmodel.cost_ratio"] = float(np.mean(ratios)) if ratios else 0.0
        out["trace_overhead_pct"] = overhead_pct
        out["trace_accounted_share"] = self.accounted_share(root)
        return out

    def _route_stats(self) -> tuple[int, list[float]]:
        """(sample, node) pairs with an open gate, and per-sample binarized
        cost ratios, over every supernet forward of the traced phase."""
        useful = 0
        ratios: list[float] = []
        for table, record in self.routes:
            masks = record.masks
            if masks is None:  # train mode: binarize the continuous gates
                tau = table.spec.gate_threshold
                masks = {n: binarize_gates(g, tau) for n, g in record.gates.items()}
            useful += int(sum(m.any(axis=1).sum() for m in masks.values()))
            costs = costmodel.binary_route_cost(masks, table)
            ratios.extend((costs / table.total).tolist())
        return useful, ratios


def _ns_per(seconds: float, madds: float) -> float:
    return seconds * 1e9 / madds if madds else 0.0
