"""Trellis wiring, routers, gate binarization, and mode consistency."""

from collections import Counter

import numpy as np
import pytest

import dynroute.autodiff as ad
from dynroute.autodiff import Tape, Tensor
import dynroute.supernet as supernet_module
from dynroute.costmodel import binary_route_cost, compile_cost_table, count_executed_madds
from dynroute.errors import ConfigurationError, UsageError
from dynroute.head_loss import DetectionHead, PyramidGeometry
from dynroute.supernet import (
    DIRECTIONS,
    NodeId,
    SupernetSpec,
    binarize_gates,
    build_supernet,
    path_mean,
    reachable_nodes,
    valid_directions,
)

DESK_SPEC = SupernetSpec()

TINY_SPEC = SupernetSpec(
    num_layers=3, num_scales=2, channels_per_scale=(4, 8),
    head_channels=8, in_channels=1,
)


def _images(spec, batch=2, seed=0, size=None):
    size = size or spec.min_divisor
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(0, 1, (batch, spec.in_channels, size, size)))


def _random_binary_gates(net, batch, seed):
    rng = np.random.default_rng(seed)
    return {
        n: (rng.random((batch, 3)) < 0.6).astype(np.float64) * net.node_masks[n]
        for n in net.nodes
    }


class TestTrellisStructure:
    def test_paper_scale_node_count_is_58(self):
        spec = SupernetSpec(num_layers=16, num_scales=4, channels_per_scale=(64, 128, 256, 512))
        assert len(reachable_nodes(spec)) == 58

    def test_desk_scale_node_count(self):
        assert len(reachable_nodes(DESK_SPEC)) == 1 + 2 + 3 + 5 * 4

    def test_single_node_trellis(self):
        spec = SupernetSpec(num_layers=1, num_scales=1, channels_per_scale=(4,), in_channels=1)
        assert len(reachable_nodes(spec)) == 1

    def test_same_seed_identical_parameters(self):
        a = build_supernet(TINY_SPEC, seed=5)
        b = build_supernet(TINY_SPEC, seed=5)
        assert list(a.params) == list(b.params)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)

    def test_different_seed_differs(self):
        a = build_supernet(TINY_SPEC, seed=5)
        b = build_supernet(TINY_SPEC, seed=6)
        assert any(not np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="double"):
            SupernetSpec(num_layers=2, num_scales=2, channels_per_scale=(8, 24)).validate()
        with pytest.raises(ConfigurationError):
            SupernetSpec(num_layers=0).validate()

    def test_boundary_direction_validity(self):
        spec = DESK_SPEC
        assert not valid_directions(spec, NodeId(4, 0))[0]  # no up at top scale
        assert not valid_directions(spec, NodeId(4, 3))[2]  # no down at bottom
        assert valid_directions(spec, NodeId(4, 1)).all()
        last = valid_directions(spec, NodeId(8, 1))
        assert not last[0] and last[1] and not last[2]  # final layer keeps only


class TestRouter:
    def test_zero_weight_router_constant_gates(self):
        net = build_supernet(TINY_SPEC, seed=0)
        node = NodeId(2, 1)
        net.params[f"node.{node.layer}.{node.scale}.router.fc_w"].data[:] = 0.0
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (3, 8, 4, 4)))
        gates = net.router_forward(node, x).data
        expected = np.clip(np.tanh(0.5), 0, 1)
        assert np.allclose(gates[:, 1], expected)
        assert np.all(gates == gates[0])  # identical across samples

    def test_top_scale_g_up_always_zero(self):
        net = build_supernet(DESK_SPEC, seed=1)
        _, record = net.forward(_images(DESK_SPEC, batch=3, seed=2), mode="train")
        for n in net.nodes:
            if n.scale == 0:
                assert np.all(record.gates[n][:, 0] == 0.0)
            if n.scale == DESK_SPEC.num_scales - 1:
                assert np.all(record.gates[n][:, 2] == 0.0)

    def test_closed_gate_still_receives_gradient(self):
        """max(0, tanh) forward, tanh gradient backward: a gate closed by a
        negative logit can be opened again by the losses."""
        net = build_supernet(TINY_SPEC, seed=0)
        node = NodeId(1, 0)
        net.params["node.1.0.router.fc_w"].data[:] = 0.0
        net.params["node.1.0.router.fc_b"].data[:] = -0.5
        with Tape() as tape:
            _, record = net.forward(_images(TINY_SPEC, 2, 0), mode="train")
            tape.backward(ad.tsum(record.gate_tensors[node]))
        assert np.all(record.gates[node] == 0.0)
        assert np.all(record.gate_tensors[node].data == 0.0)
        grad = net.params["node.1.0.router.fc_b"].grad
        np.testing.assert_allclose(grad[1], 2 * (1 - np.tanh(-0.5) ** 2))

    def test_router_ignores_feature_scale(self):
        net = build_supernet(TINY_SPEC, seed=2)
        node = NodeId(2, 1)
        x = np.random.default_rng(3).uniform(0, 1, (2, 8, 4, 4))
        a = net.router_forward(node, Tensor(x)).data
        b = net.router_forward(node, Tensor(7.0 * x)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_gates_in_unit_interval(self):
        net = build_supernet(DESK_SPEC, seed=3)
        _, record = net.forward(_images(DESK_SPEC, batch=2, seed=4), mode="train")
        vec = record.route_vectors()
        assert np.all(vec >= 0.0) and np.all(vec <= 1.0)


class TestBinarization:
    def test_threshold_comparison_from_drop_rule(self):
        g = np.array([0.5, 5e-5, 0.2])
        mask = binarize_gates(g, 1e-4)
        np.testing.assert_array_equal(mask, [True, False, True])

    def test_all_zero_dropped(self):
        assert not binarize_gates(np.zeros(3), 1e-4).any()

    def test_exact_threshold_is_open(self):
        tau = 1e-4
        assert binarize_gates(np.full(3, tau), tau).all()


class TestNodeForward:
    def test_keep_only_gate_keeps_single_direction(self):
        net = build_supernet(TINY_SPEC, seed=0)
        forced = {n: np.array([0.0, 1.0, 0.0]) for n in net.nodes}
        pyramid, record = net.forward(_images(TINY_SPEC, 1, 5), mode="train", forced_gates=forced)
        for n in net.nodes:
            np.testing.assert_array_equal(record.gates[n][0], [0.0, 1.0, 0.0])
        # scale 1 receives nothing (no down gates open), so its projection
        # sees a node fed by zeros only
        assert pyramid[0].data.any()

    def test_infer_all_closed_no_contribution(self):
        net = build_supernet(TINY_SPEC, seed=0)
        forced = {n: np.zeros(3) for n in net.nodes}
        pyramid, record = net.forward(_images(TINY_SPEC, 1, 5), mode="infer", forced_gates=forced)
        for n in net.nodes:
            assert not record.masks[n].any()

    def test_train_output_linear_in_keep_gate(self):
        net = build_supernet(TINY_SPEC, seed=0)
        imgs = _images(TINY_SPEC, 1, 6)

        def run(gval):
            forced = {n: np.array([0.0, gval, 0.0]) for n in net.nodes}
            pyr, _ = net.forward(imgs, mode="train", forced_gates=forced)
            return pyr[0].data

        # final projection input scales linearly in the last keep gate when
        # all other gates are fixed at 1
        base = {n: np.array([0.0, 1.0, 0.0]) for n in net.nodes}
        last = NodeId(TINY_SPEC.num_layers, 0)

        def run_scaled(gval):
            forced = dict(base)
            forced[last] = np.array([0.0, gval, 0.0])
            pyr, _ = net.forward(imgs, mode="train", forced_gates=forced)
            return pyr[0].data

        np.testing.assert_allclose(run_scaled(0.5), 0.5 * run_scaled(1.0), atol=1e-12)


class TestSupernetForward:
    def test_pyramid_spatial_sizes(self):
        net = build_supernet(DESK_SPEC, seed=0)
        pyramid, _ = net.forward(_images(DESK_SPEC, 1, 0), mode="infer")
        sizes = [p.data.shape[2] for p in pyramid]
        assert sizes == [8, 4, 2, 1, 1]
        assert all(p.data.shape[1] == DESK_SPEC.head_channels for p in pyramid)

    def test_bad_spatial_size_rejected_before_compute(self):
        net = build_supernet(DESK_SPEC, seed=0)
        with pytest.raises(UsageError, match="divisible"):
            net.forward(Tensor(np.zeros((1, 1, 60, 60))), mode="infer")
        for shape in ((1, 1, 0, 0), (1, 1, 0, 64)):  # 0 is a multiple of 64, but holds no pixel
            with pytest.raises(UsageError, match="positive"):
                net.forward(Tensor(np.zeros(shape)), mode="train")

    def test_train_infer_consistency_on_binary_gates(self):
        net = build_supernet(DESK_SPEC, seed=2)
        imgs = _images(DESK_SPEC, 2, 7)
        for seed in range(5):
            forced = _random_binary_gates(net, 2, seed)
            pyr_t, _ = net.forward(imgs, mode="train", forced_gates=forced)
            pyr_i, _ = net.forward(imgs, mode="infer", forced_gates=forced)
            for a, b in zip(pyr_t, pyr_i):
                np.testing.assert_allclose(a.data, b.data, atol=1e-9)

    def test_train_infer_consistency_on_continuous_gates(self):
        """Open paths carry their gate value in both modes, and nodes with
        no live input are dropped in both, so train and infer agree on
        non-binary gates too (biases made nonzero so that running a
        dropped node on zeros would show)."""
        net = build_supernet(DESK_SPEC, seed=2)
        for name, p in net.params.items():
            if name.endswith("conv.pw_b"):
                p.data = np.random.default_rng(len(name)).uniform(0.1, 0.5, p.data.shape)
        imgs = _images(DESK_SPEC, 3, 7)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            forced = {
                n: rng.uniform(0.05, 1.0, (3, 3)) * (rng.random((3, 3)) < 0.6) * net.node_masks[n]
                for n in net.nodes
            }
            pyr_t, rec_t = net.forward(imgs, mode="train", forced_gates=forced)
            pyr_i, rec_i = net.forward(imgs, mode="infer", forced_gates=forced)
            for a, b in zip(pyr_t, pyr_i):
                np.testing.assert_allclose(a.data, b.data, atol=1e-12)
            for n in net.nodes:
                np.testing.assert_array_equal(rec_t.masks[n], rec_i.masks[n])

    def test_node_without_live_input_is_dropped(self):
        """Closing every path into (2, 1) drops it even though its own
        gates are open: masks closed, its weights unused."""
        net = build_supernet(TINY_SPEC, seed=4)
        net.params["node.2.1.conv.pw_b"].data[:] = 0.3
        imgs = _images(TINY_SPEC, 1, 9)
        forced = {n: np.ones(3) * net.node_masks[n] for n in net.nodes}
        forced[NodeId(1, 0)] = np.array([0.0, 1.0, 0.0])  # no down into (2, 1)
        pyr_a, rec = net.forward(imgs, mode="infer", forced_gates=forced)
        assert not rec.masks[NodeId(2, 1)].any()
        assert rec.masks[NodeId(2, 0)].any()
        net.params["node.2.1.conv.pw_w"].data[:] = 5.0
        net.params["node.2.1.conv.pw_b"].data[:] = 5.0
        pyr_b, _ = net.forward(imgs, mode="infer", forced_gates=forced)
        for a, b in zip(pyr_a, pyr_b):
            np.testing.assert_array_equal(a.data, b.data)

    def test_all_gates_one_matches_dense_replay(self):
        """Gates forced to 1 turn the trellis into a fixed dense network;
        two passes agree bit-exactly."""
        net = build_supernet(DESK_SPEC, seed=3)
        imgs = _images(DESK_SPEC, 1, 8)
        forced = {n: np.ones(3) for n in net.nodes}
        a, _ = net.forward(imgs, mode="train", forced_gates=forced)
        b, _ = net.forward(imgs, mode="train", forced_gates=forced)
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)

    def test_dropped_node_contributes_zero_downstream(self):
        """Closing every gate of one mid-trellis node equals feeding zero
        features forward from it; downstream sums must not see it."""
        net = build_supernet(TINY_SPEC, seed=4)
        imgs = _images(TINY_SPEC, 1, 9)
        open_all = {n: np.ones(3) * net.node_masks[n] for n in net.nodes}
        pyr_full, _ = net.forward(imgs, mode="infer", forced_gates=open_all)

        drop = dict(open_all)
        drop[NodeId(2, 1)] = np.zeros(3)
        pyr_dropped, rec = net.forward(imgs, mode="infer", forced_gates=drop)
        assert not rec.masks[NodeId(2, 1)].any()
        assert any(
            not np.allclose(a.data, b.data) for a, b in zip(pyr_full, pyr_dropped)
        )

    def test_route_record_covers_every_node_once(self):
        net = build_supernet(DESK_SPEC, seed=0)
        _, record = net.forward(_images(DESK_SPEC, 2, 1), mode="infer")
        assert record.node_ids == net.nodes
        assert set(record.gates) == set(net.nodes)
        vec = record.route_vectors()
        assert vec.shape == (2, 3 * len(net.nodes))

    def test_train_mode_gates_are_differentiable(self):
        net = build_supernet(TINY_SPEC, seed=0)
        with Tape() as tape:
            _, record = net.forward(_images(TINY_SPEC, 1, 2), mode="train")
            total = None
            import dynroute.autodiff as ad

            for n in net.nodes:
                s = ad.tsum(record.gate_tensors[n])
                total = s if total is None else ad.add(total, s)
            tape.backward(total)
        fc_w = net.params["node.1.0.router.fc_w"]
        assert fc_w.grad is not None and np.any(fc_w.grad != 0)


class TestSampleSparseInfer:
    """Infer mode runs each node's conv block and transforms only on the
    samples whose routes open them."""

    BATCH = 16
    ONE_SAMPLE = NodeId(4, 1)  # opened by sample 2 alone
    UP_DOWN = NodeId(5, 1)  # sample 3 opens only up, sample 4 only down
    # NodeId(7, 1) sums a down, a keep and an up path whose row sets
    # differ: sample 2 is in the first two, 3 in the last two, 4 in the
    # first and last
    FEEDS = ((NodeId(6, 0), 2, 3), (NodeId(6, 1), 1, 4), (NodeId(6, 2), 0, 2))

    def _routes(self, net, every_sample_node=None):
        rng = np.random.default_rng(11)
        g = {
            n: rng.uniform(0.1, 1.0, (self.BATCH, 3)) * (rng.random((self.BATCH, 3)) < 0.5)
            * net.node_masks[n]
            for n in net.nodes
        }
        for n in net.nodes:
            g[n][0] = 0.0  # sample 0: every path closed
            g[n][2:5] = 0.7 * net.node_masks[n]  # samples 2-4 keep every node live
        g[self.ONE_SAMPLE][np.arange(self.BATCH) != 2] = 0.0
        g[self.UP_DOWN][3] = [0.6, 0.0, 0.0]
        g[self.UP_DOWN][4] = [0.0, 0.0, 0.6]
        for node, j, closed in self.FEEDS:
            g[node][closed, j] = 0.0
        if every_sample_node is not None:
            g[every_sample_node][:] = 0.5 * net.node_masks[every_sample_node]
            g[every_sample_node][::2, 2] = 0.0  # a sparse transform after a dense block
        return g

    def test_batch_equals_single_sample_calls(self):
        net = build_supernet(DESK_SPEC, seed=5)
        head = DetectionHead(DESK_SPEC.head_channels, num_classes=2, seed=5)
        imgs = _images(DESK_SPEC, self.BATCH, seed=12)
        for every_sample_node in (None, NodeId(1, 0)):
            forced = self._routes(net, every_sample_node)
            pyramid, record = net.forward(imgs, mode="infer", forced_gates=forced)
            geometry = PyramidGeometry.from_pyramid(pyramid, *imgs.data.shape[2:])
            pred = head.forward(pyramid, geometry)
            # every level has zero rows (sample 0's among them), which the
            # head copies from its memo
            zero = [~t.data.any(axis=(1, 2, 3)) for t in pyramid]
            assert all(z[0] and z.sum() >= 2 for z in zero)
            needed = {n: record.masks[n].any(axis=1) for n in net.nodes}
            if every_sample_node is None:
                assert not any(needed[n][0] for n in net.nodes)
            else:
                assert needed[every_sample_node].all()
                assert record.masks[every_sample_node][:, 1].all()
                assert record.masks[every_sample_node][:, 2].sum() == self.BATCH // 2
            assert needed[self.ONE_SAMPLE].sum() == 1
            np.testing.assert_array_equal(record.masks[self.UP_DOWN][3:5], [[1, 0, 0], [0, 0, 1]])
            feeds = [record.masks[node][:, j] for node, j, _closed in self.FEEDS]
            assert [f[2:5].tolist() for f in feeds] == [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
            assert needed[NodeId(7, 1)][2:5].all()
            for b in range(self.BATCH):
                one = {n: g[b : b + 1] for n, g in forced.items()}
                pyr_b, rec_b = net.forward(
                    Tensor(imgs.data[b : b + 1]), mode="infer", forced_gates=one
                )
                for level, single in zip(pyramid, pyr_b):
                    assert np.array_equal(level.data[b : b + 1], single.data)
                pred_b = head.forward(pyr_b, geometry)
                for out, single in zip(
                    pred.cls_logits + pred.distances, pred_b.cls_logits + pred_b.distances
                ):
                    assert np.array_equal(out.data[b : b + 1], single.data)
                for n in net.nodes:
                    assert np.array_equal(record.gates[n][b : b + 1], rec_b.gates[n])
                    assert np.array_equal(record.masks[n][b : b + 1], rec_b.masks[n])

    def test_scattered_rows_keep_the_memory_layout(self):
        """Bilinear upsampling returns a transposed layout. Rows put back
        in another layout would change the order of later reductions (the
        router's pooling sums), so results would differ in the last bits
        from running the transform on the whole batch. path_mean puts a
        path's rows back in its own layout."""
        part = ad.bilinear_upsample_2x(Tensor(np.random.default_rng(0).normal(size=(3, 4, 2, 2))))
        rows = np.array([True, False, True, False, True])
        gates = Tensor(np.full((5, 3), 0.5))
        full = path_mean([(np.flatnonzero(rows), part, gates, 1)], None, None, 5).data
        assert not part.data.flags["C_CONTIGUOUS"]
        assert np.argsort(full.strides).tolist() == np.argsort(part.data.strides).tolist()
        assert np.array_equal(full[rows], part.data * 0.5)
        assert not full[~rows].any()

    def test_train_forward_records_one_entry_per_node_input(self):
        """A train-mode forward records one path_mean per node input that
        some path reaches and one per projection a path reaches, and no
        generic add or mul: a node's gates, sum and mean are one op. Node
        (1, 0) sends down on no sample, so node (2, 1) is dead and node
        (3, 2)'s input has no path at all (train mode still runs closed
        paths out of live nodes)."""
        net = build_supernet(DESK_SPEC, seed=5)
        forced = {NodeId(1, 0): np.array([0.0, 0.8, 0.0])}
        with Tape() as tape:
            _, record = net.forward(_images(DESK_SPEC, 3, seed=4), mode="train", forced_gates=forced)
        ops = Counter(entry.backward.__qualname__.split(".")[0] for entry in tape._entries)
        live = {n: n.layer == 1 for n in net.nodes}
        for n in net.nodes:
            for j, (_, delta) in enumerate(DIRECTIONS):
                target = NodeId(n.layer + 1, n.scale + delta)
                if target in live:
                    live[target] |= bool(record.masks[n][:, j].any())
        fed = set()  # node inputs and projections some path reaches
        for n in net.nodes:
            for j, (_, delta) in enumerate(DIRECTIONS):
                if live[n] and net.node_masks[n][j]:
                    fed.add(NodeId(n.layer + 1, n.scale + delta))
        assert not live[NodeId(2, 1)] and NodeId(3, 2) not in fed
        assert ops["path_mean"] == len(fed)
        assert ops["add"] == ops["mul"] == 0

    def test_convs_run_only_on_samples_that_need_them(self, monkeypatch):
        net = build_supernet(DESK_SPEC, seed=5)
        block = {id(net.params[f"node.{n.layer}.{n.scale}.conv.pw_w"]) for n in net.nodes}
        transform = {
            id(p): j
            for n in net.nodes
            for j, d in ((0, "up"), (2, "down"))
            if (p := net.params.get(f"node.{n.layer}.{n.scale}.{d}_w")) is not None
        }
        stem = id(net.params["stem.0.pw_w"])
        rows = {"stem": 0, "block": 0, 0: 0, 2: 0}
        sepconv, conv1x1 = ad.depthwise_separable_conv3x3, ad.conv2d_1x1

        def counted_sepconv(x, w_dw, w_pw, b_pw=None, stride=1, **kwargs):
            if id(w_pw) in block:
                rows["block"] += x.data.shape[0]
            elif id(w_pw) == stem:
                rows["stem"] += x.data.shape[0]
            return sepconv(x, w_dw, w_pw, b_pw, stride=stride, **kwargs)

        def counted_conv1x1(x, w, stride=1):
            if id(w) in transform:
                rows[transform[id(w)]] += x.data.shape[0]
            return conv1x1(x, w, stride=stride)

        monkeypatch.setattr(ad, "depthwise_separable_conv3x3", counted_sepconv)
        monkeypatch.setattr(ad, "conv2d_1x1", counted_conv1x1)
        _, record = net.forward(
            _images(DESK_SPEC, self.BATCH, seed=12), mode="infer", forced_gates=self._routes(net)
        )
        masks = [record.masks[n] for n in net.nodes]
        assert rows["stem"] == int(record.masks[NodeId(1, 0)].any(axis=1).sum()) < self.BATCH
        assert rows["block"] == sum(int(m.any(axis=1).sum()) for m in masks)
        assert rows["block"] < self.BATCH * len(net.nodes)
        for j in (0, 2):
            assert rows[j] == sum(int(m[:, j].sum()) for m in masks)

        rows.update({"stem": 0, "block": 0, 0: 0, 2: 0})
        closed = {n: np.zeros((4, 3)) for n in net.nodes}
        pyramid, record = net.forward(_images(DESK_SPEC, 4, seed=13), mode="infer", forced_gates=closed)
        assert rows == {"stem": 0, "block": 0, 0: 0, 2: 0}
        assert not any(m.any() for m in record.masks.values())
        assert not any(level.data.any() for level in pyramid)


def _live_rows(net, record, node):
    """Per sample, whether an open path of the previous layer reaches node."""
    if node.layer == 1:
        return np.ones(record.batch_size, dtype=bool)
    live = np.zeros(record.batch_size, dtype=bool)
    for prev in net.nodes:
        for j, (_direction, delta) in enumerate(DIRECTIONS):
            if prev.layer == node.layer - 1 and prev.scale + delta == node.scale:
                live |= record.masks[prev][:, j]
    return live


def _old_gate_chain(net, node, x, live, forced):
    """A node's train-mode gate as the gating built it before it was one
    op: the router's straight-through and boundary-mask mul (or the
    forced array's reshape, ones mul and mask mul), a live-row mul when a
    row is dead, and a straight-through to the open gates; and the
    router's tanh output (None for forced gates)."""
    B = live.shape[0]
    mask = Tensor(net.node_masks[node].astype(np.float64))
    t = None
    if forced is None:
        t = net.router_forward(node, x)
        g = ad.mul(ad.straight_through(t, np.maximum(t.data, 0.0)), mask)
    else:
        g = Tensor(np.asarray(forced, dtype=np.float64))
        if g.data.ndim == 1:
            g = Tensor(g.data.reshape(1, 3))  # untracked, as forced gates are
        if g.data.shape[0] == 1 and B > 1:
            g = ad.mul(g, Tensor(np.ones((B, 1))))
        g = ad.mul(g, mask)
    gates = g.data.copy()
    open_mask = binarize_gates(gates, net.spec.gate_threshold) & live[:, None]
    if not live.all():
        g = ad.mul(g, Tensor(live[:, None].astype(np.float64)))
    return ad.straight_through(g, gates * open_mask), gates, open_mask, t


def test_one_op_gate_equals_the_old_chain_bytewise():
    """Each node's gate op forwards the same open gates, and hands the
    router's tanh output and parameters the same gradients, byte for
    byte, as the old four-op chain fed the same upstream gradient.

    Covered: logits below, at and above 0 (one router's fc_b is
    (-0.5, 0, 0.7) with fc_w 0), dead rows (sample 0's route is closed
    at layer 1, sample 1 keeps one scale), every node of the desk trellis
    (top and bottom scales, last layer), and forced (B, 3) and (3,) gates.
    """
    net = build_supernet(DESK_SPEC, seed=6)
    B = 4
    signed = NodeId(3, 1)
    net.params[f"node.{signed.layer}.{signed.scale}.router.fc_w"].data[:] = 0.0
    net.params[f"node.{signed.layer}.{signed.scale}.router.fc_b"].data[:] = [-0.5, 0.0, 0.7]
    forced = {
        NodeId(1, 0): np.array([[0.0, 0.0, 0.0], [0.0, 0.8, 0.0], [0.0, 0.6, 0.9], [1.0, 1.0, 1.0]]),
        NodeId(2, 1): np.array([0.7, 0.0, 0.5]),
    }

    router_calls = {}
    router = net.router_forward

    def capturing_router(node, x):
        t = router(node, x)
        router_calls[node] = (Tensor(x.data), t)  # x.data keeps its memory layout
        return t

    net.router_forward = capturing_router
    rng = np.random.default_rng(3)
    weights = {n: Tensor(rng.normal(size=(B, 3))) for n in net.nodes}
    with Tape() as tape:
        pyramid, record = net.forward(_images(DESK_SPEC, B, seed=8), mode="train", forced_gates=forced)
        total = ad.tsum(ad.mul(pyramid[0], pyramid[0]))
        for n in net.nodes:
            total = ad.add(total, ad.tsum(ad.mul(record.gate_tensors[n], weights[n])))
        tape.backward(total)
    del net.router_forward

    def router_grads():
        return {
            k: p.grad.tobytes() for k, p in net.params.items() if ".router." in k and p.grad is not None
        }

    new_grads = router_grads()
    for p in net.params.values():
        p.grad = None
    seen = {"dead": False, "negative": False, "zero": False, "positive": False}
    for n in net.nodes:
        live = _live_rows(net, record, n)
        seen["dead"] |= not live.all()
        gate = record.gate_tensors[n]
        x, tanh = router_calls.get(n, (None, None))
        with Tape() as tape:
            old, gates, open_mask, old_tanh = _old_gate_chain(net, n, x, live, forced.get(n))
            assert old.data.tobytes() == gate.data.tobytes()
            assert gates.tobytes() == record.gates[n].tobytes()
            assert np.array_equal(open_mask, record.masks[n])
            if n in forced:
                assert not gate.requires_grad
                continue
            tape.backward(ad.tsum(ad.mul(old, Tensor(gate.grad))))
        assert old_tanh.grad.tobytes() == tanh.grad.tobytes()
        # tanh keeps the sign of its logit, and zero at zero
        for sign, hit in (("negative", tanh.data < 0), ("zero", tanh.data == 0), ("positive", tanh.data > 0)):
            seen[sign] |= bool(hit.any())
    assert all(seen.values()), seen
    assert len(new_grads) == 3 * (len(net.nodes) - len(forced))
    assert router_grads() == new_grads


def _count_layer_steps(monkeypatch):
    """Each call of the layer step's binarize_gates, as whether its
    gates were a (B, k, 3) layer array."""
    steps = []
    binarize = supernet_module.binarize_gates

    def counted(gates, threshold):
        steps.append(gates.ndim == 3)
        return binarize(gates, threshold)

    monkeypatch.setattr(supernet_module, "binarize_gates", counted)
    return steps


class TestForcedGateValidation:
    """A bad forced_gates dict ends in a UsageError naming the node,
    before any conv runs."""

    @staticmethod
    def _count_convs(monkeypatch):
        calls = []
        for op in ("depthwise_separable_conv3x3", "conv2d_1x1"):
            fn = getattr(ad, op)
            monkeypatch.setattr(ad, op, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
        return calls

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize(
        "bad, words",
        [
            (np.ones((3, 3)), "expected shape (3,) or (2, 3), got (3, 3)"),
            (np.ones((1, 3)), "got (1, 3)"),
            (np.array([0.5, np.nan, 0.5]), "finite and in [0, 1]"),
            (np.array([[0.5, 0.5, 0.5], [0.5, np.inf, 0.5]]), "finite and in [0, 1]"),
            (np.array([0.0, 2.0, 0.0]), "finite and in [0, 1]"),
            (np.array([-0.5, 1.0, 0.0]), "finite and in [0, 1]"),
            (np.array(["a", "b", "c"]), "could not convert"),
        ],
    )
    def test_bad_gate_array_names_its_node(self, monkeypatch, mode, bad, words):
        net = build_supernet(DESK_SPEC, seed=0)
        forced = {n: np.ones(3) for n in net.nodes}
        last = net.nodes[-1]  # checked last, so the check comes before the work
        forced[last] = bad
        calls = self._count_convs(monkeypatch)
        with pytest.raises(UsageError) as info:
            net.forward(_images(DESK_SPEC, 2, 1), mode=mode, forced_gates=forced)
        assert str(last) in str(info.value)
        assert words in str(info.value)
        assert calls == []

    def test_unknown_node_is_named(self, monkeypatch):
        net = build_supernet(DESK_SPEC, seed=0)
        calls = self._count_convs(monkeypatch)
        for key in (NodeId(9, 0), NodeId(2, 2), "node.1.0"):
            forced = {n: np.ones(3) for n in net.nodes}
            forced[key] = np.ones(3)
            with pytest.raises(UsageError, match="is not a node of this supernet") as info:
                net.forward(_images(DESK_SPEC, 1, 1), mode="infer", forced_gates=forced)
            assert repr(key) in str(info.value)
        assert calls == []

    def test_valid_arrays_pass(self):
        """(3,) and (B, 3) arrays of bool, int and float gates in [0, 1],
        a -0.0 among them, route alike."""
        net = build_supernet(TINY_SPEC, seed=0)
        imgs = _images(TINY_SPEC, 2, 3)
        ref, _ = net.forward(imgs, mode="infer", forced_gates={n: np.ones((2, 3)) for n in net.nodes})
        for value in (np.ones(3, dtype=bool), np.ones((2, 3), dtype=int), [1.0, 1.0, 1.0]):
            forced = {n: value for n in net.nodes}
            forced[NodeId(3, 0)] = np.array([-0.0, 1.0, 0.0])
            pyramid, record = net.forward(imgs, mode="infer", forced_gates=forced)
            for a, b in zip(pyramid, ref):
                assert a.data.tobytes() == b.data.tobytes()
            assert record.masks[NodeId(3, 0)][:, 1].all()


class TestLayerSteps:
    """Forced-route infer settles each layer's masks in one array step
    and stops at the first layer no sample reaches."""

    @staticmethod
    def _dying_route(net, batch, layer, seed):
        """Random gates, every one closed at layer, a few samples open
        at every node before it (so the route reaches layer)."""
        rng = np.random.default_rng(seed)
        forced = {}
        for n in net.nodes:
            g = rng.uniform(0.0, 1.0, (batch, 3)) * (rng.random((batch, 3)) < 0.6)
            g[: max(1, batch // 4)] = 0.8
            if n.layer == layer:
                g[:] = 0.0
            forced[n] = g
        return forced

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("dies_at", [1, 2, DESK_SPEC.num_layers])
    def test_masks_follow_the_live_rule_and_the_route_dies(self, monkeypatch, batch, dies_at):
        net = build_supernet(DESK_SPEC, seed=2)
        imgs = _images(DESK_SPEC, batch, seed=dies_at)
        table = compile_cost_table(DESK_SPEC, *imgs.data.shape[2:])
        for seed in range(3):
            forced = self._dying_route(net, batch, dies_at, seed)
            ran = set()
            block = {id(net.params[f"node.{n.layer}.{n.scale}.conv.pw_w"]): n for n in net.nodes}
            sepconv = ad.depthwise_separable_conv3x3

            def counted(x, w_dw, w_pw, *args, **kwargs):
                if id(w_pw) in block:
                    ran.add(block[id(w_pw)])
                return sepconv(x, w_dw, w_pw, *args, **kwargs)

            monkeypatch.setattr(ad, "depthwise_separable_conv3x3", counted)
            steps = _count_layer_steps(monkeypatch)
            pyramid, record = net.forward(imgs, mode="infer", forced_gates=forced)
            monkeypatch.undo()
            assert steps == [True] * dies_at  # the pass stops at the next layer
            for n in net.nodes:
                gates = forced[n] * net.node_masks[n]
                assert record.gates[n].tobytes() == np.ascontiguousarray(gates).tobytes()
                live = _live_rows(net, record, n)
                want = binarize_gates(gates, DESK_SPEC.gate_threshold) & live[:, None]
                assert np.array_equal(record.masks[n], want), n
                if n.layer >= dies_at:
                    assert not record.masks[n].any(), n
                    assert n not in ran
            assert ran == {n for n in net.nodes if record.masks[n].any()}
            assert any(record.masks[n].any() for n in net.nodes if n.layer == dies_at - 1) or dies_at == 1
            if dies_at < DESK_SPEC.num_layers:
                assert not any(level.data.any() for level in pyramid[:-1])
            cost = binary_route_cost(record.masks, table)
            for b in range(batch):
                counted_madds, _ = count_executed_madds(
                    net, imgs.data[b], {n: m[b] for n, m in record.masks.items()}
                )
                assert cost[b] == float(counted_madds)

    def test_a_later_router_keeps_the_pass_going(self):
        """The pass stops early only when no node from there on has a
        router: a router node after a dead layer still runs and records
        its own gates, closed."""
        net = build_supernet(DESK_SPEC, seed=0)
        routed = NodeId(5, 1)
        forced = {n: np.zeros(3) for n in net.nodes if n != routed}
        calls = []
        router = net.router_forward
        net.router_forward = lambda node, x: calls.append((node, x.data.any())) or router(node, x)
        _, record = net.forward(_images(DESK_SPEC, 1, 2), mode="infer", forced_gates=forced)
        del net.router_forward
        assert calls == [(routed, False)]
        assert record.gates[routed].any()
        assert not any(m.any() for m in record.masks.values())

    @pytest.mark.parametrize("batch", [1, 16])
    def test_closed_route_runs_no_conv_once_memos_are_warm(self, monkeypatch, batch):
        """Once the extra-level memo holds its zero row, a fully closed
        forced call runs no stem, node, projection or extra-level conv,
        and gives the cold call's bytes."""
        net = build_supernet(DESK_SPEC, seed=4)
        net.params["extra.pw_b"].data[:] = np.linspace(-1e-9, 1e-9, DESK_SPEC.head_channels)
        imgs = _images(DESK_SPEC, batch, seed=3)
        closed = {n: np.zeros((batch, 3)) for n in net.nodes}
        cold, _ = net.forward(imgs, mode="infer", forced_gates=closed)
        names = {id(p): name for name, p in net.params.items()}
        calls = []
        sepconv, conv1x1 = ad.depthwise_separable_conv3x3, ad.conv2d_1x1

        def counted_sepconv(x, w_dw, w_pw, *args, **kwargs):
            calls.append(names[id(w_pw)])
            return sepconv(x, w_dw, w_pw, *args, **kwargs)

        def counted_conv1x1(x, w, *args, **kwargs):
            calls.append(names[id(w)])
            return conv1x1(x, w, *args, **kwargs)

        monkeypatch.setattr(ad, "depthwise_separable_conv3x3", counted_sepconv)
        monkeypatch.setattr(ad, "conv2d_1x1", counted_conv1x1)
        steps = _count_layer_steps(monkeypatch)
        warm, record = net.forward(imgs, mode="infer", forced_gates=closed)
        assert calls == []
        assert steps == [True]  # layer 1's step; no sample reaches layer 2
        monkeypatch.undo()
        assert not any(m.any() for m in record.masks.values())
        for a, b in zip(cold, warm):
            assert a.data.tobytes() == b.data.tobytes()
        # zero levels, then the extra level: the broadcast extra bias
        assert all(not level.data.any() for level in warm[:-1])
        bias = net.params["extra.pw_b"].data[None, :, None, None]
        assert np.array_equal(warm[-1].data, np.broadcast_to(bias, warm[-1].data.shape))

    def test_train_mode_projects_closed_scales(self):
        """Train mode keeps the projection conv of a scale no route
        reaches, so the optimizer still sees a gradient for proj.{s}.w."""
        net = build_supernet(TINY_SPEC, seed=0)
        closed = {n: np.zeros(3) for n in net.nodes}
        with Tape() as tape:
            pyramid, _ = net.forward(_images(TINY_SPEC, 1, 5), mode="train", forced_gates=closed)
            tape.backward(ad.add(ad.tsum(pyramid[0]), ad.tsum(pyramid[-1])))
        for s in range(TINY_SPEC.num_scales):
            grad = net.params[f"proj.{s}.w"].grad
            assert grad is not None and not grad.any()


class TestExtraLevelMemo:
    """Infer-mode extra-level rows over an all-zero last scale come from
    one row computed per state of the extra.* parameters."""

    @staticmethod
    def _net():
        net = build_supernet(DESK_SPEC, seed=7)
        # as after training: a nonzero extra bias
        net.params["extra.pw_b"].data[:] = np.random.default_rng(0).normal(0, 1e-3, DESK_SPEC.head_channels)
        return net

    @staticmethod
    def _routes(net, batch):
        """Dense routes, with the last scale's keep path closed on the
        even samples (on the one sample at batch 1)."""
        top = NodeId(DESK_SPEC.num_layers, DESK_SPEC.num_scales - 1)
        forced = {n: np.ones((batch, 3)) for n in net.nodes}
        forced[top][::2, 1] = 0.0
        return forced

    @staticmethod
    def _count_extra_rows(monkeypatch, net):
        rows = []
        sepconv = ad.depthwise_separable_conv3x3
        extra = id(net.params["extra.pw_w"])

        def counted(x, w_dw, w_pw, *args, **kwargs):
            if id(w_pw) == extra:
                rows.append(x.data.shape[0])
            return sepconv(x, w_dw, w_pw, *args, **kwargs)

        monkeypatch.setattr(ad, "depthwise_separable_conv3x3", counted)
        return rows

    @pytest.mark.parametrize("batch", [1, 16])
    def test_equals_the_conv_on_every_row(self, monkeypatch, batch):
        net = self._net()
        imgs = _images(DESK_SPEC, batch, seed=5)
        forced = self._routes(net, batch)
        rows = self._count_extra_rows(monkeypatch, net)
        for _ in range(2):  # cold, then warm
            pyramid, _ = net.forward(imgs, mode="infer", forced_gates=forced)
        closed = ~pyramid[-2].data.any(axis=(1, 2, 3))
        assert closed.tolist() == [b % 2 == 0 for b in range(batch)]
        # cold: the open rows plus one zero row; warm: the open rows only
        open_rows = batch - int(closed.sum())
        assert rows == [n for n in (open_rows + 1, open_rows) if n]
        monkeypatch.undo()
        full = net._extra_level(pyramid[-2])
        assert pyramid[-1].data.tobytes() == full.data.tobytes()
        bias = net.params["extra.pw_b"].data[None, :, None, None]
        assert np.array_equal(pyramid[-1].data[closed], np.broadcast_to(bias, pyramid[-1].data[closed].shape))

    @pytest.mark.parametrize("name", ["extra.dw_w", "extra.pw_w", "extra.pw_b", "pw_b_sign"])
    def test_parameter_edit_empties_the_memo(self, monkeypatch, name):
        net = self._net()
        imgs = _images(DESK_SPEC, 4, seed=6)
        forced = self._routes(net, 4)
        net.forward(imgs, mode="infer", forced_gates=forced)
        if name == "pw_b_sign":
            bias = net.params["extra.pw_b"].data
            bias[:] = 0.0
            net.forward(imgs, mode="infer", forced_gates=forced)  # refill at +0.0
            bias[0] = -0.0  # equal as a float, not as bytes
        else:
            net.params[name].data[..., 0] += 0.5
        rows = self._count_extra_rows(monkeypatch, net)
        pyramid, _ = net.forward(imgs, mode="infer", forced_gates=forced)
        assert rows == [3]  # the two open rows and one zero row refill it
        monkeypatch.undo()
        fresh = build_supernet(DESK_SPEC, seed=7)
        ad.load_params(fresh.params, {k: v.data.copy() for k, v in net.params.items()})
        ref, _ = fresh.forward(imgs, mode="infer", forced_gates=forced)
        for a, b in zip(pyramid, ref):
            assert a.data.tobytes() == b.data.tobytes()
        assert pyramid[-1].data.tobytes() == net._extra_level(pyramid[-2]).data.tobytes()
