"""Cost table values, network cost algebra, and oracle equivalence."""

import numpy as np
import pytest

import dynroute.autodiff as ad
from dynroute.autodiff import Tape, Tensor
from dynroute.costmodel import (
    CostConstants,
    NodeCost,
    binary_route_cost,
    compile_cost_table,
    conv1x1_madds,
    count_executed_madds,
    network_cost,
    sepconv3x3_madds,
)
from dynroute.errors import UsageError
from dynroute.supernet import NodeId, SupernetSpec, build_supernet

SMALL_SPEC = SupernetSpec(
    num_layers=4, num_scales=3, channels_per_scale=(4, 8, 16),
    head_channels=8, in_channels=1,
)


def _one_node_cost(gates, nc: NodeCost, billed_conv: bool = False):
    """network_cost of gates over a table holding the one node nc."""
    node = NodeId(1, 0)
    table = CostConstants(SMALL_SPEC, 32, 32, {node: nc}, router_madds=0.0)
    return network_cost({node: gates}, table, billed_conv=billed_conv)


def _random_binary_route(net, seed, open_prob=0.6):
    rng = np.random.default_rng(seed)
    return {
        n: ((rng.random(3) < open_prob) & net.node_masks[n]) for n in net.nodes
    }


class TestCostTable:
    def test_conv1x1_example_value(self):
        assert conv1x1_madds(8, 8, 64, 128) == 524288

    def test_keep_is_free(self):
        table = compile_cost_table(SMALL_SPEC, 32, 32)
        assert all(nc.c_keep == 0.0 for nc in table.per_node.values())

    def test_sepconv_formula(self):
        assert sepconv3x3_madds(8, 8, 16, 16) == 8 * 8 * 16 * (9 + 16)

    def test_invalid_directions_cost_zero(self):
        table = compile_cost_table(SMALL_SPEC, 32, 32)
        for node, nc in table.per_node.items():
            if node.scale == 0:
                assert nc.c_up == 0.0
            if node.layer == SMALL_SPEC.num_layers:
                assert nc.c_up == 0.0 and nc.c_down == 0.0

    def test_constants_match_single_op_oracle(self):
        """Each constant equals the instrumented count of that op alone."""
        net = build_supernet(SMALL_SPEC, seed=0)
        table = compile_cost_table(SMALL_SPEC, 32, 32)
        img = np.random.default_rng(1).uniform(0, 1, (1, 32, 32))
        for node in net.nodes:
            nc = table.per_node[node]
            closed = {n: np.zeros(3, dtype=bool) for n in net.nodes}
            # keep-only opens the conv block and the free keep transform
            keep_only = dict(closed)
            keep_only[node] = np.array([False, True, False])
            count, _ = count_executed_madds(net, img, keep_only)
            assert count == int(nc.c_conv)
            if net.node_masks[node][2]:
                down_only = dict(closed)
                down_only[node] = np.array([False, False, True])
                count, _ = count_executed_madds(net, img, down_only)
                assert count == int(nc.c_conv + nc.c_down)
            if net.node_masks[node][0]:
                up_only = dict(closed)
                up_only[node] = np.array([True, False, False])
                count, _ = count_executed_madds(net, img, up_only)
                assert count == int(nc.c_conv + nc.c_up)


class TestNodeCost:
    NC = NodeCost(c_conv=100.0, c_up=10.0, c_keep=0.0, c_down=20.0)

    def test_all_closed_is_zero(self):
        assert float(_one_node_cost(np.zeros(3), self.NC).data) == 0.0

    def test_direct_formula(self):
        got = float(_one_node_cost(np.array([0.5, 0.0, 1.0]), self.NC).data)
        assert got == 1.0 * 100.0 + 0.5 * 10.0 + 1.0 * 20.0

    def test_binary_gates_match_components(self):
        got = float(_one_node_cost(np.array([1.0, 1.0, 0.0]), self.NC).data)
        assert got == 100.0 + 10.0 + 0.0

    def test_batched(self):
        g = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        got = _one_node_cost(g, self.NC).data
        np.testing.assert_array_equal(got, [0.0, 130.0])

    def test_gradient_structure(self):
        """dC/dg_d = c_d, plus c_conv on the unique max direction."""
        g = Tensor(np.array([[0.3, 0.7, 0.5]]), requires_grad=True)
        with Tape() as tape:
            c = _one_node_cost(g, self.NC)
            tape.backward(ad.tsum(c))
        np.testing.assert_allclose(g.grad, [[10.0, 100.0, 20.0]])

    def test_tie_goes_to_first_valid_maximum(self):
        """The conv gradient lands on the first of tied valid maxima; a
        larger gate on an invalid direction takes no part."""
        nc = NodeCost(c_conv=100.0, c_up=0.0, c_keep=0.0, c_down=20.0, valid=(False, True, True))
        g = Tensor(np.array([[0.2, 0.5, 0.5], [0.9, 0.3, 0.3], [0.0, 0.1, 0.4]]), requires_grad=True)
        with Tape() as tape:
            c = _one_node_cost(g, nc)
            tape.backward(ad.tsum(c))
        np.testing.assert_array_equal(c.data, [50.0 + 10.0, 30.0 + 6.0, 40.0 + 8.0])
        np.testing.assert_array_equal(g.grad, [[0.0, 100.0, 20.0], [0.0, 100.0, 20.0], [0.0, 0.0, 120.0]])

    def test_gate_gradient_adds_direction_then_conv_term(self):
        """A gate with a later consumer already holds that consumer's
        gradient when the cost's arrives; the direction term A and then
        the conv term B are added to it one at a time, (prev + A) + B, as
        a chain of per-node ops would. A single summed input would give
        prev + (A + B), which rounds differently here."""
        prev, a, b = 0.1, 0.2, 0.3
        assert (prev + a) + b != prev + (a + b)
        nc = NodeCost(c_conv=b, c_up=0.0, c_keep=0.0, c_down=a)
        g = Tensor(np.array([[0.1, 0.2, 0.9]]), requires_grad=True)
        with Tape() as tape:
            cost = ad.tsum(_one_node_cost(g, nc))
            later = ad.tsum(ad.mul(g, Tensor(np.array([[0.0, 0.0, prev]]))))
            tape.backward(ad.add(cost, later))
        assert g.grad[0, 2].tobytes() == np.float64((prev + a) + b).tobytes()


class TestNetworkCost:
    def test_all_zero_and_all_one(self):
        net = build_supernet(SMALL_SPEC, seed=0)
        table = compile_cost_table(SMALL_SPEC, 32, 32)
        zeros = {n: Tensor(np.zeros((1, 3))) for n in net.nodes}
        assert float(network_cost(zeros, table).data[0]) == 0.0
        ones = {
            n: Tensor(np.ones((1, 3)) * net.node_masks[n]) for n in net.nodes
        }
        assert float(network_cost(ones, table).data[0]) == table.total

    def test_route_spec_mismatch_rejected(self):
        table = compile_cost_table(SMALL_SPEC, 32, 32)
        with pytest.raises(UsageError, match="mismatch"):
            network_cost({NodeId(1, 0): Tensor(np.zeros(3))}, table)

    def test_monotone_in_gate_opening(self):
        net = build_supernet(SMALL_SPEC, seed=0)
        table = compile_cost_table(SMALL_SPEC, 32, 32)
        rng = np.random.default_rng(3)
        for trial in range(20):
            masks = _random_binary_route(net, 100 + trial)
            base = binary_route_cost({n: m[None].astype(float) for n, m in masks.items()}, table)[0]
            closed = [
                (n, j)
                for n in net.nodes
                for j in range(3)
                if net.node_masks[n][j] and not masks[n][j]
            ]
            if not closed:
                continue
            n, j = closed[rng.integers(len(closed))]
            opened = {k: v.copy() for k, v in masks.items()}
            opened[n][j] = True
            more = binary_route_cost({k: v[None].astype(float) for k, v in opened.items()}, table)[0]
            assert more >= base

    def test_oracle_equivalence_random_binary_routes(self):
        """Eq-style gate algebra equals the instrumented execution count,
        exactly, for random binary routes on a 4-layer/3-scale spec."""
        net = build_supernet(SMALL_SPEC, seed=0)
        table = compile_cost_table(SMALL_SPEC, 32, 32)
        img = np.random.default_rng(9).uniform(0, 1, (1, 32, 32))
        for seed in range(25):
            masks = _random_binary_route(net, seed)
            algebra = binary_route_cost(
                {n: m[None].astype(np.float64) for n, m in masks.items()}, table
            )[0]
            counted, _ = count_executed_madds(net, img, masks)
            assert int(algebra) == counted
            assert algebra == float(counted)

    def test_oracle_features_match_infer_forward(self):
        """The independent executor reproduces infer-mode features too."""
        net = build_supernet(SMALL_SPEC, seed=4)
        img = np.random.default_rng(10).uniform(0, 1, (1, 32, 32))
        masks = _random_binary_route(net, 42)
        _, final = count_executed_madds(net, img, masks)
        forced = {n: m.astype(np.float64)[None] for n, m in masks.items()}
        pyramid, _ = net.forward(
            Tensor(img[None]), mode="infer", forced_gates=forced
        )
        # compare pre-projection features via the projection outputs: apply
        # the projection weights to the oracle features directly
        for s, feat in final.items():
            w = net.params[f"proj.{s}.w"].data
            want = np.einsum("oc,chw->ohw", w, feat)
            np.testing.assert_allclose(pyramid[s].data[0], want, atol=1e-10)

    def test_cnet_gradient_matches_finite_differences(self):
        net = build_supernet(SMALL_SPEC, seed=0)
        table = compile_cost_table(SMALL_SPEC, 32, 32)
        rng = np.random.default_rng(17)
        gates = {
            n: rng.uniform(0.05, 0.95, (1, 3)) * net.node_masks[n] for n in net.nodes
        }
        tensors = {n: Tensor(g, requires_grad=True) for n, g in gates.items()}
        with Tape() as tape:
            c = network_cost(tensors, table)
            tape.backward(ad.tsum(c))
        eps = 1e-5
        for n in list(net.nodes)[:4]:
            for j in range(3):
                if not net.node_masks[n][j]:
                    continue
                plus = {k: v.data.copy() for k, v in tensors.items()}
                plus[n][0, j] += eps
                minus = {k: v.data.copy() for k, v in tensors.items()}
                minus[n][0, j] -= eps
                f_p = float(network_cost({k: Tensor(v) for k, v in plus.items()}, table).data[0])
                f_m = float(network_cost({k: Tensor(v) for k, v in minus.items()}, table).data[0])
                numeric = (f_p - f_m) / (2 * eps)
                analytic = tensors[n].grad[0, j]
                assert abs(analytic - numeric) / max(1.0, abs(numeric)) < 1e-6


class TestBillingAgreement:
    def test_forward_masks_billing_and_oracle_agree(self):
        """Routes recorded by Supernet.forward never leave a node without
        live input open; pricing them by algebra and by execution agrees
        exactly, and the executed features match (nonzero biases, so a
        node run on zeros would show)."""
        net = build_supernet(SMALL_SPEC, seed=4)
        for name, p in net.params.items():
            if name.endswith("conv.pw_b"):
                p.data = np.full(p.data.shape, 0.2)
        table = compile_cost_table(SMALL_SPEC, 32, 32)
        img = np.random.default_rng(10).uniform(0, 1, (1, 32, 32))
        for seed in range(10):
            forced = {n: m.astype(np.float64)[None] for n, m in _random_binary_route(net, seed, 0.5).items()}
            pyramid, record = net.forward(Tensor(img[None]), mode="infer", forced_gates=forced)
            masks = {n: m[0] for n, m in record.masks.items()}
            reached = {NodeId(1, 0)}
            for n in net.nodes:
                if masks[n].any():
                    assert n in reached
                    for j, step in enumerate((-1, 0, 1)):
                        if masks[n][j]:
                            reached.add(NodeId(n.layer + 1, n.scale + step))
            algebra = binary_route_cost(record.masks, table)[0]
            counted, final = count_executed_madds(net, img, masks)
            assert algebra == float(counted)
            for s in range(SMALL_SPEC.num_scales):
                w = net.params[f"proj.{s}.w"].data
                want = np.einsum("oc,chw->ohw", w, final[s]) if s in final else 0.0
                np.testing.assert_allclose(pyramid[s].data[0], want, atol=1e-10)

    def test_billed_conv_charges_full_conv_with_relaxed_gradient(self):
        nc = NodeCost(c_conv=100.0, c_up=10.0, c_keep=0.0, c_down=20.0)
        g = Tensor(np.array([[0.01, 0.0, 0.02]]), requires_grad=True)
        with Tape() as tape:
            c = _one_node_cost(g, nc, billed_conv=True)
            tape.backward(ad.tsum(c))
        assert float(c.data[0]) == 100.0 + 0.01 * 10.0 + 0.02 * 20.0
        np.testing.assert_allclose(g.grad, [[10.0, 0.0, 120.0]])

    def test_all_closed_gradient_goes_to_a_valid_direction(self):
        """At all-zero gates the conv term's gradient must reach a gate
        that exists, or a closed node could never be priced open."""
        nc = NodeCost(c_conv=100.0, c_up=0.0, c_keep=0.0, c_down=20.0, valid=(False, True, True))
        g = Tensor(np.zeros((2, 3)), requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.tsum(_one_node_cost(g, nc)))
        np.testing.assert_allclose(g.grad, [[0.0, 100.0, 20.0]] * 2)


class TestCostReport:
    def test_csv_shape(self):
        from dynroute.costmodel import CostReport

        report = CostReport(sample_costs=[10.0, 30.0], total_cost=100.0)
        csv = report.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "sample_id,C_net,C_tot,ratio"
        assert lines[1].startswith("0,10.0,100.0,0.1")
        assert lines[3] == "aggregate,mean,max,min,std"
        assert report.mean == 20.0 and report.std == 10.0


def test_oracle_upsampling_does_not_share_the_executor_coefficients(monkeypatch):
    """With the executor's bilinear weights swapped, forward's features
    move and the oracle's stay put, so a wrong coefficient cannot move
    both together and pass the feature cross-check."""
    from dynroute.autodiff import ops

    net = build_supernet(SMALL_SPEC, seed=4)
    img = np.random.default_rng(10).uniform(0, 1, (1, 32, 32))
    masks = {n: net.node_masks[n].copy() for n in net.nodes}  # every valid path open
    forced = {n: m.astype(np.float64)[None] for n, m in masks.items()}

    def gaps():
        _, final = count_executed_madds(net, img, masks)
        pyramid, _ = net.forward(Tensor(img[None]), mode="infer", forced_gates=forced)
        return [
            np.abs(pyramid[s].data[0] - np.einsum("oc,chw->ohw", net.params[f"proj.{s}.w"].data, f)).max()
            for s, f in final.items()
        ]

    assert max(gaps()) < 1e-10
    orig = ops._upsample_axis_coeffs

    def swapped(n):
        lo, hi, w_lo, w_hi = orig(n)
        return lo, hi, w_hi, w_lo

    monkeypatch.setattr(ops, "_upsample_axis_coeffs", swapped)
    assert max(gaps()) > 1e-6
