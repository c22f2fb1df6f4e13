"""Scale encoding, budget mapping, and the budget-strategy baselines."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dynroute.autodiff as ad
from dynroute.autodiff import Tape, Tensor
from dynroute.autodiff.tensor import record
from dynroute.errors import ConfigurationError, DataError, UsageError
from dynroute.scale_budget import (
    LossAwareBudget,
    ScaleIntervals,
    encode_scales,
    expected_budget,
    global_budget_loss,
    loss_aware_budget,
)

PAPER_INTERVALS = ScaleIntervals((64.0, 150.0, 360.0))


def _chain_budget_loss(c_net, c_expect):
    """global_budget_loss as the sub, square and mean chain it was before
    it became one op, rebuilt from copies of those deleted ops."""
    gap = record((c_net, c_expect), c_net.data - c_expect.data, lambda g: (g, -g))
    sq = record((gap,), gap.data * gap.data, lambda g: (2.0 * gap.data * g,))
    n, shape = sq.data.size, sq.data.shape
    return record((sq,), np.mean(sq.data), lambda g: (np.broadcast_to(g / n, shape).copy(),))
DESK_INTERVALS = ScaleIntervals((8.0, 16.0, 32.0))


class TestEncodeScales:
    def test_two_occupied_intervals(self):
        s = encode_scales([(30, 20), (200, 120)], PAPER_INTERVALS)
        np.testing.assert_array_equal(s, [1, 0, 1, 0])

    def test_empty_image_all_zero(self):
        np.testing.assert_array_equal(encode_scales([], PAPER_INTERVALS), [0, 0, 0, 0])

    def test_boundary_64_closed_first_interval(self):
        s = encode_scales([(64, 10)], PAPER_INTERVALS)
        np.testing.assert_array_equal(s, [1, 0, 0, 0])
        s = encode_scales([(65, 10)], PAPER_INTERVALS)
        np.testing.assert_array_equal(s, [0, 1, 0, 0])

    def test_longer_side_rule(self):
        # max(h, w) decides: (10, 200) lands in interval 3 of paper bounds
        s = encode_scales([(10, 200)], PAPER_INTERVALS)
        np.testing.assert_array_equal(s, [0, 0, 1, 0])

    def test_non_positive_side_names_annotation(self):
        with pytest.raises(DataError, match="box 1"):
            encode_scales([(5, 5), (0, 4)], DESK_INTERVALS)

    @given(
        st.lists(
            st.tuples(
                st.floats(1.0, 64.0, allow_nan=False),
                st.floats(1.0, 64.0, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
        st.randoms(),
    )
    def test_permutation_invariant_and_idempotent(self, boxes, rnd):
        base = encode_scales(boxes, DESK_INTERVALS)
        shuffled = list(boxes)
        rnd.shuffle(shuffled)
        np.testing.assert_array_equal(encode_scales(shuffled, DESK_INTERVALS), base)
        np.testing.assert_array_equal(encode_scales(boxes + boxes, DESK_INTERVALS), base)

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ConfigurationError):
            ScaleIntervals((10.0, 10.0, 20.0))


class TestExpectedBudget:
    def test_all_ones_gives_c0(self):
        assert expected_budget(np.ones(4), 100.0, 4) == 100.0

    def test_half_occupied(self):
        assert expected_budget(np.array([1, 0, 1, 0]), 100.0, 4) == 50.0

    def test_empty_floor_is_one_interval(self):
        assert expected_budget(np.zeros(4), 100.0, 4) == 25.0

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            expected_budget(np.zeros(3), 100.0, 4)

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=4), st.integers(0, 3))
    def test_monotone_in_occupancy(self, bits, flip):
        s = np.array(bits)
        base = expected_budget(s, 80.0, 4)
        s2 = s.copy()
        s2[flip] = 1
        assert expected_budget(s2, 80.0, 4) >= base or s.sum() == 0


class TestGlobalBudgetLoss:
    def test_zero_gap(self):
        assert float(global_budget_loss(Tensor(0.3), Tensor(0.3)).data) == 0.0

    def test_squared_gap(self):
        assert float(global_budget_loss(Tensor(0.5), Tensor(0.25)).data) == pytest.approx(0.0625)

    def test_gradient_pushes_toward_target(self):
        for cnet, target in ((0.8, 0.3), (0.1, 0.6)):
            c = Tensor(np.array([cnet]), requires_grad=True)
            with Tape() as tape:
                loss = global_budget_loss(c, Tensor(np.array([target])))
                tape.backward(loss)
            # descent direction moves cnet toward the target from either side
            assert np.sign(-c.grad[0]) == np.sign(target - cnet)

    def test_shapes_that_differ_rejected(self):
        for c_net, c_expect in ((np.zeros(4), np.zeros(3)), (np.zeros(4), np.zeros(())), (np.zeros((2, 2)), np.zeros(4))):
            with pytest.raises(ConfigurationError, match="global_budget_loss: shapes"):
                global_budget_loss(Tensor(c_net), Tensor(c_expect))

    @pytest.mark.parametrize("shape", [(), (1,), (8,), (3, 5)])
    def test_equals_the_chain_of_generic_ops_bytewise(self, shape):
        """Loss and the gradients of both arguments equal, bit for bit,
        those of the sub, square and mean chain the op replaces, rebuilt
        from copies of those deleted ops: with zero gaps, c_net already
        holding a gradient from another consumer, and upstream gradients
        of 0.9 and -0.45 (g / 15 is not g * (1 / 15) for either), +0.0
        and -0.0."""
        rng = np.random.default_rng(len(shape))
        c_net = rng.uniform(0.0, 1.0, shape)
        c_expect = rng.uniform(0.0, 1.0, shape)
        if c_net.size > 1:
            c_net.flat[0] = c_expect.flat[0]
        prev = rng.normal(size=shape)
        for scale in (0.9, -0.45, 0.0, -0.0):
            results = []
            for loss_fn in (global_budget_loss, _chain_budget_loss):
                a, b = Tensor(c_net.copy(), requires_grad=True), Tensor(c_expect.copy(), requires_grad=True)
                with Tape() as tape:
                    loss = loss_fn(a, b)
                    tape.backward(ad.add(ad.mul(loss, Tensor(scale)), ad.tsum(ad.mul(a, Tensor(prev)))))
                results.append((loss.data.tobytes(), a.grad.tobytes(), b.grad.tobytes()))
            assert results[0] == results[1]

    def test_two_gate_toy_net_finite_differences(self):
        """Budget loss gradient through the network cost of a one-node table."""
        from dynroute.costmodel import CostConstants, NodeCost, network_cost
        from dynroute.supernet import NodeId, SupernetSpec

        node = NodeId(1, 0)
        nc = NodeCost(c_conv=40.0, c_up=0.0, c_keep=0.0, c_down=10.0)
        table = CostConstants(SupernetSpec(), 32, 32, {node: nc}, router_madds=0.0)
        g = Tensor(np.array([[0.4, 0.6, 0.2]]), requires_grad=True)
        target = Tensor(np.array([0.35]))
        c_tot = 100.0

        def loss_of(gates: Tensor):
            c = network_cost({node: gates}, table)
            return global_budget_loss(ad.mul(c, Tensor(1.0 / c_tot)), target)

        with Tape() as tape:
            tape.backward(loss_of(g))
        eps = 1e-6
        for j in range(3):
            plus = g.data.copy()
            plus[0, j] += eps
            minus = g.data.copy()
            minus[0, j] -= eps
            numeric = (float(loss_of(Tensor(plus)).data) - float(loss_of(Tensor(minus)).data)) / (2 * eps)
            assert abs(g.grad[0, j] - numeric) < 1e-6


class TestLossAwareBudget:
    def _filled(self, c0=10.0):
        buf = LossAwareBudget(c0)
        for v in np.linspace(1.0, 2.0, 100):
            buf.push(float(v))
        return buf

    def test_below_all_gives_c0(self):
        assert self._filled().budget_for(0.5) == 10.0

    def test_above_all_gives_4c0(self):
        assert self._filled().budget_for(99.0) == 40.0

    def test_median_gives_2p5_c0(self):
        buf = self._filled()
        assert buf.budget_for(1.5) == pytest.approx(25.0, abs=0.5)

    def test_ties_rank_low(self):
        buf = LossAwareBudget(10.0)
        for _ in range(10):
            buf.push(1.0)
        assert buf.budget_for(1.0) == 10.0  # strict less-than

    def test_fifo_eviction(self):
        buf = LossAwareBudget(10.0)
        for v in range(101):
            buf.push(float(v))
        assert list(buf.buffer) == [float(v) for v in range(1, 101)]

    def test_update_wrapper(self):
        buf = LossAwareBudget(10.0)
        first = loss_aware_budget(buf, 3.0)
        assert first == 10.0  # empty buffer ranks zero
        assert list(buf.buffer) == [3.0]
        for v in range(100):
            loss_aware_budget(buf, float(v))
        assert list(buf.buffer) == [float(v) for v in range(100)]  # 3.0, the oldest, evicted

    @given(st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=1, max_size=150),
           st.floats(0.0, 20.0, allow_nan=False))
    def test_output_always_in_range(self, history, current):
        buf = LossAwareBudget(7.0)
        for v in history:
            buf.push(v)
        got = buf.budget_for(current)
        assert 7.0 <= got <= 28.0
