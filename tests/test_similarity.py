"""Scale/path similarity metrics and the batch pairwise loss."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dynroute.autodiff as ad
from dynroute.autodiff import Tape, Tensor
from dynroute.autodiff.tensor import record
from dynroute.errors import ConfigurationError, UsageError
from dynroute.similarity import (
    SimilarityConfig,
    gt_similarity,
    local_similarity_loss,
    scale_similarity,
)

CFG = SimilarityConfig()  # min 0.6, max 0.95


def _squared_gap(cos, target):
    """(cos - target)^2 as the sub and square ops the loss was once built
    from."""
    gap = record((cos,), cos.data - target, lambda g: (g,))
    return record((gap,), gap.data * gap.data, lambda g: (2.0 * gap.data * g,))


def _row(routes, i):
    """routes' row i as a fresh copy, as the tracked gather the loss was
    once built from: the backward adds the gradient into zeros."""
    shape = routes.data.shape

    def backward(g):
        grad = np.zeros(shape)
        np.add.at(grad, i, g)
        return (grad,)

    return record((routes,), np.array(routes.data[i]), backward)


def _cosine_op(u, v):
    """The generic cosine op of two 1-D tensors that the loss was once
    built from: 0 with zero gradient when either norm is zero."""
    ud, vd = u.data, v.data
    nu, nv = float(np.linalg.norm(ud)), float(np.linalg.norm(vd))
    if nu == 0.0 or nv == 0.0:
        return record((u, v), np.float64(0.0), lambda g: (np.zeros_like(ud), np.zeros_like(vd)))
    cos = float(ud @ vd) / (nu * nv)

    def backward(g):
        gu = g * (vd / (nu * nv) - cos * ud / (nu * nu))
        gv = g * (ud / (nu * nv) - cos * vd / (nv * nv))
        return gu, gv

    return record((u, v), np.float64(cos), backward)


class TestScaleSimilarity:
    def test_identical_is_one(self):
        s = np.array([1, 0, 1, 1])
        assert scale_similarity(s, s, 4) == 1.0

    def test_half_agreement(self):
        assert scale_similarity(np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]), 4) == 0.5

    def test_complement_is_zero(self):
        assert scale_similarity(np.array([1, 0, 1, 0]), np.array([0, 1, 0, 1]), 4) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            scale_similarity(np.zeros(3), np.zeros(4))

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=4),
           st.lists(st.integers(0, 1), min_size=4, max_size=4))
    def test_symmetric_and_bounded(self, a, b):
        sa, sb = np.array(a), np.array(b)
        v = scale_similarity(sa, sb, 4)
        assert v == scale_similarity(sb, sa, 4)
        assert 0.0 <= v <= 1.0


class TestGtSimilarity:
    def test_endpoints_from_config(self):
        assert gt_similarity(0.0, CFG) == 0.6
        assert gt_similarity(1.0, CFG) == 0.95

    def test_midpoint(self):
        assert gt_similarity(0.5, CFG) == pytest.approx(0.775)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            SimilarityConfig(min_sim=0.0, max_sim=0.9)
        with pytest.raises(ConfigurationError):
            SimilarityConfig(min_sim=0.9, max_sim=0.5)


class TestLocalSimilarityLoss:
    def _routes(self, rows):
        return Tensor(np.array(rows, dtype=np.float64))

    def test_identical_batch_closed_form(self):
        """Identical routes and encodings: every pair costs (1 - max)^2."""
        for B in (2, 4, 6):
            routes = self._routes([[0.5, 0.2, 0.7]] * B)
            enc = np.tile([1, 0, 1, 0], (B, 1))
            loss = float(local_similarity_loss(routes, enc, CFG).data)
            pairs = B * (B - 1) / 2
            assert loss == pytest.approx(pairs * (1 - 0.95) ** 2 / B)

    def test_exact_match_is_zero(self):
        # two samples with cosine exactly at the 0.95 target
        a = np.array([1.0, 0.0])
        # rotate by arccos(0.95)
        theta = np.arccos(0.95)
        b = np.array([np.cos(theta), np.sin(theta)])
        routes = self._routes([a, b])
        enc = np.tile([1, 1, 1, 1], (2, 1))
        loss = float(local_similarity_loss(routes, enc, CFG).data)
        assert loss == pytest.approx(0.0, abs=1e-15)

    def test_matches_bruteforce_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        B, width = 5, 12
        routes = rng.uniform(0, 1, (B, width))
        enc = rng.integers(0, 2, (B, 4))
        got = float(local_similarity_loss(self._routes(routes), enc, CFG).data)

        def cos(u, v):
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            return 0.0 if nu == 0 or nv == 0 else float(u @ v) / (nu * nv)

        want = 0.0
        for i in range(B):
            for j in range(i + 1, B):
                sim = np.mean(enc[i] == enc[j])
                target = sim * (0.95 - 0.6) + 0.6
                want += (cos(routes[i], routes[j]) - target) ** 2
        want /= B
        assert got == pytest.approx(want, rel=1e-12)

    def test_equals_per_pair_reference_bytewise(self):
        """Value and routes gradient equal, bit for bit, the sum over pairs
        that slices both rows afresh for every pair."""
        rng = np.random.default_rng(11)
        B, width = 6, 9
        base = rng.uniform(0, 1, (B, width))
        base[2] = 0.0  # an all-zero route: its cosines are 0 with zero gradient
        base[rng.uniform(size=base.shape) < 0.3] = -0.0
        enc = rng.integers(0, 2, (B, 4))

        def reference(routes):
            total = None
            for i in range(B):
                for j in range(i + 1, B):
                    target = gt_similarity(scale_similarity(enc[i], enc[j], 4), CFG)
                    cos = _cosine_op(_row(routes, i), _row(routes, j))
                    gap = _squared_gap(cos, target)
                    total = gap if total is None else ad.add(total, gap)
            return ad.mul(total, Tensor(1.0 / B))

        results = []
        for fn in (lambda r: local_similarity_loss(r, enc, CFG), reference):
            r = Tensor(base.copy(), requires_grad=True)
            with Tape() as tape:
                loss = fn(r)
                tape.backward(loss)
            results.append((loss.data.tobytes(), r.grad.tobytes()))
        assert results[0] == results[1]

    def test_batch_order_invariant(self):
        rng = np.random.default_rng(8)
        routes = rng.uniform(0, 1, (4, 6))
        enc = rng.integers(0, 2, (4, 4))
        perm = np.array([2, 0, 3, 1])
        a = float(local_similarity_loss(self._routes(routes), enc, CFG).data)
        b = float(local_similarity_loss(self._routes(routes[perm]), enc[perm], CFG).data)
        assert a == pytest.approx(b, rel=1e-12)

    def test_one_over_b_normalization_grows_linearly(self):
        """Duplicating the batch doubles the loss under the 1/B rule."""
        rng = np.random.default_rng(4)
        routes = rng.uniform(0.1, 1.0, (3, 6))
        enc = rng.integers(0, 2, (3, 4))
        small = float(local_similarity_loss(self._routes(routes), enc, CFG).data)
        doubled = float(
            local_similarity_loss(
                self._routes(np.vstack([routes, routes])), np.vstack([enc, enc]), CFG
            ).data
        )
        # duplicating the batch: every original pair occurs 4x over 2B
        # samples (2x the loss), and each duplicate pair sits at cosine 1
        # against target max_sim, adding B*(1-max)^2 / (2B)
        assert doubled == pytest.approx(2.0 * small + (1 - 0.95) ** 2 / 2, rel=1e-9)

    def test_small_batch_returns_zero(self):
        routes = self._routes([[0.4, 0.6]])
        loss = local_similarity_loss(routes, np.array([[1, 0, 0, 0]]), CFG)
        assert float(loss.data) == 0.0

    def test_zero_norm_routes_safe(self):
        routes = self._routes([[0.0, 0.0], [0.3, 0.4]])
        enc = np.array([[1, 0, 0, 0], [1, 0, 0, 0]])
        with Tape() as tape:
            r = Tensor(routes.data, requires_grad=True)
            loss = local_similarity_loss(r, enc, CFG)
            tape.backward(loss)
        assert np.isfinite(loss.data)
        assert np.all(np.isfinite(r.grad))

    def test_differentiable_end_to_end(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(0.1, 0.9, (3, 8))
        enc = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0]])

        def fn(r):
            return local_similarity_loss(r, enc, CFG)

        r = Tensor(base, requires_grad=True)
        with Tape() as tape:
            tape.backward(fn(r))
        eps = 1e-6
        for idx in [(0, 0), (1, 3), (2, 7)]:
            plus = base.copy()
            plus[idx] += eps
            minus = base.copy()
            minus[idx] -= eps
            numeric = (float(fn(Tensor(plus)).data) - float(fn(Tensor(minus)).data)) / (2 * eps)
            assert abs(r.grad[idx] - numeric) < 1e-6

    @pytest.mark.parametrize("B", [2, 8])
    def test_records_one_tape_entry(self, B):
        routes = Tensor(np.random.default_rng(B).uniform(0, 1, (B, 6)), requires_grad=True)
        enc = np.random.default_rng(0).integers(0, 2, (B, 4))
        with Tape() as tape:
            local_similarity_loss(routes, enc, CFG)
        assert len(tape) == 1

    def test_zero_route_gives_cosine_zero_and_zero_gradient_row(self):
        """A zero route has cosine 0 with every other route, and its row of
        the gradient is +0.0; the rows it pairs with get no gradient from
        those pairs."""
        rows = np.array([[0.2, 0.9, 0.4], [0.0, 0.0, 0.0], [0.7, 0.1, 0.5]])
        enc = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0]])
        r = Tensor(rows, requires_grad=True)
        with Tape() as tape:
            loss = local_similarity_loss(r, enc, CFG)
            tape.backward(loss)
        cos02 = rows[0] @ rows[2] / (np.linalg.norm(rows[0]) * np.linalg.norm(rows[2]))
        t01, t02, t12 = 0.95, gt_similarity(0.75, CFG), gt_similarity(0.75, CFG)
        want = ((0.0 - t01) ** 2 + (cos02 - t02) ** 2 + (0.0 - t12) ** 2) / 3
        assert float(loss.data) == pytest.approx(want, rel=1e-12)
        assert r.grad[1].tobytes() == np.zeros(3).tobytes()
        alone = Tensor(rows[[0, 2]], requires_grad=True)
        with Tape() as tape:
            tape.backward(ad.mul(local_similarity_loss(alone, enc[[0, 2]], CFG), Tensor(2.0 / 3)))
        np.testing.assert_allclose(r.grad[[0, 2]], alone.grad, rtol=1e-12)

    def test_disjoint_routes_have_cosine_zero(self):
        routes = self._routes([[1.0, 0.0, 0.5, 0.0], [0.0, 0.3, 0.0, 0.9]])
        enc = np.tile([1, 0, 1, 0], (2, 1))
        assert float(local_similarity_loss(routes, enc, CFG).data) == (0.0 - 0.95) ** 2 / 2
