"""Detection head, target assignment, and the combined objective."""

import numpy as np
import pytest

import dynroute.autodiff as ad
import dynroute.head_loss as head_loss_module
from dynroute.autodiff import Tape, Tensor, grad_check
from dynroute.autodiff.tensor import record
from dynroute.errors import NumericError, UsageError
from dynroute.head_loss import (
    FOCAL_ALPHA,
    DensePrediction,
    DetectionHead,
    LossWeights,
    PyramidGeometry,
    assign_targets,
    detection_loss,
    total_loss,
)
from dynroute.scale_budget import ScaleIntervals
from dynroute.trainer import SgdMomentum

INTERVALS = ScaleIntervals((8.0, 16.0, 32.0))


def _geometry(image=64):
    sizes = [(8, 8), (4, 4), (2, 2), (1, 1), (1, 1)]
    return PyramidGeometry(
        image_h=image, image_w=image, sizes=sizes,
        strides=[image / h for h, _ in sizes],
    )


def _pyramid(batch=1, channels=8, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Tensor(rng.normal(size=(batch, channels, h, w)))
        for (h, w) in [(8, 8), (4, 4), (2, 2), (1, 1), (1, 1)]
    ]


def _state(head):
    """A copy of the head's parameter arrays, by name."""
    return {k: v.data.copy() for k, v in head.params.items()}


def _count_tower_rows(monkeypatch):
    """The batch size of every tower conv call from now on."""
    rows = []
    sepconv = ad.depthwise_separable_conv3x3

    def counted(x, *args, **kwargs):
        rows.append(x.data.shape[0])
        return sepconv(x, *args, **kwargs)

    monkeypatch.setattr(ad, "depthwise_separable_conv3x3", counted)
    return rows


class TestHeadForward:
    def test_location_counts(self):
        head = DetectionHead(8, num_classes=2, seed=0)
        pred = head.forward(_pyramid(), _geometry())
        assert pred.cls_logits[0].data.shape == (1, 2, 8, 8)
        assert pred.distances[0].data.shape == (1, 4, 8, 8)
        assert pred.cls_logits[0].data.shape[2] * pred.cls_logits[0].data.shape[3] == 64

    def test_zero_features_uniform_logits(self):
        head = DetectionHead(8, num_classes=3, seed=0)
        zeros = [Tensor(np.zeros((1, 8, h, w))) for (h, w) in [(8, 8), (4, 4), (2, 2), (1, 1), (1, 1)]]
        pred = head.forward(zeros, _geometry())
        logits = pred.cls_logits[0].data
        assert np.allclose(logits, logits[0, :, 0, 0][None, :, None, None])

    def test_distances_positive(self):
        head = DetectionHead(8, num_classes=2, seed=1)
        pred = head.forward(_pyramid(seed=5), _geometry())
        for d in pred.distances:
            assert np.all(d.data > 0)

    def test_load_state_rejects_wrong_shape(self):
        head = DetectionHead(8, num_classes=2, seed=0)
        arrays = _state(head)
        arrays["head.cls_pred.b"] = np.zeros(3)
        with pytest.raises(UsageError, match=r"head\.cls_pred\.b has shape \(3,\)"):
            ad.load_params(head.params, arrays)

    def test_gradient_through_tower(self):
        head = DetectionHead(4, num_classes=2, tower_depth=2, seed=2)
        geometry = PyramidGeometry(image_h=16, image_w=16, sizes=[(2, 2)], strides=[8.0])

        def fn(x):
            pred = head.forward([x], geometry)
            return ad.add(ad.tsum(pred.cls_logits[0]), ad.tsum(pred.distances[0]))

        report = grad_check(fn, [(1, 4, 2, 2)], name="head_tower", seed=3)
        assert report.passed, str(report)


class TestSparseHead:
    """With no tape recording, a level's all-zero rows run once per
    parameter state."""

    BATCH = 6

    def _zeroed_pyramid(self, zero_rows, seed=0):
        """A batch with zero_rows all-zero samples per level, at
        different rows on each level."""
        rng = np.random.default_rng(seed)
        pyramid = _pyramid(self.BATCH, seed=seed)
        for t in pyramid:
            t.data[rng.permutation(self.BATCH)[:zero_rows]] = 0.0
        return pyramid

    @pytest.mark.parametrize("zero_rows", [0, 1, 2, 5, 6])
    def test_outputs_equal_full_batch_run(self, monkeypatch, zero_rows):
        head = DetectionHead(8, num_classes=3, seed=4)
        pyramid = self._zeroed_pyramid(zero_rows)
        rows = _count_tower_rows(monkeypatch)
        pred = head.forward(pyramid, _geometry())
        sparse_rows, rows[:] = list(rows), []
        with Tape():  # a recording tape makes the head run the full batch
            full = head.forward(pyramid, _geometry())
        assert rows == [self.BATCH] * len(rows)
        # a fresh head runs each level's nonzero rows plus one zero row that
        # fills the memo; level 4 has level 3's (C, H, W) and stride, so it
        # reads that entry and runs no zero row (and no tower when all are zero)
        fills = [1, 1, 1, 1, 0] if zero_rows else [0] * len(pyramid)
        want = [self.BATCH - zero_rows + fill for fill in fills]
        # two towers of depth 2 per level
        assert sparse_rows == [n for n in want if n for _ in range(4)]
        outputs = pred.cls_logits + pred.distances
        # tapeless runs match their batch-1 runs bit for bit; the taped run
        # contracts channels with another kernel, so it matches within rounding
        for b in range(self.BATCH):
            alone = head.forward([Tensor(t.data[b : b + 1]) for t in pyramid], _geometry())
            for got, ref in zip(outputs, alone.cls_logits + alone.distances):
                assert np.array_equal(got.data[b : b + 1], ref.data)
                assert got.data[b : b + 1].strides == ref.data.strides
        for got, ref in zip(outputs, full.cls_logits + full.distances):
            np.testing.assert_allclose(got.data, ref.data, rtol=1e-12, atol=0)

    def test_levels_decide_separately(self, monkeypatch):
        head = DetectionHead(8, num_classes=2, seed=1)
        pyramid = _pyramid(self.BATCH, seed=3)
        for t, zero_rows in zip(pyramid, ([], [4], [0, 5], [1, 2, 3, 4, 5], [0, 2, 4])):
            t.data[zero_rows] = 0.0
        rows = _count_tower_rows(monkeypatch)
        pred = head.forward(pyramid, _geometry())
        # first tower call per level: nonzero rows, plus one zero row where
        # the memo misses; level 4 reads the entry level 3 filled
        assert rows[::4] == [6, 6, 5, 2, 3]
        for b in range(self.BATCH):
            alone = head.forward([Tensor(t.data[b : b + 1]) for t in pyramid], _geometry())
            for got, ref in zip(pred.cls_logits + pred.distances, alone.cls_logits + alone.distances):
                assert np.array_equal(got.data[b : b + 1], ref.data)

    def test_tape_runs_full_batch_with_full_batch_gradients(self, monkeypatch):
        """Plain pyramid Tensors under a tape still train the head's
        parameters, so the head must not copy zero rows there."""
        pyramid = self._zeroed_pyramid(zero_rows=4, seed=2)
        grads = []
        for requires_grad in (True, False):
            head = DetectionHead(8, num_classes=2, seed=3)
            inputs = [Tensor(t.data, requires_grad=requires_grad) for t in pyramid]
            rows = _count_tower_rows(monkeypatch)
            with Tape() as tape:
                pred = head.forward(inputs, _geometry())
                loss = ad.tsum(*pred.cls_logits, *pred.distances)
                tape.backward(loss)
            monkeypatch.undo()
            assert rows == [self.BATCH] * len(rows)
            grads.append({k: p.grad for k, p in head.params.items()})
        for name, grad in grads[0].items():
            assert grads[1][name] is not None
            assert np.array_equal(grads[1][name], grad), name


class TestZeroMemo:
    """Tapeless zero-level outputs are computed once per parameter state."""

    @staticmethod
    def _mixed_pyramid(batch=1):
        """Level 0 nonzero, every other level all zero."""
        pyramid = _pyramid(batch, seed=6)
        for t in pyramid[1:]:
            t.data[:] = 0.0
        return pyramid

    @staticmethod
    def _assert_same_bytes(pred, ref):
        for got, want in zip(pred.cls_logits + pred.distances, ref.cls_logits + ref.distances):
            assert got.data.shape == want.data.shape
            assert got.data.tobytes() == want.data.tobytes()
            assert got.data.flags.c_contiguous

    @staticmethod
    def _fresh_copy(head):
        fresh = DetectionHead(8, num_classes=3, seed=9)
        ad.load_params(fresh.params, _state(head))
        return fresh

    def test_warm_batch1_call_runs_only_nonzero_levels(self, monkeypatch):
        head = DetectionHead(8, num_classes=3, seed=4)
        pyramid = self._mixed_pyramid()
        head.forward(pyramid, _geometry())
        rows = _count_tower_rows(monkeypatch)
        pred = head.forward(pyramid, _geometry())
        assert rows == [1] * 4  # level 0's two towers of depth 2, nothing else
        monkeypatch.undo()
        self._assert_same_bytes(pred, DetectionHead(8, num_classes=3, seed=4).forward(pyramid, _geometry()))

    def test_all_zero_level_runs_no_tower_op(self, monkeypatch):
        head = DetectionHead(8, num_classes=3, seed=4)
        zeros = [Tensor(np.zeros((5, 8, 4, 4)))]
        geometry = PyramidGeometry(image_h=64, image_w=64, sizes=[(4, 4)], strides=[16.0])
        head.forward([Tensor(np.zeros((1, 8, 4, 4)))], geometry)
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return counted

        for owner, op in ((ad, "depthwise_separable_conv3x3"), (ad, "conv2d_1x1"), (head_loss_module, "_distances")):
            monkeypatch.setattr(owner, op, counting(op, getattr(owner, op)))
        pred = head.forward(zeros, geometry)
        assert calls == []
        monkeypatch.undo()
        self._assert_same_bytes(pred, DetectionHead(8, num_classes=3, seed=4).forward(zeros, geometry))

    @staticmethod
    def _sgd_step(head, pyramid):
        with Tape() as tape:
            pred = head.forward([Tensor(t.data) for t in pyramid], _geometry())
            loss = ad.add(ad.tsum(pred.cls_logits[0]), ad.tsum(pred.distances[1]))
            tape.backward(loss)
        SgdMomentum(head.params, momentum=0.9, weight_decay=1e-4).step(lr=0.01)

    @pytest.mark.parametrize("edit", ["tower_weight", "bias_sign", "load_state", "sgd_step"])
    def test_parameter_change_empties_the_memo(self, monkeypatch, edit):
        head = DetectionHead(8, num_classes=3, seed=4)
        pyramid = self._mixed_pyramid(batch=2)
        pyramid[2].data[1] = 1.0  # level 2 also has one nonzero row
        head.forward(pyramid, _geometry())
        before = _state(head)
        if edit == "tower_weight":
            head.params["head.reg_tower.1.pw_w"].data[2, 3] += 0.25
        elif edit == "bias_sign":
            bias = head.params["head.cls_tower.0.pw_b"].data
            assert bias[0] == 0.0 and not np.signbit(bias[0])
            bias[0] = -0.0  # equal as a float, not as bytes
        elif edit == "load_state":
            ad.load_params(head.params, _state(DetectionHead(8, num_classes=3, seed=5)))
        else:
            self._sgd_step(head, pyramid)
        assert any(a.tobytes() != before[k].tobytes() for k, a in _state(head).items())
        rows = _count_tower_rows(monkeypatch)
        pred = head.forward(pyramid, _geometry())
        # levels 1-4 refill the memo from one zero row (level 4 reads level
        # 3's entry); level 0 runs its two rows
        assert rows == [2] * 4 + [1] * 4 + [2] * 4 + [1] * 4
        monkeypatch.undo()
        self._assert_same_bytes(pred, self._fresh_copy(head).forward(pyramid, _geometry()))

    def test_strides_keep_separate_entries(self, monkeypatch):
        head = DetectionHead(8, num_classes=3, seed=4)
        zeros = [Tensor(np.zeros((1, 8, 2, 2)))]
        geometries = [
            PyramidGeometry(image_h=h, image_w=h, sizes=[(2, 2)], strides=[h / 2])
            for h in (16, 32)
        ]
        rows = _count_tower_rows(monkeypatch)
        preds = [head.forward(zeros, g) for g in geometries + geometries]
        assert rows == [1] * 8  # one fill per stride, then two memo reads
        monkeypatch.undo()
        assert np.array_equal(preds[1].distances[0].data, 2.0 * preds[0].distances[0].data)
        for pred, geometry in zip(preds, geometries + geometries):
            self._assert_same_bytes(pred, DetectionHead(8, num_classes=3, seed=4).forward(zeros, geometry))

    def test_taped_forward_neither_reads_nor_fills(self, monkeypatch):
        pyramid = self._mixed_pyramid(batch=3)
        grads = []
        for warm in (False, True):
            head = DetectionHead(8, num_classes=3, seed=4)
            if warm:
                head.forward(pyramid, _geometry())
            rows = _count_tower_rows(monkeypatch)
            with Tape() as tape:
                pred = head.forward(pyramid, _geometry())
                loss = ad.add(ad.tsum(pred.cls_logits[3]), ad.tsum(pred.distances[4]))
                tape.backward(loss)
            assert rows == [3] * 20
            grads.append({k: p.grad for k, p in head.params.items()})
            rows[:] = []
            head.forward(pyramid, _geometry())
            # warm: every zero level reads the memo; cold: the taped run left
            # it empty, so levels 1-3 each fill it from one zero row
            assert rows == [3] * 4 + ([] if warm else [1] * 12)
            monkeypatch.undo()
        for name, grad in grads[0].items():
            assert np.array_equal(grads[1][name], grad), name


class TestAssignTargets:
    def test_single_box_on_single_level(self):
        # max side 12 lands in interval 1 -> level C4 (4x4, stride 16)
        boxes = [[(20.0, 21.0, 11.0, 10.0, 1)]]
        targets = assign_targets(boxes, _geometry(), INTERVALS, num_classes=2)
        assert targets.pos_mask[1].sum() > 0
        for level in (0, 2, 3, 4):
            assert targets.pos_mask[level].sum() == 0

    def test_empty_image_all_background(self):
        targets = assign_targets([[]], _geometry(), INTERVALS, num_classes=2)
        assert targets.num_positives == 0
        assert all(not m.any() for m in targets.pos_mask)

    def test_matches_bruteforce_point_in_box(self):
        """Exhaustive per-location oracle over a 64x64 image."""
        rng = np.random.default_rng(7)
        boxes = []
        for _ in range(4):
            side = int(rng.integers(3, 60))
            other = int(rng.integers(max(1, side // 2), side + 1))
            w, h = (side, other) if rng.random() < 0.5 else (other, side)
            x = float(rng.uniform(0, 64 - w))
            y = float(rng.uniform(0, 64 - h))
            boxes.append((x, y, float(w), float(h), int(rng.integers(0, 2))))
        geometry = _geometry()
        targets = assign_targets([boxes], geometry, INTERVALS, num_classes=2)

        for level, (h_lvl, w_lvl) in enumerate(geometry.sizes):
            stride = geometry.strides[level]
            for iy in range(h_lvl):
                for ix in range(w_lvl):
                    cy, cx = (iy + 0.5) * stride, (ix + 0.5) * stride
                    inside = [
                        b for b in boxes
                        if INTERVALS.interval_of(max(b[2], b[3])) == level
                        and b[0] < cx < b[0] + b[2]
                        and b[1] < cy < b[1] + b[3]
                    ]
                    want = len(inside) > 0
                    got = targets.pos_mask[level][0, iy * w_lvl + ix]
                    assert got == want
                    if inside:
                        best = min(inside, key=lambda b: b[2] * b[3])
                        l, t, r, bt = targets.box_targets[level][0, iy * w_lvl + ix]
                        assert l == pytest.approx(cx - best[0])
                        assert r == pytest.approx(best[0] + best[2] - cx)
                        assert t == pytest.approx(cy - best[1])
                        assert bt == pytest.approx(best[1] + best[3] - cy)

    def test_translation_consistency(self):
        """Shifting a box by one stride shifts its positives accordingly."""
        geometry = _geometry()
        stride = geometry.strides[0]  # level C3, boxes with max side <= 8
        base = [[(16.0, 24.0, 7.0, 7.0, 0)]]
        shifted = [[(16.0 + stride, 24.0, 7.0, 7.0, 0)]]
        t1 = assign_targets(base, geometry, INTERVALS, 2)
        t2 = assign_targets(shifted, geometry, INTERVALS, 2)
        m1 = t1.pos_mask[0][0].reshape(8, 8)
        m2 = t2.pos_mask[0][0].reshape(8, 8)
        np.testing.assert_array_equal(np.roll(m1, 1, axis=1), m2)


def _perfect_prediction(targets, geometry, num_classes, logit=30.0):
    """Build a DensePrediction that nails every target."""
    cls_logits, distances = [], []
    for level, (h, w) in enumerate(geometry.sizes):
        onehot = targets.cls_onehot[level]
        B = onehot.shape[0]
        logits = np.where(onehot > 0, logit, -logit)
        logits = logits.reshape(B, h, w, num_classes).transpose(0, 3, 1, 2)
        dist = np.maximum(targets.box_targets[level], 1e-9)
        dist = dist.reshape(B, h, w, 4).transpose(0, 3, 1, 2)
        cls_logits.append(Tensor(logits))
        distances.append(Tensor(dist))
    return DensePrediction(cls_logits=cls_logits, distances=distances)


def _unary(fn, grad_fn):
    """A generic elementwise op of the kind the loss was once built from."""
    return lambda a: record((a,), fn(a.data), lambda g: (grad_fn(g, a.data),))


def _sigmoid_data(x):
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _log_sigmoid_data(x):
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


_neg = _unary(np.negative, lambda g, x: -g)
_sigmoid = _unary(_sigmoid_data, lambda g, x: g * _sigmoid_data(x) * (1.0 - _sigmoid_data(x)))
_log_sigmoid = _unary(_log_sigmoid_data, lambda g, x: g * 0.5 * (np.tanh(-0.5 * x) + 1.0))
_transpose = _unary(lambda x: x.transpose(0, 2, 3, 1), lambda g, x: g.transpose(0, 3, 1, 2))
_square = _unary(lambda x: x * x, lambda g, x: 2.0 * x * g)


def _reshape(a, shape):
    old = a.data.shape
    return record((a,), a.data.reshape(shape), lambda g: (g.reshape(old),))


def _take(a, index):
    """a.data[index] as a fresh copy; the backward adds the gradient into
    zeros with np.add.at."""
    shape = a.data.shape

    def backward(g):
        grad = np.zeros(shape)
        np.add.at(grad, index, g)
        return (grad,)

    return record((a,), np.array(a.data[index], order="C"), backward)


def _sub(a, b):
    """a - b; a is either b's shape or untracked, so neither gradient
    needs unbroadcasting."""
    return record((a, b), a.data - b.data, lambda g: (g, -g))


def _minimum(a, b):
    take_a = a.data <= b.data
    return record((a, b), np.where(take_a, a.data, b.data), lambda g: (g * take_a, g * ~take_a))


def _div(a, b):
    a_data, b_data = a.data, b.data
    return record((a, b), a_data / b_data, lambda g: (g / b_data, -g * a_data / (b_data * b_data)))


def _chain_detection_loss(pred, targets):
    """detection_loss as the chain of generic ops it was before its focal
    and IoU terms became one op each and its total one tsum."""
    total, per_sample = None, np.zeros(pred.cls_logits[0].data.shape[0])
    for level in range(pred.num_levels):
        logits = pred.cls_logits[level]
        B, K, H, W = logits.data.shape
        x = _reshape(_transpose(logits), (B, H * W, K))
        onehot = targets.cls_onehot[level]
        p = _sigmoid(x)
        pos = ad.mul(ad.mul(Tensor(onehot), _square(_sub(Tensor(1.0), p))), _log_sigmoid(x))
        neg = ad.mul(ad.mul(Tensor(1.0 - onehot), _square(p)), _log_sigmoid(_neg(x)))
        elems = ad.add(ad.mul(pos, Tensor(FOCAL_ALPHA)), ad.mul(neg, Tensor(1.0 - FOCAL_ALPHA)))
        focal = _neg(ad.tsum(elems))
        total = focal if total is None else ad.add(total, focal)
        per_sample -= elems.data.sum(axis=(1, 2))
        mask = targets.pos_mask[level]
        if mask.any():
            dist = _transpose(pred.distances[level])
            b_idx, loc_idx = np.nonzero(mask)
            rows = _take(dist, (b_idx, *np.divmod(loc_idx, W)))
            pl, pt, pr, pb = (_take(rows, (slice(None), j)) for j in range(4))
            tl, tt, tr, tb = (Tensor(c) for c in targets.box_targets[level][mask].T)
            iw = ad.add(_minimum(pl, tl), _minimum(pr, tr))
            inter = ad.mul(iw, ad.add(_minimum(pt, tt), _minimum(pb, tb)))
            area_p = ad.mul(ad.add(pl, pr), ad.add(pt, pb))
            union = _sub(ad.add(area_p, ad.mul(ad.add(tl, tr), ad.add(tt, tb))), inter)
            iou_rows = _sub(Tensor(np.ones(len(b_idx))), _div(inter, union))
            total = ad.add(total, ad.tsum(iou_rows))
            per_sample += np.bincount(b_idx, weights=iou_rows.data, minlength=len(per_sample))
    loss = ad.mul(total, Tensor(1.0 / max(1, targets.num_positives)))
    return loss, per_sample / np.maximum(1, targets.per_sample_positives())


class TestDetectionLoss:
    def test_perfect_prediction_near_zero(self):
        geometry = _geometry()
        boxes = [[(20.0, 21.0, 11.0, 10.0, 1)]]
        targets = assign_targets(boxes, geometry, INTERVALS, 2)
        assert targets.num_positives > 0
        pred = _perfect_prediction(targets, geometry, 2)
        loss, per_sample = detection_loss(pred, targets)
        assert float(loss.data) < 1e-6
        assert per_sample.shape == (1,)

    def test_background_only_small_finite(self):
        geometry = _geometry()
        targets = assign_targets([[]], geometry, INTERVALS, 2)
        cls_logits = [
            Tensor(np.full((1, 2, h, w), -4.0)) for (h, w) in geometry.sizes
        ]
        distances = [Tensor(np.ones((1, 4, h, w))) for (h, w) in geometry.sizes]
        pred = DensePrediction(cls_logits=cls_logits, distances=distances)
        loss, _ = detection_loss(pred, targets)
        assert 0 < float(loss.data) < 1.0

    def test_matches_per_location_reimplementation_on_toy_map(self):
        """Independent per-element focal + IoU on a single 4x4 level."""
        rng = np.random.default_rng(11)
        geometry = PyramidGeometry(image_h=16, image_w=16, sizes=[(4, 4)], strides=[4.0])
        intervals = ScaleIntervals((16.0,))
        boxes = [[(2.0, 3.0, 9.0, 8.0, 0)]]
        targets = assign_targets(boxes, geometry, intervals, num_classes=2)
        logits = rng.normal(size=(1, 2, 4, 4))
        dists = np.abs(rng.normal(size=(1, 4, 4, 4))) + 0.5
        pred = DensePrediction(cls_logits=[Tensor(logits)], distances=[Tensor(dists)])
        got, _ = detection_loss(pred, targets)

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        focal = 0.0
        onehot = targets.cls_onehot[0].reshape(4, 4, 2)
        for iy in range(4):
            for ix in range(4):
                for k in range(2):
                    p = sigmoid(logits[0, k, iy, ix])
                    t = onehot[iy, ix, k]
                    if t > 0:
                        focal += -FOCAL_ALPHA * (1 - p) ** 2 * np.log(p)
                    else:
                        focal += -(1 - FOCAL_ALPHA) * p**2 * np.log(1 - p)
        iou_total = 0.0
        npos = 0
        for iy in range(4):
            for ix in range(4):
                loc = iy * 4 + ix
                if not targets.pos_mask[0][0, loc]:
                    continue
                npos += 1
                pl, pt, pr, pb = dists[0, :, iy, ix]
                tl, tt, tr, tb = targets.box_targets[0][0, loc]
                iw = min(pl, tl) + min(pr, tr)
                ih = min(pt, tt) + min(pb, tb)
                inter = iw * ih
                union = (pl + pr) * (pt + pb) + (tl + tr) * (tt + tb) - inter
                iou_total += 1 - inter / union
        want = (focal + iou_total) / max(1, npos)
        assert float(got.data) == pytest.approx(want, rel=1e-10)

    def test_per_sample_values_equal_each_image_alone(self):
        """Each per-sample value is that image's loss computed on its own."""
        geometry = _geometry()
        boxes = [
            [(20.0, 21.0, 11.0, 10.0, 1)],
            [],
            [(2.0, 2.0, 8.0, 7.0, 0), (17.0, 17.0, 14.0, 13.0, 1), (35.0, 3.0, 28.0, 26.0, 0)],
        ]
        rng = np.random.default_rng(5)
        logits = [rng.normal(0.0, 3.0, (3, 2, h, w)) for h, w in geometry.sizes]
        dists = [np.exp(rng.normal(1.0, 1.0, (3, 4, h, w))) for h, w in geometry.sizes]
        targets = assign_targets(boxes, geometry, INTERVALS, 2)
        counts = targets.per_sample_positives()
        assert counts.tolist() == [1, 0, 3]
        _, per_sample = detection_loss(
            DensePrediction([Tensor(a) for a in logits], [Tensor(d) for d in dists]), targets
        )
        for b in range(3):
            alone, _ = detection_loss(
                DensePrediction(
                    [Tensor(a[b : b + 1]) for a in logits], [Tensor(d[b : b + 1]) for d in dists]
                ),
                assign_targets(boxes[b : b + 1], geometry, INTERVALS, 2),
            )
            assert per_sample[b] == pytest.approx(float(alone.data), rel=1e-12, abs=0)

    def test_equals_the_chain_of_generic_ops_bytewise(self):
        """Loss, per-sample values and the gradients of logits and
        distances equal, bit for bit, those of the chain of generic ops
        the focal and IoU ops replace: on a five-level batch with signed
        zeros, ties between predicted and target distances, saturated
        logits, a logits map in Fortran order and upstream gradients of
        +0.0 and -0.0."""
        geometry = _geometry()
        boxes = [
            [(20.0, 21.0, 11.0, 10.0, 1), (2.0, 2.0, 6.0, 7.0, 0)],
            [],
            [(2.0, 2.0, 8.0, 7.0, 0), (17.0, 17.0, 14.0, 13.0, 1), (35.0, 3.0, 28.0, 26.0, 0)],
        ]
        targets = assign_targets(boxes, geometry, INTERVALS, 2)
        rng = np.random.default_rng(19)
        logits, dists = [], []
        for h, w in geometry.sizes:
            a = rng.normal(0.0, 4.0, (3, 2, h, w))
            a[rng.random(a.shape) < 0.1] = -0.0
            a[0, 0, 0, 0] = 800.0
            logits.append(np.asfortranarray(a) if h == 4 else a)
            dists.append(np.exp(rng.normal(1.0, 1.0, (3, 4, h, w))))
        level, (b, loc) = 1, np.argwhere(targets.pos_mask[1])[0]
        dists[level][b, :, loc // 4, loc % 4] = targets.box_targets[level][b, loc]  # four ties
        for scale in (0.7, 0.0, -0.0):
            results = []
            for loss_fn in (detection_loss, _chain_detection_loss):
                inputs = [Tensor(a.copy(), requires_grad=True) for a in logits + dists]
                with Tape() as tape:
                    loss, per_sample = loss_fn(DensePrediction(inputs[:5], inputs[5:]), targets)
                    tape.backward(ad.mul(loss, Tensor(scale)))
                grads = [b"-" if t.grad is None else t.grad.tobytes() for t in inputs]
                results.append((loss.data.tobytes(), per_sample.tobytes(), grads))
            assert results[0] == results[1]

    def test_tape_entries_do_not_depend_on_positive_count(self):
        """One focal op per level and one IoU op per level with positives,
        whether it has one positive or four, then one tsum and one mul."""
        geometry = PyramidGeometry(image_h=16, image_w=16, sizes=[(4, 4)], strides=[4.0])
        intervals = ScaleIntervals((16.0,))
        counts = []
        for boxes in ([], [(5.0, 5.0, 2.0, 2.0, 0)], [(2.0, 3.0, 9.0, 8.0, 1)]):
            targets = assign_targets([boxes], geometry, intervals, num_classes=2)
            logits = Tensor(np.zeros((1, 2, 4, 4)), requires_grad=True)
            dists = Tensor(np.ones((1, 4, 4, 4)), requires_grad=True)
            with Tape() as tape:
                detection_loss(DensePrediction([logits], [dists]), targets)
            counts.append((targets.num_positives, len(tape)))
        assert counts == [(0, 3), (1, 4), (4, 4)]

    def test_gradient_of_detection_loss(self):
        geometry = PyramidGeometry(image_h=16, image_w=16, sizes=[(2, 2)], strides=[8.0])
        intervals = ScaleIntervals((16.0,))
        boxes = [[(1.0, 1.0, 10.0, 9.0, 0)]]
        targets = assign_targets(boxes, geometry, intervals, num_classes=2)

        def fn(logits, rawdist):
            pred = DensePrediction(
                cls_logits=[logits],
                distances=[ad.mul(ad.exp(rawdist), Tensor(8.0))],
            )
            loss, _ = detection_loss(pred, targets)
            return loss

        report = grad_check(fn, [(1, 2, 2, 2), (1, 4, 2, 2)], name="detection_loss", seed=2)
        assert report.passed, str(report)


class TestTotalLoss:
    def test_zero_weights_pass_through(self):
        out = total_loss(Tensor(0.5), Tensor(0.1), Tensor(0.2), LossWeights(0.0, 0.0))
        assert float(out.data) == 0.5

    def test_weighted_sum(self):
        out = total_loss(Tensor(0.5), Tensor(0.1), Tensor(0.2), LossWeights(1.0, 1.0))
        assert float(out.data) == pytest.approx(0.8)

    def test_warmup_negates_regularizers(self):
        """During warmup the trainer passes no regularizer terms."""
        out = total_loss(Tensor(0.5), None, None, LossWeights(1.0, 1.0))
        assert float(out.data) == 0.5

    def test_nan_aborts(self):
        with pytest.raises(NumericError, match="L_global"):
            total_loss(Tensor(0.5), Tensor(np.nan), Tensor(0.2), LossWeights(1.0, 1.0))

    @pytest.mark.parametrize(
        "lambdas, passed",
        [((0.7, 1.3), (True, True)), ((0.0, 1.3), (True, True)), ((0.7, 1.3), (True, False)), ((0.7, 0.0), (False, True))],
    )
    def test_equals_the_add_and_mul_chain_bytewise(self, lambdas, passed):
        """The one-op objective forwards, and hands each term, the same
        bytes as the chain of ad.mul and ad.add it replaced, with a term
        passed as None or weighted 0 left out; it records one tape entry,
        or none when it returns l_det itself."""
        weights = LossWeights(*lambdas)

        def chain(l_det, l_global, l_local):
            out = l_det
            if l_global is not None and weights.lambda1 > 0:
                out = ad.add(out, ad.mul(l_global, Tensor(weights.lambda1)))
            if l_local is not None and weights.lambda2 > 0:
                out = ad.add(out, ad.mul(l_local, Tensor(weights.lambda2)))
            return out

        results, entries = [], []
        for fn in (lambda *terms: total_loss(*terms, weights), chain):
            ts = [Tensor(np.array(v), requires_grad=True) for v in (0.8123, 0.0371, 0.4519)]
            terms = [ts[0]] + [t if keep else None for t, keep in zip(ts[1:], passed)]
            with Tape() as tape:
                out = fn(*terms)
                entries.append(len(tape))
                tape.backward(ad.mul(out, Tensor(0.37)))
            results.append((out.data.tobytes(), [b"-" if t.grad is None else t.grad.tobytes() for t in ts]))
        assert results[0] == results[1]
        kept = sum(keep and w > 0 for keep, w in zip(passed, lambdas))
        assert entries == [min(kept, 1), 2 * kept]

    def test_gradient_is_weighted_sum_of_term_gradients(self):
        a = Tensor(np.array(0.5), requires_grad=True)
        b = Tensor(np.array(0.1), requires_grad=True)
        c = Tensor(np.array(0.2), requires_grad=True)
        with Tape() as tape:
            out = total_loss(a, ad.mul(b, b), ad.mul(c, c), LossWeights(2.0, 3.0))
            tape.backward(out)
        assert a.grad == pytest.approx(1.0)
        assert b.grad == pytest.approx(2.0 * 2 * 0.1)
        assert c.grad == pytest.approx(3.0 * 2 * 0.2)
