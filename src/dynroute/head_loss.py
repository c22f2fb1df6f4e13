"""Anchor-free dense detection head and the combined training objective.

The head runs two small shared-weight towers (classification and box
regression) over every pyramid level, each a stack of conv blocks
(separable conv, bias and ReLU as one op, as in the supernet),
predicting per-location class logits and four box-edge distances
(left, top, right, bottom), each predictor one 1x1 conv op with its
bias. Distances are exp of the clamped prediction times the level
stride, one op (_distances), so they are always positive.

At inference (no tape recording) the head computes an all-zero level's
outputs once per parameter state. A sample whose route closed every path
into a scale has all-zero features there. The head keeps a memo
(supernet.ZeroRowMemo, which also serves the supernet's extra level) of
the zero-input outputs (one row of logits and one of distances) keyed by the
level's feature shape (C, H, W) and stride: a level's zero rows are
copies of the memo row, and the towers and predictors run only on its
nonzero rows, or not at all. A missing entry is filled from one zero row
run beside the nonzero ones. The memo holds while every head parameter
is byte-equal to the snapshot taken when it was started; any difference
(an optimizer step, ad.load_params, an in-place edit, even +0.0 to -0.0)
empties it. A sample's head arithmetic does not depend on the rest of
the batch, so the outputs equal those of running each sample alone
without a tape, bit for bit, at batch 1 as at batch 16. Under a tape the
whole batch runs and the memo is neither read nor filled; a taped run
contracts channels to np.einsum's bytes, not by matmul (a channel-major
einsum on maps larger than 1x1; see autodiff/ops.py), so it agrees with
a tapeless one within rounding (acceptance criterion 4).

Target assignment is interval-based: a box belongs to the pyramid level
whose object-scale interval contains its longest side, and every
location of that level whose center falls inside the box is positive
(smallest box wins on overlap). The extra top level receives no interval
and therefore trains as pure background.

The detection loss is a sigmoid focal classification term over all
locations plus an IoU term (1 - IoU) over positives, both normalized by
the number of positives: one tape op per term and level, then one tsum
over them that scales by 1/num_pos. The full objective adds the budget
and path-similarity regularizers with their weights, one op
(total_loss); during the warmup epochs the trainer passes neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .autodiff import tensor as ad_tensor
from .errors import ConfigurationError, NumericError, UsageError
from .scale_budget import ScaleIntervals
from .supernet import ZeroRowMemo, kaiming_uniform

FOCAL_ALPHA = 0.25
PRIOR_PROB = 0.01  # initial foreground probability of every class logit
TOWER_DEPTH = 2  # conv blocks per tower, the run default of head.tower_depth


@dataclass(frozen=True)
class LossWeights:
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigurationError("loss weights must be non-negative")


@dataclass
class DensePrediction:
    """Per-level classification logits (B,K,H,W) and positive distances
    (B,4,H,W) in pixels."""

    cls_logits: list[Tensor]
    distances: list[Tensor]

    @property
    def num_levels(self) -> int:
        return len(self.cls_logits)


@dataclass
class PyramidGeometry:
    image_h: int
    image_w: int
    sizes: list[tuple[int, int]]  # (H, W) per level
    strides: list[float]

    @classmethod
    def from_pyramid(cls, pyramid, image_h: int, image_w: int) -> "PyramidGeometry":
        sizes = [(t.data.shape[2], t.data.shape[3]) for t in pyramid]
        strides = [image_h / h for (h, _w) in sizes]
        return cls(image_h=image_h, image_w=image_w, sizes=sizes, strides=strides)

    def centers(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        h, w = self.sizes[level]
        s = self.strides[level]
        ys = (np.arange(h) + 0.5) * s
        xs = (np.arange(w) + 0.5) * s
        return ys, xs


class DetectionHead:
    """Shared towers over all pyramid levels, then 1x1 predictors."""

    def __init__(
        self,
        head_channels: int,
        num_classes: int,
        tower_depth: int = TOWER_DEPTH,
        seed: int = 0,
    ):
        if num_classes < 1 or tower_depth < 1:
            raise ConfigurationError("num_classes and tower_depth must be >= 1")
        self.num_classes = num_classes
        self.tower_depth = tower_depth
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)
        hc = head_channels
        for branch in ("cls", "reg"):
            for i in range(tower_depth):
                self._add(f"head.{branch}_tower.{i}.dw_w", kaiming_uniform(rng, (hc, 3, 3), 9))
                self._add(f"head.{branch}_tower.{i}.pw_w", kaiming_uniform(rng, (hc, hc), hc))
                self._add(f"head.{branch}_tower.{i}.pw_b", np.zeros(hc))
        # near-zero predictor weights keep initial logits at their biases,
        # the usual stabilizer for focal-loss heads without norm layers
        self._add("head.cls_pred.w", rng.normal(0.0, 0.01, (num_classes, hc)))
        bias = -math.log((1.0 - PRIOR_PROB) / PRIOR_PROB)
        self._add("head.cls_pred.b", np.full(num_classes, bias))
        self._add("head.reg_pred.w", rng.normal(0.0, 0.01, (4, hc)))
        self._add("head.reg_pred.b", np.zeros(4))
        # tapeless outputs of an all-zero level, by (C, H, W) and stride
        self._zero_rows = ZeroRowMemo(list(self.params.values()))

    def _add(self, name, data):
        self.params[name] = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)

    def _tower(self, branch: str, x: Tensor) -> Tensor:
        for i in range(self.tower_depth):
            x = ad.depthwise_separable_conv3x3(
                x,
                self.params[f"head.{branch}_tower.{i}.dw_w"],
                self.params[f"head.{branch}_tower.{i}.pw_w"],
                self.params[f"head.{branch}_tower.{i}.pw_b"],
                relu=True,
            )
        return x

    def forward(self, pyramid: list[Tensor], geometry: PyramidGeometry) -> DensePrediction:
        if ad.active_tape() is None:
            self._zero_rows.refresh()
        outs = [
            self._zero_rows.run(lambda x: self._level(x, stride), feat, stride)
            for feat, stride in zip(pyramid, geometry.strides)
        ]
        return DensePrediction(
            cls_logits=[logits for logits, _ in outs], distances=[dist for _, dist in outs]
        )

    def _level(self, x: Tensor, stride: float) -> tuple[Tensor, Tensor]:
        p = self.params
        logits = ad.conv2d_1x1(self._tower("cls", x), p["head.cls_pred.w"], p["head.cls_pred.b"])
        raw = ad.conv2d_1x1(self._tower("reg", x), p["head.reg_pred.w"], p["head.reg_pred.b"])
        return logits, _distances(raw, stride)


@dataclass
class Targets:
    """Per-level assignment results, all plain numpy."""

    cls_onehot: list[np.ndarray]  # (B, H*W, K)
    box_targets: list[np.ndarray]  # (B, H*W, 4) distances, positives only
    pos_mask: list[np.ndarray]  # (B, H*W) bool

    @property
    def num_positives(self) -> int:
        return int(sum(m.sum() for m in self.pos_mask))

    def per_sample_positives(self) -> np.ndarray:
        return np.sum([m.sum(axis=1) for m in self.pos_mask], axis=0)


def assign_targets(
    boxes_per_image: list[list[tuple[float, float, float, float, int]]],
    geometry: PyramidGeometry,
    intervals: ScaleIntervals,
    num_classes: int,
) -> Targets:
    """FCOS-style assignment with interval-based level selection.

    boxes_per_image[b] lists (x, y, w, h, class). A box is assigned to
    level interval_of(max(w, h)); levels beyond the interval count stay
    background. Within the level, positives are the locations whose
    center lies strictly inside the box; overlaps resolve to the box with
    the smallest area.
    """
    B = len(boxes_per_image)
    cls_onehot, box_targets, pos_masks = [], [], []
    for level, (h, w) in enumerate(geometry.sizes):
        n = h * w
        cls_onehot.append(np.zeros((B, n, num_classes)))
        box_targets.append(np.zeros((B, n, 4)))
        pos_masks.append(np.zeros((B, n), dtype=bool))

    for b, boxes in enumerate(boxes_per_image):
        best_area: dict[tuple[int, int], float] = {}
        for (x, y, bw, bh, cls_id) in boxes:
            if not (0 <= cls_id < num_classes):
                raise UsageError(f"class id {cls_id} out of range for {num_classes} classes")
            level = intervals.interval_of(max(bw, bh))
            if level >= len(geometry.sizes):
                continue
            ys, xs = geometry.centers(level)
            h_lvl, w_lvl = geometry.sizes[level]
            inside_y = np.nonzero((ys > y) & (ys < y + bh))[0]
            inside_x = np.nonzero((xs > x) & (xs < x + bw))[0]
            area = bw * bh
            for iy in inside_y:
                for ix in inside_x:
                    loc = int(iy) * w_lvl + int(ix)
                    key = (level, loc)
                    if key in best_area and best_area[key] <= area:
                        continue
                    best_area[key] = area
                    cy, cx = ys[iy], xs[ix]
                    cls_onehot[level][b, loc, :] = 0.0
                    cls_onehot[level][b, loc, cls_id] = 1.0
                    box_targets[level][b, loc] = (cx - x, cy - y, x + bw - cx, y + bh - cy)
                    pos_masks[level][b, loc] = True

    return Targets(cls_onehot=cls_onehot, box_targets=box_targets, pos_mask=pos_masks)


def _focal_loss(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """Per-element sigmoid focal losses (alpha FOCAL_ALPHA, gamma 2) of
    the (B, K, H, W) logits against (B, H*W, K) one-hot targets, laid out
    (B, H*W, K), as one op. Forward and backward repeat the float steps
    of the generic-op chain it replaced, in order; it records through
    autodiff.tensor."""
    B, K, H, W = logits.data.shape
    x = logits.data.transpose(0, 2, 3, 1).reshape(B, H * W, K)
    t, one_minus_t = onehot, 1.0 - onehot
    p = 0.5 * (np.tanh(0.5 * x) + 1.0)
    log_p = np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))
    nx = -x
    log_1mp = np.minimum(nx, 0.0) - np.log1p(np.exp(-np.abs(nx)))
    s1 = 1.0 - p
    m1 = t * (s1 * s1)
    m2 = one_minus_t * (p * p)
    elems = (m1 * log_p) * FOCAL_ALPHA + (m2 * log_1mp) * (1.0 - FOCAL_ALPHA)

    def backward(g):
        g_elems = -g
        g_neg = g_elems * (1.0 - FOCAL_ALPHA)
        g_pos = g_elems * FOCAL_ALPHA
        g_m2 = g_neg * log_1mp
        g_log_1mp = g_neg * m2
        g_p = 2.0 * p * (g_m2 * one_minus_t)
        g_m1 = g_pos * log_p
        g_log_p = g_pos * m1
        g_p += -(2.0 * s1 * (g_m1 * t))
        g_x = -(g_log_1mp * 0.5 * (np.tanh(-0.5 * nx) + 1.0))
        g_x += g_log_p * 0.5 * (np.tanh(-0.5 * x) + 1.0)
        g_x += g_p * p * (1.0 - p)
        return (g_x.reshape(B, H, W, K).transpose(0, 3, 1, 2),)

    return ad_tensor.record((logits,), -elems, backward)


def _iou_loss(distances: Tensor, index: tuple, target: np.ndarray) -> Tensor:
    """1 - IoU of the (B, 4, H, W) predicted distances at the positives
    index = (b, y, x) against their (P, 4) targets, as one (P,) op, with
    the float steps of the generic-op chain it replaced (as _focal_loss)."""
    b_idx, ys, xs = index
    pred_t, target_t = distances.data[b_idx, :, ys, xs].T, target.T  # rows l, t, r, b
    takes = pred_t <= target_t  # a tie takes the prediction's side
    low = np.where(takes, pred_t, target_t)
    iw, ih = low[0] + low[2], low[1] + low[3]
    inter = iw * ih
    width, height = pred_t[0] + pred_t[2], pred_t[1] + pred_t[3]
    union = (width * height + (target_t[0] + target_t[2]) * (target_t[1] + target_t[3])) - inter
    iou = inter / union

    def backward(g):
        g_iou = -g
        g_union = -g_iou * inter / (union * union)
        g_inter = g_iou / union
        g_inter += -g_union
        g_area = np.stack([g_union * height, g_union * width] * 2)
        g_low = np.stack([g_inter * ih, g_inter * iw] * 2)
        grad = np.zeros(distances.data.shape)
        grad[b_idx, :, ys, xs] = (g_area + g_low * takes).T
        return (grad,)

    return ad_tensor.record((distances,), np.ones(iou.shape[0]) - iou, backward)


def _distances(raw: Tensor, stride: float) -> Tensor:
    """Box distances exp(clamp(raw, -8, 8)) * stride as one op (the clamp
    keeps exp finite: 0.0003..3000 strides). The gradient passes on the
    closed interval, so a value parked at a bound can still move."""
    e = np.exp(np.clip(raw.data, -8.0, 8.0))
    raw_data = raw.data

    def backward(g):
        return ((g * stride) * e * ((raw_data >= -8.0) & (raw_data <= 8.0)),)

    return ad_tensor.record((raw,), e * stride, backward)


def detection_loss(pred: DensePrediction, targets: Targets) -> tuple[Tensor, np.ndarray]:
    """Focal classification + IoU box loss, normalized by positive count.

    Returns the scalar loss Tensor and per-sample loss values (plain
    floats, for ranking-based budget strategies): each sample's share of
    the same elementwise focal and per-positive IoU terms, normalized by
    its own positive count.
    """
    if pred.num_levels != len(targets.cls_onehot):
        raise UsageError(
            f"prediction has {pred.num_levels} levels, targets {len(targets.cls_onehot)}"
        )
    B = pred.cls_logits[0].data.shape[0]
    num_pos = max(1, targets.num_positives)

    terms: list[Tensor] = []  # focal, then IoU, level by level
    per_sample = np.zeros(B)
    for level in range(pred.num_levels):
        W = pred.cls_logits[level].data.shape[3]
        focal = _focal_loss(pred.cls_logits[level], targets.cls_onehot[level])
        terms.append(focal)
        per_sample += focal.data.sum(axis=(1, 2))

        pos = targets.pos_mask[level]
        if pos.any():
            b_idx, loc_idx = np.nonzero(pos)
            index = (b_idx, *np.divmod(loc_idx, W))
            iou_rows = _iou_loss(pred.distances[level], index, targets.box_targets[level][pos])
            terms.append(iou_rows)
            per_sample += np.bincount(b_idx, weights=iou_rows.data, minlength=B)

    loss = ad.tsum(*terms, scale=1.0 / num_pos)
    pos_per_sample = np.maximum(1, targets.per_sample_positives())
    return loss, per_sample / pos_per_sample


def total_loss(
    l_det: Tensor,
    l_global: Tensor | None,
    l_local: Tensor | None,
    weights: LossWeights,
) -> Tensor:
    """Weighted objective L_det + lambda1 L_global + lambda2 L_local as
    one op, added in that order; a regularizer passed as None (as during
    the warmup epochs) or weighted 0 is left out, and with neither kept
    the result is l_det itself."""
    for name, term in (("L_det", l_det), ("L_global", l_global), ("L_local", l_local)):
        if term is not None and not np.isfinite(term.data).all():
            raise NumericError(f"{name} is not finite: {term.data}")
    kept = [(t, w) for t, w in ((l_global, weights.lambda1), (l_local, weights.lambda2)) if t is not None and w > 0]
    if not kept:
        return l_det
    total = l_det.data
    for term, w in kept:
        total = total + term.data * w
    return ad_tensor.record((l_det, *(t for t, _ in kept)), total, lambda g: (g, *(g * w for _, w in kept)))
