"""End-to-end optimization and routing evaluation.

One training step runs the supernet in train mode, computes the
detection loss, the normalized budget loss against the configured
strategy's per-sample targets, and the batch path-similarity loss, then
takes an SGD-with-momentum step on the weighted sum. Both regularizers
are disabled for the warmup epochs and afterwards ramped linearly over
the first ramp_steps steps to avoid collapsing the gates early.

The budget loss sees each sample's route priced as inference bills it:
conv blocks of nodes with an open gate in full, nodes with no live input
not at all (network_cost with billed_conv=True); its gradient is the one
of the relaxed cost. The step log's mean_Cnet_ratio is that billed cost.

Evaluation runs the same network in infer mode, prices each sample's
open masks with the cost table, and reports the spread statistics plus
route-cosine separation between groups of samples sharing a scale
encoding.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, load_checkpoint, save_checkpoint
from .config import (
    TrainConfig,
    head_from,
    intervals_from,
    seed_from,
    supernet_spec_from,
)
from .costmodel import CostConstants, CostReport, binary_route_cost, compile_cost_table, network_cost
from .data_synth import NUM_CLASSES, Corpus
from .errors import NumericError, UsageError
from .head_loss import (
    DetectionHead,
    LossWeights,
    PyramidGeometry,
    assign_targets,
    detection_loss,
    total_loss,
)
from .scale_budget import (
    LossAwareBudget,
    ScaleIntervals,
    encode_scales,
    expected_budget,
    loss_aware_budget,
)
from .similarity import local_similarity_loss
from .supernet import SupernetSpec, build_supernet


class Model:
    """Supernet plus detection head plus the shared scale intervals."""

    def __init__(
        self,
        spec: SupernetSpec,
        intervals: ScaleIntervals,
        num_classes: int,
        tower_depth: int,
        seed: int = 0,
    ):
        self.spec = spec
        self.intervals = intervals
        self.num_classes = num_classes
        self.supernet = build_supernet(spec, seed=seed)
        self.head = DetectionHead(
            spec.head_channels, num_classes, tower_depth=tower_depth, seed=seed + 1
        )

    def parameters(self) -> dict[str, Tensor]:
        return {**self.supernet.params, **self.head.params}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.parameters().items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        ad.load_params(self.parameters(), arrays)


def model_from_config(config: dict) -> Model:
    """The model a config describes; it reads no train key but the seed,
    so a checkpoint stays readable when a train setting is added."""
    return Model(
        spec=supernet_spec_from(config),
        intervals=intervals_from(config),
        num_classes=NUM_CLASSES,
        seed=seed_from(config),
        **head_from(config),
    )


class SgdMomentum:
    """SGD with momentum; weight decay skips bias vectors."""

    def __init__(self, params: dict[str, Tensor], momentum: float, weight_decay: float):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, lr: float, clip_grad_norm: float = 0.0) -> None:
        if clip_grad_norm > 0:
            total = 0.0
            for p in self.params.values():
                if p.grad is not None:
                    total += float((p.grad**2).sum())
            norm = np.sqrt(total)
            if norm > clip_grad_norm:
                scale = clip_grad_norm / norm
                for p in self.params.values():
                    if p.grad is not None:
                        p.grad = p.grad * scale
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay > 0 and not name.endswith("_b") and not name.endswith(".b"):
                g = g + self.weight_decay * p.data
            v = self.velocity[name]
            v *= self.momentum
            v += g
            p.data = p.data - lr * v

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


class TrainingAborted(NumericError):
    def __init__(self, message: str, last_good: dict[str, np.ndarray], log: list[dict]):
        super().__init__(message)
        self.last_good = last_good
        self.log = log


@dataclass
class TrainResult:
    log: list[dict]


def _lr_for_epoch(config: TrainConfig, epoch: int) -> float:
    drops = sum(1 for d in config.lr_drop_epochs if epoch > d)
    return config.base_lr / (10.0**drops)


def _warmup_factor(config: TrainConfig, global_step: int) -> float:
    """Linear ramp from 0.1 to 1 over the first lr_warmup_steps steps."""
    if config.lr_warmup_steps <= 0 or global_step >= config.lr_warmup_steps:
        return 1.0
    return 0.1 + 0.9 * global_step / config.lr_warmup_steps


def _batch_images(corpus: Corpus, idxs: np.ndarray) -> Tensor:
    imgs = corpus.images[idxs].astype(np.float64) / 255.0
    return Tensor(imgs[:, None, :, :])


def corpus_cost_table(model: Model, corpus: Corpus) -> CostConstants:
    """The model's cost table at the corpus's image size."""
    if len(corpus) == 0:
        raise UsageError("corpus is empty")
    height, width = corpus.images.shape[1:]
    return compile_cost_table(model.spec, height, width)


def infer_batches(model: Model, corpus: Corpus, table: CostConstants):
    """Run the corpus in order through infer mode, 16 images at a time.

    Yields (idxs, pyramid, record, costs), costs being each sample's
    binarized route billed with the table.
    """
    for start in range(0, len(corpus), 16):
        idxs = np.arange(start, min(start + 16, len(corpus)))
        pyramid, record = model.supernet.forward(_batch_images(corpus, idxs), mode="infer")
        yield idxs, pyramid, record, binary_route_cost(record.masks, table)


def train(model: Model, config: TrainConfig, corpus: Corpus) -> TrainResult:
    """Optimize the model on the corpus; returns the step log and state.

    Raises TrainingAborted (carrying the last epoch's parameters) when a
    loss term goes non-finite.
    """
    config.validate()
    table = corpus_cost_table(model, corpus)
    encodings_all = np.stack(
        [encode_scales(corpus.boxes_hw(i), model.intervals) for i in range(len(corpus))]
    )

    opt = SgdMomentum(model.parameters(), config.momentum, config.weight_decay)
    loss_buffer = LossAwareBudget(config.c0_ratio * table.total)
    rng = np.random.default_rng(config.seed)

    log: list[dict] = []
    last_good = model.state_arrays()
    step = 0
    steps_after_warmup = 0
    dense_gates = {n: np.ones(3) for n in model.supernet.nodes}
    try:
        # epochs below 1 are the dense pretraining epochs, logged as epoch
        # 0: routers bypassed, detection loss only, at base_lr. The lr
        # warmup ramps the dense epochs if there are any, else the first
        # routed ones.
        for epoch in range(1 - config.pretrain_epochs, config.epochs + 1):
            dense = epoch < 1
            epoch_lr = _lr_for_epoch(config, epoch)
            order = rng.permutation(len(corpus))
            for start in range(0, len(order), config.batch_size):
                idxs = order[start : start + config.batch_size]
                if dense or config.pretrain_epochs == 0:
                    lr = epoch_lr * _warmup_factor(config, step)
                else:
                    lr = epoch_lr
                record_losses = _train_step(
                    model, config, corpus, idxs, encodings_all[idxs], table,
                    loss_buffer, opt, lr, max(epoch, 0), steps_after_warmup,
                    forced_gates=dense_gates if dense else None,
                )
                if not dense and epoch > config.regularizer_warmup_epochs:
                    steps_after_warmup += 1
                step += 1
                record_losses.update({"step": step, "epoch": max(epoch, 0), "lr": lr})
                log.append(record_losses)
            last_good = model.state_arrays()
    except NumericError as exc:
        raise TrainingAborted(str(exc), last_good, log) from exc
    return TrainResult(log=log)


def _train_step(
    model, config, corpus, idxs, encodings, table, loss_buffer, opt, lr, epoch, steps_after_warmup,
    forced_gates=None,
) -> dict:
    images = _batch_images(corpus, idxs)
    boxes = [corpus.boxes_xywhc(int(i)) for i in idxs]
    height, width = corpus.images.shape[1:]
    c_tot = table.total
    weights = LossWeights(config.lambda1, config.lambda2)

    with Tape() as tape:
        pyramid, record = model.supernet.forward(images, mode="train", forced_gates=forced_gates)
        geometry = PyramidGeometry.from_pyramid(pyramid, height, width)
        pred = model.head.forward(pyramid, geometry)
        targets = assign_targets(boxes, geometry, model.intervals, model.num_classes)
        l_det, det_per_sample = detection_loss(pred, targets)

        cnet = network_cost(record.gate_tensors, table, billed_conv=True)
        mean_ratio = float(np.mean(cnet.data)) / c_tot

        l_global = None
        l_local = None
        if epoch > config.regularizer_warmup_epochs and forced_gates is None:
            ramp = min(1.0, (steps_after_warmup + 1) / max(1, config.ramp_steps))
            weights = LossWeights(weights.lambda1 * ramp, weights.lambda2 * ramp)
            budgets = _budget_targets(
                config.budget_strategy, encodings, det_per_sample, config.c0_ratio * c_tot,
                m=model.intervals.m, loss_buffer=loss_buffer,
            )
            l_global = _normalized_budget_loss(cnet, budgets, c_tot)
            if config.lambda2 > 0:
                routes = ad.concat([record.gate_tensors[n] for n in record.node_ids], axis=1)
                l_local = local_similarity_loss(routes, encodings, config.similarity)
        l_tot = total_loss(l_det, l_global, l_local, weights)
        tape.backward(l_tot)

    opt.step(lr, clip_grad_norm=config.clip_grad_norm)
    opt.zero_grad()
    return {
        "L_det": float(l_det.data),
        "L_global": float(l_global.data) if l_global is not None else 0.0,
        "L_local": float(l_local.data) if l_local is not None else 0.0,
        "L_tot": float(l_tot.data),
        "mean_Cnet_ratio": mean_ratio,
    }


def _normalized_budget_loss(cnet: Tensor, budgets: np.ndarray, c_tot: float) -> Tensor:
    from .scale_budget import global_budget_loss

    cnet_norm = ad.mul(cnet, Tensor(1.0 / c_tot))
    return global_budget_loss(cnet_norm, Tensor(budgets / c_tot))


def _budget_targets(strategy, encodings, det_per_sample, c0, m, loss_buffer) -> np.ndarray:
    if strategy == "fixed":
        return np.full(len(encodings), c0)
    if strategy == "loss_aware":
        return np.array(
            [loss_aware_budget(loss_buffer, float(v)) for v in det_per_sample]
        )
    # scale_dynamic, the one strategy left after TrainConfig.validate
    return np.array([expected_budget(s, c0, m) for s in encodings])


def write_log(log: list[dict], path: str | Path) -> None:
    with open(path, "w", encoding="ascii") as f:
        for rec in log:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


@dataclass
class EvalSummary(CostReport):
    """A cost report plus route diversity and detection loss; the cost
    statistics are CostReport's, under the names the eval CSV uses."""

    patterns: list[tuple[int, ...]]
    mean_within_cos: float
    mean_cross_cos: float
    det_loss: float

    mean_madds = CostReport.mean
    max_madds = CostReport.max
    min_madds = CostReport.min
    std_madds = CostReport.std

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("sample_id,pattern,num_intervals,C_net,C_tot,ratio\n")
        for i, (c, p) in enumerate(zip(self.sample_costs, self.patterns)):
            pat = "".join(str(int(b)) for b in p)
            buf.write(
                f"{i},{pat},{sum(p)},{c!r},{self.total_cost!r},{c / self.total_cost!r}\n"
            )
        buf.write(
            "mean_madds,max_madds,min_madds,std_madds,mean_within_cos,mean_cross_cos,det_loss\n"
        )
        buf.write(
            f"{self.mean_madds!r},{self.max_madds!r},{self.min_madds!r},"
            f"{self.std_madds!r},{self.mean_within_cos!r},{self.mean_cross_cos!r},"
            f"{self.det_loss!r}\n"
        )
        return buf.getvalue()

    def human_summary(self) -> str:
        return (
            f"samples: {len(self.sample_costs)}\n"
            f"MAdds mean/max/min/std: {self.mean_madds:.1f} / {self.max_madds:.1f} "
            f"/ {self.min_madds:.1f} / {self.std_madds:.3f}\n"
            f"route cosine within/cross groups: {self.mean_within_cos:.4f} "
            f"/ {self.mean_cross_cos:.4f}\n"
            f"detection loss: {self.det_loss:.4f}\n"
        )


def evaluate_routing(model: Model, corpus: Corpus) -> EvalSummary:
    """Binarize routes over the corpus and summarize cost and diversity."""
    table = corpus_cost_table(model, corpus)
    height, width = corpus.images.shape[1:]

    costs: list[float] = []
    routes: list[np.ndarray] = []
    patterns: list[tuple[int, ...]] = []
    det_losses: list[float] = []
    for idxs, pyramid, record, batch_costs in infer_batches(model, corpus, table):
        costs.extend(batch_costs.tolist())
        routes.append(record.route_vectors())
        geometry = PyramidGeometry.from_pyramid(pyramid, height, width)
        pred = model.head.forward(pyramid, geometry)
        boxes = [corpus.boxes_xywhc(int(i)) for i in idxs]
        targets = assign_targets(boxes, geometry, model.intervals, model.num_classes)
        _, per_sample = detection_loss(pred, targets)
        det_losses.extend(per_sample.tolist())
        for i in idxs:
            patterns.append(tuple(int(v) for v in encode_scales(corpus.boxes_hw(int(i)), model.intervals)))

    route_mat = np.concatenate(routes, axis=0)
    within, cross = group_cosine_stats(route_mat, patterns)
    return EvalSummary(
        sample_costs=costs,
        total_cost=float(table.total),
        patterns=patterns,
        mean_within_cos=within,
        mean_cross_cos=cross,
        det_loss=float(np.mean(det_losses)),
    )


def group_cosine_stats(routes: np.ndarray, patterns: list[tuple[int, ...]]) -> tuple[float, float]:
    """Mean pairwise route cosine inside and across scale-pattern groups.

    Groups with fewer than two samples contribute no within-group pairs.
    """
    norms = np.linalg.norm(routes, axis=1)
    safe = np.where(norms == 0, 1.0, norms)
    unit = routes / safe[:, None]
    gram = unit @ unit.T
    n = len(patterns)
    _, group = np.unique(np.asarray(patterns), axis=0, return_inverse=True)
    group = group.reshape(n)  # numpy 2.0.0 alone shapes it (n, 1)
    same = group[:, None] == group[None, :]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    within_mask = same & upper
    cross_mask = (~same) & upper
    within = float(gram[within_mask].mean()) if within_mask.any() else 0.0
    cross = float(gram[cross_mask].mean()) if cross_mask.any() else 0.0
    return within, cross


def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx**2).sum() * (ry**2).sum())
    return float((rx * ry).sum() / denom) if denom > 0 else 0.0


def _average_ranks(v: np.ndarray) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0
        i = j + 1
    return ranks


# ---------------------------------------------------------------------------
# checkpoint plumbing
# ---------------------------------------------------------------------------


def save_model(path: str | Path, model: Model, run_config: dict) -> None:
    save_checkpoint(path, model.state_arrays(), meta={"config": run_config})


def load_model(path: str | Path) -> tuple[Model, dict]:
    arrays, meta = load_checkpoint(path)
    run_config = meta.get("config")
    if run_config is None:
        raise UsageError(f"{path}: checkpoint carries no config metadata")
    model = model_from_config(run_config)
    model.load_state(arrays)
    return model, run_config
