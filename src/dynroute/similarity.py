"""Pairwise path-similarity regularization.

For every unordered pair of samples in a batch, the cosine of their
flattened route vectors is pulled toward a target derived from how
similar their object-scale encodings are:

    scale similarity  = mean agreement of the two bit vectors (XNOR)
    target similarity = scale_sim * (max_sim - min_sim) + min_sim
    loss              = (1/B) * sum over pairs (cosine - target)^2

The 1/B normalization (not the pair count) is intentional; for fixed
pairwise gaps the loss grows roughly linearly in the batch size.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .autodiff import tensor as ad_tensor
from .errors import ConfigurationError, UsageError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimilarityConfig:
    min_sim: float = 0.6
    max_sim: float = 0.95

    def __post_init__(self):
        if not (0.0 < self.min_sim <= self.max_sim <= 1.0):
            raise ConfigurationError(
                f"similarity bounds must satisfy 0 < min <= max <= 1, "
                f"got ({self.min_sim}, {self.max_sim})"
            )


def scale_similarity(s_i: np.ndarray, s_j: np.ndarray, m: int | None = None) -> float:
    """Fraction of agreeing positions between two binary vectors."""
    s_i = np.asarray(s_i)
    s_j = np.asarray(s_j)
    if s_i.shape != s_j.shape:
        raise UsageError(f"scale encodings differ in shape: {s_i.shape} vs {s_j.shape}")
    if m is None:
        m = s_i.size
    agree = np.sum((s_i > 0) == (s_j > 0))
    return float(agree) / m


def gt_similarity(sim_scale: float, config: SimilarityConfig) -> float:
    """Linear map of a [0,1] scale similarity into [min_sim, max_sim]."""
    return sim_scale * (config.max_sim - config.min_sim) + config.min_sim


def local_similarity_loss(
    routes: Tensor,
    encodings: np.ndarray,
    config: SimilarityConfig,
) -> Tensor:
    """Batch path-similarity loss over all unordered sample pairs.

    routes: (B, 3n) Tensor of continuous gates; encodings: (B, m) binary.
    One op that walks the pairs in order with the float steps of the
    generic-op chain it replaced (row gathers, cosine, squared gap, sum,
    1/B); it records through autodiff.tensor.
    A zero route has cosine 0 with every row and passes no gradient.
    """
    B = routes.data.shape[0]
    encodings = np.asarray(encodings)
    if encodings.shape[0] != B:
        raise UsageError(
            f"{B} route vectors but {encodings.shape[0]} scale encodings"
        )
    if B < 2:
        logger.info("similarity loss skipped: batch of %d has no pairs", B)
        return Tensor(np.float64(0.0))
    m = encodings.shape[1]
    rows = [np.array(row) for row in routes.data]  # contiguous copies, as the row gathers made
    norms = [float(np.linalg.norm(r)) for r in rows]
    pairs = []  # (i, j, cosine, gap to target)
    total = None
    for i in range(B):
        for j in range(i + 1, B):
            nu, nv = norms[i], norms[j]
            cos = 0.0 if nu == 0.0 or nv == 0.0 else float(rows[i] @ rows[j]) / (nu * nv)
            d = cos - gt_similarity(scale_similarity(encodings[i], encodings[j], m), config)
            total = d * d if total is None else total + d * d
            pairs.append((i, j, cos, d))

    def backward(g):
        g_gap = g * (1.0 / B)
        grads: list[np.ndarray | None] = [None] * B
        for i, j, cos, d in reversed(pairs):
            nu, nv = norms[i], norms[j]
            if nu == 0.0 or nv == 0.0:
                parts = ((i, np.zeros_like(rows[i])), (j, np.zeros_like(rows[j])))
            else:
                g_cos = 2.0 * d * g_gap
                u, v = rows[i], rows[j]
                parts = (
                    (i, g_cos * (v / (nu * nv) - cos * u / (nu * nu))),
                    (j, g_cos * (u / (nu * nv) - cos * v / (nv * nv))),
                )
            for k, part in parts:
                if grads[k] is None:
                    grads[k] = part
                else:
                    grads[k] += part
        return (np.stack(grads),)

    return ad_tensor.record((routes,), np.float64(total * (1.0 / B)), backward)
