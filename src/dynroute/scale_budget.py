"""Object-scale encoding and per-sample computation budgets.

An image's scale encoding S is an m-bit vector: bit i is set when some
ground-truth box has max(h, w) inside interval i. Intervals are defined
by ascending thresholds b_1 < ... < b_{m-1}:

    [0, b_1], (b_1, b_2], ..., (b_{m-1}, inf)

The dynamic budget maps the encoding to C0 * sum(S) / m; two baselines
(fixed, loss-aware rank over a FIFO buffer of recent detection losses)
share the interface for strategy comparison.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .autodiff import tensor as ad_tensor
from .errors import ConfigurationError, DataError, UsageError

STRATEGIES = ("fixed", "loss_aware", "scale_dynamic")


@dataclass(frozen=True)
class ScaleIntervals:
    boundaries: tuple[float, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ConfigurationError(
                f"interval boundaries must be strictly increasing, got {self.boundaries}"
            )
        if self.boundaries and self.boundaries[0] <= 0:
            raise ConfigurationError("interval boundaries must be positive")

    @property
    def m(self) -> int:
        return len(self.boundaries) + 1

    def interval_of(self, longest_side: float) -> int:
        """0-based interval index; the first interval is closed above."""
        for i, b in enumerate(self.boundaries):
            if longest_side <= b:
                return i
        return len(self.boundaries)


def encode_scales(boxes: list[tuple[float, float]], intervals: ScaleIntervals) -> np.ndarray:
    """m-bit occupancy vector over box longest sides max(h, w).

    boxes is a list of (h, w) pairs; an empty list encodes to all zeros.
    """
    s = np.zeros(intervals.m, dtype=np.int64)
    for k, (h, w) in enumerate(boxes):
        if h <= 0 or w <= 0:
            raise DataError(f"box {k} has non-positive side (h={h}, w={w})")
        s[intervals.interval_of(max(h, w))] = 1
    return s


def expected_budget(s: np.ndarray, c0: float, m: int) -> float:
    """C0 * sum(S) / m; images with no boxes get a one-interval floor."""
    s = np.asarray(s)
    if s.shape != (m,):
        raise UsageError(f"scale encoding has shape {s.shape}, expected ({m},)")
    occupied = int(s.sum())
    return c0 * max(occupied, 1) / m


def global_budget_loss(c_net, c_expect, c_tot: float = 1.0) -> Tensor:
    """Squared gap between normalized network cost and budget, batch mean,
    as one op with the float steps of the mul by 1/c_tot, sub, square and
    mean ops it replaced.

    c_net may be a Tensor of per-sample costs, c_expect a constant of the
    same shape (ConfigurationError otherwise), both in units of c_tot (the
    default 1: already normalized): c_net is normalized as c_net * (1 /
    c_tot), c_expect as c_expect / c_tot.
    """
    c_net, c_expect = ad.as_tensor(c_net), ad.as_tensor(c_expect)
    if c_net.shape != c_expect.shape:
        raise ConfigurationError(f"global_budget_loss: shapes {c_net.shape} and {c_expect.shape} differ")
    inv = 1.0 / c_tot
    gap = c_net.data * inv - c_expect.data / c_tot

    def backward(g):
        g_gap = 2.0 * gap * np.broadcast_to(g / gap.size, gap.shape)
        return g_gap * inv, -g_gap / c_tot

    return ad_tensor.record((c_net, c_expect), np.mean(gap * gap), backward)


class LossAwareBudget:
    """Rank the current detection loss in a FIFO buffer of recent losses
    and map the rank linearly onto [C0, 4*C0]. The buffer holds the last
    100 losses."""

    def __init__(self, c0: float):
        self.c0 = c0
        self.buffer: deque[float] = deque(maxlen=100)

    def budget_for(self, current_loss: float) -> float:
        if not self.buffer:
            rank = 0.0  # pessimistic until history accumulates
        else:
            below = sum(1 for v in self.buffer if v < current_loss)
            rank = below / len(self.buffer)
        return self.c0 * (1.0 + 3.0 * rank)

    def push(self, loss_value: float) -> None:
        self.buffer.append(loss_value)


def loss_aware_budget(buffer: LossAwareBudget, current_loss: float) -> float:
    """Budget for the current sample, then record its loss in the buffer."""
    value = buffer.budget_for(current_loss)
    buffer.push(current_loss)
    return value
