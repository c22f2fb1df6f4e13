"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensor import Tape, Tensor, mul, tsum


@dataclass
class GradCheckReport:
    op_name: str
    max_rel_error: float
    tolerance: float
    passed: bool
    resamples: int = 0

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"grad_check[{self.op_name}]: {status} "
            f"(max rel err {self.max_rel_error:.3e}, tol {self.tolerance:.1e}, "
            f"resamples {self.resamples})"
        )


def _scalarize(fn: Callable[..., Tensor], inputs: list[Tensor], proj: Tensor) -> Tensor:
    out = fn(*inputs)
    if out.data.size == 1:
        return out
    return tsum(mul(out, proj))


def grad_check(
    op_under_test: Callable[..., Tensor],
    input_shapes: Sequence[tuple[int, ...]],
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
    seed: int = 0,
    low: float = -1.0,
    high: float = 1.0,
    resample_if: Callable[[list[np.ndarray]], bool] | None = None,
    name: str | None = None,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    op_under_test maps Tensors to a Tensor; non-scalar outputs are reduced
    through a fixed random projection so every output element contributes.
    resample_if lets the caller reject draws that land on a non-smooth
    point (max ties, clamp boundaries); the check resamples with a fresh
    seed until the predicate clears, at most 20 times.
    """
    op_name = name or getattr(op_under_test, "__name__", "op")
    rng = np.random.default_rng(seed)
    resamples = 0
    while True:
        datas = [rng.uniform(low, high, size=s) for s in input_shapes]
        if resample_if is None or not resample_if(datas):
            break
        resamples += 1
        if resamples > 20:
            raise RuntimeError(f"grad_check[{op_name}]: could not sample a smooth point")

    inputs = [Tensor(d.copy(), requires_grad=True) for d in datas]
    probe = op_under_test(*[Tensor(d.copy()) for d in datas])
    proj = Tensor(np.random.default_rng(seed + 77).uniform(0.1, 1.0, size=probe.data.shape))

    with Tape() as tape:
        loss = _scalarize(op_under_test, inputs, proj)
        tape.backward(loss)

    def eval_loss(datas_mod: list[np.ndarray]) -> float:
        ts = [Tensor(d) for d in datas_mod]
        return float(_scalarize(op_under_test, ts, proj).data)

    max_err = 0.0
    for k, base in enumerate(datas):
        analytic = inputs[k].grad
        if analytic is None:
            analytic = np.zeros_like(base)
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = eval_loss(datas)
            flat[i] = orig - epsilon
            f_minus = eval_loss(datas)
            flat[i] = orig
            num_flat[i] = (f_plus - f_minus) / (2.0 * epsilon)
        scale = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
        err = float(np.max(np.abs(analytic - numeric) / scale)) if base.size else 0.0
        max_err = max(max_err, err)

    return GradCheckReport(
        op_name=op_name,
        max_rel_error=max_err,
        tolerance=tolerance,
        passed=max_err < tolerance,
        resamples=resamples,
    )
