"""Reverse-mode automatic differentiation over dense float64 arrays.

Every value is a Tensor wrapping a float64 ndarray. Operations executed
while a Tape is active are recorded in execution order, which is already
a valid topological order, so backward() is a single reverse sweep that
visits each recorded operation exactly once.

Conventions:
  * float64 everywhere; no in-place mutation of tracked tensors
  * gradients accumulate into same-shape .grad buffers, allocated when
    the first gradient arrives (in the layout of .data)
  * broadcasting in elementwise ops is undone in backward by summing the
    broadcast axes (see _unbroadcast)
  * take is the one tracked gather: it accepts any numpy index key and
    returns a copy, never a view
  * the generic ops here (add, mul, exp, clamp, tsum, reshape, concat,
    take, straight_through) serve several formulas; a formula with an op
    of its own (the router in ops.py; the focal and IoU terms in
    head_loss, the path-similarity loss, the global budget loss, the
    network cost in costmodel) repeats the float steps of the generic
    chain it replaced, each intermediate's gradient passed through
    _first_grad as the tape would, so results do not change, and ops
    outside this module call record through the module at call time, so
    tools that wrap it see them
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, UsageError

_TAPE_STACK: list["Tape"] = []


def active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """Dense n-dimensional float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def gather_rows(x: Tensor, rows: np.ndarray | None) -> Tensor:
    """An untracked copy of x's samples at the indices rows, in that order
    (None: x itself). For tapeless inference: no gradient flows back
    through it."""
    return x if rows is None else Tensor(x.data[rows])


class _Entry:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Ordered record of operations for one forward pass.

    Entries are appended in execution order; backward() walks them in
    reverse, pushing each output gradient to the entry's inputs. Entries
    whose output never received a gradient are skipped.
    """

    def __init__(self):
        self._entries: list[_Entry] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise UsageError(
                f"backward requires a scalar loss, got shape {loss.data.shape}"
            )
        if not loss.requires_grad:
            raise UsageError("loss is not connected to any tracked tensor")
        loss.grad = np.ones_like(loss.data)
        for entry in reversed(self._entries):
            out_grad = entry.out.grad
            if out_grad is None:
                continue
            grads = entry.backward(out_grad)
            for tensor, grad in zip(entry.inputs, grads):
                if grad is None or not tensor.requires_grad:
                    continue
                if tensor.grad is not None:
                    tensor.grad += grad
                else:
                    tensor.grad = _first_grad(grad, tensor.data)


def _first_grad(grad: np.ndarray, data: np.ndarray) -> np.ndarray:
    """A first gradient as the tape stores it: grad + 0.0 (so no -0.0),
    in data's shape and memory layout, as zeros_like plus += gives, so
    sums over it keep their order. An op that folds a chain of ops
    passes each intermediate's gradient through it."""
    out = np.empty_like(data)
    np.add(grad, 0.0, out=out)
    return out


def record(inputs: Sequence[Tensor], out_data: np.ndarray, backward) -> Tensor:
    """Wrap out_data in a Tensor and record the op if tracking is active."""
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._entries.append(_Entry(out, tuple(inputs), backward))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that numpy broadcasting expanded to reach shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _broadcasting(name: str, op, a: Tensor, b: Tensor) -> np.ndarray:
    """op(a.data, b.data), reporting shapes that do not broadcast as a
    ConfigurationError that names the op and both shapes."""
    try:
        return op(a.data, b.data)
    except ValueError as exc:
        raise ConfigurationError(
            f"{name}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from exc


# ---------------------------------------------------------------------------
# elementwise ops and the sum
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcasting("add", np.add, a, b)

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return record((a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcasting("mul", np.multiply, a, b)
    a_data, b_data = a.data, b.data

    def backward(g):
        return (
            _unbroadcast(g * b_data, a_data.shape),
            _unbroadcast(g * a_data, b_data.shape),
        )

    return record((a, b), out, backward)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return record((a,), out, lambda g: (g * out,))


def straight_through(a: Tensor, value, passes: np.ndarray | None = None) -> Tensor:
    """Forward `value` (same shape as a); backward passes the gradient to
    a as if the op were the identity (straight-through), or, given a
    boolean array `passes` that broadcasts to a's shape, as g * passes."""
    value = np.asarray(value, dtype=np.float64)
    if value.shape != a.data.shape:
        raise ConfigurationError(
            f"straight_through: value shape {value.shape} differs from input "
            f"shape {a.data.shape}"
        )
    backward = (lambda g: (g,)) if passes is None else (lambda g: (g * passes,))
    return record((a,), value, backward)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.data, lo, hi)
    # gradient passes on the closed interval so a value parked exactly at a
    # bound can still move; strictly outside the bound it is cut
    mask = (a.data >= lo) & (a.data <= hi)
    return record((a,), out, lambda g: (g * mask,))


def tsum(a: Tensor) -> Tensor:
    shape = a.data.shape
    return record((a,), np.sum(a.data), lambda g: (np.broadcast_to(g, shape).copy(),))


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = a.data.shape
    return record((a,), a.data.reshape(shape), lambda g: (g.reshape(old),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        pieces = []
        for i in range(len(sizes)):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(index)])
        return tuple(pieces)

    return record(tuple(tensors), out, backward)


def take(a: Tensor, index) -> Tensor:
    """a.data[index] for any numpy key, basic or advanced (integers,
    slices, integer arrays, `...`, None), as a fresh C-ordered copy,
    never a view of a.

    The backward adds the gradient into zeros of a's shape with
    np.add.at: positions the key repeats receive the sum of their
    gradients, and a -0.0 gradient lands as +0.0.
    """
    out = np.array(a.data[index], order="C")
    shape = a.data.shape

    def backward(g):
        grad = np.zeros(shape)
        np.add.at(grad, index, g)
        return (grad,)

    return record((a,), out, backward)
