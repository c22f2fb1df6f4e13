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
  * the generic ops here (add, mul, exp, tsum, concat, straight_through)
    serve several formulas; a formula with an op of its own (the router
    in ops.py, a node's input in supernet, the distances and loss terms
    in head_loss, similarity, scale_budget and costmodel) repeats the float
    steps of the chain it replaced, in order, less the tape's + 0.0 on
    each first gradient: a .grad never holds -0.0 and no backward
    divides by a gradient, so a zero's sign reaches no value. It calls
    _first_grad only where a reduction reads a gradient whose layout can
    differ from the intermediate's, since layout orders the sum. Ops
    outside this module call record through the module at call time,
    so tools that wrap it see them
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
    sums over it keep their order."""
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


def tsum(*tensors: Tensor) -> Tensor:
    """The sum of all elements of the tensors, each tensor's np.sum added
    in turn; each gets the gradient broadcast to its shape."""
    total = np.sum(tensors[0].data)
    for t in tensors[1:]:
        total = total + np.sum(t.data)
    shapes = [t.data.shape for t in tensors]
    return record(tensors, total, lambda g: tuple(np.broadcast_to(g, s).copy() for s in shapes))


# ---------------------------------------------------------------------------
# structural ops
# ---------------------------------------------------------------------------


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
