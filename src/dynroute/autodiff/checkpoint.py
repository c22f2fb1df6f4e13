"""Parameter checkpoint files.

Layout: a plain-text manifest followed by the raw array bytes.

    DYNROUTE-CKPT-1\n
    meta <json>\n              (optional, single line)
    arrays <N>\n
    <name> <d0> <d1> ...\n     (N lines; scalars list no dims)
    end\n
    <little-endian float64 data, concatenated in manifest order>
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..errors import UsageError
from .tensor import Tensor

HEADER = "DYNROUTE-CKPT-1"


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    lines = [HEADER]
    if meta is not None:
        lines.append("meta " + json.dumps(meta, sort_keys=True))
    lines.append(f"arrays {len(arrays)}")
    for name, arr in arrays.items():
        if " " in name:
            raise UsageError(f"checkpoint array name may not contain spaces: {name!r}")
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"{name} {dims}".rstrip())
    lines.append("end")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("ascii"))
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return _parse(blob, path)
    except (IndexError, ValueError) as exc:  # short or garbled manifest or data
        raise UsageError(f"{path}: malformed checkpoint: {exc}") from None


def _parse(blob: bytes, path) -> tuple[dict[str, np.ndarray], dict]:
    nl = blob.index(b"\n")
    if blob[:nl].decode("ascii") != HEADER:
        raise UsageError(f"{path}: not a {HEADER} checkpoint")
    pos = nl + 1
    meta: dict = {}
    line, pos = _read_line(blob, pos)
    if line.startswith("meta "):
        meta = json.loads(line[5:])
        if not isinstance(meta, dict):
            raise UsageError(f"{path}: checkpoint meta is not a JSON object")
        line, pos = _read_line(blob, pos)
    if not line.startswith("arrays "):
        raise UsageError(f"{path}: malformed manifest, expected 'arrays N'")
    count = int(line.split()[1])
    entries: list[tuple[str, tuple[int, ...]]] = []
    for _ in range(count):
        line, pos = _read_line(blob, pos)
        parts = line.split()
        entries.append((parts[0], tuple(int(d) for d in parts[1:])))
    line, pos = _read_line(blob, pos)
    if line != "end":
        raise UsageError(f"{path}: malformed manifest, expected 'end'")
    arrays: dict[str, np.ndarray] = {}
    for name, shape in entries:
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=pos).reshape(shape)
        if not np.isfinite(arr).all():
            raise UsageError(f"{path}: checkpoint array {name} is not finite")
        arrays[name] = arr.astype(np.float64)
        pos += n * 8
    if pos != len(blob):
        raise UsageError(f"{path}: trailing bytes after array data")
    return arrays, meta


def load_params(params: dict[str, Tensor], arrays: dict[str, np.ndarray]) -> None:
    """Copy arrays into the same-named parameters; every parameter must be
    present with its own shape, and every array must be a parameter."""
    for name in arrays:
        if name not in params:
            raise UsageError(f"checkpoint array {name} is not a parameter of this model")
    for name, tensor in params.items():
        if name not in arrays:
            raise UsageError(f"checkpoint missing parameter {name}")
        if arrays[name].shape != tensor.data.shape:
            raise UsageError(
                f"checkpoint parameter {name} has shape {arrays[name].shape}, "
                f"expected {tensor.data.shape}"
            )
        tensor.data = arrays[name].astype(np.float64).copy()


def _read_line(blob: bytes, pos: int) -> tuple[str, int]:
    nl = blob.index(b"\n", pos)
    return blob[pos:nl].decode("ascii"), nl + 1
