"""Deterministic synthetic detection corpus.

Images are grayscale squares containing anti-aliased rectangles and
discs over a dark noisy background. Each image first samples an
object-scale occupancy pattern from the configured mix, then draws one
or two shapes per occupied interval whose longest side lands inside that
interval, so re-encoding the annotations always reproduces the sampled
pattern exactly.

Images are stored as binary PGM (P5) files, annotations as JSON lines:
one record per image, {"image_id": int, "boxes": [[x, y, w, h, class]]}.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError
from .scale_budget import ScaleIntervals

BACKGROUND = 0.08
NUM_CLASSES = 2  # rectangle, disc
SHAPES_PER_INTERVAL = 2  # draw 1..this many objects per occupied interval


@dataclass(frozen=True)
class SynthConfig:
    """The corpus to draw; it checks its fields, patterns included, on construction."""

    image_size: int = 64
    num_images: int = 512
    scale_mix: tuple[tuple[tuple[int, ...], float], ...] = (
        ((1, 0, 0, 0), 0.15),
        ((0, 1, 0, 0), 0.15),
        ((0, 0, 1, 0), 0.15),
        ((0, 0, 0, 1), 0.15),
        ((1, 1, 1, 1), 0.25),
        ((1, 1, 0, 0), 0.15),
    )
    noise: float = 0.02
    seed: int = 7
    boundaries: tuple[float, ...] = (8, 16, 32)  # ints, as the default config writes them

    def __post_init__(self):
        if self.image_size < 8:
            raise ConfigurationError("image_size must be >= 8")
        if self.num_images < 1:
            raise ConfigurationError(f"num_images must be >= 1, got {self.num_images}")
        if not self.noise >= 0:
            raise ConfigurationError(f"noise must be >= 0, got {self.noise}")
        if self.seed < 0:
            raise ConfigurationError(f"data.seed must be >= 0, got {self.seed}")
        intervals = self.intervals
        m = intervals.m
        weight_sum = 0.0
        for pattern, weight in self.scale_mix:
            if len(pattern) != m or any(b not in (0, 1) for b in pattern):
                raise ConfigurationError(f"pattern {pattern} is not a valid {m}-bit vector")
            if weight < 0:
                raise ConfigurationError(f"pattern weight {weight} is negative")
            weight_sum += weight
            for i, bit in enumerate(pattern):
                if bit and weight > 0:
                    lo, hi = _interval_side_range(intervals, i, self.image_size)
                    if lo > hi:
                        raise ConfigurationError(
                            f"pattern {pattern} requires interval {i} "
                            f"(sides {lo}..{hi}) unrealizable at image size {self.image_size}"
                        )
        if abs(weight_sum - 1.0) > 1e-9:
            raise ConfigurationError(f"pattern weights sum to {weight_sum}, expected 1")

    @property
    def intervals(self) -> ScaleIntervals:
        return ScaleIntervals(tuple(float(b) for b in self.boundaries))


def _interval_side_range(intervals: ScaleIntervals, idx: int, image_size: int) -> tuple[int, int]:
    lo = 1 if idx == 0 else int(np.floor(intervals.boundaries[idx - 1])) + 1
    hi = image_size if idx == intervals.m - 1 else int(np.floor(intervals.boundaries[idx]))
    return lo, min(hi, image_size)


@dataclass
class Corpus:
    images: np.ndarray  # (N, H, W) uint8
    annotations: list[dict]  # {"image_id": int, "boxes": [[x,y,w,h,cls], ...]}
    patterns: list[tuple[int, ...]] | None = None  # intended encodings, if generated

    def __len__(self) -> int:
        return self.images.shape[0]

    def boxes_hw(self, idx: int) -> list[tuple[float, float]]:
        return [(b[3], b[2]) for b in self.annotations[idx]["boxes"]]

    def boxes_xywhc(self, idx: int) -> list[tuple[float, float, float, float, int]]:
        return [
            (float(b[0]), float(b[1]), float(b[2]), float(b[3]), int(b[4]))
            for b in self.annotations[idx]["boxes"]
        ]


def generate_corpus(config: SynthConfig) -> Corpus:
    intervals = config.intervals
    size = config.image_size
    pattern_list = [tuple(p) for p, _ in config.scale_mix]
    weights = np.array([w for _, w in config.scale_mix])
    weights = weights / weights.sum()

    images = np.zeros((config.num_images, size, size), dtype=np.uint8)
    annotations: list[dict] = []
    patterns: list[tuple[int, ...]] = []
    pick_rng = np.random.default_rng([config.seed, 0xA11CE])
    choices = pick_rng.choice(len(pattern_list), size=config.num_images, p=weights)

    for idx in range(config.num_images):
        pattern = pattern_list[choices[idx]]
        rng = np.random.default_rng([config.seed, idx])
        img, boxes = _render_image(rng, pattern, intervals, size, config.noise)
        images[idx] = img
        annotations.append({"image_id": idx, "boxes": boxes})
        patterns.append(pattern)

    return Corpus(images=images, annotations=annotations, patterns=patterns)


def _texture_field(rng, size: int) -> np.ndarray:
    """Smooth low-frequency background field of amplitude 0.05; flat
    backgrounds leave the routers nothing to read and make routing
    degenerate."""
    ys, xs = np.mgrid[0:size, 0:size] / size
    field = np.zeros((size, size))
    for _ in range(4):
        kx, ky = rng.uniform(0.5, 3.0, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        field += rng.uniform(0.3, 1.0) * np.sin(2 * np.pi * (kx * xs + ky * ys) + phase)
    field *= 0.05 / max(1e-9, np.abs(field).max())
    return field


def _render_image(rng, pattern, intervals, size, noise):
    canvas = np.full((size, size), BACKGROUND) + 0.05 + _texture_field(rng, size)
    boxes: list[list] = []
    placed: list[tuple[float, float, float, float]] = []
    for i, bit in enumerate(pattern):
        if not bit:
            continue
        lo, hi = _interval_side_range(intervals, i, size)
        count = int(rng.integers(1, SHAPES_PER_INTERVAL + 1))
        for _ in range(count):
            side = int(rng.integers(lo, hi + 1))
            cls_id = int(rng.integers(0, NUM_CLASSES))
            if cls_id == 0:
                # longest rectangle side is the sampled one, so the box
                # stays inside the intended interval by construction
                w = side
                h = int(rng.integers(max(1, side // 2), side + 1))
                if rng.random() < 0.5:
                    w, h = h, w
            else:
                w = h = side
            x, y = _place(rng, size, w, h, placed)
            placed.append((x, y, w, h))
            value = float(rng.uniform(0.35, 0.95))
            if cls_id == 0:
                _draw_rect(canvas, x, y, w, h, value)
            else:
                _draw_disc(canvas, x, y, w, value)
            boxes.append([round(x, 3), round(y, 3), w, h, cls_id])
    if noise > 0:
        canvas = canvas + rng.normal(0.0, noise, size=canvas.shape)
    return np.round(np.clip(canvas, 0.0, 1.0) * 255).astype(np.uint8), boxes


def _place(rng, size, w, h, placed):
    best = None
    for _ in range(8):  # attempts
        x = float(rng.uniform(0, size - w))
        y = float(rng.uniform(0, size - h))
        overlap = max((_iou((x, y, w, h), p) for p in placed), default=0.0)
        if overlap < 0.3:
            return x, y
        if best is None or overlap < best[0]:
            best = (overlap, x, y)
    return best[1], best[2]


def _iou(a, b):
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    return inter / (aw * ah + bw * bh - inter) if inter > 0 else 0.0


def _coverage_1d(length: int, a: float, b: float) -> np.ndarray:
    k = np.arange(length)
    return np.clip(np.minimum(k + 1.0, b) - np.maximum(k.astype(float), a), 0.0, 1.0)


def _draw_rect(canvas, x, y, w, h, value):
    alpha = np.outer(_coverage_1d(canvas.shape[0], y, y + h), _coverage_1d(canvas.shape[1], x, x + w))
    np.copyto(canvas, canvas * (1 - alpha) + value * alpha)


def _draw_disc(canvas, x, y, d, value):
    cy, cx = y + d / 2.0, x + d / 2.0
    r = d / 2.0
    ys = np.arange(canvas.shape[0]) + 0.5
    xs = np.arange(canvas.shape[1]) + 0.5
    dist = np.sqrt((ys[:, None] - cy) ** 2 + (xs[None, :] - cx) ** 2)
    alpha = np.clip(r - dist + 0.5, 0.0, 1.0)
    np.copyto(canvas, canvas * (1 - alpha) + value * alpha)


# ---------------------------------------------------------------------------
# disk format
# ---------------------------------------------------------------------------


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.astype(np.uint8).tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    try:
        parts = []
        pos = 0
        while len(parts) < 4:
            nl = blob.index(b"\n", pos)
            parts.extend(blob[pos:nl].split())
            pos = nl + 1
        if parts[0] != b"P5" or parts[3] != b"255":
            raise DataError(f"{path}: expected binary PGM with maxval 255")
        w, h = int(parts[1]), int(parts[2])
        if w < 1 or h < 1:
            raise DataError(f"{path}: malformed PGM: a {w}x{h} image has no pixels")
        if len(blob) - pos != w * h:
            raise DataError(
                f"{path}: malformed PGM: {len(blob) - pos} pixel bytes for a {w}x{h} header"
            )
        return np.frombuffer(blob, dtype=np.uint8, offset=pos).reshape(h, w).copy()
    except ValueError as exc:  # short header, non-numeric or negative size
        raise DataError(f"{path}: malformed PGM: {exc}") from None


def save_corpus(corpus: Corpus, out_dir: str | Path) -> None:
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    for i in range(len(corpus)):
        write_pgm(out / "images" / f"img_{i:05d}.pgm", corpus.images[i])
    with open(out / "annotations.jsonl", "w", encoding="ascii") as f:
        for rec in corpus.annotations:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


def _check_box(box, image_id) -> None:
    """Raise ValueError unless box is [x, y, w, h, class] of finite, non-
    boolean numbers, w and h above 0, and an int class < NUM_CLASSES."""
    if len(box) != 5 or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in box
    ):
        raise ValueError(f"box {box} of image {image_id} is not [x, y, w, h, class] of finite numbers")
    if not (box[2] > 0 and box[3] > 0):
        raise ValueError(f"box {box} of image {image_id} has a side <= 0")
    if not (isinstance(box[4], int) and 0 <= box[4] < NUM_CLASSES):
        raise ValueError(f"box {box} of image {image_id} has a class outside 0..{NUM_CLASSES - 1}")


def load_corpus(dir_path: str | Path) -> Corpus:
    root = Path(dir_path)
    ann_path = root / "annotations.jsonl"
    if not ann_path.exists():
        raise DataError(f"{root}: no annotations.jsonl found")
    try:
        with open(ann_path, "r", encoding="ascii") as f:
            annotations = [json.loads(line) for line in f if line.strip()]
        names = [f"img_{rec['image_id']:05d}.pgm" for rec in annotations]
        seen = set()
        for rec in annotations:
            image_id = rec["image_id"]
            if isinstance(image_id, bool) or image_id in seen:
                raise ValueError(f"image_id {image_id!r} is a boolean or repeats")
            seen.add(image_id)
            for box in rec["boxes"]:
                _check_box(box, image_id)
    # not ASCII, not JSON, not a record or box, a bool or repeated image_id, or a huge int
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{ann_path}: malformed annotations: {exc!r}") from None
    images = []
    for name in names:
        try:
            images.append(read_pgm(root / "images" / name))
        except FileNotFoundError:
            raise DataError(f"{root / 'images' / name}: annotated image not found") from None
    if len({image.shape for image in images}) > 1:
        raise DataError(f"{root}: images differ in size")
    return Corpus(images=np.stack(images) if images else np.zeros((0, 0, 0), dtype=np.uint8),
                  annotations=annotations)
