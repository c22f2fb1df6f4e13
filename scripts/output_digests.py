"""Output digests: one hash line per artifact that must repeat bit for bit.

    python3 scripts/output_digests.py > digests.txt

Run from anywhere; it takes no options. It drives the public CLI in a
temporary directory, with BLAS on one thread and DYNROUTE_SEED unset:
it generates the default 512-image training corpus (seed 7) and three
32-image eval corpora (seeds 0-2), trains the default desk model for 2
epochs (regularizers on in the second) under each budget strategy, and
prints one line per artifact:

    <sha256 prefix>  <strategy>/train_log.jsonl      the step log
    <sha256 prefix>  <strategy>/state_arrays          final weights, by name
    <sha256 prefix>  <strategy>/eval_seed<k>.csv      eval report per corpus
    <sha256 prefix>  <strategy>/cost_seed<k>.csv      cost-report per corpus
    <sha256 prefix>  <strategy>/route.dot, route.svg  export-route, one image

and after those, per strategy, three lines for forced-route inference on
the seed-0 eval corpus. Each image's route is a seeded draw of mixed
density: every valid direction of every node opens with probability
(k/m)^2, where the image's objects occupy k of the m scale intervals.
The lines hash, image by image, the pyramid, the head outputs and the
recorded gates and masks of Supernet.forward(mode="infer") plus
DetectionHead.forward, run at batch 16, at batch 1, and at batch 1 once
more in the same process, with the head's zero-level memo filled; a batch
equals its batch-1 calls and the memo holds what the towers compute, so
the three lines of a strategy agree:

    <sha256 prefix>  <strategy>/forced_b16
    <sha256 prefix>  <strategy>/forced_b1
    <sha256 prefix>  <strategy>/forced_b1_warm

A change meant to keep outputs unchanged runs this at the parent commit
and at the change and diffs the two outputs. It takes about half a minute
on a 2-core host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

for _var in THREAD_VARS:  # before numpy loads BLAS
    os.environ[_var] = "1"
os.environ.pop("DYNROUTE_SEED", None)  # it would override the corpus and train seeds
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from dynroute.autodiff import Tensor  # noqa: E402
from dynroute.cli import main as dynroute  # noqa: E402
from dynroute.data_synth import load_corpus  # noqa: E402
from dynroute.head_loss import PyramidGeometry  # noqa: E402
from dynroute.scale_budget import encode_scales  # noqa: E402
from dynroute.trainer import load_model  # noqa: E402

STRATEGIES = ("fixed", "loss_aware", "scale_dynamic")
EVAL_SEEDS = (0, 1, 2)
FORCED_RUNS = (("b16", 16), ("b1", 1), ("b1_warm", 1))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = dynroute(list(argv))
    if code != 0:
        raise SystemExit(f"dynroute {' '.join(argv)} exited with {code}")


def _write_config(path: Path, overrides: dict) -> str:
    path.write_text(json.dumps(overrides), encoding="ascii")
    return str(path)


def _mixed_routes(model, corpus) -> dict:
    """Per node, a seeded (N, 3) draw of open directions: each valid one
    opens with probability (k/m)^2 for an image whose objects occupy k of
    the m scale intervals."""
    net, m = model.supernet, model.intervals.m
    occupied = np.array(
        [encode_scales(corpus.boxes_hw(i), model.intervals).sum() for i in range(len(corpus))]
    )
    p_open = (occupied / m) ** 2
    rng = np.random.default_rng(0)
    return {
        n: ((rng.random((len(corpus), 3)) < p_open[:, None]) & net.node_masks[n]).astype(np.float64)
        for n in net.nodes
    }


def _forced_route_digest(model, pixels: np.ndarray, routes: dict, batch: int) -> str:
    """Hash, image by image, the pyramid, head outputs, gates and masks of
    forced-route inference run batch images at a time."""
    h = hashlib.sha256()
    for start in range(0, len(pixels), batch):
        forced = {n: r[start : start + batch] for n, r in routes.items()}
        images = Tensor(pixels[start : start + batch])
        pyramid, record = model.supernet.forward(images, mode="infer", forced_gates=forced)
        pred = model.head.forward(pyramid, PyramidGeometry.from_pyramid(pyramid, *pixels.shape[2:]))
        arrays = [t.data for t in pyramid + pred.cls_logits + pred.distances]
        arrays += [a for n in record.node_ids for a in (record.gates[n], record.masks[n])]
        for row in range(images.data.shape[0]):
            for a in arrays:
                h.update(np.ascontiguousarray(a[row]).tobytes())
    return _digest(h.digest())


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _run("gen-data", "--out", str(root / "train"))
        eval_cfg = _write_config(root / "eval.json", {"data": {"num_images": 32}})
        for seed in EVAL_SEEDS:
            _run("gen-data", "--config", eval_cfg, "--seed", str(seed), "--out", str(root / f"eval{seed}"))
        image = str(root / "eval0" / "images" / "img_00000.pgm")
        corpus = load_corpus(root / "eval0")
        pixels = corpus.images.astype(np.float64)[:, None] / 255.0
        forced_lines = []
        for strategy in STRATEGIES:
            run = root / strategy
            cfg = _write_config(root / f"{strategy}.json", {
                "budget": {"strategy": strategy},
                "train": {"epochs": 2, "lr_drop_epochs": [2]},
            })
            _run("train", "--config", cfg, "--data", str(root / "train"), "--out", str(run))
            ckpt = str(run / "checkpoint.ckpt")
            model, _config = load_model(ckpt)
            arrays = model.state_arrays()
            state = b"".join(name.encode() + arrays[name].tobytes() for name in sorted(arrays))
            artifacts = [("train_log.jsonl", (run / "train_log.jsonl").read_bytes()), ("state_arrays", state)]
            for seed in EVAL_SEEDS:
                data = str(root / f"eval{seed}")
                _run("eval", "--checkpoint", ckpt, "--data", data, "--report", str(run / "eval.csv"))
                _run("cost-report", "--checkpoint", ckpt, "--data", data, "--out", str(run / "cost.csv"))
                artifacts.append((f"eval_seed{seed}.csv", (run / "eval.csv").read_bytes()))
                artifacts.append((f"cost_seed{seed}.csv", (run / "cost.csv").read_bytes()))
            for fmt in ("dot", "svg"):
                out = run / f"route.{fmt}"
                _run("export-route", "--checkpoint", ckpt, "--image", image, "--format", fmt, "--out", str(out))
                artifacts.append((out.name, out.read_bytes()))
            for name, data in artifacts:
                print(f"{_digest(data)}  {strategy}/{name}")
            routes = _mixed_routes(model, corpus)
            for name, batch in FORCED_RUNS:
                digest = _forced_route_digest(model, pixels, routes, batch)
                forced_lines.append(f"{digest}  {strategy}/forced_{name}")
        print("\n".join(forced_lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
