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

from dynroute.cli import main as dynroute  # noqa: E402
from dynroute.trainer import load_model  # noqa: E402

STRATEGIES = ("fixed", "loss_aware", "scale_dynamic")
EVAL_SEEDS = (0, 1, 2)


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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _run("gen-data", "--out", str(root / "train"))
        eval_cfg = _write_config(root / "eval.json", {"data": {"num_images": 32}})
        for seed in EVAL_SEEDS:
            _run("gen-data", "--config", eval_cfg, "--seed", str(seed), "--out", str(root / f"eval{seed}"))
        image = str(root / "eval0" / "images" / "img_00000.pgm")

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
    return 0


if __name__ == "__main__":
    sys.exit(main())
