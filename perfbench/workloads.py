"""The four closed-loop workloads: set-up, one timed operation, checks.

Every workload builds the desk-scale model from dynroute's default
config, makes its inputs from the workload seed, and drives only public
entry points. A workload object exposes:

    setup(tracer)        everything before the first timed operation
    run(seconds)         closed loop of timed operations -> Phase
    check()              output checks, outside the timed region
    digest()             hash of outputs that must repeat bit for bit

Phase.sizes counts what one operation completes: training images for a
step, inferred images for a call, evaluated images for an eval.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dynroute import cli, costmodel, data_synth, trainer
from dynroute.autodiff import Tensor
from dynroute.head_loss import PyramidGeometry
from dynroute.scale_budget import encode_scales

IMAGE_SIZE = 64
# eval-cli routes come from an untrained model's routers, and how many
# nodes they drop depends on the initialization; one fixed model keeps
# the cost of an eval the same for every workload seed
EVAL_MODEL_SEED = 0


@dataclass
class Phase:
    """What one closed loop measured, one entry per timed operation."""

    latencies: list[float] = field(default_factory=list)  # seconds
    sizes: list[int] = field(default_factory=list)  # images completed
    attempted: int = 0
    failed: int = 0
    # how slow the host ran meanwhile: calibration kernel time over
    # CALIBRATION_REF_MS; times divided by it read as on the reference host
    slowness: float = 1.0

    def add(self, seconds: float, images: int) -> None:
        self.latencies.append(seconds)
        self.sizes.append(images)

    def throughput(self) -> float:
        """Images per second of timed operations, at reference host speed."""
        return sum(self.sizes) / sum(self.latencies) * self.slowness

    def latency(self, pct: float) -> float:
        """Nearest-rank pct-th percentile of operation seconds, at
        reference host speed."""
        lat = sorted(self.latencies)
        return lat[max(1, math.ceil(len(lat) * pct / 100)) - 1] / self.slowness


# the calibration kernel's time on the reference host (the baseline's)
CALIBRATION_REF_MS = 13.0


def calibration_ms() -> float:
    """Best of three timings of a fixed numpy kernel, independent of
    dynroute and shaped like its work: half feature-map arithmetic, half
    many small-array calls whose cost is Python dispatch. A host phase
    that slows the workloads slows the kernel about alike."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal((16, 8))
    x = rng.standard_normal((8, 8, 32, 32))
    v = rng.standard_normal(64)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(16):
            np.tanh(np.einsum("oc,bchw->bohw", w, x)[:, :, ::2, ::2])
        for _ in range(130):
            u = v
            for _ in range(20):
                u = np.maximum(u * 1.0001 + 0.1, 0.0)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _desk_config(seed: int, num_images: int) -> dict:
    config = cli.load_config(None)
    config["data"]["seed"] = seed
    config["data"]["num_images"] = num_images
    config["train"]["seed"] = seed
    return config


def _generate(config: dict, tracer):
    synth = cli.synth_config_from(config)
    if tracer is None:
        return data_synth.generate_corpus(synth)
    return tracer.call("data_synth.generate", data_synth.generate_corpus, synth)


def _finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


# ---------------------------------------------------------------------------
# train-b8
# ---------------------------------------------------------------------------


class TrainB8:
    """SGD steps of trainer.train at batch 8 with both regularizers on.

    The corpus is cut into 64-image chunks; each trainer.train call runs
    one epoch (8 steps) over one chunk, cycling through the chunks. A
    step's latency is the interval between consecutive returns of
    SgdMomentum.step; the first step of a run() counts from its start.
    """

    name = "train-b8"
    root_span = "trainer.train"
    tail_pct = 90
    corpus_images = 256
    chunk = 64

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.step_returns: list[float] = []
        self.logs: list[list[dict]] = []

    def setup(self, tracer) -> None:
        config = _desk_config(self.seed, self.corpus_images)
        corpus = _generate(config, tracer)
        self.model = cli.model_from_config(config)
        self.config = dataclasses.replace(
            cli.train_config_from(config), epochs=1, lr_drop_epochs=(),
            regularizer_warmup_epochs=0,
        )
        self.chunks = [
            data_synth.Corpus(images=corpus.images[i : i + self.chunk],
                              annotations=corpus.annotations[i : i + self.chunk])
            for i in range(0, len(corpus), self.chunk)
        ]

        # the one wrapper the untraced run keeps: a clock read per step
        returns = self.step_returns
        original_step = trainer.SgdMomentum.step

        def clocked_step(opt, *args, **kwargs):
            original_step(opt, *args, **kwargs)
            returns.append(time.perf_counter())

        trainer.SgdMomentum.step = clocked_step
        warm = self.chunks[-1]
        trainer.train(self.model, self.config,
                      data_synth.Corpus(images=warm.images[:16], annotations=warm.annotations[:16]))
        self._next = 0

    def run(self, seconds: float, tracer=None) -> Phase:
        self.step_returns.clear()
        phase = Phase()
        mark = time.perf_counter()  # the previous step's return
        deadline = mark + seconds
        while phase.attempted == 0 or time.perf_counter() < deadline:
            chunk = self.chunks[self._next % len(self.chunks)]
            self._next += 1
            done = len(self.step_returns)
            try:
                if tracer is None:
                    result = trainer.train(self.model, self.config, chunk)
                else:
                    result = tracer.call("trainer.train", trainer.train, self.model, self.config, chunk)
            except Exception:  # a raising step is a failed operation
                phase.attempted += len(self.step_returns) - done + 1
                phase.failed += 1
                break
            for end in self.step_returns[done:]:
                phase.add(end - mark, self.config.batch_size)
                mark = end
            phase.attempted += len(self.step_returns) - done
            self.logs.append(result.log)
            phase.failed += sum(
                1 for rec in result.log
                if not all(math.isfinite(v) for k, v in rec.items() if k.startswith(("L_", "mean_")))
            )
        return phase

    def check(self) -> list[str]:
        # the finite-loss check runs on every logged step inside run()
        return []

    def digest(self) -> str:
        return _sha(json.dumps(self.logs[0], sort_keys=True).encode())


# ---------------------------------------------------------------------------
# infer-b16-mixed, infer-b1
# ---------------------------------------------------------------------------


class Infer:
    """Supernet.forward(mode="infer") with forced binary routes plus
    DetectionHead.forward, cycling over a seeded pool of images.

    Each image's route is drawn by the benchmark: every valid direction
    of every node opens with probability (k / m)^2, where k of the m
    scale intervals hold one of the image's objects.
    """

    root_span = "infer.call"
    pool_images = 512
    checked_samples = 4

    def __init__(self, seed: int, workdir: Path, batch: int):
        self.seed = seed
        self.batch = batch

    def setup(self, tracer) -> None:
        config = _desk_config(self.seed, self.pool_images)
        corpus = _generate(config, tracer)
        self.model = cli.model_from_config(config)
        net = self.model.supernet
        self.table = costmodel.compile_cost_table(net.spec, IMAGE_SIZE, IMAGE_SIZE)
        m = self.model.intervals.m
        rng = np.random.default_rng([self.seed, 0x2017E])
        occupied = np.array(
            [encode_scales(corpus.boxes_hw(i), self.model.intervals).sum() for i in range(len(corpus))]
        )
        p_open = (occupied / m) ** 2
        routes = {
            n: (rng.random((len(corpus), 3)) < p_open[:, None]) & net.node_masks[n]
            for n in net.nodes
        }
        self.pixels = corpus.images.astype(np.float64)[:, None] / 255.0
        self.batches = [
            (Tensor(self.pixels[i : i + self.batch]),
             {n: r[i : i + self.batch].astype(np.float64) for n, r in routes.items()})
            for i in range(0, len(corpus), self.batch)
        ]
        for i in range(min(len(self.batches), max(2, 32 // self.batch))):
            self._op(i)
        self._next = 0

    def _op(self, index: int):
        images, forced = self.batches[index]
        pyramid, record = self.model.supernet.forward(images, mode="infer", forced_gates=forced)
        geometry = PyramidGeometry.from_pyramid(pyramid, IMAGE_SIZE, IMAGE_SIZE)
        return pyramid, record, self.model.head.forward(pyramid, geometry)

    def run(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while phase.attempted == 0 or time.perf_counter() < deadline:
            index = self._next % len(self.batches)
            self._next += 1
            phase.attempted += 1
            start = time.perf_counter()
            try:
                if tracer is None:
                    pyramid, _record, pred = self._op(index)
                else:
                    pyramid, _record, pred = tracer.call("infer.call", self._op, index)
            except Exception:
                phase.failed += 1
                continue
            phase.add(time.perf_counter() - start, self.batch)
            if not _finite([t.data for t in pyramid + pred.cls_logits + pred.distances]):
                phase.failed += 1
        return phase

    def check(self) -> list[str]:
        """Route cost against the counting oracle (exact) and the pyramid
        against the oracle's projected features (1e-9), on seeded samples."""
        rng = np.random.default_rng([self.seed, 0xC4EC])
        samples = rng.choice(len(self.pixels), size=self.checked_samples, replace=False)
        errors = []
        net = self.model.supernet
        for sample in sorted(int(s) for s in samples):
            index, row = divmod(sample, self.batch)
            pyramid, record, _pred = self._op(index)
            masks = {n: m[row : row + 1] for n, m in record.masks.items()}
            algebra = costmodel.binary_route_cost(masks, self.table)[0]
            counted, final = costmodel.count_executed_madds(
                net, self.pixels[sample], {n: m[0] for n, m in masks.items()}
            )
            if algebra != float(counted):
                errors.append(f"sample {sample}: route cost {algebra!r} != counted {counted}")
            for s in range(net.spec.num_scales):
                w = net.params[f"proj.{s}.w"].data
                want = (np.einsum("oc,chw->ohw", w, final[s]) if s in final
                        else np.zeros_like(pyramid[s].data[row]))
                gap = float(np.max(np.abs(pyramid[s].data[row] - want)))
                if not gap <= 1e-9:
                    errors.append(f"sample {sample}: pyramid level {s} off by {gap:.3e}")
        return errors

    def digest(self) -> str:
        """Hash of the pyramid and head outputs for the first 16 images."""
        h = hashlib.sha256()
        for index in range(max(1, 16 // self.batch)):
            pyramid, _record, pred = self._op(index)
            for t in pyramid + pred.cls_logits + pred.distances:
                h.update(np.ascontiguousarray(t.data).tobytes())
        return h.hexdigest()[:16]


class InferB16Mixed(Infer):
    name = "infer-b16-mixed"
    tail_pct = 95

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir, batch=16)


class InferB1(Infer):
    name = "infer-b1"
    tail_pct = 99

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir, batch=1)


# ---------------------------------------------------------------------------
# eval-cli
# ---------------------------------------------------------------------------


class EvalCli:
    """In-process ``dynroute eval`` of a seeded, untrained checkpoint on a
    corpus written to disk (PGM images, JSONL annotations)."""

    name = "eval-cli"
    root_span = "cli.main"
    tail_pct = 70
    corpus_images = 128

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.reports: set[str] = set()

    def setup(self, tracer) -> None:
        config = _desk_config(self.seed, self.corpus_images)
        corpus = _generate(config, tracer)
        data_dir = self.workdir / "corpus"
        data_synth.save_corpus(corpus, data_dir)
        config["train"]["seed"] = EVAL_MODEL_SEED
        model = cli.model_from_config(config)
        ckpt = self.workdir / "model.ckpt"
        if tracer is None:
            trainer.save_model(ckpt, model, config)
        else:
            tracer.call("autodiff.ckpt_save", trainer.save_model, ckpt, model, config)
        self.report = self.workdir / "report.csv"
        self.argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir),
                     "--report", str(self.report)]
        self._op()

    def _op(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def run(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        deadline = time.perf_counter() + seconds
        while phase.attempted == 0 or time.perf_counter() < deadline:
            phase.attempted += 1
            self.report.unlink(missing_ok=True)
            start = time.perf_counter()
            try:
                code = self._op() if tracer is None else tracer.call("cli.main", self._op)
            except Exception:
                phase.failed += 1
                continue
            phase.add(time.perf_counter() - start, self.corpus_images)
            if code != 0 or self._report_errors():
                phase.failed += 1
        return phase

    def _report_errors(self) -> list[str]:
        """One row per image with a ratio in [0, 1]; the same bytes every time."""
        blob = self.report.read_bytes()
        self.reports.add(_sha(blob))
        rows = list(csv.reader(io.StringIO(blob.decode("ascii"))))
        header, body = rows[0], rows[1 : 1 + self.corpus_images]
        errors = []
        if header[-1] != "ratio" or len(rows) != self.corpus_images + 3:
            errors.append(f"report has {len(rows)} lines, expected {self.corpus_images + 3}")
        if [r[0] for r in body] != [str(i) for i in range(self.corpus_images)]:
            errors.append("report rows are not one per image in order")
        if not all(0.0 <= float(r[-1]) <= 1.0 for r in body):
            errors.append("a cost ratio lies outside [0, 1]")
        if len(self.reports) != 1:
            errors.append("repeated evals wrote different reports")
        return errors

    def check(self) -> list[str]:
        self.report.unlink(missing_ok=True)
        if self._op() != 0:
            return ["eval exited with an error"]
        return self._report_errors()

    def digest(self) -> str:
        return _sha(self.report.read_bytes())


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


WORKLOADS = {w.name: w for w in (TrainB8, InferB16Mixed, InferB1, EvalCli)}
