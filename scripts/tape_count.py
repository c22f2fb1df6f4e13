"""Tape count: tape entries per training step, in total and by op.

    python3 scripts/tape_count.py

Run from anywhere; it takes no options. With BLAS on one thread and
DYNROUTE_SEED unset, it trains the default desk model on a 128-image
corpus of the default data config (seed 7) for 2 epochs of 16 steps;
the regularizers join in the second epoch. It prints, per epoch:

    tape/step   the mean tape length per step, read as len(tape) when
                Tape.backward starts (perfbench's autodiff.tape_ops)
    <op>        the tape entries per step that op recorded, named after
                the function that called record, as perfbench names
                backward time; the rows sum to tape/step
    by module   then the same entries by the dynroute module whose code
                called the op (supernet, costmodel, scale_budget,
                similarity, head_loss, trainer); these rows also sum to
                tape/step

Every step has its own tape, so these are exact counts over a fixed set
of steps: two commits that record the same entries print the same
numbers. It takes a few seconds on a 2-core host.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

for _var in THREAD_VARS:  # before numpy loads BLAS
    os.environ[_var] = "1"
os.environ.pop("DYNROUTE_SEED", None)  # it would override the corpus and train seeds
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dynroute.autodiff as ad  # noqa: E402
from dynroute.autodiff import ops as ad_ops  # noqa: E402
from dynroute.autodiff import tensor as ad_tensor  # noqa: E402
from dynroute.config import load_config, synth_config_from, train_config_from  # noqa: E402
from dynroute.data_synth import generate_corpus  # noqa: E402
from dynroute.trainer import model_from_config, train  # noqa: E402

NUM_IMAGES = 128
EPOCHS = 2


def _calling_module(frame) -> str:
    """The first dynroute module outside autodiff up the call stack from
    frame (the op's own frame: an op defined outside autodiff counts
    under its own module), without its package prefix."""
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.startswith("dynroute.") and not name.startswith("dynroute.autodiff"):
            return name[len("dynroute."):]
        frame = frame.f_back
    return "other"


class _Counter:
    """Wraps record and Tape.backward: per tape, its length when backward
    starts, its entries by recording op and by calling module."""

    def __init__(self):
        self.tapes: list[tuple[int, Counter, Counter]] = []
        self._ops: Counter = Counter()
        self._modules: Counter = Counter()
        orig_record = ad_tensor.record
        orig_backward = ad.Tape.backward

        def counting_record(inputs, out_data, backward):
            tape = ad.active_tape()
            before = len(tape) if tape is not None else 0
            out = orig_record(inputs, out_data, backward)
            if tape is not None and len(tape) > before:
                op = sys._getframe(1)
                self._ops[op.f_code.co_name] += 1
                self._modules[_calling_module(op)] += 1
            return out

        def counting_backward(tape, loss):
            self.tapes.append((len(tape), self._ops, self._modules))
            self._ops, self._modules = Counter(), Counter()
            return orig_backward(tape, loss)

        ad_tensor.record = ad_ops.record = counting_record
        ad.Tape.backward = counting_backward


def main() -> int:
    config = load_config(None)
    config["data"]["num_images"] = NUM_IMAGES
    config["train"]["epochs"] = EPOCHS
    config["train"]["lr_drop_epochs"] = []
    corpus = generate_corpus(synth_config_from(config))
    model = model_from_config(config)
    counter = _Counter()
    log = train(model, train_config_from(config), corpus).log
    assert len(counter.tapes) == len(log)

    epochs = sorted({rec["epoch"] for rec in log})
    lengths: dict[int, list[int]] = defaultdict(list)
    ops: dict[int, Counter] = defaultdict(Counter)
    modules: dict[int, Counter] = defaultdict(Counter)
    for rec, (n, op_counts, module_counts) in zip(log, counter.tapes):
        assert sum(op_counts.values()) == sum(module_counts.values()) == n
        lengths[rec["epoch"]].append(n)
        ops[rec["epoch"]].update(op_counts)
        modules[rec["epoch"]].update(module_counts)

    def by_count(counts: dict[int, Counter]) -> list[str]:
        total = sum(counts.values(), Counter())
        return sorted(total, key=lambda name: (-total[name], name))

    op_names, module_names = by_count(ops), by_count(modules)
    width = max(len(name) for name in op_names + module_names + ["tape/step"])

    def row(label, values):
        print(f"{label:<{width}}" + "".join(f"{v:>12}" for v in values))

    def per_step(counts: dict[int, Counter], names: list[str]) -> None:
        for name in names:
            row(name, [f"{counts[e][name] / len(lengths[e]):.2f}" for e in epochs])

    row("epoch", epochs)
    row("steps", [len(lengths[e]) for e in epochs])
    row("tape/step", [f"{sum(lengths[e]) / len(lengths[e]):.2f}" for e in epochs])
    per_step(ops, op_names)
    print("by module")
    per_step(modules, module_names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
