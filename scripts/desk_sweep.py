"""Desk sweep: the acceptance desk runs, judged on several seeds.

    python3 scripts/desk_sweep.py

Run from anywhere; it takes no options. For each model/train seed in
7-10 it trains the four configs of `desk_runs` in
tests/test_acceptance.py (12 epochs on the acceptance corpora: 512
training images of corpus seed 7, 128 eval images of corpus seed 1007),
two runs at a time, each in its own process with BLAS on one thread.
It then prints one row per seed with the measures the acceptance suite
reads off seed 7 alone:

    c5_gap    criterion 5's single- vs four-interval cost gap of
              scale_dynamic (passes at >= 10%)
    sd_std, fixed_std, la_std
              cost std of scale_dynamic, fixed and loss_aware; criterion
              5 also needs sd_std above fixed_std (ordered)
    spearman  occupied intervals against C_net under scale_dynamic (the
              trainer invariant needs it above 0)
    c6_gap    criterion 6's within- minus cross-group route cosine of
              scale_dynamic (passes at >= 0.02), and of its lambda2=0 twin
    passes    which of c5, rho (spearman > 0) and c6 pass at that seed

Four seeds take about 10-15 minutes on a 2-core host.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

SEEDS = (7, 8, 9, 10)
WORKERS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

for _var in THREAD_VARS:  # before numpy loads BLAS, here and in the workers
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import multiprocessing  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402

import numpy as np  # noqa: E402

from dynroute.data_synth import SynthConfig, generate_corpus  # noqa: E402
from dynroute.scale_budget import ScaleIntervals  # noqa: E402
from dynroute.supernet import SupernetSpec  # noqa: E402
from dynroute.trainer import EvalSummary, Model, TrainConfig, evaluate_routing, spearman, train  # noqa: E402

# the desk model, corpora and configs of tests/test_acceptance.py
DESK_SPEC = SupernetSpec()
DESK_INTERVALS = ScaleIntervals((8.0, 16.0, 32.0))
RUNS = ("fixed", "loss_aware", "scale_dynamic", "scale_dynamic_l2off")


def desk_config(name: str, seed: int) -> TrainConfig:
    return {
        "fixed": TrainConfig(budget_strategy="fixed", c0_ratio=0.1, seed=seed),
        "loss_aware": TrainConfig(budget_strategy="loss_aware", c0_ratio=0.05, seed=seed),
        "scale_dynamic": TrainConfig(budget_strategy="scale_dynamic", c0_ratio=0.05, seed=seed),
        "scale_dynamic_l2off": TrainConfig(
            budget_strategy="scale_dynamic", c0_ratio=0.05, lambda2=0.0, seed=seed
        ),
    }[name]


def desk_run(name: str, seed: int) -> EvalSummary:
    """Train one desk config at one seed and evaluate its routes."""
    train_corpus = generate_corpus(SynthConfig(image_size=64, num_images=512, seed=7))
    eval_corpus = generate_corpus(SynthConfig(image_size=64, num_images=128, seed=1007))
    model = Model(DESK_SPEC, DESK_INTERVALS, num_classes=2, tower_depth=2, seed=seed)
    train(model, desk_config(name, seed), train_corpus)
    return evaluate_routing(model, eval_corpus)


def seed_row(seed: int, runs: dict[str, EvalSummary]) -> str:
    sd, fx, la = runs["scale_dynamic"], runs["fixed"], runs["loss_aware"]
    off = runs["scale_dynamic_l2off"]
    costs = np.array(sd.sample_costs)
    counts = np.array([sum(p) for p in sd.patterns])
    with np.errstate(invalid="ignore", divide="ignore"):
        fours = costs[counts == 4].mean()
        c5_gap = (fours - costs[counts == 1].mean()) / fours
    c6_gap = sd.mean_within_cos - sd.mean_cross_cos
    rho = spearman(counts, costs)
    std_ordered = sd.std_madds > fx.std_madds
    passes = [
        "c5" if std_ordered and c5_gap >= 0.10 else "",
        "rho" if rho > 0 else "",
        "c6" if c6_gap >= 0.02 else "",
    ]
    return (
        f"{seed:>4}  {c5_gap * 100:+7.1f}%  {sd.std_madds:8.0f}  {fx.std_madds:9.0f}  "
        f"{la.std_madds:8.0f}  "
        f"{'yes' if std_ordered else 'no':>7}  {rho:+8.3f}  {c6_gap:+7.3f}  "
        f"{off.mean_within_cos - off.mean_cross_cos:+7.3f}  {' '.join(p for p in passes if p)}"
    )


def main() -> int:
    start = time.monotonic()
    jobs = [(name, seed) for seed in SEEDS for name in RUNS]
    with ProcessPoolExecutor(WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = {job: pool.submit(desk_run, *job) for job in jobs}
        summaries = {job: future.result() for job, future in futures.items()}
    print("seed    c5_gap    sd_std  fixed_std    la_std  ordered  spearman   c6_gap  (l2off)  passes")
    for seed in SEEDS:
        print(seed_row(seed, {name: summaries[(name, seed)] for name in RUNS}))
    print(f"{len(jobs)} runs in {time.monotonic() - start:.0f} s, {WORKERS} at a time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
