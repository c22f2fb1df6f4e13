"""Training loop behavior: schedules, warmup rules, determinism, eval."""

import dataclasses

import numpy as np
import pytest

from dynroute.autodiff import Tensor
from dynroute.config import load_config, synth_config_from, train_config_from
from dynroute.costmodel import count_executed_madds
from dynroute.data_synth import Corpus, SynthConfig, generate_corpus
from dynroute.errors import ConfigurationError
from dynroute.head_loss import DetectionHead
from dynroute.scale_budget import ScaleIntervals
from dynroute.supernet import SupernetSpec
from dynroute.trainer import (
    Model,
    TrainConfig,
    TrainingAborted,
    corpus_cost_table,
    evaluate_routing,
    group_cosine_stats,
    load_model,
    model_from_config,
    save_model,
    spearman,
    train,
)

SPEC = SupernetSpec()
INTERVALS = ScaleIntervals((8.0, 16.0, 32.0))


def _model(seed=0):
    return Model(SPEC, INTERVALS, num_classes=2, tower_depth=2, seed=seed)


@pytest.fixture(scope="module")
def corpus64():
    return generate_corpus(SynthConfig(image_size=64, num_images=64, seed=4))


class TestConfigValidation:
    def test_lr_drops_must_fit(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=4, lr_drop_epochs=(8,)).validate()

    def test_similarity_needs_pairs(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(batch_size=1, lambda2=1.0, lr_drop_epochs=()).validate()
        TrainConfig(batch_size=1, lambda2=0.0, epochs=1, lr_drop_epochs=()).validate()


class TestTrainingLoop:
    def test_detection_only_loss_decreases(self, corpus64):
        """Plain detection training trends downward over 200 steps."""
        model = _model(seed=1)
        cfg = TrainConfig(
            batch_size=8, epochs=25, lr_drop_epochs=(), lambda1=0.0, lambda2=0.0,
            seed=1, pretrain_epochs=0,
        )
        result = train(model, cfg, corpus64)
        dets = [r["L_det"] for r in result.log]
        assert len(dets) == 200
        assert np.mean(dets[-20:]) < np.mean(dets[:20])

    def test_first_epoch_regularizers_zero(self, corpus64):
        model = _model(seed=2)
        cfg = TrainConfig(batch_size=8, epochs=2, lr_drop_epochs=(), seed=2, pretrain_epochs=1)
        result = train(model, cfg, corpus64)
        epoch0 = [r for r in result.log if r["epoch"] == 0]
        assert epoch0 and all(
            r["L_global"] == 0.0 and r["mean_Cnet_ratio"] == 1.0 for r in epoch0
        )
        epoch1 = [r for r in result.log if r["epoch"] == 1]
        assert epoch1
        assert all(r["L_global"] == 0.0 and r["L_local"] == 0.0 for r in epoch1)
        epoch2 = [r for r in result.log if r["epoch"] == 2]
        assert any(r["L_global"] > 0.0 for r in epoch2)

    def test_lr_schedule_drops_by_ten(self, corpus64):
        model = _model(seed=3)
        cfg = TrainConfig(
            batch_size=8, epochs=4, lr_drop_epochs=(2, 3), seed=3,
            lr_warmup_steps=0, lambda2=0.0, lambda1=0.0, pretrain_epochs=0,
        )
        result = train(model, cfg, corpus64)
        by_epoch = {}
        for r in result.log:
            if r["epoch"] >= 1:
                by_epoch.setdefault(r["epoch"], set()).add(r["lr"])
        assert all(len(v) == 1 for v in by_epoch.values())
        lr = {e: next(iter(v)) for e, v in by_epoch.items()}
        assert lr[1] == lr[2] == 0.01
        assert lr[2] / lr[3] == pytest.approx(10.0, rel=1e-12)
        assert lr[3] / lr[4] == pytest.approx(10.0, rel=1e-12)

    def test_warmup_ramps_lr_inside_first_steps(self, corpus64):
        model = _model(seed=4)
        cfg = TrainConfig(
            batch_size=8, epochs=1, lr_drop_epochs=(), seed=4, lr_warmup_steps=4,
            lambda1=0.0, lambda2=0.0, pretrain_epochs=0,
        )
        result = train(model, cfg, corpus64)
        lrs = [r["lr"] for r in result.log]
        assert lrs[0] == pytest.approx(0.001)
        assert lrs[4] == pytest.approx(0.01)
        assert all(b >= a for a, b in zip(lrs, lrs[1:]))

    def test_identical_seed_identical_loss_curve(self, corpus64):
        cfg = TrainConfig(batch_size=8, epochs=2, lr_drop_epochs=(), seed=5, pretrain_epochs=1)
        log_a = train(_model(seed=9), cfg, corpus64).log
        log_b = train(_model(seed=9), cfg, corpus64).log
        assert log_a == log_b

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_aborts_with_last_good_checkpoint(self, corpus64):
        model = _model(seed=6)
        cfg = TrainConfig(
            batch_size=8, epochs=3, lr_drop_epochs=(), base_lr=1e9,
            clip_grad_norm=0.0, lr_warmup_steps=0, seed=6, pretrain_epochs=0,
        )
        with pytest.raises(TrainingAborted) as excinfo:
            train(model, cfg, corpus64)
        aborted = excinfo.value
        assert aborted.last_good  # parameters from before the failure
        assert isinstance(aborted.log, list)

    def test_loss_aware_strategy_runs(self, corpus64):
        model = _model(seed=7)
        cfg = TrainConfig(
            batch_size=8, epochs=2, lr_drop_epochs=(), seed=7,
            budget_strategy="loss_aware", pretrain_epochs=0,
        )
        result = train(model, cfg, corpus64)
        assert len(result.log) == 16

    def test_similarity_bounds_reach_local_loss(self, corpus64):
        """The config's similarity section sets the targets of L_local."""
        eight = Corpus(images=corpus64.images[:8], annotations=corpus64.annotations[:8])
        losses = []
        for max_sim in (0.95, 0.7):
            config = load_config(None)
            config["similarity"]["max_sim"] = max_sim
            cfg = dataclasses.replace(
                train_config_from(config), epochs=1, lr_drop_epochs=(), seed=3,
                regularizer_warmup_epochs=0,
            )
            (step,) = train(_model(seed=3), cfg, eight).log
            losses.append(step["L_local"])
        assert losses[0] > 0 and losses[1] > 0 and losses[0] != losses[1]

    def test_distinct_inputs_distinct_gates_after_training(self, corpus64):
        """Routers respond to content once trained with dynamic budgets."""
        model = _model(seed=8)
        cfg = TrainConfig(batch_size=8, epochs=4, lr_drop_epochs=(), seed=8, pretrain_epochs=2)
        train(model, cfg, corpus64)
        from dynroute.autodiff import Tensor

        a = Tensor(corpus64.images[0:1, None].astype(np.float64) / 255.0)
        b = Tensor(corpus64.images[1:2, None].astype(np.float64) / 255.0)
        _, ra = model.supernet.forward(a, mode="infer")
        _, rb = model.supernet.forward(b, mode="infer")
        assert not np.allclose(ra.route_vectors(), rb.route_vectors())


class TestEvaluateRouting:
    def test_constant_router_zero_std(self, corpus64):
        model = _model(seed=0)
        for n in model.supernet.nodes:
            model.supernet.params[f"node.{n.layer}.{n.scale}.router.fc_w"].data[:] = 0.0
        summary = evaluate_routing(model, corpus64)
        assert summary.std_madds == 0.0
        assert summary.max_madds == summary.min_madds

    def test_summary_fields_consistent(self, corpus64):
        model = _model(seed=1)
        summary = evaluate_routing(model, corpus64)
        arr = np.array(summary.sample_costs)
        assert summary.mean_madds == pytest.approx(arr.mean())
        assert summary.std_madds >= 0
        assert len(summary.patterns) == len(corpus64)
        assert 0 <= summary.mean_within_cos <= 1
        csv = summary.to_csv()
        assert "mean_madds,max_madds,min_madds,std_madds" in csv
        assert csv.count("\n") == len(corpus64) + 3

    def test_eval_reproducible(self, corpus64):
        model = _model(seed=2)
        a = evaluate_routing(model, corpus64)
        b = evaluate_routing(model, corpus64)
        assert a.to_csv() == b.to_csv()

    def test_eval_after_training_equals_eval_of_its_checkpoint(self, tmp_path, monkeypatch):
        """The head's zero-level memo, filled by an eval before training,
        is emptied by the optimizer steps: an eval in the same process
        writes the bytes of an eval of the saved and reloaded state."""
        zero_rows = []
        head_forward = DetectionHead.forward

        def counted(head, pyramid, geometry):
            zero_rows.append(sum(int((~t.data.any(axis=(1, 2, 3))).sum()) for t in pyramid))
            return head_forward(head, pyramid, geometry)

        monkeypatch.setattr(DetectionHead, "forward", counted)
        config = load_config(None)
        config["supernet"].update(num_layers=4, channels_per_scale=[4, 8, 16, 32], head_channels=8)
        config["data"].update(num_images=16, seed=3)
        config["train"].update(epochs=1, batch_size=4, lr_drop_epochs=[], seed=3, pretrain_epochs=1)
        corpus = generate_corpus(synth_config_from(config))
        model = model_from_config(config)
        before = evaluate_routing(model, corpus).to_csv()
        untrained_zero_rows = sum(zero_rows)
        train(model, train_config_from(config), corpus)
        zero_rows.clear()
        after = evaluate_routing(model, corpus).to_csv()
        save_model(tmp_path / "model.ckpt", model, config)
        loaded, _ = load_model(tmp_path / "model.ckpt")
        assert evaluate_routing(loaded, corpus).to_csv() == after
        assert after != before
        # both evals of the trained state read zero levels, as the untrained
        # eval that filled the memo did
        assert untrained_zero_rows > 0
        assert len(zero_rows) == 2 and zero_rows[0] == zero_rows[1] > 0


class TestNonSquareCorpus:
    def test_each_image_is_billed_what_it_executes(self):
        """On a 64x128 corpus (the 4-image seed-1 desk corpus, each image
        doubled in width) the cost table has the corpus's height and
        width, every image's C_net equals the MAdds the independent
        executor counts on its route, and a training step runs."""
        config = load_config(None)
        config["data"].update(num_images=4, seed=1)
        square = generate_corpus(synth_config_from(config))
        corpus = Corpus(np.concatenate([square.images] * 2, axis=2), square.annotations)
        model = model_from_config(config)
        summary = evaluate_routing(model, corpus)
        for i, cost in enumerate(summary.sample_costs):
            image = corpus.images[i : i + 1].astype(np.float64) / 255.0
            _, record = model.supernet.forward(Tensor(image[None]), mode="infer")
            counted, _ = count_executed_madds(
                model.supernet, image, {n: m[0] for n, m in record.masks.items()}
            )
            assert cost == counted
        table = corpus_cost_table(model, corpus)
        assert (table.input_h, table.input_w) == (64, 128)
        config["train"].update(epochs=1, batch_size=4, lr_drop_epochs=[], regularizer_warmup_epochs=0)
        log = train(model, train_config_from(config), corpus).log
        assert len(log) == 1 and log[0]["L_global"] > 0


class TestStatistics:
    def test_group_cosine_prefers_identical_rows(self):
        routes = np.array([
            [1.0, 0.0, 0.2], [1.0, 0.0, 0.2],  # group A, identical
            [0.0, 1.0, 0.4], [0.1, 0.9, 0.3],  # group B, near-identical
        ])
        patterns = [(1, 0), (1, 0), (0, 1), (0, 1)]
        within, cross = group_cosine_stats(routes, patterns)
        assert within > cross

    def test_group_needs_two_members(self):
        routes = np.eye(3)
        within, cross = group_cosine_stats(routes, [(1, 0), (0, 1), (1, 1)])
        assert within == 0.0  # no group has 2 members
        assert cross == pytest.approx(0.0)

    @staticmethod
    def _group_cosine_loop(routes, patterns):
        """Reference: the pairwise loop over sample pairs."""
        norms = np.linalg.norm(routes, axis=1)
        unit = routes / np.where(norms == 0, 1.0, norms)[:, None]
        gram = unit @ unit.T
        n = len(patterns)
        same = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                same[i, j] = patterns[i] == patterns[j]
        upper = np.triu(np.ones((n, n), dtype=bool), k=1)
        within, cross = gram[same & upper], gram[~same & upper]
        return (
            float(within.mean()) if within.size else 0.0,
            float(cross.mean()) if cross.size else 0.0,
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_group_cosine_equals_the_pairwise_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 48))
        routes = rng.normal(size=(n, 7))
        routes[rng.random(n) < 0.1] = 0.0  # zero-norm rows
        # seed 0: every pattern distinct, so no within-group pair at all
        bits = np.eye(n, dtype=int) if seed == 0 else rng.integers(0, 2, size=(n, 4))
        patterns = [tuple(int(v) for v in row) for row in bits]
        counts = {p: patterns.count(p) for p in patterns}
        assert seed == 0 or 1 in counts.values()  # single-member groups occur
        got = group_cosine_stats(routes, patterns)
        assert got == self._group_cosine_loop(routes, patterns)

    def test_spearman_monotone_and_ties(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)
        assert abs(spearman([1, 1, 2, 2], [5, 5, 9, 9])) == pytest.approx(1.0)
        assert spearman([1, 1, 1], [2, 5, 9]) == 0.0
