"""Synthetic corpus generation: determinism, round-trip, distributions."""

import numpy as np
import pytest

from dynroute.data_synth import (
    Corpus,
    SynthConfig,
    generate_corpus,
    load_corpus,
    read_pgm,
    save_corpus,
    write_pgm,
)
from dynroute.errors import ConfigurationError
from dynroute.scale_budget import ScaleIntervals, encode_scales

SMALL = SynthConfig(image_size=64, num_images=24, seed=11)


class TestGeneration:
    def test_same_seed_identical_corpus(self):
        a = generate_corpus(SMALL)
        b = generate_corpus(SMALL)
        np.testing.assert_array_equal(a.images, b.images)
        assert a.annotations == b.annotations

    def test_different_seed_differs(self):
        a = generate_corpus(SMALL)
        b = generate_corpus(SynthConfig(image_size=64, num_images=24, seed=12))
        assert not np.array_equal(a.images, b.images)

    def test_roundtrip_every_pattern(self):
        """Re-encoding annotations reproduces the sampled pattern, always."""
        corpus = generate_corpus(SynthConfig(image_size=64, num_images=64, seed=3))
        intervals = ScaleIntervals((8.0, 16.0, 32.0))
        for i in range(len(corpus)):
            got = tuple(encode_scales(corpus.boxes_hw(i), intervals))
            assert got == corpus.patterns[i], f"image {i}"

    def test_single_interval_pattern_constrains_sizes(self):
        cfg = SynthConfig(
            image_size=64, num_images=16, seed=1,
            scale_mix=(((1, 0, 0, 0), 1.0),),
        )
        corpus = generate_corpus(cfg)
        for i in range(len(corpus)):
            assert corpus.annotations[i]["boxes"], "pattern requires at least one box"
            for b in corpus.annotations[i]["boxes"]:
                assert max(b[2], b[3]) <= 8

    def test_unrealizable_pattern_rejected(self):
        with pytest.raises(ConfigurationError, match="unrealizable"):
            SynthConfig(
                image_size=16, num_images=4, seed=1,
                scale_mix=(((0, 0, 1, 0), 1.0),),  # needs sides 17..32 on a 16px canvas
            )

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="sum"):
            generate_corpus(
                SynthConfig(image_size=64, num_images=2, scale_mix=(((1, 0, 0, 0), 0.4),))
            )

    def test_pattern_frequencies_within_3_sigma(self):
        n = 400
        p = 0.25
        cfg = SynthConfig(
            image_size=64, num_images=n, seed=5,
            scale_mix=(
                ((1, 0, 0, 0), 0.25),
                ((0, 1, 0, 0), 0.25),
                ((0, 0, 1, 0), 0.25),
                ((1, 1, 1, 1), 0.25),
            ),
        )
        corpus = generate_corpus(cfg)
        counts = {}
        for pat in corpus.patterns:
            counts[pat] = counts.get(pat, 0) + 1
        sigma = np.sqrt(n * p * (1 - p))
        for pat, count in counts.items():
            assert abs(count - n * p) <= 3 * sigma, (pat, count)

    def test_class_balance_within_3_sigma(self):
        corpus = generate_corpus(SynthConfig(image_size=64, num_images=200, seed=9))
        classes = [b[4] for rec in corpus.annotations for b in rec["boxes"]]
        n = len(classes)
        rects = classes.count(0)
        sigma = np.sqrt(n * 0.25)
        assert abs(rects - n / 2) <= 3 * sigma

    def test_images_have_shape_content_and_noise(self):
        corpus = generate_corpus(SMALL)
        img = corpus.images[0].astype(float)
        assert img.max() > 60  # a drawn shape is much brighter than background
        assert img.std() > 1.0


class TestDiskFormat:
    def test_pgm_roundtrip(self, tmp_path):
        img = np.random.default_rng(0).integers(0, 256, (32, 48), dtype=np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)
        assert path.read_bytes().startswith(b"P5\n48 32\n255\n")

    def test_corpus_roundtrip(self, tmp_path):
        corpus = generate_corpus(SynthConfig(image_size=64, num_images=6, seed=2))
        save_corpus(corpus, tmp_path)
        loaded = load_corpus(tmp_path)
        np.testing.assert_array_equal(loaded.images, corpus.images)
        assert loaded.annotations == corpus.annotations

    def test_save_twice_identical_bytes(self, tmp_path):
        corpus = generate_corpus(SynthConfig(image_size=64, num_images=4, seed=2))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        save_corpus(corpus, d1)
        save_corpus(corpus, d2)
        assert (d1 / "annotations.jsonl").read_bytes() == (d2 / "annotations.jsonl").read_bytes()
        for i in range(4):
            f = f"images/img_{i:05d}.pgm"
            assert (d1 / f).read_bytes() == (d2 / f).read_bytes()
