"""The three file parsers on damaged input: checkpoint, PGM, JSONL.

Any truncation or single-byte change of a valid file either still loads
or raises a DynrouteError, which the CLI turns into exit code 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dynroute.autodiff as ad
from dynroute.data_synth import SynthConfig, generate_corpus, load_corpus, read_pgm, save_corpus
from dynroute.errors import DataError, DynrouteError, UsageError

CORRUPTIONS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True), st.just(0)),
    st.tuples(st.just("replace"), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 255)),
)


def corrupt(blob: bytes, corruption) -> bytes:
    """blob cut at a relative position, or with the byte there replaced."""
    kind, where, value = corruption
    pos = int(where * len(blob))
    if kind == "truncate":
        return blob[:pos]
    return blob[:pos] + bytes([value]) + blob[pos + 1 :]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("parsers")
    mix = (((1, 0, 0, 0), 0.5), ((0, 1, 0, 0), 0.5))
    corpus = generate_corpus(SynthConfig(image_size=16, num_images=3, seed=1, scale_mix=mix))
    save_corpus(corpus, root / "corpus")
    ad.save_checkpoint(
        root / "model.ckpt",
        {"a.w": np.arange(12.0).reshape(3, 4), "b": np.ones(2), "s": np.float64(2.5).reshape(())},
        {"config": {"x": 1}},
    )
    return root


def _loads_or_typed_error(load, path, blob):
    path.write_bytes(blob)
    try:
        load(path)
    except DynrouteError:
        pass


@settings(max_examples=200, deadline=None)
@given(corruption=CORRUPTIONS)
def test_checkpoint(corpus_dir, corruption):
    blob = (corpus_dir / "model.ckpt").read_bytes()
    _loads_or_typed_error(ad.load_checkpoint, corpus_dir / "bad.ckpt", corrupt(blob, corruption))


@settings(max_examples=200, deadline=None)
@given(corruption=CORRUPTIONS)
def test_pgm(corpus_dir, corruption):
    blob = (corpus_dir / "corpus" / "images" / "img_00000.pgm").read_bytes()
    _loads_or_typed_error(read_pgm, corpus_dir / "bad.pgm", corrupt(blob, corruption))


@settings(max_examples=200, deadline=None)
@given(corruption=CORRUPTIONS)
def test_annotations_jsonl(corpus_dir, corruption):
    good = corpus_dir / "corpus" / "annotations.jsonl"
    blob = good.read_bytes()
    try:
        _loads_or_typed_error(
            lambda path: load_corpus(path.parent), good, corrupt(blob, corruption)
        )
    finally:
        good.write_bytes(blob)


@settings(max_examples=100, deadline=None)
@given(w=st.integers(1, 40), h=st.integers(1, 40))
def test_pgm_header_size_must_match_pixel_count(corpus_dir, w, h):
    """A 16x16 PGM whose header size was rewritten loads only when the
    new size holds exactly its 256 pixels; any other size, smaller or
    larger, is a DataError."""
    blob = (corpus_dir / "corpus" / "images" / "img_00000.pgm").read_bytes()
    assert blob.startswith(b"P5\n16 16\n255\n")
    path = corpus_dir / "resized.pgm"
    path.write_bytes(blob.replace(b"16 16", f"{w} {h}".encode(), 1))
    if w * h == 16 * 16:
        assert read_pgm(path).shape == (h, w)
    else:
        with pytest.raises(DataError, match="malformed"):
            read_pgm(path)


@pytest.mark.parametrize(
    "name, blob, load, error",
    [
        ("model.ckpt", b"DYNROUTE-CKPT-1\narrays 1\nw 4\nend\n" + bytes(8), ad.load_checkpoint, UsageError),
        ("img.pgm", b"P5\n4 4\n", read_pgm, DataError),
        pytest.param(
            "img.pgm", b"P5\n4 3\n255\n" + bytes(16), read_pgm, DataError, id="pgm-16-bytes-for-4x3"
        ),
        # no pixels: the header's size holds its 0 bytes, but no net can run it
        pytest.param("img.pgm", b"P5\n0 0\n255\n", read_pgm, DataError, id="pgm-0x0"),
        pytest.param("img.pgm", b"P5\n0 4\n255\n", read_pgm, DataError, id="pgm-0x4"),
        *(
            pytest.param(
                "annotations.jsonl",
                b'{"image_id": 0, "boxes": [' + box + b"]}\n",
                lambda path: load_corpus(path.parent),
                DataError,
                id=f"box-{name}",
            )
            for name, box in [
                ("nan-width", b"[1, 2, NaN, 4, 0]"),
                ("infinite-x", b"[Infinity, 2, 3, 4, 0]"),
                ("negative-infinite-h", b"[1, 2, 3, -Infinity, 1]"),
                ("boolean-y", b"[1, true, 3, 4, 0]"),
                ("boolean-class", b"[1, 2, 3, 4, false]"),
                ("zero-width", b"[1, 2, 0, 4, 0]"),
                ("negative-height", b"[1, 2, 3, -4, 1]"),
                ("class-7", b"[1, 2, 3, 4, 7]"),
                ("class-minus-1", b"[1, 2, 3, 4, -1]"),
                ("fractional-class", b"[1, 2, 3, 4, 0.5]"),
                ("float-class", b"[1, 2, 3, 4, 1.0]"),
                ("huge-integer-x", b"[1" + b"0" * 400 + b", 2, 3, 4, 0]"),
            ]
        ),
        *(
            pytest.param(
                "annotations.jsonl", blob, lambda path: load_corpus(path.parent), DataError, id=name
            )
            for name, blob in [
                ("duplicate-image-id", b'{"image_id": 0, "boxes": []}\n{"image_id": 0, "boxes": []}\n'),
                ("boolean-image-id", b'{"image_id": 0, "boxes": []}\n{"image_id": true, "boxes": []}\n'),
            ]
        ),
    ],
)
def test_known_damage_raises_typed_error(tmp_path, name, blob, load, error):
    (tmp_path / name).write_bytes(blob)
    with pytest.raises(error, match="malformed"):
        load(tmp_path / name)


def test_malformed_jsonl_line_is_data_error(tmp_path):
    (tmp_path / "images").mkdir()
    (tmp_path / "annotations.jsonl").write_text('{"image_id": 0, "boxes": [}\n')
    with pytest.raises(DataError, match="annotations.jsonl"):
        load_corpus(tmp_path)
