"""Autodiff core: forward oracles, gradient checks, tape semantics."""

import contextlib

import numpy as np
import pytest

import dynroute.autodiff as ad
from dynroute.autodiff import Tape, Tensor, grad_check, ops
from dynroute.autodiff.tensor import _unbroadcast, record
from dynroute.costmodel import CostConstants, NodeCost, network_cost
from dynroute.errors import ConfigurationError, UsageError
from dynroute.head_loss import LossWeights, _distances, _focal_loss, _iou_loss, total_loss
from dynroute.scale_budget import global_budget_loss
from dynroute.similarity import (
    SimilarityConfig,
    gt_similarity,
    local_similarity_loss,
    scale_similarity,
)
from dynroute.supernet import NodeId, SupernetSpec, path_mean


def test_add_identity():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    out = ad.add(x, Tensor(np.zeros((3, 4))))
    np.testing.assert_array_equal(out.data, x.data)


def test_upsample_of_constant_is_constant():
    x = Tensor(np.full((1, 2, 3, 5), 0.7))
    out = ad.bilinear_upsample_2x(x)
    assert out.data.shape == (1, 2, 6, 10)
    np.testing.assert_allclose(out.data, 0.7, atol=1e-15)


def test_upsample_matches_per_pixel_reference():
    """Direct per-pixel bilinear sampling, align-corners-false."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 1, 4, 3))
    out = ad.bilinear_upsample_2x(Tensor(x)).data

    def sample(img, fy, fx):
        h, w = img.shape
        y0 = int(np.floor(fy))
        x0 = int(np.floor(fx))
        wy = fy - y0
        wx = fx - x0
        y0c, y1c = np.clip([y0, y0 + 1], 0, h - 1)
        x0c, x1c = np.clip([x0, x0 + 1], 0, w - 1)
        top = img[y0c, x0c] * (1 - wx) + img[y0c, x1c] * wx
        bot = img[y1c, x0c] * (1 - wx) + img[y1c, x1c] * wx
        return top * (1 - wy) + bot * wy

    for i in range(8):
        for j in range(6):
            want = sample(x[0, 0], (i + 0.5) / 2 - 0.5, (j + 0.5) / 2 - 0.5)
            assert abs(out[0, 0, i, j] - want) < 1e-12


def test_conv1x1_hand_matmul_oracle():
    """1x2x2x2 input with a known 3x2 weight, evaluated by direct dots."""
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]])
    w = np.array([[1.0, 0.5], [-1.0, 2.0], [0.0, 3.0]])
    out = ad.conv2d_1x1(Tensor(x), Tensor(w)).data
    expected = np.zeros((1, 3, 2, 2))
    for o in range(3):
        for i in range(2):
            for j in range(2):
                expected[0, o, i, j] = sum(w[o, c] * x[0, c, i, j] for c in range(2))
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_conv1x1_stride2_shape():
    x = Tensor(np.random.default_rng(1).normal(size=(2, 4, 8, 8)))
    w = Tensor(np.random.default_rng(2).normal(size=(6, 4)))
    assert ad.conv2d_1x1(x, w, stride=2).data.shape == (2, 6, 4, 4)


def test_sepconv_matches_bruteforce_loops():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 3, 5, 4))
    w_dw = rng.normal(size=(3, 3, 3))
    w_pw = rng.normal(size=(2, 3))
    b = rng.normal(size=2)
    out = ad.depthwise_separable_conv3x3(
        Tensor(x), Tensor(w_dw), Tensor(w_pw), Tensor(b), stride=1
    ).data

    xp = np.zeros((1, 3, 7, 6))
    xp[:, :, 1:6, 1:5] = x
    t = np.zeros((1, 3, 5, 4))
    for c in range(3):
        for i in range(5):
            for j in range(4):
                acc = 0.0
                for u in range(3):
                    for v in range(3):
                        acc += w_dw[c, u, v] * xp[0, c, i + u, j + v]
                t[0, c, i, j] = acc
    want = np.einsum("oc,bchw->bohw", w_pw, t) + b[None, :, None, None]
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_sepconv_stride2_output_size():
    x = Tensor(np.zeros((1, 2, 8, 8)))
    w_dw = Tensor(np.zeros((2, 3, 3)))
    w_pw = Tensor(np.zeros((5, 2)))
    assert ad.depthwise_separable_conv3x3(x, w_dw, w_pw, stride=2).data.shape == (1, 5, 4, 4)
    x1 = Tensor(np.zeros((1, 2, 1, 1)))
    assert ad.depthwise_separable_conv3x3(x1, w_dw, w_pw, stride=2).data.shape == (1, 5, 1, 1)


def _pointwise_case(batch, hw, upsampled, seed=0):
    """Input and weights for both pointwise convs; an upsampled input is
    not C-contiguous."""
    rng = np.random.default_rng(seed)
    h, w = (hw[0] // 2, hw[1] // 2) if upsampled else hw
    x = Tensor(rng.normal(size=(batch, 4, h, w)))
    if upsampled:
        x = ad.bilinear_upsample_2x(x)
    shapes = ((6, 4), (4, 3, 3), (5, 4), (5,))
    return x, [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]


def _pointwise_convs(x, params, stride):
    w, w_dw, w_pw, b = params
    return (
        ad.conv2d_1x1(x, w, stride=stride).data,
        ad.depthwise_separable_conv3x3(x, w_dw, w_pw, b, stride=stride).data,
    )


POINTWISE_CASES = [
    (batch, hw, upsampled, stride)
    for batch in (1, 16)
    for hw, upsampled in (((1, 1), False), ((5, 6), False), ((8, 6), True))
    for stride in (1, 2)
]


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("upsampled", [False, True])
def test_taped_pointwise_convs_equal_the_einsum_formula(stride, upsampled):
    """Training rounds as the einsum does, bit for bit."""
    x, params = _pointwise_case(3, (6, 8), upsampled)
    w, w_dw, w_pw, b = (p.data for p in params)
    with Tape():
        conv, sep = _pointwise_convs(x, params, stride)
    want = np.einsum("oc,bchw->bohw", w, x.data[:, :, ::stride, ::stride])
    assert np.array_equal(conv, want) and conv.strides == want.strides
    B, C, H, W = x.data.shape
    xp = np.zeros((B, C, H + 2, W + 2))
    xp[:, :, 1 : 1 + H, 1 : 1 + W] = x.data
    oh, ow = (H - 1) // stride + 1, (W - 1) // stride + 1
    t = np.zeros((B, C, oh, ow))
    for u in range(3):
        for v in range(3):
            tap = xp[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride]
            t += w_dw[:, u, v][None, :, None, None] * tap
    want = np.einsum("oc,bchw->bohw", w_pw, t) + b[None, :, None, None]
    assert np.array_equal(sep, want) and sep.strides == want.strides


@pytest.mark.parametrize("batch,hw,upsampled,stride", POINTWISE_CASES)
def test_tapeless_pointwise_convs_match_taped_within_rounding(batch, hw, upsampled, stride):
    x, params = _pointwise_case(batch, hw, upsampled)
    free = _pointwise_convs(x, params, stride)
    with Tape():
        taped = _pointwise_convs(x, params, stride)
    for got, want in zip(free, taped):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert got.flags.c_contiguous
        # einsum lays its output out like its input: the conv2d_1x1 of an
        # upsampled map comes out in that map's transposed layout
        if want.flags.c_contiguous:
            assert got.strides == want.strides


@pytest.mark.parametrize(
    "batch,hw,upsampled,stride",
    [c for c in POINTWISE_CASES if c[0] > 1] + [(16, (1, 5), False, 1), (16, (4, 1), False, 2)],
)
def test_tapeless_batch_equals_its_batch1_calls(batch, hw, upsampled, stride):
    x, params = _pointwise_case(batch, hw, upsampled)
    full = _pointwise_convs(x, params, stride)
    for b in range(batch):
        alone = _pointwise_convs(Tensor(x.data[b : b + 1]), params, stride)
        for got, want in zip(full, alone):
            assert np.array_equal(got[b : b + 1], want)


def _slice_formula_taps(x, w_dw, stride):
    """The nine strided-slice multiply-adds of a 3x3 depthwise conv on a
    zero-padded NCHW copy."""
    B, C, H, W = x.shape
    xp = np.zeros((B, C, H + 2, W + 2))
    xp[:, :, 1 : 1 + H, 1 : 1 + W] = x
    oh, ow = (H - 1) // stride + 1, (W - 1) // stride + 1
    t = np.zeros((B, C, oh, ow))
    for u in range(3):
        for v in range(3):
            tap = xp[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride]
            t += w_dw[:, u, v][None, :, None, None] * tap
    return t


def _with_signed_zeros(a, rng):
    """Overwrite about a fifth of a's entries (in place) with +0.0 and -0.0."""
    a[rng.random(a.shape) < 0.1] = 0.0
    a[rng.random(a.shape) < 0.1] = -0.0
    return a


def _tap_features(batch, channels, hw, layout, rng):
    h, w = hw
    if layout == "c_order":
        x = rng.normal(size=(batch, channels, h, w))
    elif layout == "upsampled":  # bilinear_upsample_2x's transposed layout
        small = Tensor(rng.normal(size=(batch, channels, (h + 1) // 2, (w + 1) // 2)))
        x = ad.bilinear_upsample_2x(small).data[:, :, :h, :w]
    elif layout == "stride2":  # as conv2d_1x1 reads its input at stride 2
        x = rng.normal(size=(batch, channels, 2 * h, 2 * w))[:, :, ::2, ::2]
    else:
        x = rng.normal(size=(batch, 2 * channels, h + 1, 2 * w))[:, ::2, 1:, ::2]
    return _with_signed_zeros(x, rng)


TAP_CASES = (
    [
        (batch, channels, hw)
        for batch in (1, 3, 16)
        for channels in (1, 4, 32)
        for hw in ((1, 1), (1, 5), (4, 1), (2, 2), (5, 6), (8, 8), (7, 9))
    ]
    # one to three rows: one keeps the loop, two and three run the window
    # einsum, which on one row would round differently on these maps
    + [
        (batch, channels, hw)
        for batch, channels in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1))
        for hw in ((4, 4), (5, 6), (9, 7), (16, 16))
    ]
    # the batch-8 and batch-16 maps of the desk model
    + [(batch, channels, (n, n)) for batch in (8, 16) for channels in (8, 32, 64) for n in (2, 4, 8, 16, 32)]
)


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("layout", ["c_order", "stride2", "sliced", "upsampled"])
def test_depthwise_taps_equal_the_slice_formula_bytewise(layout, stride, taped):
    """Same bytes as the nine-slice formula, signs of zero included, with
    the padding-only taps of one-row, one-column and 2x2 maps skipped, on
    either side of the loop / window-einsum predicate (_window_taps). The
    equality is a property of the installed numpy's einsum, which this
    pins."""
    rng = np.random.default_rng(11)
    for batch, channels, hw in TAP_CASES:
        x = _tap_features(batch, channels, hw, layout, rng)
        w_dw = _with_signed_zeros(rng.normal(size=(channels, 3, 3)), rng)
        w_pw, b = rng.normal(size=(5, channels)), rng.normal(size=5)
        want_t = _slice_formula_taps(x, w_dw, stride)
        params = [Tensor(a, requires_grad=True) for a in (w_dw, w_pw, b)]
        with Tape() if taped else contextlib.nullcontext():
            t = ops._depthwise_taps(x, w_dw, stride)
            out = ad.depthwise_separable_conv3x3(Tensor(x), *params, stride=stride)
            want = ops._pointwise(w_pw, want_t) + b[None, :, None, None]
        assert t.flags.c_contiguous and t.tobytes() == want_t.tobytes()
        assert out.data.tobytes() == want.tobytes()


def _layout(a):
    """a's strides along its axes longer than one, which alone place its
    entries in memory."""
    return tuple(step for step, n in zip(a.strides, a.shape) if n > 1)


@pytest.mark.parametrize("layout", ["c_order", "stride2", "sliced", "upsampled"])
def test_contract_equals_the_einsum_bytewise(layout):
    """_contract gives np.einsum's bytes and layout, signs of zero
    included, for the taped forward (oc,bchw->bohw) and for the input
    gradient (oc,bohw->bchw): channel-major on the C-ordered maps larger
    than 1x1, the einsum itself on the others. The equality is a property
    of the installed numpy's einsum, which this pins."""
    rng = np.random.default_rng(31)
    widths = (1, 3, 8, 32, 64)
    for batch in (1, 2, 8, 16):
        for channels in widths:
            for hw in ((1, 1), (1, 5), (4, 1), (2, 2), (8, 8)):
                x = _tap_features(batch, channels, hw, layout, rng)
                for out_channels in widths:
                    w = _with_signed_zeros(rng.normal(size=(out_channels, channels)), rng)
                    want = np.einsum("oc,bchw->bohw", w, x)
                    got = ops._contract(w, x)
                    assert got.tobytes() == want.tobytes() and _layout(got) == _layout(want)
                    # x as the output gradient of a conv from out_channels
                    # channels to channels
                    w = _with_signed_zeros(rng.normal(size=(channels, out_channels)), rng)
                    want = np.einsum("oc,bohw->bchw", w, x)
                    got = ops._contract(w, x, transposed=True)
                    assert got.tobytes() == want.tobytes() and _layout(got) == _layout(want)


def test_one_channel_tapeless_pointwise_equals_the_matmul_bytewise():
    """C=1 runs as an outer product; its -0.0 products come out as the
    matmul's +0.0."""
    rng = np.random.default_rng(5)
    cases = ((1, (1, 1), False), (3, (4, 1), False), (16, (7, 9), False), (3, (5, 6), True))
    for batch, (h, w), sliced in cases:
        if sliced:  # a strided view, as conv2d_1x1 passes at stride 2
            x = rng.normal(size=(batch, 1, 2 * h, 2 * w))[:, :, ::2, ::2]
        else:
            x = rng.normal(size=(batch, 1, h, w))
        x = _with_signed_zeros(x, rng)
        x[0, 0, 0, 0] = 0.0
        weights = _with_signed_zeros(rng.normal(size=(6, 1)), rng)
        weights[0, 0] = -1.5
        assert np.any(np.signbit(weights[:, 0, None, None] * x) & (x == 0.0))
        want = np.matmul(weights, x.reshape(batch, 1, h * w)).reshape(batch, 6, h, w)
        got = ops._pointwise(weights, x)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def _where_relu(a):
    """The ReLU op a conv block used to end in: np.where's masked select."""
    mask = a.data > 0
    return record((a,), np.where(mask, a.data, 0.0), lambda g: (g * mask,))


def _conv_block_case(batch, channels, hw, rng):
    """Input, weights and bias with signed zeros; one output channel whose
    pre-activations are all exactly zero; one NaN input at batch 3."""
    x = _with_signed_zeros(rng.normal(size=(batch, channels, *hw)), rng)
    if batch == 3:
        x[2, 0, 0, 0] = np.nan
    w_dw = _with_signed_zeros(rng.normal(size=(channels, 3, 3)), rng)
    w_pw = rng.normal(size=(5, channels))
    w_pw[1] = -0.0
    b = _with_signed_zeros(rng.normal(size=5), rng)
    b[1] = -0.0
    return x, w_dw, w_pw, b


def _run_conv_block(arrays, stride, taped, proj, fused):
    """Output and input gradients (loss: sum of output * proj) of a conv
    block run as one op (fused) or as relu=False plus _where_relu."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() if taped else contextlib.nullcontext() as tape:
        if fused:
            out = ad.depthwise_separable_conv3x3(*inputs, stride=stride, relu=True)
        else:
            out = _where_relu(ad.depthwise_separable_conv3x3(*inputs, stride=stride))
        if taped:
            tape.backward(ad.tsum(ad.mul(out, proj)))
    return out.data, [t.grad for t in inputs]


@pytest.mark.parametrize("stride", [1, 2])
def test_fused_relu_equals_the_where_relu_op_bytewise(stride):
    """relu=True gives the bytes of the relu=False op followed by a
    np.where ReLU op: the output with and without a tape, and the
    gradients of x, w_dw, w_pw and b_pw."""
    rng = np.random.default_rng(17)
    for batch in (1, 3, 16):
        for channels in (1, 4, 32):
            for hw in ((1, 1), (1, 5), (4, 1), (8, 8), (7, 9)):
                arrays = _conv_block_case(batch, channels, hw, rng)
                oh, ow = ((n - 1) // stride + 1 for n in hw)
                proj = Tensor(_with_signed_zeros(rng.normal(size=(batch, 5, oh, ow)), rng))
                for taped in (False, True):
                    got, got_grads = _run_conv_block(arrays, stride, taped, proj, fused=True)
                    want, want_grads = _run_conv_block(arrays, stride, taped, proj, fused=False)
                    assert got.tobytes() == want.tobytes() and not np.any(np.signbit(got))
                    if taped:
                        assert all(g.tobytes() == w.tobytes() for g, w in zip(got_grads, want_grads))


def _recorded_backward(monkeypatch, op, *args, **kwargs):
    """The backward closure that op records, without a tape."""
    closures = []
    real = ops.record
    monkeypatch.setattr(ops, "record", lambda inputs, out, bw: closures.append(bw) or real(inputs, out, bw))
    op(*args, **kwargs)
    monkeypatch.setattr(ops, "record", real)
    return closures[0]


def _add_at_upsample_backward(g, h, w):
    """bilinear_upsample_2x's gradient as four np.add.at scatters."""
    r0, r1, wr0, wr1 = ops._upsample_axis_coeffs(h)
    c0, c1, wc0, wc1 = ops._upsample_axis_coeffs(w)
    every = (slice(None), slice(None))
    gtmp = np.zeros(g.shape[:2] + (2 * h, w))
    np.add.at(gtmp, (*every, slice(None), c0), g * wc0)
    np.add.at(gtmp, (*every, slice(None), c1), g * wc1)
    gx = np.zeros(g.shape[:2] + (h, w))
    np.add.at(gx, (*every, r0), gtmp * wr0[:, None])
    np.add.at(gx, (*every, r1), gtmp * wr1[:, None])
    return gx


def test_upsample_backward_equals_the_add_at_scatter_bytewise(monkeypatch):
    """The strided slice adds give np.add.at's bytes, signs of zero
    included, at every map size from 1 to 8 and in the transposed layout
    the op's output carries."""
    rng = np.random.default_rng(23)
    for h in range(1, 9):
        for w in range(1, 9):
            x = rng.normal(size=(2, 3, h, w))
            backward = _recorded_backward(monkeypatch, ad.bilinear_upsample_2x, Tensor(x))
            g = _with_signed_zeros(rng.normal(size=(2, 3, 2 * h, 2 * w)), rng)
            for grad in (g, ad.bilinear_upsample_2x(Tensor(g[:, :, :h, :w])).data):
                (got,) = backward(grad)
                assert got.tobytes() == _add_at_upsample_backward(grad, h, w).tobytes()


def _nine_tap_backward(gt, x, w_dw, stride):
    """The depthwise half of the conv block's gradient over all nine taps."""
    B, C, H, W = x.shape
    oh, ow = gt.shape[2:]
    xp = np.zeros((B, C, H + 2, W + 2))
    xp[:, :, 1 : 1 + H, 1 : 1 + W] = x
    g_dw = np.zeros_like(w_dw)
    gxp = np.zeros_like(xp)
    for u in range(3):
        for v in range(3):
            sl = xp[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride]
            g_dw[:, u, v] = (gt * sl).sum(axis=(0, 2, 3))
            gxp[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride] += (
                w_dw[:, u, v][None, :, None, None] * gt
            )
    return gxp[:, :, 1 : 1 + H, 1 : 1 + W], g_dw


@pytest.mark.parametrize("stride", [1, 2])
def test_depthwise_backward_skips_padding_taps_bytewise(monkeypatch, stride):
    """The conv block's backward runs only the taps that read a sample, as
    its forward does: gx, g_pw and g_b are the nine-tap bytes, and g_dw
    is too after the + 0.0 the tape applies to a first gradient (a
    skipped tap's column is +0 where the nine-tap sum may give -0)."""
    rng = np.random.default_rng(29)
    cases = [
        (batch, channels, hw)
        for batch in (1, 3)
        for channels in (1, 4)
        for hw in ((1, 1), (1, 5), (4, 1), (2, 2), (5, 6))
    ]
    # the shapes a batch-8 training step spends its conv time on
    cases += [(8, 32, (8, 8)), (8, 32, (2, 2))] + ([(8, 1, (64, 64))] if stride == 2 else [])
    # either side of the window einsum that runs the stride-1 gx
    cases += [(8, 8, (8, 8)), (8, 16, (4, 4)), (16, 32, (2, 2)), (1, 1, (8, 8))]
    for batch, channels, hw in cases:
        x, w_dw, w_pw, b = _conv_block_case(batch, channels, hw, rng)
        params = [Tensor(a) for a in (w_dw, w_pw, b)]
        backward = _recorded_backward(
            monkeypatch, ad.depthwise_separable_conv3x3, Tensor(x, requires_grad=True), *params, stride=stride
        )
        oh, ow = ((n - 1) // stride + 1 for n in hw)
        g = _with_signed_zeros(rng.normal(size=(batch, 5, oh, ow)), rng)
        gx, g_dw, g_pw, g_b = backward(g)
        want_gx, want_dw = _nine_tap_backward(np.einsum("oc,bohw->bchw", w_pw, g), x, w_dw, stride)
        assert gx.tobytes() == want_gx.tobytes()
        assert (g_dw + 0.0).tobytes() == (want_dw + 0.0).tobytes()
        t = ops._depthwise_taps(x, w_dw, stride)
        assert g_pw.tobytes() == np.einsum("bohw,bchw->oc", g, t).tobytes()
        assert g_b.tobytes() == g.sum(axis=(0, 2, 3)).tobytes()


@pytest.mark.parametrize("stride", [1, 2])
def test_convs_on_a_non_grad_input_return_no_input_gradient(monkeypatch, stride):
    """Both convs skip the gradient of an input that needs none (the
    images under the stem), and their parameters' gradients keep the
    bytes they have when it is computed."""
    rng = np.random.default_rng(37)
    for batch, channels, hw in ((8, 1, (16, 16)), (3, 4, (5, 6)), (16, 32, (2, 2)), (1, 1, (1, 1))):
        x, w_dw, w_pw, b = _conv_block_case(batch, channels, hw, rng)
        w = rng.normal(size=(5, channels))
        oh, ow = ((n - 1) // stride + 1 for n in hw)
        g = _with_signed_zeros(rng.normal(size=(batch, 5, oh, ow)), rng)
        for op, params in ((ad.depthwise_separable_conv3x3, (w_dw, w_pw, b)), (ad.conv2d_1x1, (w, b))):
            grads = {}
            for needs_grad in (False, True):
                args = [Tensor(a, requires_grad=True) for a in params]
                backward = _recorded_backward(
                    monkeypatch, op, Tensor(x, requires_grad=needs_grad), *args, stride=stride
                )
                grads[needs_grad] = backward(g)
            assert grads[False][0] is None and grads[True][0].shape == x.shape
            for got, want in zip(grads[False][1:], grads[True][1:]):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["add", "sub", "mul"])
def test_elementwise_shape_mismatch_names_op_and_shapes(name):
    """add and mul name themselves and both shapes; sub's gap now lives in
    the budget loss op, which names itself and both shapes, and wants
    them equal."""
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((4,)))
    op, label, verdict = {
        "add": (ad.add, "add", "do not broadcast"),
        "sub": (global_budget_loss, "global_budget_loss", "differ"),
        "mul": (ad.mul, "mul", "do not broadcast"),
    }[name]
    with pytest.raises(ConfigurationError, match=rf"^{label}: shapes \(2, 3\) and \(4,\) {verdict}$"):
        op(a, b)


def test_shape_mismatch_raises_configuration_error():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    w = Tensor(np.zeros((2, 5)))
    with pytest.raises(ConfigurationError, match="conv2d_1x1"):
        ad.conv2d_1x1(x, w)


def test_backward_sum_is_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 2)), requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(x)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((3, 2)))


def test_backward_sum_square_is_2x():
    x = Tensor(np.random.default_rng(1).normal(size=(4,)), requires_grad=True)
    with Tape() as tape:
        loss = ad.tsum(ad.mul(x, x))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)


def test_first_gradient_takes_the_layout_of_data():
    """A gradient arriving in another memory layout (here a backward that
    returns a transposed view) is stored in x.data's layout with equal
    values."""
    x = Tensor(np.random.default_rng(2).normal(size=(3, 4, 2)), requires_grad=True)
    with Tape() as tape:
        y = record([x], np.transpose(x.data, (2, 0, 1)), lambda g: (np.transpose(g, (1, 2, 0)),))
        loss = ad.tsum(ad.mul(y, Tensor(np.arange(24.0).reshape(2, 3, 4))))
        tape.backward(loss)
    assert x.grad.flags["C_CONTIGUOUS"]
    np.testing.assert_array_equal(x.grad, np.transpose(np.arange(24.0).reshape(2, 3, 4), (1, 2, 0)))


def test_first_gradient_broadcasts_to_the_shape_of_data():
    """A backward that returns a gradient of another shape (here a scalar)
    is broadcast into a .grad of x.data's shape, as zeros plus the
    gradient would be."""
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with Tape() as tape:
        y = record([x], np.zeros(()), lambda g: (np.float64(-0.0),))
        loss = ad.tsum(y)
        tape.backward(loss)
    assert x.grad.shape == (2, 3)
    np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))
    assert not np.signbit(x.grad).any()


def test_backward_requires_scalar_loss():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with Tape() as tape:
        out = ad.mul(x, x)
        with pytest.raises(UsageError, match="scalar"):
            tape.backward(out)


def test_standardize_rows_matches_numpy_mean_and_var():
    """The router standardizes each sample's channel means: with 1x1 maps,
    an identity mix and a dense layer that reads three channels at a
    time, its outputs are the tanh of (m - mean) / sqrt(var + 1e-6)."""
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 7)) * np.array([[1e-3], [1.0], [50.0], [1.0]])
    m[3] = 2.5  # a constant row standardizes to zeros
    want = (m - np.mean(m, axis=1, keepdims=True)) / np.sqrt(np.var(m, axis=1, keepdims=True) + 1e-6)
    for cols in ([0, 1, 2], [3, 4, 5], [6, 0, 1]):
        fc_w = Tensor(np.eye(7)[:, cols])
        got = ad.router(Tensor(m[:, :, None, None]), Tensor(np.eye(7)), fc_w, Tensor(np.zeros(3))).data
        np.testing.assert_allclose(got, np.tanh(want[:, cols]), rtol=0, atol=1e-12)
        assert np.all(got[3] == 0.0)


def test_standardize_rows_adds_its_two_gradient_parts_in_turn():
    """The router's standardization hands the channel means the gradient
    through the centered rows, then the one through their mean (their
    sum times 1/C), one after the other, as the tape did for the chain of
    generic ops; not the textbook g_c - mean(g_c). With an identity mix
    on one-pixel regions each pixel's gradient is a quarter of its
    channel mean's, added to what x already holds from a later consumer."""
    rng = np.random.default_rng(5)
    x, prev = rng.normal(size=(2, 3, 6, 2, 2))
    G, fc_w = rng.normal(size=(3, 3)), rng.normal(size=(6, 3))
    v = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = ad.router(v, Tensor(np.eye(6)), Tensor(fc_w), Tensor(np.zeros(3)))
        tape.backward(ad.add(ad.tsum(ad.mul(out, Tensor(G))), ad.tsum(ad.mul(v, Tensor(prev)))))
    means = x.mean(axis=(2, 3))
    inv_w = 1.0 / 6
    c = means - np.sum(means, axis=1, keepdims=True) * inv_w
    sd = np.sqrt(np.sum(c * c, axis=1, keepdims=True) * inv_w + 1e-6)
    g = (G * (1.0 - out.data * out.data)) @ fc_w.T
    g_sd = np.sum(-g * c / (sd * sd), axis=1, keepdims=True)
    g_c = g / sd + 2.0 * c * (g_sd * 0.5 / sd * inv_w)
    g_mean = np.sum(-g_c, axis=1, keepdims=True) * inv_w
    for g_means, same in ((g_c + g_mean, True), (g_c - np.mean(g_c, axis=1, keepdims=True), False)):
        assert np.array_equal(v.grad, prev + (g_means / 4)[:, :, None, None]) == same


def _tanh(a):
    out = np.tanh(a.data)
    return record((a,), out, lambda g: (g * (1.0 - out * out),))


def _global_avg_pool(x):
    B, C, H, W = x.data.shape
    return record(
        (x,), x.data.mean(axis=(2, 3)), lambda g: (np.broadcast_to(g[:, :, None, None] / (H * W), (B, C, H, W)).copy(),)
    )


def _standardize_rows(v, eps=1e-6):
    x = v.data
    inv_w = 1.0 / x.shape[1]
    c = x - np.sum(x, axis=1, keepdims=True) * inv_w
    sd = np.sqrt(np.sum(c * c, axis=1, keepdims=True) * inv_w + eps)

    def backward(g):
        g_sd = np.sum(-g * c / (sd * sd), axis=1, keepdims=True)
        g_c = g / sd + 0.0 + 2.0 * c * (g_sd * 0.5 / sd * inv_w)
        g_mean = np.sum(-g_c, axis=1, keepdims=True) * inv_w + 0.0
        return g_c, np.broadcast_to(g_mean, x.shape)

    return record((v, v), c / sd, backward)


def _chain_router(x, conv_w, fc_w, fc_b):
    """The router as the chain of generic ops it was before it became one
    op, rebuilt from copies of the ops deleted with it."""
    mixed = ad.conv2d_1x1(ad.avg_pool_to(x, 2, 2), conv_w)
    return _tanh(ad.fully_connected(_standardize_rows(_global_avg_pool(mixed)), fc_w, fc_b))


@pytest.mark.parametrize(
    "shape, layout",
    [
        ((1, 3, 1, 1), "c"),
        ((16, 4, 2, 2), "c"),
        ((16, 5, 3, 5), "c"),
        ((1, 6, 8, 8), "c"),
        ((16, 1, 3, 5), "c"),
        ((16, 4, 4, 6), "upsampled"),
        ((1, 5, 6, 2), "upsampled"),
    ],
)
def test_router_equals_the_chain_of_generic_ops_bytewise(shape, layout):
    """Output and the gradients of x and the three parameters equal, bit
    for bit, those of the chain of generic ops the router op replaces,
    with and without a tape: on 1x1, 2x2, 3x5 (uneven, overlapping
    regions) and 8x8 maps, one channel, batch 1 and 16, features in the
    transposed layout bilinear_upsample_2x returns, an x that already
    holds a gradient from a later consumer, and upstream gradients with
    +0.0 and -0.0 entries."""
    B, C, H, W = shape
    rng = np.random.default_rng(sum(shape))
    if layout == "upsampled":
        x_data = ad.bilinear_upsample_2x(Tensor(rng.normal(size=(B, C, H // 2, W // 2)))).data
        assert not x_data.flags.c_contiguous
    else:
        x_data = rng.normal(size=shape)
    params = [rng.normal(size=(C, C)), rng.normal(size=(C, 3)), rng.normal(size=3)]
    upstream = rng.normal(size=(B, 3))
    upstream[rng.random(upstream.shape) < 0.3] = 0.0
    upstream[rng.random(upstream.shape) < 0.3] = -0.0
    prev = rng.normal(size=shape)
    results = []
    for router in (ad.router, _chain_router):
        tapeless = router(Tensor(x_data), *(Tensor(p) for p in params)).data
        inputs = [Tensor(x_data.copy(order="K"), requires_grad=True)] + [Tensor(p.copy(), requires_grad=True) for p in params]
        assert inputs[0].data.strides == x_data.strides
        with Tape() as tape:
            out = router(*inputs)
            loss = ad.add(ad.tsum(ad.mul(out, Tensor(upstream))), ad.tsum(ad.mul(inputs[0], Tensor(prev))))
            tape.backward(loss)
        results.append((tapeless.tobytes(), out.data.tobytes(), [t.grad.tobytes() for t in inputs]))
    assert results[0] == results[1]


def test_router_and_budget_loss_record_one_tape_entry():
    """So do a node's input over one and over two gated paths, a 1x1 conv
    with its bias, the distance map, a sum over several tensors and the
    weighted objective."""
    rng = np.random.default_rng(6)
    x, conv_w, fc_w, fc_b = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((2, 4, 3, 5), (4, 4), (4, 3), (3,)))
    c_net = Tensor(rng.uniform(size=5), requires_grad=True)
    bias = Tensor(rng.normal(size=4), requires_grad=True)
    gates = Tensor(rng.uniform(size=(2, 3)), requires_grad=True)
    down_gates = Tensor(rng.uniform(size=(2, 3)), requires_grad=True)
    l_reg = Tensor(rng.uniform(), requires_grad=True)
    makes = (
        lambda: ad.router(x, conv_w, fc_w, fc_b),
        lambda: global_budget_loss(c_net, Tensor(np.full(5, 0.3))),
        lambda: path_mean([(None, x, gates, 1)], None, None, 2),
        lambda: path_mean([(None, x, gates, 0), (None, x, down_gates, 2)], np.array([2.0, 1.0]), None, 2),
        lambda: ad.conv2d_1x1(x, conv_w, bias),
        lambda: _distances(x, 8.0),
        lambda: ad.tsum(x, c_net, gates),
        lambda: total_loss(Tensor(0.5, requires_grad=True), l_reg, l_reg, LossWeights(0.5, 2.0)),
    )
    for make in makes:
        with Tape() as tape:
            make()
        assert len(tape) == 1


def _take(a, index):
    """a.data[index] as a C-ordered copy; the backward adds the gradient
    into zeros with np.add.at (the tracked gather the gate op replaced)."""
    out = np.array(a.data[index], order="C")
    shape = a.data.shape

    def backward(g):
        grad = np.zeros(shape)
        np.add.at(grad, index, g)
        return (grad,)

    return record((a,), out, backward)


def _reshape(a, shape):
    old = a.data.shape
    return record((a,), a.data.reshape(shape), lambda g: (g.reshape(old),))


def _clamp(a, lo, hi):
    out = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return record((a,), out, lambda g: (g * mask,))


def _signed_zeros(rng, a, share=0.3):
    """a with about share of its entries set to +0.0 and as many to -0.0."""
    a[rng.random(a.shape) < share] = 0.0
    a[rng.random(a.shape) < share] = -0.0
    return a


def _run_bytewise(op, datas, upstream, later=None):
    """op's tapeless output, and its taped output, the strides of that
    output and every input's gradient, as bytes, with upstream the
    gradient of op's output; later maps an input's position to an
    upstream gradient it also receives from a consumer recorded after
    op, which the tape hands it first."""
    tapeless = op(*(Tensor(d) for d in datas)).data
    inputs = [Tensor(d.copy(order="K"), requires_grad=True) for d in datas]
    with Tape() as tape:
        out = op(*inputs)
        loss = ad.tsum(ad.mul(out, Tensor(upstream)))
        for k, prev in (later or {}).items():
            loss = ad.add(loss, ad.tsum(ad.mul(inputs[k], Tensor(prev))))
        tape.backward(loss)
    return (
        tapeless.tobytes(),
        tapeless.strides,
        out.data.tobytes(),
        out.data.strides,
        [b"-" if t.grad is None else t.grad.tobytes() for t in inputs],
    )


def _maps(rng, shape, layout):
    """(B, C, H, W) features, C-ordered or in the transposed layout
    bilinear_upsample_2x returns."""
    if layout == "c":
        return rng.normal(size=shape)
    B, C, H, W = shape
    out = ad.bilinear_upsample_2x(Tensor(rng.normal(size=(B, C, H // 2, W // 2)))).data
    assert not out.flags.c_contiguous
    return out


@pytest.mark.parametrize(
    "shape, layout", [((1, 3, 2, 2), "c"), ((16, 4, 3, 5), "c"), ((16, 2, 4, 6), "upsampled"), ((1, 1, 2, 2), "upsampled")]
)
def test_scale_by_gate_equals_take_and_mul_bytewise(shape, layout):
    """Each of a node's three paths scaled by its column of the node's
    gates (path_mean of that one path) equals, bit for bit, the mul by a
    gathered column it replaces:
    outputs and their layout, taped and tapeless, and the gradients of
    the paths and of the gates, which every path and a later consumer
    feed (the gradients reach them in the same order), with gates and
    upstream gradients holding +0.0 and -0.0."""
    B = shape[0]
    rng = np.random.default_rng(sum(shape))
    paths = [_maps(rng, shape, layout) for _ in range(3)]
    gates = _signed_zeros(rng, rng.uniform(size=(B, 3)))
    upstream = [_signed_zeros(rng, rng.normal(size=shape)) for _ in range(3)]
    later = {3: _signed_zeros(rng, rng.normal(size=(B, 3)))}

    def gated(take_and_mul):
        def op(*inputs):
            *xs, g = inputs
            outs = []
            for j, x in enumerate(xs):
                if take_and_mul:
                    outs.append(ad.mul(x, _take(g, (slice(None), slice(j, j + 1), None, None))))
                else:
                    outs.append(path_mean([(None, x, g, j)], None, None, B))
            return ad.concat(outs, axis=1)

        return op

    datas = paths + [gates]
    upstream = np.concatenate(upstream, axis=1)
    results = [_run_bytewise(gated(chain), datas, upstream, later) for chain in (False, True)]
    assert results[0] == results[1]
    for j, path in enumerate(paths):  # each path's own output keeps the layout of the chain's
        new = path_mean([(None, Tensor(path), Tensor(gates), j)], None, None, B).data
        old = ad.mul(Tensor(path), _take(Tensor(gates), (slice(None), slice(j, j + 1), None, None))).data
        assert (new.strides, new.tobytes()) == (old.strides, old.tobytes())


def _scale_by_gate(x, gates, j):
    """x times column j of gates, the one-op path gate path_mean absorbed:
    column j's gradient sums g * x over channels, then rows, then
    columns."""
    col = gates.data[:, j].reshape(-1, 1, 1, 1)
    x_data, shape = x.data, gates.data.shape

    def backward(g):
        g_gates = np.zeros(shape)
        g_gates[:, j] += _unbroadcast(g * x_data, col.shape).reshape(-1)
        return g * col, g_gates

    return record((x, gates), x_data * col, backward)


def _scatter_rows(part, rows, batch):
    """part's samples at the sorted indices rows of a batch, zeros
    elsewhere, in part's memory layout (untracked)."""
    full = np.zeros_like(part.data, shape=(batch,) + part.data.shape[1:])
    full[rows] = part.data
    return Tensor(full)


def _sum_at_rows(contribs, rows, batch):
    """The sum of the (rows, tensor) contributions at the sorted sample
    indices rows, in contribution order; a row a contribution lacks adds
    nothing to it (untracked)."""
    slot = np.full(batch, -1)
    slot[rows] = np.arange(rows.size)
    out = np.zeros((rows.size,) + contribs[0][1].data.shape[1:])
    for r, t in contribs:
        if r is None:
            out += t.data[rows]
            continue
        at = slot[r]
        held = at >= 0
        out[at[held]] += t.data[held]
    return Tensor(out)


def _old_node_input(parts, n_open, rows, batch):
    """A node's input as the chain path_mean replaced: every path gated
    at its sender (the one-op gate in train mode, a mul by the gate column
    at the path's rows in infer mode), then brought to rows by scatters,
    as they are or by _sum_at_rows, added by ad.add and scaled by one
    ad.mul by 1/n where some n exceeds 1."""
    contribs = []
    for r, out, gates, j in parts:
        if r is None and rows is None:
            contribs.append((r, _scale_by_gate(out, gates, j)))
        else:
            col = gates.data[slice(None) if r is None else r, j].reshape(-1, 1, 1, 1)
            contribs.append((r, ad.mul(out, Tensor(col))))
    if rows is None:
        xs = [t if r is None else _scatter_rows(t, r, batch) for r, t in contribs]
    else:
        n_open = n_open[rows]
        if all(r is not None and np.array_equal(r, rows) for r, _ in contribs):
            xs = [t for _, t in contribs]
        else:
            xs = [_sum_at_rows(contribs, rows, batch)]
    x = xs[0]
    for extra in xs[1:]:
        x = ad.add(x, extra)
    if n_open is None or np.all(n_open <= 1):
        return x
    return ad.mul(x, Tensor((1.0 / np.maximum(n_open, 1.0)).reshape(-1, 1, 1, 1)))


@pytest.mark.parametrize("layout", ["c", "upsampled", "up_last", "up_first"])
@pytest.mark.parametrize(
    "shape, n_paths, n_max",
    [((16, 3, 4, 6), 1, None), ((1, 2, 2, 2), 1, 1), ((16, 3, 4, 6), 2, 1), ((16, 3, 4, 6), 2, 2),
     ((16, 3, 4, 6), 3, 3), ((1, 2, 2, 2), 3, 3), ((4, 12, 6, 10), 2, 1), ((4, 12, 6, 10), 3, 3)],
)
def test_path_mean_equals_the_gate_add_and_mean_chain_bytewise(shape, layout, n_paths, n_max):
    """A train-mode node input equals, bit for bit, the one-op gate per
    path, the ad.add chain and the ad.mul by 1/n it replaced: output and
    its layout, taped and tapeless, and the gradients of every path and
    of each source node's gates, with one to three paths in C order, in
    the transposed layout bilinear upsampling returns, or mixed (an
    upsampled path last, as an up path arrives, or first, so the sum
    takes a layout other than its first path's), maps with axes longer
    than 8 (where layout orders numpy's pairwise sums), open counts up
    to n_max (None: no mean, as at a projection; 1: no mul), a later
    consumer of a path and of a gate tensor (the tape hands them that
    gradient first), and paths, gates and upstream gradients holding
    +0.0 and -0.0."""
    B = shape[0]
    rng = np.random.default_rng(sum(shape) + n_paths)
    layouts = {"up_last": ["c"] * (n_paths - 1) + ["upsampled"], "up_first": ["upsampled"] + ["c"] * (n_paths - 1)}
    paths = [_signed_zeros(rng, _maps(rng, shape, k), 0.1) for k in layouts.get(layout, [layout] * n_paths)]
    gates = [_signed_zeros(rng, rng.uniform(size=(B, 3))) for _ in range(n_paths)]
    n_open = None if n_max is None else rng.integers(0, n_max + 1, B).astype(np.float64)
    upstream = _signed_zeros(rng, rng.normal(size=shape))
    later = {0: _signed_zeros(rng, rng.normal(size=shape)), n_paths: _signed_zeros(rng, rng.normal(size=(B, 3)))}
    columns = (2, 1, 0)  # down, keep, up: the order paths reach a node

    def node_input(chain):
        def op(*inputs):
            parts = [(None, x, g, j) for x, g, j in zip(inputs[:n_paths], inputs[n_paths:], columns)]
            return (_old_node_input if chain else path_mean)(parts, n_open, None, B)

        return op

    results = [_run_bytewise(node_input(chain), paths + gates, upstream, later) for chain in (False, True)]
    assert results[0] == results[1]
    if n_max is not None and n_max > 1:
        assert (n_open > 1).any()


@pytest.mark.parametrize("layout", ["c", "upsampled"])
@pytest.mark.parametrize("n_max", [1, 3])
@pytest.mark.parametrize(
    "rows, path_rows",
    [
        (None, [None, [0, 2, 5], [1, 2]]),  # a router's input: the whole batch
        ([1, 3, 4], [[1, 3, 4], [1, 3, 4], [1, 3, 4]]),  # exactly the block's rows
        ([1, 3, 4], [[1, 3, 4]]),
        ([1, 3, 4], [None, [0, 1, 4, 5], [3]]),  # per-row sums
        ([0, 2], [[0, 1, 2], [2]]),
    ],
)
def test_path_mean_equals_the_infer_chains_bytewise(rows, path_rows, n_max, layout):
    """A tapeless node input equals, bit for bit and in memory layout,
    the chains path_mean replaced: each path multiplied by its gate column
    at its rows, then on the whole batch scattered back to it in its own
    layout, on exactly the paths' rows added as they are, and otherwise
    summed per row by _sum_at_rows; then added and scaled by 1/n. Paths
    in C order or the transposed upsampled layout, open counts up to
    n_max, signed zeros in paths and gates. Under a tape, a path with rows
    records nothing, as the untracked scatters did."""
    B, C, H, W = 6, 3, 4, 2
    rng = np.random.default_rng(len(path_rows) + n_max)
    rows = None if rows is None else np.array(rows)
    parts = []
    for j, r in zip((2, 1, 0), path_rows):
        r = None if r is None else np.array(r)
        n = B if r is None else r.size
        out = Tensor(_signed_zeros(rng, _maps(rng, (n, C, H, W), layout), 0.1), requires_grad=True)
        parts.append((r, out, Tensor(_signed_zeros(rng, rng.uniform(size=(B, 3))), requires_grad=True), j))
    n_open = rng.integers(0, n_max + 1, B).astype(np.float64)
    new = path_mean(parts, n_open, rows, B).data
    old = _old_node_input(parts, n_open, rows, B).data
    assert (new.shape, new.strides, new.tobytes()) == (old.shape, old.strides, old.tobytes())
    with Tape() as tape:
        path_mean(parts, n_open, rows, B)
    assert len(tape) == 0


@pytest.mark.parametrize(
    "shape, stride, layout",
    [
        ((1, 3, 1, 1), 1, "c"),
        ((16, 4, 3, 5), 1, "c"),
        ((16, 1, 4, 4), 2, "c"),
        ((2, 3, 4, 6), 1, "upsampled"),
        ((16, 5, 4, 4), 2, "upsampled"),
    ],
)
def test_conv2d_1x1_bias_equals_conv_reshape_and_add_bytewise(shape, stride, layout):
    """A 1x1 conv with its bias equals, bit for bit, the conv, a reshaped
    bias and a broadcast add it replaces: output and layout, taped and
    tapeless, and the gradients of input, weight and a bias that a later
    consumer also feeds, with upstream gradients holding +0.0 and -0.0;
    at batch 1 and 16, one input channel (the tapeless outer product),
    a 1x1 map, stride 2, and inputs in the transposed layout."""
    B, C, H, W = shape
    rng = np.random.default_rng(sum(shape) + stride)
    datas = [_maps(rng, shape, layout), rng.normal(size=(6, C)), _signed_zeros(rng, rng.normal(size=6))]
    out_shape = (B, 6, (H - 1) // stride + 1, (W - 1) // stride + 1)
    upstream = _signed_zeros(rng, rng.normal(size=out_shape))
    later = {2: rng.normal(size=6)}

    def chain(x, w, b):
        return ad.add(ad.conv2d_1x1(x, w, stride=stride), _reshape(b, (1, 6, 1, 1)))

    results = [
        _run_bytewise(op, datas, upstream, later)
        for op in (lambda x, w, b: ad.conv2d_1x1(x, w, b, stride=stride), chain)
    ]
    assert results[0] == results[1]


@pytest.mark.parametrize("stride", [8.0, 12.0, 0.75])
def test_distances_equal_clamp_exp_and_mul_bytewise(stride):
    """The distance map equals, bit for bit, exp(clamp(raw, -8, 8)) *
    stride as the chain of ops it replaces: output, taped and tapeless,
    and the gradient of a raw map that a later consumer also feeds, with
    raw values at, inside and beyond +-8 (the gradient passes at the
    bounds and is cut beyond them), signed zeros, and upstream gradients
    holding +0.0 and -0.0."""
    rng = np.random.default_rng(int(stride * 2))
    raw = _signed_zeros(rng, rng.normal(0.0, 6.0, size=(3, 4, 4, 5)), 0.1)
    raw[0, :, 0, 0] = [-8.0, 8.0, -800.0, 9.0]
    upstream = _signed_zeros(rng, rng.normal(size=raw.shape))
    later = {0: rng.normal(size=raw.shape)}

    def chain(a):
        return ad.mul(ad.exp(_clamp(a, -8.0, 8.0)), Tensor(stride))

    results = [_run_bytewise(op, [raw], upstream, later) for op in (lambda a: _distances(a, stride), chain)]
    assert results[0] == results[1]
    assert (np.abs(raw) > 8).any() and (np.abs(raw) < 8).any()


@pytest.mark.parametrize("scale", [0.7, 0.0, -0.0])
def test_tsum_of_many_equals_tsum_and_add_bytewise(scale):
    """One tsum over several tensors equals, bit for bit, a tsum of each
    added in turn: the value and each tensor's gradient, one of them
    also fed by a later consumer, under an upstream gradient of 0.7,
    +0.0 and -0.0."""
    rng = np.random.default_rng(14)
    datas = [rng.normal(size=s) * 1e3 ** rng.normal() for s in ((3, 4), (5,), (2, 2, 3), (7,))]
    later = {1: rng.normal(size=5)}

    def chain(*ts):
        total = ad.tsum(ts[0])
        for t in ts[1:]:
            total = ad.add(total, ad.tsum(t))
        return total

    results = [_run_bytewise(op, datas, np.float64(scale), later) for op in (ad.tsum, chain)]
    assert results[0] == results[1]


@pytest.mark.parametrize("scale", [0.7, 0.0, -0.0])
def test_scaled_tsum_equals_tsum_and_mul_bytewise(scale):
    """A tsum with scale 1/n (the detection loss's 1/num_pos) equals, bit
    for bit, the tsum then a mul by a constant 1/n that it replaced: the
    value and each tensor's gradient, one of them also fed by a later
    consumer, under an upstream gradient of 0.7, +0.0 and -0.0."""
    rng = np.random.default_rng(15)
    datas = [rng.normal(size=s) * 1e3 ** rng.normal() for s in ((3, 4), (5,), (2, 2, 3))]
    later = {1: rng.normal(size=5)}
    for n in (1, 3, 7):
        ops = (lambda *ts: ad.tsum(*ts, scale=1.0 / n), lambda *ts: ad.mul(ad.tsum(*ts), Tensor(1.0 / n)))
        results = [_run_bytewise(op, datas, np.float64(scale), later) for op in ops]
        assert results[0] == results[1]


def test_determinism_bit_identical():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 8, 8))
    w_dw = rng.normal(size=(3, 3, 3))
    w_pw = rng.normal(size=(4, 3))
    a = ad.depthwise_separable_conv3x3(Tensor(x), Tensor(w_dw), Tensor(w_pw)).data
    b = ad.depthwise_separable_conv3x3(Tensor(x), Tensor(w_dw), Tensor(w_pw)).data
    assert np.array_equal(a, b)


def test_tape_replay_identical_losses():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)

    def run():
        with Tape() as tape:
            y = ad.fully_connected(x, w)
            loss = ad.tsum(ad.mul(y, y))
            tape.backward(loss)
        return float(loss.data)

    assert run() == run()


def test_cosine_similarity_of_identical_vectors_is_one():
    """The path-similarity loss of two identical routes is (1 - target)^2 / 2."""
    r = [0.2, 0.8, 0.4]
    enc = np.array([[1, 0, 1, 0], [0, 1, 1, 1]])
    target = gt_similarity(scale_similarity(enc[0], enc[1], 4), SimilarityConfig())
    loss = float(local_similarity_loss(Tensor(np.array([r, r])), enc, SimilarityConfig()).data)
    assert target + np.sqrt(2 * loss) == pytest.approx(1.0)


def test_straight_through_forwards_value_and_passes_gradient():
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    with Tape() as tape:
        out = ad.straight_through(x, np.array([0.0, 1.0, 1.0]))
        tape.backward(ad.tsum(ad.mul(out, Tensor(np.array([3.0, 4.0, 5.0])))))
    np.testing.assert_array_equal(out.data, [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(x.grad, [3.0, 4.0, 5.0])


def test_straight_through_passes_gradient_only_where_passes():
    x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
    with Tape() as tape:
        out = ad.straight_through(x, np.array([0.0, 1.0, 1.0]), passes=np.array([True, False, True]))
        tape.backward(ad.tsum(ad.mul(out, Tensor(np.array([3.0, -4.0, 5.0])))))
    np.testing.assert_array_equal(out.data, [0.0, 1.0, 1.0])
    assert x.grad.tobytes() == np.array([3.0, 0.0, 5.0]).tobytes()  # +0.0, as the tape adds 0.0


def test_straight_through_rejects_shape_mismatch():
    with pytest.raises(ConfigurationError, match="straight_through"):
        ad.straight_through(Tensor(np.zeros(3)), np.zeros(4))


def test_avg_pool_to_upscales_by_replication():
    x = Tensor(np.array([[[[4.0]]]]))
    out = ad.avg_pool_to(x, 2, 2)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))


# ---------------------------------------------------------------------------
# finite-difference gradient suite
# ---------------------------------------------------------------------------

_TIE_GUARD = 1e-3


def _away_from(*values):
    def predicate(datas):
        return any(np.any(np.abs(d - v) < _TIE_GUARD) for d in datas for v in values)

    return predicate


def _pre_activations_away_from_zero(stride):
    """Guard of a conv block with ReLU: resample while a pre-activation
    lies near the kink at 0."""

    def predicate(datas):
        pre = ad.depthwise_separable_conv3x3(*(Tensor(d) for d in datas), stride=stride)
        return bool(np.any(np.abs(pre.data) < _TIE_GUARD))

    return predicate


def _max_ties(datas):
    x = datas[0]
    s = np.sort(x, axis=-1)
    return bool(np.any(np.abs(s[..., -1] - s[..., -2]) < _TIE_GUARD))


_PASSES = np.arange(12).reshape(3, 4) % 3 != 1
_ONEHOT = np.zeros((2, 4, 3))
_ONEHOT[0, 1, 2] = _ONEHOT[1, 0, 0] = _ONEHOT[1, 3, 1] = 1.0
_ONEHOT_2X3 = np.zeros((2, 6, 3))
_ONEHOT_2X3[0, 4, 1] = _ONEHOT_2X3[1, 2, 0] = _ONEHOT_2X3[1, 5, 2] = 1.0
# logits on the wrong side of their targets: -5 at positives, +5 elsewhere
_TAILS = 5.0 - 10.0 * _ONEHOT.reshape(2, 2, 2, 3).transpose(0, 3, 1, 2)
_ENCODINGS = np.array([[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1]])
_POSITIVES = (np.array([0, 0, 1]), np.array([0, 2, 1]), np.array([1, 0, 2]))
_BOX_TARGETS = np.array([[0.5, 1.2, 0.8, 2.0], [1.5, 0.7, 1.1, 0.6], [0.9, 0.9, 2.2, 1.3]])


def _iou_ties(datas):
    """A predicted distance near its target: the min inside the IoU kinks."""
    pred = np.exp(datas[0])[_POSITIVES[0], :, _POSITIVES[1], _POSITIVES[2]]
    return bool(np.any(np.abs(pred - _BOX_TARGETS) < _TIE_GUARD))


_ROUTER_RNG = np.random.default_rng(12)
_ROUTER_X = _ROUTER_RNG.normal(size=(4, 3, 2, 2))
_MIX_3, _FC_3, _FC_5, _FC_B = (_ROUTER_RNG.uniform(-1.0, 1.0, s) for s in ((3, 3), (3, 3), (5, 3), (3,)))
_FC_WIDE = 2.0 * _FC_3
_GATE_X = _ROUTER_RNG.normal(size=(4, 3, 2, 3))

_NODE = NodeId(1, 0)
_ONE_NODE_TABLE = CostConstants(
    SupernetSpec(), 32, 32, {_NODE: NodeCost(c_conv=3.0, c_up=0.5, c_keep=0.0, c_down=2.0)}, 0.0
)

OPS = [
    ("add", lambda a, b: ad.add(a, b), [(3, 4), (3, 4)], None),
    ("add_broadcast", lambda a, b: ad.add(a, b), [(3, 4), (4,)], None),
    # sub: the budget loss's gap, both of its sides tracked
    ("sub", lambda a, b: global_budget_loss(a, b), [(2, 3), (2, 3)], None),
    ("mul", lambda a, b: ad.mul(a, b), [(2, 5), (2, 5)], None),
    ("mul_broadcast", lambda a, b: ad.mul(a, b), [(2, 5), (2, 1)], None),
    # square: the budget loss against zero targets, mean(a * a)
    ("square", lambda a: global_budget_loss(a, Tensor(np.zeros((3, 3)))), [(3, 3)], None),
    ("exp", ad.exp, [(2, 3)], None),
    # tanh: a router's fc_b alone, logits spread over tanh's curve
    ("tanh", lambda b: ad.router(Tensor(_ROUTER_X), Tensor(_MIX_3), Tensor(_FC_WIDE), b), [(3,)], None),
    # clamp: the distance map's clamp to [-8, 8], raw values spread over
    # (-12, 12) so a third lie beyond the bounds, where the gradient is cut
    ("clamp", lambda a: _distances(ad.mul(a, Tensor(12.0)), 0.5), [(2, 4, 2, 2)], _away_from(-8 / 12, 8 / 12)),
    ("distances", lambda a: _distances(a, 8.0), [(2, 4, 3, 3)], None),
    # forward value equal to the input's function, so the identity backward
    # is the true gradient here; test_straight_through_* pin the other case
    ("straight_through", lambda a: ad.straight_through(ad.mul(a, a), np.square(a.data)), [(3, 4)], None),
    # with passes, a forward value of a's function times passes makes
    # g * passes the true gradient
    (
        "straight_through_passes",
        lambda a: ad.straight_through(ad.mul(a, a), np.square(a.data) * _PASSES, passes=_PASSES),
        [(3, 4)],
        None,
    ),
    (
        "straight_through_passes_row",
        lambda a: ad.straight_through(ad.mul(a, a), np.square(a.data) * _PASSES[0], passes=_PASSES[0]),
        [(3, 4)],
        None,
    ),
    ("sum", ad.tsum, [(3, 4)], None),
    ("sum_many", lambda a, b, c: ad.tsum(a, b, c), [(3, 4), (2,), (2, 1, 3)], None),
    # the detection loss's sum of its terms times 1/num_pos
    ("sum_scaled", lambda a, b: ad.tsum(a, b, scale=0.25), [(3, 4), (2,)], None),
    # standardize_rows: a router on 1x1 maps with an identity mix, so its
    # input rows are the standardized channel means themselves
    ("standardize_rows", lambda x: ad.router(x, Tensor(np.eye(5)), Tensor(_FC_5), Tensor(_FC_B)), [(3, 5, 1, 1)], None),
    # mean: the budget loss over a 2-D batch, 1/12 of each squared gap
    ("mean", lambda a: global_budget_loss(a, Tensor(np.full((3, 4), 0.3))), [(3, 4)], None),
    ("budget_loss", lambda c: global_budget_loss(c, Tensor(np.full(8, 0.3))), [(8,)], None),
    # the budget loss normalizing both sides by C_tot itself, both tracked
    ("budget_loss_normalized", lambda c, e: global_budget_loss(c, e, 7.0), [(8,), (8,)], None),
    # the max over a node's gates, billed at c_conv, plus the direction costs
    ("network_cost", lambda a: network_cost({_NODE: a}, _ONE_NODE_TABLE), [(4, 3)], _max_ties),
    # reshape: the bias of a 1x1 conv alone, reshaped to (1, C, 1, 1) and
    # broadcast over samples, rows and columns
    ("reshape", lambda b: ad.conv2d_1x1(Tensor(_GATE_X), Tensor(_MIX_3), b), [(3,)], None),
    ("concat", lambda a, b: ad.concat([a, b], axis=1), [(2, 3), (2, 2)], None),
    # a node's input, which absorbed the gate-column gather and the path
    # gate: take, two paths scaled by the same column, whose gradients
    # must sum there; take_slice_none, the gates alone, one column of
    # (4, 3); take_ellipsis_cols_1d, the last column at batch 1;
    # take_ellipsis_cols_2d, columns 0 and 2 of the same gates on the same
    # path; scale_by_gate, one gated path, as at a projection; path_mean,
    # three paths from three nodes, averaged over 0, 2 and 3 open paths
    (
        "take",
        lambda x, y, g: path_mean([(None, x, g, 1), (None, y, g, 1)], None, None, 2),
        [(2, 2, 2, 2), (2, 2, 2, 2), (2, 3)],
        None,
    ),
    ("take_slice_none", lambda g: path_mean([(None, Tensor(_GATE_X), g, 1)], None, None, 4), [(4, 3)], None),
    ("take_ellipsis_cols_1d", lambda x, g: path_mean([(None, x, g, 2)], None, None, 1), [(1, 2, 3, 3), (1, 3)], None),
    (
        "take_ellipsis_cols_2d",
        lambda x, g: path_mean([(None, x, g, 0), (None, x, g, 2)], None, None, 4),
        [(4, 2, 2, 2), (4, 3)],
        None,
    ),
    ("scale_by_gate", lambda x, g: path_mean([(None, x, g, 0)], None, None, 3), [(3, 2, 2, 3), (3, 3)], None),
    (
        "path_mean",
        lambda a, b, c, ga, gb, gc: path_mean(
            [(None, a, ga, 2), (None, b, gb, 1), (None, c, gc, 0)], np.array([0.0, 2.0, 3.0]), None, 3
        ),
        [(3, 2, 2, 2)] * 3 + [(3, 3)] * 3,
        None,
    ),
    # the weighted objective, both regularizers kept
    ("total_loss", lambda a, b, c: total_loss(a, b, c, LossWeights(0.7, 1.3)), [(), (), ()], None),
    ("identity", lambda a: a, [(3,)], None),
    # the detection loss terms, each one op: per-element focal losses of
    # (B, K, H, W) logits, and 1 - IoU of exp-positive distances at
    # three positives against fixed targets
    ("focal_loss", lambda x: _focal_loss(x, _ONEHOT), [(2, 3, 2, 2)], None),
    ("iou_loss", lambda raw: _iou_loss(ad.exp(raw), _POSITIVES, _BOX_TARGETS), [(2, 4, 3, 3)], _iou_ties),
    # the generic ops the loss ops absorbed, each checked where its math now
    # lives, in the regime that leans on it: sigmoid, the foreground focal
    # term a (1 - p)^2 (-log p) (every target positive); neg, the background
    # term (1 - a) p^2 (-log sigmoid(-x)) of the negated logits (none
    # positive); log_sigmoid, logits 4 to 6 past zero on the wrong side of
    # their targets, where the log of a tiny probability must stay accurate;
    # transpose, the (B, K, H, W) -> (B, H*W, K) layout on a non-square
    # level; div, predictions holding their targets, so the intersection is
    # fixed and 1 - IoU moves only through inter / union; minimum,
    # predictions inside their targets, so every min takes the prediction
    ("sigmoid", lambda x: _focal_loss(x, np.ones((2, 4, 3))), [(2, 3, 2, 2)], None),
    ("neg", lambda x: _focal_loss(x, np.zeros((2, 4, 3))), [(2, 3, 2, 2)], None),
    ("log_sigmoid", lambda x: _focal_loss(ad.add(x, Tensor(_TAILS)), _ONEHOT), [(2, 3, 2, 2)], None),
    ("transpose", lambda x: _focal_loss(x, _ONEHOT_2X3), [(2, 3, 2, 3)], None),
    ("div", lambda raw: _iou_loss(ad.add(ad.exp(raw), Tensor(3.0)), _POSITIVES, _BOX_TARGETS), [(2, 4, 3, 3)], None),
    ("minimum", lambda raw: _iou_loss(ad.mul(ad.exp(raw), Tensor(0.15)), _POSITIVES, _BOX_TARGETS), [(2, 4, 3, 3)], None),
    # the cosine of each route pair, inside the path-similarity loss
    ("cosine_similarity", lambda r: local_similarity_loss(r, _ENCODINGS, SimilarityConfig()), [(3, 6)], None),
    ("conv2d_1x1", lambda x, w: ad.conv2d_1x1(x, w), [(2, 3, 4, 4), (5, 3)], None),
    ("conv2d_1x1_s2", lambda x, w: ad.conv2d_1x1(x, w, stride=2), [(1, 2, 4, 4), (3, 2)], None),
    ("conv2d_1x1_bias", lambda x, w, b: ad.conv2d_1x1(x, w, b, stride=2), [(2, 3, 3, 4), (4, 3), (4,)], None),
    (
        "sepconv3x3",
        lambda x, dw, pw, b: ad.depthwise_separable_conv3x3(x, dw, pw, b),
        [(1, 2, 4, 4), (2, 3, 3), (3, 2), (3,)],
        None,
    ),
    (
        "sepconv3x3_s2",
        lambda x, dw, pw: ad.depthwise_separable_conv3x3(x, dw, pw, stride=2),
        [(1, 2, 5, 5), (2, 3, 3), (3, 2)],
        None,
    ),
    (
        "sepconv3x3_relu",
        lambda x, dw, pw, b: ad.depthwise_separable_conv3x3(x, dw, pw, b, relu=True),
        [(1, 2, 4, 4), (2, 3, 3), (3, 2), (3,)],
        _pre_activations_away_from_zero(1),
    ),
    (
        "sepconv3x3_s2_relu",
        lambda x, dw, pw: ad.depthwise_separable_conv3x3(x, dw, pw, stride=2, relu=True),
        [(1, 2, 5, 5), (2, 3, 3), (3, 2)],
        _pre_activations_away_from_zero(2),
    ),
    ("avg_pool_to", lambda x: ad.avg_pool_to(x, 2, 2), [(1, 2, 5, 5)], None),
    # global_avg_pool: a router's spatial mean of its 4x4 input's region means
    ("global_avg_pool", lambda x: ad.router(x, Tensor(np.eye(3)), Tensor(_FC_3), Tensor(_FC_B)), [(2, 3, 4, 4)], None),
    ("router", ad.router, [(2, 3, 3, 5), (3, 3), (3, 3), (3,)], None),
    ("fully_connected", ad.fully_connected, [(3, 4), (4, 2)], None),
    (
        "fully_connected_bias",
        lambda x, w, b: ad.fully_connected(x, w, b),
        [(3, 4), (4, 2), (2,)],
        None,
    ),
    ("bilinear_upsample_2x", ad.bilinear_upsample_2x, [(1, 2, 3, 4)], None),
]


@pytest.mark.parametrize("name,fn,shapes,guard", OPS, ids=[o[0] for o in OPS])
def test_gradients_match_finite_differences(name, fn, shapes, guard):
    """Every op: analytic vs central differences, 10 seeds, rel err < 1e-4."""
    for seed in range(10):
        report = grad_check(
            fn, shapes, epsilon=1e-5, tolerance=1e-4, seed=seed,
            resample_if=guard, name=name,
        )
        assert report.passed, str(report)


def test_grad_check_identity_zero_error():
    """Identity error is zero up to float rounding of the FD quotient;
    anything above 1e-9 would indicate a real gradient defect."""
    report = grad_check(lambda a: a, [(5,)], name="identity")
    assert report.max_rel_error < 1e-9


def test_grad_check_sepconv_random_input():
    report = grad_check(
        lambda x, dw, pw: ad.depthwise_separable_conv3x3(x, dw, pw),
        [(1, 4, 8, 8), (4, 3, 3), (4, 4)],
        seed=123,
        name="sepconv_1x4x8x8",
    )
    assert report.passed, str(report)


def test_grad_check_cosine_near_parallel():
    """Route cosines near 1 in the path-similarity loss, where the
    gradient nearly cancels."""
    base = np.random.default_rng(9).uniform(0.2, 1.0, size=6)
    enc = np.array([[1, 0, 0, 0], [0, 1, 0, 0]])

    def near_parallel(u):
        routes = ad.concat([_reshape(u, (1, 6)), Tensor(base[None] + 1e-3)])
        return local_similarity_loss(routes, enc, SimilarityConfig())

    report = grad_check(near_parallel, [(6,)], low=0.2, high=1.0, name="cosine_parallel")
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# checkpoint round trip
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    arrays = {
        "a.w": rng.normal(size=(3, 4)),
        "b.bias": rng.normal(size=(7,)),
        "scalar": np.float64(2.5).reshape(()),
    }
    meta = {"config": {"x": 1}}
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, arrays, meta)
    loaded, got_meta = ad.load_checkpoint(path)
    assert got_meta == meta
    assert list(loaded) == list(arrays)
    for k in arrays:
        np.testing.assert_array_equal(loaded[k], arrays[k])
    header = path.read_bytes()[:16]
    assert header.startswith(b"DYNROUTE-CKPT-1\n")


def test_load_params_rejects_an_array_no_parameter_takes():
    params = {"a.w": Tensor(np.zeros((2, 3)))}
    arrays = {"a.w": np.ones((2, 3)), "a.bogus": np.ones(2)}
    with pytest.raises(UsageError, match="checkpoint array a.bogus is not a parameter"):
        ad.load_params(params, arrays)
    assert not params["a.w"].data.any()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_checkpoint_rejects_a_non_finite_array(tmp_path, value):
    """A checkpoint array holding NaN or an infinity is refused by name;
    load_params still takes such arrays from memory."""
    arrays = {"a.w": np.ones((2, 3)), "b.bias": np.array([0.5, value])}
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(path, arrays)
    with pytest.raises(UsageError, match="checkpoint array b.bias is not finite"):
        ad.load_checkpoint(path)
    params = {k: Tensor(np.zeros(v.shape)) for k, v in arrays.items()}
    ad.load_params(params, arrays)
    assert params["b.bias"].data.tobytes() == arrays["b.bias"].tobytes()


def test_checkpoint_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOT-A-CKPT\nrest\n")
    with pytest.raises(UsageError):
        ad.load_checkpoint(path)
