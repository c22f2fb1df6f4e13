"""Convolution, pooling, upsampling, and dense ops on NCHW tensors.

All ops take and return Tensors, record onto the active tape, and keep
the shape arithmetic of standard convolution:
    out = floor((in + 2*pad - kernel) / stride) + 1
Depthwise separable 3x3 convolutions use padding 1 in both strides.
Bilinear upsampling follows the align-corners-false convention: output
pixel i samples source coordinate (i + 0.5) / 2 - 0.5, clamped at edges.

The channel contraction of a pointwise conv (the forward of conv2d_1x1
and the pointwise step of depthwise_separable_conv3x3) runs in one of
two kernels. With no tape active (inference and eval) it is a BLAS
matmul, or for one input channel the outer product that matmul
computes. Under a tape it gives the bytes of
np.einsum("oc,bchw->bohw", w, x), so training steps, gradients and
checkpoints keep the rounding they had before the matmul path existed.
The two differ only in the last bits, well inside the 1e-9 train/infer
tolerance of acceptance criterion 4. Each kernel contracts every sample
on its own, so a batch equals its batch-1 calls bit for bit in either
mode.

The taped contraction and the input gradients of conv2d_1x1,
depthwise_separable_conv3x3 and router (np.einsum("oc,bohw->bchw", w,
g)) run channel-major (_contract): the features copied to (C, B, H, W),
one einsum over them and the result copied back C-contiguous. The
einsum sums each output over c in order from +0 in both layouts, so the
bytes are the same (checked on numpy 2.4.6, tests/test_autodiff.py).
At batch 8 on a 2-core Xeon the channel-major calls, copies included,
are 2-5.5x faster on 2x2 and 4x4 maps of 16-64 channels, and the input
gradient 3.6x faster on 8x8 maps of 32. Two cases keep the plain einsum, because the channel-major
call rounds differently there: 1x1 maps and features not laid out in C
order (the transposed layout of an upsampled map), where c is the
innermost axis in memory. The weight gradients
(np.einsum("bohw,bchw->oc")) stay plain einsums: their channel-major
form sums in another order and rounds differently.

The depthwise taps of depthwise_separable_conv3x3 have one kernel,
with or without a tape (_depthwise_taps): one spatial-major padded
copy (H+2, W+2, B, C), weights tiled to (3, 3, B, C), and one
np.einsum("uvbc,uvijbc->ijbc") of the taps that read a sample with a
read-only (u, v, oh, ow, B, C) strided window of the copy
(_window_tap_sum). Each output sums its products in the textbook
(u, v) order from +0, so the taps are byte-equal to the nine-slice
formula and training rounds as it always has: with the tiled weights
einsum iterates (u, v) outermost and adds each product into its +0
output in tap order, as a loop of one multiply and one add per tap
over contiguous B*C rows would. The stride-1 input gradient of the
backward is the same einsum over a window of the output gradient
padded by 2, whose taps step backwards. Three cases keep that loop
(_window_taps, and stride 2 in the backward): one B*C row, where
einsum reorders its loop and rounds differently; 1x1 maps, where the
loop is faster; and the stride-2 input gradient, where a window would
need a dilated copy of the gradient and is slower. The depthwise weight
gradient sums products over samples and space, an order the layout
sets, so it keeps an NCHW padded copy of the input, built in the
backward: the tape holds none between forward and backward. Both convs
skip the input gradient of a tensor that needs none (the images).

A conv block (separable conv, bias, ReLU) is one op and one tape entry:
with relu=True the op clamps its own fresh output in place, byte-equal
to np.where(x > 0, x, 0.0), and its backward rebuilds the mask from it.
A trellis node's router (region means, 1x1 mix, spatial mean, row
standardization, dense layer, tanh) is one op too (router), sharing
avg_pool_to's region code and the pointwise kernels above.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from .tensor import Tensor, _first_grad, _unbroadcast, active_tape, record


def _require_nchw(name: str, x: Tensor) -> None:
    if x.data.ndim != 4:
        raise ConfigurationError(f"{name}: expected a B,C,H,W tensor, got shape {x.data.shape}")


def _pointwise(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Contract (O, C) weights with (B, C, H, W) features to (B, O, H, W).

    With no tape active this is one BLAS matmul per sample, or at C=1 the
    outer product it computes (plus 0.0: its sums start at +0). Under a
    tape it is _contract, the einsum's bytes, so a training run rounds as
    before.
    """
    if active_tape() is not None:
        return _contract(w, x)
    B, C, H, W = x.shape
    if C == 1:
        out = w[:, 0, None, None] * x
        out += 0.0
        return out
    return np.matmul(w, x.reshape(B, C, H * W)).reshape(B, w.shape[0], H, W)


def _contract(w: np.ndarray, x: np.ndarray, transposed: bool = False) -> np.ndarray:
    """np.einsum("oc,bchw->bohw", w, x), or with transposed the input
    gradient np.einsum("oc,bohw->bchw", w, x), byte for byte.

    On maps larger than 1x1 with features in C order (strided views
    included) this runs channel-major, w (or w.T) by a (C, B, H, W) copy
    of x, and returns C-contiguous, as the einsum lays out its result for
    such features. Otherwise it is that einsum.
    """
    s = x.strides
    if x.shape[2] * x.shape[3] > 1 and s[0] >= s[1] >= s[2] >= s[3]:
        m = np.ascontiguousarray(w.T) if transposed else w
        x_cb = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
        return np.ascontiguousarray(np.einsum("oc,cbhw->bohw", m, x_cb))
    return np.einsum("oc,bohw->bchw" if transposed else "oc,bchw->bohw", w, x)


def _tap_offsets(n: int, n_out: int) -> range:
    """Offsets of the 3-tap window along an axis of n samples (padding 1,
    n_out outputs) that read at least one real sample.

    Offset 0 starts on the leading pad and reaches a sample only from the
    second output on; offset 2 starts on the second sample, which exists
    only if n > 1.
    """
    return range(0 if n_out > 1 else 1, 3 if n > 1 else 2)


def _tiled_taps(w_dw: np.ndarray, batch: int) -> np.ndarray:
    """(C, 3, 3) depthwise weights tiled to (3, 3, batch, C), so each tap
    multiplies contiguous batch*C rows of a spatial-major map."""
    w = np.empty((3, 3, batch, w_dw.shape[0]))
    w[...] = w_dw.transpose(1, 2, 0)[:, :, None, :]
    return w


def _window_taps(rows: int, oh: int, ow: int) -> bool:
    """Whether taps over rows = B*C rows onto an oh x ow map run as one
    einsum over a strided window (_window_tap_sum) rather than a loop.

    One row lets einsum reorder its loop, which rounds differently, and
    on a 1x1 map the loop is faster.
    """
    return rows > 1 and oh * ow > 1


def _window_tap_sum(w, a, us, vs, origin, tap_step, oh, ow, out_step):
    """np.einsum("uvbc,uvijbc->ijbc") of the tiled taps w[us, vs] and a
    read-only (u, v, oh, ow, B, C) window of the spatial-major map a.
    Output (0, 0) reads tap (us[0], vs[0]) at a[origin]; the next tap
    reads tap_step rows (columns) on, the next output out_step.

    The einsum runs (u, v) outermost and adds each product into an
    output that starts at +0, in tap order, as the loop does.
    """
    s0, s1, s2, s3 = a.strides
    window = np.lib.stride_tricks.as_strided(
        a[origin],
        shape=(len(us), len(vs), oh, ow) + a.shape[2:],
        strides=(tap_step * s0, tap_step * s1, out_step * s0, out_step * s1, s2, s3),
        writeable=False,
    )
    return np.einsum("uvbc,uvijbc->ijbc", w[us.start : us.stop, vs.start : vs.stop], window)


def _depthwise_taps(x: np.ndarray, w_dw: np.ndarray, stride: int) -> np.ndarray:
    """3x3 depthwise conv (padding 1) of (B, C, H, W) features by (C, 3, 3)
    weights, returned C-contiguous as (B, C, oh, ow).

    Skipping a tap that reads only padding changes no bit: with finite
    weights it would add +-0 to an accumulator that started at +0 and so
    is +0 or nonzero, never -0.
    """
    B, C, H, W = x.shape
    oh = (H - 1) // stride + 1
    ow = (W - 1) // stride + 1
    xp = np.zeros((H + 2, W + 2, B, C))
    xp[1 : 1 + H, 1 : 1 + W] = x.transpose(2, 3, 0, 1)
    w = _tiled_taps(w_dw, B)
    us, vs = _tap_offsets(H, oh), _tap_offsets(W, ow)
    if _window_taps(B * C, oh, ow):
        acc = _window_tap_sum(w, xp, us, vs, (us.start, vs.start), 1, oh, ow, stride)
    else:
        acc = np.zeros((oh, ow, B, C))
        tmp = np.empty_like(acc)
        for u in us:
            for v in vs:
                np.multiply(w[u, v], xp[u : u + stride * oh : stride, v : v + stride * ow : stride], out=tmp)
                acc += tmp
    return np.ascontiguousarray(acc.transpose(2, 3, 0, 1))


def _depthwise_input_grad(gt: np.ndarray, w_dw: np.ndarray, H: int, W: int, stride: int) -> np.ndarray:
    """The gradient of _depthwise_taps's (B, C, H, W) input from that of
    its (B, C, oh, ow) output, as a (B, C, H, W) view of a spatial-major
    array.

    The loop adds each tap's products, in tap order, into a padded
    buffer. At stride 1 _window_tap_sum gathers the same sums: output
    (i, j) reads tap (u, v) at (i + 3 - u, j + 3 - v) of the gradient
    padded by 2, a window that steps back as the tap steps on.
    """
    B, C, oh, ow = gt.shape
    w = _tiled_taps(w_dw, B)
    us, vs = _tap_offsets(H, oh), _tap_offsets(W, ow)
    if stride == 1 and _window_taps(B * C, oh, ow):
        gtp = np.zeros((H + 4, W + 4, B, C))
        gtp[2 : 2 + H, 2 : 2 + W] = gt.transpose(2, 3, 0, 1)
        gx = _window_tap_sum(w, gtp, us, vs, (3 - us.start, 3 - vs.start), -1, H, W, 1)
        return gx.transpose(2, 3, 0, 1)
    gt_s = np.ascontiguousarray(gt.transpose(2, 3, 0, 1))
    gxp = np.zeros((H + 2, W + 2, B, C))
    tmp = np.empty_like(gt_s)
    for u in us:
        for v in vs:
            np.multiply(w[u, v], gt_s, out=tmp)
            gxp[u : u + stride * oh : stride, v : v + stride * ow : stride] += tmp
    return gxp[1 : 1 + H, 1 : 1 + W].transpose(2, 3, 0, 1)


def conv2d_1x1(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1) -> Tensor:
    """Pointwise convolution. Weight shape (C_out, C_in); bias (C_out,) or
    None, its gradient summed over samples, then rows, then columns
    (_unbroadcast; one sum over the three axes rounds differently)."""
    _require_nchw("conv2d_1x1", x)
    if stride not in (1, 2):
        raise ConfigurationError(f"conv2d_1x1: stride must be 1 or 2, got {stride}")
    if w.data.ndim != 2 or w.data.shape[1] != x.data.shape[1]:
        raise ConfigurationError(
            f"conv2d_1x1: weight {w.data.shape} does not match input channels "
            f"{x.data.shape[1]}"
        )
    xs = x.data[:, :, ::stride, ::stride]
    out = _pointwise(w.data, xs)
    if b is not None:
        out += b.data[None, :, None, None]
    x_shape = x.data.shape
    w_data = w.data

    def backward(g):
        gx = None
        if x.requires_grad:
            gx = np.zeros(x_shape)
            gx[:, :, ::stride, ::stride] = _contract(w_data, g, transposed=True)
        gw = np.einsum("bohw,bchw->oc", g, xs)
        if b is None:
            return gx, gw
        return gx, gw, _unbroadcast(g, (1, g.shape[1], 1, 1)).reshape(-1)

    return record((x, w) if b is None else (x, w, b), out, backward)


def depthwise_separable_conv3x3(
    x: Tensor,
    w_dw: Tensor,
    w_pw: Tensor,
    b_pw: Tensor | None = None,
    stride: int = 1,
    relu: bool = False,
) -> Tensor:
    """3x3 depthwise conv (padding 1) followed by a 1x1 pointwise conv,
    then the bias and, with relu, a ReLU.

    w_dw: (C_in, 3, 3); w_pw: (C_out, C_in); b_pw: (C_out,) or None.
    """
    _require_nchw("depthwise_separable_conv3x3", x)
    if stride not in (1, 2):
        raise ConfigurationError(f"depthwise_separable_conv3x3: stride must be 1 or 2, got {stride}")
    B, C, H, W = x.data.shape
    if w_dw.data.shape != (C, 3, 3):
        raise ConfigurationError(
            f"depthwise_separable_conv3x3: depthwise weight {w_dw.data.shape} "
            f"does not match input channels {C}"
        )
    if w_pw.data.ndim != 2 or w_pw.data.shape[1] != C:
        raise ConfigurationError(
            f"depthwise_separable_conv3x3: pointwise weight {w_pw.data.shape} "
            f"does not match input channels {C}"
        )
    t = _depthwise_taps(x.data, w_dw.data, stride)
    out = _pointwise(w_pw.data, t)
    if b_pw is not None:
        out += b_pw.data[None, :, None, None]
    if relu:
        # fmax sends NaN to 0 and += 0.0 sends -0.0 to +0.0: the bytes of
        # np.where(out > 0, out, 0.0)
        np.fmax(out, 0.0, out=out)
        out += 0.0

    x_data, w_dw_data, w_pw_data = x.data, w_dw.data, w_pw.data
    oh, ow = t.shape[2:]

    def backward(g):
        if relu:
            # the -0.0s of g * mask reach no .grad: the tape adds 0.0 to
            # a first gradient and sums the later ones
            g = g * (out > 0)
        gt = _contract(w_pw_data, g, transposed=True)
        g_pw = np.einsum("bohw,bchw->oc", g, t)
        g_b = g.sum(axis=(0, 2, 3)) if b_pw is not None else None
        xp = np.zeros((B, C, H + 2, W + 2))
        xp[:, :, 1 : 1 + H, 1 : 1 + W] = x_data
        g_dw = np.zeros_like(w_dw_data)
        # as in the forward, taps that read only padding are skipped; a
        # skipped g_dw column stays +0, the sum of its zero products but
        # for the sign, which the tape's first-gradient + 0.0 drops
        for u in _tap_offsets(H, oh):
            for v in _tap_offsets(W, ow):
                sl = xp[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride]
                g_dw[:, u, v] = (gt * sl).sum(axis=(0, 2, 3))
        gx = _depthwise_input_grad(gt, w_dw_data, H, W, stride) if x.requires_grad else None
        if b_pw is not None:
            return gx, g_dw, g_pw, g_b
        return gx, g_dw, g_pw

    inputs = (x, w_dw, w_pw) if b_pw is None else (x, w_dw, w_pw, b_pw)
    return record(inputs, out, backward)


def _region_means(x: np.ndarray, out_h: int, out_w: int):
    """Adaptive average pooling of (B, C, H, W) features to (B, C, out_h,
    out_w), and the map of an output gradient back to the features.

    Region boundaries follow floor(i*H/oh) .. ceil((i+1)*H/oh); with an
    output larger than the input this degenerates to replication.
    """
    B, C, H, W = shape = x.shape
    rows = [(i * H // out_h, -(-(i + 1) * H // out_h)) for i in range(out_h)]
    cols = [(j * W // out_w, -(-(j + 1) * W // out_w)) for j in range(out_w)]
    out = np.empty((B, C, out_h, out_w))
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            out[:, :, i, j] = x[:, :, r0:r1, c0:c1].mean(axis=(2, 3))

    def backward(g):
        gx = np.zeros(shape)
        for i, (r0, r1) in enumerate(rows):
            for j, (c0, c1) in enumerate(cols):
                area = (r1 - r0) * (c1 - c0)
                gx[:, :, r0:r1, c0:c1] += g[:, :, i : i + 1, j : j + 1] / area
        return gx

    return out, backward


def avg_pool_to(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Adaptive average pooling to a fixed output size (_region_means)."""
    _require_nchw("avg_pool_to", x)
    out, backward = _region_means(x.data, out_h, out_w)
    return record((x,), out, lambda g: (backward(g),))


def router(x: Tensor, conv_w: Tensor, fc_w: Tensor, fc_b: Tensor) -> Tensor:
    """A trellis node's router as one op: the (B, 3) tanh of its logits.

    The (B, C, H, W) features are pooled to their 2x2 region means,
    mixed by the (C, C) 1x1 weights conv_w (_pointwise), averaged over
    space, standardized per row (zero mean, unit variance over channels,
    eps 1e-6) and mapped by the dense layer fc_w (C, 3), fc_b (3,).
    Forward and backward repeat the float steps of the chain of generic
    ops it replaced (avg_pool_to, conv2d_1x1, spatial mean, row
    standardization, fully_connected, tanh) in order.
    """
    _require_nchw("router", x)
    pooled, pool_backward = _region_means(x.data, 2, 2)
    mixed = _pointwise(conv_w.data, pooled)
    means = mixed.mean(axis=(2, 3))
    inv_c = 1.0 / means.shape[1]
    c = means - np.sum(means, axis=1, keepdims=True) * inv_c
    sd = np.sqrt(np.sum(c * c, axis=1, keepdims=True) * inv_c + 1e-6)
    rows = c / sd
    logits = rows @ fc_w.data + fc_b.data
    out = np.tanh(logits)
    w_mix, w_fc = conv_w.data, fc_w.data

    def backward(g):
        g_logits = g * (1.0 - out * out)
        g_rows = g_logits @ w_fc.T
        g_sd = np.sum(-g_rows * c / (sd * sd), axis=1, keepdims=True)
        g_c = g_rows / sd + 2.0 * c * (g_sd * 0.5 / sd * inv_c)
        # the centered rows' gradient first, then their mean's, as the
        # chain's standardization handed them to the tape one at a time
        g_means = g_c + np.sum(-g_c, axis=1, keepdims=True) * inv_c
        # laid out as mixed, not as a broadcast view: the einsums sum in that order
        g_mixed = _first_grad(np.broadcast_to(g_means[:, :, None, None] / 4, mixed.shape), mixed)
        return (
            pool_backward(_contract(w_mix, g_mixed, transposed=True)),
            np.einsum("bohw,bchw->oc", g_mixed, pooled),
            rows.T @ g_logits,
            g_logits.sum(axis=0),
        )

    return record((x, conv_w, fc_w, fc_b), out, backward)


def fully_connected(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Dense layer: (B, F) @ (F, O) + (O,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ConfigurationError(
            f"fully_connected: shapes {x.data.shape} @ {w.data.shape} do not conform"
        )
    out = x.data @ w.data
    if b is not None:
        out = out + b.data
    x_data, w_data = x.data, w.data

    def backward(g):
        gx = g @ w_data.T
        gw = x_data.T @ g
        if b is not None:
            return gx, gw, g.sum(axis=0)
        return gx, gw

    inputs = (x, w) if b is None else (x, w, b)
    return record(inputs, out, backward)


@lru_cache(maxsize=None)
def _upsample_axis_coeffs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Source rows (lo, hi) and weights of a 2x upsampled axis of size n.

    Cached per size, so the arrays are read-only.
    """
    src = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
    i0 = np.floor(src).astype(np.intp)
    frac = src - i0
    lo = np.clip(i0, 0, n - 1)
    hi = np.clip(i0 + 1, 0, n - 1)
    coeffs = (lo, hi, 1.0 - frac, frac)
    for a in coeffs:
        a.flags.writeable = False
    return coeffs


def _upsample_axis_grad(out: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray) -> None:
    """Add into out (last axis n) the gradients of the 2n upsampled
    outputs through their lo and hi source taps (_upsample_axis_coeffs).

    Output 0 reads sample 0 twice, outputs 2m-1 and 2m read m-1 and m,
    and output 2n-1 reads n-1 twice. Each sample sums its gradients in the
    order np.add.at would: first the lo taps by output index, then the hi
    taps by output index.
    """
    n = out.shape[-1]
    out[..., 0] += g_lo[..., 0]
    out[..., :] += g_lo[..., 1::2]
    out[..., : n - 1] += g_lo[..., 2::2]
    out[..., 0] += g_hi[..., 0]
    out[..., 1:] += g_hi[..., 1 : 2 * n - 2 : 2]
    out[..., 1:] += g_hi[..., 2 : 2 * n - 1 : 2]
    out[..., n - 1] += g_hi[..., 2 * n - 1]


def bilinear_upsample_2x(x: Tensor) -> Tensor:
    """Double the spatial size with bilinear interpolation (align corners false)."""
    _require_nchw("bilinear_upsample_2x", x)
    B, C, H, W = x.data.shape
    r0, r1, wr0, wr1 = _upsample_axis_coeffs(H)
    c0, c1, wc0, wc1 = _upsample_axis_coeffs(W)
    tmp = x.data[:, :, r0, :] * wr0[:, None] + x.data[:, :, r1, :] * wr1[:, None]
    out = tmp[:, :, :, c0] * wc0 + tmp[:, :, :, c1] * wc1

    def backward(g):
        gtmp = np.zeros((B, C, 2 * H, W))
        _upsample_axis_grad(gtmp, g * wc0, g * wc1)
        gx = np.zeros((B, C, H, W))
        _upsample_axis_grad(
            gx.swapaxes(2, 3), (gtmp * wr0[:, None]).swapaxes(2, 3), (gtmp * wr1[:, None]).swapaxes(2, 3)
        )
        return (gx,)

    return record((x,), out, backward)
