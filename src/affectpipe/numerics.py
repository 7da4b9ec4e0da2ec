"""Dense tensor kernels with matching analytic adjoints.

A Tensor4 is a float64 numpy array indexed (batch, channels, height,
width) in any strided memory layout; the depthwise path below returns a
view of channels-last memory and the im2col path a view of channel-major
(c, n, h, w) memory. Every operation here is a pure function;
each layer op has a companion ``*_backward`` that returns the exact
analytic adjoints of its inputs and parameters, verified against central
finite differences in the test suite.  Sigmoid and softmax only squash
outputs; the training losses derive their adjoints inline.

Convolution takes one of two paths, chosen only by the ``ConvSpec``.  A
depthwise spec whose every group has one input and one output channel
(``in_channels == out_channels == groups``) sums its kernel taps over a
strided window view of a zero-padded channels-last copy of the input.  It
sums only the live taps, those whose reads reach the input at some output
position (``live_taps``, from the spec and the input's height and width
alone): on a small input most of a dilated kernel reads only padding.  The
copy is padded only as far as the live taps read (``live_margin``).
``conv2d`` makes that copy itself unless the caller passes one in as
``padded``: a unit whose several dilated branches read the same input
makes one copy, padded to the widest live margin of the branches, and
every branch reads it at its own offset.  Such a branch also passes
``out``, its slot of one buffer that holds every branch's output, and the
taps are summed straight into it.  Every other spec gathers the
padded, strided and dilated input once into a channel-major column tensor
(im2col) whose columns run over the whole batch, (groups, cin/g*k*k,
n*oh*ow), and multiplies it by the grouped weights in one GEMM per group.
A skinny GEMM, as a small frame's deep layers run (few columns, a column
tensor that fits in L2, many weights), is walked instead in runs of weight
rows, each its own GEMM into its slice of one output array: the column
tensor stays in cache while the weights stream past it once.  The output is
laid out channel-major, so a stride-1 1x1 convolution that reads it takes
its columns by a reshape, as a view, without a copy.  The adjoint of both
paths is the im2col one: the weight gradient is one GEMM per group over
the batch's n*oh*ow columns, and the input gradient scatter-adds the
weight-transposed columns back over all k*k kernel offsets, live or not,
into a channel-major buffer.  An im2col ``conv2d`` can hand its column
tensor to the caller, and ``conv2d_backward`` reads that instead of
building it again from the input.  ``require_count`` and ``require_real``
are the one check of every module's numeric settings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions violate an operation's contract."""


class NumericError(ValueError):
    """Non-finite values where the contract requires finite ones."""


def require_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {what}")


def require_count(value, name: str, minimum: int = 1, error: type = ValueError) -> None:
    """A Python or numpy integer, not a bool, of at least minimum (1, or 0 for a seed)."""
    if not _is_count(value) or value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise error(f"{name} must be a {kind} integer, got {value!r}")


def require_real(value, name: str, positive: bool = False) -> None:
    """A finite Python or numpy number, not a bool, and above 0 if positive."""
    if not (_is_real(value) and (not positive or value > 0) and math.isfinite(value)):
        need = "be positive and finite" if positive else "be a finite real number"
        raise ValueError(f"{name} must {need}, got {value!r}")


# The walk of a skinny GEMM in weight-row runs (see _run_rows): a column
# tensor of at most GEMM_COLUMNS columns and GEMM_BLOCK elements (512 KiB of
# float64, in L2), runs of GEMM_RUN_MACS multiply-adds each.
GEMM_COLUMNS = 32
GEMM_BLOCK = 1 << 16
GEMM_RUN_MACS = 1 << 19


def _is_count(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A Python or numpy integer or float, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _as_tensor4(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"input must be 4-d (batch, channels, h, w), got shape {x.shape}")
    return x


@dataclass(frozen=True)
class ConvSpec:
    """Static description of a 2-d convolution.

    Depthwise convolution is expressed as ``groups == in_channels``;
    ``out_channels`` may then be any multiple of ``groups`` (channel
    multiplier). Kernels are square and odd.
    """

    in_channels: int
    out_channels: int
    kernel: int = 3
    stride: int = 1
    padding: int = 0
    groups: int = 1
    dilation: int = 1

    def __post_init__(self) -> None:
        for name in ("in_channels", "out_channels", "kernel", "stride", "groups", "dilation"):
            require_count(getattr(self, name), f"ConvSpec.{name}", error=ShapeError)
        require_count(self.padding, "ConvSpec.padding", minimum=0, error=ShapeError)
        if self.kernel % 2 == 0:
            raise ShapeError("only odd kernels are supported")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ShapeError("in_channels and out_channels must be divisible by groups")

    @property
    def per_channel(self) -> bool:
        """One input and one output channel per group: the depthwise taps path."""
        return self.in_channels == self.out_channels == self.groups

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups, self.kernel, self.kernel)

    def out_hw(self, hw: tuple[int, int]) -> tuple[int, int]:
        h, w = hw
        span = self.dilation * (self.kernel - 1) + 1
        oh = (h + 2 * self.padding - span) // self.stride + 1
        ow = (w + 2 * self.padding - span) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ShapeError(f"spatial size {hw} too small for {self}")
        return oh, ow

    def macs(self, hw: tuple[int, int]) -> int:
        """Multiply-accumulates of the kernel product, bias excluded."""
        oh, ow = self.out_hw(hw)
        return oh * ow * self.out_channels * (self.in_channels // self.groups) * self.kernel**2


def _conv_geometry(x: np.ndarray, spec: ConvSpec, weights: np.ndarray):
    x = _as_tensor4(x)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != spec.weight_shape:
        raise ShapeError(f"weight shape {weights.shape} != expected {spec.weight_shape}")
    n, cin, h, w = x.shape
    if cin != spec.in_channels:
        raise ShapeError(f"input has {cin} channels, spec expects {spec.in_channels}")
    oh, ow = spec.out_hw((h, w))
    return x, weights, n, oh, ow


def _im2col(x: np.ndarray, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    """Column tensor (groups, cin/g*k*k, n*oh*ow) of an unpadded input.

    Row (c, ki, kj) of group gi holds input channel gi*cin/g + c at offset
    (ki*d, kj*d) of every output position's receptive field, and column
    (b, i, j) is sample b's output position (i, j): the batch is folded into
    the columns, so one GEMM per group covers it.  A padded input is copied
    into a zero-bordered channel-major (c, n, h+2p, w+2p) buffer first.  A
    1x1 kernel without padding at stride 1 is a reshape of the channel-major
    view, with no window view: a view, not a copy, of an input whose (n, h,
    w) axes share one stride, as channel-major and channels-last memory
    both do.
    """
    p = spec.padding
    xc = x.transpose(1, 0, 2, 3)
    g, k, s, d = spec.groups, spec.kernel, spec.stride, spec.dilation
    cin_g = spec.in_channels // g
    if k == 1 and s == 1 and not p:
        return xc.reshape(g, cin_g, -1)
    if p:
        # np.pad's bytes without its per-call overhead: zero the four border
        # strips of an empty buffer and copy x into the interior.
        c, n, h, w = xc.shape
        xp = np.empty((c, n, h + 2 * p, w + 2 * p))
        xp[:, :, :p] = 0.0
        xp[:, :, h + p :] = 0.0
        xp[:, :, p : h + p, :p] = 0.0
        xp[:, :, p : h + p, w + p :] = 0.0
        xp[:, :, p : h + p, p : w + p] = xc
        xc = xp
    n = xc.shape[1]
    sc, sn, sh, sw = xc.strides
    windows = np.lib.stride_tricks.as_strided(
        xc,
        shape=(g, cin_g, k, k, n, oh, ow),
        strides=(sc * cin_g, sc, sh * d, sw * d, sn, sh * s, sw * s),
        writeable=False,
    )
    return windows.reshape(g, cin_g * k * k, n * oh * ow)


@functools.lru_cache(maxsize=1024)
def live_taps(spec: ConvSpec, hw: tuple[int, int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Kernel rows and columns ``((lo, hi), (lo, hi))`` that the taps path sums.

    Along each axis these are the offsets from the first to the last one
    whose reads reach the input at some output position; every offset
    outside [lo, hi) reads only zero padding, at every output position, so
    its products are exactly zero.  An axis with no such offset gives an
    empty range.
    """
    k, s, d, p = spec.kernel, spec.stride, spec.dilation, spec.padding
    ranges = []
    for size, out in zip(hw, spec.out_hw(hw)):
        # Offset t reads t*d - p + i*s at output i; i is the first read at or
        # past the input's start.
        live = [t for t in range(k)
                if (i := max(0, -((t * d - p) // s))) < out and t * d - p + i * s < size]
        ranges.append((live[0], live[-1] + 1) if live else (0, 0))
    return ranges[0], ranges[1]


@functools.lru_cache(maxsize=1024)
def live_margin(spec: ConvSpec, hw: tuple[int, int]) -> int:
    """Zero padding around an input of ``hw`` that the live taps of a
    per-channel spec read (see :func:`live_taps`): the margin its padded
    copy needs, at most ``spec.padding``."""
    d, s, p = spec.dilation, spec.stride, spec.padding
    spans = list(zip(live_taps(spec, hw), hw, spec.out_hw(hw)))
    if any(lo == hi for (lo, hi), _, _ in spans):
        return 0
    return max(max(p - lo * d, (hi - 1) * d + (out - 1) * s - p - (size - 1), 0)
               for (lo, hi), size, out in spans)


def _pad_channels_last(x: np.ndarray, margin: int) -> np.ndarray:
    """Zero-padded channels-last copy (n, h + 2*margin, w + 2*margin, c) of x.

    The copy is where the depthwise taps path checks its input, so a copy
    that several convolutions share is checked once.
    """
    require_finite(x, "conv2d input")
    n, c, h, w = x.shape
    xp = np.zeros((n, h + 2 * margin, w + 2 * margin, c))
    xp[:, margin : margin + h, margin : margin + w] = x.transpose(0, 2, 3, 1)
    return xp


def _depthwise_taps(xp: np.ndarray, margin: int, spec: ConvSpec, weights: np.ndarray,
                    oh: int, ow: int, out: np.ndarray | None = None) -> np.ndarray:
    """Channel-multiplier-1 depthwise convolution as one sum over its live taps.

    ``xp`` is a zero-padded channels-last copy of the input (see
    :func:`_pad_channels_last`), made by :func:`conv2d` or passed in by a
    caller that shares it between several convolutions; its ``margin`` is at
    least the spec's :func:`live_margin` and may exceed ``spec.padding``.
    Only the taps whose reads reach the input (:func:`live_taps`) are
    summed: the others multiply zero padding alone, and a sum that drops
    exactly-zero products keeps its bits.  A window view (n, oh, ow, kh, kw,
    c) of the live taps covers stride and dilation, and one einsum against
    the weights sums them.  The (kh, kw, c) taps are tiled across the output
    width to a contiguous (kh, kw, ow, c) array, so at stride 1 each tap is
    summed over a whole output row of ow*c contiguous elements.  From two
    channels on, the taps are added in the same order, to the same bits, as
    by an einsum against all (k, k, c) taps.  The tiled taps are a
    contiguous copy: as a transposed view this path ran slower than im2col,
    and a broadcast view rounds differently.  The result is written into
    ``out``, an (n, c, oh, ow) array, or into a new one, and is an NCHW
    view of an NHWC array.
    """
    n, c = xp.shape[0], xp.shape[3]
    if out is None:
        out = np.empty((n, oh, ow, c)).transpose(0, 3, 1, 2)
    k = spec.kernel
    hw = (xp.shape[1] - 2 * margin, xp.shape[2] - 2 * margin)
    (r0, r1), (c0, c1) = live_taps(spec, hw)
    if r0 == r1 or c0 == c1:
        out[...] = 0.0
        return out
    s, d = spec.stride, spec.dilation
    start = margin - spec.padding
    sn, sh, sw, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp[:, start + r0 * d :, start + c0 * d :],
        shape=(n, oh, ow, r1 - r0, c1 - c0, c),
        strides=(sn, sh * s, sw * s, sh * d, sw * d, sc),
        writeable=False,
    )
    taps = weights.reshape(c, k, k)[:, r0:r1, c0:c1].transpose(1, 2, 0)[:, :, None].repeat(ow, axis=2)
    np.einsum("nhwijc,ijwc->nhwc", windows, taps, out=out.transpose(0, 2, 3, 1))
    return out


def _run_rows(out_rows: int, cin_k: int, cols: int) -> int:
    """Weight rows per run where a group's GEMM, (out_rows x cin_k) weights
    by (cin_k x cols) columns, is walked in row runs, else 0.

    A skinny GEMM is walked: at most ``GEMM_COLUMNS`` columns, a column
    tensor that fits in one ``GEMM_BLOCK``, and more than two runs'
    multiply-adds, ``GEMM_RUN_MACS`` each.  On a Xeon host with OpenBLAS
    0.3.31 at one thread, with weights not in cache, the walk took 0.56-0.76x
    the time of one GEMM on six of the seven shapes walked at 32 px batch 8
    (median of 5 runs of 15 calls); the seventh, bottleneck's single 307 x
    128 by 32 columns, took 1.04x.  A GEMM of 49-128 columns, or of at most
    two runs, was as fast or faster whole.  Runs of one block of weights
    each, whatever the column count, were slower than one GEMM from 16
    columns on.
    """
    if cols > GEMM_COLUMNS or cin_k * cols > GEMM_BLOCK or out_rows * cin_k * cols <= 2 * GEMM_RUN_MACS:
        return 0
    return GEMM_RUN_MACS // (cin_k * cols)


def _row_blocked_matmul(wg: np.ndarray, columns: np.ndarray, rows: int) -> np.ndarray:
    """``np.matmul(wg, columns)`` over (g, m, K) weights and (g, K, N)
    columns, one GEMM per run of ``rows`` weight rows, each written into its
    slice of one (g, m, N) output.  Each output entry is the same K-long
    product as in one GEMM, but the BLAS may round a run's rows differently
    from a whole GEMM's, by about 1e-15 relative.
    """
    g, m, _ = wg.shape
    out = np.empty((g, m, columns.shape[2]))
    for gi in range(g):
        for start in range(0, m, rows):
            np.matmul(wg[gi, start : start + rows], columns[gi], out=out[gi, start : start + rows])
    return out


def _grouped_matmul(wg: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``np.matmul(wg, columns)`` over (g, m, K) weights and (g, K, N)
    columns: one GEMM per group, or, for a skinny GEMM, the walk in runs of
    weight rows that :func:`_run_rows` chooses from the shapes alone."""
    rows = _run_rows(wg.shape[1], wg.shape[2], columns.shape[2])
    return _row_blocked_matmul(wg, columns, rows) if rows else np.matmul(wg, columns)


def conv2d(x: np.ndarray, spec: ConvSpec, weights: np.ndarray, bias: np.ndarray | None = None,
           *, padded: np.ndarray | None = None, return_columns: bool = False,
           out: np.ndarray | None = None):
    """Grouped 2-d convolution (cross-correlation).

    out[n,o,i,j] = sum_{c,ki,kj} w[o,c,ki,kj] * xpad[n, g(o)+c, i*s+ki*d, j*s+kj*d] + b[o]

    A spec with one input and one output channel per group sums its taps
    directly (:func:`_depthwise_taps`); every other spec is im2col plus one
    GEMM per group over the whole batch, and returns an NCHW view of
    channel-major memory.  A skinny GEMM is walked in runs of weight rows
    (:func:`_run_rows`, :func:`_row_blocked_matmul`); the spec and the
    input's shape alone choose.  ``padded`` is only for the taps path: an
    already checked ``_pad_channels_last(x, margin)`` copy with ``margin`` at
    least :func:`live_margin`, which is read in place of a new copy of
    ``x``; a copy made here has exactly that margin.  With
    ``return_columns`` the result is ``(out, columns)``: the im2col column
    tensor, for :func:`conv2d_backward` to read, or None on the taps path.
    ``out``, also only for the taps path, is a float64 (n, out_channels,
    oh, ow) array of any layout that the result is written into and
    returned as; EESP's branches pass their slots of one buffer.  The input
    is checked finite, or its ``padded`` copy was; the weights and bias are
    not.
    """
    x, weights, n, oh, ow = _conv_geometry(x, spec, weights)
    g = spec.groups
    if out is not None and (not spec.per_channel or out.shape != (n, spec.out_channels, oh, ow)):
        raise ShapeError(f"output array of shape {out.shape} does not fit input {x.shape} under {spec}")
    columns = None
    if padded is not None:
        margin = (padded.shape[1] - x.shape[2]) // 2
        if not spec.per_channel or margin < live_margin(spec, x.shape[2:]) or padded.shape != (
                n, x.shape[2] + 2 * margin, x.shape[3] + 2 * margin, spec.in_channels):
            raise ShapeError(f"padded copy of shape {padded.shape} does not fit input "
                             f"{x.shape} under {spec}")
        y = _depthwise_taps(padded, margin, spec, weights, oh, ow, out)
    elif spec.per_channel:
        margin = live_margin(spec, x.shape[2:])
        y = _depthwise_taps(_pad_channels_last(x, margin), margin, spec, weights, oh, ow, out)
    else:
        require_finite(x, "conv2d input")
        columns = _im2col(x, spec, oh, ow)
        y = _grouped_matmul(weights.reshape(g, spec.out_channels // g, -1), columns)
        y = y.reshape(spec.out_channels, n, oh, ow).transpose(1, 0, 2, 3)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (spec.out_channels,):
            raise ShapeError(f"bias shape {bias.shape} != ({spec.out_channels},)")
        y += bias[None, :, None, None]
    return (y, columns) if return_columns else y


def conv2d_backward(
    grad_out: np.ndarray, x: np.ndarray, spec: ConvSpec, weights: np.ndarray, *,
    columns: np.ndarray | None = None, input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Adjoints (grad_x, grad_weights, grad_bias) of :func:`conv2d`.

    grad_weights is one GEMM per group over the n*oh*ow columns of the
    forward's column tensor; grad_x scatter-adds the weight-transposed
    columns back over the k^2 kernel offsets into a channel-major buffer
    (col2im) and is an NCHW view of it.  ``columns`` is the column tensor
    that ``conv2d(x, spec, ..., return_columns=True)`` returned for this
    ``x``; without it (and on the taps path, which builds none) it is built
    from ``x``, to the same bytes.  With ``input_grad=False`` grad_x is None
    and neither the transposed product nor the scatter and its zero buffer
    is made; the other two adjoints are the same bytes.
    """
    x, weights, n, oh, ow = _conv_geometry(x, spec, weights)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (n, spec.out_channels, oh, ow):
        raise ShapeError(f"adjoint shape {grad_out.shape} != forward output {(n, spec.out_channels, oh, ow)}")
    g = spec.groups
    s, d, p, k = spec.stride, spec.dilation, spec.padding, spec.kernel
    if columns is None:
        columns = _im2col(x, spec, oh, ow)
    elif columns.shape != (g, spec.in_channels // g * k * k, n * oh * ow):
        raise ShapeError(f"column tensor of shape {columns.shape} does not fit input {x.shape} under {spec}")
    gy = grad_out.transpose(1, 0, 2, 3).reshape(g, spec.out_channels // g, n * oh * ow)
    gw = np.matmul(gy, columns.transpose(0, 2, 1)).reshape(weights.shape)
    del columns  # one built here is freed before the input adjoint's buffers
    grad_bias = gy.sum(axis=2).reshape(spec.out_channels)
    if not input_grad:
        return None, gw, grad_bias
    wg = weights.reshape(g, spec.out_channels // g, -1)
    gcols = np.matmul(wg.transpose(0, 2, 1), gy).reshape(spec.in_channels, k, k, n, oh, ow)
    h, w = x.shape[2:]
    gxp = np.zeros((spec.in_channels, n, h + 2 * p, w + 2 * p))
    for ki in range(k):
        for kj in range(k):
            rows = slice(ki * d, ki * d + s * (oh - 1) + 1, s)
            cols = slice(kj * d, kj * d + s * (ow - 1) + 1, s)
            gxp[:, :, rows, cols] += gcols[:, ki, kj]
    gx = gxp[:, :, p:-p, p:-p] if p else gxp
    return gx.transpose(1, 0, 2, 3), gw, grad_bias


def linear(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """y = W x + b, rows of ``x`` treated as independent samples.

    A leading stack axis on all three, x (s, n, i), W (s, o, i) and b (s, o),
    applies stack entry k's layer to stack entry k's rows.
    """
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if (weights.ndim not in (2, 3) or xb.ndim != weights.ndim
            or xb.shape[:-2] != weights.shape[:-2] or xb.shape[-1] != weights.shape[-1]):
        raise ShapeError(f"linear dims do not conform: x {x.shape}, W {weights.shape}")
    y = xb @ np.swapaxes(weights, -1, -2)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != weights.shape[:-1]:
            raise ShapeError(f"bias shape {bias.shape} != {weights.shape[:-1]}")
        y = y + bias[..., None, :]
    return y[0] if single else y


def linear_backward(
    grad_out: np.ndarray, x: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoints of ``linear`` for x, W and b, with the same optional stack axis."""
    x = np.asarray(x, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    gy = grad_out[None, :] if single else grad_out
    if gy.shape != xb.shape[:-1] + (weights.shape[-2],) or xb.shape[:-2] != weights.shape[:-2]:
        raise ShapeError(f"adjoint shape {grad_out.shape} does not match output")
    gx = gy @ weights
    gw = np.swapaxes(gy, -1, -2) @ xb
    gb = gy.sum(axis=-2)
    return (gx[0] if single else gx), gw, gb


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Per-channel spatial mean, (n, c, h, w) -> (n, c)."""
    x = _as_tensor4(x)
    if x.shape[2] < 1 or x.shape[3] < 1:
        raise ShapeError("global_avg_pool requires nonempty spatial extent")
    return x.mean(axis=(2, 3))


def global_avg_pool_backward(grad_out: np.ndarray, x_shape: tuple[int, ...]) -> np.ndarray:
    """Adjoint of :func:`global_avg_pool`, an NCHW view of channel-major
    memory: laid out as an im2col convolution's output is, the adjoint
    that convolution's backward pass reads needs no transposing copy."""
    n, c, h, w = x_shape
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (n, c):
        raise ShapeError(f"adjoint shape {grad_out.shape} != ({n}, {c})")
    spread = np.broadcast_to((grad_out.T / (h * w))[:, :, None, None], (c, n, h, w))
    return spread.copy().transpose(1, 0, 2, 3)


# -- elementwise activations ------------------------------------------------

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """grad_out where x > 0, else 0, as a product with the mask.

    Adding 0.0 turns the -0.0 that masks a negative adjoint into +0.0, so a
    finite adjoint gives np.where's bytes except that an unmasked -0.0 comes
    back as +0.0.  A masked inf or NaN gives NaN, not 0, without a numpy
    warning: a gradient step reports it.
    """
    with np.errstate(invalid="ignore"):
        out = grad_out * (np.asarray(x) > 0)
    out += 0.0
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), with e^-|x| as the only exponential so nothing overflows."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.asarray(np.where(x >= 0, 1.0, e) / (1.0 + e))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax; output rows are probability vectors."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[axis] < 1:
        raise ShapeError("softmax input must be nonempty along its axis")
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)
