"""Dense tensor kernels with matching analytic adjoints.

A Tensor4 is a float64 numpy array indexed (batch, channels, height,
width) in any strided memory layout; the depthwise path below returns a
view of channels-last memory. Every operation here is a pure function;
each layer op has a companion ``*_backward`` that returns the exact
analytic adjoints of its inputs and parameters, verified against central
finite differences in the test suite.  Sigmoid and softmax only squash
outputs; the training losses derive their adjoints inline.

Convolution takes one of two paths, chosen only by the ``ConvSpec``.  A
depthwise spec whose every group has one input and one output channel
(``in_channels == out_channels == groups``) sums its k*k kernel taps over
a strided window view of one zero-padded channels-last copy of the input.
Every other spec gathers the padded, strided and dilated input once into
a column tensor (im2col) and multiplies it by the grouped weights in one
batched matrix product.  The adjoint of both is the im2col one, which
scatter-adds the columns back over the kernel offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions violate an operation's contract."""


class NumericError(ValueError):
    """Non-finite values where the contract requires finite ones."""


def require_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {what}")


def _is_count(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_tensor4(x: np.ndarray, what: str = "input") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"{what} must be 4-d (batch, channels, h, w), got shape {x.shape}")
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
    bias: bool = True

    def __post_init__(self) -> None:
        for name in ("in_channels", "out_channels", "kernel", "stride", "groups", "dilation"):
            if getattr(self, name) < 1:
                raise ShapeError(f"ConvSpec.{name} must be positive")
        if self.padding < 0:
            raise ShapeError("ConvSpec.padding must be nonnegative")
        if self.kernel % 2 == 0:
            raise ShapeError("only odd kernels are supported")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ShapeError("in_channels and out_channels must be divisible by groups")

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
    """Column tensor (n, groups, cin/g*k*k, oh*ow) of an unpadded input.

    Row (c, ki, kj) of group gi holds input channel gi*cin/g + c at offset
    (ki*d, kj*d) of every output position's receptive field.  A 1x1 kernel
    without padding at stride 1 gives a view, not a copy.
    """
    p = spec.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    n = xp.shape[0]
    g, k, s, d = spec.groups, spec.kernel, spec.stride, spec.dilation
    cin_g = spec.in_channels // g
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, g, cin_g, k, k, oh, ow),
        strides=(sn, sc * cin_g, sc, sh * d, sw * d, sh * s, sw * s),
        writeable=False,
    )
    return windows.reshape(n, g, cin_g * k * k, oh * ow)


def _depthwise_taps(x: np.ndarray, spec: ConvSpec, weights: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Channel-multiplier-1 depthwise convolution as one sum over the k*k taps.

    The input is copied once into a zero-padded channels-last buffer; a
    window view (n, oh, ow, k, k, c) of it covers stride and dilation, and
    one einsum against the (k, k, c) weights sums the taps.  Both operands
    keep the channel axis innermost and contiguous: with the weights as a
    transposed view instead, this path ran slower than im2col.  The result
    is an NCHW view of an NHWC array.
    """
    n, c, h, w = x.shape
    p, k, s, d = spec.padding, spec.kernel, spec.stride, spec.dilation
    xp = np.zeros((n, h + 2 * p, w + 2 * p, c))
    xp[:, p : p + h, p : p + w] = x.transpose(0, 2, 3, 1)
    sn, sh, sw, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, oh, ow, k, k, c),
        strides=(sn, sh * s, sw * s, sh * d, sw * d, sc),
        writeable=False,
    )
    taps = np.ascontiguousarray(weights.reshape(c, k, k).transpose(1, 2, 0))
    return np.einsum("nhwijc,ijc->nhwc", windows, taps).transpose(0, 3, 1, 2)


def conv2d(x: np.ndarray, spec: ConvSpec, weights: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Grouped 2-d convolution (cross-correlation).

    out[n,o,i,j] = sum_{c,ki,kj} w[o,c,ki,kj] * xpad[n, g(o)+c, i*s+ki*d, j*s+kj*d] + b[o]

    A spec with one input and one output channel per group sums its taps
    directly (:func:`_depthwise_taps`); every other spec is im2col plus one
    batched GEMM.
    """
    x, weights, n, oh, ow = _conv_geometry(x, spec, weights)
    require_finite(x, "conv2d input")
    g = spec.groups
    if spec.in_channels == spec.out_channels == g:
        y = _depthwise_taps(x, spec, weights, oh, ow)
    else:
        cols = _im2col(x, spec, oh, ow)
        y = np.matmul(weights.reshape(g, spec.out_channels // g, -1), cols)
        y = y.reshape(n, spec.out_channels, oh, ow)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (spec.out_channels,):
            raise ShapeError(f"bias shape {bias.shape} != ({spec.out_channels},)")
        y += bias[None, :, None, None]
    return y


def conv2d_backward(
    grad_out: np.ndarray, x: np.ndarray, spec: ConvSpec, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoints (grad_x, grad_weights, grad_bias) of :func:`conv2d`.

    grad_weights is one matmul against the forward's column tensor;
    grad_x scatter-adds the weight-transposed columns back over the k^2
    kernel offsets (col2im).
    """
    x, weights, n, oh, ow = _conv_geometry(x, spec, weights)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (n, spec.out_channels, oh, ow):
        raise ShapeError(f"adjoint shape {grad_out.shape} != forward output {(n, spec.out_channels, oh, ow)}")
    g = spec.groups
    s, d, p, k = spec.stride, spec.dilation, spec.padding, spec.kernel
    gy = grad_out.reshape(n, g, spec.out_channels // g, oh * ow)
    wg = weights.reshape(g, spec.out_channels // g, -1)
    gw = np.matmul(gy, _im2col(x, spec, oh, ow).transpose(0, 1, 3, 2)).sum(axis=0)
    gcols = np.matmul(wg.transpose(0, 2, 1), gy).reshape(n, spec.in_channels, k, k, oh, ow)
    h, w = x.shape[2:]
    gxp = np.zeros((n, spec.in_channels, h + 2 * p, w + 2 * p))
    for ki in range(k):
        for kj in range(k):
            rows = slice(ki * d, ki * d + s * (oh - 1) + 1, s)
            cols = slice(kj * d, kj * d + s * (ow - 1) + 1, s)
            gxp[:, :, rows, cols] += gcols[:, :, ki, kj]
    gx = gxp[:, :, p:-p, p:-p] if p else gxp
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    return gx, gw.reshape(weights.shape), grad_bias


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
    n, c, h, w = x_shape
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (n, c):
        raise ShapeError(f"adjoint shape {grad_out.shape} != ({n}, {c})")
    return np.broadcast_to(grad_out[:, :, None, None] / (h * w), x_shape).copy()


def channel_affine(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Learnable per-channel y = scale[c] * x + shift[c] (normalization stand-in)."""
    x = _as_tensor4(x)
    if scale.shape != (x.shape[1],) or shift.shape != (x.shape[1],):
        raise ShapeError("scale/shift must be per-channel vectors")
    return x * scale[None, :, None, None] + shift[None, :, None, None]


def channel_affine_backward(
    grad_out: np.ndarray, x: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != x.shape:
        raise ShapeError("adjoint shape must match forward output")
    gx = grad_out * scale[None, :, None, None]
    gscale = (grad_out * x).sum(axis=(0, 2, 3))
    gshift = grad_out.sum(axis=(0, 2, 3))
    return gx, gscale, gshift


# -- elementwise activations ------------------------------------------------

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(x) > 0, grad_out, 0.0)


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


def central_difference(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Numerical gradient of scalar-valued ``f`` at ``x`` by central differences."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad
