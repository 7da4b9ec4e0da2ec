"""Trunk builder: stem, CU stages, depthwise tail, pooled heads.

Each convolutional unit (CU) is data: a short list of steps (a ConvBlock,
EESP's step of branches, running sums and expand, an add or a ReLU) over
named activation slots, and one walker gives all three kinds their forward
pass, output size, MACs, parameter shapes and backward pass.  The CU internals (bottleneck width, depthwise multiplier,
EESP branch count and width) are not pinned by the layer table, so they
live in CuWidths with defaults calibrated to land inside the target
parameter and FLOP budgets for each variant.  Counting conventions: 1 MAC =
1 FLOP, convolution MACs exclude the bias add, adds and ReLUs cost nothing,
the global average pool contributes H*W adds per channel, and the
per-channel affine that stands in for normalization costs one MAC per
activation.  A conv block folds that affine into its weights, or, when its
per-channel output is smaller than its per-channel weights (small frames),
applies it to the output; static shapes alone choose, and the forward, the
taped forward and the backward follow the same choice, and both forms raise
the fold's errors for non-finite parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numerics as nm
from . import temporal as tp

CU_KINDS = ("bottleneck", "mobilenet", "eesp")
TASKS = ("expr", "au", "arousal", "valence")
HEAD_WIDTHS = {"expr": tp.N_EXPR, "au": tp.N_AU, "arousal": 1, "valence": 1}

STEM_CHANNELS = 32
TAIL_CHANNELS = 512
DEFAULT_INPUT_HW = (224, 224)

# CU stage rows as (stride, repeat, out_channels); stem and tail are fixed.
TABLE_ROWS = (
    (2, 1, 32),
    (1, 1, 32),
    (2, 1, 64),
    (1, 3, 64),
    (2, 1, 128),
    (1, 7, 128),
    (2, 1, 256),
    (1, 3, 256),
)


@dataclass(frozen=True)
class CuWidths:
    """Free CU hyperparameters with budget-calibrated defaults."""

    bottleneck_mid_ratio: float = 1.2
    mobilenet_depth_mult: int = 14
    eesp_branches: int = 4
    eesp_width_mult: int = 13

    def __post_init__(self):
        nm.require_real(self.bottleneck_mid_ratio, "bottleneck_mid_ratio", positive=True)
        for name in ("mobilenet_depth_mult", "eesp_branches", "eesp_width_mult"):
            nm.require_count(getattr(self, name), name)


class BlockRecord(NamedTuple):
    """What a taped :meth:`ConvBlock.forward` keeps for its backward: the
    input, the output of a block with a ReLU (None without one, whose
    backward reads no output), the weights its convolution read (folded, or
    the block's own), the column tensor its im2col convolution built (None
    on the taps path), and the convolution's output ``u = conv(x, W) + b``
    of a block that applies its affine to that output (None for a block
    that folds it)."""

    x: np.ndarray
    y: np.ndarray | None
    w: np.ndarray
    columns: np.ndarray | None
    u: np.ndarray | None


class BranchRecord(NamedTuple):
    """What a taped :meth:`EespBranches.forward` keeps: its input, the
    (K, n, oh, ow, width) buffers of the branch outputs after their ReLU and
    of the running sums, the weights each branch's convolution read, the
    branches' convolution outputs in the same layout (None where they fold),
    and the expand's weights and convolution output (None where it folds)."""

    x: np.ndarray
    y: np.ndarray
    sums: np.ndarray
    w: tuple
    u: np.ndarray | None
    expand_w: np.ndarray
    expand_u: np.ndarray | None


class UnitRecord(NamedTuple):
    """What a taped :meth:`Unit.forward` keeps: the slots its backward reads
    (the output of each ``relu`` step) and, in step order, the record of
    each of its layer steps."""

    slots: dict
    records: list


class ConvBlock:
    """Convolution, learnable per-channel affine, optional ReLU.

    Where the affine goes is chosen from static shapes alone.  A block
    whose per-channel output ``n*oh*ow`` is at least its per-channel
    weights ``(cin/groups)*k*k`` folds the affine into the convolution
    (weights ``scale*W``, bias ``scale*b + shift``), saving one pass over
    the activations.  A smaller output, the common case of a small frame,
    is cheaper to scale than the weights: the block computes ``y =
    scale*(conv(x, W) + b) + shift`` and never makes a folded copy of W.
    The backward pass applies the chain rule through whichever form the
    forward ran, from the forward's record.

    Both forms raise the same errors for non-finite parameters: non-finite
    values in the folded weights, then in the folded bias.  A folding block
    checks the fold before its convolution.  A block that does not fold
    checks its output before the ReLU and, only where that is not finite,
    makes and checks the fold.  A non-finite b, scale or shift reaches every
    output of its channel (inf*0 and NaN*x are NaN), and so does a
    non-finite W on the im2col path, even through taps that read only
    padding.  The taps path of a per-channel convolution skips such taps
    (:func:`numerics.live_taps`), so a per-channel block that does not fold
    also checks its own W, c*k*k values, and makes the fold where that is
    not finite.  None gets past these checks.  Only finite parameters whose
    fold would overflow while the output stays finite pass where a folding
    block would raise.  A block that does not fold runs its
    convolution and affine under ``np.errstate``, and nothing is taped where
    a check fails.  Where the
    convolution itself raises, on its input or a shape, the fold is checked
    first, so its error comes first, as from a check before the convolution.
    """

    def __init__(self, name: str, spec: nm.ConvSpec, relu: bool = True):
        self.name = name
        self.spec = spec
        self.relu = relu

    @property
    def out_channels(self) -> int:
        return self.spec.out_channels

    def out_hw(self, hw):
        return self.spec.out_hw(hw)

    def param_shapes(self) -> dict:
        c = self.spec.out_channels
        return {
            f"{self.name}.w": self.spec.weight_shape,
            f"{self.name}.b": (c,),
            f"{self.name}.scale": (c,),
            f"{self.name}.shift": (c,),
        }

    def folds(self, x_shape) -> bool:
        """Whether a forward over an input of ``x_shape`` folds the affine:
        unless its per-channel output n*oh*ow is smaller than its
        per-channel weights (cin/groups)*k*k."""
        n, _, h, w = x_shape
        oh, ow = self.spec.out_hw((h, w))
        _, cin_g, k, _ = self.spec.weight_shape
        return n * oh * ow >= cin_g * k * k

    def _folded(self, params: dict):
        scale = params[f"{self.name}.scale"]
        # A non-finite fold is reported by require_finite, not as a numpy warning.
        with np.errstate(invalid="ignore", over="ignore"):
            w = scale[:, None, None, None] * params[f"{self.name}.w"]
            b = scale * params[f"{self.name}.b"] + params[f"{self.name}.shift"]
        nm.require_finite(w, "folded weights")
        nm.require_finite(b, "folded bias")
        return w, b

    def _weights(self, params: dict, fold: bool):
        """The weights and bias the convolution reads: the checked fold, or the block's own."""
        return self._folded(params) if fold else (params[f"{self.name}.w"], params[f"{self.name}.b"])

    def _convolve(self, params: dict, fold: bool, conv, *args, **kwargs):
        """``conv(*args, **kwargs)``, the block's convolution.  Without the
        fold, non-finite parameters show in the output, which is checked
        after the affine, so numpy's warnings are off, and where the
        convolution raises on its input or a shape the fold's errors come
        first."""
        if fold:
            return conv(*args, **kwargs)
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                return conv(*args, **kwargs)
        except ValueError:  # a ShapeError or NumericError of the input or a shape
            self._folded(params)
            raise

    def _check_unfolded(self, params: dict, y: np.ndarray, w: np.ndarray) -> None:
        """The fold's errors of a block that did not fold, made where its
        output before the ReLU is not finite.  The taps path skips taps that
        read only padding, and with them their weights: a per-channel W is
        checked as well."""
        if not np.isfinite(y).all() or (self.spec.per_channel and not np.isfinite(w).all()):
            self._folded(params)

    def forward(self, params: dict, x: np.ndarray, padded: np.ndarray | None = None,
                tape: list | None = None) -> np.ndarray:
        """``padded`` is a shared channels-last copy of x, see :func:`numerics.conv2d`.

        With a ``tape`` list, a :class:`BlockRecord` is appended to it.
        """
        fold = self.folds(nm._as_tensor4(x).shape)
        w, b = self._weights(params, fold)
        y, columns = self._convolve(params, fold, nm.conv2d, x, self.spec, w, b, padded=padded,
                                    return_columns=True)
        if tape is None:
            # Only a tape reads the column tensor: free it now, not after
            # the affine and ReLU.  Held that long, it raised the peak RSS
            # of the 112 px trunk benchmark by 11 MB.
            columns = None
        y, u = self._output(params, y, w, fold, tape is not None)
        if tape is not None:
            tape.append(BlockRecord(x, y if self.relu else None, w, columns, u))
        return y

    def _output(self, params: dict, y: np.ndarray, w: np.ndarray, fold: bool, taped: bool):
        """``(y, u)`` from the convolution's output y: for a block that does
        not fold, its affine, checked by :meth:`_check_unfolded`, with u the
        output before it where ``taped`` (else None); then the ReLU, in
        place."""
        u = None
        if not fold:
            n = self.name
            scale = params[f"{n}.scale"][:, None, None]
            with np.errstate(invalid="ignore", over="ignore"):
                if taped:
                    u, y = y, y * scale
                else:
                    y *= scale
                y += params[f"{n}.shift"][:, None, None]
            self._check_unfolded(params, y, w)
        if self.relu:
            np.maximum(y, 0.0, out=y)
        return y, u

    def _conv_grad(self, params: dict, y: np.ndarray | None, u: np.ndarray | None, grad_y: np.ndarray):
        """``(gz, affine)``: the adjoint gz of the convolution's output, from
        d loss/d y through the ReLU (masked by the output y) and, for a
        block that applied its affine to the convolution's output u, through
        that affine, whose adjoints ``(gscale, gshift)`` are ``affine``
        (else None)."""
        if self.relu:
            grad_y = nm.relu_backward(grad_y, y)
        if u is None:
            return grad_y, None
        scale = params[f"{self.name}.scale"]
        return grad_y * scale[:, None, None], ((grad_y * u).sum(axis=(0, 2, 3)), grad_y.sum(axis=(0, 2, 3)))

    def _param_grads(self, params: dict, gw: np.ndarray, gb: np.ndarray, affine) -> dict:
        """The parameter grads from the adjoints gw, gb of the weights and
        bias the convolution read and the ``affine`` of :meth:`_conv_grad`.

        Through a fold, with gWf, gbf the adjoints of the folded weights
        and bias: gW = scale*gWf, gb = scale*gbf, gshift = gbf and
        gscale = sum(gWf*W) + gbf*b per output channel.  Through an affine
        on the output u, with gz the adjoint of y before its ReLU: gshift =
        sum(gz), gscale = sum(gz*u) and the convolution's adjoints are those
        of gu = scale*gz.
        """
        n = self.name
        if affine is not None:
            gscale, gshift = affine
            return {f"{n}.w": gw, f"{n}.b": gb, f"{n}.scale": gscale, f"{n}.shift": gshift}
        scale = params[f"{n}.scale"]
        return {
            f"{n}.w": scale[:, None, None, None] * gw,
            f"{n}.b": scale * gb,
            f"{n}.scale": (gw * params[f"{n}.w"]).sum(axis=(1, 2, 3)) + gb * params[f"{n}.b"],
            f"{n}.shift": gb,
        }

    def backward(self, params: dict, record: BlockRecord, grad_y: np.ndarray, *, input_grad: bool = True):
        """(grad_x, parameter grads) from the forward's record and d loss/d y.

        With ``input_grad=False`` grad_x is None and is not computed.
        """
        x, y, w, columns, u = record
        gz, affine = self._conv_grad(params, y, u, grad_y)
        gx, gw, gb = nm.conv2d_backward(gz, x, self.spec, w, columns=columns, input_grad=input_grad)
        return gx, self._param_grads(params, gw, gb, affine)

    def macs(self, hw) -> int:
        oh, ow = self.spec.out_hw(hw)
        return self.spec.macs(hw) + oh * ow * self.spec.out_channels


def _stacked(params: dict, blocks, key: str) -> np.ndarray:
    """The blocks' (c,) parameters ``key`` as a (K, 1, 1, 1, c) stack, to
    broadcast over a (K, n, oh, ow, c) buffer."""
    return np.stack([params[f"{block.name}.{key}"] for block in blocks])[:, None, None, None, :]


def _sum_columns(sums: np.ndarray) -> np.ndarray:
    """The (K, width, n*oh*ow) columns of the grouped 1x1 expand: a
    transposed view of the (K, n, oh, ow, width) running sums, group k
    reading sum k."""
    return sums.reshape(len(sums), -1, sums.shape[-1]).transpose(0, 2, 1)


def _expand(sums: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The grouped 1x1 expand ``conv(s, W) + b`` over the running sums, an
    NCHW view of channel-major memory, as from :func:`numerics.conv2d`.

    Only the last sum is checked finite: the branches are ReLU'd, so each
    is >= 0 or NaN, and the last sum is finite exactly when every sum is.
    """
    nm.require_finite(sums[-1], "conv2d input")
    k, n, oh, ow, width = sums.shape
    y = nm._grouped_matmul(w.reshape(k, -1, width), _sum_columns(sums))
    y = y.reshape(-1, n, oh, ow).transpose(1, 0, 2, 3)
    y += b[None, :, None, None]
    return y


class EespBranches:
    """EESP's K dilated depthwise branches, their running sums s1 = b1, s_k
    = s_(k-1) + b_k and its grouped 1x1 expand, group k reading s_k, as one
    step over one (K, n, oh, ow, width) channels-last buffer.

    The branches read one copy of the input, padded to the widest live
    margin of them (:func:`numerics.live_margin`), which the input's size
    sets: a branch whose dilated taps reach past a small input reads none
    of that padding.  Each branch sums its taps through
    :func:`numerics.conv2d` into its slot of the buffer.  The branches share
    their output size, and so the fold rule's choice (see
    :class:`ConvBlock`); their biases, or their affines, and the ReLU run
    once over the whole buffer.  The sums are added in place, or, taped,
    into a second buffer, because the backward reads each branch output.
    The expand's columns are a transposed view of the sums, one GEMM per
    group.  Errors come in the order of a walk over the separate blocks:
    the copy's check before any branch, each branch's fold or output check
    in turn, then the expand's fold and its one check of the last sum (see
    :func:`_expand`).
    """

    def __init__(self, unit: str, width: int, cout: int, k: int, stride: int):
        self.branches = tuple(
            ConvBlock(f"{unit}.branch{d}", nm.ConvSpec(width, width, kernel=3, stride=stride, padding=d,
                                                       dilation=d, groups=width))
            for d in range(1, k + 1))
        self.expand = ConvBlock(f"{unit}.expand", nm.ConvSpec(k * width, cout, kernel=1, groups=k), relu=False)
        self.out_channels = cout

    @property
    def blocks(self) -> tuple:
        return self.branches + (self.expand,)

    def out_hw(self, hw):
        return self.branches[0].out_hw(hw)

    def param_shapes(self) -> dict:
        return {key: shape for block in self.blocks for key, shape in block.param_shapes().items()}

    def macs(self, hw) -> int:
        return sum(block.macs(hw) for block in self.branches) + self.expand.macs(self.out_hw(hw))

    def forward(self, params: dict, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """With a ``tape`` list, a :class:`BranchRecord` is appended to it."""
        branches, expand = self.branches, self.expand
        (n, width), hw = x.shape[:2], x.shape[2:]
        oh, ow = self.out_hw(hw)
        margin = max(nm.live_margin(block.spec, hw) for block in branches)
        padded = nm._pad_channels_last(x, margin)
        fold = branches[0].folds(x.shape)
        out = np.empty((len(branches), n, oh, ow, width))
        weights, biases = [], []
        for block, slot in zip(branches, out):
            wk, bk = block._weights(params, fold)
            block._convolve(params, fold, nm.conv2d, x, block.spec, wk, padded=padded,
                            out=slot.transpose(0, 3, 1, 2))
            weights.append(wk)
            biases.append(bk)
        del padded
        bias = np.stack(biases)[:, None, None, None, :]
        u = None
        if fold:
            out += bias
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                out += bias
                scale = _stacked(params, branches, "scale")
                if tape is not None:
                    u, out = out, out * scale
                else:
                    out *= scale
                out += _stacked(params, branches, "shift")
            for block, slot, wk in zip(branches, out, weights):
                block._check_unfolded(params, slot, wk)
        np.maximum(out, 0.0, out=out)
        sums = out
        if tape is not None:
            sums = np.empty_like(out)
            sums[0] = out[0]
        for k in range(1, len(out)):
            np.add(sums[k - 1], out[k], out=sums[k])
        expand_fold = expand.folds((n, expand.spec.in_channels, oh, ow))
        we, be = expand._weights(params, expand_fold)
        y = expand._convolve(params, expand_fold, _expand, sums, we, be)
        y, expand_u = expand._output(params, y, we, expand_fold, tape is not None)
        if tape is not None:
            tape.append(BranchRecord(x, out, sums, tuple(weights), u, we, expand_u))
        return y

    def backward(self, params: dict, record: BranchRecord, grad_y: np.ndarray):
        """(grad_x, parameter grads) from the forward's record and d loss/d y.

        The expand's input adjoint is one GEMM per group.  It is not added
        into zeros, as the col2im of :func:`numerics.conv2d_backward` adds:
        a -0.0 that this leaves reaches only a branch's ReLU adjoint, which
        makes it +0.0 (:func:`numerics.relu_backward`).  Branch k's adjoint
        is the sum of the adjoints of sums k to K, added from sum K down,
        and the input's adjoint sums the branches' from branch K down to
        branch 1.
        """
        x, y, sums, weights, u, we, expand_u = record
        k, n, oh, ow, width = y.shape
        expand = self.expand
        gz, affine = expand._conv_grad(params, None, expand_u, grad_y)
        gy = gz.transpose(1, 0, 2, 3).reshape(k, -1, n * oh * ow)
        gw = np.matmul(gy, _sum_columns(sums).transpose(0, 2, 1)).reshape(we.shape)
        grads = expand._param_grads(params, gw, gy.sum(axis=2).reshape(-1), affine)
        gs = np.matmul(we.reshape(k, -1, width).transpose(0, 2, 1), gy)
        for i in range(k - 2, -1, -1):
            np.add(gs[i], gs[i + 1], out=gs[i])
        gs = gs.reshape(k, width, n, oh, ow).transpose(0, 2, 1, 3, 4)
        gx = None
        for i in reversed(range(k)):
            block = self.branches[i]
            gz, affine = block._conv_grad(params, y[i].transpose(0, 3, 1, 2),
                                          None if u is None else u[i].transpose(0, 3, 1, 2), gs[i])
            gxi, gw, gb = nm.conv2d_backward(gz, x, block.spec, weights[i])
            grads.update(block._param_grads(params, gw, gb, affine))
            gx = gxi if gx is None else gx + gxi
        return gx, grads


# The other ops of a unit's steps.
_OPS = {
    "add": np.add,
    "relu": nm.relu,
}


class Unit:
    """A CU as data: ``steps`` is a tuple of ``(op, out_slot, in_slots)``.

    An op is a layer step, a ConvBlock or EESP's :class:`EespBranches`,
    which reads one slot, or a key of ``_OPS``; slot ``"x"`` is the unit's
    input and the last step's slot its output.  One walker over the steps
    serves forward, out_hw, macs and param_shapes (``layers`` pairs each
    layer step's op with the slot it reads); backward walks them in reverse
    over the :class:`UnitRecord` a taped forward kept, and runs no step's
    forward again.  Each kind binds ``forward`` in its own class body
    because the benchmark's tracer times the kinds apart by wrapping
    ``vars(cls)["forward"]``.
    """

    def __init__(self, name: str, cout: int, steps):
        self.name, self.out_channels, self.steps = name, cout, tuple(steps)
        self.layers = [(op, ins[0]) for op, _, ins in self.steps if not isinstance(op, str)]
        self.relu_slots = tuple(out for op, out, _ in self.steps if op == "relu")

    def _walk(self, x, step) -> dict:
        """Every slot's value, with step(op, inputs) giving one step's output."""
        slots = {"x": x}
        for op, out, ins in self.steps:
            slots[out] = step(op, [slots[s] for s in ins])
        return slots

    def _values(self, params: dict, x: np.ndarray, tape: list | None = None) -> dict:
        return self._walk(x, lambda op, args: _OPS[op](*args) if isinstance(op, str)
                          else op.forward(params, *args, tape=tape))

    def _sizes(self, hw) -> dict:
        return self._walk(tuple(hw), lambda op, a: a[0] if isinstance(op, str) else op.out_hw(a[0]))

    def forward(self, params: dict, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """With a ``tape`` list, a :class:`UnitRecord` is appended to it."""
        records = None if tape is None else []
        slots = self._values(params, x, records)
        if tape is not None:
            tape.append(UnitRecord({out: slots[out] for out in self.relu_slots}, records))
        return slots[self.steps[-1][1]]

    def out_hw(self, hw):
        return self._sizes(hw)[self.steps[-1][1]]

    def macs(self, hw) -> int:
        sizes = self._sizes(hw)
        return sum(op.macs(sizes[src]) for op, src in self.layers)

    def param_shapes(self) -> dict:
        return {key: shape for op, _ in self.layers for key, shape in op.param_shapes().items()}

    def backward(self, params: dict, record: UnitRecord, grad_y: np.ndarray):
        """(grad_x, parameter grads) from the forward's record and d loss/d y.

        ``add`` fans the gradient out, ``relu`` masks it by the step's
        output, and a layer step runs its own backward on its record.
        """
        slots, records = record
        records = reversed(records)
        grads, param_grads = {self.steps[-1][1]: grad_y}, {}
        for op, out, ins in reversed(self.steps):
            g = grads.pop(out)
            if op == "relu":
                g = nm.relu_backward(g, slots[out])
            elif op != "add":
                g, op_grads = op.backward(params, next(records), g)
                param_grads.update(op_grads)
            for slot in ins:
                grads[slot] = grads[slot] + g if slot in grads else g
        return grads["x"], param_grads


class BottleneckUnit(Unit):
    """1x1 reduce, 3x3 spatial, 1x1 expand, residual add, final ReLU.

    The shortcut is the identity when shapes agree and a strided 1x1
    projection otherwise.
    """

    def __init__(self, name: str, cin: int, cout: int, stride: int, widths: CuWidths):
        mid = max(1, round(widths.bottleneck_mid_ratio * cout))
        spatial = nm.ConvSpec(mid, mid, kernel=3, stride=stride, padding=1)
        steps = [
            (ConvBlock(f"{name}.reduce", nm.ConvSpec(cin, mid, kernel=1)), "r", ("x",)),
            (ConvBlock(f"{name}.spatial", spatial), "s", ("r",)),
            (ConvBlock(f"{name}.expand", nm.ConvSpec(mid, cout, kernel=1), relu=False), "e", ("s",)),
        ]
        shortcut = "x"
        if stride != 1 or cin != cout:
            shortcut = "p"
            project = nm.ConvSpec(cin, cout, kernel=1, stride=stride)
            steps.append((ConvBlock(f"{name}.project", project, relu=False), "p", ("x",)))
        super().__init__(name, cout, steps + [("add", "sum", ("e", shortcut)), ("relu", "y", ("sum",))])

    forward = Unit.forward


class MobileNetUnit(Unit):
    """Depthwise 3x3 with channel multiplier, then 1x1 pointwise."""

    def __init__(self, name: str, cin: int, cout: int, stride: int, widths: CuWidths):
        mid = cin * widths.mobilenet_depth_mult
        dw = nm.ConvSpec(cin, mid, kernel=3, stride=stride, padding=1, groups=cin)
        super().__init__(name, cout, [(ConvBlock(f"{name}.dw", dw), "dw", ("x",)),
                                      (ConvBlock(f"{name}.pw", nm.ConvSpec(mid, cout, kernel=1)), "y", ("dw",))])

    forward = Unit.forward


class EespUnit(Unit):
    """Grouped 1x1 reduce, K parallel dilated depthwise branches, hierarchical
    sum, grouped 1x1 expand, residual when shapes match.

    Branch k uses dilation k with matching padding so every branch keeps the
    same spatial size; stride lives on the branches.  Both 1x1 convolutions
    have K groups, as in ESPNetv2.  The branches, their running sums and the
    expand are one :class:`EespBranches` step.
    """

    def __init__(self, name: str, cin: int, cout: int, stride: int, widths: CuWidths):
        k = widths.eesp_branches
        width, rem = divmod(widths.eesp_width_mult * cout, k)
        if rem or cin % k or cout % k or width % k:
            raise ValueError(f"unit {name}: eesp_branches {k} must divide in_channels {cin}, "
                             f"out_channels {cout} and the branch width eesp_width_mult * "
                             f"out_channels / eesp_branches ({widths.eesp_width_mult * cout}/{k})")
        steps = [(ConvBlock(f"{name}.reduce", nm.ConvSpec(cin, width, kernel=1, groups=k)), "r", ("x",)),
                 (EespBranches(name, width, cout, k, stride), "e", ("r",))]
        if stride == 1 and cin == cout:
            steps.append(("add", "sum", ("e", "x")))
        super().__init__(name, cout, steps + [("relu", "y", (steps[-1][1],))])

    forward = Unit.forward


class GlobalPool:
    name = "pool"

    def __init__(self, channels: int):
        self.out_channels = channels

    def out_hw(self, hw):
        return (1, 1)

    def param_shapes(self) -> dict:
        return {}

    def forward(self, params: dict, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """With a ``tape`` list, the input's shape is appended to it."""
        if tape is not None:
            tape.append(x.shape)
        return nm.global_avg_pool(x)

    def backward(self, params: dict, x_shape: tuple, grad_y: np.ndarray):
        return nm.global_avg_pool_backward(grad_y, x_shape), {}

    def macs(self, hw) -> int:
        return hw[0] * hw[1] * self.out_channels


class Head:
    """Linear readout from pooled features; raw outputs, no activation."""

    def __init__(self, task: str, channels: int):
        self.task = task
        self.name = f"head.{task}"
        self.width = HEAD_WIDTHS[task]
        self.channels = channels

    def param_shapes(self) -> dict:
        return {f"{self.name}.w": (self.width, self.channels), f"{self.name}.b": (self.width,)}

    def forward(self, params: dict, pooled: np.ndarray) -> np.ndarray:
        return nm.linear(pooled, params[f"{self.name}.w"], params[f"{self.name}.b"])

    def backward(self, params: dict, pooled: np.ndarray, grad_y: np.ndarray):
        gx, gw, gb = nm.linear_backward(grad_y, pooled, params[f"{self.name}.w"])
        return gx, {f"{self.name}.w": gw, f"{self.name}.b": gb}

    def macs(self) -> int:
        return self.width * self.channels


@dataclass(frozen=True)
class ModelGraph:
    cu: str
    input_hw: tuple
    layers: tuple = field(repr=False)
    heads: tuple = field(repr=False)


_UNIT_TYPES = {"bottleneck": BottleneckUnit, "mobilenet": MobileNetUnit, "eesp": EespUnit}


def build_graph(cu: str, mode: str = "multi", input_hw=DEFAULT_INPUT_HW,
                widths: CuWidths = CuWidths()) -> ModelGraph:
    """Assemble the full layer sequence for one CU variant.

    mode is "multi" (four parallel heads) or one of the task names for a
    single-task graph; input_hw is the frames' (height, width).
    """
    if cu not in CU_KINDS:
        raise ValueError(f"unknown convolutional unit {cu!r}")
    if mode != "multi" and mode not in TASKS:
        raise ValueError(f"mode must be 'multi' or one of {TASKS}, got {mode!r}")
    hw = tuple(input_hw) if isinstance(input_hw, (tuple, list)) else ()
    if len(hw) != 2 or not all(nm._is_count(v) and v > 0 for v in hw):
        raise ValueError(f"input_hw must be two positive integers, got {input_hw!r}")
    unit_type = _UNIT_TYPES[cu]
    layers = [ConvBlock("stem", nm.ConvSpec(3, STEM_CHANNELS, kernel=3, stride=2, padding=1))]
    cin = STEM_CHANNELS
    for stage, (stride, repeat, cout) in enumerate(TABLE_ROWS, start=1):
        for i in range(repeat):
            name = f"cu{stage}" if repeat == 1 else f"cu{stage}.{i + 1}"
            layers.append(unit_type(name, cin, cout, stride if i == 0 else 1, widths))
            cin = cout
    layers.append(ConvBlock("tail", nm.ConvSpec(cin, TAIL_CHANNELS, kernel=3, padding=1, groups=cin)))
    layers.append(GlobalPool(TAIL_CHANNELS))
    heads = tuple(Head(t, TAIL_CHANNELS) for t in (TASKS if mode == "multi" else (mode,)))
    return ModelGraph(cu=cu, input_hw=hw, layers=tuple(layers), heads=heads)


def param_shapes(graph: ModelGraph) -> dict:
    shapes = {}
    for layer in graph.layers:
        shapes.update(layer.param_shapes())
    for head in graph.heads:
        shapes.update(head.param_shapes())
    return shapes


def count_params(graph: ModelGraph) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(graph).values())


def count_flops(graph: ModelGraph) -> int:
    """Total MACs for one forward pass at the graph's input size."""
    return sum(row["flops"] for row in layer_table(graph))


def layer_table(graph: ModelGraph) -> list[dict]:
    """Per-layer rows (name, output size/channels, params, flops) plus heads."""
    hw = graph.input_hw
    rows = []
    for layer in graph.layers:
        out = layer.out_hw(hw)
        rows.append({
            "name": layer.name,
            "output": [int(out[0]), int(out[1]), int(layer.out_channels)],
            "params": sum(int(np.prod(s)) for s in layer.param_shapes().values()),
            "flops": int(layer.macs(hw)),
        })
        hw = out
    for head in graph.heads:
        rows.append({
            "name": head.name,
            "output": [1, 1, head.width],
            "params": sum(int(np.prod(s)) for s in head.param_shapes().values()),
            "flops": int(head.macs()),
        })
    return rows


def init_params(graph: ModelGraph, seed: int) -> dict:
    """He-normal weights (var 2/fan_in), zero biases and shifts, unit scales.

    Keys are visited in sorted order so the draw sequence is reproducible.
    """
    nm.require_count(seed, "seed", minimum=0)
    rng = np.random.default_rng(seed)
    params = {}
    for key, shape in sorted(param_shapes(graph).items()):
        if key.endswith(".w"):
            fan_in = int(np.prod(shape[1:]))
            params[key] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        elif key.endswith(".scale"):
            params[key] = np.ones(shape)
        else:
            params[key] = np.zeros(shape)
    return params


def forward(graph: ModelGraph, params: dict, batch: np.ndarray, cache: list | None = None) -> dict:
    """Run the trunk and heads; returns raw per-head outputs keyed by task.

    If ``cache`` is a list, it is the tape :func:`backward` reads: every
    layer appends the record of what its backward reads (a conv block's
    inputs, ReLU output, folded or own weights, im2col columns and, if it
    scales its output, the convolution's output; a unit's ReLU outputs and
    its blocks' records; the pool's input shape), and then the
    pooled features are appended.  Without it nothing is kept.
    """
    x = np.asarray(batch, dtype=float)
    if x.ndim != 4 or x.shape[1] != 3:
        raise nm.ShapeError(f"expected a batch shaped (N, 3, H, W), got {x.shape}")
    if x.shape[2:] != tuple(graph.input_hw):
        raise nm.ShapeError(
            f"batch spatial size {x.shape[2:]} does not match graph input {graph.input_hw}"
        )
    # Every convolution checks its input, so of the activations only the
    # pooled features, the last layer's output, are scanned here.  An
    # overflow is reported as a NumericError naming the layer that made the
    # non-finite values, not as a numpy warning.
    last = len(graph.layers) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for index, layer in enumerate(graph.layers):
            try:
                y = layer.forward(params, x, tape=cache)
                if index == last:
                    nm.require_finite(y, "layer output")
            except nm.NumericError as err:
                if index and not np.all(np.isfinite(x)):
                    before = graph.layers[index - 1].name
                    raise nm.NumericError(f"non-finite activations after layer {index - 1} ({before})") from err
                raise nm.NumericError(f"layer {index} ({layer.name}): {err}") from err
            x = y
    if cache is not None:
        cache.append(x)
    outputs = {}
    for head in graph.heads:
        y = head.forward(params, x)
        outputs[head.task] = y[:, 0] if head.width == 1 else y
    return outputs


def backward(graph: ModelGraph, params: dict, cache: list, head_grads: dict) -> dict:
    """Gradients of every parameter, keyed like ``params``.

    ``cache`` is the tape a :func:`forward` call filled and ``head_grads``
    the loss adjoints of the raw head outputs, keyed by task (width-1 heads
    may take (N,) vectors).  The layers are walked in reverse, each reading
    its record; no forward work is done again.  The adjoint of the input
    batch is never returned, so a first layer that is a ConvBlock (the
    stem) does not compute it.
    """
    pooled = cache[-1]
    grads = {}
    g = np.zeros_like(pooled)
    for head in graph.heads:
        grad_y = np.asarray(head_grads[head.task], dtype=float).reshape(len(pooled), head.width)
        gx, head_param_grads = head.backward(params, pooled, grad_y)
        grads.update(head_param_grads)
        g += gx
    for i in reversed(range(len(graph.layers))):
        layer = graph.layers[i]
        skip = {"input_grad": False} if i == 0 and isinstance(layer, ConvBlock) else {}
        g, layer_grads = layer.backward(params, cache[i], g, **skip)
        grads.update(layer_grads)
    return grads


def predict_attributes(outputs: dict) -> np.ndarray:
    """Squash raw multi-task head outputs into an M x 22 attribute matrix:
    sigmoid(au) | softmax(expr) | tanh(arousal) | tanh(valence)."""
    missing = [t for t in TASKS if t not in outputs]
    if missing:
        raise ValueError(f"missing head outputs for {missing}")
    expr = np.atleast_2d(np.asarray(outputs["expr"], dtype=float))
    au = np.atleast_2d(np.asarray(outputs["au"], dtype=float))
    aro = np.atleast_1d(np.asarray(outputs["arousal"], dtype=float))
    val = np.atleast_1d(np.asarray(outputs["valence"], dtype=float))
    if expr.shape[1] != HEAD_WIDTHS["expr"] or au.shape[1] != HEAD_WIDTHS["au"]:
        raise ValueError(
            f"expected head widths ({HEAD_WIDTHS['expr']}, {HEAD_WIDTHS['au']}, 1, 1), "
            f"got ({expr.shape[1]}, {au.shape[1]})"
        )
    heads = (("expr", expr), ("au", au), ("arousal", aro), ("valence", val))
    if len({raw.shape[0] for _, raw in heads}) > 1:
        counts = ", ".join(f"{task} {raw.shape[0]}" for task, raw in heads)
        raise ValueError(f"head outputs differ in row count: {counts}")
    for task, raw in heads:
        nm.require_finite(raw, f"the {task} head output")
    affect = np.tanh(np.column_stack([aro, val]))
    return tp.attribute_matrix(np.hstack([nm.sigmoid(au), nm.softmax(expr), affect]))
