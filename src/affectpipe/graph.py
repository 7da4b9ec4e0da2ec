"""Trunk builder: stem, CU stages, depthwise tail, pooled heads.

Each convolutional unit (CU) is data: a short list of steps (a ConvBlock,
an add or a ReLU) over named activation slots, and one walker gives all
three kinds their forward pass, output size, MACs, parameter shapes and
backward pass.  The CU internals (bottleneck width, depthwise multiplier,
EESP branch count and width) are not pinned by the layer table, so they
live in CuWidths with defaults calibrated to land inside the target
parameter and FLOP budgets for each variant.  Counting conventions: 1 MAC =
1 FLOP, convolution MACs exclude the bias add, adds and ReLUs cost nothing,
the global average pool contributes H*W adds per channel, and the
per-channel affine that stands in for normalization costs one MAC per
activation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
        ratio = self.bottleneck_mid_ratio
        if not (nm._is_real(ratio) and ratio > 0 and math.isfinite(ratio)):
            raise ValueError(f"bottleneck_mid_ratio must be positive and finite, got {ratio!r}")
        for name in ("mobilenet_depth_mult", "eesp_branches", "eesp_width_mult"):
            value = getattr(self, name)
            if not nm._is_count(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")


class BlockRecord(NamedTuple):
    """What a taped :meth:`ConvBlock.forward` keeps for its backward: the
    inputs (one, or one per group), the output, the folded weights, and per
    input the column tensor its im2col convolution built (None on the taps
    path)."""

    xs: tuple
    y: np.ndarray
    w: np.ndarray
    columns: tuple


class UnitRecord(NamedTuple):
    """What a taped :meth:`Unit.forward` keeps: every slot's value and, in
    step order, each of its blocks' :class:`BlockRecord`."""

    slots: dict
    blocks: list


class ConvBlock:
    """Convolution, learnable per-channel affine, optional ReLU.

    The forward pass folds the affine into the convolution (weights
    ``scale*W``, bias ``scale*b + shift``), saving one pass over the
    activations; the backward pass applies the chain rule through the fold
    and reads the folded weights from the forward's record.

    A grouped block takes one input, or one input per group (EESP's expand
    reads each running sum of its branches as one group): it then runs one
    convolution per group under ``group_spec`` and stacks their outputs
    channel-major, as one grouped convolution lays them out.
    """

    def __init__(self, name: str, spec: nm.ConvSpec, relu: bool = True):
        self.name = name
        self.spec = spec
        self.relu = relu
        g = spec.groups
        self.group_spec = replace(spec, in_channels=spec.in_channels // g, out_channels=spec.out_channels // g,
                                  groups=1)

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

    def _folded(self, params: dict):
        scale = params[f"{self.name}.scale"]
        # A non-finite fold is reported by require_finite, not as a numpy warning.
        with np.errstate(invalid="ignore", over="ignore"):
            w = scale[:, None, None, None] * params[f"{self.name}.w"]
            b = scale * params[f"{self.name}.b"] + params[f"{self.name}.shift"]
        nm.require_finite(w, "folded weights")
        nm.require_finite(b, "folded bias")
        return w, b

    def forward(self, params: dict, *xs: np.ndarray, padded: np.ndarray | None = None,
                tape: list | None = None) -> np.ndarray:
        """``padded`` is a shared channels-last copy of x, see :func:`numerics.conv2d`.

        With a ``tape`` list, a :class:`BlockRecord` is appended to it.
        """
        w, b = self._folded(params)
        keep = tape is not None
        if len(xs) == 1:
            runs = [nm.conv2d(xs[0], self.spec, w, b, padded=padded, return_columns=keep)]
        else:
            ws, bs = w.reshape(len(xs), -1, *w.shape[1:]), b.reshape(len(xs), -1)
            runs = [nm.conv2d(x, self.group_spec, wg, bg, return_columns=keep)
                    for x, wg, bg in zip(xs, ws, bs)]
        ys, columns = zip(*runs) if keep else (runs, None)
        if len(ys) == 1:
            y = ys[0]
        else:
            y = np.concatenate([y.transpose(1, 0, 2, 3) for y in ys]).transpose(1, 0, 2, 3)
        if self.relu:
            np.maximum(y, 0.0, out=y)
        if keep:
            tape.append(BlockRecord(xs, y, w, columns))
        return y

    def backward(self, params: dict, record: BlockRecord, grad_y: np.ndarray, *, input_grad: bool = True):
        """(grad_x, parameter grads) from the forward's record and d loss/d y.

        With gWf, gbf the adjoints of the folded weights and bias:
        gW = scale*gWf, gb = scale*gbf, gshift = gbf and
        gscale = sum(gWf*W) + gbf*b per output channel.  A block that read
        one input per group gives a tuple grad_x.  With ``input_grad=False``
        grad_x is None and is not computed.
        """
        xs, y, w, columns = record
        if self.relu:
            grad_y = nm.relu_backward(grad_y, y)
        if len(xs) > 1:
            groups = zip(np.split(grad_y, len(xs), axis=1), xs, w.reshape(len(xs), -1, *w.shape[1:]), columns)
            gxs, gws, gbs = zip(*(nm.conv2d_backward(gy, xg, self.group_spec, wg, columns=cols,
                                                     input_grad=input_grad)
                                  for gy, xg, wg, cols in groups))
            gx = gxs if input_grad else None
            gwf, gbf = np.concatenate(gws), np.concatenate(gbs)
        else:
            gx, gwf, gbf = nm.conv2d_backward(grad_y, xs[0], self.spec, w, columns=columns[0],
                                              input_grad=input_grad)
        n = self.name
        scale = params[f"{n}.scale"]
        return gx, {
            f"{n}.w": scale[:, None, None, None] * gwf,
            f"{n}.b": scale * gbf,
            f"{n}.scale": (gwf * params[f"{n}.w"]).sum(axis=(1, 2, 3)) + gbf * params[f"{n}.b"],
            f"{n}.shift": gbf,
        }

    def macs(self, hw) -> int:
        oh, ow = self.spec.out_hw(hw)
        return self.spec.macs(hw) + oh * ow * self.spec.out_channels


# The other ops of a unit's steps.  An add keeps the layout of its inputs, so
# EESP's running sums of channels-last branches are channels-last, and each
# is one contiguous slab for its group of the expand.
_OPS = {
    "add": np.add,
    "relu": nm.relu,
}


class Unit:
    """A CU as data: ``steps`` is a tuple of ``(op, out_slot, in_slots)``.

    An op is a ConvBlock or a key of ``_OPS``; slot ``"x"`` is the unit's
    input and the last step's slot its output.  A ConvBlock reads one slot,
    or one slot per group (see :class:`ConvBlock`).  One walker over the steps
    serves forward, out_hw, macs and param_shapes; backward walks them in
    reverse over the :class:`UnitRecord` a taped forward kept, and runs no
    step's forward again.  Each kind binds ``forward`` in its own class body
    because the benchmark's tracer times the kinds apart by wrapping
    ``vars(cls)["forward"]``.

    A slot read by two or more per-channel depthwise blocks (EESP's branches)
    is copied once into a zero-padded channels-last buffer, padded for the
    widest of them; each reads it at its own offset, and the copy is dropped
    after its last reader.  ``shared`` maps each such block to
    ``(slot, margin, is_last_reader)``.
    """

    def __init__(self, name: str, cout: int, steps):
        self.name, self.out_channels, self.steps = name, cout, tuple(steps)
        self.blocks = [(op, ins[0]) for op, _, ins in self.steps if isinstance(op, ConvBlock)]
        readers = {}
        for block, src in self.blocks:
            if block.spec.per_channel:
                readers.setdefault(src, []).append(block)
        self.shared = {}
        for src, blocks in readers.items():
            if len(blocks) > 1:
                margin = max(block.spec.padding for block in blocks)
                self.shared.update((block, (src, margin, block is blocks[-1])) for block in blocks)

    def _walk(self, x, step) -> dict:
        """Every slot's value, with step(op, inputs) giving one step's output."""
        slots = {"x": x}
        for op, out, ins in self.steps:
            slots[out] = step(op, [slots[s] for s in ins])
        return slots

    def _values(self, params: dict, x: np.ndarray, tape: list | None = None) -> dict:
        copies = {}

        def step(op, args):
            if not isinstance(op, ConvBlock):
                return _OPS[op](*args)
            if op not in self.shared:
                return op.forward(params, *args, tape=tape)
            src, margin, last = self.shared[op]
            if src not in copies:
                copies[src] = nm._pad_channels_last(args[0], margin)
            return op.forward(params, *args, padded=copies.pop(src) if last else copies[src], tape=tape)

        return self._walk(x, step)

    def _sizes(self, hw) -> dict:
        return self._walk(tuple(hw), lambda op, a: op.out_hw(a[0]) if isinstance(op, ConvBlock) else a[0])

    def forward(self, params: dict, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """With a ``tape`` list, a :class:`UnitRecord` is appended to it."""
        blocks = None if tape is None else []
        slots = self._values(params, x, blocks)
        if tape is not None:
            tape.append(UnitRecord(slots, blocks))
        return slots[self.steps[-1][1]]

    def out_hw(self, hw):
        return self._sizes(hw)[self.steps[-1][1]]

    def macs(self, hw) -> int:
        sizes = self._sizes(hw)
        return sum(block.macs(sizes[src]) for block, src in self.blocks)

    def param_shapes(self) -> dict:
        return {key: shape for block, _ in self.blocks for key, shape in block.param_shapes().items()}

    def backward(self, params: dict, record: UnitRecord, grad_y: np.ndarray):
        """(grad_x, parameter grads) from the forward's record and d loss/d y.

        ``add`` fans the gradient out, ``relu`` masks it by the step's
        output, and a ConvBlock runs its own backward on its record, with
        one gradient per slot it reads.
        """
        slots, blocks = record
        blocks = reversed(blocks)
        grads, param_grads = {self.steps[-1][1]: grad_y}, {}
        for op, out, ins in reversed(self.steps):
            g = grads.pop(out)
            if isinstance(op, ConvBlock):
                g, block_grads = op.backward(params, next(blocks), g)
                param_grads.update(block_grads)
            elif op == "relu":
                g = nm.relu_backward(g, slots[out])
            for slot, g_in in zip(ins, g if isinstance(g, tuple) else [g] * len(ins)):
                grads[slot] = grads[slot] + g_in if slot in grads else g_in
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
    have K groups, as in ESPNetv2.  The running sums s1 = b1, s_k = s_(k-1) +
    b_k are add steps, and the expand reads s_k as its group k.
    """

    def __init__(self, name: str, cin: int, cout: int, stride: int, widths: CuWidths):
        k = widths.eesp_branches
        width, rem = divmod(widths.eesp_width_mult * cout, k)
        if rem or cin % k or cout % k or width % k:
            raise ValueError(f"unit {name}: eesp_branches {k} must divide in_channels {cin}, "
                             f"out_channels {cout} and the branch width eesp_width_mult * "
                             f"out_channels / eesp_branches ({widths.eesp_width_mult * cout}/{k})")
        steps = [(ConvBlock(f"{name}.reduce", nm.ConvSpec(cin, width, kernel=1, groups=k)), "r", ("x",))]
        for d in range(1, k + 1):
            spec = nm.ConvSpec(width, width, kernel=3, stride=stride, padding=d, dilation=d, groups=width)
            steps.append((ConvBlock(f"{name}.branch{d}", spec), f"b{d}", ("r",)))
        sums = ["b1"]
        for d in range(2, k + 1):
            steps.append(("add", f"s{d}", (sums[-1], f"b{d}")))
            sums.append(f"s{d}")
        expand = nm.ConvSpec(k * width, cout, kernel=1, groups=k)
        steps.append((ConvBlock(f"{name}.expand", expand, relu=False), "e", tuple(sums)))
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
    single-task graph.
    """
    if cu not in CU_KINDS:
        raise ValueError(f"unknown convolutional unit {cu!r}")
    if mode != "multi" and mode not in TASKS:
        raise ValueError(f"mode must be 'multi' or one of {TASKS}, got {mode!r}")
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
    return ModelGraph(cu=cu, input_hw=tuple(input_hw), layers=tuple(layers), heads=heads)


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
    inputs, output, folded weights and im2col columns; a unit's slots and
    its blocks' records; the pool's input shape), and then the pooled
    features are appended.  Without it nothing is kept.
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
