"""Trunk builder: stem, CU stages, depthwise tail, pooled heads.

The CU internals (bottleneck width, depthwise multiplier, EESP branch width
and group count) are not pinned by the layer table, so they live in CuWidths
with defaults calibrated to land inside the target parameter and FLOP
budgets for each variant.  Counting conventions: 1 MAC = 1 FLOP, convolution
MACs exclude the bias add, the global average pool contributes H*W adds per
channel, and the per-channel affine that stands in for normalization costs
one MAC per activation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .temporal import FrameAttributes

CU_KINDS = ("bottleneck", "mobilenet", "eesp")
TASKS = ("expr", "au", "arousal", "valence")
HEAD_WIDTHS = {"expr": 8, "au": 12, "arousal": 1, "valence": 1}

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
    eesp_groups: int = 4
    eesp_width_mult: int = 13

    def __post_init__(self):
        if self.bottleneck_mid_ratio <= 0:
            raise ValueError("bottleneck_mid_ratio must be positive")
        for name in ("mobilenet_depth_mult", "eesp_branches", "eesp_groups", "eesp_width_mult"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")


class ConvBlock:
    """Convolution, learnable per-channel affine, optional ReLU.

    The forward pass folds the affine into the convolution (weights
    ``scale*W``, bias ``scale*b + shift``), saving one pass over the
    activations; training keeps them apart (``numerics.channel_affine``).
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

    def forward(self, params: dict, x: np.ndarray) -> np.ndarray:
        scale = params[f"{self.name}.scale"]
        # A non-finite fold is reported by require_finite, not as a numpy warning.
        with np.errstate(invalid="ignore", over="ignore"):
            w = scale[:, None, None, None] * params[f"{self.name}.w"]
            b = scale * params[f"{self.name}.b"] + params[f"{self.name}.shift"]
        nm.require_finite(w, "folded weights")
        nm.require_finite(b, "folded bias")
        y = nm.conv2d(x, self.spec, w, b)
        return np.maximum(y, 0.0, out=y) if self.relu else y

    def macs(self, hw) -> int:
        oh, ow = self.spec.out_hw(hw)
        return self.spec.macs(hw) + oh * ow * self.spec.out_channels


class BottleneckUnit:
    """1x1 reduce, 3x3 spatial, 1x1 expand, residual add, final ReLU.

    The shortcut is the identity when shapes agree and a strided 1x1
    projection otherwise.
    """

    def __init__(self, name: str, cin: int, cout: int, stride: int, widths: CuWidths):
        mid = max(1, round(widths.bottleneck_mid_ratio * cout))
        self.name = name
        self.stride = stride
        self.out_channels = cout
        self.reduce = ConvBlock(f"{name}.reduce", nm.ConvSpec(cin, mid, kernel=1))
        self.spatial = ConvBlock(f"{name}.spatial", nm.ConvSpec(mid, mid, kernel=3, stride=stride, padding=1))
        self.expand = ConvBlock(f"{name}.expand", nm.ConvSpec(mid, cout, kernel=1), relu=False)
        self.project = None
        if stride != 1 or cin != cout:
            self.project = ConvBlock(f"{name}.project", nm.ConvSpec(cin, cout, kernel=1, stride=stride), relu=False)

    def _blocks(self):
        blocks = [self.reduce, self.spatial, self.expand]
        if self.project is not None:
            blocks.append(self.project)
        return blocks

    def out_hw(self, hw):
        return self.spatial.out_hw(self.reduce.out_hw(hw))

    def param_shapes(self) -> dict:
        shapes = {}
        for block in self._blocks():
            shapes.update(block.param_shapes())
        return shapes

    def forward(self, params: dict, x: np.ndarray) -> np.ndarray:
        y = self.expand.forward(params, self.spatial.forward(params, self.reduce.forward(params, x)))
        shortcut = x if self.project is None else self.project.forward(params, x)
        return nm.relu(y + shortcut)

    def macs(self, hw) -> int:
        total = self.reduce.macs(hw)
        inner = self.reduce.out_hw(hw)
        total += self.spatial.macs(inner)
        total += self.expand.macs(self.spatial.out_hw(inner))
        if self.project is not None:
            total += self.project.macs(hw)
        return total


class MobileNetUnit:
    """Depthwise 3x3 with channel multiplier, then 1x1 pointwise."""

    def __init__(self, name: str, cin: int, cout: int, stride: int, widths: CuWidths):
        mid = cin * widths.mobilenet_depth_mult
        self.name = name
        self.stride = stride
        self.out_channels = cout
        self.depthwise = ConvBlock(
            f"{name}.dw", nm.ConvSpec(cin, mid, kernel=3, stride=stride, padding=1, groups=cin)
        )
        self.pointwise = ConvBlock(f"{name}.pw", nm.ConvSpec(mid, cout, kernel=1))

    def out_hw(self, hw):
        return self.depthwise.out_hw(hw)

    def param_shapes(self) -> dict:
        return {**self.depthwise.param_shapes(), **self.pointwise.param_shapes()}

    def forward(self, params: dict, x: np.ndarray) -> np.ndarray:
        return self.pointwise.forward(params, self.depthwise.forward(params, x))

    def macs(self, hw) -> int:
        return self.depthwise.macs(hw) + self.pointwise.macs(self.depthwise.out_hw(hw))


class EespUnit:
    """Grouped 1x1 reduce, parallel dilated depthwise branches, hierarchical
    sum before concatenation, grouped 1x1 expand, residual when shapes match.

    Branch k uses dilation k with matching padding so every branch keeps the
    same spatial size; stride lives on the branches.
    """

    def __init__(self, name: str, cin: int, cout: int, stride: int, widths: CuWidths):
        k = widths.eesp_branches
        if (widths.eesp_width_mult * cout) % k:
            raise ValueError("eesp_width_mult * out_channels must be divisible by eesp_branches")
        branch_width = widths.eesp_width_mult * cout // k
        g = widths.eesp_groups
        self.name = name
        self.stride = stride
        self.out_channels = cout
        self.residual = stride == 1 and cin == cout
        self.reduce = ConvBlock(f"{name}.reduce", nm.ConvSpec(cin, branch_width, kernel=1, groups=g))
        self.branches = [
            ConvBlock(
                f"{name}.branch{d}",
                nm.ConvSpec(
                    branch_width, branch_width, kernel=3, stride=stride,
                    padding=d, dilation=d, groups=branch_width,
                ),
            )
            for d in range(1, k + 1)
        ]
        self.expand = ConvBlock(
            f"{name}.expand", nm.ConvSpec(k * branch_width, cout, kernel=1, groups=g), relu=False
        )

    def out_hw(self, hw):
        return self.branches[0].out_hw(self.reduce.out_hw(hw))

    def param_shapes(self) -> dict:
        shapes = self.reduce.param_shapes()
        for block in self.branches:
            shapes.update(block.param_shapes())
        shapes.update(self.expand.param_shapes())
        return shapes

    def forward(self, params: dict, x: np.ndarray) -> np.ndarray:
        reduced = self.reduce.forward(params, x)
        outs = [block.forward(params, reduced) for block in self.branches]
        merged = []
        running = np.zeros_like(outs[0])
        for out in outs:
            running = running + out
            merged.append(running)
        y = self.expand.forward(params, np.concatenate(merged, axis=1))
        if self.residual:
            y = y + x
        return nm.relu(y)

    def macs(self, hw) -> int:
        total = self.reduce.macs(hw)
        inner = self.reduce.out_hw(hw)
        for block in self.branches:
            total += block.macs(inner)
        total += self.expand.macs(self.branches[0].out_hw(inner))
        return total


class GlobalPool:
    name = "pool"
    out_channels = TAIL_CHANNELS

    def out_hw(self, hw):
        return (1, 1)

    def param_shapes(self) -> dict:
        return {}

    def forward(self, params: dict, x: np.ndarray) -> np.ndarray:
        return nm.global_avg_pool(x)

    def macs(self, hw) -> int:
        return hw[0] * hw[1] * TAIL_CHANNELS


class Head:
    """Linear readout from pooled features; raw outputs, no activation."""

    def __init__(self, task: str):
        self.task = task
        self.name = f"head.{task}"
        self.width = HEAD_WIDTHS[task]

    def param_shapes(self) -> dict:
        return {f"{self.name}.w": (self.width, TAIL_CHANNELS), f"{self.name}.b": (self.width,)}

    def forward(self, params: dict, pooled: np.ndarray) -> np.ndarray:
        return nm.linear(pooled, params[f"{self.name}.w"], params[f"{self.name}.b"])

    def macs(self) -> int:
        return self.width * TAIL_CHANNELS


@dataclass(frozen=True)
class ModelGraph:
    cu: str
    mode: str
    input_hw: tuple
    layers: tuple = field(repr=False)
    heads: tuple = field(repr=False)
    widths: CuWidths = field(repr=False)

    @property
    def tasks(self):
        return tuple(h.task for h in self.heads)


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
    layers.append(GlobalPool())
    heads = tuple(Head(t) for t in (TASKS if mode == "multi" else (mode,)))
    return ModelGraph(cu=cu, mode=mode, input_hw=tuple(input_hw),
                      layers=tuple(layers), heads=heads, widths=widths)


def param_shapes(graph: ModelGraph) -> dict:
    shapes = {}
    for layer in graph.layers:
        shapes.update(layer.param_shapes())
    for head in graph.heads:
        shapes.update(head.param_shapes())
    return shapes


def count_params(graph: ModelGraph) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(graph).values())


def count_flops(graph: ModelGraph, input_hw=None) -> int:
    """Total MACs for one forward pass at the given input size."""
    hw = tuple(input_hw) if input_hw is not None else graph.input_hw
    total = 0
    for layer in graph.layers:
        total += layer.macs(hw)
        hw = layer.out_hw(hw)
    total += sum(h.macs() for h in graph.heads)
    return total


def layer_table(graph: ModelGraph, input_hw=None) -> list[dict]:
    """Per-layer rows (name, output size/channels, params, flops) plus heads."""
    hw = tuple(input_hw) if input_hw is not None else graph.input_hw
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


def forward(graph: ModelGraph, params: dict, batch: np.ndarray) -> dict:
    """Run the trunk and heads; returns raw per-head outputs keyed by task."""
    x = np.asarray(batch, dtype=float)
    if x.ndim != 4 or x.shape[1] != 3:
        raise nm.ShapeError(f"expected a batch shaped (N, 3, H, W), got {x.shape}")
    if x.shape[2:] != tuple(graph.input_hw):
        raise nm.ShapeError(
            f"batch spatial size {x.shape[2:]} does not match graph input {graph.input_hw}"
        )
    for index, layer in enumerate(graph.layers):
        try:
            x = layer.forward(params, x)
        except nm.NumericError as err:
            raise nm.NumericError(f"layer {index} ({layer.name}): {err}") from err
        if not np.all(np.isfinite(x)):
            raise nm.NumericError(f"non-finite activations after layer {index} ({layer.name})")
    outputs = {}
    for head in graph.heads:
        y = head.forward(params, x)
        outputs[head.task] = y[:, 0] if head.width == 1 else y
    return outputs


def predict_attributes(outputs: dict) -> list[FrameAttributes]:
    """Squash raw multi-task head outputs into per-frame attributes."""
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
    expr_p = nm.softmax(expr)
    au_p = nm.sigmoid(au)
    return [
        FrameAttributes(
            au=tuple(au_p[i]),
            expr=tuple(expr_p[i]),
            arousal=float(np.tanh(aro[i])),
            valence=float(np.tanh(val[i])),
        )
        for i in range(expr.shape[0])
    ]
