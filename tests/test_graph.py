"""Structure, counting, and inference tests for the network builder.

Forward passes run at reduced input sizes (e.g. 32x32) to keep the suite
fast; counting tests use the full 224x224 contract.
"""

import collections
import dataclasses
import hashlib
import itertools
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affectpipe import cli
from affectpipe import graph as gp
from affectpipe import numerics as nm
from affectpipe import training as tr

from conftest import (central_difference, channel_affine, channel_affine_backward, eesp_slots, exact,
                      max_rel_error, offset_conv2d, prove_then_convolve, recompute_backward,
                      recompute_unit_backward)

PARAM_TARGETS = {"bottleneck": 6.5e6, "mobilenet": 6.2e6, "eesp": 2.4e6}
# Strided dense, grouped, grouped 1x1 and strided dilated depthwise blocks.
BLOCK_SPECS = [
    nm.ConvSpec(3, 6, kernel=3, stride=2, padding=1),
    nm.ConvSpec(4, 12, kernel=3, padding=1, groups=4),
    nm.ConvSpec(8, 4, kernel=1, groups=2),
    nm.ConvSpec(5, 5, kernel=3, stride=2, padding=3, dilation=3, groups=5),
]


# (unit class, cin, cout, stride, widths): identity and projection shortcuts,
# stride 1 and 2, and EESP with 1 to 4 branches, with and without residual.
# EESP's K branches are also its 1x1 group count, so K divides every width.
UNIT_CASES = [
    (gp.BottleneckUnit, 4, 4, 1, gp.CuWidths()),
    (gp.BottleneckUnit, 3, 4, 1, gp.CuWidths()),
    (gp.BottleneckUnit, 4, 4, 2, gp.CuWidths(bottleneck_mid_ratio=0.5)),
    (gp.MobileNetUnit, 3, 4, 1, gp.CuWidths(mobilenet_depth_mult=2)),
    (gp.MobileNetUnit, 2, 3, 2, gp.CuWidths(mobilenet_depth_mult=3)),
] + [
    (gp.EespUnit, 4, 4, 1, gp.CuWidths(eesp_branches=k, eesp_width_mult=k)) for k in (1, 2, 4)
] + [
    (gp.EespUnit, 6, 6, 1, gp.CuWidths(eesp_branches=3, eesp_width_mult=3)),
    (gp.EespUnit, 6, 6, 2, gp.CuWidths(eesp_branches=3, eesp_width_mult=3)),
    (gp.EespUnit, 2, 4, 1, gp.CuWidths(eesp_branches=2, eesp_width_mult=2)),
]

# SHA-256 of `analyze-graph --cu all --input-hw HW --mode MODE` reports: the
# output sizes, MACs and parameter counts walked from the unit steps are pinned.
REPORT_SHA256 = {
    (224, "multi"): "5fae13abdd68223b5ffca2086c94da0139f8d5771cfbaeec5acc1b8b471985c7",
    (224, "expr"): "421d5ef43374e1215cd628338b55e77cc17aad0c4d101a4b9ec4539f91a0a36b",
    (224, "au"): "49649dd17175f631243533ef1b2e3d479852d82ccc973065afadddd49b6aeaf2",
    (224, "arousal"): "706e23af1837dad75d981437336c1858733e445e00d70cd037cb2facab90bd92",
    (224, "valence"): "675b2d76dc4642190b02ab10b286bcf3ffc25b5f9e682e7410699c5ba1291036",
    (32, "multi"): "5f3a9d5f7b0134645cf4a466a243cd0405d811673874b3aafd52b116c0f942e6",
    (32, "expr"): "614c2e9d583a9cec77caad885b5e9e9285f115a46f740dc75be2281ef2a64036",
    (32, "au"): "60b1602b3f26a730bc9c90c1ab366ddc762d600b874ce0770e779d250a67c73b",
    (32, "arousal"): "b54e857f6745149b79f9e6fb7478575edeb3aa852b57a23f9063ca1d3618983a",
    (32, "valence"): "a359165389e68e3717afb6bde939e3cbfdbfde1055ca2ab69f684362ee5075b6",
}


def tiny_graph(cu, mode="multi"):
    return gp.build_graph(cu, mode, input_hw=(32, 32))


def block_params(rng, spec):
    """ConvBlock "blk" parameters with signed non-unit scales and nonzero shifts."""
    c = spec.out_channels
    return {
        "blk.w": rng.normal(size=spec.weight_shape),
        "blk.b": rng.normal(size=c),
        "blk.scale": rng.uniform(0.2, 3.0, size=c) * rng.choice([-1.0, 1.0], size=c),
        "blk.shift": rng.normal(scale=2.0, size=c),
    }


def unit_params(rng, unit):
    """Normal weights and biases, signed non-unit scales, nonzero shifts."""
    params = {}
    for key, shape in unit.param_shapes().items():
        if key.endswith(".scale"):
            params[key] = rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        else:
            params[key] = rng.normal(scale=0.5 if key.endswith(".shift") else 1.0, size=shape)
    return params


def oracle_block(params, key, spec, x, relu=True):
    """One ConvBlock from raw numerics calls: conv2d, channel_affine, ReLU."""
    h = channel_affine(nm.conv2d(x, spec, params[f"{key}.w"], params[f"{key}.b"]),
                       params[f"{key}.scale"], params[f"{key}.shift"])
    return nm.relu(h) if relu else h


def assert_block_matches_finite_differences(block, params, x, rng):
    """The taped backward of block "blk" against central differences of
    sum(forward * up) in x and in each parameter."""
    tape = []
    y = block.forward(params, x, tape=tape)
    up = rng.normal(size=y.shape)
    gx, grads = block.backward(params, tape[0], up)

    def loss(trial, v):
        return float((block.forward(trial, v) * up).sum())

    assert max_rel_error(gx, central_difference(lambda v: loss(params, v), x.copy())) < 1e-6
    for key in ("blk.w", "blk.b", "blk.scale", "blk.shift"):
        num = central_difference(lambda v: loss({**params, key: v}, x), params[key].copy())
        assert max_rel_error(grads[key], num) < 1e-6, key


def unit_blocks(unit):
    """Every ConvBlock of a unit, in parameter order."""
    return [block for op, _ in unit.layers
            for block in (op.blocks if isinstance(op, gp.EespBranches) else (op,))]


def slow_eesp_forward(unit, params, x, residual):
    """An EESP unit walked the slow way, the reference for its steps: one
    padded copy per branch, the running sums built by accumulate and
    concatenate, and one grouped expand over all of them."""
    blocks = {block.name.split(".")[-1]: block for block in unit_blocks(unit)}
    reduced = blocks["reduce"].forward(params, x)
    branches = [blocks[f"branch{d}"].forward(params, reduced) for d in range(1, len(blocks) - 1)]
    y = blocks["expand"].forward(params, np.concatenate(list(itertools.accumulate(branches)), axis=1))
    return nm.relu(y + x if residual else y)


def count_copies(monkeypatch):
    """Record the margin of every padded channels-last copy made from now on."""
    margins = []
    real = nm._pad_channels_last

    def counted(x, margin):
        margins.append(margin)
        return real(x, margin)

    monkeypatch.setattr(nm, "_pad_channels_last", counted)
    return margins


def unit_case_id(case):
    cls, cin, cout, stride, widths = case
    extra = f"-k{widths.eesp_branches}" if cls is gp.EespUnit else ""
    return f"{cls.__name__}-{cin}to{cout}-s{stride}{extra}"


class TestCuWidths:
    @pytest.mark.parametrize("field, value", [
        ("mobilenet_depth_mult", 2.5), ("mobilenet_depth_mult", 0), ("eesp_branches", True),
        ("eesp_branches", 4.0), ("eesp_width_mult", -1), ("eesp_width_mult", "4"),
        ("bottleneck_mid_ratio", float("nan")), ("bottleneck_mid_ratio", float("inf")),
        ("bottleneck_mid_ratio", 0.0), ("bottleneck_mid_ratio", -1.2),
    ])
    def test_bad_value_rejected_by_field_name(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be .*, got {value!r}"):
            gp.CuWidths(**{field: value})

    @pytest.mark.parametrize("value", [None, "1.2", True, np.bool_(True), [1.2]])
    def test_ratio_must_be_a_real_number(self, value):
        with pytest.raises(ValueError, match=r"^bottleneck_mid_ratio must be positive and finite, got "):
            gp.CuWidths(bottleneck_mid_ratio=value)

    def test_numpy_integers_and_integer_ratio_accepted(self):
        widths = gp.CuWidths(bottleneck_mid_ratio=1, mobilenet_depth_mult=np.int64(2))
        assert gp.build_graph("mobilenet", input_hw=(32, 32), widths=widths).layers[1].out_channels == 32

    def test_eesp_groups_is_the_branch_count(self):
        assert "eesp_groups" not in {f.name for f in dataclasses.fields(gp.CuWidths)}
        unit = gp.EespUnit("u", 8, 8, 1, gp.CuWidths(eesp_branches=2, eesp_width_mult=2))
        assert [block.spec.groups for block in unit_blocks(unit) if block.spec.kernel == 1] == [2, 2]

    @pytest.mark.parametrize("cin, cout, widths", [
        (3, 4, gp.CuWidths(eesp_branches=2, eesp_width_mult=2)),  # in_channels
        (4, 6, gp.CuWidths(eesp_branches=2, eesp_width_mult=1)),  # branch width 3
        (4, 2, gp.CuWidths(eesp_branches=4, eesp_width_mult=8)),  # out_channels
        (4, 4, gp.CuWidths(eesp_branches=4, eesp_width_mult=3)),  # 3 * 4 / 4 = 3
        (3, 3, gp.CuWidths(eesp_branches=3, eesp_width_mult=4)),  # 4 * 3 / 3 = 4
    ])
    def test_eesp_branches_must_divide_the_widths(self, cin, cout, widths):
        with pytest.raises(ValueError, match=r"^unit u: eesp_branches \d must divide "):
            gp.EespUnit("u", cin, cout, 1, widths)

    def test_graph_with_indivisible_eesp_branches_names_the_unit(self):
        widths = gp.CuWidths(eesp_branches=3, eesp_width_mult=12)
        with pytest.raises(ValueError, match=r"^unit cu1: eesp_branches 3 must divide in_channels 32"):
            gp.build_graph("eesp", input_hw=(32, 32), widths=widths)


class TestStructure:
    @pytest.mark.parametrize("cu", gp.CU_KINDS)
    def test_spatial_trace_matches_table(self, cu):
        graph = gp.build_graph(cu, "multi")
        hw = graph.input_hw
        sizes = []
        for layer in graph.layers:
            hw = layer.out_hw(hw)
            sizes.append(hw[0])
        # stem + 18 CU instances + tail + pool
        cu_sizes = sizes[1:-2]
        per_row = [cu_sizes[0], cu_sizes[1], cu_sizes[2], cu_sizes[3],
                   cu_sizes[6], cu_sizes[7], cu_sizes[14], cu_sizes[15]]
        assert sizes[0] == 112
        assert per_row == [56, 56, 28, 28, 14, 14, 7, 7]
        assert sizes[-2] == 7
        assert sizes[-1] == 1

    @pytest.mark.parametrize("cu", gp.CU_KINDS)
    def test_channel_trace_matches_table(self, cu):
        graph = gp.build_graph(cu, "multi")
        channels = [layer.out_channels for layer in graph.layers]
        assert channels[0] == 32
        assert channels[1:3] == [32, 32]
        assert channels[3:7] == [64] * 4
        assert channels[7:15] == [128] * 8
        assert channels[15:19] == [256] * 4
        assert channels[19] == 512
        assert channels[20] == 512

    def test_repeat_counts(self):
        graph = gp.build_graph("bottleneck", "multi")
        # 1 stem + (1+1+1+3+1+7+1+3) units + tail + pool = 21 layers
        assert len(graph.layers) == 21

    def test_multi_task_heads(self):
        graph = gp.build_graph("eesp", "multi")
        assert [h.width for h in graph.heads] == [8, 12, 1, 1]
        assert tuple(h.task for h in graph.heads) == ("expr", "au", "arousal", "valence")

    def test_single_task_head(self):
        graph = gp.build_graph("bottleneck", "expr")
        assert len(graph.heads) == 1
        assert graph.heads[0].width == 8

    def test_unknown_cu_rejected(self):
        with pytest.raises(ValueError):
            gp.build_graph("resnext")
        with pytest.raises(ValueError):
            gp.build_graph("eesp", "depth")

    @pytest.mark.parametrize("input_hw", [(32,), (32, 32, 3), (2.5, 2.5), (32, 0), (-32, 32), (True, 32),
                                          (32.0, 32), "32", 32, None])
    def test_input_hw_must_be_two_positive_integers(self, input_hw):
        with pytest.raises(ValueError,
                           match=rf"^input_hw must be two positive integers, got {re.escape(repr(input_hw))}$"):
            gp.build_graph("eesp", input_hw=input_hw)

    def test_input_hw_accepts_a_list_and_numpy_integers(self):
        for input_hw in ([32, 32], (np.int64(32), np.int32(32))):
            assert gp.layer_table(gp.build_graph("eesp", input_hw=input_hw)) == gp.layer_table(tiny_graph("eesp"))


class TestCountParams:
    def test_stem_conv_is_896(self):
        graph = gp.build_graph("bottleneck", "multi")
        stem = graph.layers[0]
        conv_elems = int(np.prod(stem.spec.weight_shape)) + stem.spec.out_channels
        assert conv_elems == 3 * 3 * 3 * 32 + 32 == 896

    @pytest.mark.parametrize("cu", gp.CU_KINDS)
    def test_multi_task_within_band(self, cu):
        count = gp.count_params(gp.build_graph(cu, "multi"))
        target = PARAM_TARGETS[cu]
        assert 0.8 * target <= count <= 1.2 * target

    @pytest.mark.parametrize("cu", gp.CU_KINDS)
    def test_single_task_sum_near_four_multis(self, cu):
        multi = gp.count_params(gp.build_graph(cu, "multi"))
        singles = sum(gp.count_params(gp.build_graph(cu, t)) for t in gp.TASKS)
        assert abs(singles - 4 * multi) <= 0.05 * 4 * multi

    def test_single_task_counts_differ_only_by_head(self):
        base = gp.count_params(gp.build_graph("eesp", "arousal"))
        for task in gp.TASKS:
            count = gp.count_params(gp.build_graph("eesp", task))
            head_delta = (gp.HEAD_WIDTHS[task] - 1) * (gp.TAIL_CHANNELS + 1)
            assert count == base + head_delta

    def test_multi_equals_single_plus_extra_heads(self):
        multi = gp.count_params(gp.build_graph("mobilenet", "multi"))
        expr = gp.count_params(gp.build_graph("mobilenet", "expr"))
        extra = sum((gp.TAIL_CHANNELS + 1) * gp.HEAD_WIDTHS[t] for t in ("au", "arousal", "valence"))
        assert multi == expr + extra

    def test_matches_shape_table(self):
        graph = tiny_graph("eesp")
        total = sum(int(np.prod(s)) for s in gp.param_shapes(graph).values())
        assert gp.count_params(graph) == total


class TestCountFlops:
    def test_stem_macs_exact(self):
        graph = gp.build_graph("bottleneck", "multi")
        stem = graph.layers[0]
        assert stem.spec.macs((224, 224)) == 864 * 112 * 112 == 10_838_016

    def test_eesp_band(self):
        flops = gp.count_flops(gp.build_graph("eesp", "multi"))
        assert 0.7 * 0.29e9 <= flops <= 1.3 * 0.29e9

    def test_variant_ordering(self):
        f = {cu: gp.count_flops(gp.build_graph(cu, "multi")) for cu in gp.CU_KINDS}
        assert f["eesp"] < f["mobilenet"] <= f["bottleneck"]

    def test_monotone_in_resolution(self):
        for cu in gp.CU_KINDS:
            f = [gp.count_flops(gp.build_graph(cu, "multi", input_hw=(s, s)))
                 for s in (64, 128, 224)]
            assert f[0] < f[1] < f[2]

    def test_pool_counts_hw_adds_per_channel(self):
        pool = gp.GlobalPool(gp.TAIL_CHANNELS)
        assert pool.macs((7, 7)) == 7 * 7 * 512

    def test_layer_table_sums_to_totals(self):
        graph = gp.build_graph("mobilenet", "multi")
        rows = gp.layer_table(graph)
        assert sum(r["params"] for r in rows) == gp.count_params(graph)
        assert sum(r["flops"] for r in rows) == gp.count_flops(graph)

    def test_hand_counted_tiny_graph(self):
        # stem at 32x32: conv 864 MACs/pixel at 16x16 + affine 32/pixel
        graph = tiny_graph("bottleneck")
        stem = graph.layers[0]
        assert stem.macs((32, 32)) == 864 * 16 * 16 + 32 * 16 * 16


class TestInitParams:
    def test_deterministic_per_seed(self):
        graph = tiny_graph("eesp")
        a = gp.init_params(graph, seed=5)
        b = gp.init_params(graph, seed=5)
        assert sorted(a) == sorted(b)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_seeds_differ(self):
        graph = tiny_graph("eesp")
        a = gp.init_params(graph, seed=5)
        b = gp.init_params(graph, seed=6)
        assert any(not np.array_equal(a[k], b[k]) for k in a if k.endswith(".w"))

    @pytest.mark.parametrize("seed", [1.5, -1, True, "0", None, np.float64(2.0)])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError,
                           match=rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
            gp.init_params(tiny_graph("eesp"), seed)

    def test_he_variance(self):
        spec = nm.ConvSpec(64, 128, kernel=3, padding=1)
        rng = np.random.default_rng(0)
        fan_in = 64 * 9
        draws = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=spec.weight_shape)
        var = draws.var()
        assert abs(var - 2.0 / fan_in) <= 0.2 * (2.0 / fan_in)

    def test_he_variance_inside_graph(self):
        graph = gp.build_graph("bottleneck", "multi")
        params = gp.init_params(graph, seed=3)
        w = params["cu6.1.spatial.w"]
        fan_in = np.prod(w.shape[1:])
        assert abs(w.var() - 2.0 / fan_in) <= 0.2 * (2.0 / fan_in)

    def test_bias_shift_scale_defaults(self):
        graph = tiny_graph("mobilenet")
        params = gp.init_params(graph, seed=1)
        assert all(np.all(v == 0) for k, v in params.items() if k.endswith((".b", ".shift")))
        assert all(np.all(v == 1) for k, v in params.items() if k.endswith(".scale"))


class TestForward:
    @pytest.mark.parametrize("cu", gp.CU_KINDS)
    def test_zero_params_zero_heads(self, cu):
        graph = tiny_graph(cu)
        params = {k: np.zeros(s) for k, s in gp.param_shapes(graph).items()}
        out = gp.forward(graph, params, np.random.default_rng(0).normal(size=(2, 3, 32, 32)))
        for task in gp.TASKS:
            np.testing.assert_array_equal(out[task], np.zeros_like(out[task]))

    def test_identical_rows_identical_outputs(self):
        graph = tiny_graph("eesp")
        params = gp.init_params(graph, seed=2)
        img = np.random.default_rng(1).normal(size=(1, 3, 32, 32))
        batch = np.concatenate([img, img], axis=0)
        out = gp.forward(graph, params, batch)
        for task in gp.TASKS:
            np.testing.assert_array_equal(
                np.atleast_2d(out[task])[..., 0], np.atleast_2d(out[task])[..., 0]
            )
            v = out[task]
            np.testing.assert_allclose(v[0], v[1], rtol=0, atol=0)

    @pytest.mark.parametrize("cu", gp.CU_KINDS)
    def test_batch_of_8_equals_each_frame_alone(self, cu):
        # The benchmark's trunk reference tolerance: one batch folds every
        # frame into each GEMM, which may round a frame's sums differently.
        graph = tiny_graph(cu)
        params = gp.init_params(graph, seed=0)
        frames = np.random.default_rng(8).uniform(0.0, 1.0, (8, 3, 32, 32))
        batch = gp.forward(graph, params, frames)
        for i in range(len(frames)):
            alone = gp.forward(graph, params, frames[i : i + 1])
            for task in gp.TASKS:
                np.testing.assert_allclose(np.reshape(batch[task], (8, -1))[i : i + 1],
                                           np.reshape(alone[task], (1, -1)), rtol=1e-7, atol=1e-9)

    def test_wrong_spatial_size_rejected(self):
        graph = tiny_graph("bottleneck")
        params = gp.init_params(graph, seed=0)
        with pytest.raises(nm.ShapeError):
            gp.forward(graph, params, np.zeros((1, 3, 16, 16)))

    def test_nonfinite_reports_layer(self):
        graph = tiny_graph("mobilenet")
        params = gp.init_params(graph, seed=0)
        params["cu3.dw.w"] = np.full_like(params["cu3.dw.w"], np.inf)
        with pytest.raises(nm.NumericError, match="cu3"):
            gp.forward(graph, params, np.ones((1, 3, 32, 32)))

    @pytest.mark.parametrize("cu", gp.CU_KINDS)
    @pytest.mark.parametrize("where", ["cu3", "tail"])
    def test_finite_huge_scales_overflow_to_a_named_layer(self, cu, where):
        # Two blocks scaled by 1e200 in turn overflow the second's output.
        graph = tiny_graph(cu)
        params = gp.init_params(graph, seed=0)
        first, second = {"bottleneck": ("reduce", "expand"), "mobilenet": ("dw", "pw"),
                         "eesp": ("reduce", "expand")}[cu]
        if where == "cu3":
            keys = [f"cu3.{first}.scale", f"cu3.{second}.scale"]
        else:
            keys = [f"cu8.3.{second}.scale", "tail.scale"]
        for key in keys:
            params[key] = np.full_like(params[key], 1e200)
        batch = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        with pytest.raises(nm.NumericError, match=rf"after layer \d+ \({where}\)"):
            gp.forward(graph, params, batch)

    def test_eesp_heads_match_offset_oracle(self, monkeypatch):
        graph = tiny_graph("eesp")
        params = gp.init_params(graph, seed=2)
        batch = np.random.default_rng(5).normal(size=(2, 3, 32, 32))
        fast = gp.forward(graph, params, batch)
        monkeypatch.setattr(nm, "conv2d", offset_conv2d)
        slow = gp.forward(graph, params, batch)
        for task in gp.TASKS:
            np.testing.assert_allclose(fast[task], slow[task], rtol=1e-12, atol=1e-12)

    def test_batch_permutation_equivariance(self):
        graph = tiny_graph("bottleneck")
        params = gp.init_params(graph, seed=4)
        batch = np.random.default_rng(3).normal(size=(4, 3, 32, 32))
        perm = [2, 0, 3, 1]
        out = gp.forward(graph, params, batch)
        out_p = gp.forward(graph, params, batch[perm])
        for task in gp.TASKS:
            np.testing.assert_allclose(np.asarray(out[task])[perm], out_p[task], atol=1e-10)

    def test_single_task_graph_one_output(self):
        graph = tiny_graph("eesp", mode="valence")
        params = gp.init_params(graph, seed=0)
        out = gp.forward(graph, params, np.zeros((3, 3, 32, 32)))
        assert set(out) == {"valence"}
        assert out["valence"].shape == (3,)

    def test_compositional_oracle_two_stage(self):
        """stem + one mobilenet unit recomputed with raw numerics calls."""
        widths = gp.CuWidths(mobilenet_depth_mult=2)
        graph = gp.build_graph("mobilenet", "arousal", input_hw=(16, 16), widths=widths)
        params = gp.init_params(graph, seed=9)
        x = np.random.default_rng(11).normal(size=(2, 3, 16, 16))

        y = x
        for layer in graph.layers[:2]:
            y = layer.forward(params, y)

        stem_spec = nm.ConvSpec(3, 32, kernel=3, stride=2, padding=1)
        h = nm.conv2d(x, stem_spec, params["stem.w"], params["stem.b"])
        h = nm.relu(channel_affine(h, params["stem.scale"], params["stem.shift"]))
        dw_spec = nm.ConvSpec(32, 64, kernel=3, stride=2, padding=1, groups=32)
        h = nm.conv2d(h, dw_spec, params["cu1.dw.w"], params["cu1.dw.b"])
        h = nm.relu(channel_affine(h, params["cu1.dw.scale"], params["cu1.dw.shift"]))
        pw_spec = nm.ConvSpec(64, 32, kernel=1)
        h = nm.conv2d(h, pw_spec, params["cu1.pw.w"], params["cu1.pw.b"])
        h = nm.relu(channel_affine(h, params["cu1.pw.scale"], params["cu1.pw.shift"]))
        np.testing.assert_allclose(y, h, atol=1e-12)

    def test_projection_bottleneck_matches_raw_oracle(self):
        rng = np.random.default_rng(12)
        unit = gp.BottleneckUnit("u", 3, 4, 2, gp.CuWidths())
        params = unit_params(rng, unit)
        x = rng.normal(size=(2, 3, 9, 8))
        h = oracle_block(params, "u.reduce", nm.ConvSpec(3, 5, kernel=1), x)
        h = oracle_block(params, "u.spatial", nm.ConvSpec(5, 5, kernel=3, stride=2, padding=1), h)
        h = oracle_block(params, "u.expand", nm.ConvSpec(5, 4, kernel=1), h, relu=False)
        shortcut = oracle_block(params, "u.project", nm.ConvSpec(3, 4, kernel=1, stride=2), x, relu=False)
        np.testing.assert_allclose(unit.forward(params, x), nm.relu(h + shortcut), rtol=1e-12, atol=1e-12)

    def test_residual_eesp_matches_raw_oracle(self):
        """Branch sums b1, b1+b2, b1+b2+b3 are concatenated, expanded, added to x."""
        rng = np.random.default_rng(13)
        unit = gp.EespUnit("u", 6, 6, 1, gp.CuWidths(eesp_branches=3, eesp_width_mult=3))
        params = unit_params(rng, unit)
        x = rng.normal(size=(2, 6, 9, 8))
        reduced = oracle_block(params, "u.reduce", nm.ConvSpec(6, 6, kernel=1, groups=3), x)
        branches = [
            oracle_block(params, f"u.branch{d}",
                         nm.ConvSpec(6, 6, kernel=3, padding=d, dilation=d, groups=6), reduced)
            for d in (1, 2, 3)
        ]
        merged = np.concatenate([branches[0], branches[0] + branches[1],
                                 branches[0] + branches[1] + branches[2]], axis=1)
        h = oracle_block(params, "u.expand", nm.ConvSpec(18, 6, kernel=1, groups=3), merged, relu=False)
        np.testing.assert_allclose(unit.forward(params, x), nm.relu(h + x), rtol=1e-12, atol=1e-12)


    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("spec", BLOCK_SPECS)
    def test_folded_affine_matches_unfolded(self, spec, relu):
        """The fold into W and b equals conv2d, then the affine, then ReLU."""
        rng = np.random.default_rng(21)
        block = gp.ConvBlock("blk", spec, relu=relu)
        params = block_params(rng, spec)
        x = rng.normal(size=(2, spec.in_channels, 9, 7))
        want = channel_affine(nm.conv2d(x, spec, params["blk.w"], params["blk.b"]),
                              params["blk.scale"], params["blk.shift"])
        if relu:
            want = nm.relu(want)
        np.testing.assert_allclose(block.forward(params, x), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spec", [nm.ConvSpec(6, 9, kernel=1, groups=3), nm.ConvSpec(4, 6, kernel=1, groups=2),
                                      nm.ConvSpec(8, 4, kernel=1, groups=4)])
    def test_one_input_per_group_equals_the_grouped_block(self, spec):
        """EESP's expand reads one input per group, the running sums of a
        (K, n, oh, ow, width) buffer: it gives the bytes of one grouped
        convolution over their concatenation, and a non-finite last sum
        raises conv2d's error for its input."""
        rng = np.random.default_rng(22)
        k, width = spec.groups, spec.in_channels // spec.groups
        sums = rng.uniform(0.0, 1.0, size=(k, 2, 7, 6, width))
        w, b = rng.normal(size=spec.weight_shape), rng.normal(size=spec.out_channels)
        joined = np.concatenate(list(sums.transpose(0, 1, 4, 2, 3)), axis=1)
        assert exact(gp._expand(sums, w, b)) == exact(nm.conv2d(joined, spec, w, b))
        sums[-1, 1, 3, 2, 0] = np.nan
        joined = np.concatenate(list(sums.transpose(0, 1, 4, 2, 3)), axis=1)
        for run in (lambda: gp._expand(sums, w, b), lambda: nm.conv2d(joined, spec, w, b)):
            with pytest.raises(nm.NumericError, match="^non-finite values in conv2d input$"):
                run()

    def test_nonfinite_folded_parameters_raise_before_arithmetic(self):
        spec = nm.ConvSpec(2, 2, kernel=1)
        block = gp.ConvBlock("blk", spec)
        params = {"blk.w": np.ones((2, 2, 1, 1)), "blk.b": np.zeros(2),
                  "blk.scale": np.array([0.0, 1.0]), "blk.shift": np.zeros(2)}
        params["blk.w"][0, 0, 0, 0] = np.inf
        with pytest.raises(nm.NumericError, match="folded weights"):
            block.forward(params, np.ones((1, 2, 3, 3)))
        params["blk.w"][0, 0, 0, 0] = 1.0
        params["blk.shift"][1] = np.nan
        with pytest.raises(nm.NumericError, match="folded bias"):
            block.forward(params, np.ones((1, 2, 3, 3)))


class TestSharedBranchCopy:
    """EESP branches read one padded copy of the reduce output; the running
    sums fill one buffer, and group k of the expand reads sum k in place."""

    @staticmethod
    def check_against_slow_walk(k, cin, cout, stride, width, n, h, w, seed):
        unit = gp.EespUnit("u", cin, cout, stride, gp.CuWidths(eesp_branches=k, eesp_width_mult=k * width))
        rng = np.random.default_rng(seed)
        params = unit_params(rng, unit)
        x = rng.normal(size=(n, cin, h, w))
        y = unit.forward(params, x)
        assert exact(y) == exact(slow_eesp_forward(unit, params, x, residual=stride == 1 and cin == cout))
        assert y.shape == (n, cout) + unit.out_hw((h, w))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("stride, residual", [(1, True), (1, False), (2, False)])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_unit_equals_slow_walk(self, k, stride, residual, n):
        cin = 2 * k if residual else k
        self.check_against_slow_walk(k, cin, 2 * k, stride, 2, n, 7, 6, seed=k * n + stride)

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 4), cin=st.integers(1, 3), cout=st.integers(1, 3), residual=st.booleans(),
           stride=st.sampled_from([1, 2]), width=st.integers(1, 2), n=st.integers(1, 3),
           h=st.integers(4, 11), w=st.integers(4, 11), seed=st.integers(0, 2**32 - 1))
    @example(k=4, cin=2, cout=2, residual=True, stride=1, width=1, n=1, h=4, w=4, seed=0)
    @example(k=1, cin=1, cout=1, residual=False, stride=2, width=1, n=2, h=5, w=7, seed=1)
    def test_unit_equals_slow_walk_at_random_widths(self, k, cin, cout, residual, stride, width,
                                                    n, h, w, seed):
        # k=1 with cout and width of 1 gives one-channel branches.
        cin, cout = k * cin, k * cout
        if residual:
            cin, stride = cout, 1
        self.check_against_slow_walk(k, cin, cout, stride, width, n, h, w, seed)

    def test_the_expand_reads_the_running_sums_in_place(self, monkeypatch):
        """One grouped GEMM per unit, whose columns are a view of the sums
        buffer: group k reads s_k = b_1 + ... + b_k, and no copy makes them."""
        unit = gp.EespUnit("u", 8, 8, 1, gp.CuWidths(eesp_branches=4, eesp_width_mult=4))
        reads, real_expand, real_matmul = [], gp._expand, nm._grouped_matmul

        def expand(sums, w, b):
            reads.append((sums, []))
            return real_expand(sums, w, b)

        def grouped_matmul(wg, columns):
            if reads:
                reads[-1][1].append(columns)
            return real_matmul(wg, columns)

        monkeypatch.setattr(gp, "_expand", expand)
        monkeypatch.setattr(nm, "_grouped_matmul", grouped_matmul)
        rng = np.random.default_rng(41)
        params, x = unit_params(rng, unit), rng.normal(size=(2, 8, 5, 6))
        unit.forward(params, x)
        ((sums, (columns,)),) = reads
        assert np.shares_memory(columns, sums) and not columns.flags.owndata
        _, slow = eesp_slots(unit.layers[1][0], params, unit_blocks(unit)[0].forward(params, x))
        assert exact(columns) == exact(np.stack([s.transpose(1, 0, 2, 3).reshape(8, -1) for s in slow]))

    def test_one_copy_per_eesp_unit(self, monkeypatch):
        graph = tiny_graph("eesp")
        params = gp.init_params(graph, seed=0)
        margins = count_copies(monkeypatch)
        gp.forward(graph, params, np.random.default_rng(42).normal(size=(2, 3, 32, 32)))
        units = [layer for layer in graph.layers if isinstance(layer, gp.EespUnit)]
        assert len(units) == 18
        # Padded to the widest live margin of the four branches (dilations
        # 1-4).  cu1-cu3 read 16, 8 and 8 px, where the dilation-4 branch
        # reads 4 px of padding; cu4's three units read 4 px, where that
        # branch reads only padding off its centre row and column (3).
        # cu5 strides over 4 px (2) and cu6's seven units read 2 px (1);
        # cu7 strides over 2 px and cu8's three units read 1 px, where the
        # branches read nothing past the input (0).
        assert margins == [4, 4, 4, 3, 3, 3, 2] + [1] * 7 + [0] * 4

    def test_copy_is_freed_after_the_last_branch(self, monkeypatch):
        graph = tiny_graph("eesp")
        params = gp.init_params(graph, seed=0)
        copies, alive_at_expand = [], []
        real_copy, real_expand = nm._pad_channels_last, gp._expand

        def copy(x, margin):
            xp = real_copy(x, margin)
            copies.append(weakref.ref(xp))
            return xp

        def expand(sums, w, b):
            alive_at_expand.append(copies[-1]() is not None)
            return real_expand(sums, w, b)

        monkeypatch.setattr(nm, "_pad_channels_last", copy)
        monkeypatch.setattr(gp, "_expand", expand)
        gp.forward(graph, params, np.random.default_rng(45).normal(size=(2, 3, 32, 32)))
        assert alive_at_expand == [False] * 18

    @pytest.mark.parametrize("mult, copies", [(1, [1] * 14 + [0] * 4), (gp.CuWidths().mobilenet_depth_mult, [])])
    def test_one_copy_per_block_without_sharing(self, monkeypatch, mult, copies):
        """Per-channel blocks that share no input copy it once per block,
        padded to its live margin: 1, and 0 from cu7 on, whose 2x2 input
        (strided) and 1x1 inputs leave no tap reading padding alone.

        MobileNet's depthwise blocks take the taps path only at channel
        multiplier 1; the default multiplier and the tail's 2 go through
        im2col.  A lone block stands in for a per-channel tail.
        """
        graph = gp.build_graph("mobilenet", input_hw=(32, 32), widths=gp.CuWidths(mobilenet_depth_mult=mult))
        params = gp.init_params(graph, seed=0)
        margins = count_copies(monkeypatch)
        gp.forward(graph, params, np.random.default_rng(43).normal(size=(2, 3, 32, 32)))
        assert margins == copies
        margins.clear()
        spec = nm.ConvSpec(4, 4, kernel=3, padding=1, groups=4)
        tail = gp.ConvBlock("blk", spec)
        tail.forward(block_params(np.random.default_rng(44), spec), np.ones((1, 4, 5, 5)))
        assert margins == [1]

    @pytest.mark.parametrize("scales", ["unit", "affine"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_dropped_taps_change_no_byte_of_a_step(self, monkeypatch, n, scales):
        """A 32 px EESP step sums only the live taps of the branches that
        read 4, 2 and 1 px inputs (cu4-cu8), and batch 1 gives their outputs
        length-1 axes; its heads and every gradient are the bytes of a step
        that sums all k*k taps of copies padded by the full ``spec.padding``."""
        graph = tiny_graph("eesp")
        params = gp.init_params(graph, 0) if scales == "unit" else affine_params(graph, 87)
        batch = np.random.default_rng(88).uniform(0.0, 1.0, size=(n, 3, 32, 32))

        def step():
            cache = []
            heads = gp.forward(graph, params, batch, cache)
            ones = {task: np.ones(np.shape(y)) for task, y in heads.items()}
            return exact(heads), exact(gp.backward(graph, params, cache, ones))

        dropped, real = set(), nm.live_taps

        def live_taps(spec, hw):
            taps = real(spec, hw)
            if taps != ((0, spec.kernel), (0, spec.kernel)):
                dropped.add(hw)
            return taps

        monkeypatch.setattr(nm, "live_taps", live_taps)
        live = step()
        assert dropped == {(4, 4), (2, 2), (1, 1)}
        monkeypatch.setattr(nm, "live_taps", lambda spec, hw: ((0, spec.kernel), (0, spec.kernel)))
        monkeypatch.setattr(nm, "live_margin", lambda spec, hw: spec.padding)
        assert live == step()

    def test_nonfinite_reduce_output_names_the_input(self):
        graph = tiny_graph("eesp")
        params = gp.init_params(graph, seed=0)
        params["cu3.reduce.scale"] = np.full_like(params["cu3.reduce.scale"], 1e300)
        batch = 1e10 * np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        with pytest.raises(nm.NumericError, match=r"^layer 3 \(cu3\): non-finite values in conv2d input$"):
            gp.forward(graph, params, batch)
        unit = gp.EespUnit("u", 6, 6, 1, gp.CuWidths(eesp_branches=3, eesp_width_mult=3))
        rng = np.random.default_rng(0)
        params = unit_params(rng, unit)
        params["u.reduce.scale"] = np.full_like(params["u.reduce.scale"], 1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(nm.NumericError, match="^non-finite values in conv2d input$"):
                unit.forward(params, 1e10 * rng.normal(size=(2, 6, 6, 5)))


# SHA-256 of the head outputs and of the parameter gradients (each sorted by
# key, a key's bytes then its array's) of one EESP step: a taped forward of
# frames drawn uniform on [0, 1) by default_rng(0), then graph.backward with
# head adjoints of ones.  "init" is init_params(g, 0) and "affine" the same
# with the seeded non-unit scales and nonzero shifts of the CI's thread
# check, under which a block that folds and one that scales its output give
# different bytes.  Both sizes have branches and expands of both forms.
# Recorded at one BLAS thread; the CI checks them at two as well.
EESP_STEP_SHA256 = {
    ("init", 16, 2): ("43250e7450324302f443c1989b6190ba49eed8961199f266146102425eaecbb8",
                      "3915c87c0f3c58f0803c9623d64857963aad1fe1316285c75afd73ce3eeaf8f4"),
    ("affine", 16, 2): ("673bf2d159431b0f421096a2a5a79dc18b55036dfb9f3c5a77c53fcd2ab6e2ad",
                        "079849ec582d2e3e7ced8f944718db2559c7127e1bb77297ff98dd4578815f0c"),
    ("init", 32, 8): ("d56949b35855a87dff933a9f7881ac13594cbddfdccb40316b0e0580ebc01c06",
                      "e0e55bf95d6fe09033a9e82bad9dc3cf797a30045246fa4c12409e0499f90972"),
    ("affine", 32, 8): ("40d8e754a20e787b5f4f5612e230ee752d113a7104726d9a341a97e021d79267",
                        "1ce337c8edfa2eb7d60c5a05af0c1cdaaa6e99d5fee3f6443bb0871a0edb3acd"),
}


def ci_affine_params(graph):
    """``init_params(graph, 0)`` with the seeded non-unit scales and nonzero
    shifts that the CI's one-and-two-thread check builds."""
    params, rng = gp.init_params(graph, 0), np.random.default_rng(1)
    for key in sorted(params):
        if key.endswith(".scale"):
            params[key] = rng.uniform(0.5, 1.5, params[key].shape)
        elif key.endswith(".shift"):
            params[key] = rng.normal(0.0, 0.1, params[key].shape)
    return params


def sha256_of(arrays):
    digest = hashlib.sha256()
    for key in sorted(arrays):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(arrays[key]).tobytes())
    return digest.hexdigest()


class TestEespStep:
    """EESP's branches, running sums and expand run as one step over one
    buffer, to the bytes, errors and conv2d calls of a walk over separate
    steps."""

    @pytest.mark.parametrize("label, hw, n", sorted(EESP_STEP_SHA256))
    def test_eesp_step_bytes_are_pinned(self, label, hw, n):
        graph = gp.build_graph("eesp", input_hw=(hw, hw))
        params = gp.init_params(graph, 0) if label == "init" else ci_affine_params(graph)
        frames = np.random.default_rng(0).uniform(0.0, 1.0, (n, 3, hw, hw))
        cache = []
        heads = gp.forward(graph, params, frames, cache)
        grads = gp.backward(graph, params, cache, {task: np.ones(np.shape(y)) for task, y in heads.items()})
        assert (sha256_of(heads), sha256_of(grads)) == EESP_STEP_SHA256[label, hw, n]
        assert exact(gp.forward(graph, params, frames)) == exact(heads)

    @pytest.mark.parametrize("taped", [False, True])
    def test_each_branch_convolves_through_conv2d(self, taped, monkeypatch):
        """The traced benchmark times the branches, dilated ones included,
        by their numerics.conv2d spans: each of the 18 units calls conv2d
        once for its reduce and once per branch, and not for its expand."""
        graph = tiny_graph("eesp")
        params = gp.init_params(graph, 0)
        specs, real = [], nm.conv2d
        monkeypatch.setattr(nm, "conv2d", lambda *a, **kw: specs.append(a[1]) or real(*a, **kw))
        gp.forward(graph, params, np.random.default_rng(49).uniform(size=(2, 3, 32, 32)), [] if taped else None)
        branches = collections.Counter(spec.dilation for spec in specs if spec.per_channel)
        assert branches == {d: 18 for d in (1, 2, 3, 4)}
        assert [spec.groups for spec in specs if spec.kernel == 1] == [4] * 18
        assert len(specs) == 1 + 18 * 5 + 1

    @pytest.mark.parametrize("unit, folds", [("cu1", True), ("cu6.1", False)])
    @pytest.mark.parametrize("spoil, what", [
        ("branch_w", "folded weights"), ("reduce_output", "conv2d input"), ("sum_overflow", "conv2d input"),
        ("expand_shift", "folded bias"), ("sum_overflow,expand_w", "folded weights")])
    def test_eesp_nonfinite_step_raises_and_tapes_nothing(self, unit, folds, spoil, what, monkeypatch):
        """At 32 px batch 2, cu1's branches and expand fold and cu6.1's do
        not.  A NaN on a live tap of branch 3, a reduce output that
        overflows from finite weights of 1e308 on its non-negative input,
        branch shifts of 1e308 whose outputs are finite but whose running
        sum overflows, and a NaN expand shift each raise the error named,
        without a warning, and the unit tapes nothing: the branches'
        checks, the copy's, the one scan of the last sum and the expand's.
        The expand's fold errors come before that scan's."""
        graph = tiny_graph("eesp")
        names = [layer.name for layer in graph.layers]
        index = names.index(unit)
        params = gp.init_params(graph, 0)
        batch = np.random.default_rng(50).uniform(0.0, 1.0, size=(2, 3, 32, 32))
        cache = []
        gp.forward(graph, params, batch, cache)
        record = cache[index].records[1]
        assert (record.u is None, record.expand_u is None) == (folds, folds)
        if spoil == "branch_w":
            params[f"{unit}.branch3.w"] = params[f"{unit}.branch3.w"].copy()
            params[f"{unit}.branch3.w"][5, 0, 1, 1] = np.nan
        elif spoil == "reduce_output":
            params[f"{unit}.reduce.w"] = np.full_like(params[f"{unit}.reduce.w"], 1e308)
        elif spoil == "expand_shift":
            params[f"{unit}.expand.shift"] = params[f"{unit}.expand.shift"].copy()
            params[f"{unit}.expand.shift"][3] = np.nan
        else:
            for d in (1, 2):
                params[f"{unit}.branch{d}.shift"] = np.full_like(params[f"{unit}.branch{d}.shift"], 1e308)
            if spoil.endswith("expand_w"):
                params[f"{unit}.expand.w"] = params[f"{unit}.expand.w"].copy()
                params[f"{unit}.expand.w"][7, 2] = np.inf
            finite, real = [], gp._expand

            def expand(sums, w, b):
                finite.append([bool(np.isfinite(s).all()) for s in sums])
                return real(sums, w, b)

            monkeypatch.setattr(gp, "_expand", expand)
        for cache in (None, []):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(nm.NumericError,
                                   match=rf"^layer {index} \({re.escape(unit)}\): non-finite values in {what}$"):
                    gp.forward(graph, params, batch, cache)
            assert cache is None or len(cache) == index
            if spoil.startswith("sum_overflow"):
                # A folding expand raises its fold's error before its scan.
                reached = not (folds and spoil.endswith("expand_w"))
                assert (finite[-1:] == [[True, False, False, False]]) == reached
                finite.clear()


class TestBackward:
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("spec", BLOCK_SPECS)
    def test_conv_block_matches_finite_differences(self, spec, relu):
        rng = np.random.default_rng(31)
        block = gp.ConvBlock("blk", spec, relu=relu)
        params = block_params(rng, spec)
        x = rng.normal(size=(2, spec.in_channels, 6, 5))
        assert_block_matches_finite_differences(block, params, x, rng)

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("spec", BLOCK_SPECS)
    def test_conv_block_matches_unfolded_oracle(self, spec, relu):
        """The chain rule through the fold equals ReLU, affine and conv adjoints in turn."""
        rng = np.random.default_rng(32)
        block = gp.ConvBlock("blk", spec, relu=relu)
        params = block_params(rng, spec)
        x = rng.normal(size=(3, spec.in_channels, 9, 7))
        tape = []
        y = block.forward(params, x, tape=tape)
        up = rng.normal(size=y.shape)
        gx, grads = block.backward(params, tape[0], up)

        conv = nm.conv2d(x, spec, params["blk.w"], params["blk.b"])
        affine = channel_affine(conv, params["blk.scale"], params["blk.shift"])
        g = nm.relu_backward(up, affine) if relu else up
        gconv, gscale, gshift = channel_affine_backward(g, conv, params["blk.scale"])
        want_x, want_w, want_b = nm.conv2d_backward(gconv, x, spec, params["blk.w"])
        for got, want in ((gx, want_x), (grads["blk.w"], want_w), (grads["blk.b"], want_b),
                          (grads["blk.scale"], gscale), (grads["blk.shift"], gshift)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_pool_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        pool = gp.GlobalPool(4)
        x = rng.normal(size=(2, 4, 3, 5))
        up = rng.normal(size=(2, 4))
        tape = []
        pool.forward({}, x, tape=tape)
        gx, grads = pool.backward({}, tape[0], up)
        num = central_difference(lambda v: float((pool.forward({}, v) * up).sum()), x.copy())
        assert grads == {}
        assert max_rel_error(gx, num) < 1e-8

    @pytest.mark.parametrize("task", gp.TASKS)
    def test_head_matches_finite_differences(self, task):
        rng = np.random.default_rng(34)
        head = gp.Head(task, 5)
        params = {k: rng.normal(size=s) for k, s in head.param_shapes().items()}
        pooled = rng.normal(size=(3, 5))
        up = rng.normal(size=(3, head.width))
        gx, grads = head.backward(params, pooled, up)

        def loss(trial, v):
            return float((head.forward(trial, v) * up).sum())

        assert max_rel_error(gx, central_difference(lambda v: loss(params, v), pooled.copy())) < 1e-8
        for key in head.param_shapes():
            num = central_difference(lambda v: loss({**params, key: v}, pooled),
                                        params[key].copy())
            assert max_rel_error(grads[key], num) < 1e-8, key

    @pytest.mark.parametrize("case", UNIT_CASES, ids=unit_case_id)
    def test_unit_matches_finite_differences(self, case):
        cls, cin, cout, stride, widths = case
        rng = np.random.default_rng(36)
        unit = cls("u", cin, cout, stride, widths)
        params = unit_params(rng, unit)
        x = rng.normal(size=(2, cin, 7, 6))
        tape = []
        y = unit.forward(params, x, tape=tape)
        assert y.shape == (2, cout) + unit.out_hw((7, 6))
        up = rng.normal(size=y.shape)
        gx, grads = unit.backward(params, tape[0], up)
        assert sorted(grads) == sorted(params)

        def loss(trial, v):
            return float((unit.forward(trial, v) * up).sum())

        assert max_rel_error(gx, central_difference(lambda v: loss(params, v), x.copy(), 1e-6)) < 1e-6
        for key in params:
            num = central_difference(lambda v: loss({**params, key: v}, x), params[key].copy(), 1e-6)
            assert max_rel_error(grads[key], num) < 1e-6, key

    @pytest.mark.parametrize("cu, mode, size", [(cu, "multi", 16) for cu in gp.CU_KINDS]
                             + [("eesp", "valence", 32)])
    def test_graph_backward_on_every_trunk(self, cu, mode, size):
        graph = gp.build_graph(cu, mode, input_hw=(size, size))
        rng = np.random.default_rng(37)
        # Nonzero biases: with the zero init, padding-only windows put
        # pre-activations exactly on the ReLU kink, where a difference
        # quotient straddles two slopes.
        params = {k: v + rng.normal(scale=0.1, size=v.shape) if k.endswith(".b") else v
                  for k, v in gp.init_params(graph, seed=3).items()}
        batch = rng.normal(size=(2, 3, size, size))
        cache = []
        out = gp.forward(graph, params, batch, cache)
        ups = {task: rng.normal(size=np.shape(y)) for task, y in out.items()}
        grads = gp.backward(graph, params, cache, ups)
        assert {k: g.shape for k, g in grads.items()} == {k: p.shape for k, p in params.items()}

        def loss(trial):
            return sum(float((y * ups[task]).sum()) for task, y in gp.forward(graph, trial, batch).items())

        # One scalar of one parameter of every layer and head.
        owners = list(graph.layers[:-1]) + list(graph.heads)
        for owner in owners:
            keys = sorted(owner.param_shapes())
            key = keys[rng.integers(len(keys))]
            index = tuple(int(rng.integers(n)) for n in params[key].shape)
            trial = {**params, key: params[key].copy()}
            trial[key][index] += 1e-4
            hi = loss(trial)
            trial[key][index] -= 2e-4
            num = (hi - loss(trial)) / 2e-4
            assert abs(grads[key][index] - num) <= 1e-6 * max(1.0, abs(num)), key

    def test_only_the_stem_skips_its_input_adjoint(self, monkeypatch):
        calls = []
        real = nm.conv2d_backward
        monkeypatch.setattr(nm, "conv2d_backward", lambda *a, input_grad=True, **kw: (
            calls.append(input_grad) or real(*a, input_grad=input_grad, **kw)))
        graph = tiny_graph("bottleneck")
        params = gp.init_params(graph, seed=0)
        cache = []
        out = gp.forward(graph, params, np.random.default_rng(39).normal(size=(1, 3, 32, 32)), cache)
        gp.backward(graph, params, cache, {task: np.ones(np.shape(y)) for task, y in out.items()})
        assert calls[-1] is False and all(calls[:-1]) and len(calls) > 1

    def test_forward_cache_holds_each_layer_record_then_pooled(self):
        graph = tiny_graph("bottleneck")
        params = gp.init_params(graph, seed=0)
        batch = np.random.default_rng(35).normal(size=(2, 3, 32, 32))
        cache = []
        out = gp.forward(graph, params, batch, cache)
        assert len(cache) == len(graph.layers) + 1
        np.testing.assert_array_equal(cache[0].x, batch)
        assert cache[-1].shape == (2, gp.TAIL_CHANNELS)
        # Each record's input is the previous layer's output.
        outputs = [record.slots[layer.steps[-1][1]] if isinstance(layer, gp.Unit) else record.y
                   for layer, record in zip(graph.layers[:-2], cache)]
        inputs = [record.records[0].x if isinstance(layer, gp.Unit) else record.x
                  for layer, record in zip(graph.layers[1:-1], cache[1:])]
        assert all(y is x for y, x in zip(outputs, inputs))
        assert cache[-2] == cache[-3].y.shape
        for task, y in gp.forward(graph, params, batch).items():
            np.testing.assert_array_equal(out[task], y)


def affine_params(graph, seed):
    """``init_params`` with seeded non-unit scales and nonzero shifts and
    biases: at unit scales and zero shifts the fold and the affine on the
    output give the same bytes."""
    rng = np.random.default_rng(seed)
    params = gp.init_params(graph, seed)
    for key, value in params.items():
        if key.endswith(".scale"):
            params[key] = rng.uniform(0.5, 1.5, size=value.shape)
        elif key.endswith((".shift", ".b")) and not key.startswith("head."):
            params[key] = rng.normal(scale=0.1, size=value.shape)
    return params


# Blocks with an input whose per-channel output n*oh*ow is smaller than the
# per-channel weights (cin/groups)*k*k: dense strided (9 < 27), grouped
# (4 < 9), grouped 1x1 (3 < 4) and strided dilated depthwise (4 < 9).
UNFOLDED_CASES = [
    (BLOCK_SPECS[0], (1, 3, 5, 5)),
    (BLOCK_SPECS[1], (1, 4, 2, 2)),
    (BLOCK_SPECS[2], (1, 8, 1, 3)),
    (BLOCK_SPECS[3], (1, 5, 3, 3)),
]


def unfolded_case_id(case):
    spec, shape = case
    return f"k{spec.kernel}-g{spec.groups}-s{spec.stride}-d{spec.dilation}-{'x'.join(map(str, shape))}"


class TestAffineOnOutput:
    """A block whose per-channel output is smaller than its per-channel
    weights scales the output, not the weights, in the forward, the taped
    forward and the backward, and raises the fold's errors."""

    @staticmethod
    def refuse_conv(monkeypatch):
        """Make every convolution raise a ShapeError, as one whose input or
        shapes do not fit does."""
        def refuse(*args, **kwargs):
            raise nm.ShapeError("refused")

        monkeypatch.setattr(nm, "conv2d", refuse)

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("case", UNFOLDED_CASES, ids=unfolded_case_id)
    def test_equals_the_oracle_block_byte_for_byte(self, case, relu, monkeypatch):
        spec, shape = case
        rng = np.random.default_rng(71)
        block = gp.ConvBlock("blk", spec, relu=relu)
        params = block_params(rng, spec)
        x = rng.normal(size=shape)
        assert not block.folds(x.shape)
        want = oracle_block(params, "blk", spec, x, relu=relu)
        tape = []
        assert exact(block.forward(params, x, tape=tape)) == exact(want)
        monkeypatch.setattr(gp.ConvBlock, "_folded", None)
        assert exact(block.forward(params, x)) == exact(want)
        assert tape[0].u is not None and tape[0].w is params["blk.w"]

    def test_one_input_per_group_equals_the_grouped_oracle(self):
        """On a 1x1 input neither EESP's branches nor its grouped expand
        (K=2 per group, N=1) fold: the step's bytes are those of oracle
        blocks, the expand's group k reading running sum k."""
        step = gp.EespBranches("u", 2, 9, 3, 1)
        rng = np.random.default_rng(72)
        params = unit_params(rng, step)
        x = rng.normal(size=(1, 2, 1, 1))
        assert not any(block.folds(x.shape) for block in step.branches)
        assert not step.expand.folds((1, 6, 1, 1))
        branches = [oracle_block(params, block.name, block.spec, x) for block in step.branches]
        want = oracle_block(params, "u.expand", step.expand.spec,
                            np.concatenate(list(itertools.accumulate(branches)), axis=1), relu=False)
        assert exact(step.forward(params, x)) == exact(want)
        assert exact(step.forward(params, x, tape=[])) == exact(want)

    @pytest.mark.parametrize("spec, fold_shape, unfold_shape", [
        (nm.ConvSpec(3, 4, kernel=3, padding=1), (3, 3, 3, 3), (2, 3, 13, 1)),
        (nm.ConvSpec(4, 4, kernel=1), (2, 4, 1, 2), (1, 4, 1, 3)),
        (nm.ConvSpec(2, 2, kernel=3, padding=1, groups=2), (1, 2, 3, 3), (1, 2, 2, 4)),
    ])
    def test_a_block_at_the_boundary_folds(self, spec, fold_shape, unfold_shape, monkeypatch):
        """n*oh*ow equal to (cin/groups)*k*k folds; one less does not."""
        block = gp.ConvBlock("blk", spec)
        _, cin_g, k, _ = spec.weight_shape
        sizes = [shape[0] * np.prod(spec.out_hw(shape[2:])) for shape in (fold_shape, unfold_shape)]
        assert sizes == [cin_g * k * k, cin_g * k * k - 1]
        assert block.folds(fold_shape) and not block.folds(unfold_shape)
        rng = np.random.default_rng(73)
        params = block_params(rng, spec)
        folds, real = [], gp.ConvBlock._folded
        monkeypatch.setattr(gp.ConvBlock, "_folded", lambda b, p: folds.append(b.name) or real(b, p))
        for shape in (fold_shape, unfold_shape):
            x = rng.normal(size=shape)
            np.testing.assert_allclose(block.forward(params, x), oracle_block(params, "blk", spec, x),
                                       rtol=1e-12, atol=1e-12)
        assert folds == ["blk"]

    @pytest.mark.parametrize("hw", [16, 32])
    @pytest.mark.parametrize("cu", gp.CU_KINDS)
    def test_taped_heads_equal_untaped_and_the_fold(self, cu, hw, monkeypatch):
        """Taped and untaped heads are the same bytes, and lie within 1e-12
        of heads from a forward in which every block folds."""
        graph = gp.build_graph(cu, input_hw=(hw, hw))
        params = affine_params(graph, 74)
        batch = np.random.default_rng(75).uniform(0.0, 1.0, size=(2, 3, hw, hw))
        untaped = gp.forward(graph, params, batch)
        taped = gp.forward(graph, params, batch, [])
        assert exact(taped) == exact(untaped)
        monkeypatch.setattr(gp.ConvBlock, "folds", lambda block, shape: True)
        folded = gp.forward(graph, params, batch)
        assert exact(folded) != exact(untaped)
        for task in untaped:
            np.testing.assert_allclose(untaped[task], folded[task], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("case", UNFOLDED_CASES, ids=unfolded_case_id)
    def test_matches_finite_differences(self, case, relu):
        spec, shape = case
        rng = np.random.default_rng(76)
        block = gp.ConvBlock("blk", spec, relu=relu)
        params = block_params(rng, spec)
        x = rng.normal(size=shape)
        assert not block.folds(x.shape)
        assert_block_matches_finite_differences(block, params, x, rng)

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("case", UNFOLDED_CASES, ids=unfolded_case_id)
    def test_backward_equals_the_affine_oracle_byte_for_byte(self, case, relu):
        """gshift = sum(gz), gscale = sum(gz*u), and the convolution's
        adjoints of scale*gz: the ReLU, affine and conv adjoints in turn."""
        spec, shape = case
        rng = np.random.default_rng(77)
        block = gp.ConvBlock("blk", spec, relu=relu)
        params = block_params(rng, spec)
        x = rng.normal(size=shape)
        tape = []
        y = block.forward(params, x, tape=tape)
        up = rng.normal(size=y.shape)
        gx, grads = block.backward(params, tape[0], up)
        conv = nm.conv2d(x, spec, params["blk.w"], params["blk.b"])
        g = nm.relu_backward(up, y) if relu else up
        gconv, gscale, gshift = channel_affine_backward(g, conv, params["blk.scale"])
        want_x, want_w, want_b = nm.conv2d_backward(gconv, x, spec, params["blk.w"])
        assert exact((gx, grads["blk.w"], grads["blk.b"], grads["blk.scale"], grads["blk.shift"])) == \
            exact((want_x, want_w, want_b, gscale, gshift))

    @pytest.mark.parametrize("cu", gp.CU_KINDS)
    def test_taped_gradients_equal_the_recompute_oracle(self, cu):
        """At 16 px, batch 2, with non-unit scales, the recompute oracle,
        which follows the same rule, gives every gradient's bytes."""
        graph = gp.build_graph(cu, input_hw=(16, 16))
        params = affine_params(graph, 78)
        rng = np.random.default_rng(79)
        batch = rng.normal(size=(2, 3, 16, 16))
        cache = []
        out = gp.forward(graph, params, batch, cache)
        ups = {task: rng.normal(size=np.shape(y)) for task, y in out.items()}
        assert exact(gp.backward(graph, params, cache, ups)) == exact(recompute_backward(graph, params, batch, ups))

    @pytest.mark.parametrize("key, value, what", [
        (key, value, "folded bias" if key in ("blk.b", "blk.shift") else "folded weights")
        for key in ("blk.w", "blk.scale", "blk.b", "blk.shift") for value in (np.inf, -np.inf, np.nan)])
    def test_nonfinite_parameters_raise_the_fold_errors(self, key, value, what, monkeypatch):
        """The error comes without a numpy warning and with nothing taped,
        and it comes first where the convolution itself raises."""
        spec = nm.ConvSpec(3, 2, kernel=3, padding=1)
        block = gp.ConvBlock("blk", spec)
        params = block_params(np.random.default_rng(80), spec)
        params[key] = params[key].copy()
        params[key].flat[1] = value
        x = np.ones((1, 3, 2, 2))
        assert not block.folds(x.shape)
        for refuse in (False, True):
            if refuse:
                self.refuse_conv(monkeypatch)
            tape = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(nm.NumericError, match=f"^non-finite values in {what}$"):
                    block.forward(params, x)
                with pytest.raises(nm.NumericError, match=f"^non-finite values in {what}$"):
                    block.forward(params, x, tape=tape)
            assert tape == []

    def test_a_fold_that_overflows_from_finite_parameters_raises(self, monkeypatch):
        spec = nm.ConvSpec(3, 2, kernel=3, padding=1)
        block = gp.ConvBlock("blk", spec)
        params = {"blk.w": np.full(spec.weight_shape, 1e10), "blk.b": np.zeros(2),
                  "blk.scale": np.array([1.0, 1e300]), "blk.shift": np.zeros(2)}
        for refuse in (False, True):
            if refuse:
                self.refuse_conv(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(nm.NumericError, match="^non-finite values in folded weights$"):
                    block.forward(params, np.ones((1, 3, 2, 2)))

    def test_a_large_finite_fold_passes_by_the_exact_check(self):
        """W of 1e200, whose squares overflow, and scales of 1e-200: the
        output and the fold are finite, and the block runs."""
        spec = nm.ConvSpec(2, 2, kernel=1)
        block = gp.ConvBlock("blk", spec, relu=False)
        params = {"blk.w": np.full(spec.weight_shape, 1e200), "blk.b": np.zeros(2),
                  "blk.scale": np.array([1e-200, 2e-200]), "blk.shift": np.zeros(2)}
        x = np.ones((1, 2, 1, 1))
        assert not block.folds(x.shape)
        assert exact(block.forward(params, x)) == exact(oracle_block(params, "blk", spec, x, relu=False))


# Blocks over inputs whose convolution walks its weights in row runs (a
# strided 3x3, K=1440, N=8), takes one GEMM (K=27, N=4) or sums taps (a
# depthwise 3x3), none of which folds; a block that folds; and a grouped 1x1
# like EESP's expand, one GEMM per group (K=2, N=1), that does not fold.
# The "_padding" blocks run on 1x1 inputs, where every tap but the centre
# reads only padding: a walked 307 -> 307 3x3 (K=2763, N=8) like
# bottleneck's cu8.x.spatial at 32 px batch 8, a one-GEMM 3x3, and a dilated
# per-channel branch read through a copy shared with a wider branch
# (shared_copy).
ERROR_BLOCKS = {
    "walked": (nm.ConvSpec(160, 192, kernel=3, stride=2, padding=1), [(8, 160, 2, 2)]),
    "one_gemm": (nm.ConvSpec(3, 2, kernel=3, padding=1), [(1, 3, 2, 2)]),
    "taps": (nm.ConvSpec(3, 3, kernel=3, padding=1, groups=3), [(1, 3, 2, 2)]),
    "folded": (nm.ConvSpec(3, 2, kernel=3, padding=1), [(2, 3, 5, 5)]),
    "per_group": (nm.ConvSpec(6, 9, kernel=1, groups=3), [(1, 6, 1, 1)]),
    "walked_padding": (nm.ConvSpec(307, 307, kernel=3, padding=1), [(8, 307, 1, 1)]),
    "one_gemm_padding": (nm.ConvSpec(3, 2, kernel=3, padding=1), [(1, 3, 1, 1)]),
    "dilated_padding": (nm.ConvSpec(4, 4, kernel=3, padding=2, dilation=2, groups=4), [(2, 4, 1, 1)]),
}
PADDING_BLOCKS = [name for name in ERROR_BLOCKS if name.endswith("_padding")]

# (name, spoiled entries): an entry is (key, value), with key "x" the last
# input, or "overflow" (W of 1e10 and one scale of 1e300, all finite) or
# "channels" (the last input has one channel too many).
ERROR_CASES = [("finite", [])] + [
    (f"{key}={value}", [(key, value)]) for key in ("x", "w", "b", "scale", "shift") for value in ("nan", "inf")
] + [
    ("x=nan,w=inf", [("x", "nan"), ("w", "inf")]),
    ("x=inf,w=nan", [("x", "inf"), ("w", "nan")]),
    ("overflow", [("overflow", None)]),
    ("channels", [("channels", None)]),
    ("channels,w=nan", [("channels", None), ("w", "nan")]),
]


def spoiled_block(name, entries, seed):
    """ConvBlock "blk" of ``ERROR_BLOCKS[name]``, its parameters and inputs,
    with ``entries`` spoiled."""
    spec, shapes = ERROR_BLOCKS[name]
    rng = np.random.default_rng(seed)
    params = block_params(rng, spec)
    xs = [rng.normal(size=shape) for shape in shapes]
    for key, value in entries:
        if key == "overflow":
            params["blk.w"] = np.full(spec.weight_shape, 1e10)
            params["blk.scale"][1] = 1e300
        elif key == "channels":
            n, c, h, w = xs[-1].shape
            xs[-1] = rng.normal(size=(n, c + 1, h, w))
        elif key == "x":
            xs[-1].flat[1] = float(value)
        else:
            params[f"blk.{key}"].flat[1] = float(value)
    return gp.ConvBlock("blk", spec), params, xs


def shared_copy(name, xs):
    """The shared padded copy block ``name`` reads, or None: "dilated_padding"
    reads one of margin 4, as EESP's branch 2 reads one padded for branch 4."""
    return nm._pad_channels_last(xs[0], 4) if name == "dilated_padding" else None


def outcome(run):
    """The exact bytes ``run()`` returns, or the type and message of what it
    raises, and the messages of the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = exact(run())
        except Exception as err:  # noqa: BLE001 - the exception is the result
            result = type(err), str(err)
    return result, [str(warning.message) for warning in caught]


class TestWeightsReadOnce:
    """A block that does not fold reads its weights once, in its
    convolution, and checks its output for the fold's errors: the errors,
    their order and the bytes are those of checking the fold before any
    convolution, except where finite parameters have a fold that would
    overflow and an output that does not."""

    @pytest.mark.parametrize("case", [case for case, _ in ERROR_CASES])
    @pytest.mark.parametrize("name", ERROR_BLOCKS)
    def test_errors_equal_the_prove_then_convolve_reference(self, name, case):
        entries = dict(ERROR_CASES)[case]
        block, params, xs = spoiled_block(name, entries, 81)
        spec = block.spec
        oh, ow = spec.out_hw(xs[0].shape[2:])
        assert block.folds(xs[0].shape) == (name == "folded")
        assert bool(nm._run_rows(spec.out_channels, spec.weight_shape[1] * spec.kernel ** 2,
                                 xs[0].shape[0] * oh * ow)) == name.startswith("walked")
        want = outcome(lambda: prove_then_convolve(block, params, *xs, padded=shared_copy(name, xs)))
        assert outcome(lambda: block.forward(params, *xs, padded=shared_copy(name, xs))) == want
        assert outcome(lambda: block.forward(params, *xs, padded=shared_copy(name, xs), tape=[])) == want
        result, caught = want
        assert not caught
        if case != "finite":
            assert result[0] in (nm.NumericError, nm.ShapeError)

    @staticmethod
    def corner_forward(name, value, tape=None):
        """Block ``name``'s forward with ``value`` on the corner tap of its
        last weight row, a tap that reads only padding."""
        block, params, xs = spoiled_block(name, [], 84)
        params["blk.w"][-1, -1, 0, 0] = value
        return block.forward(params, *xs, padded=shared_copy(name, xs), tape=tape)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", PADDING_BLOCKS)
    def test_nonfinite_weights_on_padding_only_taps_raise(self, name, value):
        """The corner weight multiplies only zeros, yet inf*0 and NaN*0 are
        NaN, so the output shows it; nothing is taped and nothing warns."""
        assert np.array_equal(self.corner_forward(name, 0.0), self.corner_forward(name, 1.0))
        tape = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run_tape in (None, tape):
                with pytest.raises(nm.NumericError, match="^non-finite values in folded weights$"):
                    self.corner_forward(name, value, run_tape)
        assert tape == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_weight_on_a_skipped_tap_raises(self, value):
        """The dilated branch on 1x1 inputs sums only its centre tap, from
        its own copy or one padded to its live margin of 0: a non-finite
        corner weight, never multiplied, still raises the fold's error,
        without a warning, and nothing is taped."""
        block, params, xs = spoiled_block("dilated_padding", [], 85)
        assert nm.live_taps(block.spec, (1, 1)) == ((1, 2), (1, 2))
        assert nm.live_margin(block.spec, (1, 1)) == 0
        params["blk.w"][-1, -1, 0, 0] = value
        for padded in (None, nm._pad_channels_last(xs[0], 0)):
            tape = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(nm.NumericError, match="^non-finite values in folded weights$"):
                    block.forward(params, *xs, padded=padded, tape=tape)
            assert tape == []

    def test_nonfinite_weight_on_a_skipped_tap_names_the_eesp_unit(self):
        """In a 32 px EESP trunk cu8.1's branches read 1x1 inputs; a NaN
        on a corner tap of its dilation-4 branch, which the taps path
        skips, is reported as the unit's folded weights, taped or not."""
        graph = tiny_graph("eesp")
        params = gp.init_params(graph, 0)
        params["cu8.1.branch4.w"][3, 0, 0, 2] = np.nan
        batch = np.random.default_rng(86).uniform(size=(2, 3, 32, 32))
        index = [layer.name for layer in graph.layers].index("cu8.1")
        for cache in (None, []):
            with pytest.raises(nm.NumericError,
                               match=rf"^layer {index} \(cu8\.1\): non-finite values in folded weights$"):
                gp.forward(graph, params, batch, cache)

    @pytest.mark.parametrize("name", PADDING_BLOCKS)
    def test_an_overflowing_fold_on_padding_only_taps_runs(self, name):
        """W of 1e300 on padding-only taps and scales of 1e10: the fold,
        never made, would overflow, but the output is finite.  The block
        runs and equals the oracle block; checking the fold first raises."""
        block, params, xs = spoiled_block(name, [], 84)
        params["blk.w"][:, :, 0, 0] = 1e300
        params["blk.scale"] = np.full(block.spec.out_channels, 1e10)
        with pytest.raises(nm.NumericError, match="^non-finite values in folded weights$"):
            prove_then_convolve(block, params, *xs, padded=shared_copy(name, xs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = block.forward(params, *xs, padded=shared_copy(name, xs))
        assert np.isfinite(y).all()
        assert exact(y) == exact(oracle_block(params, "blk", block.spec, xs[0]))

    @pytest.mark.parametrize("cu, walked, runs", [
        ("bottleneck", "cu8.1.spatial", 14), ("mobilenet", "cu8.1.pw", 15), ("eesp", None, 0)])
    def test_the_walk_runs_at_32px_batch_8(self, cu, walked, runs, monkeypatch):
        """Bottleneck's cu8.1.spatial (307 x 2763 weights, 8 columns) walks
        14 runs of 23 rows, MobileNet's cu8.1.pw (256 x 3584) 15 runs of 18;
        EESP walks nothing.  Taped and untaped heads are the same bytes, and
        so are the taped gradients and the recompute oracle's."""
        graph = gp.build_graph(cu, input_hw=(32, 32))
        params = affine_params(graph, 82)
        rng = np.random.default_rng(83)
        batch = rng.uniform(0.0, 1.0, size=(8, 3, 32, 32))
        names, walks = [], []
        real_forward, real_walk = gp.ConvBlock.forward, nm._row_blocked_matmul

        def forward(block, *args, **kwargs):
            names.append(block.name)
            try:
                return real_forward(block, *args, **kwargs)
            finally:
                names.pop()

        def walk(wg, columns, rows):
            walks.append((names[-1], -(-wg.shape[1] // rows)))
            return real_walk(wg, columns, rows)

        monkeypatch.setattr(gp.ConvBlock, "forward", forward)
        monkeypatch.setattr(nm, "_row_blocked_matmul", walk)
        untaped = gp.forward(graph, params, batch)
        monkeypatch.undo()
        if walked is None:
            assert not walks
        else:
            assert [walk for walk in walks if walk[0] == walked] == [(walked, runs)]
        cache = []
        taped = gp.forward(graph, params, batch, cache)
        assert exact(taped) == exact(untaped)
        ups = {task: rng.normal(size=np.shape(y)) for task, y in taped.items()}
        assert exact(gp.backward(graph, params, cache, ups)) == exact(recompute_backward(graph, params, batch, ups))


def tape_graph_id(case):
    cu, widths, n = case
    extra = f"-k{widths.eesp_branches}" if cu == "eesp" else ""
    return f"{cu}{extra}-n{n}"


class TestTape:
    """A forward with a cache records what each layer's backward reads, and
    the backward does no forward work again: it equals the recompute oracle
    byte for byte."""

    # Every kind at 16 px (its stride-2 units included), EESP with 1, 2 and
    # 4 branches, batches of 1 and 3.
    GRAPHS = [(cu, widths, n) for cu, widths in
              [("toy", None), ("bottleneck", gp.CuWidths()), ("mobilenet", gp.CuWidths())]
              + [("eesp", gp.CuWidths(eesp_branches=k)) for k in (1, 2, 4)] for n in (1, 3)]

    @staticmethod
    def graph_and_params(cu, widths, seed):
        graph = tr.toy_graph(16) if cu == "toy" else gp.build_graph(cu, input_hw=(16, 16), widths=widths)
        rng = np.random.default_rng(seed)
        params = {k: v + rng.normal(scale=0.1, size=v.shape) if k.endswith(".b") else v
                  for k, v in gp.init_params(graph, seed=4).items()}
        return graph, params, rng

    @pytest.mark.parametrize("case", GRAPHS, ids=tape_graph_id)
    def test_taped_gradients_equal_the_recompute_oracle(self, case):
        cu, widths, n = case
        graph, params, rng = self.graph_and_params(cu, widths, 38)
        batch = rng.normal(size=(n, 3, 16, 16))
        cache = []
        out = gp.forward(graph, params, batch, cache)
        ups = {task: rng.normal(size=np.shape(y)) for task, y in out.items()}
        grads = gp.backward(graph, params, cache, ups)
        assert exact(grads) == exact(recompute_backward(graph, params, batch, ups))

    @pytest.mark.parametrize("cu", gp.CU_KINDS)
    def test_tape_keeps_only_what_the_backward_reads(self, cu):
        """A unit keeps the outputs of its relu steps, a block its output only
        if it has a ReLU and its convolution's output only if it does not
        fold its affine; the inputs are in the block records.  EESP's branch
        step keeps its branch outputs and sums, and the convolution outputs
        of its branches and of its expand only where they do not fold."""
        graph, params, rng = self.graph_and_params(cu, gp.CuWidths(), 48)
        cache = []
        gp.forward(graph, params, rng.normal(size=(2, 3, 16, 16)), cache)
        steps = 0
        for layer, record in zip(graph.layers, cache):
            if isinstance(layer, gp.Unit):
                assert set(record.slots) == {out for op, out, _ in layer.steps if op == "relu"}
                pairs = zip([op for op, _ in layer.layers], record.records)
            else:
                pairs = [(layer, record)] if isinstance(layer, gp.ConvBlock) else []
            for op, op_record in pairs:
                if isinstance(op, gp.EespBranches):
                    steps += 1
                    k, n, oh, ow, width = op_record.y.shape
                    assert op_record.sums.shape == op_record.y.shape == (len(op.branches), 2, oh, ow, width)
                    assert (op_record.u is None) == op.branches[0].folds(op_record.x.shape)
                    assert (op_record.expand_u is None) == op.expand.folds((n, k * width, oh, ow))
                    continue
                assert (op_record.y is None) == (not op.relu), op.name
                assert (op_record.u is None) == op.folds(op_record.x.shape), op.name
        assert steps == (18 if cu == "eesp" else 0)

    @pytest.mark.parametrize("case", UNIT_CASES, ids=unit_case_id)
    def test_taped_unit_backward_runs_no_forward(self, case, monkeypatch):
        cls, cin, cout, stride, widths = case
        rng = np.random.default_rng(46)
        unit = cls("u", cin, cout, stride, widths)
        params = unit_params(rng, unit)
        x = rng.normal(size=(3, cin, 7, 6))
        tape = []
        y = unit.forward(params, x, tape=tape)
        up = rng.normal(size=y.shape)
        want = recompute_unit_backward(unit, params, x, up)

        def refuse(*args, **kwargs):
            raise AssertionError("forward work in a taped backward")

        for owner, name in ((gp.ConvBlock, "forward"), (gp.ConvBlock, "_folded"), (nm, "conv2d")):
            monkeypatch.setattr(owner, name, refuse)
        assert exact(unit.backward(params, tape[0], up)) == exact(want)

    @pytest.mark.parametrize("cu", ("toy",) + gp.CU_KINDS)
    def test_a_step_builds_each_column_tensor_once_and_folds_each_block_once(self, cu, monkeypatch):
        """Every convolution's column tensor is built once per step: by the
        forward on the im2col path, by the backward on the taps path.  Each
        block decides once where its affine goes, EESP's branches once for
        all of them as the first branch, and a block that folds it folds
        once; at 16 px a batch-2 step of a CU kind has blocks of both kinds,
        and the toy stem folds."""
        convs, columns, folds, decided = [], [], [], []
        real_conv, real_im2col, real_fold, real_folds = nm.conv2d, nm._im2col, gp.ConvBlock._folded, gp.ConvBlock.folds
        monkeypatch.setattr(nm, "conv2d", lambda *a, **kw: convs.append(a[1]) or real_conv(*a, **kw))
        monkeypatch.setattr(nm, "_im2col", lambda *a: columns.append(a[1]) or real_im2col(*a))
        monkeypatch.setattr(gp.ConvBlock, "_folded",
                            lambda block, p: folds.append(block.name) or real_fold(block, p))
        monkeypatch.setattr(gp.ConvBlock, "folds",
                            lambda block, shape: decided.append((block.name, real_folds(block, shape)))
                            or decided[-1][1])
        if cu == "toy":
            images, labels = tr.toy_dataset(n=25, size=16)
            graph = tr.toy_graph(16)
            tr.batch_loss_and_grads(tr.Arena(gp.init_params(graph, 0)), images, labels,
                                    tr.class_weights(labels), 1e-4)
        else:
            graph, params, rng = self.graph_and_params(cu, gp.CuWidths(), 47)
            cache = []
            out = gp.forward(graph, params, rng.normal(size=(2, 3, 16, 16)), cache)
            gp.backward(graph, params, cache, {task: np.ones(np.shape(y)) for task, y in out.items()})
        assert collections.Counter(columns) == collections.Counter(convs)
        blocks = [key[:-len(".w")] for key in gp.param_shapes(graph) if key.endswith(".w") and not key.startswith("head.")]
        assert [name for name, _ in decided] == [name for name in blocks if not re.search(r"\.branch[2-9]$", name)]
        fold_of = dict(decided)
        assert folds == [name for name in blocks if fold_of[re.sub(r"\.branch\d$", ".branch1", name)]]
        assert folds == ["stem"] if cu == "toy" else 0 < len(folds) < len(decided)


class TestAnalyzeGraphReport:
    @pytest.mark.parametrize("hw, mode", sorted(REPORT_SHA256))
    def test_report_bytes_pinned(self, tmp_path, hw, mode):
        path = tmp_path / "report.json"
        argv = ["analyze-graph", "--cu", "all", "--input-hw", str(hw), "--mode", mode, "--output", str(path)]
        assert cli.main(argv) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_SHA256[hw, mode]


class TestPredictAttributes:
    def test_zero_heads_uniform(self):
        out = {
            "expr": np.zeros((1, 8)), "au": np.zeros((1, 12)),
            "arousal": np.zeros(1), "valence": np.zeros(1),
        }
        F = gp.predict_attributes(out)
        expected = np.concatenate([np.full(12, 0.5), np.full(8, 0.125), [0.0, 0.0]])
        np.testing.assert_array_equal(F, expected[None, :])

    def test_random_outputs_valid_ranges(self):
        rng = np.random.default_rng(8)
        out = {
            "expr": rng.normal(size=(5, 8)) * 10, "au": rng.normal(size=(5, 12)) * 10,
            "arousal": rng.normal(size=5) * 10, "valence": rng.normal(size=5) * 10,
        }
        F = gp.predict_attributes(out)
        assert F.shape == (5, 22) and F.dtype == np.float64
        assert np.all(np.abs(F[:, 12:20].sum(axis=1) - 1.0) <= 1e-12)
        assert np.all((F[:, :20] >= 0) & (F[:, :20] <= 1))
        assert np.all(np.abs(F[:, 20:]) <= 1)

    def test_equals_per_row_squashing(self):
        rng = np.random.default_rng(9)
        out = {
            "expr": rng.normal(size=(7, 8)) * 5, "au": rng.normal(size=(7, 12)) * 5,
            "arousal": rng.normal(size=7) * 2, "valence": rng.normal(size=7) * 2,
        }
        F = gp.predict_attributes(out)
        for i in range(7):
            assert np.all(F[i, :12] == nm.sigmoid(out["au"][i]))
            assert np.all(F[i, 12:20] == nm.softmax(out["expr"][i]))
            assert F[i, 20] == np.tanh(out["arousal"][i])
            assert F[i, 21] == np.tanh(out["valence"][i])

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("task", gp.TASKS)
    def test_non_finite_head_output_names_the_head(self, task, value):
        out = {
            "expr": np.zeros((2, 8)), "au": np.zeros((2, 12)),
            "arousal": np.zeros(2), "valence": np.zeros(2),
        }
        out[task] = out[task].copy()
        out[task][(1,) + (0,) * (out[task].ndim - 1)] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(nm.NumericError, match=f"the {task} head output"):
                gp.predict_attributes(out)

    def test_row_count_mismatch_names_each_head(self):
        out = {
            "expr": np.zeros((3, 8)), "au": np.zeros((3, 12)),
            "arousal": np.zeros(2), "valence": np.zeros(3),
        }
        with pytest.raises(ValueError, match="expr 3, au 3, arousal 2, valence 3"):
            gp.predict_attributes(out)

    def test_wrong_widths_rejected(self):
        out = {
            "expr": np.zeros((1, 7)), "au": np.zeros((1, 12)),
            "arousal": np.zeros(1), "valence": np.zeros(1),
        }
        with pytest.raises(ValueError):
            gp.predict_attributes(out)

    def test_missing_head_rejected(self):
        with pytest.raises(ValueError):
            gp.predict_attributes({"expr": np.zeros((1, 8))})
