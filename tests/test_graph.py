"""Structure, counting, and inference tests for the network builder.

Forward passes run at reduced input sizes (e.g. 32x32) to keep the suite
fast; counting tests use the full 224x224 contract.
"""

import collections
import dataclasses
import hashlib
import itertools
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

from conftest import (central_difference, channel_affine, channel_affine_backward, exact, max_rel_error,
                      offset_conv2d, recompute_backward, recompute_unit_backward)

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


def slow_eesp_forward(unit, params, x, residual):
    """An EESP unit walked the slow way, the reference for its steps: one
    padded copy per branch, the running sums built by accumulate and
    concatenate, and one grouped expand over all of them."""
    blocks = {block.name.split(".")[-1]: block for block, _ in unit.blocks}
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
        assert [block.spec.groups for block, _ in unit.blocks if block.spec.kernel == 1] == [2, 2]

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
                                      nm.ConvSpec(4, 2, kernel=3, stride=2, padding=1, groups=2)])
    def test_one_input_per_group_equals_the_grouped_block(self, spec):
        """Per-group convolutions over separate inputs give the bytes of one
        grouped convolution over their concatenation, forward and backward."""
        rng = np.random.default_rng(22)
        block = gp.ConvBlock("blk", spec)
        params = block_params(rng, spec)
        xs = tuple(rng.normal(size=(2, 7, 6, spec.in_channels // spec.groups)).transpose(0, 3, 1, 2)
                   for _ in range(spec.groups))
        joined = np.concatenate(xs, axis=1)
        tape = []
        y = block.forward(params, *xs, tape=tape)
        assert exact(y) == exact(block.forward(params, joined, tape=tape))
        up = rng.normal(size=y.shape)
        gxs, grads = block.backward(params, tape[0], up)
        gx, want = block.backward(params, tape[1], up)
        assert exact(grads) == exact(want)
        assert exact(gxs) == exact(tuple(np.split(gx, spec.groups, axis=1)))
        assert block.backward(params, tape[0], up, input_grad=False)[0] is None
        with pytest.raises(ValueError):
            block.forward(params, *xs, xs[0])

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
    sums are add steps, and each group of the expand reads one of them."""

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

    def test_each_expand_group_reads_one_running_sum_in_place(self, monkeypatch):
        unit = gp.EespUnit("u", 8, 8, 1, gp.CuWidths(eesp_branches=4, eesp_width_mult=4))
        expand = unit.blocks[-1][0]
        reads, real = [], nm._im2col

        def im2col(x, spec, oh, ow):
            cols = real(x, spec, oh, ow)
            if spec == expand.group_spec:
                reads.append(np.shares_memory(cols, x) and x.transpose(0, 2, 3, 1).flags.c_contiguous)
            return cols

        monkeypatch.setattr(nm, "_im2col", im2col)
        rng = np.random.default_rng(41)
        unit.forward(unit_params(rng, unit), rng.normal(size=(2, 8, 5, 6)))
        assert expand.name == "u.expand" and reads == [True] * 4

    def test_one_copy_per_eesp_unit(self, monkeypatch):
        graph = tiny_graph("eesp")
        params = gp.init_params(graph, seed=0)
        margins = count_copies(monkeypatch)
        gp.forward(graph, params, np.random.default_rng(42).normal(size=(2, 3, 32, 32)))
        units = [layer for layer in graph.layers if isinstance(layer, gp.EespUnit)]
        assert len(units) == 18
        assert margins == [gp.CuWidths().eesp_branches] * len(units)

    def test_copy_is_freed_after_the_last_branch(self, monkeypatch):
        graph = tiny_graph("eesp")
        params = gp.init_params(graph, seed=0)
        copies, alive_at_add = [], []
        real_copy, real_add = nm._pad_channels_last, gp._OPS["add"]

        def copy(x, margin):
            xp = real_copy(x, margin)
            copies.append(weakref.ref(xp))
            return xp

        def add(a, b):
            alive_at_add.append(copies[-1]() is not None)
            return real_add(a, b)

        monkeypatch.setattr(nm, "_pad_channels_last", copy)
        monkeypatch.setitem(gp._OPS, "add", add)
        gp.forward(graph, params, np.random.default_rng(45).normal(size=(2, 3, 32, 32)))
        # Three running sums in each of the 18 units, and 14 residual adds.
        assert alive_at_add == [False] * (18 * 3 + 14)

    @pytest.mark.parametrize("mult, copies", [(1, 18), (gp.CuWidths().mobilenet_depth_mult, 0)])
    def test_one_copy_per_block_without_sharing(self, monkeypatch, mult, copies):
        """Per-channel blocks that share no input copy it once per block.

        MobileNet's depthwise blocks take the taps path only at channel
        multiplier 1; the default multiplier and the tail's 2 go through
        im2col.  A lone block stands in for a per-channel tail.
        """
        graph = gp.build_graph("mobilenet", input_hw=(32, 32), widths=gp.CuWidths(mobilenet_depth_mult=mult))
        params = gp.init_params(graph, seed=0)
        margins = count_copies(monkeypatch)
        gp.forward(graph, params, np.random.default_rng(43).normal(size=(2, 3, 32, 32)))
        assert margins == [1] * copies
        margins.clear()
        spec = nm.ConvSpec(4, 4, kernel=3, padding=1, groups=4)
        tail = gp.ConvBlock("blk", spec)
        tail.forward(block_params(np.random.default_rng(44), spec), np.ones((1, 4, 5, 5)))
        assert margins == [1]

    def test_shared_copy_only_for_two_or_more_depthwise_readers(self):
        one = gp.EespUnit("u", 4, 4, 1, gp.CuWidths(eesp_branches=1, eesp_width_mult=1))
        assert one.shared == {}
        unit = gp.EespUnit("u", 6, 6, 2, gp.CuWidths(eesp_branches=3, eesp_width_mult=3))
        branches = [block for block, _ in unit.blocks if block.name.startswith("u.branch")]
        assert unit.shared == {block: ("r", 3, block is branches[-1]) for block in branches}
        mobile = gp.MobileNetUnit("m", 4, 4, 1, gp.CuWidths(mobilenet_depth_mult=1))
        assert mobile.shared == {}

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


class TestBackward:
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("spec", BLOCK_SPECS)
    def test_conv_block_matches_finite_differences(self, spec, relu):
        rng = np.random.default_rng(31)
        block = gp.ConvBlock("blk", spec, relu=relu)
        params = block_params(rng, spec)
        x = rng.normal(size=(2, spec.in_channels, 6, 5))
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
        np.testing.assert_array_equal(cache[0].xs[0], batch)
        assert cache[-1].shape == (2, gp.TAIL_CHANNELS)
        # Each record's input is the previous layer's output.
        outputs = [record.slots[layer.steps[-1][1]] if isinstance(layer, gp.Unit) else record.y
                   for layer, record in zip(graph.layers[:-2], cache)]
        inputs = [record.slots["x"] if isinstance(layer, gp.Unit) else record.xs[0]
                  for layer, record in zip(graph.layers[1:-1], cache[1:])]
        assert all(y is x for y, x in zip(outputs, inputs))
        assert cache[-2] == cache[-3].y.shape
        for task, y in gp.forward(graph, params, batch).items():
            np.testing.assert_array_equal(out[task], y)


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
        forward on the im2col path, by the backward on the taps path."""
        convs, columns, folds = [], [], []
        real_conv, real_im2col, real_fold = nm.conv2d, nm._im2col, gp.ConvBlock._folded
        monkeypatch.setattr(nm, "conv2d", lambda *a, **kw: convs.append(a[1]) or real_conv(*a, **kw))
        monkeypatch.setattr(nm, "_im2col", lambda *a: columns.append(a[1]) or real_im2col(*a))
        monkeypatch.setattr(gp.ConvBlock, "_folded",
                            lambda block, p: folds.append(block.name) or real_fold(block, p))
        if cu == "toy":
            images, labels = tr.toy_dataset(n=25, size=16)
            graph = tr.toy_graph(16)
            tr.batch_loss_and_grads(gp.init_params(graph, 0), images, labels, tr.class_weights(labels), 1e-4)
        else:
            graph, params, rng = self.graph_and_params(cu, gp.CuWidths(), 47)
            cache = []
            out = gp.forward(graph, params, rng.normal(size=(2, 3, 16, 16)), cache)
            gp.backward(graph, params, cache, {task: np.ones(np.shape(y)) for task, y in out.items()})
        assert collections.Counter(columns) == collections.Counter(convs)
        assert folds == [key[:-len(".w")] for key in gp.param_shapes(graph)
                         if key.endswith(".w") and not key.startswith("head.")]


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
