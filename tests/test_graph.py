"""Structure, counting, and inference tests for the network builder.

Forward passes run at reduced input sizes (e.g. 32x32) to keep the suite
fast; counting tests use the full 224x224 contract.
"""

import warnings

import numpy as np
import pytest

from affectpipe import graph as gp
from affectpipe import numerics as nm

from conftest import max_rel_error, offset_conv2d

PARAM_TARGETS = {"bottleneck": 6.5e6, "mobilenet": 6.2e6, "eesp": 2.4e6}
# Strided dense, grouped, grouped 1x1 and strided dilated depthwise blocks.
BLOCK_SPECS = [
    nm.ConvSpec(3, 6, kernel=3, stride=2, padding=1),
    nm.ConvSpec(4, 12, kernel=3, padding=1, groups=4),
    nm.ConvSpec(8, 4, kernel=1, groups=2),
    nm.ConvSpec(5, 5, kernel=3, stride=2, padding=3, dilation=3, groups=5),
]


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
        assert graph.tasks == ("expr", "au", "arousal", "valence")

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
            graph = gp.build_graph(cu, "multi")
            f = [gp.count_flops(graph, (s, s)) for s in (64, 128, 224)]
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
        h = nm.relu(nm.channel_affine(h, params["stem.scale"], params["stem.shift"]))
        dw_spec = nm.ConvSpec(32, 64, kernel=3, stride=2, padding=1, groups=32)
        h = nm.conv2d(h, dw_spec, params["cu1.dw.w"], params["cu1.dw.b"])
        h = nm.relu(nm.channel_affine(h, params["cu1.dw.scale"], params["cu1.dw.shift"]))
        pw_spec = nm.ConvSpec(64, 32, kernel=1)
        h = nm.conv2d(h, pw_spec, params["cu1.pw.w"], params["cu1.pw.b"])
        h = nm.relu(nm.channel_affine(h, params["cu1.pw.scale"], params["cu1.pw.shift"]))
        np.testing.assert_allclose(y, h, atol=1e-12)


    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("spec", BLOCK_SPECS)
    def test_folded_affine_matches_unfolded(self, spec, relu):
        """The fold into W and b equals conv2d, then the affine, then ReLU."""
        rng = np.random.default_rng(21)
        block = gp.ConvBlock("blk", spec, relu=relu)
        params = block_params(rng, spec)
        x = rng.normal(size=(2, spec.in_channels, 9, 7))
        want = nm.channel_affine(nm.conv2d(x, spec, params["blk.w"], params["blk.b"]),
                                 params["blk.scale"], params["blk.shift"])
        if relu:
            want = nm.relu(want)
        np.testing.assert_allclose(block.forward(params, x), want, rtol=1e-12, atol=1e-12)

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


class TestBackward:
    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("spec", BLOCK_SPECS)
    def test_conv_block_matches_finite_differences(self, spec, relu):
        rng = np.random.default_rng(31)
        block = gp.ConvBlock("blk", spec, relu=relu)
        params = block_params(rng, spec)
        x = rng.normal(size=(2, spec.in_channels, 6, 5))
        y = block.forward(params, x)
        up = rng.normal(size=y.shape)
        gx, grads = block.backward(params, x, y, up)

        def loss(trial, v):
            return float((block.forward(trial, v) * up).sum())

        assert max_rel_error(gx, nm.central_difference(lambda v: loss(params, v), x.copy())) < 1e-6
        for key in ("blk.w", "blk.b", "blk.scale", "blk.shift"):
            num = nm.central_difference(lambda v: loss({**params, key: v}, x), params[key].copy())
            assert max_rel_error(grads[key], num) < 1e-6, key

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("spec", BLOCK_SPECS)
    def test_conv_block_matches_unfolded_oracle(self, spec, relu):
        """The chain rule through the fold equals ReLU, affine and conv adjoints in turn."""
        rng = np.random.default_rng(32)
        block = gp.ConvBlock("blk", spec, relu=relu)
        params = block_params(rng, spec)
        x = rng.normal(size=(3, spec.in_channels, 9, 7))
        y = block.forward(params, x)
        up = rng.normal(size=y.shape)
        gx, grads = block.backward(params, x, y, up)

        conv = nm.conv2d(x, spec, params["blk.w"], params["blk.b"])
        affine = nm.channel_affine(conv, params["blk.scale"], params["blk.shift"])
        g = nm.relu_backward(up, affine) if relu else up
        gconv, gscale, gshift = nm.channel_affine_backward(g, conv, params["blk.scale"])
        want_x, want_w, want_b = nm.conv2d_backward(gconv, x, spec, params["blk.w"])
        for got, want in ((gx, want_x), (grads["blk.w"], want_w), (grads["blk.b"], want_b),
                          (grads["blk.scale"], gscale), (grads["blk.shift"], gshift)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_pool_matches_finite_differences(self):
        rng = np.random.default_rng(33)
        pool = gp.GlobalPool(4)
        x = rng.normal(size=(2, 4, 3, 5))
        up = rng.normal(size=(2, 4))
        gx, grads = pool.backward({}, x, pool.forward({}, x), up)
        num = nm.central_difference(lambda v: float((pool.forward({}, v) * up).sum()), x.copy())
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

        assert max_rel_error(gx, nm.central_difference(lambda v: loss(params, v), pooled.copy())) < 1e-8
        for key in head.param_shapes():
            num = nm.central_difference(lambda v: loss({**params, key: v}, pooled),
                                        params[key].copy())
            assert max_rel_error(grads[key], num) < 1e-8, key

    def test_forward_cache_holds_each_layer_input_then_pooled(self):
        graph = tiny_graph("bottleneck")
        params = gp.init_params(graph, seed=0)
        batch = np.random.default_rng(35).normal(size=(2, 3, 32, 32))
        cache = []
        out = gp.forward(graph, params, batch, cache)
        assert len(cache) == len(graph.layers) + 1
        np.testing.assert_array_equal(cache[0], batch)
        assert cache[-1].shape == (2, gp.TAIL_CHANNELS)
        for task, y in gp.forward(graph, params, batch).items():
            np.testing.assert_array_equal(out[task], y)


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
