import dataclasses
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affectpipe import classifiers as cl
from affectpipe import graph as gr
from affectpipe import numerics as nm
from affectpipe import synth as sy
from affectpipe import temporal as tp
from affectpipe import training as tr

from conftest import (channel_taps, exact, loop_conv2d, loop_conv2d_backward, offset_conv2d, pad_im2col,
                      row_run_matmul, two_branch_sigmoid, where_relu_backward, window_im2col)

# One spec per convolution class the trunk uses, with the input size it runs at.
CONV_CLASSES = {
    "dense": (nm.ConvSpec(3, 5, kernel=3, padding=1), (2, 3, 6, 5)),
    "dense_strided": (nm.ConvSpec(3, 4, kernel=3, stride=2, padding=1), (2, 3, 7, 9)),
    "pointwise": (nm.ConvSpec(6, 4, kernel=1), (2, 6, 5, 7)),
    "pointwise_stride2": (nm.ConvSpec(6, 4, kernel=1, stride=2), (2, 6, 7, 5)),
    "grouped_pointwise": (nm.ConvSpec(8, 12, kernel=1, groups=4), (2, 8, 5, 6)),
    "depthwise_mult1": (nm.ConvSpec(4, 4, kernel=3, padding=1, groups=4), (2, 4, 7, 6)),
    "depthwise_mult14": (nm.ConvSpec(2, 28, kernel=3, stride=2, padding=1, groups=2), (2, 2, 7, 7)),
    **{f"dilated_depthwise_d{d}": (nm.ConvSpec(3, 3, kernel=3, stride=2, padding=d, dilation=d, groups=3),
                                   (2, 3, 9, 11)) for d in range(1, 5)},
    **{f"dilated_depthwise_stride1_d{d}": (nm.ConvSpec(5, 5, kernel=3, padding=d, dilation=d, groups=5),
                                           (2, 5, 8, 7)) for d in range(1, 5)},
    # Smaller than the dilated span, as EESP's last stage runs at 112 px.
    "dilated_depthwise_4x4_d4": (nm.ConvSpec(3, 3, kernel=3, padding=4, dilation=4, groups=3), (2, 3, 4, 4)),
    "dilated_depthwise_4x4_d4_stride2": (nm.ConvSpec(3, 3, kernel=3, stride=2, padding=4, dilation=4, groups=3),
                                         (2, 3, 4, 4)),
    "odd_kernel5": (nm.ConvSpec(4, 2, kernel=5, stride=3, padding=2, groups=2), (1, 4, 11, 13)),
}


class TestConvSpec:
    def test_rejects_even_kernel(self):
        with pytest.raises(nm.ShapeError):
            nm.ConvSpec(4, 4, kernel=2)

    def test_rejects_bad_groups(self):
        with pytest.raises(nm.ShapeError):
            nm.ConvSpec(4, 6, kernel=3, groups=4)

    @pytest.mark.parametrize("field, value, what", [
        ("kernel", True, "positive"), ("out_channels", 4.0, "positive"), ("stride", 1.5, "positive"),
        ("padding", 0.5, "non-negative"), ("out_channels", 2.5, "positive"),
        ("in_channels", "3", "positive"), ("groups", np.float64(1.0), "positive"),
        ("padding", False, "non-negative"), ("dilation", 0, "positive"), ("padding", -1, "non-negative"),
    ])
    def test_rejects_non_integer_fields_by_name(self, field, value, what):
        with pytest.raises(nm.ShapeError,
                           match=rf"^ConvSpec\.{field} must be a {what} integer, got {re.escape(repr(value))}$"):
            nm.ConvSpec(**{"in_channels": 3, "out_channels": 6, field: value})

    def test_accepts_numpy_integers(self):
        spec = nm.ConvSpec(np.int64(3), np.int32(6), kernel=np.int64(3), padding=np.int8(1),
                           groups=np.int64(3))
        assert spec.out_hw((5, 5)) == (5, 5)

    def test_output_size_formula(self):
        spec = nm.ConvSpec(3, 8, kernel=3, stride=2, padding=1)
        assert spec.out_hw((224, 224)) == (112, 112)
        assert spec.out_hw((7, 7)) == (4, 4)

    def test_dilated_output_size(self):
        spec = nm.ConvSpec(4, 4, kernel=3, stride=1, padding=3, dilation=3)
        assert spec.out_hw((14, 14)) == (14, 14)


COUNT, SEED = "a positive integer", "a non-negative integer"
REAL, POSITIVE = "a finite real number", "positive and finite"

# Every numeric setting: (name in its message, call taking it by keyword,
# keyword, what it must be, a numpy value it accepts).
SETTINGS = [
    *[(f"ConvSpec.{key}", partial(nm.ConvSpec, in_channels=3, out_channels=6), key, COUNT, np.int64(1))
      for key in ("in_channels", "out_channels", "kernel", "stride", "groups", "dilation")],
    ("ConvSpec.padding", partial(nm.ConvSpec, 3, 6), "padding", SEED, np.int32(0)),
    ("bottleneck_mid_ratio", gr.CuWidths, "bottleneck_mid_ratio", POSITIVE, np.float64(1.5)),
    *[(key, gr.CuWidths, key, COUNT, np.int64(2))
      for key in ("mobilenet_depth_mult", "eesp_branches", "eesp_width_mult")],
    ("seed", partial(gr.init_params, tr.toy_graph(2)), "seed", SEED, np.int64(3)),
    ("epochs", tr.TrainConfig, "epochs", COUNT, np.int64(3)),
    ("batch_size", tr.TrainConfig, "batch_size", COUNT, np.int32(7)),
    ("seed", tr.TrainConfig, "seed", SEED, np.uint8(0)),
    ("lr0", tr.TrainConfig, "lr0", POSITIVE, np.float64(0.02)),
    *[(key, tr.TrainConfig, key, REAL, np.float32(0.5)) for key in ("momentum", "lr_decay", "weight_decay")],
    *[(key, partial(cl.ClassifierSpec, "logistic"), key, POSITIVE, np.float32(0.5))
      for key in ("l2", "l1", "step", "svm_c", "shrinkage", "svm_gamma")],
    *[(key, partial(cl.ClassifierSpec, "logistic"), key, COUNT, np.int64(2))
      for key in ("iterations", "rounds", "depth", "epochs")],
    ("seed", partial(cl.ClassifierSpec, "logistic"), "seed", SEED, np.int64(0)),
    *[(key, sy.SynthSpec, key, REAL, np.float64(0.25))
      for key in ("au_effect", "expr_effect", "arousal_effect", "valence_effect", "noise", "subject_scale")],
    *[(key, sy.SynthSpec, key, COUNT, np.int16(3)) for key in ("participants_per_group", "frames_per_participant")],
    ("seed", sy.SynthSpec, "seed", SEED, np.int64(9)),
    ("samples", partial(tr.toy_dataset, size=2), "n", COUNT, np.int64(2)),
    ("image_size", partial(tr.toy_dataset, n=1), "size", COUNT, np.int64(4)),
    ("seed", partial(tr.toy_dataset, n=1, size=2), "seed", SEED, np.int64(3)),
    ("tau", partial(tp.au_activation, np.zeros((1, tp.FRAME_DIM))), "tau", REAL, np.float64(0.5)),
]


def _owner(call) -> str:
    return getattr(call, "func", call).__name__


def _rejections():
    for name, call, key, need, _ in SETTINGS:
        error = nm.ShapeError if name.startswith("ConvSpec.") else ValueError
        for value in ((True, 2.5, "3", None) if need in (COUNT, SEED) else
                      (float("nan"), float("inf"), True, "0.1")):
            message = rf"^{re.escape(name)} must be {need}, got {re.escape(repr(value))}$"
            yield pytest.param(call, key, value, error, message, id=f"{_owner(call)}.{key}={value!r}")


class TestSettingChecks:
    """One contract for every numeric setting, checked by numerics alone:
    counts are integers (Python or numpy, never bool), reals are finite
    numbers (never bool), and both are worded alike everywhere."""

    @pytest.mark.parametrize("call, key, value, error, message", _rejections())
    def test_rejects_with_the_shared_wording(self, call, key, value, error, message):
        with pytest.raises(error, match=message) as caught:
            call(**{key: value})
        assert type(caught.value) is error

    @pytest.mark.parametrize("call, key, value, message", [
        (partial(tr.toy_dataset, n=1), "size", 0, "image_size must be a positive integer, got 0"),
        (partial(tr.toy_dataset, n=1), "size", 1, "image_size must be at least 2, got 1"),
        (partial(tr.toy_dataset, n=1, size=2), "seed", -1, "seed must be a non-negative integer, got -1"),
    ], ids=["toy_dataset.size=0", "toy_dataset.size=1", "toy_dataset.seed=-1"])
    def test_rejects_out_of_range(self, call, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(**{key: value})

    @pytest.mark.parametrize("name, call, key, need, value", SETTINGS,
                             ids=[f"{_owner(call)}.{key}" for _, call, key, _, _ in SETTINGS])
    def test_accepts_numpy_numbers(self, name, call, key, need, value):
        out = call(**{key: value})
        if dataclasses.is_dataclass(out):
            assert getattr(out, key) == value


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(2, 1, 5, 5))
        spec = nm.ConvSpec(1, 1, kernel=1)
        w = np.ones((1, 1, 1, 1))
        np.testing.assert_array_equal(nm.conv2d(x, spec, w), x)

    def test_all_ones_3x3(self):
        x = np.ones((1, 1, 3, 3))
        spec = nm.ConvSpec(1, 1, kernel=3)
        y = nm.conv2d(x, spec, np.ones((1, 1, 3, 3)))
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == 9.0

    def test_matches_loop_oracle_strided(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        spec = nm.ConvSpec(2, 3, kernel=3, stride=2, padding=1)
        w = rng.normal(size=spec.weight_shape)
        b = rng.normal(size=3)
        np.testing.assert_allclose(nm.conv2d(x, spec, w, b), loop_conv2d(x, spec, w, b), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("groups,cout", [(2, 4), (4, 4), (4, 8)])
    def test_matches_loop_oracle_grouped(self, rng, groups, cout):
        x = rng.normal(size=(2, 4, 6, 5))
        spec = nm.ConvSpec(4, cout, kernel=3, stride=1, padding=1, groups=groups)
        w = rng.normal(size=spec.weight_shape)
        np.testing.assert_allclose(nm.conv2d(x, spec, w), loop_conv2d(x, spec, w), rtol=1e-12, atol=1e-12)

    def test_matches_loop_oracle_dilated(self, rng):
        x = rng.normal(size=(1, 3, 9, 9))
        spec = nm.ConvSpec(3, 2, kernel=3, stride=1, padding=2, dilation=2)
        w = rng.normal(size=spec.weight_shape)
        np.testing.assert_allclose(nm.conv2d(x, spec, w), loop_conv2d(x, spec, w), rtol=1e-12, atol=1e-12)

    def test_depthwise_equals_per_channel(self, rng):
        x = rng.normal(size=(1, 3, 6, 6))
        spec = nm.ConvSpec(3, 3, kernel=3, padding=1, groups=3)
        w = rng.normal(size=spec.weight_shape)
        y = nm.conv2d(x, spec, w)
        for c in range(3):
            solo = nm.ConvSpec(1, 1, kernel=3, padding=1)
            yc = nm.conv2d(x[:, c : c + 1], solo, w[c : c + 1])
            np.testing.assert_allclose(y[:, c : c + 1], yc, rtol=1e-12)

    def test_linearity(self, rng):
        spec = nm.ConvSpec(2, 3, kernel=3, padding=1)
        w = rng.normal(size=spec.weight_shape)
        x1 = rng.normal(size=(1, 2, 5, 5))
        x2 = rng.normal(size=(1, 2, 5, 5))
        lhs = nm.conv2d(2.5 * x1 - 0.7 * x2, spec, w)
        rhs = 2.5 * nm.conv2d(x1, spec, w) - 0.7 * nm.conv2d(x2, spec, w)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    @pytest.mark.parametrize("name", sorted(CONV_CLASSES))
    def test_matches_both_oracles_per_class(self, rng, name):
        spec, shape = CONV_CLASSES[name]
        x = rng.normal(size=shape)
        w = rng.normal(size=spec.weight_shape)
        b = rng.normal(size=spec.out_channels)
        y = nm.conv2d(x, spec, w, b)
        np.testing.assert_allclose(y, offset_conv2d(x, spec, w, b), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y, loop_conv2d(x, spec, w, b), rtol=1e-12, atol=1e-12)

    @given(
        groups=st.integers(1, 3), cin_g=st.integers(1, 3), cout_g=st.integers(1, 4),
        kernel=st.sampled_from([1, 3, 5]), stride=st.integers(1, 3), dilation=st.integers(1, 4),
        padding=st.integers(0, 4), extra_h=st.integers(0, 6), extra_w=st.integers(0, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_both_oracles_random_specs(self, groups, cin_g, cout_g, kernel, stride,
                                               dilation, padding, extra_h, extra_w, seed):
        spec = nm.ConvSpec(groups * cin_g, groups * cout_g, kernel=kernel, stride=stride,
                           padding=padding, groups=groups, dilation=dilation)
        smallest = max(1, dilation * (kernel - 1) + 1 - 2 * padding)
        h, w = smallest + extra_h, smallest + extra_w
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, spec.in_channels, h, w))
        wt = rng.normal(size=spec.weight_shape)
        b = rng.normal(size=spec.out_channels)
        y = nm.conv2d(x, spec, wt, b)
        np.testing.assert_allclose(y, offset_conv2d(x, spec, wt, b), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y, loop_conv2d(x, spec, wt, b), rtol=1e-12, atol=1e-12)

    @given(
        channels=st.integers(1, 6), kernel=st.sampled_from([1, 3, 5]), stride=st.integers(1, 3),
        dilation=st.integers(1, 4), padding=st.integers(0, 4), extra_h=st.integers(0, 6),
        extra_w=st.integers(0, 6), batch=st.integers(1, 3), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_multiplier1_depthwise_matches_both_oracles(self, channels, kernel, stride, dilation,
                                                        padding, extra_h, extra_w, batch, seed):
        spec = nm.ConvSpec(channels, channels, kernel=kernel, stride=stride, padding=padding,
                           groups=channels, dilation=dilation)
        smallest = max(1, dilation * (kernel - 1) + 1 - 2 * padding)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, smallest + extra_h, smallest + extra_w))
        wt = rng.normal(size=spec.weight_shape)
        b = rng.normal(size=channels)
        y = nm.conv2d(x, spec, wt, b)
        np.testing.assert_allclose(y, offset_conv2d(x, spec, wt, b), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y, loop_conv2d(x, spec, wt, b), rtol=1e-12, atol=1e-12)

    @given(
        channels=st.integers(1, 5), kernel=st.sampled_from([1, 3, 5]), stride=st.integers(1, 2),
        dilation=st.integers(1, 4), padding=st.integers(0, 4), extra_margin=st.integers(0, 3),
        extra_h=st.integers(0, 4), extra_w=st.integers(0, 4), batch=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @example(channels=3, kernel=3, stride=1, dilation=4, padding=4, extra_margin=0, extra_h=0,
             extra_w=0, batch=1, seed=0)
    @example(channels=2, kernel=3, stride=2, dilation=2, padding=1, extra_margin=2, extra_h=3,
             extra_w=0, batch=1, seed=1)
    @settings(max_examples=80, deadline=None)
    def test_tiled_taps_match_loop_oracle_and_channel_taps(self, channels, kernel, stride, dilation,
                                                           padding, extra_margin, extra_h, extra_w,
                                                           batch, seed):
        spec = nm.ConvSpec(channels, channels, kernel=kernel, stride=stride, padding=padding,
                           groups=channels, dilation=dilation)
        smallest = max(1, dilation * (kernel - 1) + 1 - 2 * padding)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels, smallest + extra_h, smallest + extra_w))
        wt = rng.normal(size=spec.weight_shape)
        oh, ow = spec.out_hw(x.shape[2:])
        margin = padding + extra_margin
        xp = nm._pad_channels_last(x, margin)
        y = nm._depthwise_taps(xp, margin, spec, wt, oh, ow)
        want = channel_taps(xp, margin, spec, wt, oh, ow)
        # An axis of length 1 is never stepped along, so only the others'
        # strides are the layout.
        assert ([step for step, size in zip(y.strides, y.shape) if size > 1]
                == [step for step, size in zip(want.strides, want.shape) if size > 1])
        # With one channel the (k, k, 1) einsum sums along a kernel row in its
        # inner loop, so it rounds differently; from two channels on, both
        # add the taps in the same order.
        if channels > 1:
            assert y.tobytes() == want.tobytes()
        np.testing.assert_allclose(y, loop_conv2d(x, spec, wt), rtol=1e-12, atol=1e-12)

    def test_noncontiguous_input(self, rng):
        spec = nm.ConvSpec(2, 3, kernel=3, stride=2, padding=1)
        x = rng.normal(size=(2, 5, 9, 8))[:, 1:5:2, ::-1]
        w = rng.normal(size=spec.weight_shape)
        np.testing.assert_allclose(nm.conv2d(x, spec, w), loop_conv2d(x, spec, w), rtol=1e-12, atol=1e-12)

    def test_multiplier1_depthwise_edge_inputs(self, rng):
        spec = nm.ConvSpec(4, 4, kernel=3, stride=2, padding=2, dilation=2, groups=4)
        w = rng.normal(size=spec.weight_shape)
        b = rng.normal(size=4)
        batch1 = rng.normal(size=(1, 4, 7, 9))
        strided = rng.normal(size=(2, 9, 16, 9))[:, 1::2, ::-2, ::-1]
        assert not strided.flags.c_contiguous
        for x in (batch1, strided):
            y = nm.conv2d(x, spec, w, b)
            np.testing.assert_allclose(y, offset_conv2d(x, spec, w, b), rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(y, loop_conv2d(x, spec, w, b), rtol=1e-12, atol=1e-12)
        bad = batch1.copy()
        bad[0, 2, 3, 4] = np.nan
        with pytest.raises(nm.NumericError):
            nm.conv2d(bad, spec, w, b)

    @pytest.mark.parametrize("spec,taps", [
        (nm.ConvSpec(6, 6, kernel=3, stride=2, padding=3, dilation=3, groups=6), True),
        (nm.ConvSpec(1, 1, kernel=3, padding=1), True),
        (nm.ConvSpec(2, 28, kernel=3, stride=2, padding=1, groups=2), False),
        (nm.ConvSpec(3, 6, kernel=3, padding=1, groups=3), False),
        (nm.ConvSpec(6, 6, kernel=3, padding=1, groups=3), False),
    ])
    def test_path_depends_only_on_the_spec(self, rng, monkeypatch, spec, taps):
        calls = []
        for name in ("_im2col", "_depthwise_taps"):
            real = getattr(nm, name)
            monkeypatch.setattr(nm, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        nm.conv2d(rng.normal(size=(2, spec.in_channels, 7, 7)), spec, rng.normal(size=spec.weight_shape))
        assert calls == ["_depthwise_taps" if taps else "_im2col"]

    def test_pointwise_columns_are_a_view(self, rng):
        spec = nm.ConvSpec(6, 4, kernel=1, groups=2)
        x = rng.normal(size=(6, 2, 5, 7)).transpose(1, 0, 2, 3)
        assert np.shares_memory(nm._im2col(x, spec, 5, 7), x)

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("layout", ["channel_major", "channels_last", "nchw", "flipped"])
    def test_pointwise_columns_are_a_reshape_of_the_window_columns(self, rng, monkeypatch, layout, groups):
        """A stride-1 unpadded 1x1 takes its columns by a reshape, with no
        window view: the window columns' bytes and strides, a view of x in
        channel-major and channels-last memory."""
        spec = nm.ConvSpec(6, 4, kernel=1, groups=groups)
        x = rng.normal(size=(3, 6, 5, 7))
        x = {"channel_major": np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3),
             "channels_last": np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
             "nchw": x, "flipped": x[:, :, ::-1]}[layout]
        want = window_im2col(x, spec, 5, 7)
        monkeypatch.setattr(np.lib.stride_tricks, "as_strided", None)
        got = nm._im2col(x, spec, 5, 7)
        assert got.shape == want.shape == (groups, 6 // groups, 3 * 5 * 7)
        assert got.strides == want.strides and got.tobytes() == want.tobytes()
        assert np.shares_memory(got, x) == (layout in ("channel_major", "channels_last"))

    @given(
        groups=st.integers(1, 3), cin_g=st.integers(1, 2), kernel=st.sampled_from([1, 3, 5]),
        stride=st.integers(1, 2), dilation=st.integers(1, 3), padding=st.integers(0, 3),
        extra_h=st.integers(0, 4), extra_w=st.integers(0, 4),
        layout=st.sampled_from(["nchw", "nhwc", "flipped"]), seed=st.integers(0, 2**16),
    )
    @example(groups=1, cin_g=3, kernel=3, stride=1, dilation=1, padding=1, extra_h=0, extra_w=0,
             layout="nchw", seed=0)
    @example(groups=2, cin_g=1, kernel=3, stride=2, dilation=3, padding=3, extra_h=0, extra_w=0,
             layout="nhwc", seed=1)
    @settings(max_examples=80, deadline=None)
    def test_im2col_equals_np_pad_oracle(self, groups, cin_g, kernel, stride, dilation, padding,
                                         extra_h, extra_w, layout, seed):
        spec = nm.ConvSpec(groups * cin_g, groups, kernel=kernel, stride=stride, padding=padding,
                           groups=groups, dilation=dilation)
        smallest = max(1, dilation * (kernel - 1) + 1 - 2 * padding)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, spec.in_channels, smallest + extra_h, smallest + extra_w))
        if layout == "nhwc":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        elif layout == "flipped":
            x = x[:, :, ::-1]
        oh, ow = spec.out_hw(x.shape[2:])
        got, want = nm._im2col(x, spec, oh, ow), pad_im2col(x, spec, oh, ow)
        assert got.shape == want.shape == (groups, cin_g * kernel * kernel, 2 * oh * ow)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(CONV_CLASSES))
    def test_backward_without_input_grad_per_class(self, rng, name):
        spec, shape = CONV_CLASSES[name]
        x = rng.normal(size=shape)
        w = rng.normal(size=spec.weight_shape)
        gy = rng.normal(size=nm.conv2d(x, spec, w).shape)
        _, gw, gb = nm.conv2d_backward(gy, x, spec, w)
        gx, gw_only, gb_only = nm.conv2d_backward(gy, x, spec, w, input_grad=False)
        assert gx is None
        assert exact((gw_only, gb_only)) == exact((gw, gb))

    @pytest.mark.parametrize("name", sorted(CONV_CLASSES))
    def test_backward_reads_the_forward_columns_per_class(self, rng, name, monkeypatch):
        """The forward hands over the column tensor its im2col path built
        (none on the taps path), and the backward given it builds none and
        gives the same bytes."""
        spec, shape = CONV_CLASSES[name]
        x = rng.normal(size=shape)
        w, b = rng.normal(size=spec.weight_shape), rng.normal(size=spec.out_channels)
        y, columns = nm.conv2d(x, spec, w, b, return_columns=True)
        assert exact(y) == exact(nm.conv2d(x, spec, w, b))
        assert (columns is None) == spec.per_channel
        gy = rng.normal(size=y.shape)
        want = nm.conv2d_backward(gy, x, spec, w)
        if columns is not None:
            monkeypatch.setattr(nm, "_im2col", None)
        for input_grad in (True, False):
            got = nm.conv2d_backward(gy, x, spec, w, columns=columns, input_grad=input_grad)
            assert exact(got) == exact(want if input_grad else (None,) + want[1:])

    def test_columns_that_do_not_fit_are_rejected(self, rng):
        spec = nm.ConvSpec(4, 6, kernel=3, stride=2, padding=1, groups=2)
        x = rng.normal(size=(2, 4, 7, 6))
        w = rng.normal(size=spec.weight_shape)
        y, columns = nm.conv2d(x, spec, w, return_columns=True)
        for bad in (columns[:1], columns[:, 1:], columns[:, :, 1:]):
            with pytest.raises(nm.ShapeError, match="column tensor"):
                nm.conv2d_backward(y, x, spec, w, columns=bad)

    @pytest.mark.parametrize("name", sorted(CONV_CLASSES))
    def test_backward_is_the_adjoint_per_class(self, rng, name):
        # <conv(x, w), gy> is bilinear, so it equals <x, gx> and <w, gw> exactly.
        spec, shape = CONV_CLASSES[name]
        x = rng.normal(size=shape)
        w = rng.normal(size=spec.weight_shape)
        gy = rng.normal(size=nm.conv2d(x, spec, w).shape)
        gx, gw, gb = nm.conv2d_backward(gy, x, spec, w)
        inner = float(np.sum(nm.conv2d(x, spec, w) * gy))
        assert gx.shape == x.shape and gw.shape == w.shape
        np.testing.assert_allclose(np.sum(gx * x), inner, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(np.sum(gw * w), inner, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gb, gy.sum(axis=(0, 2, 3)), rtol=1e-12)

    @pytest.mark.parametrize("layout", ["channel_major", "batch0", "batch1"])
    @pytest.mark.parametrize("name", sorted(CONV_CLASSES))
    def test_layout_and_batch_size_match_loop_oracles(self, rng, name, layout):
        spec, shape = CONV_CLASSES[name]
        if layout == "channel_major":
            x = rng.normal(size=(shape[1], shape[0]) + shape[2:]).transpose(1, 0, 2, 3)
        else:
            x = rng.normal(size=(int(layout[-1]),) + shape[1:])
        w = rng.normal(size=spec.weight_shape)
        b = rng.normal(size=spec.out_channels)
        y = nm.conv2d(x, spec, w, b)
        want = loop_conv2d(x, spec, w, b)
        assert y.shape == want.shape
        np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)
        gy = rng.normal(size=y.shape)
        for got, want in zip(nm.conv2d_backward(gy, x, spec, w), loop_conv2d_backward(gy, x, spec, w)):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_pointwise_after_dense_reads_its_output_in_place(self, rng):
        dense = nm.ConvSpec(3, 6, kernel=3, padding=1)
        pointwise = nm.ConvSpec(6, 4, kernel=1)
        x = rng.normal(size=(2, 3, 5, 7))
        y = nm.conv2d(x, dense, rng.normal(size=dense.weight_shape))
        assert np.shares_memory(nm._im2col(y, pointwise, 5, 7), y)
        w = rng.normal(size=pointwise.weight_shape)
        np.testing.assert_allclose(nm.conv2d(y, pointwise, w), loop_conv2d(y, pointwise, w),
                                   rtol=1e-12, atol=1e-12)

    def test_shape_error_on_bad_weights(self, rng):
        spec = nm.ConvSpec(2, 3, kernel=3)
        with pytest.raises(nm.ShapeError):
            nm.conv2d(rng.normal(size=(1, 2, 5, 5)), spec, np.zeros((3, 2, 5, 5)))

    def test_numeric_error_on_nan(self):
        spec = nm.ConvSpec(1, 1, kernel=1)
        x = np.full((1, 1, 2, 2), np.nan)
        with pytest.raises(nm.NumericError):
            nm.conv2d(x, spec, np.ones((1, 1, 1, 1)))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("extra", [0, 1, 3])
    def test_shared_padded_copy_equals_own_copy(self, rng, stride, extra):
        spec = nm.ConvSpec(5, 5, kernel=3, stride=stride, padding=2, dilation=2, groups=5)
        x = rng.normal(size=(2, 5, 7, 6))
        w, b = rng.normal(size=spec.weight_shape), rng.normal(size=5)
        padded = nm._pad_channels_last(x, spec.padding + extra)
        assert padded.shape == (2, 7 + 2 * (2 + extra), 6 + 2 * (2 + extra), 5)
        np.testing.assert_array_equal(nm.conv2d(x, spec, w, b, padded=padded), nm.conv2d(x, spec, w, b))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_taps_write_into_out(self, rng, stride):
        """``out``, an NCHW view of one slot of a channels-last buffer, gets
        the bytes of a new result, from a shared copy or its own, and is
        returned; a shape that does not fit and the im2col path are
        rejected."""
        spec = nm.ConvSpec(5, 5, kernel=3, stride=stride, padding=2, dilation=2, groups=5)
        x = rng.normal(size=(2, 5, 7, 6))
        w, b = rng.normal(size=spec.weight_shape), rng.normal(size=5)
        oh, ow = spec.out_hw((7, 6))
        buffer = np.full((3, 2, oh, ow, 5), np.nan)
        out = buffer[1].transpose(0, 3, 1, 2)
        for padded in (None, nm._pad_channels_last(x, 3)):
            y = nm.conv2d(x, spec, w, b, padded=padded, out=out)
            assert y.shape == out.shape and y.strides == out.strides and np.shares_memory(y, buffer[1])
            assert exact(y) == exact(nm.conv2d(x, spec, w, b))
        assert np.isnan(buffer[[0, 2]]).all()
        with pytest.raises(nm.ShapeError, match="output array"):
            nm.conv2d(x, spec, w, out=out[:, :, 1:])
        dense = nm.ConvSpec(5, 5, kernel=3, padding=2)
        with pytest.raises(nm.ShapeError, match="output array"):
            nm.conv2d(x, dense, rng.normal(size=dense.weight_shape), out=np.empty((2, 5) + dense.out_hw((7, 6))))

    def test_padded_copy_that_does_not_fit_is_rejected(self, rng):
        spec = nm.ConvSpec(5, 5, kernel=3, padding=2, dilation=2, groups=5)
        x = rng.normal(size=(2, 5, 7, 6))
        w = rng.normal(size=spec.weight_shape)
        for bad in (nm._pad_channels_last(x, 1), nm._pad_channels_last(x[:, :, :, 1:], 3),
                    nm._pad_channels_last(x[:1], 2), nm._pad_channels_last(x[:, 1:], 2)):
            with pytest.raises(nm.ShapeError, match="padded copy"):
                nm.conv2d(x, spec, w, padded=bad)
        dense = nm.ConvSpec(5, 5, kernel=3, padding=2)
        with pytest.raises(nm.ShapeError, match="padded copy"):
            nm.conv2d(x, dense, rng.normal(size=dense.weight_shape), padded=nm._pad_channels_last(x, 2))

    def test_padded_copy_checks_its_input(self):
        x = np.zeros((1, 2, 3, 3))
        x[0, 1, 2, 0] = np.inf
        with pytest.raises(nm.NumericError, match="^non-finite values in conv2d input$"):
            nm._pad_channels_last(x, 1)


def reads(spec, out, tap):
    """Input rows (or columns) that kernel offset ``tap`` reads over ``out``
    output positions, padding included: negative or past the input's end."""
    return [tap * spec.dilation - spec.padding + i * spec.stride for i in range(out)]


class TestLiveTaps:
    """The taps path sums only the kernel offsets whose reads reach the
    input, and pads its copy only as far as those offsets read."""

    @given(
        channels=st.integers(1, 4), kernel=st.sampled_from([1, 3, 5]), stride=st.integers(1, 3),
        dilation=st.integers(1, 4), padding=st.integers(0, 5), extra_h=st.integers(0, 6),
        extra_w=st.integers(0, 6), batch=st.integers(1, 2), seed=st.integers(0, 2**16),
    )
    # A 1x1 input whose only tap, at stride 2 and padding 1, reads nothing
    # but padding, before and after the input.
    @example(channels=2, kernel=1, stride=2, dilation=1, padding=1, extra_h=0, extra_w=0, batch=1, seed=0)
    # EESP's dilation-4 branch on a 2x2 input: one live tap of nine.
    @example(channels=3, kernel=3, stride=1, dilation=4, padding=4, extra_h=1, extra_w=1, batch=2, seed=1)
    # A 2x5 input: one live row of taps, three live columns.
    @example(channels=2, kernel=3, stride=1, dilation=4, padding=4, extra_h=1, extra_w=4, batch=1, seed=2)
    @settings(max_examples=100, deadline=None)
    def test_skipped_taps_read_only_padding(self, channels, kernel, stride, dilation, padding, extra_h,
                                            extra_w, batch, seed):
        spec = nm.ConvSpec(channels, channels, kernel=kernel, stride=stride, padding=padding,
                           groups=channels, dilation=dilation)
        smallest = max(1, dilation * (kernel - 1) + 1 - 2 * padding)
        hw = (smallest + extra_h, smallest + extra_w)
        oh, ow = spec.out_hw(hw)
        live = nm.live_taps(spec, hw)
        margin = nm.live_margin(spec, hw)
        for (lo, hi), size, out in zip(live, hw, (oh, ow)):
            assert 0 <= lo <= hi <= kernel
            for tap in range(kernel):
                if any(0 <= r < size for r in reads(spec, out, tap)):
                    assert lo <= tap < hi
            if lo < hi:
                assert any(0 <= r < size for r in reads(spec, out, lo))
                assert any(0 <= r < size for r in reads(spec, out, hi - 1))
        assert 0 <= margin <= padding
        if all(lo < hi for lo, hi in live):
            # The live taps read within the margin, and some read reaches it.
            spans = [[r for tap in range(lo, hi) for r in reads(spec, out, tap)]
                     for (lo, hi), size, out in zip(live, hw, (oh, ow))]
            assert all(-margin <= min(span) and max(span) <= size - 1 + margin for span, size in zip(spans, hw))
            assert not margin or any(min(span) == -margin or max(span) == size - 1 + margin
                                     for span, size in zip(spans, hw))
        else:
            assert margin == 0
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(batch, channels) + hw)
        wt = rng.normal(size=spec.weight_shape)
        y = nm._depthwise_taps(nm._pad_channels_last(x, margin), margin, spec, wt, oh, ow)
        # channel_taps sums every tap, so it reads a copy padded by spec.padding.
        want = channel_taps(nm._pad_channels_last(x, padding), padding, spec, wt, oh, ow)
        if channels > 1:
            assert y.tobytes() == want.tobytes()
        np.testing.assert_allclose(y, loop_conv2d(x, spec, wt), rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(nm.conv2d(x, spec, wt), y)

    @pytest.mark.parametrize("hw, live, margin", [
        ((1, 1), ((1, 2), (1, 2)), 0),
        ((2, 2), ((1, 2), (1, 2)), 0),
        ((2, 4), ((1, 2), (1, 2)), 0),
        ((4, 7), ((1, 2), (0, 3)), 4),
        ((9, 9), ((0, 3), (0, 3)), 4),
    ])
    def test_eesp_dilation_4_branch(self, hw, live, margin):
        """Branch 4 of an EESP unit (3x3, dilation 4, padding 4): on an
        input of 4 or fewer rows only the centre row of taps is live."""
        spec = nm.ConvSpec(8, 8, kernel=3, padding=4, dilation=4, groups=8)
        assert nm.live_taps(spec, hw) == live
        assert nm.live_margin(spec, hw) == margin

    def test_no_live_tap_gives_zeros(self):
        spec = nm.ConvSpec(2, 2, kernel=1, stride=2, padding=1, groups=2)
        x = np.ones((1, 2, 1, 1))
        assert nm.live_taps(spec, (1, 1)) == ((0, 0), (0, 0))
        assert nm.live_margin(spec, (1, 1)) == 0
        y = nm.conv2d(x, spec, np.ones(spec.weight_shape), np.array([0.5, -1.0]))
        np.testing.assert_array_equal(y, np.array([0.5, -1.0])[None, :, None, None] * np.ones((1, 2, 2, 2)))

    @pytest.mark.parametrize("spec, hw, margin", [
        (nm.ConvSpec(5, 5, kernel=3, padding=3, dilation=3, groups=5), (1, 1), 0),
        (nm.ConvSpec(5, 5, kernel=3, padding=3, dilation=3, groups=5), (2, 3), 0),
        (nm.ConvSpec(5, 5, kernel=3, padding=3, dilation=3, groups=5), (7, 6), 3),
        (nm.ConvSpec(5, 5, kernel=5, padding=2, groups=5), (2, 2), 1),
        (nm.ConvSpec(5, 5, kernel=3, stride=2, padding=3, dilation=3, groups=5), (4, 3), 2),
    ])
    def test_padded_copy_narrower_than_the_live_margin_is_rejected(self, rng, spec, hw, margin):
        assert nm.live_margin(spec, hw) == margin
        x = rng.normal(size=(2, 5) + hw)
        w = rng.normal(size=spec.weight_shape)
        want = loop_conv2d(x, spec, w)
        for wider in (margin, margin + 1, spec.padding + 1):
            np.testing.assert_allclose(nm.conv2d(x, spec, w, padded=nm._pad_channels_last(x, wider)), want,
                                       rtol=1e-12, atol=1e-12)
        if margin:
            with pytest.raises(nm.ShapeError, match="padded copy"):
                nm.conv2d(x, spec, w, padded=nm._pad_channels_last(x, margin - 1))

    def test_lone_convolution_pads_to_the_live_margin(self, rng, monkeypatch):
        margins, real = [], nm._pad_channels_last
        monkeypatch.setattr(nm, "_pad_channels_last", lambda x, margin: margins.append(margin) or real(x, margin))
        spec = nm.ConvSpec(3, 3, kernel=3, padding=2, dilation=2, groups=3)
        for hw in ((1, 1), (2, 2), (3, 5), (6, 6)):
            nm.conv2d(rng.normal(size=(1, 3) + hw), spec, rng.normal(size=spec.weight_shape))
        assert margins == [0, 0, 2, 2]


# Convolutions whose GEMM is walked in row runs: skinny (N <= 32 columns),
# a column tensor of at most one block and more than two runs' MACs.  A
# strided dense 3x3 (K=1440, N=8: runs of 45 rows), a 1x1 on channel-major
# and on channels-last input (K=2048, N=8: 32 rows) and a grouped 3x3
# (K=2880 per group, N=8: 22 rows).
WALKED = {
    "dense_strided": (nm.ConvSpec(160, 192, kernel=3, stride=2, padding=1), (8, 160, 2, 2), "nchw"),
    "pointwise": (nm.ConvSpec(2048, 96, kernel=1), (2, 2048, 2, 2), "nchw"),
    "pointwise_channels_last": (nm.ConvSpec(2048, 96, kernel=1), (2, 2048, 2, 2), "nhwc"),
    "grouped": (nm.ConvSpec(640, 192, kernel=3, padding=1, groups=2), (2, 640, 2, 2), "nchw"),
}


def walked_case(rng, name):
    spec, shape, layout = WALKED[name]
    if layout == "nhwc":
        x = rng.normal(size=(shape[0], *shape[2:], shape[1])).transpose(0, 3, 1, 2)
    else:
        x = rng.normal(size=shape)
    return spec, x, rng.normal(size=spec.weight_shape), rng.normal(size=spec.out_channels)


def gemm_operands(x, spec, w):
    """(wg, columns, rows per run) of the GEMM ``conv2d`` runs for x."""
    oh, ow = spec.out_hw(x.shape[2:])
    columns = nm._im2col(x, spec, oh, ow)
    wg = w.reshape(spec.groups, spec.out_channels // spec.groups, -1)
    return wg, columns, nm._run_rows(*wg.shape[1:], columns.shape[2])


def as_output(y, spec, x):
    """A (g, m, N) GEMM result as conv2d lays out its output."""
    oh, ow = spec.out_hw(x.shape[2:])
    return y.reshape(spec.out_channels, x.shape[0], oh, ow).transpose(1, 0, 2, 3)


class TestRowBlockedGemm:
    """A skinny GEMM walks its weights in row runs, each written into its
    slice of one output, and can sum the weights' squares on the way."""

    @pytest.mark.parametrize("name", WALKED)
    def test_equals_a_matmul_per_run_byte_for_byte(self, rng, name):
        spec, x, w, b = walked_case(rng, name)
        wg, columns, rows = gemm_operands(x, spec, w)
        assert 0 < rows < wg.shape[1]
        want = as_output(row_run_matmul(wg, columns, rows), spec, x) + b[None, :, None, None]
        assert exact(nm.conv2d(x, spec, w, b)) == exact(want)

    @pytest.mark.parametrize("name", WALKED)
    def test_is_within_rounding_of_one_matmul(self, rng, name):
        spec, x, w, b = walked_case(rng, name)
        wg, columns, _ = gemm_operands(x, spec, w)
        whole = as_output(np.matmul(wg, columns), spec, x) + b[None, :, None, None]
        np.testing.assert_allclose(nm.conv2d(x, spec, w, b), whole, rtol=1e-13,
                                   atol=1e-13 * np.abs(whole).max())

    # (spec, input shape, walked): just past and at each of the rule's three
    # limits.  The GEMMs are (m x K) by (K x N).
    BOUNDARY = [
        # m*K*N = 2**20 + K*N, two runs and a row; then exactly two runs.
        (nm.ConvSpec(1024, 129, kernel=1), (2, 1024, 2, 2), True),
        (nm.ConvSpec(1024, 128, kernel=1), (2, 1024, 2, 2), False),
        # N = 32 columns; then 36.
        (nm.ConvSpec(512, 80, kernel=1), (2, 512, 4, 4), True),
        (nm.ConvSpec(512, 80, kernel=1), (1, 512, 6, 6), False),
        # K*N = 2**16, one block of columns; then 2**16 + 32.
        (nm.ConvSpec(2048, 24, kernel=1), (2, 2048, 4, 4), True),
        (nm.ConvSpec(2049, 24, kernel=1), (2, 2049, 4, 4), False),
    ]

    @pytest.mark.parametrize("spec, shape, walked", BOUNDARY)
    def test_the_rule_at_its_limits(self, rng, monkeypatch, spec, shape, walked):
        """A GEMM past any limit takes one matmul, to its bytes."""
        x, w = rng.normal(size=shape), rng.normal(size=spec.weight_shape)
        wg, columns, rows = gemm_operands(x, spec, w)
        assert bool(rows) == walked
        walks, real = [], nm._row_blocked_matmul
        monkeypatch.setattr(nm, "_row_blocked_matmul", lambda *a: walks.append(a[2]) or real(*a))
        y = nm.conv2d(x, spec, w)
        assert walks == ([rows] if walked else [])
        want = row_run_matmul(wg, columns, rows) if walked else np.matmul(wg, columns)
        assert exact(y) == exact(as_output(want, spec, x))

    def test_grouped_equals_its_per_group_calls_byte_for_byte(self, rng):
        """One walked grouped convolution is the same bytes as a walked
        convolution per group, as EESP's expand runs one per input."""
        spec, x, w, b = walked_case(rng, "grouped")
        g = spec.groups
        group_spec = nm.ConvSpec(spec.in_channels // g, spec.out_channels // g, kernel=spec.kernel,
                                 padding=spec.padding)
        y = nm.conv2d(x, spec, w, b)
        runs = [nm.conv2d(xg, group_spec, wg, bg)
                for xg, wg, bg in zip(np.split(x, g, axis=1), np.split(w, g), np.split(b, g))]
        assert exact(y) == exact(np.concatenate(runs, axis=1))

    def test_columns_of_a_walk(self, rng):
        spec, x, w, b = walked_case(rng, "pointwise")
        y, columns = nm.conv2d(x, spec, w, b, return_columns=True)
        assert exact(y) == exact(nm.conv2d(x, spec, w, b))
        assert exact(columns) == exact(gemm_operands(x, spec, w)[1])


class TestLinear:
    def test_identity(self, rng):
        x = rng.normal(size=5)
        y = nm.linear(x, np.eye(5), np.zeros(5))
        np.testing.assert_allclose(y, x)

    def test_forced_arithmetic(self):
        assert nm.linear(np.array([2.0, 3.0]), np.array([[1.0, 1.0]]), np.array([0.0])) == np.array([5.0])

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=512)
        w = rng.normal(size=(8, 512))
        b = rng.normal(size=8)
        expect = np.array([sum(w[o, i] * x[i] for i in range(512)) + b[o] for o in range(8)])
        np.testing.assert_allclose(nm.linear(x, w, b), expect, rtol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(nm.ShapeError):
            nm.linear(np.zeros(3), np.zeros((2, 4)))

    def test_stack_equals_each_entry(self, rng):
        x = rng.normal(size=(3, 5, 7))
        w = rng.normal(size=(3, 4, 7))
        b = rng.normal(size=(3, 4))
        gy = rng.normal(size=(3, 5, 4))
        y = nm.linear(x, w, b)
        grads = nm.linear_backward(gy, x, w)
        for k in range(3):
            assert y[k].tobytes() == nm.linear(x[k], w[k], b[k]).tobytes()
            for got, expect in zip(grads, nm.linear_backward(gy[k], x[k], w[k])):
                assert got[k].tobytes() == expect.tobytes()

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((2, 5, 7), (3, 4, 7), (3, 4)),
        ((5, 7), (3, 4, 7), (3, 4)),
        ((2, 5, 7), (4, 7), (4,)),
        ((2, 5, 7), (2, 4, 7), (4,)),
        ((2, 5, 7), (2, 4, 7), (3, 4)),
    ])
    def test_stack_mismatch(self, x_shape, w_shape, b_shape):
        with pytest.raises(nm.ShapeError):
            nm.linear(np.zeros(x_shape), np.zeros(w_shape), np.zeros(b_shape))

    def test_backward_stack_mismatch(self):
        with pytest.raises(nm.ShapeError):
            nm.linear_backward(np.zeros((2, 5, 4)), np.zeros((2, 5, 7)), np.zeros((3, 4, 7)))


class TestGlobalAvgPool:
    def test_constant(self):
        x = np.full((2, 3, 4, 4), 2.5)
        np.testing.assert_array_equal(nm.global_avg_pool(x), np.full((2, 3), 2.5))

    def test_mean_1_to_49(self):
        x = np.arange(1.0, 50.0).reshape(1, 1, 7, 7)
        assert nm.global_avg_pool(x)[0, 0] == 25.0

    def test_matches_loop_oracle(self, rng):
        x = rng.normal(size=(1, 512, 7, 7))
        expect = np.array([[x[b, c].sum() / 49.0 for c in range(512)] for b in range(1)])
        np.testing.assert_allclose(nm.global_avg_pool(x), expect, rtol=1e-12)

    def test_adjoint_is_laid_out_as_a_conv_output(self, rng):
        spec = nm.ConvSpec(3, 4, kernel=3, padding=1)
        y = nm.conv2d(rng.normal(size=(2, 3, 5, 5)), spec, rng.normal(size=spec.weight_shape))
        up = rng.normal(size=(2, 4))
        g = nm.global_avg_pool_backward(up, y.shape)
        assert g.strides == y.strides
        np.testing.assert_array_equal(g, np.broadcast_to(up[:, :, None, None] / 25.0, y.shape))


SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))


class TestActivations:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(SIGNED, SIGNED), min_size=1, max_size=16))
    def test_relu_backward_equals_where_oracle(self, pairs):
        """Equal values, and np.where's bytes with -0.0 read as +0.0: a masked
        negative adjoint gives +0.0, and so does an unmasked -0.0."""
        grad, x = np.array(pairs).T
        got, want = nm.relu_backward(grad, x), where_relu_backward(grad, x)
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == (want + 0.0).tobytes()
        assert not np.signbit(got[got == 0.0]).any()

    def test_relu_backward_masked_nonfinite_adjoint_is_nan(self):
        """Where np.where gives 0, the product with the mask gives NaN; a
        gradient step rejects it."""
        x = np.array([-1.0, -0.0, 0.0, -2.0, 3.0, 3.0, 3.0])
        grad = np.array([np.inf, -np.inf, np.nan, 5.0, np.inf, -np.inf, np.nan])
        np.testing.assert_array_equal(nm.relu_backward(grad, x),
                                      [np.nan, np.nan, np.nan, 0.0, np.inf, -np.inf, np.nan])
        np.testing.assert_array_equal(where_relu_backward(grad, x),
                                      [0.0, 0.0, 0.0, 0.0, np.inf, -np.inf, np.nan])

    def test_relu_backward_keeps_the_adjoint_layout(self, rng):
        x = rng.normal(size=(2, 5, 4, 3)).transpose(0, 3, 1, 2)
        grad = rng.normal(size=(3, 2, 5, 4)).transpose(1, 0, 2, 3)
        assert nm.relu_backward(grad, x).strides == where_relu_backward(grad, x).strides

    def test_softmax_uniform(self):
        np.testing.assert_allclose(nm.softmax(np.zeros(8)), np.full(8, 0.125))

    def test_sigmoid_tanh_at_zero(self):
        assert nm.sigmoid(np.array(0.0)) == 0.5

    def test_sigmoid_equals_two_branch_form_at_edges(self):
        tiny = np.nextafter(0.0, 1.0)
        x = np.array([0.0, -0.0, np.inf, -np.inf, 709.0, -709.0, 745.0, -745.0, -746.0,
                      tiny, -tiny, 2.2e-308, -2.2e-308, 36.7, -36.7, 1e-300, -1e-300])
        assert nm.sigmoid(x).tobytes() == two_branch_sigmoid(x).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False), st.floats(-800.0, 800.0),
                              st.floats(-1e-300, 1e-300)), min_size=1, max_size=12))
    def test_sigmoid_equals_two_branch_form(self, values):
        x = np.array(values)
        assert nm.sigmoid(x).tobytes() == two_branch_sigmoid(x).tobytes()

    def test_sigmoid_keeps_0d_and_nan(self):
        y = nm.sigmoid(np.array(-3.0))
        assert isinstance(y, np.ndarray) and y.shape == ()
        assert y == two_branch_sigmoid(np.array(-3.0))
        assert np.isnan(nm.sigmoid(np.array([np.nan]))[0])

    def test_softmax_overflow_stability(self):
        y = nm.softmax(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(y, [0.5, 0.5])
        assert np.all(np.isfinite(y))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=16))
    def test_softmax_is_probability_vector(self, logits):
        y = nm.softmax(np.array(logits))
        assert np.all(y >= 0)
        assert abs(y.sum() - 1.0) <= 1e-12
