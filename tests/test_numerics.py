import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affectpipe import numerics as nm

from conftest import (channel_taps, exact, loop_conv2d, loop_conv2d_backward, offset_conv2d, pad_im2col,
                      two_branch_sigmoid, where_relu_backward)

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
        ("padding", 0.5, "nonnegative"), ("out_channels", 2.5, "positive"),
        ("in_channels", "3", "positive"), ("groups", np.float64(1.0), "positive"),
        ("padding", False, "nonnegative"), ("dilation", 0, "positive"), ("padding", -1, "nonnegative"),
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
        assert y.strides == want.strides
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
