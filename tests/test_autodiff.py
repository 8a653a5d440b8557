import math

import numpy as np
import pytest

from orthoseg import autodiff as ad
from orthoseg import network
from orthoseg.cli import _gradcheck_cases
from orthoseg.errors import ConfigurationError, DataError, OrthosegError


def t64(arr, rg=False):
    return ad.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


def conv_oracle(x, w, b, dilation):
    """Direct nested-loop stride-1 convolution, zero same-padding."""
    n, ci, h, wid = x.shape
    co, _, kh, kw = w.shape
    ekh = kh + (kh - 1) * (dilation - 1)
    ekw = kw + (kw - 1) * (dilation - 1)
    ph, pw = (ekh - 1) // 2, (ekw - 1) // 2
    ho, wo = h + 2 * ph - ekh + 1, wid + 2 * pw - ekw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, co, ho, wo))
    for nn in range(n):
        for o in range(co):
            for y in range(ho):
                for xx in range(wo):
                    acc = 0.0
                    for c in range(ci):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[nn, c, y + i * dilation, xx + j * dilation] * w[o, c, i, j]
                    out[nn, o, y, xx] = acc + b[o]
    return out


def linear_grad(f, shape, g):
    """Gradient of sum(g * f(v)) for f linear in v: one oracle call per basis vector."""
    grad = np.zeros(shape)
    for idx in np.ndindex(*shape):
        basis = np.zeros(shape)
        basis[idx] = 1.0
        grad[idx] = (g * f(basis)).sum()
    return grad


def check_conv_against_oracle(rng, shape, k, dil):
    """conv2d output and x/w/b gradients against conv_oracle, float64."""
    x = rng.normal(size=shape)
    w = rng.normal(size=(2, shape[1], k, k))
    b = rng.normal(size=2)
    xt, wt, bt = t64(x, rg=True), t64(w, rg=True), t64(b, rg=True)
    out = ad.conv2d(xt, wt, bt, dilation=dil)
    expected = conv_oracle(x, w, b, dil)
    np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)
    g = rng.normal(size=expected.shape)
    ad.backward(ad.tsum(ad.mul(out, t64(g))))
    zb = np.zeros(2)
    np.testing.assert_allclose(
        xt.grad, linear_grad(lambda v: conv_oracle(v, w, zb, dil), x.shape, g), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        wt.grad, linear_grad(lambda v: conv_oracle(x, v, zb, dil), w.shape, g), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(bt.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12, atol=1e-12)


class TestConv2d:
    def test_ones_counting(self):
        x = t64(np.ones((1, 1, 3, 3)))
        w = t64(np.ones((1, 1, 3, 3)))
        b = t64(np.zeros(1))
        out = ad.conv2d(x, w, b, dilation=1, padding="same").data
        assert out[0, 0, 1, 1] == 9.0
        assert out[0, 0, 0, 0] == 4.0

    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = t64(rng.normal(size=(1, 1, 5, 5)))
        w = t64(np.ones((1, 1, 1, 1)))
        b = t64(np.zeros(1))
        out = ad.conv2d(x, w, b).data
        np.testing.assert_array_equal(out, x.data)

    def test_dilation_equals_zero_inserted_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = ad.conv2d(t64(x), t64(w), t64(b), dilation=2, padding="same").data
        w5 = np.zeros((3, 2, 5, 5))
        w5[:, :, ::2, ::2] = w
        expected = conv_oracle(x, w5, b, 1)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        cases = [
            ((2, 3, 6, 7), 3, 1),
            ((2, 3, 6, 7), 3, 2),
            ((1, 2, 5, 9), 3, 3),  # H != W: wrap-around columns
            ((1, 2, 4, 5), 3, 11),  # off-centre taps read only padding
            ((2, 3, 5, 6), 1, 1),  # 1x1 kernel
            # three images side by side: dilation 3 on 4x5 reaches the spare
            # row and the next image's block, so a leak across images shows
            ((3, 2, 4, 5), 3, 3),
            ((3, 2, 4, 5), 1, 1),
        ]
        for case in cases:
            check_conv_against_oracle(rng, *case)

    def test_column_blocks_match_loop_oracle(self, monkeypatch):
        # 5-column GEMMs, so every tap spans several blocks and a ragged last one
        monkeypatch.setattr(ad, "_BLAS_SERIAL_MACS", 2 * 3 * 5 + 1)
        assert ad._column_blocks(2 * 3, 12) == [(0, 5), (5, 10), (10, 12)]
        rng = np.random.default_rng(4)
        cases = [((2, 3, 6, 7), 3, 2), ((1, 3, 5, 9), 3, 1), ((3, 3, 4, 5), 3, 3), ((3, 3, 4, 5), 1, 1)]
        for case in cases:
            check_conv_against_oracle(rng, *case)

    def test_large_tap_blocks_match_loop_oracle(self, monkeypatch):
        # every tap large, in 5-column blocks: several per tap and a ragged last one
        monkeypatch.setattr(ad, "_SMALL_TAP_MACS", 1)
        monkeypatch.setattr(ad, "_LARGE_TAP_COLUMNS", 5)
        assert ad._column_blocks(2 * 3, 12) == [(0, 5), (5, 10), (10, 12)]
        rng = np.random.default_rng(7)
        cases = [((2, 3, 6, 7), 3, 2), ((1, 3, 5, 9), 3, 1), ((3, 3, 4, 5), 3, 3), ((3, 3, 4, 5), 1, 1)]
        for case in cases:
            check_conv_against_oracle(rng, *case)
        check_conv_groups_against_oracle(rng, [(2, True, True), (4, False, True)], 2, 3, 2)

    def test_column_blocks_cover_each_tap(self):
        for rows_by_depth, length in [(16 * 16, 1088), (32 * 76, 1152), (6 * 22, 16384), (306 * 306, 66048)]:
            blocks = ad._column_blocks(rows_by_depth, length)
            assert [c0 for c0, _ in blocks] == [0] + [c1 for _, c1 in blocks[:-1]]
            assert blocks[-1][1] == length
            if rows_by_depth * length < ad._SMALL_TAP_MACS:
                assert all(rows_by_depth * (c1 - c0) < ad._BLAS_SERIAL_MACS for c0, c1 in blocks)
            else:
                assert all(c1 - c0 <= ad._LARGE_TAP_COLUMNS for c0, c1 in blocks)
        assert len(ad._column_blocks(306 * 306, 66048)) == 17  # 16 full blocks and a ragged one

    def test_pruned_gradients_leave_others_bitwise_equal(self):
        rng = np.random.default_rng(3)
        x, w1, w2 = rng.normal(size=(1, 2, 5, 6)), rng.normal(size=(3, 2, 3, 3)), rng.normal(size=(2, 3, 3, 3))
        b1, b2 = rng.normal(size=3), rng.normal(size=2)

        def run(prune):
            xt, w1t = t64(x, rg=not prune), t64(w1, rg=not prune)
            rest = [t64(a, rg=True) for a in (b1, w2, b2)]
            h = ad.conv2d(xt, w1t, rest[0], dilation=2)
            ad.backward(ad.tsum(ad.conv2d(ad.elu(h), rest[1], rest[2])))
            return h, [t.grad for t in rest]

        h, pruned = run(prune=True)
        gx, gw, gb = h._backward(np.ones_like(h.data))
        assert gx is None and gw is None and gb is not None
        for a, full in zip(pruned, run(prune=False)[1]):
            np.testing.assert_array_equal(a, full)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ad.conv2d(t64(np.ones((1, 2, 4, 4))), t64(np.ones((1, 3, 3, 3))), t64(np.zeros(1)))

    def test_only_same_padding_accepted(self):
        with pytest.raises(ConfigurationError, match="padding"):
            ad.conv2d(t64(np.ones((1, 2, 4, 4))), t64(np.ones((1, 2, 3, 3))), t64(np.zeros(1)),
                      padding="valid")


def up2(a):
    return a.repeat(2, axis=2).repeat(2, axis=3)


def check_conv_groups_against_oracle(rng, spec, n, k, dil):
    """conv2d over a list of inputs, each (channels, half resolution,
    requires_grad) in ``spec``, against conv_oracle over
    concat(up2(half), full, ...), float64; inputs without requires_grad
    must get exactly None."""
    parts = [rng.normal(size=(n, c, 2, 3) if half else (n, c, 4, 6)) for c, half, _ in spec]
    w, b = rng.normal(size=(2, sum(c for c, _, _ in spec), k, k)), rng.normal(size=2)

    def dense(vs):
        return np.concatenate([up2(v) if v.shape[2] == 2 else v for v in vs], axis=1)

    ts = [t64(v, rg=grad) for v, (_, _, grad) in zip(parts, spec)]
    wt, bt = t64(w, rg=True), t64(b, rg=True)
    out = ad.conv2d(ts, wt, bt, dilation=dil)
    expected = conv_oracle(dense(parts), w, b, dil)
    np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)

    g = rng.normal(size=expected.shape)
    ad.backward(ad.tsum(ad.mul(out, t64(g))))
    zb = np.zeros(2)
    for i, (t, (_, _, grad)) in enumerate(zip(ts, spec)):
        if not grad:
            assert t.grad is None
            continue

        def f(v, i=i):  # linear in v: the other inputs are zero
            return conv_oracle(dense([v if k == i else 0 * u for k, u in enumerate(parts)]), w, zb, dil)
        np.testing.assert_allclose(t.grad, linear_grad(f, parts[i].shape, g), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        wt.grad, linear_grad(lambda v: conv_oracle(dense(parts), v, zb, dil), w.shape, g),
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(bt.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12, atol=1e-12)


class TestConv2dGroups:
    # (channels, half resolution, requires_grad) per input
    LAYOUTS = {
        "half_first": [(2, True, True), (1, False, True), (1, False, False)],
        "full_first": [(1, False, False), (2, True, True), (1, False, True), (1, True, False)],
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n, k, dil", [(1, 3, 2), (3, 3, 2), (1, 3, 4), (3, 3, 4), (3, 1, 2)])
    def test_matches_loop_oracle_over_upsampled_concat(self, layout, n, k, dil):
        rng = np.random.default_rng([n, k, dil, len(layout)])
        check_conv_groups_against_oracle(rng, self.LAYOUTS[layout], n, k, dil)

    def test_column_blocks_match_loop_oracle(self, monkeypatch):
        # 5-column GEMMs for the 2x4-channel pack, so taps span several blocks
        monkeypatch.setattr(ad, "_BLAS_SERIAL_MACS", 2 * 4 * 5 + 1)
        rng = np.random.default_rng(6)
        for dil in (2, 4):
            check_conv_groups_against_oracle(rng, [(2, True, True), (4, False, True)], 2, 3, dil)

    def test_inputs_without_grad_get_none(self):
        rng = np.random.default_rng(5)
        half, full = t64(rng.normal(size=(1, 2, 2, 3))), t64(rng.normal(size=(1, 1, 4, 6)), rg=True)
        out = ad.conv2d([half, full], t64(rng.normal(size=(2, 3, 3, 3))), t64(np.zeros(2)), dilation=2)
        ghalf, gfull, gw, gb = out._backward(np.ones_like(out.data))
        assert ghalf is None and gw is None and gb is None
        assert gfull.shape == full.data.shape

    @pytest.mark.parametrize("dil", [1, 3])
    def test_odd_dilation_with_half_resolution_rejected(self, dil):
        half, full = t64(np.ones((1, 1, 2, 3))), t64(np.ones((1, 1, 4, 6)))
        with pytest.raises(ConfigurationError, match="even dilation"):
            ad.conv2d([half, full], t64(np.ones((1, 2, 3, 3))), t64(np.zeros(1)), dilation=dil)

    def test_other_extents_rejected(self):
        odd, full = t64(np.ones((1, 1, 3, 3))), t64(np.ones((1, 1, 4, 6)))
        with pytest.raises(ConfigurationError, match="neither"):
            ad.conv2d([odd, full], t64(np.ones((1, 2, 3, 3))), t64(np.zeros(1)), dilation=2)


class TestMaxPool2:
    def test_single_window(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert ad.max_pool2(x).data[0, 0, 0, 0] == 4.0

    def test_tie_routes_to_first_element(self):
        x = t64(np.full((1, 1, 2, 2), 7.0), rg=True)
        out = ad.max_pool2(x)
        ad.backward(ad.tsum(out))
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_matches_window_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 1, 6, 6))
        out = ad.max_pool2(t64(x)).data
        for i in range(3):
            for j in range(3):
                assert out[0, 0, i, j] == x[0, 0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()

    def test_odd_extent_rejected(self):
        with pytest.raises(ConfigurationError):
            ad.max_pool2(t64(np.ones((1, 1, 3, 4))))


def avg_pool_oracle(x, k):
    """Edge-corrected k x k stride-1 ``same`` mean via explicit window loops."""
    n, c, h, w = x.shape
    r = k // 2
    out = np.zeros((n, c, h, w))
    for nn in range(n):
        for cc in range(c):
            for y in range(h):
                for xx in range(w):
                    vals = []
                    for i in range(k):
                        for j in range(k):
                            rr, ss = y + i - r, xx + j - r
                            if 0 <= rr < h and 0 <= ss < w:
                                vals.append(x[nn, cc, rr, ss])
                    out[nn, cc, y, xx] = sum(vals) / len(vals)
    return out


class TestAvgPool:
    def test_single_window(self):
        # every 3x3 window covers the whole 2x2 input
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_array_equal(ad.avg_pool(x, 3, stride=1, padding="same").data, 2.5)

    def test_constant_stays_constant_with_edges(self):
        x = t64(np.full((1, 1, 7, 7), 3.25))
        out = ad.avg_pool(x, 5, stride=1, padding="same").data
        np.testing.assert_allclose(out, 3.25, rtol=0, atol=1e-12)

    def test_matches_edge_corrected_oracle(self):
        rng = np.random.default_rng(4)
        for shape, k in [((1, 1, 9, 9), 5), ((2, 2, 7, 8), 3)]:
            x = rng.normal(size=shape)
            xt = t64(x, rg=True)
            out = ad.avg_pool(xt, k, stride=1, padding="same")
            expected = avg_pool_oracle(x, k)
            np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)
            g = rng.normal(size=expected.shape)
            ad.backward(ad.tsum(ad.mul(out, t64(g))))
            np.testing.assert_allclose(
                xt.grad, linear_grad(lambda v: avg_pool_oracle(v, k), shape, g), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k, stride, padding", [(2, 2, "valid"), (3, 2, "same"), (4, 1, "same")])
    def test_other_geometries_rejected(self, k, stride, padding):
        with pytest.raises(ConfigurationError):
            ad.avg_pool(t64(np.ones((1, 1, 8, 8))), k, stride, padding)


class TestUpsample2:
    def test_block_replication(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = ad.upsample2(x).data
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float64)
        np.testing.assert_array_equal(out[0, 0], expected)

    def test_avg_pool_inverts(self):
        # the decoder feeds' 2x2-mean level of an upsampled map is the map
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 4, 4))
        up = ad.upsample2(t64(x)).data
        down = network._input_feeds(up, 2)[1].data[:, :2]
        np.testing.assert_array_equal(down, x)

    def test_gradient_of_sum_is_four(self):
        x = t64(np.random.default_rng(7).normal(size=(1, 1, 3, 3)), rg=True)
        ad.backward(ad.tsum(ad.upsample2(x)))
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 3, 3), 4.0))


class TestElu:
    def test_values(self):
        x = t64([[[[0.0, 2.0, -1.0]]]])
        out = ad.elu(x).data.ravel()
        assert out[0] == 0.0
        assert out[1] == 2.0
        assert out[2] == pytest.approx(math.exp(-1) - 1, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_values_match_closed_form(self, dtype):
        # x above 0, expm1(x) at or below; derivative 1 above 0, exp(x) at or
        # below (0 at -inf)
        tiny = np.finfo(dtype).smallest_subnormal
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, -100.0, tiny, -tiny, 1e38, -1.5, 2.5]
        xs = [dtype(v) for v in values]
        x = ad.Tensor(np.array(xs, dtype=dtype).reshape(1, 1, 1, -1), requires_grad=True)
        out = ad.elu(x)
        ad.backward(ad.tsum(out))
        assert out.data.dtype == x.grad.dtype == dtype
        np.testing.assert_array_equal(out.data.ravel(), [v if v > 0 else np.expm1(v) for v in xs])
        eps = np.finfo(dtype).eps
        np.testing.assert_allclose(x.grad.ravel(), [1 if v > 0 else np.exp(v) for v in xs],
                                   rtol=4 * eps, atol=eps)


class TestSoftmax:
    def test_uniform(self):
        x = t64(np.full((1, 6, 2, 2), 1.7))
        out = ad.softmax_channels(x).data
        np.testing.assert_allclose(out, 1 / 6, rtol=1e-12)

    def test_closed_form_ln2(self):
        x = np.zeros((1, 2, 1, 1))
        x[0, 1] = math.log(2)
        out = ad.softmax_channels(t64(x + 0.37)).data.ravel()
        np.testing.assert_allclose(out, [1 / 3, 2 / 3], rtol=1e-12)

    def test_shift_invariance_and_normalization(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 6, 4, 4))
        p1 = ad.softmax_channels(t64(x)).data
        p2 = ad.softmax_channels(t64(x + 5.5)).data
        np.testing.assert_allclose(p1, p2, atol=1e-6)
        np.testing.assert_allclose(p1.sum(axis=1), 1.0, atol=1e-6)


class TestConcatAddScale:
    def test_concat_order_preserved(self):
        a = t64(np.full((1, 3, 2, 2), 1.0))
        b = t64(np.full((1, 3, 2, 2), 2.0))
        out = ad.concat_channels([a, b]).data
        assert out.shape == (1, 6, 2, 2)
        assert out[0, 0, 0, 0] == 1.0 and out[0, 3, 0, 0] == 2.0

    def test_concat_single_identity(self):
        a = t64(np.random.default_rng(9).normal(size=(1, 2, 3, 3)))
        np.testing.assert_array_equal(ad.concat_channels([a]).data, a.data)

    def test_concat_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ad.concat_channels([t64(np.ones((1, 1, 2, 2))), t64(np.ones((1, 1, 3, 2)))])

    def test_scale_and_add(self):
        x = t64(np.full((1, 1, 1, 1), 6.0))
        assert ad.scale_const(x, 1 / 6).data.item() == pytest.approx(1.0)
        z = t64(np.zeros((1, 1, 1, 1)))
        np.testing.assert_array_equal(ad.add(x, z).data, x.data)

    def test_scale_gradient(self):
        x = t64(np.random.default_rng(10).normal(size=(1, 1, 2, 2)), rg=True)
        ad.backward(ad.tsum(ad.scale_const(x, 1 / 20)))
        np.testing.assert_allclose(x.grad, 0.05, rtol=1e-12)


class TestStopGradient:
    def test_forward_bitwise_identity(self):
        x = t64(np.random.default_rng(11).normal(size=(1, 2, 3, 3)))
        np.testing.assert_array_equal(ad.stop_gradient(x).data, x.data)

    def test_gradient_exactly_zero(self):
        x = t64(np.ones((1, 1, 2, 2)), rg=True)
        ad.backward(ad.tsum(ad.stop_gradient(x)))
        assert x.grad is None

    def test_residual_chain_pattern(self):
        # grad of sum(x + sg(f(x))) is all ones regardless of f
        x = t64(np.random.default_rng(12).normal(size=(1, 1, 3, 3)), rg=True)
        f = ad.mul(x, x)
        out = ad.add(x, ad.stop_gradient(f))
        ad.backward(ad.tsum(out))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


class TestDmgn:
    def test_noiserate_zero_identity(self):
        x = t64(np.random.default_rng(13).normal(size=(1, 4, 2, 2)))
        rng = np.random.default_rng(0)
        assert ad.dmgn(x, 0.0, True, rng) is x  # no node, so bitwise identity
        assert ad.dmgn(x, 0.5, False) is x

    def test_std_formula(self):
        assert math.sqrt(0.5 / 0.5) == 1.0
        assert math.sqrt(0.0625 / 0.9375) == pytest.approx(0.2581988897471611, abs=1e-12)

    def test_empirical_stats(self):
        ones = t64(np.ones((1, 100000, 1, 1)))
        rng = np.random.default_rng(42)
        draws = ad.dmgn(ones, 0.0625, True, rng).data.ravel()
        assert abs(draws.mean() - 1.0) < 0.01
        target = math.sqrt(0.0625 / 0.9375)
        assert abs(draws.std() - target) / target < 0.05

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ad.dmgn(t64(np.ones((1, 1, 1, 1))), 1.0, True, np.random.default_rng(0))

    def test_determinism(self):
        x = t64(np.random.default_rng(14).normal(size=(2, 3, 4, 4)))
        a = ad.dmgn(x, 0.25, True, np.random.default_rng(5)).data
        b = ad.dmgn(x, 0.25, True, np.random.default_rng(5)).data
        np.testing.assert_array_equal(a, b)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        p = np.zeros((1, 3, 2, 2))
        p[0, 1] = 1.0
        lab = np.ones((1, 2, 2), dtype=np.int64)
        assert ad.cross_entropy_loss(t64(p), lab).data.item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_ln6(self):
        p = np.full((1, 6, 3, 3), 1 / 6)
        lab = np.zeros((1, 3, 3), dtype=np.int64)
        assert ad.cross_entropy_loss(t64(p), lab).data.item() == pytest.approx(math.log(6), abs=1e-9)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(15)
        logits = rng.normal(size=(1, 6, 4, 4))
        p = ad.softmax_channels(t64(logits)).data
        lab = rng.integers(0, 6, size=(1, 4, 4))
        loss = ad.cross_entropy_loss(t64(p), lab).data.item()
        acc = 0.0
        for h in range(4):
            for w in range(4):
                acc += -math.log(max(p[0, lab[0, h, w], h, w], 1e-12))
        assert loss == pytest.approx(acc / 16, rel=1e-12)

    def test_label_out_of_range(self):
        p = np.full((1, 2, 1, 1), 0.5)
        for label in (2, 5, -1):
            with pytest.raises(DataError, match=r"label out of range \[0,2\)"):
                ad.cross_entropy_loss(t64(p), np.array([[[label]]]))


class TestBackwardBasics:
    def test_sum_grad_ones(self):
        x = t64(np.random.default_rng(16).normal(size=(1, 2, 3, 3)), rg=True)
        ad.backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_square_grad(self):
        x = t64(np.full((1, 1, 1, 1), 3.0), rg=True)
        ad.backward(ad.tsum(ad.mul(x, x)))
        assert x.grad.item() == pytest.approx(6.0, abs=1e-12)

    def test_non_scalar_backward_rejected(self):
        x = t64(np.ones((1, 1, 2, 2)), rg=True)
        with pytest.raises(OrthosegError):
            ad.backward(ad.add(x, x))

    def test_constant_tensor_never_accumulates(self):
        x = t64(np.ones((1, 1, 2, 2)), rg=True)
        c = t64(np.ones((1, 1, 2, 2)))
        ad.backward(ad.tsum(ad.mul(x, c)))
        assert c.grad is None


class TestFiniteDiff:
    @pytest.mark.parametrize("case", _gradcheck_cases(), ids=lambda case: case[0])
    def test_gradcheck_case(self, case):
        _, fn, inputs = case
        rep = ad.finite_diff_check(fn, inputs, eps=1e-6, tolerance=1e-6)
        assert rep.passed, rep.max_rel_errors

    def test_stop_gradient_branch_removed(self):
        # analytic grad of sum(x + sg(f(x))) must equal the fd grad of the
        # branch-removed loss sum(x), i.e. all ones
        x = t64(np.random.default_rng(34).normal(size=(1, 1, 3, 3)))
        frozen = ad.Tensor(x.data * x.data)  # branch value pinned for the fd oracle

        def fn(ts):
            return ad.tsum(ad.add(ts[0], ad.stop_gradient(frozen)))

        rep = ad.finite_diff_check(fn, [x])
        assert rep.passed, rep.max_rel_errors
        # and the live-branch analytic gradient agrees with the branch-removed fd
        x.grad = None
        ad.backward(ad.tsum(ad.add(x, ad.stop_gradient(ad.mul(x, x)))))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))


class TestNoGrad:
    def test_no_tape_recorded(self):
        x = t64(np.ones((1, 1, 2, 2)), rg=True)
        with ad.no_grad():
            out = ad.elu(x)
        assert out._parents == ()
