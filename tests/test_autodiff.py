import math

import numpy as np
import pytest

from orthoseg import autodiff as ad
from orthoseg.errors import ConfigurationError, OrthosegError


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
        ]
        for case in cases:
            check_conv_against_oracle(rng, *case)

    def test_column_blocks_match_loop_oracle(self, monkeypatch):
        # 5-column GEMMs, so every tap spans several blocks and a ragged last one
        monkeypatch.setattr(ad, "_BLAS_SERIAL_MACS", 2 * 3 * 5 + 1)
        assert ad._column_blocks(2 * 3, 12) == [(0, 5), (5, 10), (10, 12)]
        rng = np.random.default_rng(4)
        for case in [((2, 3, 6, 7), 3, 2), ((1, 3, 5, 9), 3, 1)]:
            check_conv_against_oracle(rng, *case)

    def test_column_blocks_cover_each_tap(self):
        for rows_by_depth, length in [(16 * 16, 1088), (32 * 76, 1152), (6 * 22, 16384), (306 * 306, 66048)]:
            blocks = ad._column_blocks(rows_by_depth, length)
            assert [c0 for c0, _ in blocks] == [0] + [c1 for _, c1 in blocks[:-1]]
            assert blocks[-1][1] == length
            if rows_by_depth * length < ad._SMALL_TAP_MACS:
                assert all(rows_by_depth * (c1 - c0) < ad._BLAS_SERIAL_MACS for c0, c1 in blocks)
            else:
                assert blocks == [(0, length)]

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


def avg_pool_oracle(x, k, stride, padding):
    """Edge-corrected mean via explicit window loops."""
    n, c, h, w = x.shape
    if padding == "same":
        ho, wo = -(-h // stride), -(-w // stride)
        pht = max((ho - 1) * stride + k - h, 0)
        pwt = max((wo - 1) * stride + k - w, 0)
        ph0, pw0 = pht // 2, pwt // 2
    else:
        ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
        ph0 = pw0 = 0
    out = np.zeros((n, c, ho, wo))
    for nn in range(n):
        for cc in range(c):
            for y in range(ho):
                for xx in range(wo):
                    vals = []
                    for i in range(k):
                        for j in range(k):
                            r, s = y * stride + i - ph0, xx * stride + j - pw0
                            if 0 <= r < h and 0 <= s < w:
                                vals.append(x[nn, cc, r, s])
                    out[nn, cc, y, xx] = sum(vals) / len(vals)
    return out


class TestAvgPool:
    def test_single_window(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert ad.avg_pool(x, 2, stride=2, padding="valid").data[0, 0, 0, 0] == 2.5

    def test_constant_stays_constant_with_edges(self):
        x = t64(np.full((1, 1, 7, 7), 3.25))
        out = ad.avg_pool(x, 5, stride=1, padding="same").data
        np.testing.assert_allclose(out, 3.25, rtol=0, atol=1e-12)

    def test_matches_edge_corrected_oracle(self):
        rng = np.random.default_rng(4)
        for shape, k, stride in [((1, 1, 9, 9), 5, 1), ((2, 2, 7, 8), 3, 2)]:
            x = rng.normal(size=shape)
            xt = t64(x, rg=True)
            out = ad.avg_pool(xt, k, stride=stride, padding="same")
            expected = avg_pool_oracle(x, k, stride, "same")
            np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)
            g = rng.normal(size=expected.shape)
            ad.backward(ad.tsum(ad.mul(out, t64(g))))
            np.testing.assert_allclose(
                xt.grad, linear_grad(lambda v: avg_pool_oracle(v, k, stride, "same"), shape, g), rtol=1e-12, atol=1e-12)

    def test_stride2_downsample(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 8, 8))
        out = ad.avg_pool(t64(x), 2, stride=2, padding="valid").data
        np.testing.assert_allclose(out, avg_pool_oracle(x, 2, 2, "valid"), rtol=1e-12)


class TestUpsample2:
    def test_block_replication(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = ad.upsample2(x).data
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float64)
        np.testing.assert_array_equal(out[0, 0], expected)

    def test_avg_pool_inverts(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 4, 4))
        up = ad.upsample2(t64(x))
        down = ad.avg_pool(up, 2, stride=2, padding="valid").data
        np.testing.assert_allclose(down, x, rtol=1e-12)

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
        with pytest.raises(OrthosegError):
            ad.cross_entropy_loss(t64(p), np.array([[[5]]]))


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


def weighted_sum_loss(seed, shape):
    w = np.random.default_rng(seed).normal(size=shape)

    def loss(out):
        return ad.tsum(ad.mul(out, ad.Tensor(w.astype(out.data.dtype))))

    return loss


class TestFiniteDiff:
    def _check(self, fn, inputs, tol=1e-6):
        rep = ad.finite_diff_check(fn, inputs, eps=1e-6, tolerance=tol)
        assert rep.passed, rep.max_rel_errors

    def test_conv2d_dilated(self):
        rng = np.random.default_rng(20)
        x = t64(rng.normal(size=(1, 2, 8, 8)))
        w = t64(rng.normal(size=(2, 2, 3, 3)) * 0.5)
        b = t64(rng.normal(size=2))
        loss = weighted_sum_loss(21, (1, 2, 8, 8))
        self._check(lambda ts: loss(ad.conv2d(ts[0], ts[1], ts[2], dilation=2, padding="same")), [x, w, b])

    def test_max_pool2(self):
        x = t64(np.random.default_rng(22).normal(size=(1, 2, 4, 4)))
        loss = weighted_sum_loss(23, (1, 2, 2, 2))
        self._check(lambda ts: loss(ad.max_pool2(ts[0])), [x])

    def test_avg_pool_same(self):
        x = t64(np.random.default_rng(24).normal(size=(1, 1, 6, 6)))
        loss = weighted_sum_loss(25, (1, 1, 6, 6))
        self._check(lambda ts: loss(ad.avg_pool(ts[0], 5, 1, "same")), [x])

    def test_elu(self):
        x = t64(np.random.default_rng(26).normal(size=(1, 2, 4, 4)))
        loss = weighted_sum_loss(27, (1, 2, 4, 4))
        self._check(lambda ts: loss(ad.elu(ts[0])), [x])

    def test_softmax_cross_entropy(self):
        x = t64(np.random.default_rng(28).normal(size=(1, 4, 3, 3)))
        lab = np.random.default_rng(29).integers(0, 4, size=(1, 3, 3))
        self._check(lambda ts: ad.cross_entropy_loss(ad.softmax_channels(ts[0]), lab), [x])

    def test_upsample_concat(self):
        rng = np.random.default_rng(30)
        a = t64(rng.normal(size=(1, 2, 3, 3)))
        b = t64(rng.normal(size=(1, 1, 6, 6)))
        loss = weighted_sum_loss(31, (1, 3, 6, 6))
        self._check(lambda ts: loss(ad.concat_channels([ad.upsample2(ts[0]), ts[1]])), [a, b])

    def test_dmgn_frozen_noise(self):
        x = t64(np.random.default_rng(32).normal(size=(1, 3, 4, 4)))
        loss = weighted_sum_loss(33, (1, 3, 4, 4))
        self._check(lambda ts: loss(ad.dmgn(ts[0], 0.25, True, np.random.default_rng(7))), [x])

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
