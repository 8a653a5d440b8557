"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Rank-4 layout everywhere is (batch, channels, height, width).  Forward ops
record a tape of closures; ``backward`` walks it once in reverse topological
order.  Gradient gating is implemented by ``stop_gradient``, which cuts the
tape so a gated edge contributes exactly zero gradient.

float32 is the working precision; float64 is available for gradient
verification (``finite_diff_check``).
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, OrthosegError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording; intermediate tensors become leaves."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense array plus its place in the differentiation tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim > 4:
            raise ConfigurationError(f"rank {arr.ndim} > 4 unsupported")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _node(data, parents, backward_fn):
    """Create an op output, recording the tape edge when grads are on."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def backward(loss):
    """Populate ``grad`` on every tensor reachable from ``loss``.

    ``loss`` must be a scalar (size-1) tensor produced by recorded ops.
    """
    if loss.data.size != 1:
        raise OrthosegError("backward requires a scalar loss")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = np.array(g, dtype=parent.data.dtype)
            else:
                parent.grad += g


# ---------------------------------------------------------------------------
# convolution


# OpenBLAS runs a GEMM of fewer than _BLAS_SERIAL_MACS multiply-adds on the
# calling thread and hands larger ones to its worker threads, which then
# spin for a while waiting for the next call.  A worker saves microseconds
# on a small product but costs milliseconds whenever another process holds
# its core, so conv taps under _SMALL_TAP_MACS are split into column blocks
# that stay on the calling thread.
_BLAS_SERIAL_MACS = 2**19
_SMALL_TAP_MACS = 2**22


def _column_blocks(rows_by_depth, length):
    """Column ranges for a conv tap's (rows x depth) @ (depth x length)
    products: one range for a large tap, serial-sized blocks for a small one."""
    if rows_by_depth * length >= _SMALL_TAP_MACS:
        return [(0, length)]
    step = max(1, (_BLAS_SERIAL_MACS - 1) // rows_by_depth)
    return [(c0, min(length, c0 + step)) for c0 in range(0, length, step)]


def conv2d(x, weights, bias, dilation=1, padding="same"):
    """Stride-1 2-D convolution (cross-correlation) with dilation and
    ``same`` zero padding, the only padding it accepts.

    x: (N,Ci,H,W); weights: (Co,Ci,kh,kw); bias: (Co,); output (N,Co,H,W).

    Each image is zero-padded once (plus a spare zero row) into a flat
    (Ci, Hp*Wp) buffer; output pixel (y, x) is flat column y*Wp + x, so tap
    (i, j) is one GEMM on the view ``xp[:, off:off+H*Wp]``, off = i*d*Wp + j*d
    (MEC-style shifted matrices, no im2col copy).  The Wp - W wrap-around
    columns per row are sliced off; the backward reuses the same views and
    needs those columns of the flat output gradient to be exactly zero.
    A small conv runs each tap's GEMMs over column blocks (``_column_blocks``).
    Gradients of tensors that do not require one are returned as None.
    """
    n, ci, h, w = x.data.shape
    co, ciw, kh, kw = weights.data.shape
    if ci != ciw:
        raise ConfigurationError(f"input channels {ci} != weight channels {ciw}")
    if bias.data.shape != (co,):
        raise ConfigurationError(f"bias shape {bias.data.shape} != ({co},)")
    if dilation < 1:
        raise ConfigurationError("dilation must be >= 1")
    if padding != "same":
        raise ConfigurationError(f"unknown padding {padding!r}")
    if (kh - 1) * dilation % 2 or (kw - 1) * dilation % 2:
        raise ConfigurationError("same padding needs odd effective kernel extent")
    ph, pw = (kh - 1) * dilation // 2, (kw - 1) * dilation // 2
    hp, wp = h + 2 * ph + 1, w + 2 * pw
    length = h * wp
    taps = [(i, j, i * dilation * wp + j * dilation) for i in range(kh) for j in range(kw)]

    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph + 1), (pw, pw))).reshape(n, ci, hp * wp)
    wtap = np.ascontiguousarray(weights.data.transpose(2, 3, 0, 1))  # (kh,kw,Co,Ci)
    out = np.empty((n, co, h, w), dtype=x.data.dtype)
    acc, tmp = np.empty((2, co, length), dtype=x.data.dtype)
    blocks = _column_blocks(co * ci, length)
    for b in range(n):
        for c0, c1 in blocks:
            a, t = acc[:, c0:c1], tmp[:, c0:c1]
            np.matmul(wtap[0, 0], xp[b, :, c0:c1], out=a)
            for i, j, off in taps[1:]:
                a += np.matmul(wtap[i, j], xp[b, :, off + c0 : off + c1], out=t)
        np.add(acc.reshape(co, h, wp)[:, :, :w], bias.data.reshape(co, 1, 1), out=out[b])

    def bwd(g):
        gb = g.sum(axis=(0, 2, 3)).astype(bias.data.dtype) if bias.requires_grad else None
        gw = np.zeros_like(wtap) if weights.requires_grad else None
        gx = np.zeros_like(xp) if x.requires_grad else None
        gflat = np.zeros((co, h, wp), dtype=g.dtype)
        tmp = np.empty((ci, length), dtype=x.data.dtype)
        for b in range(n):
            gflat[:, :, :w] = g[b]
            gf = gflat.reshape(co, length)
            for (i, j, off), (c0, c1) in itertools.product(taps, blocks):
                if gw is not None:
                    gw[i, j] += gf[:, c0:c1] @ xp[b, :, off + c0 : off + c1].T
                if gx is not None:
                    gx[b, :, off + c0 : off + c1] += np.matmul(wtap[i, j].T, gf[:, c0:c1], out=tmp[:, c0:c1])
        gw = None if gw is None else gw.transpose(2, 3, 0, 1)
        gx = None if gx is None else gx.reshape(n, ci, hp, wp)[:, :, ph : ph + h, pw : pw + w]
        return gx, gw, gb

    return _node(out, (x, weights, bias), bwd)


# ---------------------------------------------------------------------------
# pooling


def max_pool2(x):
    """2x2 max pooling, stride 2; backward routes to the first max in
    row-major window order."""
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ConfigurationError(f"max_pool2 needs even extents, got {h}x{w}")
    ho, wo = h // 2, w // 2
    win = x.data.reshape(n, c, ho, 2, wo, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, 4)
    idx = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def bwd(g):
        gwin = np.zeros((n, c, ho, wo, 4), dtype=g.dtype)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
        gx = gwin.reshape(n, c, ho, wo, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
        return (gx,)

    return _node(out, (x,), bwd)


def _pool_geometry(h, w, k, stride, padding):
    if padding == "same":
        ho = -(-h // stride)
        wo = -(-w // stride)
        pht = max((ho - 1) * stride + k - h, 0)
        pwt = max((wo - 1) * stride + k - w, 0)
        ph0, pw0 = pht // 2, pwt // 2
        ph1, pw1 = pht - ph0, pwt - pw0
    elif padding == "valid":
        ho = (h - k) // stride + 1
        wo = (w - k) // stride + 1
        ph0 = ph1 = pw0 = pw1 = 0
    else:
        raise ConfigurationError(f"unknown padding {padding!r}")
    if ho < 1 or wo < 1:
        raise ConfigurationError("pool window exceeds input")
    return ho, wo, ph0, ph1, pw0, pw1


def avg_pool(x, k, stride=1, padding="valid"):
    """k x k mean pooling.  With ``same`` padding the divisor is the count of
    in-bounds taps, so a constant input stays constant at the borders.

    The window sum is separable (1-D box sums along H, then W; transposed in
    the backward), and the divisor is that box sum of the padded ones mask.
    """
    n, c, h, w = x.data.shape
    ho, wo, ph0, ph1, pw0, pw1 = _pool_geometry(h, w, k, stride, padding)
    hspan, wspan = (ho - 1) * stride + 1, (wo - 1) * stride + 1
    pads = ((ph0, ph1), (pw0, pw1))

    def box(a):
        rows = a[..., 0:hspan:stride, :].copy()
        for i in range(1, k):
            rows += a[..., i : i + hspan : stride, :]
        total = rows[..., 0:wspan:stride].copy()
        for j in range(1, k):
            total += rows[..., j : j + wspan : stride]
        return total

    counts = box(np.pad(np.ones((h, w), dtype=x.data.dtype), pads))
    xp = np.pad(x.data, ((0, 0), (0, 0)) + pads)
    out = box(xp)
    out /= counts

    def bwd(g):
        gdiv = g / counts
        grows = np.zeros((n, c, ho, xp.shape[3]), dtype=g.dtype)
        for j in range(k):
            grows[..., j : j + wspan : stride] += gdiv
        gx_pad = np.zeros(xp.shape, dtype=g.dtype)
        for i in range(k):
            gx_pad[..., i : i + hspan : stride, :] += grows
        return (gx_pad[..., ph0 : ph0 + h, pw0 : pw0 + w],)

    return _node(out, (x,), bwd)


def upsample2(x):
    """Nearest-neighbor x2 upsampling; backward sums each 2x2 block."""
    n, c, h, w = x.data.shape
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def bwd(g):
        return (g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),)

    return _node(out, (x,), bwd)


# ---------------------------------------------------------------------------
# elementwise


def elu(x):
    """Exponential linear unit, alpha = 1."""
    pos = x.data > 0
    # expm1 only ever contributes on the non-positive side; clamp its input
    # so the discarded branch cannot overflow
    out = np.where(pos, x.data, np.expm1(np.minimum(x.data, 0)))

    def bwd(g):
        return (g * np.where(pos, x.data.dtype.type(1), out + 1),)

    return _node(out, (x,), bwd)


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ConfigurationError(f"add shape mismatch {a.data.shape} vs {b.data.shape}")
    out = a.data + b.data

    def bwd(g):
        return g, g

    return _node(out, (a, b), bwd)


def sub(a, b):
    return add(a, scale_const(b, -1.0))


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ConfigurationError(f"mul shape mismatch {a.data.shape} vs {b.data.shape}")
    out = a.data * b.data

    def bwd(g):
        return g * b.data, g * a.data

    return _node(out, (a, b), bwd)


def scale_const(x, factor):
    f = x.data.dtype.type(factor)
    out = x.data * f

    def bwd(g):
        return (g * f,)

    return _node(out, (x,), bwd)


def tsum(x):
    """Sum of all elements, as a scalar tensor."""
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def bwd(g):
        return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype),)

    return _node(out, (x,), bwd)


def stop_gradient(x):
    """Forward identity that cuts the tape: contributes exactly zero gradient."""
    out = Tensor(x.data)
    return out


def softmax_channels(x):
    """Per-pixel softmax over the channel axis, max-stabilized."""
    if x.data.shape[1] < 2:
        raise ConfigurationError("softmax needs at least 2 channels")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        return (p * (g - (g * p).sum(axis=1, keepdims=True)),)

    return _node(p, (x,), bwd)


def concat_channels(inputs):
    if not inputs:
        raise ConfigurationError("concat of zero tensors")
    n, _, h, w = inputs[0].data.shape
    for t in inputs:
        tn, _, th, tw = t.data.shape
        if (tn, th, tw) != (n, h, w):
            raise ConfigurationError(f"concat mismatch: {(tn, th, tw)} vs {(n, h, w)}")
    out = np.concatenate([t.data for t in inputs], axis=1)
    splits = np.cumsum([t.data.shape[1] for t in inputs])[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=1))

    return _node(out, tuple(inputs), bwd)


def dmgn(x, noiserate, training, rng=None):
    """Depth-wise multiplicative Gaussian noise.

    Training mode multiplies each (batch, channel) plane by one scalar drawn
    from Normal(1, sqrt(noiserate/(1-noiserate))).  Inference mode, or a
    zero rate, returns ``x`` itself.  The sampled scalars are constants in
    backward.
    """
    if not 0 <= noiserate < 1:
        raise ConfigurationError(f"noiserate {noiserate} outside [0,1)")
    if not training or noiserate == 0:
        return x
    if rng is None:
        raise ConfigurationError("training-mode dmgn needs an rng")
    n, c = x.data.shape[0], x.data.shape[1]
    std = np.sqrt(noiserate / (1.0 - noiserate))
    noise = rng.normal(1.0, std, size=(n, c, 1, 1)).astype(x.data.dtype)
    out = x.data * noise

    def bwd(g):
        return (g * noise,)

    return _node(out, (x,), bwd)


def cross_entropy_loss(probs, labels):
    """Mean over all pixels of -log(prob of the true class), clamped at 1e-12."""
    p = probs.data
    n, c, h, w = p.shape
    lab = np.asarray(labels)
    if lab.shape != (n, h, w):
        raise ConfigurationError(f"labels shape {lab.shape} != {(n, h, w)}")
    if lab.min() < 0 or lab.max() >= c:
        raise OrthosegError(f"label out of range [0,{c})")
    idx = lab[:, None, :, :].astype(np.int64)
    ptrue = np.take_along_axis(p, idx, axis=1)
    clamped = np.maximum(ptrue, 1e-12)
    npix = n * h * w
    loss = np.asarray(-np.log(clamped).sum() / npix, dtype=p.dtype)

    def bwd(g):
        gp = np.zeros_like(p)
        inner = np.where(ptrue >= 1e-12, -1.0 / (clamped * npix), 0.0).astype(p.dtype)
        np.put_along_axis(gp, idx, inner * g, axis=1)
        return (gp,)

    return _node(loss, (probs,), bwd)


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class FiniteDiffReport:
    max_rel_errors: list = field(default_factory=list)
    tolerance: float = 1e-6

    @property
    def passed(self):
        return all(e < self.tolerance for e in self.max_rel_errors)


def finite_diff_check(fn, inputs, eps=1e-6, tolerance=1e-6, atol=1e-9):
    """Compare analytic gradients of scalar-valued ``fn`` against central
    finite differences.

    ``fn`` receives the list of input tensors and must rebuild its graph on
    every call (so stochastic ops must reseed internally).  Inputs should be
    float64.
    """
    for t in inputs:
        if t.data.dtype != np.float64:
            raise ConfigurationError("finite_diff_check requires float64 inputs")
        t.requires_grad = True
        t.grad = None
    out = fn(inputs)
    backward(out)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in inputs]

    report = FiniteDiffReport(tolerance=tolerance)
    for t, a in zip(inputs, analytic):
        num = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(fn(inputs).data)
            flat[i] = orig - eps
            fm = float(fn(inputs).data)
            flat[i] = orig
            nflat[i] = (fp - fm) / (2 * eps)
        diff = np.abs(a - num)
        gscale = max(np.abs(a).max(), np.abs(num).max(), 1e-8)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-3 * gscale)
        rel = np.where(diff <= atol, 0.0, diff / denom)
        report.max_rel_errors.append(float(rel.max()))
    return report
