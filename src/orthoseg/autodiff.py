"""Dense tensor arithmetic with reverse-mode automatic differentiation.

Rank-4 layout everywhere is (batch, channels, height, width).  Forward ops
record a tape of closures; ``backward`` walks it once in reverse creation
order (an op's output is created after its inputs).  Gradient gating is
``stop_gradient``, which cuts the tape so a gated edge contributes exactly
zero gradient.

float32 is the working precision; float64 is available for gradient
verification (``finite_diff_check``).
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, OrthosegError

_grad_enabled = True
_creation = itertools.count()  # Tensor creation index, for the tape walk


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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_index")

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
        self._index = next(_creation)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _node(data, parents, backward_fn):
    """Create an op output, recording the tape edge when grads are on."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def backward(loss):
    """Populate ``grad`` on every tensor reachable from ``loss``.

    ``loss`` must be a scalar (size-1) tensor produced by recorded ops.
    """
    if loss.data.size != 1:
        raise OrthosegError("backward requires a scalar loss")
    nodes, stack = {loss._index: loss}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p._index not in nodes:
                nodes[p._index] = p
                stack.append(p)
    loss.grad = np.ones_like(loss.data)
    for _, node in sorted(nodes.items(), reverse=True):
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
# that stay on the calling thread.  Larger taps run in _LARGE_TAP_COLUMNS
# blocks, so that the per-tap temporary is block-sized, not output-sized.
_BLAS_SERIAL_MACS = 2**19
_SMALL_TAP_MACS = 2**22
_LARGE_TAP_COLUMNS = 4096


def _is_large_tap(rows_by_depth, length):
    return rows_by_depth * length >= _SMALL_TAP_MACS


def _column_blocks(rows_by_depth, length):
    """Column ranges for a conv tap's (rows x depth) @ (depth x length)
    products: _LARGE_TAP_COLUMNS-wide blocks for a large tap, serial-sized
    blocks for a small one; the first block is the widest."""
    if _is_large_tap(rows_by_depth, length):
        step = _LARGE_TAP_COLUMNS
    else:
        step = max(1, (_BLAS_SERIAL_MACS - 1) // rows_by_depth)
    return [(c0, min(length, c0 + step)) for c0 in range(0, length, step)]


class _Pack:
    """Consecutive ``conv2d`` inputs at one resolution, zero-padded side by
    side in one flat buffer ``xp``, with ``wt``, the (kh,kw,Co,Ci) view of
    the weight channels that read them."""

    def __init__(self, scale, inputs, wt, dilation):
        self.scale, self.inputs, self.wt = scale, inputs, wt
        n, _, self.h, self.w = inputs[0].data.shape
        kh, kw, co, self.ci = wt.shape
        d = dilation // scale
        self.ph, self.pw = (kh - 1) * d // 2, (kw - 1) * d // 2
        self.hp, self.wp = self.h + 2 * self.ph + 1, self.w + 2 * self.pw
        self.length = (n - 1) * self.hp * self.wp + self.h * self.wp
        self.taps = [(i, j, i * d * self.wp + j * d) for i in range(kh) for j in range(kw)]
        self.blocks = _column_blocks(co * self.ci, self.length)
        # a large tap's weight gradient stays one GEMM over all its columns:
        # summing it block by block would reorder the sum
        self.gw_blocks = [(0, self.length)] if _is_large_tap(co * self.ci, self.length) else self.blocks
        self.xp = np.zeros((self.ci, n * self.hp * self.wp), dtype=inputs[0].data.dtype)
        rows = 0
        for t in inputs:
            c = t.data.shape[1]
            self.padded(self.xp)[rows : rows + c] = t.data.transpose(1, 0, 2, 3)
            rows += c

    def padded(self, flat):
        """The (rows, N, H, W) interior of a flat (rows, N*Hp*Wp) buffer."""
        return flat.reshape(len(flat), -1, self.hp, self.wp)[
            :, :, self.ph : self.ph + self.h, self.pw : self.pw + self.w]

    def forward(self):
        """The pack's tap sums, an (N, Co, H, W) view of its accumulator."""
        co = self.wt.shape[2]
        acc = np.empty((co, self.xp.shape[1]), dtype=self.xp.dtype)
        tmp = np.empty((co, self.blocks[0][1]), dtype=self.xp.dtype)
        for c0, c1 in self.blocks:
            a, t = acc[:, c0:c1], tmp[:, : c1 - c0]
            np.matmul(self.wt[0, 0], self.xp[:, c0:c1], out=a)
            for i, j, off in self.taps[1:]:
                a += np.matmul(self.wt[i, j], self.xp[:, off + c0 : off + c1], out=t)
        return acc.reshape(co, -1, self.hp, self.wp)[:, :, : self.h, : self.w].transpose(1, 0, 2, 3)

    def backward(self, g, gw):
        """The input gradients for the gradient ``g`` at this pack's
        resolution; adds the tap sums into ``gw``, the (kh,kw,Co,Ci) weight
        gradient of this pack's channels, unless it is None."""
        co, n = g.shape[1], g.shape[0]
        gf = np.zeros((co, n * self.hp * self.wp), dtype=g.dtype)
        gf.reshape(co, n, self.hp, self.wp)[:, :, : self.h, : self.w] = g.transpose(1, 0, 2, 3)
        # input gradients only for the channel rows of inputs that take one
        sizes = [t.data.shape[1] for t in self.inputs]
        live = np.repeat([t.requires_grad for t in self.inputs], sizes)
        wsel = self.wt if live.all() else self.wt[..., live]
        gx = np.zeros((wsel.shape[3], gf.shape[1]), dtype=g.dtype) if live.any() else None
        tmp = np.empty((wsel.shape[3], self.blocks[0][1]), dtype=g.dtype)
        for i, j, off in self.taps:
            if gw is not None:
                for c0, c1 in self.gw_blocks:
                    gw[i, j] += gf[:, c0:c1] @ self.xp[:, off + c0 : off + c1].T
            if gx is not None:
                for c0, c1 in self.blocks:
                    gx[:, off + c0 : off + c1] += np.matmul(wsel[i, j].T, gf[:, c0:c1], out=tmp[:, : c1 - c0])
        gxs, rows = [], 0
        for t, c in zip(self.inputs, sizes):
            gxs.append(self.padded(gx[rows : rows + c]).transpose(1, 0, 2, 3) if t.requires_grad else None)
            rows += c if t.requires_grad else 0
        return gxs


def conv2d(x, weights, bias, dilation=1, padding="same"):
    """Stride-1 2-D convolution (cross-correlation) with dilation and
    ``same`` zero padding, the only padding it accepts.

    x: a (N,Ci,H,W) tensor, or a list of tensors read as their channel
    concatenation in weight order; weights: (Co,Ci,kh,kw); bias: (Co,);
    output (N,Co,H,W), H x W the largest input extent.  An input of extent
    (H/2, W/2) is read through 2x nearest upsampling: for an even dilation d,
    conv(up2(f), d) == up2(conv(f, d // 2)), so it is convolved at its own
    resolution and its tap sums are repeated into the output.

    Consecutive inputs at one resolution form a pack (``_Pack``).  A pack's
    N zero-padded images (plus a spare zero row each) sit side by side in
    one flat (Ci, N*Hp*Wp) buffer; output pixel (b, y, x) is column
    b*Hp*Wp + y*Wp + x, so tap (i, j) is one batch-wide GEMM over all the
    pack's channels on the view ``xp[:, off:off+L]``, off = i*d*Wp + j*d,
    L = (N-1)*Hp*Wp + H*Wp (MEC-style shifted matrices, no im2col copy).
    The spare row keeps every kept output inside its own image's block; the
    other columns are sliced off, and the backward reuses the views with
    them zero in the gradient.  Each tap's GEMMs run over column blocks
    (``_column_blocks``) with one block-sized temporary.  Gradients of
    tensors that do not require one are returned as None; input gradients
    are computed only for the channel rows of the inputs that require one.
    """
    xs = [x] if isinstance(x, Tensor) else list(x)
    if not xs:
        raise ConfigurationError("conv2d of zero inputs")
    co, ci, kh, kw = weights.data.shape
    n = xs[0].data.shape[0]
    h, w = max(t.data.shape[2] for t in xs), max(t.data.shape[3] for t in xs)
    if bias.data.shape != (co,):
        raise ConfigurationError(f"bias shape {bias.data.shape} != ({co},)")
    if dilation < 1:
        raise ConfigurationError("dilation must be >= 1")
    if padding != "same":
        raise ConfigurationError(f"unknown padding {padding!r}")
    if (kh - 1) * dilation % 2 or (kw - 1) * dilation % 2:
        raise ConfigurationError("same padding needs odd effective kernel extent")
    groups, cin = [], 0  # [scale, inputs, weight channel range]
    for t in xs:
        tn, tc, th, tw = t.data.shape
        scale = 1 if (tn, th, tw) == (n, h, w) else 2
        if (tn, scale * th, scale * tw) != (n, h, w):
            raise ConfigurationError(f"conv input extent {(tn, th, tw)} is neither {(n, h, w)} nor half")
        if scale == 2 and dilation % 2:
            raise ConfigurationError(f"a half-resolution input needs an even dilation, got {dilation}")
        if not groups or groups[-1][0] != scale:
            groups.append([scale, [], slice(cin, cin)])
        groups[-1][1].append(t)
        cin += tc
        groups[-1][2] = slice(groups[-1][2].start, cin)
    if cin != ci:
        raise ConfigurationError(f"input channels {cin} != weight channels {ci}")
    wt = np.ascontiguousarray(weights.data.transpose(2, 3, 0, 1))  # tap-major (kh,kw,Co,Ci)
    packs = [_Pack(scale, inputs, wt[..., cols], dilation) for scale, inputs, cols in groups]

    # the first full-resolution pack plus the bias, then every other pack
    base = next(p for p in packs if p.scale == 1)
    out = np.empty((n, co, h, w), dtype=xs[0].data.dtype)
    np.add(base.forward(), bias.data.reshape(co, 1, 1), out=out)
    for p in packs:
        if p is base:
            continue
        if p.scale == 1:
            out += p.forward()
        else:
            blocks = out.reshape(n, co, h // 2, 2, w // 2, 2)
            blocks += p.forward()[:, :, :, None, :, None]

    def bwd(g):
        gb = g.sum(axis=(0, 2, 3)).astype(bias.data.dtype) if bias.requires_grad else None
        gw = np.zeros_like(wt) if weights.requires_grad else None
        gxs = []
        for p, (*_, cols) in zip(packs, groups):
            gp = g if p.scale == 1 else g.reshape(n, co, h // 2, 2, w // 2, 2).sum(axis=(3, 5))
            gxs += p.backward(gp, None if gw is None else gw[..., cols])
        return (*gxs, None if gw is None else gw.transpose(2, 3, 0, 1), gb)

    return _node(out, (*xs, weights, bias), bwd)


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


def avg_pool(x, k, stride=1, padding="same"):
    """k x k mean pooling with stride 1 and ``same`` padding for odd ``k``,
    the one geometry it accepts.  The divisor is the count of in-bounds
    taps, so a constant input stays constant at the borders.

    The window sum is separable (1-D box sums along H, then W) over one
    zero-filled buffer, and the divisor is the outer product of the 1-D
    in-bounds counts, small exact integers.  A centered box is its own
    adjoint, so the backward box-sums the zero-padded ``g / counts``.
    """
    if k < 1 or k % 2 == 0 or stride != 1 or padding != "same":
        raise ConfigurationError(
            f"avg_pool takes an odd k, stride 1 and same padding, got {k}, {stride}, {padding!r}")
    h, w = x.data.shape[2:]
    r = k // 2

    def box(a):
        """k x k window sums of ``a``, zero outside it."""
        padded = np.zeros(a.shape[:-2] + (h + 2 * r, w + 2 * r), dtype=a.dtype)
        padded[..., r : r + h, r : r + w] = a
        rows = padded[..., 0:h, :].copy()
        for i in range(1, k):
            rows += padded[..., i : i + h, :]
        del padded  # the row sums are its last reader
        total = rows[..., 0:w].copy()
        for j in range(1, k):
            total += rows[..., j : j + w]
        return total

    def in_bounds(extent):
        i = np.arange(extent)
        return np.minimum(i + r, extent - 1) - np.maximum(i - r, 0) + 1

    counts = np.outer(in_bounds(h), in_bounds(w)).astype(x.data.dtype)
    out = box(x.data)
    out /= counts

    def bwd(g):
        return (box(g / counts),)

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
    """Exponential linear unit, alpha = 1.  expm1(x) > x below 0, so it is
    the larger of x and expm1(min(x, 0)) (clamped so it cannot overflow),
    and its derivative, 1 above 0 and out + 1 at or below, is min(out + 1, 1)."""
    out = np.minimum(x.data, 0)
    np.expm1(out, out=out)
    np.maximum(x.data, out, out=out)

    def bwd(g):
        return (g * np.minimum(out + 1, 1),)

    return _node(out, (x,), bwd)


def add(a, b):
    if a.data.shape != b.data.shape:
        raise ConfigurationError(f"add shape mismatch {a.data.shape} vs {b.data.shape}")
    out = a.data + b.data

    def bwd(g):
        return g, g

    return _node(out, (a, b), bwd)


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


def identity(x):
    """Forward identity as its own tape node, sharing ``x``'s array."""
    return _node(x.data, (x,), lambda g: (g,))


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
        raise DataError(f"label out of range [0,{c})")
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
