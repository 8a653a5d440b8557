"""Assembly of the segmentation network: two parallel VGG-style encoders, a
residual decision-accumulating decoder chain with gradient gating, optional
additional residual blocks, a spatial correlation correction block (SCCB) and
a final per-pixel softmax.

Gradient-flow rules realized here:
  * each decoder block's upsampled feature input is stop-gradient gated,
    except the first block (its input comes from the encoders, which must
    keep receiving learning signal through skip connections).  The block's
    first conv reads those features through 2x nearest upsampling at their
    own, half resolution (``autodiff.conv2d``), so the tap
    ``decoder.block{j}.features_up`` records, and is perturbed at, the
    half-resolution tensor;
  * the class-decision residual chain is never gated, so every block's 1x1
    decision conv trains end to end;
  * the SCCB reads gated copies of its inputs and contributes only through
    an ungated residual addition.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, DataError


@dataclass
class NoiseRates:
    """Current noiserate per network region.

    Encoder/decoder rates are keyed by input feature-map count buckets
    (upper bounds); SCCB and additional-residual rates are flat.
    """

    encoder: dict
    decoder: dict
    sccb: float
    residual: float

    @classmethod
    def default(cls):
        """The paper's Table 2 rates, as held by the ``RunConfig`` defaults."""
        from .config import RunConfig  # deferred: config imports this module
        return RunConfig().noiserates()

    def rate(self, region, channels=None):
        if region == "sccb":
            return self.sccb
        if region == "residual":
            return self.residual
        buckets = getattr(self, region)
        for bound in sorted(buckets):
            if channels <= bound:
                return buckets[bound]
        return buckets[max(buckets)]

    def decay(self):
        self.encoder = {k: v * 0.75 for k, v in self.encoder.items()}
        self.decoder = {k: v * 0.375 for k, v in self.decoder.items()}
        self.residual *= 0.375
        self.sccb *= 0.25

    def to_dict(self):
        return {
            "encoder": {str(k): v for k, v in self.encoder.items()},
            "decoder": {str(k): v for k, v in self.decoder.items()},
            "sccb": self.sccb,
            "residual": self.residual,
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``. Raises ``ValueError`` or ``TypeError`` for
        an empty bucket table or a rate that is not a number in [0, 1)."""
        rates = cls(
            encoder={int(k): v for k, v in d["encoder"].items()},
            decoder={int(k): v for k, v in d["decoder"].items()},
            sccb=d["sccb"],
            residual=d["residual"],
        )
        if not (rates.encoder and rates.decoder):
            raise ValueError("empty noiserate bucket table")
        for v in (*rates.encoder.values(), *rates.decoder.values(), rates.sccb, rates.residual):
            if not 0 <= v < 1:  # a str or None raises TypeError
                raise ValueError(f"noiserate {v!r} is not a number in [0, 1)")
        return rates


@dataclass(frozen=True)
class NetworkConfig:
    num_encoder_blocks: int
    primary_filters: tuple
    auxiliary_filters: tuple
    decoder_filters: int
    num_additional_residual_blocks: int
    num_classes: int
    sccb_dilations: tuple
    input_scale_divisor: float
    output_scale_divisor: float

    # fixed by the architecture, not configurable
    input_channels = 3
    sccb_pool_size = 5
    decoder_dilation = 2

    def __post_init__(self):
        for key in ("primary_filters", "auxiliary_filters"):
            if len(getattr(self, key)) != self.num_encoder_blocks:
                raise ConfigurationError(f"{key} length must equal num_encoder_blocks")
        if self.num_encoder_blocks < 1 or self.num_classes < 1:
            raise ConfigurationError("need at least one encoder block and one class")
        # filter counts, SCCB dilation rates and branch widths
        for key, values in (("primary_filters", self.primary_filters),
                            ("auxiliary_filters", self.auxiliary_filters),
                            ("decoder_filters", (self.decoder_filters,)),
                            ("sccb_dilations", sum(self.sccb_dilations, ()))):
            if min(values, default=1) < 1:
                raise ConfigurationError(f"{key} values must be at least 1, got {values}")
        if not (self.input_scale_divisor > 0 and self.output_scale_divisor > 0):
            raise ConfigurationError("scale divisors must be positive")
        rates = [rate for rate, _ in self.sccb_dilations]
        if len(set(rates)) != len(rates):  # one "sccb.branch_d{rate}" per rate
            raise ConfigurationError(f"sccb_dilations repeats a rate: {rates}")

    @classmethod
    def benchmark(cls):
        """Seven-block instance used for the Potsdam benchmark (Table 1 widths)."""
        from .config import RunConfig  # deferred: config imports this module
        return RunConfig().network_config()

    @classmethod
    def desk(cls):
        """Small instance for CPU desk-scale verification and training."""
        from .config import RunConfig  # deferred: config imports this module
        return RunConfig.desk().network_config()

    def conv_layers_in_block(self, block):
        """VGG-16 layout: blocks 1-2 have two 3x3 convs, deeper blocks three."""
        return 2 if block <= 2 else 3


def _he_conv(rng, out_ch, in_ch, kh, kw, dtype=np.float32):
    fan_in = in_ch * kh * kw
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(out_ch, in_ch, kh, kw)).astype(dtype)


def param_layout(cfg):
    """``(name, shape)`` of every parameter, in build order: each conv's
    ``(Co, Ci, k, k)`` weight followed by its ``(Co,)`` bias."""
    layout = []

    def add_conv(name, out_ch, in_ch, k):
        layout.append((f"{name}.weight", (out_ch, in_ch, k, k)))
        layout.append((f"{name}.bias", (out_ch,)))

    for side, filters in (("primary", cfg.primary_filters), ("auxiliary", cfg.auxiliary_filters)):
        in_ch = cfg.input_channels
        for b in range(1, cfg.num_encoder_blocks + 1):
            out_ch = filters[b - 1]
            for i in range(1, cfg.conv_layers_in_block(b) + 1):
                add_conv(f"encoder.{side}.block{b}.conv{i}", out_ch, in_ch, 3)
                in_ch = out_ch

    def add_refine(prefix, feat_ch):  # feat_ch features + both branches' input and sub-map
        add_conv(f"{prefix}.conv1", cfg.decoder_filters, feat_ch + 2 * cfg.input_channels * 2, 3)
        add_conv(f"{prefix}.conv2", cfg.decoder_filters, cfg.decoder_filters, 3)
        add_conv(f"{prefix}.decision", cfg.num_classes, cfg.decoder_filters, 1)

    e = cfg.num_encoder_blocks
    feat_in = cfg.primary_filters[-1] + cfg.auxiliary_filters[-1]
    for j in range(1, e + 1):
        add_refine(f"decoder.block{j}",
                   feat_in + cfg.primary_filters[e - j] + cfg.auxiliary_filters[e - j])
        feat_in = cfg.decoder_filters
    for r in range(1, cfg.num_additional_residual_blocks + 1):
        add_refine(f"residual.block{r}", cfg.decoder_filters)

    sccb_in = cfg.num_classes + cfg.decoder_filters
    branch_total = 0
    for rate, nf in cfg.sccb_dilations:
        add_conv(f"sccb.branch_d{rate}", nf, sccb_in, 3)
        branch_total += nf
    add_conv("sccb.conv1", cfg.num_classes, branch_total + cfg.num_classes, 1)
    add_conv("sccb.conv2", cfg.num_classes, cfg.num_classes, 1)
    return layout


def tail_margin(cfg):
    """Net pixels of context that the full-resolution tail (the last
    decoder block, the additional residual blocks and the SCCB) reads on
    each side of an output pixel: ``dilation`` px per 3x3 conv, half the
    SCCB pool and the widest SCCB branch."""
    convs = 2 + 2 * cfg.num_additional_residual_blocks
    widest = max((rate for rate, _ in cfg.sccb_dilations), default=0)
    return cfg.decoder_dilation * convs + cfg.sccb_pool_size // 2 + widest


def _window(keep, margin, h, w):
    """The ((y0, y1), (x0, x1)) net-resolution window that the tail
    computes for the kept rows and columns ``keep``: widened by ``margin``,
    rounded outward to even and clipped to the h x w input."""
    if len(keep) != 2 or not all(0 <= a < b <= extent for (a, b), extent in zip(keep, (h, w))):
        raise ConfigurationError(f"keep {keep} is not a region of the {h}x{w} input")
    return tuple((max(0, (a - margin) // 2 * 2), min(extent, -(-(b + margin) // 2) * 2))
                 for (a, b), extent in zip(keep, (h, w)))


def _input_feeds(x, levels):
    """The decoder's raw-input feeds from ``x``, the concatenated input
    array: ``feeds[k]`` is the 1/2^k level of its 2x2-mean pyramid followed
    by that level's 5x5 high-pass sub-map.  They depend only on the input,
    so they are built once per forward as arrays and carry no gradient."""
    feeds = []
    level = x
    for k in range(levels):
        if k:
            rows = level[:, :, 0::2] + level[:, :, 1::2]
            level = (rows[..., 0::2] + rows[..., 1::2]) / 4
        sub_map = level - ad.avg_pool(Tensor(level), 5).data
        feeds.append(Tensor(np.concatenate([level, sub_map], axis=1)))
    return feeds


class Model:
    """A built network: immutable config plus ``params``, a dict of
    parameter name -> Tensor in ``param_layout`` order; trainability lives
    on each tensor's ``requires_grad``."""

    def __init__(self, config, params):
        self.config = config
        self.params = params

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, config, seed):
        """He-initialized weights drawn from ``seed`` in layout order, zero biases."""
        rng = np.random.default_rng(seed)
        params = {}
        for name, shape in param_layout(config):
            data = _he_conv(rng, *shape) if len(shape) == 4 else np.zeros(shape, dtype=np.float32)
            params[name] = Tensor(data, requires_grad=True)
        return cls(config, params)

    @classmethod
    def from_arrays(cls, config, arrays):
        """Wraps ``arrays`` (parameter name -> array) as the parameters of
        ``config``; float32 arrays are used in place, not copied. Entries
        outside the layout are ignored."""
        params = {}
        for name, shape in param_layout(config):
            if name not in arrays:
                raise DataError(f"missing parameter {name}")
            if arrays[name].shape != shape:
                raise DataError(
                    f"shape mismatch for {name}: {arrays[name].shape} != {shape}")
            params[name] = Tensor(np.asarray(arrays[name], dtype=np.float32), requires_grad=True)
        return cls(config, params)

    # -- forward ----------------------------------------------------------

    def forward(self, primary, auxiliary, training=False, rng=None, noiserates=None,
                taps=None, perturb=None, record_graph=None, keep=None):
        """Run the network; returns per-pixel class probabilities.

        ``taps``: optional dict filled with named intermediate tensors for
        instrumentation.  ``perturb``: optional dict tap-name -> array added
        at that point (forward-sensitivity probes).  ``keep``: optional
        ((row0, row1), (col0, col1)) output region at net resolution; the
        full-resolution tail then runs only on a window around it (see
        ``tail_margin``), and pixels outside that window are NaN.  Pixels in
        ``keep`` equal those of the full forward up to float rounding.
        """
        record = training if record_graph is None else record_graph
        if keep is not None and (training or record):
            raise ConfigurationError("keep is for inference without a recorded graph")
        with contextlib.nullcontext() if record else ad.no_grad():
            return self._forward(primary, auxiliary, training, rng, noiserates, taps, perturb, keep)

    def _forward(self, primary, auxiliary, training, rng, rates, taps, perturb, keep):
        cfg = self.config
        if rates is None:
            rates = NoiseRates.default()
        if training and rng is None:
            raise ConfigurationError("training-mode forward needs an rng for noise")
        if not isinstance(primary, Tensor):
            primary = Tensor(primary)
        if not isinstance(auxiliary, Tensor):
            auxiliary = Tensor(auxiliary)
        e = cfg.num_encoder_blocks
        n, c, h, w = primary.data.shape
        if auxiliary.data.shape != primary.data.shape:
            raise ConfigurationError("primary and auxiliary inputs must share shape")
        if c != cfg.input_channels:
            raise ConfigurationError(f"expected {cfg.input_channels} input channels, got {c}")
        if h % (1 << e) or w % (1 << e):
            raise ConfigurationError(
                f"input extents {h}x{w} must be divisible by 2^{e} = {1 << e}")
        p = self.params

        def conv(x, name, dilation=1):
            return ad.conv2d(x, p[f"{name}.weight"], p[f"{name}.bias"], dilation=dilation, padding="same")

        def noise(x, region):
            """DMGN at ``region``'s rate for the channel count of ``x``."""
            return ad.dmgn(x, rates.rate(region, x.data.shape[1]), training, rng)

        def tap(name, tensor):
            """The one instrumentation point: adds ``perturb[name]`` when
            given, records the result in ``taps`` and returns it."""
            if perturb and name in perturb:
                tensor = ad.add(tensor, Tensor(np.asarray(perturb[name], dtype=tensor.data.dtype)))
            if taps is not None:
                taps[name] = tensor
            return tensor

        def refine(prefix, inputs, region, decis):
            """Dilated conv over the channels of ``inputs``, ``region`` noise,
            dilated conv, then a 1x1 decision correction added to ``decis``;
            returns (features, decisions).  Empties ``inputs`` once conv1
            has read it."""
            h1 = conv(inputs, f"{prefix}.conv1", cfg.decoder_dilation)
            inputs.clear()
            h1 = noise(ad.elu(h1), region)
            feats = tap(f"{prefix}.features_out",
                        ad.elu(conv(h1, f"{prefix}.conv2", cfg.decoder_dilation)))
            corr = conv(feats, f"{prefix}.decision")
            return feats, tap(f"{prefix}.decisions_out", ad.add(decis, corr))

        feeds = _input_feeds(np.concatenate([primary.data, auxiliary.data], axis=1), e)
        win = None if keep is None else _window(keep, tail_margin(cfg), h, w)
        if win == ((0, h), (0, w)):
            win = None

        def encode(side, x):
            skips = []
            for b in range(1, e + 1):
                for i in range(1, cfg.conv_layers_in_block(b) + 1):
                    if b >= 4 and i > 1:
                        x = noise(x, "encoder")
                    x = ad.elu(conv(x, f"encoder.{side}.block{b}.conv{i}"))
                x = tap(f"encoder.{side}.block{b}.pre_pool", x)
                skips.append(x)
                x = ad.max_pool2(x)
                x = noise(x, "encoder")
            return skips, x

        p_skips, p_bott = encode("primary", primary)
        a_skips, a_bott = encode("auxiliary", auxiliary)

        bottleneck = ad.concat_channels([p_bott, a_bott])
        feats = ad.scale_const(bottleneck, 1.0 / cfg.input_scale_divisor)
        hb, wb = h >> e, w >> e
        decis = Tensor(np.zeros((n, cfg.num_classes, hb, wb), dtype=primary.data.dtype))

        for j in range(1, e + 1):
            if j == e and win is not None:
                # from here on only the window is computed
                (y0, y1), (x0, x1) = win
                feats, decis = (Tensor(t.data[:, :, y0 // 2 : y1 // 2, x0 // 2 : x1 // 2])
                                for t in (feats, decis))
                p_skips[0], a_skips[0], feeds[0] = (Tensor(t.data[:, :, y0:y1, x0:x1])
                                                    for t in (p_skips[0], a_skips[0], feeds[0]))
            feats = tap(f"decoder.block{j}.features_in", feats)
            decis = tap(f"decoder.block{j}.decisions_in", decis)
            # conv1 reads the features through 2x upsampling (autodiff.conv2d)
            f_up = tap(f"decoder.block{j}.features_up", ad.identity(feats))
            if j > 1:
                f_up = ad.stop_gradient(f_up)
            # each skip and feed is read once, except feeds[0]: the
            # residual blocks read it too
            inputs = [noise(f_up, "decoder"), noise(p_skips.pop(), "decoder"),
                      noise(a_skips.pop(), "decoder"), feeds[0] if j == e else feeds.pop()]
            d_up = ad.upsample2(decis)
            del feats, decis, f_up  # refine's conv1 is their last reader
            feats, decis = refine(f"decoder.block{j}", inputs, "decoder", d_up)

        decis = ad.scale_const(decis, 1.0 / cfg.output_scale_divisor)

        for r in range(1, cfg.num_additional_residual_blocks + 1):
            feats = tap(f"residual.block{r}.features_in", feats)
            f_gated = tap(f"residual.block{r}.features_gated", ad.stop_gradient(feats))
            inputs = [noise(f_gated, "residual"), feeds[0]]
            del feats, f_gated  # refine's conv1 is their last reader
            feats, decis = refine(f"residual.block{r}", inputs, "residual", decis)

        # SCCB: fully gated side branch, ungated residual identity
        feats = tap("sccb.features_in", feats)
        decis = tap("sccb.decisions_in", decis)
        d_gated = tap("sccb.decisions_gated", ad.stop_gradient(decis))
        f_gated = tap("sccb.features_gated", ad.stop_gradient(feats))
        pooled = ad.avg_pool(ad.concat_channels([d_gated, f_gated]), cfg.sccb_pool_size,
                             stride=1, padding="same")
        del feats, f_gated  # the pool was their last reader
        branches = []
        for rate, _nf in cfg.sccb_dilations:
            br = ad.elu(conv(pooled, f"sccb.branch_d{rate}", dilation=rate))
            branches.append(noise(br, "sccb"))
        h1 = ad.elu(conv(branches + [d_gated], "sccb.conv1"))
        corr = conv(h1, "sccb.conv2")
        logits = tap("sccb.logits", ad.add(decis, corr))

        probs = ad.softmax_channels(logits)
        if win is None:
            return probs
        out = np.full((n, cfg.num_classes, h, w), np.nan, dtype=probs.data.dtype)
        out[:, :, y0:y1, x0:x1] = probs.data
        return Tensor(out)
