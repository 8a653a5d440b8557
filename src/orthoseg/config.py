"""Flat key=value run configuration.

Every training hyperparameter has a key whose default is the benchmark
value; parsing then re-serializing is canonical (sorted keys).  Unknown
keys are rejected.  These defaults and ``RunConfig.desk()`` are the only
copy of the presets: ``NetworkConfig.benchmark()``/``desk()`` and
``NoiseRates.default()`` are derived from them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .errors import ConfigurationError
from .network import NetworkConfig, NoiseRates


def _rate_width(part):  # "rate:width" -> (rate, width)
    rate, _, width = part.partition(":")
    return int(rate), int(width)


@dataclass
class RunConfig:
    # network architecture
    num_encoder_blocks: int = 7
    primary_filters: str = "64,128,256,512,512,512,512"
    auxiliary_filters: str = "64,128,256,256,256,256,256"
    decoder_filters: int = 300
    num_additional_residual_blocks: int = 1
    num_classes: int = 6
    sccb_dilations: str = "5:25,11:25"
    input_scale_divisor: float = 6.0
    output_scale_divisor: float = 20.0

    # data preparation
    data_dir: str = ""
    out_dir: str = ""
    tile_size: int = 1024
    overlap: float = 0.66
    val_fraction: float = 0.10

    # training schedule
    learning_rate: float = 0.0001
    momentum: float = 0.99
    fine_tuning_momentum: float = 0.999
    plateau_window: int = 25000
    plateau_threshold: float = 1e-06
    eval_interval: int = 1000
    max_iterations: int = 350000
    checkpoint_interval: int = 10000
    freeze_primary_blocks: int = 2
    seed: int = 0

    # depth-wise multiplicative noise rates by input feature-map count
    noiserate_le64: float = 0.0625
    noiserate_le128: float = 0.125
    noiserate_le256: float = 0.1875
    noiserate_le512: float = 0.25
    noiserate_sccb: float = 0.0625
    noiserate_residual: float = 0.0625

    # -- text form --------------------------------------------------------

    def serialize(self):
        lines = [f"{f.name}={getattr(self, f.name)}" for f in sorted(fields(self), key=lambda f: f.name)]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        types = {f.name: type(f.default) for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in types:
                raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
            try:
                values[key] = types[key](val)
            except ValueError as exc:
                raise ConfigurationError(f"line {lineno}: bad value for {key}: {exc}") from exc
        return cls(**values)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            return cls.parse(f.read())

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.serialize())

    def digest(self):
        """sha256 of the canonical serialization."""
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    # -- derived objects --------------------------------------------------

    def _list(self, key, parse=int):
        """The comma-separated list held by ``key``, each item parsed."""
        try:
            return tuple(parse(v) for v in getattr(self, key).split(","))
        except ValueError as exc:
            raise ConfigurationError(f"bad value for {key}: {exc}") from exc

    def network_config(self):
        return NetworkConfig(
            num_encoder_blocks=self.num_encoder_blocks,
            primary_filters=self._list("primary_filters"),
            auxiliary_filters=self._list("auxiliary_filters"),
            decoder_filters=self.decoder_filters,
            num_additional_residual_blocks=self.num_additional_residual_blocks,
            num_classes=self.num_classes,
            sccb_dilations=self._list("sccb_dilations", _rate_width),
            input_scale_divisor=self.input_scale_divisor,
            output_scale_divisor=self.output_scale_divisor,
        )

    def noiserates(self):
        table = {64: self.noiserate_le64, 128: self.noiserate_le128,
                 256: self.noiserate_le256, 512: self.noiserate_le512}
        return NoiseRates(encoder=table, decoder=dict(table),
                          sccb=self.noiserate_sccb, residual=self.noiserate_residual)

    @classmethod
    def desk(cls, **overrides):
        """Desk-scale defaults for CPU verification runs."""
        base = dict(
            num_encoder_blocks=3,
            primary_filters="16,32,64",
            auxiliary_filters="16,32,32",
            decoder_filters=32,
            sccb_dilations="5:8,11:8",
            tile_size=64,
            overlap=0.5,
            max_iterations=5000,
            eval_interval=250,
            checkpoint_interval=1000,
        )
        base.update(overrides)
        return cls(**base)
