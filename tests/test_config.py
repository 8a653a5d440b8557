"""Run-config parsing, canonical serialization and digest tests."""

import pytest

from orthoseg.config import RunConfig
from orthoseg.errors import ConfigurationError


def test_defaults_match_benchmark_network():
    cfg = RunConfig()
    net = cfg.network_config()
    assert net.num_encoder_blocks == 7
    assert net.primary_filters == (64, 128, 256, 512, 512, 512, 512)
    assert net.auxiliary_filters == (64, 128, 256, 256, 256, 256, 256)
    assert net.decoder_filters == 300
    assert net.sccb_dilations == ((5, 25), (11, 25))
    assert cfg.learning_rate == 0.0001
    assert cfg.momentum == 0.99
    assert cfg.plateau_window == 25000


def test_round_trip_is_canonical():
    cfg = RunConfig(seed=11, learning_rate=0.0003)
    text = cfg.serialize()
    again = RunConfig.parse(text)
    assert again == cfg
    assert again.serialize() == text
    keys = [line.split("=")[0] for line in text.strip().splitlines()]
    assert keys == sorted(keys)


def test_partial_text_uses_defaults():
    cfg = RunConfig.parse("seed=5\nlearning_rate=0.01\n\n# comment\n")
    assert cfg.seed == 5
    assert cfg.learning_rate == 0.01
    assert cfg.momentum == 0.99


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown key"):
        RunConfig.parse("learnign_rate=0.1\n")


@pytest.mark.parametrize("text, detail", [
    ("seed=-1\n", "seed must be >= 0, got -1"),
    ("num_classes=3\n", "num_classes must be 6, got 3"),
    ("num_classes=8\n", "num_classes must be 6, got 8"),
    # the paper's 7 encoder blocks need multiples of 2^8
    ("tile_size=0\n", "tile_size must be a positive multiple of 2\\^8, got 0"),
    ("tile_size=3\n", "tile_size must be a positive multiple of 2\\^8, got 3"),
    ("tile_size=24\n", "tile_size must be a positive multiple of 2\\^8, got 24"),
    ("eval_interval=0\n", "eval_interval must be >= 1, got 0"),
    ("checkpoint_interval=-1\n", "checkpoint_interval must be >= 1, got -1"),
    ("noiserate_le64=1.5\n", "noiserate_le64 must be in \\[0, 1\\), got 1.5"),
    ("noiserate_residual=1.0\n", "noiserate_residual must be in \\[0, 1\\), got 1.0"),
    ("noiserate_sccb=-0.1\n", "noiserate_sccb must be in \\[0, 1\\), got -0.1"),
    ("learning_rate=nan\n", "learning_rate must be finite and > 0, got nan"),
    ("learning_rate=0\n", "learning_rate must be finite and > 0, got 0.0"),
    ("learning_rate=inf\n", "learning_rate must be finite and > 0, got inf"),
    ("momentum=1.5\n", "momentum must be in \\[0, 1\\), got 1.5"),
    ("fine_tuning_momentum=1\n", "fine_tuning_momentum must be in \\[0, 1\\), got 1.0"),
    ("momentum=-0.5\n", "momentum must be in \\[0, 1\\), got -0.5"),
    ("plateau_window=0\n", "plateau_window must be >= 1, got 0"),
    ("plateau_threshold=-1e-06\n", "plateau_threshold must be finite and >= 0, got -1e-06"),
    ("plateau_threshold=nan\n", "plateau_threshold must be finite and >= 0, got nan"),
], ids=["negative-seed", "3-classes", "8-classes", "tile-0", "tile-3", "tile-24", "eval-interval-0",
        "checkpoint-interval-negative", "noiserate-1.5", "noiserate-1", "noiserate-negative",
        "learning-rate-nan", "learning-rate-0", "learning-rate-inf", "momentum-1.5",
        "fine-tuning-momentum-1", "momentum-negative", "plateau-window-0",
        "plateau-threshold-negative", "plateau-threshold-nan"])
def test_out_of_range_value_rejected(text, detail):
    with pytest.raises(ConfigurationError, match=detail):
        RunConfig.parse(text)


def test_usable_tile_sizes_accepted():
    for tile in (32, 64, 256, 1024):
        assert RunConfig.desk(tile_size=tile).tile_size == tile
    for tile in (256, 1024):
        assert RunConfig(tile_size=tile).tile_size == tile
    with pytest.raises(ConfigurationError, match="multiple of 2\\^1000000000000000000001, got 1024"):
        RunConfig(num_encoder_blocks=10**21)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        RunConfig.parse("seed=1\nseed=2\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigurationError, match="bad value"):
        RunConfig.parse("seed=hello\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigurationError, match="key=value"):
        RunConfig.parse("just some words\n")


def test_digest_changes_with_any_field():
    a, b = RunConfig(), RunConfig(seed=1)
    assert a.digest() != b.digest()
    assert a.digest() == RunConfig().digest()
    assert len(a.digest()) == 64


def test_file_round_trip(tmp_path):
    cfg = RunConfig.desk(seed=3)
    path = tmp_path / "run.cfg"
    cfg.save(str(path))
    assert RunConfig.load(str(path)) == cfg


def test_desk_preset_overrides():
    cfg = RunConfig.desk(max_iterations=123)
    assert cfg.num_encoder_blocks == 3
    assert cfg.max_iterations == 123
    assert cfg.tile_size == 64


def test_stitch_geometry_of_desk_preset():
    cfg = RunConfig.desk()
    assert cfg.stitch_geometry() == {"tile": 64, "stride": 16, "center": 32}
    assert "stitch" not in cfg.serialize()  # derived, not stored


def test_noiserates_bucketing():
    nr = RunConfig().noiserates()
    assert nr.rate("encoder", 64) == 0.0625
    assert nr.rate("encoder", 128) == 0.125
    assert nr.rate("encoder", 256) == 0.1875
    assert nr.rate("encoder", 512) == 0.25
    assert nr.rate("sccb") == 0.0625
    assert nr.rate("residual") == 0.0625


@pytest.mark.parametrize("line, key", [
    ("primary_filters=", "primary_filters"),
    ("primary_filters=64,abc,256,512,512,512,512", "primary_filters"),
    ("auxiliary_filters=64,128,256,256,256,256,2.5", "auxiliary_filters"),
    ("sccb_dilations=5", "sccb_dilations"),
    ("sccb_dilations=5:25:1", "sccb_dilations"),
    ("decoder_filters=-3", "decoder_filters"),
    ("decoder_filters=0", "decoder_filters"),
    ("num_encoder_blocks=3\nprimary_filters=16,0,64\nauxiliary_filters=16,32,32",
     "primary_filters"),
    ("sccb_dilations=0:25", "sccb_dilations"),
    ("sccb_dilations=5:-1", "sccb_dilations"),
    ("sccb_dilations=5:25,5:8", "sccb_dilations"),
    ("input_scale_divisor=0.0", "divisor"),
    ("output_scale_divisor=nan", "divisor"),
], ids=["empty", "non-numeric", "non-integer", "rate-only", "three-fields", "negative",
        "zero-decoder", "zero-filter", "zero-rate", "negative-width", "repeated-rate", "zero-divisor",
        "nan-divisor"])
def test_malformed_network_settings_rejected(line, key):
    cfg = RunConfig.parse(line)
    with pytest.raises(ConfigurationError, match=key):
        cfg.network_config()
