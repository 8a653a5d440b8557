import struct

import numpy as np
import pytest

from orthoseg import data
from orthoseg.data import Raster, TileSet
from orthoseg.errors import ConfigurationError, DataError


def make_raster(h, w, seed=0, raster_id="r0"):
    rng = np.random.default_rng(seed)
    return Raster(
        channels={
            "IR": rng.integers(0, 256, size=(h, w)).astype(np.uint8),
            "R": rng.integers(0, 256, size=(h, w)).astype(np.uint8),
            "G": rng.integers(0, 256, size=(h, w)).astype(np.uint8),
            "B": rng.integers(0, 256, size=(h, w)).astype(np.uint8),
            "DSM": rng.normal(10, 5, size=(h, w)).astype(np.float32),
            "LABEL": rng.integers(0, 6, size=(h, w)).astype(np.uint8),
        },
        raster_id=raster_id,
    )


def origins_oracle(extent, tile, stride):
    """Independent enumeration: walk the stride grid until a tile reaches
    or overruns the extent."""
    out, o = [], 0
    while True:
        out.append(o)
        if o + tile >= extent:
            return out
        o += stride


class TestTiling:
    def test_extent10_tile4_overlap066(self):
        ts = data.tile_raster(make_raster(10, 10), tile_size=4, overlap=0.66)
        rows = sorted({r for r, _ in ts.origins})
        assert rows[1] - rows[0] == 1  # round(4 * 0.34) = 1
        assert rows == list(range(7)) == origins_oracle(10, 4, 1)
        assert rows[-1] + ts.tile_size == 10  # no padding needed

    def test_extent9_tile4_overlap05(self):
        ts = data.tile_raster(make_raster(9, 9), tile_size=4, overlap=0.5)
        rows = sorted({r for r, _ in ts.origins})
        assert rows[1] - rows[0] == 2
        assert rows == [0, 2, 4, 6] == origins_oracle(9, 4, 2)
        assert rows[-1] + ts.tile_size == 10  # last tile padded by 1

    def test_overlap_zero_nonoverlapping(self):
        ts = data.tile_raster(make_raster(12, 12), tile_size=4, overlap=0.0)
        rows = sorted({r for r, _ in ts.origins})
        assert rows[1] - rows[0] == 4
        assert rows == [0, 4, 8]

    def test_paper_stride(self):
        ts = data.tile_raster(make_raster(2048, 2048), tile_size=1024, overlap=0.66)
        rows = sorted({r for r, _ in ts.origins})
        assert rows[1] - rows[0] == 348  # 1024 * 0.34 = 348.16 rounds to 348

    def test_bad_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            data.tile_raster(make_raster(8, 8), tile_size=4, overlap=1.0)

    def test_coverage_and_padding(self):
        r = make_raster(9, 9, seed=1)
        ts = data.tile_raster(r, tile_size=4, overlap=0.5)
        rows, cols = zip(*ts.origins)  # padded extents end at the last tiles' far edges
        recon = np.zeros((max(rows) + 4, max(cols) + 4), dtype=np.uint8)
        covered = np.zeros_like(recon, dtype=bool)
        for i, (r0, c0) in enumerate(ts.origins):
            tile = data.extract_tile(r, ts, i)
            recon[r0 : r0 + 4, c0 : c0 + 4] = tile.channels["IR"]
            covered[r0 : r0 + 4, c0 : c0 + 4] = True
        assert covered.all()
        np.testing.assert_array_equal(recon[:9, :9], r.channels["IR"])
        assert not recon[9:, :].any() and not recon[:, 9:].any()


class TestRotation:
    def test_four_rotations_identity(self):
        tile = make_raster(8, 8, seed=2)
        rots = data.rotate_augment(tile)
        twice = data.rotate_augment(rots[1])
        np.testing.assert_array_equal(twice[3].channels["IR"], tile.channels["IR"])

    def test_rot180_is_rot90_twice(self):
        tile = make_raster(8, 8, seed=3)
        rots = data.rotate_augment(tile)
        r90 = rots[1].channels["G"]
        np.testing.assert_array_equal(rots[2].channels["G"], np.rot90(r90))

    def test_index_mapping_hand_case(self):
        plane = np.arange(9, dtype=np.uint8).reshape(3, 3)
        tile = Raster(channels={"LABEL": plane % 6}, raster_id="t")
        r90 = data.rotate_augment(tile)[1].channels["LABEL"]
        for r in range(3):
            for c in range(3):
                assert r90[r, c] == tile.channels["LABEL"][c, 2 - r]

    def test_label_histogram_preserved(self):
        tile = make_raster(16, 16, seed=4)
        base = np.bincount(tile.channels["LABEL"].ravel(), minlength=6)
        for rot in data.rotate_augment(tile):
            np.testing.assert_array_equal(np.bincount(rot.channels["LABEL"].ravel(), minlength=6), base)

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            data.rotate_augment(make_raster(8, 10))


class TestNormalization:
    def test_optical_values(self):
        plane = np.array([[0, 100, 255]], dtype=np.uint8)
        np.testing.assert_allclose(data.normalize_optical(plane), [[-1.0, 0.0, 1.55]], atol=1e-9)

    def test_dsm_constant_to_zero(self):
        assert not data.normalize_dsm(np.full((4, 4), 17.3, dtype=np.float32)).any()

    def test_dsm_hand_values(self):
        plane = np.array([[0.0, 70.0]], dtype=np.float32)
        np.testing.assert_allclose(data.normalize_dsm(plane), [[-1.0, 1.0]], atol=1e-9)

    def test_dsm_mean_zero(self):
        plane = np.random.default_rng(5).normal(20, 6, size=(32, 32)).astype(np.float32)
        assert abs(data.normalize_dsm(plane).mean()) < 1e-5

    def test_ndvi_values(self):
        ir = np.array([[0.6, 0.3, 1.0, 0.0]], dtype=np.float32)
        red = np.array([[0.2, 0.3, 0.0, 0.0]], dtype=np.float32)
        np.testing.assert_allclose(data.compute_ndvi(ir, red), [[0.5, 0.0, 1.0, 0.0]], atol=1e-9)

    def test_ndvi_range(self):
        rng = np.random.default_rng(6)
        ir = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        red = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        nd = data.compute_ndvi(ir, red)
        assert nd.min() >= -1.0 and nd.max() <= 1.0


class TestAssemble:
    def test_shapes_and_downsampling(self):
        tile = make_raster(64, 64, seed=7)
        primary, auxiliary, label, label_half = data.assemble_inputs(tile)
        assert primary.shape == (3, 32, 32) and auxiliary.shape == (3, 32, 32)
        assert label.shape == (64, 64) and label_half.shape == (32, 32)
        assert primary.dtype == np.float32

    def test_constant_channels_stay_constant(self):
        channels = {r: np.full((8, 8), 100, dtype=np.uint8) for r in ("IR", "R", "G", "B")}
        channels["DSM"] = np.full((8, 8), 5.0, dtype=np.float32)
        channels["LABEL"] = np.zeros((8, 8), dtype=np.uint8)
        primary, auxiliary, _, _ = data.assemble_inputs(Raster(channels=channels))
        np.testing.assert_allclose(primary, 0.0, atol=1e-7)

    def test_downsample_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        plane = rng.normal(size=(1, 6, 6))
        out = data.downsample2_mean(plane)
        for i in range(3):
            for j in range(3):
                assert out[0, i, j] == pytest.approx(plane[0, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].mean())

    def test_missing_role_rejected(self):
        tile = make_raster(8, 8)
        del tile.channels["DSM"]
        with pytest.raises(DataError):
            data.assemble_inputs(tile)

    def test_network_inputs_are_assembled_inputs(self):
        tile = make_raster(8, 8, seed=3)
        primary, auxiliary = data.network_inputs(tile.channels)
        want = data.assemble_inputs(tile)
        np.testing.assert_array_equal(primary, want[0])
        np.testing.assert_array_equal(auxiliary, want[1])

    @pytest.mark.parametrize("role", ["IR", "R", "G", "B", "DSM"])
    def test_network_inputs_missing_plane_rejected(self, role):
        planes = dict(make_raster(8, 8).channels)
        del planes[role]
        with pytest.raises(DataError, match=f"missing role {role}"):
            data.network_inputs(planes)


def split_oracle(tilesets, val_ids, tile):
    dropped = []
    val_set = set(val_ids)
    for si, ts in enumerate(tilesets):
        for oi, (r, c) in enumerate(ts.origins):
            if (si, oi) in val_set:
                continue
            for vsi, voi in val_ids:
                if vsi != si:
                    continue
                vr, vc = tilesets[vsi].origins[voi]
                if abs(r - vr) < tile and abs(c - vc) < tile:
                    dropped.append((si, oi))
                    break
    return sorted(dropped)


class TestSplit:
    def test_disjoint_grid_drops_nothing(self):
        r = make_raster(16, 16, seed=9)
        ts = data.tile_raster(r, tile_size=4, overlap=0.0)
        train, val, dropped = data.split_train_val([ts], fraction=0.10, seed=1)
        assert not dropped
        assert len(train) + len(val) == len(ts.origins)

    def test_fully_overlapping_pair_partner_dropped(self):
        # two overlapping tiles plus one far away; whichever of the pair is
        # chosen for validation, its partner must be dropped from training
        ts = TileSet(raster_id="x", tile_size=4,
                     origins=[(0, 0), (0, 1), (0, 100)])
        for seed in range(10):
            train, val, dropped = data.split_train_val([ts], fraction=0.34, seed=seed)
            if val[0] in ((0, 0), (0, 1)):
                partner = (0, 1) if val[0] == (0, 0) else (0, 0)
                assert dropped == [partner]
                assert train == [(0, 2)]
                break
        else:
            pytest.fail("no seed selected one of the overlapping pair")

    def test_strip_matches_brute_force(self):
        r = make_raster(4, 22, seed=10)
        ts = data.tile_raster(r, tile_size=4, overlap=0.5)
        train, val, dropped = data.split_train_val([ts], fraction=0.2, seed=3)
        assert sorted(dropped) == split_oracle([ts], val, 4)
        assert not (set(train) & set(val))

    def test_determinism(self):
        r = make_raster(16, 16, seed=11)
        ts = data.tile_raster(r, tile_size=4, overlap=0.5)
        a = data.split_train_val([ts], fraction=0.2, seed=5)
        b = data.split_train_val([ts], fraction=0.2, seed=5)
        assert a == b

    def test_bad_fraction_rejected(self):
        ts = data.tile_raster(make_raster(8, 8), tile_size=4, overlap=0.0)
        with pytest.raises(ConfigurationError):
            data.split_train_val([ts], fraction=0.0, seed=0)


class TestPalette:
    def test_white_is_class_zero(self):
        img = np.full((1, 1, 3), 255, dtype=np.uint8)
        assert data.decode_label_colors(img)[0, 0] == 0
        np.testing.assert_array_equal(data.colorize(np.array([[0]])), img)

    def test_round_trip(self):
        lab = np.random.default_rng(12).integers(0, 6, size=(9, 9)).astype(np.uint8)
        np.testing.assert_array_equal(data.decode_label_colors(data.colorize(lab)), lab)

    def test_off_palette_reports_coordinates(self):
        img = data.colorize(np.zeros((3, 3), dtype=np.uint8))
        img[1, 2] = (12, 34, 56)
        with pytest.raises(DataError, match=r"\(1,2\)"):
            data.decode_label_colors(img)


class TestMcr:
    def test_round_trip_bitwise(self, tmp_path):
        r = make_raster(7, 5, seed=13)
        path = tmp_path / "r.mcr"
        data.write_mcr(path, r)
        r2 = data.read_mcr(path)
        assert list(r2.channels) == list(r.channels)
        for role in r.channels:
            assert r2.channels[role].dtype == r.channels[role].dtype
            np.testing.assert_array_equal(r2.channels[role], r.channels[role])
        data.write_mcr(tmp_path / "r2.mcr", r2)
        assert (tmp_path / "r.mcr").read_bytes() == (tmp_path / "r2.mcr").read_bytes()

    def test_header_layout(self, tmp_path):
        r = make_raster(2, 3, seed=14)
        path = tmp_path / "r.mcr"
        data.write_mcr(path, r)
        raw = path.read_bytes()
        assert raw[:4] == b"MCR1"
        import struct
        nch, h, w = struct.unpack("<III", raw[4:16])
        assert (nch, h, w) == (6, 2, 3)
        assert raw[16:32].rstrip(b"\0") == b"IR"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mcr"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(DataError):
            data.read_mcr(path)

    def test_cut_inside_header_rejected(self, tmp_path):
        path = tmp_path / "cut.mcr"
        data.write_mcr(path, make_raster(2, 3, seed=17))
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(DataError, match="truncated header"):
            data.read_mcr(path)

    def test_oversized_plane_rejected_before_reading(self, tmp_path):
        # 33 bytes declaring one 60000x60000 f32 plane (14.4 GB)
        path = tmp_path / "huge.mcr"
        path.write_bytes(b"MCR1" + struct.pack("<III", 1, 60000, 60000)
                         + b"DSM".ljust(16, b"\0") + b"\x01")
        assert path.stat().st_size == 33
        with pytest.raises(DataError, match="truncated plane DSM"):
            data.read_mcr(path)

    @pytest.mark.parametrize("channels, h, w, match", [
        ((), 2, 3, "empty raster: 0 channels of 2x3"),
        (("IR", "IR"), 2, 3, "channel IR repeated"),
        (("IR", "DSM"), 0, 64, "empty raster: 2 channels of 0x64"),
        (("IR",), 64, 0, "empty raster: 1 channels of 64x0"),
    ], ids=["no-channels", "repeated-role", "zero-height", "zero-width"])
    def test_nothing_to_tile_rejected(self, tmp_path, channels, h, w, match):
        path = tmp_path / "empty.mcr"
        path.write_bytes(b"MCR1" + struct.pack("<III", len(channels), h, w)
                         + b"".join(role.encode().ljust(16, b"\0") + b"\x02" for role in channels)
                         + bytes(len(channels) * h * w))
        with pytest.raises(DataError, match=match):
            data.read_mcr(path)


class TestPnm:
    def test_ppm_round_trip(self, tmp_path):
        img = np.random.default_rng(15).integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        data.write_ppm(tmp_path / "x.ppm", img)
        np.testing.assert_array_equal(data.read_ppm(tmp_path / "x.ppm"), img)

    @pytest.mark.parametrize("read, header, pixels", [
        (data.read_ppm, b"P6 2 1 255\n", [[[1, 2, 3], [4, 5, 6]]]),
        # one whitespace byte ends maxval; the next byte is a pixel even if
        # it reads as whitespace (10 and 32 below)
        (data.read_ppm, b"P6 2 1 255 ", [[[10, 2, 3], [4, 5, 6]]]),
        (data.read_ppm, b"P6\t2\t1\t255\t", [[[32, 9, 3], [4, 5, 6]]]),
    ], ids=["ppm", "ppm-space", "ppm-tab"])
    def test_single_line_header(self, tmp_path, read, header, pixels):
        path = tmp_path / "one.pnm"
        path.write_bytes(header + np.array(pixels, dtype=np.uint8).tobytes())
        np.testing.assert_array_equal(read(path), pixels)

    def test_comments_and_split_fields(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 # width\n# another\n1\n255\n\x01\x02\x03\x07\x08\x09")
        np.testing.assert_array_equal(data.read_ppm(path), [[[1, 2, 3], [7, 8, 9]]])

    @pytest.mark.parametrize("read, magic", [(data.read_ppm, b"P6")])
    @pytest.mark.parametrize("body, match", [
        (b"", "expected"),
        (b"\nabc 4\n255\n", "non-numeric"),
        (b"\n-1 -1\n255\n\0\0\0", "negative extent"),
        (b"\n60000 60000\n255\n", "truncated pixel data"),
        (b"\n0 99999999999999999999\n255\n", "unsupported extents"),
    ], ids=["empty", "non-numeric", "negative", "oversized", "zero-by-huge"])
    def test_malformed_rejected(self, tmp_path, read, magic, body, match):
        path = tmp_path / "bad.pnm"
        path.write_bytes(magic + body if body else b"")
        with pytest.raises(DataError, match=match):
            read(path)


def test_read_arrays_are_writable_views(tmp_path):
    """MCR planes and PPM pixels are copy-on-write views of their files:
    writable, not owning their data, and writing to them leaves the files
    unchanged."""
    raster = make_raster(4, 5, seed=18)
    mcr, ppm = tmp_path / "r.mcr", tmp_path / "r.ppm"
    data.write_mcr(mcr, raster)
    data.write_ppm(ppm, data.colorize(raster.channels["LABEL"]))
    before = {path: path.read_bytes() for path in (mcr, ppm)}
    for a in [*data.read_mcr(mcr).channels.values(), data.read_ppm(ppm)]:
        assert not a.flags.owndata and a.flags.writeable
        a += 1
    assert {path: path.read_bytes() for path in (mcr, ppm)} == before


def test_write_over_read_path_keeps_read_values(tmp_path):
    raster = make_raster(4, 5, seed=19)
    rgb = data.colorize(raster.channels["LABEL"])
    mcr, ppm = tmp_path / "r.mcr", tmp_path / "r.ppm"
    data.write_mcr(mcr, raster)
    data.write_ppm(ppm, rgb)
    planes, pixels = data.read_mcr(mcr).channels, data.read_ppm(ppm)
    data.write_mcr(mcr, make_raster(4, 5, seed=20))
    data.write_ppm(ppm, 255 - rgb)
    for role, plane in raster.channels.items():
        assert np.array_equal(planes[role], plane), role
    assert np.array_equal(pixels, rgb)
    assert not np.array_equal(data.read_ppm(ppm), rgb)


class TestSynth:
    def test_determinism(self):
        a = data.synth_dataset(2, 32, seed=99)
        b = data.synth_dataset(2, 32, seed=99)
        for ra, rb in zip(a, b):
            for role in ra.channels:
                np.testing.assert_array_equal(ra.channels[role], rb.channels[role])

    def test_labels_in_range(self):
        for r in data.synth_dataset(3, 32, seed=1):
            assert r.channels["LABEL"].max() < 6

    def test_all_roles_present(self):
        r = data.synth_dataset(1, 32, seed=2)[0]
        assert set(r.channels) == {"IR", "R", "G", "B", "DSM", "LABEL"}

    def test_nearest_centroid_solvable(self):
        accs = [data.nearest_centroid_accuracy(r) for r in data.synth_dataset(4, 64, seed=7)]
        assert min(accs) > 0.80, accs
