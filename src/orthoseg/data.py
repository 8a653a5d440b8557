"""Raster ingestion, tiling, augmentation, normalization, channel grouping and
the synthetic multimodal dataset used for desk-scale verification.

Channel roles: IR, R, G, B (8-bit reflectance), DSM (float metres),
LABEL (class indices).  NDVI is derived on the fly from raw IR and R.
The on-disk container is MCR (see read_mcr/write_mcr); colorized label
images are binary 8-bit PPM (see read_ppm/write_ppm).
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError

OPTICAL_ROLES = ("IR", "R", "G", "B")
INPUT_ROLES = OPTICAL_ROLES + ("DSM",)
ALL_ROLES = ("IR", "R", "G", "B", "DSM", "NDVI", "LABEL")

# canonical class palette (RGB), class index order
PALETTE = (
    (255, 255, 255),  # impervious surfaces
    (0, 0, 255),      # building
    (0, 255, 255),    # low vegetation
    (0, 255, 0),      # tree
    (255, 255, 0),    # car
    (255, 0, 0),      # clutter / background
)

CLASS_NAMES = (
    "impervious_surfaces",
    "building",
    "low_vegetation",
    "tree",
    "car",
    "clutter_background",
)


@dataclass
class Raster:
    """Co-registered named channel planes sharing one extent."""

    channels: dict
    raster_id: str = ""

    def __post_init__(self):
        shapes = {c.shape for c in self.channels.values()}
        if len(shapes) > 1:
            raise DataError(f"channel extents differ: {shapes}")
        for role in self.channels:
            if role not in ALL_ROLES:
                raise DataError(f"unknown channel role {role!r}")
        if "LABEL" in self.channels:
            lab = self.channels["LABEL"]
            if lab.size and (lab.min() < 0 or lab.max() >= len(PALETTE)):
                raise DataError("LABEL values outside [0, num_classes)")

    @property
    def height(self):
        return next(iter(self.channels.values())).shape[0]

    @property
    def width(self):
        return next(iter(self.channels.values())).shape[1]


# ---------------------------------------------------------------------------
# MCR container (bit-exact): magic "MCR1"; u32 LE channel_count, height,
# width; per channel a 16-byte zero-padded ASCII role name + u8 dtype code
# (1 = f32, 2 = u8); then all planes channel-major, row-major, little-endian.

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("u1")}
_CODE_FOR = {np.dtype("<f4"): 1, np.dtype("u1"): 2}


@contextlib.contextmanager
def replace_file(path):
    """Yields a binary file on ``<path>.tmp``, which on exit is synced and
    renamed over ``path`` (then the directory is synced), or removed on an
    exception.  A failed or killed write leaves the previous file intact, a
    finished one survives a crash, and views of the old file keep their values."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    _sync_dir(os.path.dirname(os.path.abspath(path)))


def _sync_dir(path):
    """Makes the last rename or removal in the directory ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def remove_files(directory, names):
    """Removes each of the files ``names`` that exists in ``directory``, then
    syncs the directory so that the removals are durable."""
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(directory, name))
    _sync_dir(directory)


def write_mcr(path, raster):
    with replace_file(path) as f:
        f.write(b"MCR1")
        f.write(struct.pack("<III", len(raster.channels), raster.height, raster.width))
        dtypes = {role: np.dtype("u1") if plane.dtype == np.uint8 else np.dtype("<f4")
                  for role, plane in raster.channels.items()}
        for role, dt in dtypes.items():
            name = role.encode("ascii")
            if len(name) > 16:
                raise DataError(f"role name {role!r} exceeds 16 bytes")
            f.write(name.ljust(16, b"\0"))
            f.write(struct.pack("B", _CODE_FOR[dt]))
        for role, dt in dtypes.items():
            f.write(np.ascontiguousarray(raster.channels[role], dtype=dt))


_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)\s?")


class MappedFile:
    """A file mapped copy-on-write and parsed front to back.  Every extent is
    checked against the bytes left before anything is read or allocated; a
    short file raises ``DataError`` "truncated <what>".  ``array`` returns
    writable views of the mapping, which keep it open."""

    def __init__(self, path):
        self.path, self.pos = path, 0
        with open(path, "rb") as f:
            try:
                self.buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
            except ValueError:  # an empty file cannot be mapped
                self.buf = b""
        self.size = len(self.buf)

    def take(self, n, what):
        """Offset of the next ``n`` bytes, which must lie inside the file."""
        if self.pos + n > self.size:
            raise DataError(f"{self.path}: truncated {what}")
        self.pos += n
        return self.pos - n

    def bytes(self, n, what):
        start = self.take(n, what)
        return self.buf[start:self.pos]

    def unpack(self, fmt, what):
        return struct.unpack_from(fmt, self.buf, self.take(struct.calcsize(fmt), what))

    def token(self):
        """The next header token, after any whitespace and ``#`` comments
        (each to its line's end), with the one whitespace byte that ends it;
        empty at the end of the file."""
        match = _TOKEN.match(self.buf, self.pos)
        self.pos = match.end()
        return match.group(1)

    def array(self, dtype, shape, what):
        """The next ``shape`` elements of ``dtype``, as a view of the mapping."""
        count = math.prod(shape)
        start = self.take(count * dtype.itemsize, what)
        try:
            return np.ndarray(shape, dtype, self.buf, start)
        except ValueError as exc:  # zero-size, yet too many elements to index
            raise DataError(f"{self.path}: {what} has unsupported extents {shape}") from exc


def read_mcr(path, raster_id=None):
    """The raster in ``path``; its planes are views of the mapped file.  A
    float32 plane holding a NaN or infinite pixel raises ``DataError``."""
    f = MappedFile(path)
    (magic,) = f.unpack("4s", "magic")
    if magic != b"MCR1":
        raise DataError(f"{path}: bad magic {magic!r}")
    nch, h, w = f.unpack("<III", "header")
    if not (nch and h and w):
        raise DataError(f"{path}: empty raster: {nch} channels of {h}x{w} pixels")
    descs = {}
    for _ in range(nch):
        raw, code = f.unpack("16sB", "channel descriptor")
        try:
            name = raw.rstrip(b"\0").decode("ascii")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: channel name is not ASCII") from exc
        if code not in _DTYPE_CODES:
            raise DataError(f"{path}: unknown dtype code {code}")
        if name in descs:
            raise DataError(f"{path}: channel {name} repeated")
        descs[name] = _DTYPE_CODES[code]
    channels = {name: f.array(dt, (h, w), f"plane {name}") for name, dt in descs.items()}
    for name, plane in channels.items():
        if plane.dtype.kind == "f" and not (finite := np.isfinite(plane)).all():
            r, c = np.argwhere(~finite)[0]
            raise DataError(f"{path}: {name} pixel ({r},{c}) is {plane[r, c]}, not finite")
    return Raster(channels=channels, raster_id=raster_id or str(path))


# ---------------------------------------------------------------------------
# PPM (binary, maxval 255)


def read_ppm(path):
    """(h, w, 3) uint8 pixels of a binary PPM, a view of the mapped file.  The
    header is four whitespace-separated fields (P6, width, height, maxval);
    ``#`` starts a comment that runs to its line's end, and the pixels start
    after the single whitespace byte that follows maxval."""
    f = MappedFile(path)
    fields = [f.token() for _ in range(4)]
    if fields[0] != b"P6":
        raise DataError(f"{path}: expected P6, got {fields[0]!r}")
    if not all(fields):
        raise DataError(f"{path}: PPM header has {fields.index(b'')} fields, not 4")
    try:
        w, h, maxval = (int(v) for v in fields[1:])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric PPM header field in {fields[1:]!r}") from exc
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
    if w < 0 or h < 0:
        raise DataError(f"{path}: negative extent {w}x{h}")
    return f.array(np.dtype("u1"), (h, w, 3), "pixel data")


def write_ppm(path, rgb):
    h, w = rgb.shape[:2]
    with replace_file(path) as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(rgb, dtype=np.uint8))


# ---------------------------------------------------------------------------
# label palette


def colorize(label_plane):
    """Class-index plane -> RGB image via the canonical palette."""
    lut = np.array(PALETTE, dtype=np.uint8)
    lab = np.asarray(label_plane)
    if lab.min() < 0 or lab.max() >= len(PALETTE):
        raise DataError("label index outside palette")
    return lut[lab]


def decode_label_colors(rgb):
    """RGB label image -> class-index plane; errors name the first bad pixel."""
    rgb = np.asarray(rgb)
    key = rgb[..., 0].astype(np.int64) * 65536 + rgb[..., 1].astype(np.int64) * 256 + rgb[..., 2]
    out = np.full(key.shape, -1, dtype=np.int64)
    for idx, (r, g, b) in enumerate(PALETTE):
        out[key == r * 65536 + g * 256 + b] = idx
    bad = np.argwhere(out < 0)
    if bad.size:
        r, c = bad[0]
        raise DataError(f"pixel ({r},{c}) color {tuple(int(v) for v in rgb[r, c])} not in palette")
    return out.astype(np.uint8)


# ---------------------------------------------------------------------------
# tiling


@dataclass
class TileSet:
    raster_id: str
    tile_size: int
    origins: list  # (row, col), row-major order


def _axis_origins(extent, tile, stride):
    origins = [0]
    while origins[-1] + tile < extent:
        origins.append(origins[-1] + stride)
    return origins


def tile_raster(raster, tile_size, overlap):
    """Regular-grid tiling; stride = round(tile * (1 - overlap)), half-up.

    Overhanging last row/column tiles are zero padded on extraction.
    """
    if not 0 <= overlap < 1:
        raise ConfigurationError(f"overlap {overlap} outside [0,1)")
    stride = int(np.floor(tile_size * (1.0 - overlap) + 0.5))
    if stride < 1:
        raise ConfigurationError("overlap too large: stride rounds to zero")
    rows = _axis_origins(raster.height, tile_size, stride)
    cols = _axis_origins(raster.width, tile_size, stride)
    return TileSet(
        raster_id=raster.raster_id,
        tile_size=tile_size,
        origins=[(r, c) for r in rows for c in cols],
    )


def extract_tile(raster, tileset, index):
    r0, c0 = tileset.origins[index]
    t = tileset.tile_size
    channels = {}
    for role, plane in raster.channels.items():
        tile = np.zeros((t, t), dtype=plane.dtype)
        r1 = min(r0 + t, plane.shape[0])
        c1 = min(c0 + t, plane.shape[1])
        tile[: r1 - r0, : c1 - c0] = plane[r0:r1, c0:c1]
        channels[role] = tile
    return Raster(channels=channels, raster_id=f"{tileset.raster_id}@{r0},{c0}")


def rotate_augment(tile):
    """Original tile plus its 90/180/270-degree rotations, all channels."""
    if tile.height != tile.width:
        raise ConfigurationError("rotation augmentation requires square tiles")
    out = []
    for k in range(4):
        channels = {role: np.rot90(plane, k).copy() for role, plane in tile.channels.items()}
        out.append(Raster(channels=channels, raster_id=f"{tile.raster_id}#rot{90 * k}"))
    return out


# ---------------------------------------------------------------------------
# normalization


def normalize_optical(plane):
    """8-bit reflectance -> x/100 - 1 (float64; callers narrow as needed)."""
    return plane.astype(np.float64) / 100.0 - 1.0


def normalize_dsm(plane):
    """Per-tile mean-centering divided by 35 (height in metres)."""
    p = plane.astype(np.float64)
    return (p - p.mean()) / 35.0


def compute_ndvi(ir, red):
    """(IR - RED) / (IR + RED) from raw reflectance; 0 where both are 0."""
    ir = ir.astype(np.float64)
    red = red.astype(np.float64)
    den = ir + red
    out = np.zeros_like(ir)
    np.divide(ir - red, den, out=out, where=den != 0)
    return out


def downsample2_mean(plane):
    h, w = plane.shape[-2:]
    if h % 2 or w % 2:
        raise ConfigurationError("2x downsampling requires even extents")
    return plane.reshape(*plane.shape[:-2], h // 2, 2, w // 2, 2).mean(axis=(-3, -1))


def network_inputs(planes):
    """Channel planes -> (primary 3xh/2xw/2, auxiliary 3xh/2xw/2), float32.

    Primary carries normalized IR-R-G; auxiliary carries normalized B, NDVI
    and normalized DSM; both are 2x2 stride-2 mean downsampled.
    """
    for role in INPUT_ROLES:
        if role not in planes:
            raise DataError(f"missing role {role}")
    primary = np.stack([normalize_optical(planes[r]) for r in ("IR", "R", "G")])
    auxiliary = np.stack([
        normalize_optical(planes["B"]),
        compute_ndvi(planes["IR"], planes["R"]),
        normalize_dsm(planes["DSM"]),
    ])
    return downsample2_mean(primary).astype(np.float32), downsample2_mean(auxiliary).astype(np.float32)


def assemble_inputs(tile):
    """Tile raster -> (primary, auxiliary, label, label_half): the
    ``network_inputs`` of its planes, the label at full resolution and a
    nearest-neighbor half-resolution copy, which does not keep the full
    label alive."""
    if "LABEL" not in tile.channels:
        raise DataError(f"tile {tile.raster_id!r} missing role LABEL")
    try:
        primary, auxiliary = network_inputs(tile.channels)
    except DataError as exc:
        raise DataError(f"tile {tile.raster_id!r}: {exc}") from exc
    label = tile.channels["LABEL"].astype(np.int64)
    return primary, auxiliary, label, label[::2, ::2].copy()


# ---------------------------------------------------------------------------
# train / validation split


def _footprints_overlap(a, b, tile):
    (ra, ca), (rb, cb) = a, b
    return abs(ra - rb) < tile and abs(ca - cb) < tile


def split_train_val(tilesets, fraction, seed):
    """Seeded validation selection plus removal of overlapping train tiles.

    ``tilesets``: list of TileSet.  Returns (train_ids, val_ids, dropped_ids)
    where an id is (tileset_index, origin_index).  Selection happens before
    augmentation; augmented variants follow their parent tile.
    """
    if not 0 < fraction < 1:
        raise ConfigurationError(f"validation fraction {fraction} outside (0,1)")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    all_ids = [(si, oi) for si, ts in enumerate(tilesets) for oi in range(len(ts.origins))]
    rng = np.random.default_rng(seed)
    n_val = max(1, int(round(fraction * len(all_ids))))
    val_pick = rng.choice(len(all_ids), size=n_val, replace=False)
    val_ids = sorted(all_ids[i] for i in val_pick)
    val_set = set(val_ids)
    train_ids, dropped = [], []
    for tid in all_ids:
        if tid in val_set:
            continue
        si, oi = tid
        ts = tilesets[si]
        clash = any(
            vsi == si and _footprints_overlap(ts.origins[oi], tilesets[vsi].origins[voi], ts.tile_size)
            for vsi, voi in val_ids
        )
        (dropped if clash else train_ids).append(tid)
    if not train_ids:
        raise DataError("overlap removal left an empty training set")
    return train_ids, val_ids, dropped


# ---------------------------------------------------------------------------
# prepared datasets: written by ``prepare_dataset``, read by ``load_samples``


def _slug(text):
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text)


def _read_input(path, raster_id):
    try:
        return read_mcr(path, raster_id=raster_id)
    except (DataError, OSError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def prepare_dataset(input_dir, out_dir, tile, overlap, val_fraction, seed):
    """Tiles each ``.mcr`` raster in ``input_dir``, splits the tiles
    (``split_train_val``), writes each validation tile and the four rotations
    of each training tile to ``out_dir/tiles/<name>.mcr``, then the manifest,
    which it returns, to ``out_dir/manifest.json``.  A previous manifest is
    removed before the first tile is written, so a stopped run leaves none,
    and after the new one is written every file in ``tiles/`` that it does
    not name is removed.
    Each of the two passes, tiling and writing, maps one input raster at a time."""
    inputs = {}  # tile-name prefix -> input path, in file-name order
    for name in sorted(p for p in os.listdir(input_dir) if p.endswith(".mcr")):
        prefix = _slug(os.path.splitext(name)[0])
        if prefix in inputs:
            raise DataError(f"{inputs[prefix]} and {name} would both name their tiles {prefix}_*")
        inputs[prefix] = os.path.join(input_dir, name)
    if not inputs:
        raise DataError(f"no .mcr rasters in {input_dir}")
    tilesets = [tile_raster(_read_input(path, prefix), tile, overlap) for prefix, path in inputs.items()]
    train_ids, val_ids, dropped_ids = split_train_val(tilesets, val_fraction, seed)
    names = [[f"{ts.raster_id}_r{r}_c{c}" for r, c in ts.origins] for ts in tilesets]
    manifest = {"tile_size": tile, "overlap": overlap, "seed": seed,
                "train": [f"{names[si][oi]}_rot{90 * k}" for si, oi in train_ids for k in range(4)],
                "val": [names[si][oi] for si, oi in val_ids], "dropped": [names[si][oi] for si, oi in dropped_ids]}
    tiles_dir = os.path.join(out_dir, "tiles")
    os.makedirs(tiles_dir, exist_ok=True)
    remove_files(out_dir, ["manifest.json"])
    for si, (ts, path) in enumerate(zip(tilesets, inputs.values())):
        raster = _read_input(path, ts.raster_id)
        for oi in (oi for sj, oi in val_ids if sj == si):
            write_mcr(os.path.join(tiles_dir, f"{names[si][oi]}.mcr"), extract_tile(raster, ts, oi))
        for oi in (oi for sj, oi in train_ids if sj == si):
            for k, rot in enumerate(rotate_augment(extract_tile(raster, ts, oi))):
                write_mcr(os.path.join(tiles_dir, f"{names[si][oi]}_rot{90 * k}.mcr"), rot)
        del raster  # unmapped before the next input is mapped
    with replace_file(os.path.join(out_dir, "manifest.json")) as f:
        f.write(json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8"))
    named = {f"{name}.mcr" for name in manifest["train"] + manifest["val"]}
    remove_files(tiles_dir, [e.name for e in os.scandir(tiles_dir)
                             if e.is_file() and e.name not in named])
    return manifest


def load_manifest(prepared_dir):
    """``prepared_dir``'s manifest: a JSON object whose ``train`` and ``val``
    are lists of tile names."""
    path = os.path.join(prepared_dir, "manifest.json")
    if not os.path.exists(path):
        raise DataError(f"{prepared_dir}: no manifest.json (run prepare first)")
    try:
        with open(path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise DataError(f"{path}: not JSON: {exc}") from exc
    if not (isinstance(manifest, dict) and all(
            isinstance(manifest.get(split), list) and all(isinstance(n, str) for n in manifest[split])
            for split in ("train", "val"))):
        raise DataError(f"{path}: needs a JSON object whose train and val are lists of tile names")
    return manifest


def load_samples(prepared_dir, names):
    """(primary, auxiliary, label_half) training triples of the prepared
    tiles ``names``."""
    samples = []
    for name in names:
        tile = read_mcr(os.path.join(prepared_dir, "tiles", f"{name}.mcr"))
        primary, auxiliary, _, label_half = assemble_inputs(tile)
        samples.append((primary, auxiliary, label_half))
    return samples


# ---------------------------------------------------------------------------
# synthetic dataset

# per-class raw channel signatures (IR, R, G, B) and DSM height offsets;
# pairwise well separated so a nearest-centroid pixel classifier solves the
# task (the learning sanity floor for desk-scale training)
SYNTH_SIGNATURES = {
    0: (40, 170, 170, 170),
    1: (60, 60, 60, 200),
    2: (180, 60, 140, 60),
    3: (230, 40, 90, 40),
    4: (90, 220, 200, 40),
    5: (150, 220, 60, 60),
}
SYNTH_DSM_OFFSET = {0: 0.0, 1: 12.0, 2: 0.5, 3: 8.0, 4: 2.0, 5: 1.0}
SYNTH_OPTICAL_NOISE = 8.0
SYNTH_DSM_NOISE = 0.3


def synth_raster(size, rng, raster_id):
    """One synthetic scene: class-0 background plus random rectangles and
    ellipses of classes 1-5, with smooth terrain under the DSM."""
    label = np.zeros((size, size), dtype=np.uint8)
    yy, xx = np.mgrid[0:size, 0:size]
    n_shapes = int(rng.integers(8, 16))
    for _ in range(n_shapes):
        cls = int(rng.integers(1, 6))
        cy, cx = rng.integers(0, size, size=2)
        ry = int(rng.integers(max(2, size // 10), max(3, size // 3)))
        rx = int(rng.integers(max(2, size // 10), max(3, size // 3)))
        if rng.random() < 0.5:
            mask = (np.abs(yy - cy) <= ry) & (np.abs(xx - cx) <= rx)
        else:
            mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        label[mask] = cls

    sig = np.array([SYNTH_SIGNATURES[c] for c in range(6)], dtype=np.float32)
    base = sig[label]  # (H,W,4) in IR,R,G,B order
    optical = base + rng.normal(0, SYNTH_OPTICAL_NOISE, size=base.shape)
    optical = np.clip(np.rint(optical), 0, 255).astype(np.uint8)

    fy, fx = rng.uniform(0.5, 2.0, size=2)
    py, px = rng.uniform(0, 2 * np.pi, size=2)
    terrain = 3.0 * np.sin(2 * np.pi * fy * yy / size + py) * np.cos(2 * np.pi * fx * xx / size + px)
    offsets = np.array([SYNTH_DSM_OFFSET[c] for c in range(6)], dtype=np.float32)
    dsm = (terrain + offsets[label] + rng.normal(0, SYNTH_DSM_NOISE, size=label.shape)).astype(np.float32)

    return Raster(
        channels={
            "IR": optical[..., 0],
            "R": optical[..., 1],
            "G": optical[..., 2],
            "B": optical[..., 3],
            "DSM": dsm,
            "LABEL": label,
        },
        raster_id=raster_id,
    )


def synth_dataset(num_rasters, size, seed):
    """Deterministic synthetic multimodal rasters with exact labels."""
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if size < 1:
        raise ConfigurationError(f"raster size must be >= 1, got {size}")
    master = np.random.default_rng(seed)
    rasters = []
    for i in range(num_rasters):
        rng = np.random.default_rng(master.integers(0, 2**63))
        rasters.append(synth_raster(size, rng, raster_id=f"synth{i:03d}"))
    return rasters
