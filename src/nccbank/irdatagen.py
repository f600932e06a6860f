"""Synthetic infrared scenes and the patch dataset pipeline.

The real mid-wave IR data this toolkit was designed around cannot ship, so
this module generates a stand-in with the same failure modes: smooth sky
gradients with cloud blobs, terraced terrain edges, sea-glint speckles,
clean collimator frames, PSF-blurred point targets, detector noise, and
isolated bad pixels that look deceptively like targets.

From scenes it builds labeled samples: each sample stores a +/-1 label,
a flags byte (bit 0: the margin is real scene data) and a 19x19 context
grid whose central 15x15 core is the actual patch; the 2-pixel margin
exists so +/-1, +/-2 pixel shift augmentation never reads outside recorded
data.  A sample set is a 1-D array of ``SAMPLE_DTYPE`` records, from
extraction through subsampling to the dataset file, whose payload is the
array's own bytes.  Positives are augmented 64x (4 rotations x 16 shifts),
negatives 4x (4 rotations), straight into arrays of 15x15 cores.
Negatives can be thinned with greedy farthest-point subsampling under the
NCC distance 1 - ncc_score(a, b).

Datasets are stored in a little-endian binary format (magic "NCCD"); see
``write_dataset``.  Contexts are stored and kept in memory as float32 so a
write/read round-trip is bit-identical.
"""

import csv
import dataclasses
import pathlib
import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from nccbank import gridio
from nccbank import patchmath as pm

CORE_SIZE = 15
CONTEXT_SIZE = 19
MARGIN = (CONTEXT_SIZE - CORE_SIZE) // 2
BASE_LEVEL = 1000.0  # nominal detector count floor for all scenes

SKY = "sky"
TERRAIN = "terrain"
SEA_GLINT = "sea_glint"
COLLIMATOR = "collimator"
CLUTTER_KINDS = (SKY, TERRAIN, SEA_GLINT, COLLIMATOR)

DATASET_MAGIC = b"NCCD"
DATASET_VERSION = 1
# One labeled sample, in memory and as a dataset record: label +1/-1,
# flags (bit 0 = margin valid, every other bit clear), float32 context.
SAMPLE_DTYPE = np.dtype(
    [("label", "<i1"), ("flags", "<u1"),
     ("context", "<f4", (CONTEXT_SIZE, CONTEXT_SIZE))]
)
_MARGIN_VALID = 1

_TARGET_BORDER = 10  # truth centers keep this many px from the frame edge


class DatasetFormatError(ValueError):
    """Base class for dataset file problems."""


class CorruptHeaderError(DatasetFormatError):
    pass


class VersionMismatchError(DatasetFormatError):
    pass


class TruncatedFileError(DatasetFormatError):
    pass


@dataclasses.dataclass
class SceneConfig:
    width: int = 128
    height: int = 128
    clutter_kind: str = SKY
    clutter_strength: float = 1.0
    target_count: int = 8
    target_amplitude: float = 60.0
    psf_sigma: float = 1.2
    noise_sigma: float = 5.0
    bad_pixel_rate: float = 0.0
    rng_seed: int = 0

    def validate(self):
        for name in ("clutter_strength", "target_amplitude", "psf_sigma",
                     "noise_sigma", "bad_pixel_rate"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.width < 64 or self.height < 64:
            raise ValueError("scene dimensions must be at least 64")
        if self.clutter_kind not in CLUTTER_KINDS:
            raise ValueError(f"unknown clutter kind {self.clutter_kind!r}")
        if self.clutter_strength < 0:
            raise ValueError("clutter_strength must be >= 0")
        if self.target_count < 0:
            raise ValueError("target_count must be >= 0")
        if self.target_amplitude <= 0:
            raise ValueError("target_amplitude must be > 0")
        if self.psf_sigma <= 0:
            raise ValueError("psf_sigma must be > 0")
        if self.psf_sigma > _TARGET_BORDER / 4:
            raise ValueError(
                f"psf_sigma must be <= {_TARGET_BORDER / 4}: the 4-sigma PSF "
                f"stamp must fit inside the {_TARGET_BORDER} px target border"
            )
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not (0.0 <= self.bad_pixel_rate < 1.0):
            raise ValueError("bad_pixel_rate must be in [0, 1)")


@dataclasses.dataclass
class Scene:
    image: np.ndarray
    truths: list
    bad_pixels: list


def _add_blob(field, cy, cx, sig, amp):
    """Add a full-frame Gaussian of width ``sig`` centered at (cy, cx)."""
    h, w = field.shape
    ys = (np.arange(h)[:, None] - cy) / sig
    xs = (np.arange(w)[None, :] - cx) / sig
    field += amp * np.exp(-0.5 * (ys * ys + xs * xs))


def _psf(sigma):
    """Peak-1 Gaussian PSF truncated at max(ceil(4 sigma), 2) px."""
    support = max(int(np.ceil(4.0 * sigma)), 2)
    ys = np.arange(-support, support + 1)
    return np.exp(-(ys[:, None] ** 2 + ys[None, :] ** 2) / (2.0 * sigma**2))


def _stamp(field, blob, r, c, amp):
    """Add ``amp * blob`` centered on pixel (r, c)."""
    s = blob.shape[0] // 2
    field[r - s : r + s + 1, c - s : c + s + 1] += amp * blob


def _sky_clutter(shape, strength, rng):
    h, w = shape
    yy = np.linspace(0.0, 1.0, h)[:, None]
    xx = np.linspace(0.0, 1.0, w)[None, :]
    coef = rng.uniform(-1.0, 1.0, size=6)
    field = 40.0 * strength * (
        coef[0] * yy
        + coef[1] * xx
        + coef[2] * yy * xx
        + coef[3] * yy * yy
        + coef[4] * xx * xx
        + coef[5]
    )
    # wide soft blobs standing in for cloud structure
    for _ in range(int(rng.integers(3, 8))):
        _add_blob(field, rng.uniform(0, h), rng.uniform(0, w),
                  rng.uniform(8.0, 25.0), strength * rng.uniform(10.0, 45.0))
    return field


def _terrain_clutter(shape, strength, rng):
    h, w = shape
    field = np.zeros(shape)
    for _ in range(10):
        _add_blob(field, rng.uniform(0, h), rng.uniform(0, w),
                  rng.uniform(10.0, 30.0), rng.uniform(-50.0, 50.0))
    # quantize the smooth field into plateaus: hard high-contrast edges
    step = max(35.0 * strength, 1e-6)
    return np.floor(field / step) * step


def _sea_glint_clutter(shape, strength, rng, target_amplitude, psf):
    h, w = shape
    field = np.zeros(shape)
    # Sun glitter arrives in sparkle bands: near-horizontal chains of
    # point-like glints.  Each glint is blurred by the same optics as a
    # target, so inside a point-sized window it is indistinguishable from
    # one -- but glints come as doublets, a bright facet flash plus a
    # fainter partner flash a few pixels away.  Only a window wide enough
    # to see the partner can tell glint from target.  Lone hot pixels stay
    # below the noise floor.
    support = psf.shape[0] // 2

    def in_frame(rr, cc):
        return (support <= rr < h - support) and (support <= cc < w - support)

    mains = []
    n_bands = int(rng.integers(2, max(3, int(4 * strength) + 1)))
    for _ in range(n_bands):
        r0 = float(rng.integers(support, h - support))
        c0 = float(rng.integers(support, max(support + 1, w // 3)))
        slope = rng.uniform(-0.25, 0.25)
        length = int(rng.integers(30, max(31, min(80, w - 6))))
        pos = 0.0
        while pos < length:
            rr = int(round(r0 + slope * pos + rng.uniform(-1.5, 1.5)))
            cc = int(round(c0 + pos))
            pos += float(rng.integers(10, 16))
            angle = rng.uniform(0.0, 2.0 * np.pi)
            dist = rng.uniform(3.8, 4.4)
            pr = int(round(rr + dist * np.sin(angle)))
            pc = int(round(cc + dist * np.cos(angle)))
            # a flash only renders when its partner fits too (no orphan
            # flashes) and bands never pile flashes on top of each other
            if not (in_frame(rr, cc) and in_frame(pr, pc)):
                continue
            if any(max(abs(rr - mr), abs(cc - mc)) < 9 for mr, mc in mains):
                continue
            amp = target_amplitude * rng.uniform(0.8, 1.5)
            _stamp(field, psf, rr, cc, amp)
            _stamp(field, psf, pr, pc, amp * rng.uniform(0.4, 0.55))
            mains.append((rr, cc))
    n_singles = int(rng.integers(5, 15))
    for _ in range(n_singles):
        r = int(rng.integers(0, h))
        c = int(rng.integers(0, w))
        field[r, c] += rng.uniform(0.2, 0.8)  # sub-noise singletons
    return field


def _place_targets(config, rng, clutter):
    # Keep centers >= 10 px from borders (the 19x19 context, and so every
    # window read below, then always fits) and >= 16 px apart in Chebyshev
    # distance (cores never overlap).  Targets are only annotated over
    # locally quiet background: over the 19x19 neighborhood of a truth
    # (widest scoring window plus slack) the clutter must stay near its 9x9
    # local mean, free of sharp structure, so the label is unambiguous (a
    # glint sitting next to the truth would be one).
    h, w = config.height, config.width
    dev = np.abs(clutter - pm._box_sums(np.pad(clutter, 4, mode="edge"), 9) / 81)
    ctx, core = CONTEXT_SIZE // 2, CORE_SIZE // 2
    limit = 0.15 * config.target_amplitude
    placed = []
    attempts = 0
    while len(placed) < config.target_count:
        attempts += 1
        if attempts > 10000:
            raise RuntimeError(
                f"cannot place {config.target_count} separated targets "
                f"on quiet background in a {h}x{w} scene"
            )
        r = int(rng.integers(_TARGET_BORDER, h - _TARGET_BORDER))
        c = int(rng.integers(_TARGET_BORDER, w - _TARGET_BORDER))
        if dev[r - ctx : r + ctx + 1, c - ctx : c + ctx + 1].max() >= limit:
            continue
        # strong smooth flanks (cloud shoulders, terrace ramps) also disqualify:
        # they inflate the window's dispersion and wash out the target contrast
        window = clutter[r - core : r + core + 1, c - core : c + core + 1]
        if window.max() - window.min() >= 0.3 * config.target_amplitude:
            continue
        if all(max(abs(r - tr), abs(c - tc)) >= 16 for tr, tc in placed):
            placed.append((r, c))
    return placed


def _place_bad_pixels(config, truths, rng):
    h, w = config.height, config.width
    count = int(round(config.bad_pixel_rate * h * w))
    placed = []
    attempts = 0
    while len(placed) < count:
        attempts += 1
        if attempts > 100000:
            raise RuntimeError("cannot place isolated bad pixels")
        r = int(rng.integers(1, h - 1))
        c = int(rng.integers(1, w - 1))
        # defects stay clear of annotated truths so labels are unambiguous
        if any((r - tr) ** 2 + (c - tc) ** 2 <= 100 for tr, tc in truths):
            continue
        if any(max(abs(r - br), abs(c - bc)) < 2 for br, bc in placed):
            continue
        placed.append((r, c))
    return placed


def synth_scene(config):
    """Render one scene; deterministic for a given config (seed included)."""
    config.validate()
    rng = np.random.default_rng(config.rng_seed)
    h, w = config.height, config.width
    image = np.full((h, w), BASE_LEVEL)
    psf = _psf(config.psf_sigma)

    if config.clutter_kind == SKY:
        image += _sky_clutter((h, w), config.clutter_strength, rng)
    elif config.clutter_kind == TERRAIN:
        image += _terrain_clutter((h, w), config.clutter_strength, rng)
    elif config.clutter_kind == SEA_GLINT:
        image += _sea_glint_clutter(
            (h, w), config.clutter_strength, rng,
            config.target_amplitude, psf,
        )
    # COLLIMATOR: flat base, detector effects only

    truths = _place_targets(config, rng, image - BASE_LEVEL)
    for r, c in truths:
        _stamp(image, psf, r, c, config.target_amplitude)

    if config.noise_sigma > 0:
        image += rng.normal(0.0, config.noise_sigma, size=(h, w))

    bad_pixels = _place_bad_pixels(config, truths, rng)
    for r, c in bad_pixels:
        # stuck-hot defect: overwrite, don't add -- contrast is independent
        # of scene content and target amplitude
        image[r, c] = BASE_LEVEL + rng.uniform(900.0, 1600.0)

    return Scene(image=image, truths=truths, bad_pixels=bad_pixels)


def extract_samples(scene):
    """Labeled samples from a scene: one positive per truth, negatives
    tiling the rest of the frame in row-major order.

    Negative cores tile on a 15-pixel stride starting 2 px in (so every
    context fits) and any tile whose core center lands within 14 px of a
    truth (either axis) is skipped, which guarantees no negative core
    overlaps a positive core.  Bad-pixel tiles are ordinary negatives.
    """
    image = scene.image
    h, w = image.shape
    half_ctx, half_core = CONTEXT_SIZE // 2, CORE_SIZE // 2
    truths = np.array(scene.truths, dtype=np.intp).reshape(-1, 2)
    for r, c in scene.truths:
        if not (half_ctx <= r < h - half_ctx and half_ctx <= c < w - half_ctx):
            raise ValueError(f"truth {(r, c)} too close to the border")
    rows = np.arange(MARGIN, h - MARGIN - CORE_SIZE + 1, CORE_SIZE) + half_core
    cols = np.arange(MARGIN, w - MARGIN - CORE_SIZE + 1, CORE_SIZE) + half_core
    tiles = np.stack(np.meshgrid(rows, cols, indexing="ij"), axis=-1).reshape(-1, 2)
    near = (np.abs(tiles[:, None] - truths) <= 2 * half_core).all(axis=2).any(axis=1)
    tiles = tiles[~near]
    centers = np.concatenate([truths, tiles])
    samples = np.empty(len(centers), dtype=SAMPLE_DTYPE)
    samples["label"] = np.where(np.arange(len(centers)) < len(truths), 1, -1)
    samples["flags"] = _MARGIN_VALID
    windows = sliding_window_view(image, (CONTEXT_SIZE, CONTEXT_SIZE))
    samples["context"] = windows[centers[:, 0] - half_ctx, centers[:, 1] - half_ctx]
    return samples


def shifted_core(context, dr, dc):
    """The 15x15 core re-windowed by (dr, dc) inside a full 19x19 context,
    or inside every context of a (..., 19, 19) stack."""
    ctx = np.asarray(context)
    if ctx.shape[-2:] != (CONTEXT_SIZE, CONTEXT_SIZE):
        raise ValueError(f"context must be {CONTEXT_SIZE}x{CONTEXT_SIZE}")
    if not (-MARGIN <= dr <= MARGIN and -MARGIN <= dc <= MARGIN):
        raise ValueError(f"shift ({dr}, {dc}) exceeds the {MARGIN}-pixel margin")
    r0 = MARGIN + dr
    c0 = MARGIN + dc
    return ctx[..., r0 : r0 + CORE_SIZE, c0 : c0 + CORE_SIZE]


SHIFTS = tuple(
    (dr, dc)
    for dr in (-2, -1, 1, 2)
    for dc in (-2, -1, 1, 2)
)


def _check_samples(samples):
    """Raise unless ``samples`` is a 1-D ``SAMPLE_DTYPE`` array of finite
    contexts, +/-1 labels and no flag bits but the margin bit."""
    if not (isinstance(samples, np.ndarray) and samples.dtype == SAMPLE_DTYPE
            and samples.ndim == 1):
        raise TypeError("samples must be a 1-D SAMPLE_DTYPE array")
    bad = np.flatnonzero(~np.isfinite(samples["context"]).all(axis=(1, 2)))
    if bad.size:
        raise DatasetFormatError(f"record {bad[0]}: non-finite context")
    labels, flags = samples["label"], samples["flags"]
    bad = np.flatnonzero((labels != 1) & (labels != -1))
    if bad.size:
        raise DatasetFormatError(f"record {bad[0]}: bad label {labels[bad[0]]}")
    bad = np.flatnonzero(flags & ~np.uint8(_MARGIN_VALID))
    if bad.size:
        raise DatasetFormatError(
            f"record {bad[0]}: unknown flag bits in {flags[bad[0]]:#04x}")


def augmented_arrays(samples):
    """Augment straight into arrays: (patches (S, 15, 15) float64, labels (S,)).

    A positive gives 4 rotations x 16 shifts = 64 cores (no (0, 0) shift),
    a negative its 4 rotated unshifted cores; rows follow input order,
    rotation-major within each sample.
    """
    _check_samples(samples)
    if not len(samples):
        raise ValueError("no samples")
    pos = samples["label"] == 1
    if np.any(pos & (samples["flags"] & _MARGIN_VALID == 0)):
        raise ValueError("positive augmentation needs a full context margin")
    counts = np.where(pos, 4 * len(SHIFTS), 4)
    starts = np.cumsum(counts) - counts
    patches = np.empty((int(counts.sum()), CORE_SIZE, CORE_SIZE))
    labels = np.repeat(np.where(pos, 1.0, -1.0), counts)
    pos_ctx = samples["context"][pos]
    neg_ctx = samples["context"][~pos]
    pos_start, neg_start = starts[pos], starts[~pos]
    for rot in range(4):
        rpos = np.rot90(pos_ctx, rot, axes=(1, 2))
        for j, (dr, dc) in enumerate(SHIFTS):
            patches[pos_start + rot * len(SHIFTS) + j] = shifted_core(rpos, dr, dc)
        rneg = np.rot90(neg_ctx, rot, axes=(1, 2))
        patches[neg_start + rot] = shifted_core(rneg, 0, 0)
    return patches, labels


_FOLD = 128  # picks buffered between two GEMM folds in subsample_negatives


def subsample_negatives(negatives, budget, seed=0):
    """Greedy farthest-point subset under d(a, b) = 1 - ncc_score(a, b).

    Flat cores cannot be normalized and are all NCC-equidistant anyway, so
    they collapse into a single bucket: one representative (zero feature
    vector, distance 1 to everything normalizable) joins the pool and the
    rest are dropped, only returning as deterministic padding if the pool
    alone cannot fill the budget.  The first pick is seeded; a tie in the
    computed distances breaks toward the lower index (NCC-identical cores
    can still compute distances a rounding step apart, which decides their
    order).  Returns exactly ``budget`` samples.
    """
    _check_samples(negatives)
    if not len(negatives):
        raise ValueError("no negatives to subsample")
    if np.any(negatives["label"] != -1):
        raise ValueError("subsample_negatives expects negative samples only")
    if not (1 <= budget <= len(negatives)):
        raise ValueError(f"budget must be in [1, {len(negatives)}], got {budget}")
    if budget == len(negatives):
        return negatives

    cores = shifted_core(negatives["context"], 0, 0)
    feats, valid = pm.normalize_rows(cores.reshape(len(negatives), -1), pm.NORM_STD)
    pool = np.flatnonzero(valid).tolist()
    flats = np.flatnonzero(~valid).tolist()
    if flats:
        pool.append(flats[0])  # the bucket representative, feature all-zero
        pool.sort()
    dropped = flats[1:]

    if budget >= len(pool):
        return negatives[pool + dropped[: budget - len(pool)]]

    # Lazy farthest-point search.  ``ub`` is each live row's distance to the
    # picks folded in so far; distances only shrink, so it bounds the true
    # one from above.  The ``nbuf`` picks since the last fold wait in
    # ``buf``, and a row is checked against them only when it tops ``ub``.
    # A row that tops ``ub`` with every pick checked is a farthest one, and
    # no lower row is as far, so ties still go to the lower index.
    live = feats[pool]
    rng = np.random.default_rng(seed)
    start = int(rng.integers(len(pool)))
    order = [start]
    ids = np.arange(len(pool))  # pool positions of the live rows, ascending
    ub = 1.0 - live @ live[start]
    ub[start] = -np.inf
    buf = np.empty((_FOLD, live.shape[1]))
    nbuf = 0
    checked = np.zeros(len(ids), dtype=np.intp)  # buffered picks seen per row
    while len(order) < budget:
        k = int(ub.argmax())
        if checked[k] < nbuf:
            ub[k] = min(ub[k], 1.0 - (buf[checked[k] : nbuf] @ live[k]).max())
            checked[k] = nbuf
            continue
        order.append(int(ids[k]))
        buf[nbuf] = live[k]
        nbuf += 1
        ub[k] = -np.inf
        if nbuf == _FOLD:  # drop the picked rows, then fold buf in one GEMM
            keep = ub > -np.inf
            live, ids = live[keep], ids[keep]
            ub = np.minimum(ub[keep], 1.0 - (live @ buf.T).max(axis=1))
            checked = np.zeros(len(ids), dtype=np.intp)
            nbuf = 0
    return negatives[np.array(pool)[order]]


def write_dataset(samples, path):
    """Binary dataset file, little-endian.

    Layout: magic "NCCD", version u16, core_size u16, context_size u16,
    sample_count u64; then the ``SAMPLE_DTYPE`` records: label i8 (+1/-1),
    flags u8 (bit 0 = margin valid, other bits clear), context as float32
    row-major.  Samples that fail the record checks raise
    DatasetFormatError before anything is written.
    """
    _check_samples(samples)
    if not len(samples):
        raise ValueError("refusing to write an empty dataset")
    header = DATASET_MAGIC + struct.pack(
        "<HHHQ", DATASET_VERSION, CORE_SIZE, CONTEXT_SIZE, len(samples)
    )
    with open(path, "wb") as fh:
        fh.write(header + samples.tobytes())


def read_dataset(path):
    """Read a dataset file written by :func:`write_dataset` into a
    ``SAMPLE_DTYPE`` array.

    Raises CorruptHeaderError / VersionMismatchError / TruncatedFileError,
    or DatasetFormatError for a bad label, unknown flag bits or a
    non-finite context; never returns a partial result.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != DATASET_MAGIC:
        raise CorruptHeaderError("bad magic; not a dataset file")
    if len(blob) < 18:
        raise TruncatedFileError("header cut short")
    version, core, ctx, count = struct.unpack("<HHHQ", blob[4:18])
    if version != DATASET_VERSION:
        raise VersionMismatchError(f"unsupported dataset version {version}")
    if core != CORE_SIZE or ctx != CONTEXT_SIZE or core > ctx:
        raise CorruptHeaderError(f"unsupported patch geometry {core}/{ctx}")
    want = count * SAMPLE_DTYPE.itemsize
    payload = len(blob) - 18
    if payload < want:
        raise TruncatedFileError(f"expected {want} record bytes, found {payload}")
    if payload > want:
        raise CorruptHeaderError("payload larger than the declared count")
    samples = np.frombuffer(blob, dtype=SAMPLE_DTYPE, offset=18).copy()
    _check_samples(samples)
    return samples


def write_frames(dirpath, scenes):
    """Frame folder: frame_NNNN.txt grids plus truths.csv (frame,row,col).

    Raises ValueError, before anything is written, for an empty scene list
    (:func:`read_frames` would refuse the folder) and for a folder that
    already holds frames or a truths.csv (:func:`read_frames` would mix
    the stale frames in).
    """
    scenes = list(scenes)
    if not scenes:
        raise ValueError("no scenes to write")
    d = pathlib.Path(dirpath)
    stale = sorted(d.glob("frame_*.txt")) + sorted(d.glob("truths.csv"))
    if stale:
        raise ValueError(f"{d} already holds {stale[0].name}; "
                         f"refusing to mix frame sets")
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "truths.csv", "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["frame", "row", "col"])
        for i, scene in enumerate(scenes):
            name = f"frame_{i:04d}.txt"
            gridio.write_grid(scene.image, d / name)
            for r, c in scene.truths:
                writer.writerow([name, r, c])


def read_frames(dirpath):
    """Read a frame folder; returns (frames, truths) in filename order.

    ``truths[i]`` lists the (row, col) centers for ``frames[i]``; frames
    absent from truths.csv have an empty list.  A truth naming an unknown
    frame, or a point outside its frame, raises ValueError.
    """
    d = pathlib.Path(dirpath)
    names = sorted(p.name for p in d.glob("frame_*.txt"))
    if not names:
        raise FileNotFoundError(f"no frame_*.txt files in {d}")
    frames = [gridio.read_grid(d / name) for name in names]
    shapes = {name: f.shape for name, f in zip(names, frames)}
    truth_map = {name: [] for name in names}
    csv_path = d / "truths.csv"
    if csv_path.exists():
        for name, row, col in gridio._read_csv(
            csv_path, ["frame", "row", "col"], (str, int, int)
        ):
            if name not in shapes:
                raise ValueError(f"truths.csv references unknown frame {name!r}")
            h, w = shapes[name]
            if not (0 <= row < h and 0 <= col < w):
                raise ValueError(f"{csv_path}: truth ({row}, {col}) lies "
                                 f"outside {name} ({h}x{w})")
            truth_map[name].append((row, col))
    return frames, [truth_map[name] for name in names]


def _scene_recipe(count, seed, strength_range, **fixed):
    """Configs cycling through all clutter kinds, with jittered strengths
    and per-scene seeds drawn from one master seed."""
    rng = np.random.default_rng(seed)
    return [
        SceneConfig(
            clutter_kind=CLUTTER_KINDS[i % len(CLUTTER_KINDS)],
            clutter_strength=float(rng.uniform(*strength_range)),
            rng_seed=int(rng.integers(0, 2**31)),
            **fixed,
        )
        for i in range(count)
    ]


def training_scene_configs(scene_count=36, seed=1000, width=128, height=128,
                           targets_per_scene=9):
    """Training-scene recipe: every clutter kind, strength 0.7-1.3."""
    return _scene_recipe(
        scene_count, seed, (0.7, 1.3), width=width, height=height,
        target_count=targets_per_scene, target_amplitude=60.0, psf_sigma=1.2,
        noise_sigma=5.0, bad_pixel_rate=3e-4,
    )


def standard_training_configs(seed=1000):
    """The reference training corpus: 60 scenes of 256x256 with 34 targets
    each, giving ~2,000 positives and a >8,000 negative pool."""
    return training_scene_configs(
        scene_count=60, seed=seed, width=256, height=256, targets_per_scene=34
    )


def benchmark_scene_configs(count=48, seed=2000):
    """Benchmark frames: every clutter kind, bad pixels on, and every sixth
    frame target-free so false alarms have somewhere to live."""
    configs = _scene_recipe(
        count, seed, (0.8, 1.2), width=160, height=160, target_count=3,
        target_amplitude=80.0, psf_sigma=1.2, noise_sigma=3.0,
        bad_pixel_rate=2.5e-4,
    )
    for c in configs[5::6]:
        c.target_count = 0
    return configs


def collect_samples(scenes):
    """Extract and split samples from many scenes: (positives, negatives)."""
    samples = np.concatenate([np.empty(0, SAMPLE_DTYPE)]
                             + [extract_samples(scene) for scene in scenes])
    return samples[samples["label"] == 1], samples[samples["label"] == -1]


def _training_set(scenes, negative_budget, subsample_seed):
    """Positives, then the negatives thinned to ``negative_budget`` (None
    keeps them all): the sample set both datagen paths build."""
    positives, negatives = collect_samples(scenes)
    if not len(positives) or not len(negatives):
        raise ValueError("scenes produced an empty class")
    if negative_budget is not None and negative_budget < len(negatives):
        negatives = subsample_negatives(negatives, negative_budget, subsample_seed)
    return np.concatenate([positives, negatives])


def build_training_set(configs, negative_budget=None, subsample_seed=0):
    """Scenes -> samples -> thinned negatives, pre-augmentation.

    Returns positives followed by the subsampled negatives.  Augmentation
    happens in memory at training time (augmented_arrays), keeping dataset
    files 64x smaller.
    """
    return _training_set([synth_scene(cfg) for cfg in configs],
                         negative_budget, subsample_seed)
