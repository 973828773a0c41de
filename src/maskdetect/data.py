"""Dataset handling: directory scanning, stratified splitting, the PPM
codec, resizing/normalization, augmentation, batching, and a synthetic
corpus generator for desk-scale experiments.

Images are plain numpy ``uint8`` arrays of shape ``(H, W, 3)`` in row-major
RGB ("ImageU8" below).  Everything stochastic draws from an explicit
:class:`~maskdetect.rng.SplitMix64` generator, so a corpus scan, a split,
an augmented epoch, or a synthetic dataset is a pure function of its seed.
"""

from __future__ import annotations

import math
import numbers
import os
import reprlib
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .config import Config, read_json, write_json
from .errors import ConfigError, InputError, ParameterError, PPMError, UsageError
from .rng import SplitMix64
from .tensor import Tensor

__all__ = [
    "Label",
    "LABEL_NAMES",
    "SPLIT_NAMES",
    "Sample",
    "DatasetIndex",
    "AugmentConfig",
    "LAYOUTS",
    "scan_dataset",
    "split_dataset",
    "save_split_manifest",
    "load_split_manifest",
    "apply_split_manifest",
    "load_ppm",
    "save_ppm",
    "resize_bilinear",
    "normalize",
    "augment",
    "batch_order",
    "batches",
    "synth_dataset",
]


class Label(IntEnum):
    """The three face states the classifier distinguishes."""

    WITH_MASK = 0
    WITHOUT_MASK = 1
    INCORRECT_MASK = 2


LABEL_NAMES = ("with_mask", "without_mask", "incorrect_mask")
SPLIT_NAMES = ("train", "val", "test")

# Directory-name -> label mappings for the supported corpus layouts.  The
# "native" layout is what synth_dataset writes; "mfn" and "smfd" are
# importer mappings for the two public mask corpora (MFN carries no bare
# faces, SMFD no incorrectly-worn ones).  A mapped directory is scanned
# recursively, so sub-folders (e.g. the per-style variants under IMFD)
# inherit the parent label.
LAYOUTS: dict[str, dict[str, Label]] = {
    "native": {
        "with_mask": Label.WITH_MASK,
        "without_mask": Label.WITHOUT_MASK,
        "incorrect_mask": Label.INCORRECT_MASK,
    },
    "mfn": {
        "CMFD": Label.WITH_MASK,
        "IMFD": Label.INCORRECT_MASK,
    },
    "smfd": {
        "masked": Label.WITH_MASK,
        "unmasked": Label.WITHOUT_MASK,
    },
}


@dataclass
class Sample:
    """One image on disk with its label and (once split) its partition."""

    path: str
    label: Label
    split: str | None = None


@dataclass
class DatasetIndex:
    """An ordered list of samples plus the bookkeeping around it.

    ``seed`` and ``ratios`` are ``None`` until :func:`split_dataset` has
    assigned partitions.  ``warnings`` collects non-fatal scan findings
    (unknown subdirectories, empty classes).  ``source_counts`` holds the
    per-root, per-class tally from scanning.
    """

    samples: list[Sample] = field(default_factory=list)
    seed: int | None = None
    ratios: tuple[float, float, float] | None = None
    warnings: list[str] = field(default_factory=list)
    source_counts: dict[str, dict[str, int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)

    def samples_for(self, split: str | None) -> list[Sample]:
        """Samples in one partition (``None`` -> every sample)."""
        if split is None:
            return list(self.samples)
        return [s for s in self.samples if s.split == split]

    def class_counts(self, split: str | None = None) -> dict[str, int]:
        counts = {name: 0 for name in LABEL_NAMES}
        for s in self.samples_for(split):
            counts[LABEL_NAMES[s.label]] += 1
        return counts

    def split_counts(self) -> dict[str, dict[str, int]]:
        """Per-split class counts, e.g. ``{"train": {"with_mask": 8, ...}}``."""
        return {name: self.class_counts(name) for name in SPLIT_NAMES}


def _require_split(index: DatasetIndex, split: str, needed_by: str) -> None:
    """Raise :class:`InputError`, naming ``split``, when it has no samples."""
    if not index.samples_for(split):
        raise InputError(
            f"the '{split}' split has 0 of the {len(index)} samples, and {needed_by} "
            "needs at least one; use more images per class or other split ratios"
        )


# ---------------------------------------------------------------------------
# scanning and splitting
# ---------------------------------------------------------------------------


def _collect_ppm(directory: str) -> list[str]:
    """All .ppm files under ``directory`` (recursive, sorted for determinism)."""
    found = []
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames.sort()
        for name in sorted(filenames):
            if name.lower().endswith(".ppm"):
                found.append(os.path.join(dirpath, name))
    return found


def scan_dataset(roots, layout="native") -> DatasetIndex:
    """Build an (unsplit) index from one or more corpus roots.

    ``layout`` names an entry of :data:`LAYOUTS`.  Unknown subdirectories
    under a root are reported in ``index.warnings`` rather than raising, so
    a stray folder cannot abort a scan.
    """
    if isinstance(roots, (str, os.PathLike)):
        roots = [roots]
    if layout not in LAYOUTS:
        raise ConfigError(f"unknown layout '{layout}'; expected one of {sorted(LAYOUTS)}")
    layout_map = LAYOUTS[layout]

    index = DatasetIndex()
    for root in roots:
        root = os.fspath(root)
        if not os.path.isdir(root):
            raise InputError(f"dataset root is not a directory: {root}")
        per_class = {name: 0 for name in LABEL_NAMES}
        for entry in sorted(os.listdir(root)):
            full = os.path.join(root, entry)
            if not os.path.isdir(full):
                continue
            if entry not in layout_map:
                index.warnings.append(
                    f"{root}: unknown subdirectory '{entry}' ignored"
                )
                continue
            label = layout_map[entry]
            for path in _collect_ppm(full):
                index.samples.append(Sample(path=path, label=label))
                per_class[LABEL_NAMES[label]] += 1
        index.source_counts[root] = per_class
    return index


def check_split_ratios(ratios) -> tuple[float, float, float]:
    """``ratios`` as floats; raises :class:`ConfigError` unless they are
    three real numbers, not bools, from 0 to the largest float, that sum
    to 1 (within 1e-9)."""
    values = tuple(ratios) if isinstance(ratios, Iterable) else ()
    if len(values) != 3 or not all(
        isinstance(r, numbers.Real) and not isinstance(r, bool) and 0 <= r <= sys.float_info.max
        for r in values
    ):  # a NaN fails the range test
        raise ConfigError(f"ratios must be three non-negative real numbers, got {reprlib.repr(ratios)}")
    ratios = tuple(float(r) for r in values)
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"ratios must sum to 1, got {ratios} (sum {sum(ratios)})")
    return ratios


def _unsplit_copy(index: DatasetIndex, seed: int, ratios: tuple) -> DatasetIndex:
    """``index`` with fresh, unassigned samples, for a split by ``seed`` and ``ratios``."""
    return DatasetIndex(samples=[Sample(s.path, s.label) for s in index.samples],
                        seed=seed, ratios=ratios, warnings=list(index.warnings),
                        source_counts={k: dict(v) for k, v in index.source_counts.items()})


def split_dataset(
    index: DatasetIndex,
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15),
    seed: int = 0,
) -> DatasetIndex:
    """Assign train/val/test partitions, stratified per class.

    Within each class the samples are shuffled by a generator derived from
    ``seed`` and the class name; counts are the floor of each ratio with the
    remainder going to train.  The returned index lists samples in the same
    order as the input, only with ``split`` filled in.
    """
    ratios = check_split_ratios(ratios)
    out = _unsplit_copy(index, seed, ratios)
    root_rng = SplitMix64(seed)
    for label in Label:
        positions = [i for i, s in enumerate(out.samples) if s.label == label]
        if not positions:
            out.warnings.append(f"class '{LABEL_NAMES[label]}' has no samples")
            continue
        rng = root_rng.derive("split", LABEL_NAMES[label])
        rng.shuffle(positions)
        n = len(positions)
        n_train = math.floor(n * ratios[0])
        n_val = math.floor(n * ratios[1])
        n_test = math.floor(n * ratios[2])
        n_train += n - (n_train + n_val + n_test)  # remainder goes to train
        for k, pos in enumerate(positions):
            if k < n_train:
                out.samples[pos].split = "train"
            elif k < n_train + n_val:
                out.samples[pos].split = "val"
            else:
                out.samples[pos].split = "test"
    return out


@dataclass(frozen=True)
class _SplitOrigin(Config):
    """A split manifest's ``seed`` and ``ratios``, checked by the config codec."""

    seed: int
    ratios: tuple[float, float, float]

    def validate(self) -> None:
        check_split_ratios(self.ratios)


def _manifest_keys(index: DatasetIndex) -> list[str]:
    """Each sample's split-manifest key: its path relative to the scan root
    it lies under, led by that root's position (``0/``, ``1/``, ...), so no
    key depends on how a root was spelled and two roots' files stay apart.
    A sample under no root is keyed by its normalised path."""
    roots = [os.path.join(root, "") for root in index.source_counts]
    keys = []
    for s in index.samples:
        i = next((i for i, root in enumerate(roots) if s.path.startswith(root)), None)
        rel = s.path if i is None else os.path.join(str(i), s.path[len(roots[i]):])
        keys.append(os.path.normpath(rel))
    return keys


def save_split_manifest(index: DatasetIndex, path: str) -> None:
    """Persist a split assignment as JSON {seed, ratios, splits}, with
    ``splits`` keyed as :func:`_manifest_keys` says."""
    if index.ratios is None:
        raise UsageError("cannot save a manifest for an unsplit index")
    manifest = {
        "seed": index.seed,
        "ratios": list(index.ratios),
        "splits": {key: s.split for key, s in zip(_manifest_keys(index), index.samples)},
    }
    write_json(path, manifest)


def load_split_manifest(path: str) -> dict:
    with open(path, "rb") as fh:
        manifest = read_json(fh.read(), ConfigError, f"split manifest is not valid JSON: {path}")
    if not isinstance(manifest, dict):
        raise ConfigError(f"split manifest must be a JSON object: {path}")
    for key in ("seed", "ratios", "splits"):
        if key not in manifest:
            raise ConfigError(f"split manifest missing key '{key}': {path}")
    if not isinstance(manifest["splits"], dict):
        raise ConfigError(f"split manifest 'splits' must be an object: {path}")
    try:
        _SplitOrigin.from_dict({"seed": manifest["seed"], "ratios": manifest["ratios"]})
    except ConfigError as exc:
        raise ConfigError(f"split manifest {path}: {exc}") from None
    return manifest


def apply_split_manifest(index: DatasetIndex, manifest) -> DatasetIndex:
    """Re-apply a saved split to a freshly scanned index.

    ``manifest`` may be a path or an already-loaded dict.  Every sample in
    the index must be present in the manifest, under its key relative to
    its root or, in an older manifest, under its full path.  Keys are
    compared after ``os.path.normpath``.
    """
    if isinstance(manifest, (str, os.PathLike)):
        manifest = load_split_manifest(os.fspath(manifest))
    splits = {os.path.normpath(path): split for path, split in manifest["splits"].items()}
    out = _unsplit_copy(index, manifest["seed"], tuple(manifest["ratios"]))
    for s, key in zip(out.samples, _manifest_keys(index)):
        if key not in splits:
            key = os.path.normpath(s.path)
        if key not in splits:
            raise InputError(f"sample not in split manifest: {s.path}")
        assigned = splits[key]
        if assigned not in SPLIT_NAMES:
            raise ConfigError(f"manifest assigns invalid split '{assigned}' to {s.path}")
        s.split = assigned
    return out


# ---------------------------------------------------------------------------
# PPM codec (binary P6, maxval 255)
# ---------------------------------------------------------------------------


def _check_image(image, name="image") -> np.ndarray:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise InputError(f"{name} must have shape (H, W, 3), got {image.shape}")
    if image.dtype != np.uint8:
        raise InputError(f"{name} must be uint8, got {image.dtype}")
    return image


def _next_token(buf: bytes, pos: int, path: str) -> tuple[bytes, int, int]:
    """Next header token after ``pos``, skipping whitespace and # comments.

    Returns (token, token_start_offset, offset_after_token).
    """
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c in b" \t\r\n\x0b\x0c":
            pos += 1
        elif c == b"#":
            while pos < n and buf[pos : pos + 1] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PPMError(f"{path}: header ended early at byte {n}")
    start = pos
    while pos < n and buf[pos : pos + 1] not in b" \t\r\n\x0b\x0c":
        pos += 1
    return buf[start:pos], start, pos


def _int_token(buf: bytes, pos: int, what: str, path: str) -> tuple[int, int, int]:
    """Next header token as a decimal integer: (value, start, end) offsets."""
    token, start, end = _next_token(buf, pos, path)
    if token.isdigit():
        try:
            return int(token), start, end
        except ValueError:  # more digits than int() converts
            pass
    raise PPMError(f"{path}: expected {what} at byte {start}, got {token!r}")


def load_ppm(path: str) -> np.ndarray:
    """Decode a binary P6 portable pixmap into an (H, W, 3) uint8 array."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P6":
        raise PPMError(f"{path}: expected magic 'P6' at byte 0, got {buf[:2]!r}")
    width, _, pos = _int_token(buf, 2, "width", path)
    height, _, pos = _int_token(buf, pos, "height", path)
    maxval, maxval_start, pos = _int_token(buf, pos, "maxval", path)
    if maxval != 255:
        raise PPMError(f"{path}: maxval must be 255, got {maxval} at byte {maxval_start}")
    if width < 1 or height < 1:
        raise PPMError(f"{path}: invalid dimensions {width}x{height}")
    # exactly one whitespace byte separates the header from the raster
    if pos >= len(buf) or buf[pos : pos + 1] not in b" \t\r\n":
        raise PPMError(f"{path}: expected whitespace before raster at byte {pos}")
    pos += 1
    need = width * height * 3
    raster = buf[pos : pos + need]
    if len(raster) < need:
        raise PPMError(
            f"{path}: raster truncated at byte {len(buf)} "
            f"(expected {need} bytes from byte {pos}, found {len(raster)})"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width, 3).copy()


def save_ppm(image, path: str) -> None:
    """Write an (H, W, 3) uint8 array as a binary P6 file (bit-exact codec)."""
    image = _check_image(image)
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(image).tobytes())


# ---------------------------------------------------------------------------
# resize / normalize
# ---------------------------------------------------------------------------


def _bilinear(image: np.ndarray, sy, sx) -> np.ndarray:
    """Sample ``image`` at the float source coordinates ``(sy, sx)``, which
    broadcast to the output grid, as float64 channel planes ``(3, ...)``:
    bilinear over a one-pixel zero border, so a coordinate in ``(-1, size)``
    fades toward 0 within a pixel of either edge, and one outside that
    range reads 0."""
    h, w = image.shape[:2]
    planes = np.zeros((3, h + 2, w + 2))  # channel planes inside a zero border
    planes[:, 1:-1, 1:-1] = image.transpose(2, 0, 1)
    y0, x0 = np.floor(sy), np.floor(sx)
    wy, wx = sy - y0, sx - x0
    # the top-left neighbour's offset in a flattened plane; the clip only
    # keeps outside points in range, and they are zeroed below
    i00 = (np.clip(y0, -1, h - 1) * (w + 2) + np.clip(x0, -1, w - 1)).astype(np.int64)
    p00, p01, p10, p11 = (planes.reshape(3, -1).take(i00 + k, axis=1)
                          for k in (w + 3, w + 4, 2 * w + 5, 2 * w + 6))
    for near, far, weight in ((p00, p01, wx), (p10, p11, wx), (p00, p10, wy)):
        near *= 1.0 - weight  # in place: near = (1 - weight)·near + weight·far
        far *= weight
        near += far
    p00[:, (sy <= -1) | (sy >= h) | (sx <= -1) | (sx >= w)] = 0.0
    return p00


def _to_u8(values: np.ndarray) -> np.ndarray:
    """Round half-up and clamp to [0, 255]: the package's one rounding rule."""
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


def resize_bilinear(image, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize with half-pixel-center mapping src=(dst+0.5)*scale-0.5,
    the source coordinates clamped to the image so edges repeat.

    Channels are interpolated independently; results are rounded half-up to
    8 bits.  Resizing to the input size reproduces the input exactly.
    """
    image = _check_image(image)
    if out_w < 1 or out_h < 1:
        raise ParameterError(f"output size must be >= 1, got {out_w}x{out_h}")
    in_h, in_w = image.shape[:2]
    sy = np.clip((np.arange(out_h) + 0.5) * (in_h / out_h) - 0.5, 0.0, in_h - 1.0)
    sx = np.clip((np.arange(out_w) + 0.5) * (in_w / out_w) - 0.5, 0.0, in_w - 1.0)
    return _to_u8(_bilinear(image, sy[:, None], sx[None, :]).transpose(1, 2, 0))


def normalize(image) -> Tensor:
    """Map uint8 RGB to a float32 tensor in [-1, 1], channel-first [3, H, W]."""
    image = _check_image(image)
    chw = np.transpose(image, (2, 0, 1)).astype(np.float32)
    return Tensor(chw / np.float32(127.5) - np.float32(1.0))


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentConfig(Config):
    """Magnitudes for the four training-time transforms.

    A zero magnitude (or a (1, 1) zoom range) disables that transform, so
    the all-zero config is the identity.
    """

    rotation_max_deg: float = 15.0
    zoom_range: tuple[float, float] = (0.9, 1.1)
    color_shift_max: float = 20.0
    translate_max_fraction: float = 0.10

    def __post_init__(self):
        if not 0.0 <= self.rotation_max_deg <= 45.0:
            raise ConfigError(
                f"rotation_max_deg must be in [0, 45], got {self.rotation_max_deg}"
            )
        lo, hi = self.zoom_range
        if not (0.5 <= lo <= hi <= 1.5):
            raise ConfigError(
                f"zoom_range must be ordered and within [0.5, 1.5], got {self.zoom_range}"
            )
        if self.color_shift_max < 0.0:
            raise ConfigError(
                f"color_shift_max must be >= 0, got {self.color_shift_max}"
            )
        if not 0.0 <= self.translate_max_fraction <= 0.3:
            raise ConfigError(
                "translate_max_fraction must be in [0, 0.3], "
                f"got {self.translate_max_fraction}"
            )


def _warp(image: np.ndarray, angle_deg=0.0, zoom=1.0, offsets=None, shift=(0, 0)) -> np.ndarray:
    """The one resampling behind every augmentation.

    Output pixel ``p`` reads ``image`` at ``c + R(angle)·((p - shift - c) / zoom)``,
    ``c`` being the image center: a rotation, then a zoom about the center,
    then a whole-pixel shift.  The read is :func:`_bilinear`, so every edge,
    near or far, fades toward the zero border.  The float sample gets
    the per-channel ``offsets`` wherever ``p - shift`` lies in the frame
    (pixels the shift brings in stay 0), and is rounded half-up to 8 bits
    once.
    """
    h, w = image.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rad = math.radians(angle_deg)
    cos_a, sin_a = math.cos(rad), math.sin(rad)
    ry = np.arange(h, dtype=np.float64) - shift[0]
    rx = np.arange(w, dtype=np.float64) - shift[1]
    yy = ((ry - cy) / zoom)[:, None]
    xx = ((rx - cx) / zoom)[None, :]
    sy = cy - sin_a * xx + cos_a * yy
    sx = cx + cos_a * xx + sin_a * yy
    out = _bilinear(image, sy, sx)
    if offsets is not None:
        framed = ((ry >= 0) & (ry < h))[:, None] & ((rx >= 0) & (rx < w))[None, :]
        out += framed * np.reshape(offsets, (3, 1, 1))
    return _to_u8(out.transpose(1, 2, 0))


def augment(image, config: AugmentConfig, rng: SplitMix64) -> np.ndarray:
    """Rotate, zoom about the center, shift the colors and translate, drawing
    each parameter uniformly from its configured range in that order (angle,
    zoom, three color offsets, then the row and column shift).

    The geometric transforms compose into one inverse map, which
    :func:`_warp` samples once (bilinear, zero fill) and rounds once.  The
    color offsets reach every pixel but those the translation brings in
    from outside the frame, which stay 0.  Disabled transforms draw
    nothing, so a config stays reproducible no matter which magnitudes are
    zero.
    """
    image = _check_image(image)
    if rng is None:
        raise UsageError("augment requires a random generator")
    angle, zoom, offsets, shift = 0.0, 1.0, None, (0, 0)
    if config.rotation_max_deg > 0.0:
        angle = rng.uniform(-config.rotation_max_deg, config.rotation_max_deg)
    lo, hi = config.zoom_range
    if (lo, hi) != (1.0, 1.0):
        zoom = rng.uniform(lo, hi)
    if config.color_shift_max > 0.0:
        offsets = rng.uniform(-config.color_shift_max, config.color_shift_max, shape=3)
    if config.translate_max_fraction > 0.0:
        f = config.translate_max_fraction
        shift = (int(round(rng.uniform(-f, f) * image.shape[0])),
                 int(round(rng.uniform(-f, f) * image.shape[1])))
    return _warp(image, angle, zoom, offsets, shift)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def batches(
    index: DatasetIndex,
    split: str,
    batch_size: int,
    shuffle: bool,
    augment_config: AugmentConfig | None = None,
    rng: SplitMix64 | None = None,
    *,
    image_size: int,
    epoch: int = 0,
):
    """Stream (images, one-hot targets) batch pairs over one epoch.

    Every sample of ``split`` appears exactly once per epoch; the final
    partial batch is emitted.  Images are loaded, resized to
    ``image_size`` if needed, optionally augmented (training split only),
    and normalized; targets are [N, 3] one-hot rows.

    Shuffling and per-sample augmentation randomness are derived from
    ``rng`` together with ``epoch`` and the sample's position in the split,
    so an epoch's batches depend only on (seed, epoch) regardless of
    consumption order or of how the data root is spelled.
    """
    if split not in SPLIT_NAMES:
        raise ParameterError(f"split must be one of {SPLIT_NAMES}, got '{split}'")
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    if image_size < 1:
        raise ParameterError(f"image_size must be >= 1, got {image_size}")
    if augment_config is not None and split != "train":
        raise UsageError(f"augmentation is train-only, requested on '{split}'")
    if (shuffle or augment_config is not None) and rng is None:
        raise UsageError("shuffle/augmentation require a random generator")
    samples = index.samples_for(split)
    return _batch_stream(
        samples, batch_size, shuffle, augment_config, rng, image_size, epoch
    )


def batch_order(count: int, batch_size: int, rng: SplitMix64 | None = None,
                epoch: int = 0) -> list[list[int]]:
    """The indices of each batch of one epoch over ``count`` samples:
    shuffled by ``rng`` for ``epoch`` when one is given, then cut into
    chunks of ``batch_size``, the last one partial."""
    order = list(range(count))
    if rng is not None:
        rng.derive("order", epoch).shuffle(order)
    return [order[start : start + batch_size] for start in range(0, count, batch_size)]


def _batch_stream(samples, batch_size, shuffle, augment_config, rng, image_size, epoch):
    for pick in batch_order(len(samples), batch_size, rng if shuffle else None, epoch):
        xs = np.empty((len(pick), 3, image_size, image_size), dtype=np.float32)
        ys = np.zeros((len(pick), len(LABEL_NAMES)), dtype=np.float32)
        for row, i in enumerate(pick):
            sample = samples[i]
            image = load_ppm(sample.path)
            if image.shape[:2] != (image_size, image_size):
                image = resize_bilinear(image, image_size, image_size)
            if augment_config is not None:
                image = augment(image, augment_config, rng.derive("augment", epoch, i))
            xs[row] = normalize(image).data
            ys[row, int(sample.label)] = 1.0
        yield Tensor(xs), Tensor(ys)


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

# fraction of the face-disc height the band covers, measured downward from
# the disc center: a full lower-half band, no band, or the lower half of
# the lower half (a band at half height)
_BAND_SPANS = {
    Label.WITH_MASK: (0.0, 1.0),
    Label.WITHOUT_MASK: None,
    Label.INCORRECT_MASK: (0.5, 1.0),
}


def _synth_image(size: int, label: Label, rng: SplitMix64) -> np.ndarray:
    """One procedural face: a skin-tone disc with eyes on a dark background,
    plus a bright band over (part of) the lower half depending on the label."""
    s = float(size)
    canvas = np.empty((size, size, 3), dtype=np.float64)
    canvas[:] = rng.uniform(10.0, 60.0, shape=3)[None, None, :]

    cy = s / 2.0 + rng.uniform(-0.02, 0.02) * s
    cx = s / 2.0 + rng.uniform(-0.02, 0.02) * s
    radius = s * rng.uniform(0.32, 0.38)
    yy, xx = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    disc = (yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2

    face = np.array([
        rng.uniform(185.0, 215.0),
        rng.uniform(140.0, 170.0),
        rng.uniform(105.0, 135.0),
    ])
    canvas[disc] = face[None, :]

    eye_r = radius * 0.14
    eye_dy, eye_dx = -0.35 * radius, 0.42 * radius
    eye_color = rng.uniform(25.0, 55.0)
    for side in (-1.0, 1.0):
        eye = (yy - (cy + eye_dy)) ** 2 + (xx - (cx + side * eye_dx)) ** 2 <= eye_r**2
        canvas[eye & disc] = eye_color

    span = _BAND_SPANS[label]
    if span is not None:
        band_color = np.array([
            rng.uniform(150.0, 190.0),
            rng.uniform(175.0, 215.0),
            rng.uniform(205.0, 240.0),
        ])
        top = cy + span[0] * radius
        bottom = cy + span[1] * radius
        band = disc & (yy >= top) & (yy <= bottom)
        canvas[band] = band_color[None, :]

    canvas += rng.uniform(-6.0, 6.0, shape=(size, size, 3))
    return _to_u8(canvas)


def synth_dataset(n_per_class: int, image_size: int, seed: int, out_dir) -> DatasetIndex:
    """Write a three-class synthetic corpus in the native layout and return
    its (unsplit) index.  The corpus is a pure function of the arguments:
    the same seed always produces bit-identical files.  ``n_per_class`` is
    capped at 100,000 and ``image_size`` at 1024 (the network input's cap),
    both checked before anything is written."""
    if not 1 <= n_per_class <= 100_000:
        raise ParameterError(f"n_per_class must be in [1, 100000], got {n_per_class}")
    if not 16 <= image_size <= 1024:
        raise ParameterError(f"image_size must be in [16, 1024], got {image_size}")
    out_dir = os.fspath(out_dir)
    root_rng = SplitMix64(seed)
    for label in Label:
        class_name = LABEL_NAMES[label]
        class_dir = os.path.join(out_dir, class_name)
        os.makedirs(class_dir, exist_ok=True)
        for i in range(n_per_class):
            rng = root_rng.derive("synth", class_name, i)
            image = _synth_image(image_size, label, rng)
            save_ppm(image, os.path.join(class_dir, f"{class_name}_{i:05d}.ppm"))
    return scan_dataset(out_dir)
