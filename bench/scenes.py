"""Seeded benchmark inputs: cascades and synthetic scenes.

Every scene is a pure function of its seed through numpy's PCG64
generator, so the inputs do not change when the package's own random
generator does.  Portraits come from the package's synthetic corpus
(``synth_dataset``), the same faces the classifier trains on.

The layout rule is fixed in advance and is the same for every seed: the
frame is cut into square cells, a fixed permutation decides which cell
holds which object, so objects never overlap, and the twelve portraits
come from one fixed corpus seed.  The workload seed moves each object
inside its cell and sets the grain and the tones.  Grouping cost depends
on how many windows each object yields and on the order in which the
scan meets the clusters, so a seeded layout, or seeded portraits whose
face discs differ in size, would make the cost of a scene swing by up
to a factor of two between seeds.  Nothing here looks at what
``detect`` returns.
"""

from __future__ import annotations

import os

import numpy as np

from maskdetect import cascade as md_cascade
from maskdetect import data as md_data
from maskdetect.cascade import Cascade, HaarFeature, HaarRect, Stage, WeakClassifier

SCAN_SIZES = ((320, 240), (640, 480))
PORTRAIT_SEED = 0
ANNOTATE_SIZE = (640, 480)
ANNOTATE_PORTRAITS = 12


def fixture_cascade() -> Cascade:
    """The two-stage bright-over-dark cascade of the test fixture
    ``tests/fixtures/face_cascade.xml``, built in code so the benchmark
    does not read test data."""
    whole = HaarRect(0, 0, 24, 24, -1.0)
    return Cascade(24, 24, (
        Stage((WeakClassifier(HaarFeature((whole, HaarRect(0, 0, 24, 12, 2.0))),
                              0.8, -1.0, 1.0),), 0.5),
        Stage((
            WeakClassifier(HaarFeature((whole, HaarRect(0, 0, 12, 24, 2.0))), 0.2, 1.0, -1.0),
            WeakClassifier(HaarFeature((whole, HaarRect(12, 0, 12, 24, 2.0))), 0.2, 1.0, -1.0),
        ), 1.5),
    ))


def portrait_cascade() -> Cascade:
    """The centre-vs-surround plus symmetry cascade of demo 05."""
    whole = HaarRect(0, 0, 24, 24, -1.0)
    return Cascade(24, 24, (
        Stage((WeakClassifier(HaarFeature((whole, HaarRect(6, 6, 12, 12, 4.0))),
                              0.8, -1.0, 1.0),), 0.5),
        Stage((
            WeakClassifier(HaarFeature((whole, HaarRect(0, 0, 12, 24, 2.0))), 0.3, 1.0, -1.0),
            WeakClassifier(HaarFeature((whole, HaarRect(12, 0, 12, 24, 2.0))), 0.3, 1.0, -1.0),
        ), 1.5),
    ))


def scan_windows(shape, cascade: Cascade, params) -> int:
    """Windows ``detect`` visits on an image of ``shape`` (its pyramid rule)."""
    h, w = shape
    total = 0
    scale = max(1.0, params.min_size / cascade.base_width)
    while True:
        win_w = max(1, int(round(cascade.base_width * scale)))
        win_h = max(1, int(round(cascade.base_height * scale)))
        if win_w > w or win_h > h:
            return total
        rows = len(range(0, h - win_h + 1, params.step))
        total += rows * len(range(0, w - win_w + 1, params.step))
        scale *= params.scale_factor


def _background(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Mid-gray float texture of independent grain.

    The grain is fine enough that no window sees a coherent light/dark
    split, so the background adds scan work but no accepted windows; a
    smooth texture would add a seed-dependent number of them.
    """
    return 120.0 + rng.uniform(-10.0, 10.0, size=(h, w))


def _cells(h: int, w: int, cell: int) -> list:
    """Top-left corners of the frame's cells, in one fixed shuffled order."""
    corners = [(x, y) for y in range(0, h - cell + 1, cell) for x in range(0, w - cell + 1, cell)]
    return [corners[i] for i in np.random.default_rng(0).permutation(len(corners))]


def portraits(work_dir: str) -> list:
    """Twelve 75 px RGB portraits from the synthetic corpus, four per
    class, ordered with_mask, without_mask, incorrect_mask, then repeat."""
    root = os.path.join(work_dir, "portraits")
    index = md_data.synth_dataset(4, 75, seed=PORTRAIT_SEED, out_dir=root)
    by_class = [[s for s in index.samples if s.label == label] for label in md_data.Label]
    return [md_data.load_ppm(by_class[k % 3][k // 3].path) for k in range(12)]


def _paste(canvas, rng, image, cx, cy, cell):
    """Paste ``image`` at a seeded offset inside the cell at (cx, cy);
    returns the image centre."""
    side = image.shape[0]
    x = cx + int(rng.integers(2, cell - side - 1))
    y = cy + int(rng.integers(2, cell - side - 1))
    canvas[y:y + side, x:x + side] = image
    return (x + side // 2, y + side // 2)


def scan_scene(seed: int, size, faces: list, variant: int = 0):
    """Gray u8 scene with bright-over-dark bands and pasted portraits.

    Returns ``(gray, band_centres)``.  Each band is a 48 px square whose
    top half is bright and bottom half dark, the pattern the fixture
    cascade fires on.  Per 320x240 of area there is one band and one
    64 px portrait; sizes are fixed so that the work a scene costs
    varies little from seed to seed.
    """
    w, h = size
    rng = np.random.default_rng([seed, w, h, variant])
    canvas = _background(rng, h, w)
    cell = 80
    cells = _cells(h, w, cell)
    n_bands = (w * h) // (320 * 240)
    centres = []
    for cx, cy in cells[:n_bands]:
        band = np.empty((48, 48))
        band[:24] = rng.uniform(195.0, 230.0)
        band[24:] = rng.uniform(20.0, 55.0)
        centres.append(_paste(canvas, rng, band + rng.uniform(-4.0, 4.0, size=(48, 48)),
                              cx, cy, cell))
    for k, (cx, cy) in enumerate(cells[n_bands:2 * n_bands]):
        face = md_data.resize_bilinear(faces[k % len(faces)], 64, 64)
        _paste(canvas, rng, md_cascade.to_grayscale(face), cx, cy, cell)
    return np.clip(np.floor(canvas + 0.5), 0, 255).astype(np.uint8), centres


def annotate_scene(seed: int, faces: list, variant: int = 0):
    """RGB u8 640x480 scene carrying twelve 72 px portraits, four per
    class, on a tinted grain texture.  Returns ``(image, portrait_centres)``.
    """
    w, h = ANNOTATE_SIZE
    rng = np.random.default_rng([seed, w, h, 3, variant])
    canvas = _background(rng, h, w)[:, :, None] + rng.uniform(-12.0, 12.0, size=3)
    cell = 96
    centres = []
    for k, (cx, cy) in enumerate(_cells(h, w, cell)[:ANNOTATE_PORTRAITS]):
        face = md_data.resize_bilinear(faces[k], 72, 72)
        centres.append(_paste(canvas, rng, face, cx, cy, cell))
    return np.clip(np.floor(canvas + 0.5), 0, 255).astype(np.uint8), centres
