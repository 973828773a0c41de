"""Classical face localization: Haar features over integral images,
evaluated by a staged cascade across a sliding-window scale pyramid.

Cascades are not trained here; they arrive through the legacy XML importer
(stump subset) or the native JSON format.  All integral-image arithmetic is
exact integer math, in int64 or in float64 phases below 2**53, so feature
values carry no rounding error until the final variance normalization.
"""

from __future__ import annotations

import itertools
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .config import Config, read_json, write_json
from .errors import CascadeFormatError, ConfigError, InputError, ParameterError

# bound on the pyramid: the default scale_factor 1.1 needs about 32 scales at 640x480
MAX_SCALES = 1000
# bound on a base-window side: OpenCV's frontal-face cascades use 20 to 24 px
MAX_BASE_WINDOW = 1000
# candidate rows per chunk of group_boxes' neighbour search: bounds its memory
_GROUP_CHUNK = 1 << 16


# -- pixels and integral tables ---------------------------------------------------


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """RGB u8 [H,W,3] -> u8 luma, round(0.299 R + 0.587 G + 0.114 B)."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise InputError(f"expected [H,W,3] RGB image, got shape {image.shape}")
    r = image[:, :, 0].astype(np.float64)
    g = image[:, :, 1].astype(np.float64)
    b = image[:, :, 2].astype(np.float64)
    return np.floor(0.299 * r + 0.587 * g + 0.114 * b + 0.5).astype(np.uint8)


class IntegralImage:
    """Cumulative sum tables over a ``uint8`` grayscale image.

    ``table[y][x]`` holds the exact integer sum of pixels in rows [0,y) and
    columns [0,x); ``squared_table`` does the same over squared pixels.
    Both carry a leading zero row and column, so lookups never branch.
    """

    __slots__ = ("width", "height", "table", "squared_table")

    def __init__(self, gray: np.ndarray):
        if gray.ndim != 2 or gray.size == 0:
            raise InputError(f"integral image needs a non-empty 2-D image, got {gray.shape}")
        if gray.dtype != np.uint8:
            raise InputError(f"integral image needs a uint8 image, got dtype {gray.dtype}")
        h, w = gray.shape
        self.height, self.width = h, w
        # each table sums down the columns straight into its int64 body, then
        # along the rows in place; a squared pixel fits in int32
        self.table = np.zeros((h + 1, w + 1), dtype=np.int64)
        self.squared_table = np.zeros((h + 1, w + 1), dtype=np.int64)
        for px, t in ((gray, self.table), (np.square(gray, dtype=np.int32), self.squared_table)):
            np.cumsum(px, axis=0, dtype=np.int64, out=t[1:, 1:])
            np.cumsum(t[1:, 1:], axis=1, out=t[1:, 1:])


def integral_image(gray: np.ndarray) -> IntegralImage:
    return IntegralImage(gray)


def rect_sum(ii: IntegralImage, rect) -> int:
    """Four-lookup sum of the pixels inside ``rect`` = (x, y, w, h)."""
    x, y, w, h = rect
    if x < 0 or y < 0 or w < 1 or h < 1 or x + w > ii.width or y + h > ii.height:
        raise InputError(f"rect (x={x}, y={y}, w={w}, h={h}) outside {ii.width}x{ii.height} image")
    t = ii.table
    return int(t[y + h, x + w] - t[y, x + w] - t[y + h, x] + t[y, x])


# -- cascade structure ---------------------------------------------------------------


@dataclass(frozen=True)
class HaarRect:
    x: int
    y: int
    w: int
    h: int
    weight: float


@dataclass(frozen=True)
class HaarFeature:
    rects: tuple[HaarRect, ...]


@dataclass(frozen=True)
class WeakClassifier:
    feature: HaarFeature
    threshold: float
    left_value: float
    right_value: float


@dataclass(frozen=True)
class Stage:
    weak_classifiers: tuple[WeakClassifier, ...]
    stage_threshold: float


def _dotted(steps) -> str:
    """``stages[0].weak_classifiers[1]``: a cascade node named the Python way."""
    return "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps).lstrip(".")


@dataclass(frozen=True)
class Cascade:
    base_width: int
    base_height: int
    stages: tuple[Stage, ...]

    def validate(self, node=_dotted) -> None:
        """Check the rules every cascade meets, whatever file it came from.

        A violation raises :class:`CascadeFormatError` naming the node by
        ``node(steps)``: ``steps`` are the JSON schema's keys and indices
        from the root, e.g. ``("stages", 0, "stage_threshold")``.
        """
        def fail(steps, problem):
            raise CascadeFormatError(f"{node(steps)}: {problem}")

        def number(steps, value) -> float:
            # a Python int past the float range cannot be tested for NaN
            try:
                return float(value)
            except OverflowError:
                fail(steps, "number out of range")

        w, h = self.base_width, self.base_height
        if not (1 <= w <= MAX_BASE_WINDOW and 1 <= h <= MAX_BASE_WINDOW):
            fail(("base_window",), f"window sides must be 1 to {MAX_BASE_WINDOW} px")
        for i, stage in enumerate(self.stages):
            at = ("stages", i, "stage_threshold")
            if math.isnan(number(at, stage.stage_threshold)):
                fail(at, "threshold is NaN")
            for j, wc in enumerate(stage.weak_classifiers):
                at = ("stages", i, "weak_classifiers", j)
                if math.isnan(number(at + ("threshold",), wc.threshold)):
                    fail(at + ("threshold",), "threshold is NaN")
                for vote in ("left_value", "right_value"):
                    value = number(at + (vote,), getattr(wc, vote))
                    if not math.isfinite(value):
                        fail(at + (vote,), f"vote {value} is not finite")
                rects = wc.feature.rects
                if not 2 <= len(rects) <= 3:
                    fail(at + ("feature", "rects"), f"{len(rects)} rects, expected 2 or 3")
                for k, r in enumerate(rects):
                    weight = number(at + ("feature", "rects", k), r.weight)
                    if not math.isfinite(weight):
                        fail(at + ("feature", "rects", k), f"weight {weight} is not finite")
                    if r.w < 1 or r.h < 1 or r.x < 0 or r.y < 0 or r.x + r.w > w \
                            or r.y + r.h > h:
                        fail(at + ("feature", "rects", k), f"rect ({r.x},{r.y},{r.w},{r.h}) "
                             f"outside the {w}x{h} base window")


class DetectionBox(NamedTuple):
    x: int
    y: int
    w: int
    h: int
    score: float


class WindowResult(NamedTuple):
    accept: bool
    score: float


@dataclass(frozen=True)
class DetectParams(Config):
    scale_factor: float = 1.1
    step: int = 2
    min_size: int = 24
    min_neighbors: int = 3


# -- window evaluation ------------------------------------------------------------------


def _window_size(cascade: Cascade, scale: float) -> tuple:
    """The rounded window extent at ``scale``; one past the float range is
    infinite, so it fits no image."""
    w, h = cascade.base_width * scale, cascade.base_height * scale
    if not math.isfinite(w + h):
        return math.inf, math.inf
    return max(1, int(round(w))), max(1, int(round(h)))


def _scale_rects(cascade: Cascade, scale: float) -> list:
    """Per-stage scaled rect geometry with area-renormalized weights.

    Both corners of each rect round to integers and a rect keeps at least
    one pixel.  Rounding is monotone, so at any scale >= 1 a rect inside
    the base window stays inside the rounded window.  Its weight is
    multiplied by (ideal scaled area) / (rounded area) so rounding does
    not tilt the balance between a feature's rectangles.
    """
    scaled = []
    for stage in cascade.stages:
        stage_rects = []
        for wc in stage.weak_classifiers:
            rects = []
            for r in wc.feature.rects:
                rx = int(round(r.x * scale))
                ry = int(round(r.y * scale))
                rw = max(1, int(round((r.x + r.w) * scale)) - rx)
                rh = max(1, int(round((r.y + r.h) * scale)) - ry)
                weight = r.weight * (r.w * r.h * scale * scale) / (rw * rh)
                rects.append((rx, ry, rw, rh, weight))
            # float(): a Python int past int64 cannot reach numpy
            stage_rects.append((tuple(rects), float(wc.threshold), float(wc.left_value),
                                float(wc.right_value)))
        scaled.append((tuple(stage_rects), float(stage.stage_threshold)))
    return scaled


def _stage_margins(tables, scaled_stages: list, win_w: int, win_h: int,
                   x0: int, y0: int, nx: int, ny: int, step: int) -> tuple:
    """Run a scaled cascade over a raster of windows, one stage at a time.

    ``tables`` maps each residue ``(py, px)`` to the phase ``table[py::step,
    px::step]``, of the integral and then of the squared table.  The raster
    holds ``ny`` rows of ``nx`` windows with phase origins ``(x0 + i, y0 +
    j)``; every rect must lie inside the image.  Each stage sees only the
    windows no earlier stage rejected.  Returns the row-major raster indices
    of the windows the last evaluated stage saw and that stage's margins
    (stage sum minus stage threshold); a window passed every stage when its
    margin is not below 0.  An empty cascade returns every window with margin 0.

    Per window this performs the float64 operations of a one-window
    evaluation in the same order: mean, then variance, std 1.0 unless the
    variance is positive, each feature value summed rect by rect, each
    stage sum stump by stump from 0.0.  Stage one reads row slices of the
    phases; later stages gather the survivors' entries from a flat base
    made once a stage per phase read.
    """
    bases = None  # residue -> flat phase, survivors' offsets in it, width; None on the raster

    def corner(phases, dy, dx):
        """The table entry ``(dy, dx)`` past the origin of each window in play."""
        qy, py = divmod(dy, step)
        qx, px = divmod(dx, step)
        if bases is None:
            return phases[py, px][y0 + qy:y0 + qy + ny, x0 + qx:x0 + qx + nx]
        at = bases.get((py, px))
        if at is None:
            pw = phases[py, px].shape[1]
            at = bases[py, px] = phases[py, px].ravel(), (y0 + rows) * pw + x0 + cols, pw
        flat, base, pw = at
        return flat.take(base + (qy * pw + qx))

    def sums(phases, rx, ry, rw, rh):
        """The rect sums of the windows in play, in float64 from any phase dtype."""
        s = np.subtract(corner(phases, ry + rh, rx + rw), corner(phases, ry, rx + rw),
                        dtype=np.float64)
        s -= corner(phases, ry + rh, rx)
        s += corner(phases, ry, rx)
        return s.ravel()

    area = win_w * win_h
    total = sums(tables[0], 0, 0, win_w, win_h)
    norm = sums(tables[1], 0, 0, win_w, win_h)
    norm /= area
    norm -= np.square(total / area)  # the variance
    np.sqrt(np.maximum(norm, 0.0, out=norm), out=norm)  # 0 just where the variance is not positive
    norm[norm == 0.0] = 1.0
    norm *= area

    idx = np.arange(nx * ny)
    margin = np.zeros(nx * ny)
    for k, (stage_rects, stage_threshold) in enumerate(scaled_stages):
        if k:
            keep = ~(margin < 0)
            if not keep.any():
                break
            idx, norm, total = idx[keep], norm[keep], total[keep]
            rows, cols = np.divmod(idx, nx)
            bases = {}
        margin = np.zeros(idx.size)
        for rects, threshold, left, right in stage_rects:
            value = 0.0
            for rx, ry, rw, rh, weight in rects:
                if (rx, ry, rw, rh) == (0, 0, win_w, win_h):  # reuse the mean's window sum
                    term = weight * total
                else:
                    term = sums(tables[0], rx, ry, rw, rh)
                    term *= weight
                value = np.add(term, value, out=term)
            value /= norm
            margin += np.where(value < threshold, left, right)
        margin -= stage_threshold
    return idx, margin


def eval_window(ii: IntegralImage, cascade: Cascade, origin, scale: float) -> WindowResult:
    """Run the cascade on one window.

    The window top-left corner is ``origin``; its size is the base window
    scaled by ``scale`` and rounded.  Feature values are divided by the
    window's std (flat windows count as std 1) times its area before the
    stump comparison.  Evaluation stops at the first failing stage; an
    empty cascade accepts with score 0.  The score is the final evaluated
    stage's sum minus that stage's threshold.
    """
    if not 0 < scale < math.inf:
        raise ParameterError(f"scale must be positive and finite, got {scale}")
    x, y = origin
    win_w, win_h = _window_size(cascade, scale)
    if x < 0 or y < 0 or x + win_w > ii.width or y + win_h > ii.height:
        raise InputError(
            f"window (x={x}, y={y}, w={win_w}, h={win_h}) outside "
            f"{ii.width}x{ii.height} image"
        )
    scaled = _scale_rects(cascade, scale)
    # below scale 1 a rect may round one pixel past its window
    for stage_rects, _ in scaled:
        for rects, *_ in stage_rects:
            for rx, ry, rw, rh, _ in rects:
                if x + rx + rw > ii.width or y + ry + rh > ii.height:
                    raise InputError(f"rect (x={x + rx}, y={y + ry}, w={rw}, h={rh}) "
                                     f"outside {ii.width}x{ii.height} image")
    _, margin = _stage_margins(({(0, 0): ii.table}, {(0, 0): ii.squared_table}), scaled,
                               win_w, win_h, x, y, 1, 1, 1)
    return WindowResult(not margin[0] < 0, float(margin[0]))


# -- scanning and grouping -----------------------------------------------------------------


def _fill_min_table(table: np.ndarray, lo: int, hi: int) -> None:
    """Bring levels 1 and up of a sparse min table up to date after level 0
    changed over ``[lo, hi)``: ``table[k, p]`` is the min of level 0 over
    ``[p, p + 2**k)``, for every such range inside the table."""
    for k in range(1, len(table)):
        half = 1 << (k - 1)
        start, stop = max(0, lo - 2 * half + 1), min(hi, table.shape[1] - 2 * half + 1)
        if stop > start:
            np.minimum(table[k - 1, start:stop], table[k - 1, start + half:stop + half],
                       out=table[k, start:stop])


def _range_min(table: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The min of level 0 over each non-empty ``[lo, hi)``: two overlapping
    power-of-two ranges."""
    k = np.frexp(hi - lo)[1] - 1
    return np.minimum(table[k, lo], table[k, hi - np.left_shift(1, k)])


def _lower(target: np.ndarray, at: np.ndarray, values: np.ndarray) -> None:
    """``target[a] = min(target[a], values at a)`` for the sorted ``at``."""
    if at.size:
        first = np.flatnonzero(np.r_[True, at[1:] != at[:-1]])
        at = at[first]
        target[at] = np.minimum(target[at], np.minimum.reduceat(values, first))


def _expand(owner: np.ndarray, count: np.ndarray, first: np.ndarray) -> tuple:
    """Each ``owner`` repeated ``count`` times, beside the consecutive
    integers from its ``first``."""
    owner = np.repeat(owner, count)
    ends = np.cumsum(count)
    return owner, np.arange(owner.size) + np.repeat(first - ends + count, count)


def _founders(x, y, w, h) -> np.ndarray:
    """For each box, the index of the box that started its cluster.

    The rule: a box joins the lowest-numbered cluster holding an earlier
    box with IoU above 0.3, so its founder is ``m(i) = min(i, min of m(j)
    over i's earlier neighbours j)``.  IoU > 0.3 is ``13·inter > 3·(A + B)``
    in integers, which decides as the float64 ``inter / union > 0.3`` does
    for any union below about 10**15: a ratio other than 3/10 differs from
    0.3 by at least 1 / (10·union).

    One stable sort by (size, y, x) cuts the boxes into runs of one size
    and rows of one y; detect's raw boxes are already in that order.  For a
    box and a run whose area ratio can pass, each row within reach holds
    the box's neighbours in one exact x-interval, found with
    ``searchsorted``.  ``m`` takes the min over each interval from a sparse
    min table, so the work grows with the box-row pairs, not with the
    neighbour pairs.  Boxes go in list order, in chunks of about
    ``_GROUP_CHUNK`` candidate rows that are also consecutive in sorted
    order.  The table holds the final ``m`` of earlier chunks and ``n`` for
    the rest; inside a chunk, ``m`` iterates to the fixpoint, each round
    also jumping ``m(i)`` to ``m(m(i))``.
    """
    n = len(x)
    order = np.lexsort((x, y, h, w))
    at = np.empty(n, dtype=np.int64)  # each box's sorted position
    at[order] = np.arange(n)
    sx, sy, sw, sh = x[order], y[order], w[order], h[order]
    run_start = np.r_[True, (sw[1:] != sw[:-1]) | (sh[1:] != sh[:-1])]
    row_start = np.flatnonzero(run_start | np.r_[True, sy[1:] != sy[:-1]])
    run_first = np.flatnonzero(run_start)
    run_of = np.cumsum(run_start) - 1
    row_len = np.diff(np.r_[row_start, n])
    row_y, row_run = sy[row_start], run_of[row_start]
    # the earliest list index in each row and run: one whose boxes all come
    # after box i holds no earlier neighbour of i
    row_earliest = np.minimum.reduceat(order, row_start)
    run_earliest = np.minimum.reduceat(order, run_first)
    # boxes keyed (row, x) and rows keyed (run, y), both sorted
    x0, y0 = x.min(), y.min()
    x_span, y_span = x.max() - x0 + 1, y.max() - y0 + 1
    box_key = np.repeat(np.arange(row_start.size), row_len) * x_span + (sx - x0)
    row_key = row_run * y_span + (row_y - y0)
    # IoU is at most the smaller area over the larger, so a partner run has
    # 10·min > 3·max: a window of the runs sorted by area
    run_w, run_h = sw[run_first], sh[run_first]
    run_area = run_w * run_h
    sized = (run_w > 0) & (run_h > 0)
    by_area = np.flatnonzero(sized)[np.argsort(run_area[sized], kind="stable")]
    areas = run_area[by_area]
    window_lo = np.searchsorted(areas, 3 * run_area // 10 + 1)
    window_hi = np.where(sized, np.searchsorted(areas, (10 * run_area - 1) // 3, "right"),
                         window_lo)
    rows_before = np.r_[0, np.cumsum(np.bincount(row_run)[by_area])]
    size_of = run_of[at]
    reach = np.cumsum((rows_before[window_hi] - rows_before[window_lo])[size_of])

    def intervals(a, b):
        """(i, lo, hi) for the boxes i in [a, b): i's neighbours in one row
        are the sorted positions lo to hi - 1, less any later than i."""
        run = size_of[a:b]
        i, k = _expand(np.arange(a, b), window_hi[run] - window_lo[run], window_lo[run])
        run = by_area[k]
        keep = run_earliest[run] < i
        i, run = i[keep], run[keep]
        w2, h2 = run_w[run], run_h[run]
        limit = 3 * (w[i] * h[i] + run_area[run])
        need_y = limit // (13 * np.minimum(w[i], w2)) + 1
        y_lo = np.maximum(y[i] - h2 + need_y, y0)
        y_hi = np.minimum(y[i] + h[i] - need_y, y0 + y_span - 1)
        keep = (need_y <= np.minimum(h[i], h2)) & (y_lo <= y_hi)
        i, run, w2, h2, limit = i[keep], run[keep], w2[keep], h2[keep], limit[keep]
        first = np.searchsorted(row_key, run * y_span + (y_lo[keep] - y0))
        count = np.searchsorted(row_key, run * y_span + (y_hi[keep] - y0), "right") - first
        t, row = _expand(np.arange(i.size), count, first)
        keep = row_earliest[row] < i[t]
        t, row = t[keep], row[keep]
        i, w2, h2, limit = i[t], w2[t], h2[t], limit[t]
        iy = np.minimum(y[i] + h[i], row_y[row] + h2) - np.maximum(y[i], row_y[row])
        need_x = limit // (13 * iy) + 1
        x_lo = np.maximum(x[i] - w2 + need_x, x0)
        x_hi = np.minimum(x[i] + w[i] - need_x, x0 + x_span - 1)
        keep = (need_x <= np.minimum(w[i], w2)) & (x_lo <= x_hi)
        i, row = i[keep], row[keep]
        lo = np.searchsorted(box_key, row * x_span + (x_lo[keep] - x0))
        hi = np.searchsorted(box_key, row * x_span + (x_hi[keep] - x0), "right")
        keep = lo < hi
        return i[keep], lo[keep], hi[keep]

    levels = int(row_len.max()).bit_length()
    table = np.full((levels, n), n, dtype=np.int64)
    stops = np.r_[np.flatnonzero(at[1:] != at[:-1] + 1) + 1, n]
    founder = np.arange(n)
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(reach, (reach[a - 1] if a else 0) + _GROUP_CHUNK,
                                           "right")))
        b = min(b, int(stops[np.searchsorted(stops, a, "right")]))
        i, lo, hi = intervals(a, b)
        labels = np.arange(a, b)
        _lower(labels, i - a, _range_min(table, lo, hi))
        # the chunk's own boxes before i, at sorted positions [start, at[i])
        start = at[a]
        lo, hi = np.maximum(lo, start), np.minimum(hi, at[i])
        inside = lo < hi
        i, lo, hi = i[inside] - a, lo[inside] - start, hi[inside] - start
        if i.size:
            local = np.empty((levels, b - a), dtype=np.int64)
            while True:
                local[0] = labels
                _fill_min_table(local, 0, b - a)
                new = labels.copy()
                _lower(new, i, _range_min(local, lo, hi))
                in_chunk = new >= a
                new[in_chunk] = np.minimum(new[in_chunk], new[new[in_chunk] - a])
                if np.array_equal(new, labels):
                    break
                labels = new
        founder[a:b] = table[0, start:start + b - a] = labels
        _fill_min_table(table, start, start + b - a)
        a = b
    return founder


def group_boxes(boxes: list, min_neighbors: int) -> list:
    """Greedy clustering of raw windows into detections.

    Boxes are taken in their deterministic scan order; each joins the
    first existing cluster it overlaps (IoU above 0.3 with any member) or
    starts a new one.  Clusters smaller than ``min_neighbors`` are
    dropped.  The cluster's box is the member mean (clamped so rounding
    cannot leave the members' span) and its score is the best member
    score.  Coordinates are integers; :func:`_founders` says how the
    clusters are found.
    """
    if not boxes:
        return []
    fields = np.fromiter(itertools.chain.from_iterable(boxes), np.float64,
                         5 * len(boxes)).reshape(-1, 5)
    x, y, w, h = fields[:, :4].astype(np.int64).T
    score = fields[:, 4]
    founder = _founders(x, y, w, h)
    first = np.flatnonzero(founder == np.arange(len(boxes)))
    cluster = np.searchsorted(first, founder)
    size = np.bincount(cluster)
    mean_x, mean_y, mean_w, mean_h = (np.rint(np.bincount(cluster, v) / size).astype(np.int64)
                                      for v in (x, y, w, h))
    right, bottom = x + w, y + h
    span_x, span_y, best = right[first], bottom[first], score[first]
    np.maximum.at(span_x, cluster, right)
    np.maximum.at(span_y, cluster, bottom)
    np.maximum.at(best, cluster, score)
    keep = size >= max(1, min_neighbors)
    return [DetectionBox(*box) for box in zip(
        mean_x[keep].tolist(), mean_y[keep].tolist(),
        np.minimum(mean_w, span_x - mean_x)[keep].tolist(),
        np.minimum(mean_h, span_y - mean_y)[keep].tolist(), best[keep].tolist())]


def _pyramid(cascade: Cascade, params: DetectParams, width: int, height: int) -> list:
    """The scales ``detect`` scans; more than ``MAX_SCALES`` is a ParameterError."""
    scales = []
    scale = max(1.0, params.min_size / cascade.base_width)
    while True:
        win_w, win_h = _window_size(cascade, scale)
        if win_w > width or win_h > height:
            return scales
        if len(scales) == MAX_SCALES:
            raise ParameterError(
                f"scale_factor {params.scale_factor} needs more than {MAX_SCALES} "
                f"pyramid scales on a {width}x{height} image"
            )
        scales.append(scale)
        scale *= params.scale_factor


def _scan_scale(tables: list, win_w: int, win_h: int, scaled: list, width: int, height: int,
                step: int) -> list:
    """Raw boxes of the windows one scale accepts, in raster order."""
    nx = len(range(0, width - win_w + 1, step))
    ny = len(range(0, height - win_h + 1, step))
    idx, margin = _stage_margins(tables, scaled, win_w, win_h, 0, 0, nx, ny, step)
    hit = ~(margin < 0)
    rows, cols = np.divmod(idx[hit], nx)
    return [DetectionBox(x, y, win_w, win_h, score) for x, y, score in
            zip((cols * step).tolist(), (rows * step).tolist(), margin[hit].tolist())]


def detect(gray: np.ndarray, cascade: Cascade, params: Optional[DetectParams] = None) -> list:
    """Scan a scale pyramid and return grouped detections.

    ``gray`` is a 2-D ``uint8`` image.  Scales start with windows
    ``min_size`` wide (never below the base window) and multiply by
    ``scale_factor`` until the window no longer fits; a pyramid of more
    than ``MAX_SCALES`` scales is refused.  The scan raster uses a
    constant ``step`` at every scale, so shifting image content by a
    multiple of ``step`` shifts detections identically.  Output is sorted
    by descending score.
    """
    params = params or DetectParams()
    if not params.scale_factor > 1.0:  # NaN too
        raise ParameterError(f"scale_factor must exceed 1, got {params.scale_factor}")
    if params.step < 1:
        raise ParameterError(f"step must be >= 1, got {params.step}")
    if params.min_size < 1:
        raise ParameterError(f"min_size must be >= 1, got {params.min_size}")
    if gray.ndim != 2:
        raise InputError(f"detect needs a 2-D grayscale image, got shape {gray.shape}")
    ii = integral_image(gray)
    cascade.validate()

    h, w = gray.shape
    step = min(params.step, h + w)  # a step past the image scans the windows at (0, 0) alone
    scans = [(*_window_size(cascade, scale), _scale_rects(cascade, scale))
             for scale in _pyramid(cascade, params, w, h)]
    # the scan reads float64 phases table[py::step, px::step] for the residues
    # its corner offsets touch; integers below 2**53, so every sum is exact
    touched = set()
    for win_w, win_h, scaled in scans:
        if len(touched) < min(step, h + 1) * min(step, w + 1):
            rects = [(0, 0, win_w, win_h)] + [rect[:4] for stage_rects, _ in scaled
                                              for rects, *_ in stage_rects for rect in rects]
            touched.update((dy % step, dx % step) for rx, ry, rw, rh in rects
                           for dy in (ry, ry + rh) for dx in (rx, rx + rw))
    tables = [ii.table, ii.squared_table]
    del ii
    for k in (0, 1):  # each int64 table is dropped as soon as its phases exist
        tables[k] = {(py, px): tables[k][py::step, px::step].astype(np.float64)
                     for py, px in touched}
    raw = [box for scan in scans for box in _scan_scale(tables, *scan, w, h, step)]
    grouped = group_boxes(raw, params.min_neighbors)
    grouped.sort(key=lambda b: (-b.score, b.y, b.x, b.w, b.h))
    return grouped


# -- legacy XML import -----------------------------------------------------------------------


def _xml_text(elem, path: str) -> str:
    if elem is None or elem.text is None:
        raise CascadeFormatError(f"{path}: missing value")
    return elem.text.strip()


def _xml_float(elem, path: str) -> float:
    text = _xml_text(elem, path)
    try:
        return float(text)
    except ValueError as e:
        raise CascadeFormatError(f"{path}: {text!r} is not a number") from e


# the JSON schema's field names that the XML schema spells differently
_XML_FIELDS = {"base_window": "size", "weak_classifiers": "trees",
               "left_value": "left_val", "right_value": "right_val"}


def _xml_node(base: str, steps) -> str:
    """The element path of the cascade node at ``steps`` (see ``Cascade.validate``)."""
    parts = [base]
    for step in steps:
        if isinstance(step, int):  # a weak classifier is the one node of its tree
            parts.append(f"_[{step}]/_[0]" if parts[-1] == "trees" else f"_[{step}]")
        else:
            parts.append(_XML_FIELDS.get(step, step))
    return "/".join(parts)


def load_cascade_xml(path) -> Cascade:
    """Import a stump-based cascade from the legacy XML schema.

    Only the stump subset is supported: one node per tree, no tilted
    features.  Anything deeper or tilted is rejected explicitly, with the
    element path of the offending node.
    """
    path = Path(path)
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError, ValueError, LookupError) as e:
        # ValueError and LookupError: an encoding declaration expat cannot use
        raise CascadeFormatError(f"{path}: cannot parse XML: {e}") from e
    if root.tag != "opencv_storage":
        raise CascadeFormatError(f"{path}: /: root element is {root.tag!r}, "
                                 "expected 'opencv_storage'")
    children = list(root)
    if len(children) != 1:
        raise CascadeFormatError(f"{path}: /opencv_storage: expected exactly one cascade "
                                 f"element, found {len(children)}")
    casc = children[0]
    base = f"/opencv_storage/{casc.tag}"

    size_text = _xml_text(casc.find("size"), f"{base}/size")
    try:
        base_w, base_h = (int(v) for v in size_text.split())
    except ValueError as e:
        raise CascadeFormatError(f"{base}/size: expected 'width height', got {size_text!r}") from e

    stages_elem = casc.find("stages")
    if stages_elem is None:
        raise CascadeFormatError(f"{base}/stages: missing")
    stages = []
    for i, stage_elem in enumerate(stages_elem.findall("_")):
        spath = f"{base}/stages/_[{i}]"
        trees = stage_elem.find("trees")
        if trees is None:
            raise CascadeFormatError(f"{spath}/trees: missing")
        weak = []
        for j, tree in enumerate(trees.findall("_")):
            tpath = f"{spath}/trees/_[{j}]"
            nodes = tree.findall("_")
            if len(nodes) != 1:
                raise CascadeFormatError(
                    f"{tpath}: tree has {len(nodes)} nodes; only depth-1 stumps are supported"
                )
            node = nodes[0]
            npath = f"{tpath}/_[0]"
            if node.find("left_node") is not None or node.find("right_node") is not None:
                raise CascadeFormatError(
                    f"{npath}: branch nodes are not supported, only stumps"
                )
            feature = node.find("feature")
            if feature is None:
                raise CascadeFormatError(f"{npath}/feature: missing")
            tilted = feature.find("tilted")
            if tilted is not None and _xml_text(tilted, f"{npath}/feature/tilted") not in ("0",):
                raise CascadeFormatError(
                    f"{npath}/feature/tilted: tilted features are not supported"
                )
            rects_elem = feature.find("rects")
            if rects_elem is None:
                raise CascadeFormatError(f"{npath}/feature/rects: missing")
            rects = []
            for k, rect_elem in enumerate(rects_elem.findall("_")):
                rpath = f"{npath}/feature/rects/_[{k}]"
                fields = _xml_text(rect_elem, rpath).split()
                if len(fields) != 5:
                    raise CascadeFormatError(
                        f"{rpath}: expected 'x y w h weight', got {rect_elem.text!r}"
                    )
                try:
                    rects.append(HaarRect(*(int(v) for v in fields[:4]), float(fields[4])))
                except ValueError as e:
                    raise CascadeFormatError(f"{rpath}: bad rect values {fields!r}") from e
            weak.append(WeakClassifier(
                HaarFeature(tuple(rects)),
                _xml_float(node.find("threshold"), f"{npath}/threshold"),
                _xml_float(node.find("left_val"), f"{npath}/left_val"),
                _xml_float(node.find("right_val"), f"{npath}/right_val"),
            ))
        stages.append(Stage(tuple(weak),
                            _xml_float(stage_elem.find("stage_threshold"),
                                       f"{spath}/stage_threshold")))
    cascade = Cascade(base_w, base_h, tuple(stages))
    cascade.validate(lambda steps: _xml_node(base, steps))
    return cascade


# -- native JSON format ------------------------------------------------------------------------


@dataclass(frozen=True)
class _CascadeFile(Config):
    """A cascade's JSON document, as the config codec decodes and encodes it."""
    base_window: tuple[int, int]
    stages: tuple[Stage, ...]


def _from_document(doc, path) -> Cascade:
    """The cascade a decoded JSON document holds, checked by the codec and
    then by ``Cascade.validate``; a problem names ``path`` and the node."""
    try:
        file = _CascadeFile.from_dict(doc)
        cascade = Cascade(*file.base_window, file.stages)
        cascade.validate()
    except (ConfigError, CascadeFormatError) as e:
        problems = str(e).removeprefix("config validation failed:\n  ")
        raise CascadeFormatError(f"{path}: {problems}") from None
    return cascade


def save_cascade_json(cascade: Cascade, path) -> None:
    """Write the documented JSON schema (see ``load_cascade_json``); a cascade
    it would not load raises :class:`CascadeFormatError` and writes nothing."""
    doc = _CascadeFile((cascade.base_width, cascade.base_height), cascade.stages).to_dict()
    _from_document(doc, path)
    write_json(path, doc)


def load_cascade_json(path) -> Cascade:
    """Load the native JSON cascade format.

    Schema: an object with "base_window": [w, h] and "stages": a list of
    {"stage_threshold": number, "weak_classifiers": [{"feature":
    {"rects": [{"x","y","w","h","weight"}, ...2 or 3]}, "threshold",
    "left_value", "right_value"}]}.  The config codec decodes it, so every
    number is finite and an integer stays an ``int``, and a violation is
    reported by dotted path, e.g. ``stages[0].stage_threshold``.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise CascadeFormatError(f"{path}: cannot read: {e}") from e
    return _from_document(read_json(raw, CascadeFormatError, f"{path}: not valid JSON"), path)
