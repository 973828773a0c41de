"""Face localization tests: integral tables, window evaluation against hand
calculations, pyramid scanning, grouping, the array engine against the
scalar one-window oracle, and both cascade file formats."""

import hashlib
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from maskdetect import cascade as cascade_module
from maskdetect.cascade import (
    Cascade,
    DetectionBox,
    DetectParams,
    HaarFeature,
    HaarRect,
    Stage,
    WeakClassifier,
    WindowResult,
    _scale_rects,
    detect,
    eval_window,
    group_boxes,
    integral_image,
    load_cascade_json,
    load_cascade_xml,
    rect_sum,
    save_cascade_json,
    to_grayscale,
)
from maskdetect.errors import CascadeFormatError, InputError, ParameterError
from maskdetect.rng import SplitMix64

FIXTURE_XML = Path(__file__).parent / "fixtures" / "face_cascade.xml"


def _band_image(size=96, boundary=48, bright=200, dark=50):
    """Bright upper band over a dark lower band: the synthetic 'face'."""
    img = np.full((size, size), dark, dtype=np.uint8)
    img[:boundary, :] = bright
    return img


def _two_rect_cascade():
    """Single stage, one bright-top/dark-bottom contrast feature.

    For a window whose top half is 200 and bottom half is 50 the
    normalized feature value is exactly 1.0 (worked by hand: sum diff
    43200, std 75, area 576, 43200 / (75 * 576) = 1).
    """
    feature = HaarFeature((HaarRect(0, 0, 24, 24, -1.0), HaarRect(0, 0, 24, 12, 2.0)))
    stump = WeakClassifier(feature, threshold=0.5, left_value=-1.0, right_value=1.0)
    return Cascade(24, 24, (Stage((stump,), 0.5),))


# -- integral image --------------------------------------------------------------


def test_integral_all_ones_and_zeros():
    ii = integral_image(np.ones((3, 3), dtype=np.uint8))
    assert ii.table[3, 3] == 9
    assert ii.table[0].sum() == 0 and ii.table[:, 0].sum() == 0
    zz = integral_image(np.zeros((4, 5), dtype=np.uint8))
    assert zz.table.sum() == 0 and zz.squared_table.sum() == 0


def _squared_sum(ii, rect):
    """Four-lookup sum of the squared pixels inside ``rect`` = (x, y, w, h)."""
    x, y, w, h = rect
    t = ii.squared_table
    return int(t[y + h, x + w] - t[y, x + w] - t[y + h, x] + t[y, x])


def test_integral_matches_naive_sums():
    rng = SplitMix64(1)
    img = (rng.uniform(shape=(4, 4)) * 256).astype(np.uint8)
    ii = integral_image(img)
    for y in range(4):
        for x in range(4):
            for h in range(1, 4 - y + 1):
                for w in range(1, 4 - x + 1):
                    naive = int(img[y : y + h, x : x + w].astype(np.int64).sum())
                    assert rect_sum(ii, (x, y, w, h)) == naive
                    naive_sq = int(
                        (img[y : y + h, x : x + w].astype(np.int64) ** 2).sum()
                    )
                    assert _squared_sum(ii, (x, y, w, h)) == naive_sq


def test_rect_sum_random_rects_exact():
    rng = SplitMix64(2)
    img = (rng.uniform(shape=(37, 53)) * 256).astype(np.uint8)
    ii = integral_image(img)
    for _ in range(100):
        x = rng.randint(52)
        y = rng.randint(36)
        w = rng.randint(53 - x - 1) + 1
        h = rng.randint(37 - y - 1) + 1
        naive = int(img[y : y + h, x : x + w].astype(np.int64).sum())
        assert rect_sum(ii, (x, y, w, h)) == naive


def test_rect_sum_edge_cases_and_bounds():
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    ii = integral_image(img)
    assert rect_sum(ii, (0, 0, 4, 3)) == int(img.sum())  # full image
    assert rect_sum(ii, (2, 1, 1, 1)) == int(img[1, 2])  # single pixel
    for bad in [(-1, 0, 2, 2), (0, 0, 5, 1), (3, 2, 2, 2), (0, 0, 0, 1)]:
        with pytest.raises(InputError):
            rect_sum(ii, bad)
    with pytest.raises(InputError):
        integral_image(np.zeros((0, 3), dtype=np.uint8))
    with pytest.raises(InputError):
        integral_image(np.zeros((3, 3, 3), dtype=np.uint8))


@pytest.mark.parametrize("img", [
    np.full((24, 24), 299.7),  # truncating through int64 would sum 299 per pixel
    np.ones((24, 24), dtype=np.float32),
    np.ones((24, 24), dtype=np.int64),
    np.ones((24, 24), dtype=np.uint16),
    np.ones((24, 24), dtype=bool),
], ids=["float64", "float32", "int64", "uint16", "bool"])
def test_integral_image_takes_only_uint8(img):
    with pytest.raises(InputError, match="uint8"):
        integral_image(img)


def test_eval_window_path_rejects_a_float_image():
    img = np.full((24, 24), 50.0)
    img[:12, :] = 200.9
    with pytest.raises(InputError, match="uint8"):
        eval_window(integral_image(img), _two_rect_cascade(), (0, 0), 1.0)


def test_integral_value_range_is_exact_int64():
    img = np.full((200, 200), 255, dtype=np.uint8)
    ii = integral_image(img)
    assert ii.table[200, 200] == 255 * 200 * 200
    assert ii.squared_table[200, 200] == 255 * 255 * 200 * 200


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (37, 53)])
def test_integral_tables_equal_the_int64_cumsums(shape):
    # the tables are summed from the uint8 pixels (squares in int32) into
    # int64; every entry equals the cumsums of the image widened first
    rng = SplitMix64(3)
    img = (rng.uniform(shape=shape) * 256).astype(np.uint8)
    img.flat[0] = 255
    ii = integral_image(img)
    px = img.astype(np.int64)
    for table, want in ((ii.table, px), (ii.squared_table, px * px)):
        assert table.dtype == np.int64
        assert np.array_equal(table, np.pad(want.cumsum(axis=0).cumsum(axis=1), ((1, 0), (1, 0))))


# -- grayscale -------------------------------------------------------------------


def test_grayscale_known_values():
    px = np.array(
        [[[255, 0, 0], [0, 255, 0], [0, 0, 255], [255, 255, 255], [10, 20, 30]]],
        dtype=np.uint8,
    )
    gray = to_grayscale(px)
    assert gray.tolist() == [[76, 150, 29, 255, 18]]
    with pytest.raises(InputError):
        to_grayscale(np.zeros((3, 3), dtype=np.uint8))


# -- window evaluation -------------------------------------------------------------


def test_eval_window_hand_computed_acceptance():
    casc = _two_rect_cascade()
    win = np.full((24, 24), 50, dtype=np.uint8)
    win[:12, :] = 200
    ii = integral_image(win)
    result = eval_window(ii, casc, (0, 0), 1.0)
    assert result.accept
    assert result.score == 0.5  # stage sum 1.0 minus threshold 0.5

    flipped = integral_image(win[::-1, :].copy())
    down = eval_window(flipped, casc, (0, 0), 1.0)
    assert not down.accept
    assert down.score == -1.5  # vote -1 minus threshold


def test_eval_window_scaled_window_same_value():
    casc = _two_rect_cascade()
    for scale, size in [(2.0, 48), (1.5, 36)]:
        win = np.full((size, size), 50, dtype=np.uint8)
        win[: size // 2, :] = 200
        result = eval_window(integral_image(win), casc, (0, 0), scale)
        assert result.accept
        assert abs(result.score - 0.5) < 1e-12


def test_eval_window_flat_region_rejected_via_unit_std():
    casc = _two_rect_cascade()
    flat = integral_image(np.full((24, 24), 77, dtype=np.uint8))
    result = eval_window(flat, casc, (0, 0), 1.0)
    assert not result.accept  # feature 0, vote -1, below the 0.5 stage bar


def test_eval_window_empty_cascade_accepts():
    empty = Cascade(24, 24, ())
    ii = integral_image(np.zeros((30, 30), dtype=np.uint8))
    result = eval_window(ii, empty, (3, 3), 1.0)
    assert result.accept and result.score == 0.0


def test_eval_window_infinite_stage_threshold_rejects():
    feature = HaarFeature((HaarRect(0, 0, 24, 24, -1.0), HaarRect(0, 0, 24, 12, 2.0)))
    stump = WeakClassifier(feature, 0.5, -1.0, 1.0)
    casc = Cascade(24, 24, (Stage((stump,), float("inf")),))
    win = np.full((24, 24), 50, dtype=np.uint8)
    win[:12, :] = 200
    assert not eval_window(integral_image(win), casc, (0, 0), 1.0).accept


def test_eval_window_bounds_and_scale_validation():
    casc = _two_rect_cascade()
    ii = integral_image(np.zeros((30, 30), dtype=np.uint8))
    with pytest.raises(InputError):
        eval_window(ii, casc, (10, 10), 1.0)  # 24-window from (10,10) leaves a 30-image
    for scale in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="scale"):
            eval_window(ii, casc, (0, 0), scale)
    with pytest.raises(InputError, match="outside"):
        eval_window(ii, casc, (0, 0), 1e307)  # finite, but the window overflows to infinity


def test_eval_window_rect_past_the_image_is_an_input_error():
    # below scale 1 a rect that starts at the window's far edge rounds one
    # pixel past it; at the image border that pixel is outside the image
    feature = HaarFeature((HaarRect(0, 0, 24, 24, -1.0), HaarRect(23, 23, 1, 1, 576.0)))
    casc = Cascade(24, 24, (Stage((WeakClassifier(feature, 0.0, -1.0, 1.0),), 0.0),))
    ii = integral_image(np.zeros((12, 12), dtype=np.uint8))
    with pytest.raises(InputError, match="rect"):
        eval_window(ii, casc, (0, 0), 0.5)
    assert eval_window(integral_image(np.zeros((13, 13), dtype=np.uint8)), casc,
                       (0, 0), 0.5) == WindowResult(True, 1.0)


def test_stage_appending_only_shrinks_acceptance():
    # monotone cascade property on a batch of random windows
    full = load_cascade_xml(FIXTURE_XML)
    one_stage = Cascade(full.base_width, full.base_height, full.stages[:1])
    rng = SplitMix64(7)
    kept, total = 0, 0
    for trial in range(60):
        win = (rng.uniform(shape=(24, 24)) * 256).astype(np.uint8)
        if trial % 3 == 0:
            win[:12, :] = np.minimum(255, win[:12, :].astype(int) + 120).astype(np.uint8)
        ii = integral_image(win)
        two = eval_window(ii, full, (0, 0), 1.0).accept
        one = eval_window(ii, one_stage, (0, 0), 1.0).accept
        if two:
            assert one  # accepted by both stages implies accepted by the prefix
            kept += 1
        total += one
    assert kept <= total


# -- detection --------------------------------------------------------------------------


def test_detect_finds_band_pattern_and_rejects_flip():
    casc = load_cascade_xml(FIXTURE_XML)
    img = _band_image()
    boxes = detect(img, casc, DetectParams(scale_factor=1.2, step=2, min_size=24,
                                           min_neighbors=3))
    assert len(boxes) >= 1
    for b in boxes:
        assert 0 <= b.x and 0 <= b.y and b.x + b.w <= 96 and b.y + b.h <= 96
        center_row = b.y + b.h / 2
        assert 36 <= center_row <= 60  # on the bright/dark boundary
    # in the flipped image brightness only increases downward, so the
    # bright-top contrast stage can never fire
    assert detect(img[::-1, :].copy(), casc) == []


def test_detect_scores_sorted_descending():
    casc = load_cascade_xml(FIXTURE_XML)
    boxes = detect(_band_image(), casc, DetectParams(1.2, 2, 24, 1))
    scores = [b.score for b in boxes]
    assert scores == sorted(scores, reverse=True)


def test_detect_blank_image_yields_nothing():
    casc = load_cascade_xml(FIXTURE_XML)
    assert detect(np.full((80, 80), 128, dtype=np.uint8), casc) == []


def test_detect_min_size_filters_scales():
    casc = load_cascade_xml(FIXTURE_XML)
    img = _band_image()
    assert detect(img, casc, DetectParams(1.2, 2, 200, 3)) == []  # image too small
    small_only = detect(img, casc, DetectParams(1.2, 2, 90, 1))
    for b in small_only:
        assert b.w >= 90


def test_detect_min_neighbors_filter():
    casc = load_cascade_xml(FIXTURE_XML)
    img = _band_image()
    lax = detect(img, casc, DetectParams(1.2, 2, 24, 1))
    strict = detect(img, casc, DetectParams(1.2, 2, 24, 10_000))
    assert len(lax) >= 1
    assert strict == []


def test_detect_translation_consistency():
    casc = load_cascade_xml(FIXTURE_XML)

    def render(ox, oy):
        img = np.full((120, 120), 50, dtype=np.uint8)
        img[oy : oy + 24, ox : ox + 48] = 200  # bright band with dark below it
        return img

    base = detect(render(24, 30), casc, DetectParams(1.25, 2, 24, 1))
    dx, dy = 8, 6  # multiples of step
    shifted = detect(render(24 + dx, 30 + dy), casc, DetectParams(1.25, 2, 24, 1))
    moved = sorted([(b.x + dx, b.y + dy, b.w, b.h, round(b.score, 9)) for b in base])
    got = sorted([(b.x, b.y, b.w, b.h, round(b.score, 9)) for b in shifted])
    assert moved == got


def test_detect_parameter_validation():
    casc = _two_rect_cascade()
    img = np.zeros((50, 50), dtype=np.uint8)
    with pytest.raises(ParameterError):
        detect(img, casc, DetectParams(scale_factor=1.0))
    with pytest.raises(ParameterError):
        detect(img, casc, DetectParams(step=0))
    with pytest.raises(ParameterError):
        detect(img, casc, DetectParams(min_size=0))
    with pytest.raises(InputError):
        detect(np.zeros((50, 50, 3), dtype=np.uint8), casc)


def test_detect_edge_windows_keep_rects_inside():
    # rounding a rect's corner and size separately took the rect one pixel
    # past an edge window here, and detect raised InputError
    gray = np.empty((240, 321), np.uint8)
    gray[:120] = 210
    gray[120:] = 40
    assert detect(gray, load_cascade_xml(FIXTURE_XML)) == [DetectionBox(108, 67, 105, 105, 0.5)]


@pytest.mark.parametrize("scale", [1.0, 1.1, 1.3, 1.37, 2.0, 2.5, 4.3, 7.77])
def test_scaled_rects_stay_inside_the_window(scale):
    casc = load_cascade_xml(FIXTURE_XML)
    win = max(1, round(24 * scale))
    for stage_rects, _ in _scale_rects(casc, scale):
        for rects, *_ in stage_rects:
            for rx, ry, rw, rh, _ in rects:
                assert rx >= 0 and ry >= 0 and rw >= 1 and rh >= 1
                assert rx + rw <= win and ry + rh <= win


@pytest.mark.parametrize("make", [
    lambda g: g.astype(np.float64) * 299 / 255,  # values above 255 were truncated silently
    lambda g: g.astype(np.int64) - 100,  # negative pixels went through
], ids=["float64", "int64"])
def test_detect_rejects_images_that_are_not_uint8(make):
    casc = load_cascade_xml(FIXTURE_XML)
    with pytest.raises(InputError, match="uint8"):
        detect(make(_band_image()), casc)


def test_detect_refuses_an_unbounded_pyramid():
    # 1.0000001 asks for ~200k scales even on a 24x24 image (~30M at 640x480)
    img = np.full((24, 24), 90, dtype=np.uint8)
    started = time.perf_counter()
    with pytest.raises(ParameterError, match="scale_factor"):
        detect(img, load_cascade_xml(FIXTURE_XML), DetectParams(scale_factor=1.0000001))
    assert time.perf_counter() - started < 5.0
    # a fine pyramid under the cap still runs
    assert detect(img, load_cascade_xml(FIXTURE_XML), DetectParams(scale_factor=1.0001)) == []


@pytest.mark.parametrize("factor", [1e307, 1e308, math.inf])
def test_detect_pyramid_ends_where_the_window_overflows(factor):
    # the second scale's window is past the float range: it fits no image, so
    # the pyramid ends there, as it does at 1e300
    casc, img = load_cascade_xml(FIXTURE_XML), _band_image()
    want = detect(img, casc, DetectParams(scale_factor=1e300, min_neighbors=1))
    assert want
    assert detect(img, casc, DetectParams(scale_factor=factor, min_neighbors=1)) == want


def test_detect_refuses_a_nan_scale_factor():
    with pytest.raises(ParameterError, match="scale_factor"):
        detect(_band_image(), load_cascade_xml(FIXTURE_XML), DetectParams(scale_factor=math.nan))


def _traced_peak(call):
    """``call()`` and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("step", [10**6, 10**18, 10**19, 10**30])
def test_detect_at_a_step_past_the_image_splits_no_step_squared_phases(step):
    # each scale scans the one window at (0, 0); the scan splits the tables
    # only into the phases its corner offsets touch, never into step**2 of
    # them, and a step past numpy's integer range is no OverflowError
    gray = np.full((48, 64), 50, dtype=np.uint8)
    gray[:24] = 200
    casc = load_cascade_xml(FIXTURE_XML)
    params = DetectParams(step=step, min_neighbors=0)
    boxes, peak = _traced_peak(lambda: detect(gray, casc, params))
    assert boxes == _group_boxes_loop(_scalar_raw_boxes(gray, casc, params), 0)
    assert boxes == [DetectionBox(0, 0, 45, 45, 0.5)]
    assert peak < 256 * 1024


def test_a_640x480_detect_holds_the_integral_tables_once():
    # the int64 tables go as soon as their float64 phases exist, and the scan
    # keeps no index arrays of a scale into the next; the peak (8.6 MB on
    # numpy 2.4) is integral_image's own.  Holding both copies, or the
    # strided int64 scan, peaked at 10.1 MB
    rng = np.random.default_rng(5)
    gray = (120 + rng.uniform(-10, 10, (480, 640))).astype(np.uint8)
    bands = ((40, 40), (300, 200), (500, 380))
    for x, y in bands:
        gray[y:y + 24, x:x + 48] = 210
        gray[y + 24:y + 48, x:x + 48] = 40
    casc = load_cascade_xml(FIXTURE_XML)
    boxes, peak = _traced_peak(lambda: detect(gray, casc))
    assert len(boxes) == len(bands)
    assert all(any(b.x <= x + 24 < b.x + b.w and b.y <= y + 24 < b.y + b.h for b in boxes)
               for x, y in bands)
    assert peak < 9.4e6


def test_detect_deterministic():
    casc = load_cascade_xml(FIXTURE_XML)
    img = _band_image()
    assert detect(img, casc) == detect(img, casc)


# -- grouping ----------------------------------------------------------------------------


# the loop oracle groups above this IoU; group_boxes tests it in integers,
# as 13·inter > 3·(A + B)
IOU_GROUPING_THRESHOLD = 0.3


def iou(a, b) -> float:
    """Intersection-over-union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = a[:4]
    bx, by, bw, bh = b[:4]
    ix = max(0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def test_iou_values():
    assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0
    assert iou((0, 0, 10, 10), (10, 10, 5, 5)) == 0.0
    assert abs(iou((0, 0, 10, 10), (5, 0, 10, 10)) - 50 / 150) < 1e-12


def test_group_boxes_merges_overlaps_and_applies_min_neighbors():
    cluster_a = [DetectionBox(10, 10, 20, 20, 1.0), DetectionBox(12, 10, 20, 20, 3.0),
                 DetectionBox(11, 12, 20, 20, 2.0)]
    lone = DetectionBox(70, 70, 20, 20, 9.0)
    grouped = group_boxes(cluster_a + [lone], min_neighbors=2)
    assert len(grouped) == 1
    g = grouped[0]
    assert (g.x, g.y, g.w, g.h) == (11, 11, 20, 20)
    assert g.score == 3.0  # best member survives
    both = group_boxes(cluster_a + [lone], min_neighbors=1)
    assert len(both) == 2


def test_group_boxes_never_escapes_member_span():
    members = [DetectionBox(0, 0, 10, 10, 1.0), DetectionBox(2, 2, 10, 10, 1.0)]
    (g,) = group_boxes(members, 1)
    assert g.x + g.w <= 12 and g.y + g.h <= 12


def test_group_boxes_joins_the_first_of_two_overlapped_clusters():
    a, b = DetectionBox(0, 0, 10, 10, 1.0), DetectionBox(8, 0, 10, 10, 2.0)
    bridge = DetectionBox(4, 0, 10, 10, 3.0)  # IoU 0.43 with both a and b
    assert iou(a, b) <= IOU_GROUPING_THRESHOLD
    assert group_boxes([a, b, bridge], 1) == [DetectionBox(2, 0, 10, 10, 3.0),
                                              DetectionBox(8, 0, 10, 10, 2.0)]


@pytest.mark.parametrize("seed", range(6))
def test_group_boxes_matches_the_loop(seed):
    rng = SplitMix64(100 + seed)
    boxes = []
    for _ in range(150 + rng.randint(150)):
        side = 4 + rng.randint(20)
        boxes.append(DetectionBox(rng.randint(80), rng.randint(60), side,
                                  side + rng.randint(3), float(rng.normal())))
    for min_neighbors in (0, 1, 3):
        assert group_boxes(boxes, min_neighbors) == _group_boxes_loop(boxes, min_neighbors)
    assert group_boxes([], 1) == []


def _odd_list(kind, rng):
    """Box lists unlike detect's raw boxes, which are one raster per scale,
    each in (y, x) order."""
    def box(x, y, w, h):
        return DetectionBox(x, y, w, h, float(rng.normal()))

    if kind == "duplicates":  # repeated at once and again later
        sides = [6 + 3 * rng.randint(3) for _ in range(120)]
        boxes = [box(2 * rng.randint(12), 3 * rng.randint(8), side, side) for side in sides]
        return [b for b in boxes for _ in range(1 + rng.randint(2))] + boxes[::3]
    if kind == "empty-sides":  # a zero width or height never overlaps anything
        return [box(rng.randint(30), rng.randint(30), rng.randint(12), rng.randint(12))
                for _ in range(250)]
    if kind == "off-raster":  # any corner, any shape, any order
        return [box(rng.randint(90) - 10, rng.randint(70) - 10, 3 + rng.randint(25),
                    3 + rng.randint(25)) for _ in range(250)]
    rasters = [box(x, y, side, side) for side in (7, 8, 10, 13) for y in range(0, 30, 2)
               for x in range(0, 40, 2) if rng.randint(4) == 0]
    if kind == "reversed":
        return rasters[::-1]
    return [rasters[k] for k in np.argsort(rng.uniform(shape=len(rasters)))]


_ODD_LISTS = ["duplicates", "empty-sides", "off-raster", "reversed", "shuffled"]


@pytest.mark.parametrize("kind", _ODD_LISTS)
def test_group_boxes_matches_the_loop_on_odd_lists(kind):
    boxes = _odd_list(kind, SplitMix64(300 + _ODD_LISTS.index(kind)))
    for min_neighbors in (0, 1, 3):
        assert group_boxes(boxes, min_neighbors) == _group_boxes_loop(boxes, min_neighbors)


def test_group_boxes_follows_a_long_chain(monkeypatch):
    # each chain box overlaps only the boxes 4 px either side (IoU 60/140),
    # so the last one's founder is 299 links away; the bridge also overlaps
    # the lead, which founded cluster 0, and joins it
    lead, bridge = DetectionBox(1204, 0, 10, 10, 5.0), DetectionBox(1200, 0, 10, 10, -1.0)
    chain = [DetectionBox(4 * k, 0, 10, 10, float(k % 7)) for k in range(300)]
    expected = [DetectionBox(1202, 0, 10, 10, 5.0), DetectionBox(598, 0, 10, 10, 6.0)]
    for links in (chain, chain[::-1]):
        boxes = [lead, *links, bridge]
        assert _group_boxes_loop(boxes, 1) == expected
        assert group_boxes(boxes, 1) == expected
        monkeypatch.setattr(cascade_module, "_GROUP_CHUNK", 1)
        assert group_boxes(boxes, 1) == expected
        monkeypatch.undo()


@pytest.mark.parametrize("seed", range(3))
def test_group_boxes_in_chunks_of_one_box(monkeypatch, seed):
    raw = _engine_raw_boxes(monkeypatch, _band_image(), load_cascade_xml(FIXTURE_XML),
                            DetectParams(1.1, 2, 24, 1))
    rng = SplitMix64(200 + seed)
    lists = [raw, _odd_list("duplicates", rng), _odd_list("shuffled", rng)]
    monkeypatch.setattr(cascade_module, "_GROUP_CHUNK", 1)
    for boxes in lists:
        assert group_boxes(boxes, 1) == _group_boxes_loop(boxes, 1)


def test_grouping_the_321x240_edge_scene_keeps_its_boxes(monkeypatch):
    # one bright-over-dark edge: 22,774 raw boxes and about 5.7e7 earlier
    # pairs with IoU > 0.3; an IoU row against every earlier box took
    # 3.9-4.3 s to group them, and gave the boxes pinned here
    gray = np.empty((240, 321), np.uint8)
    gray[:120] = 210
    gray[120:] = 40
    raw = _engine_raw_boxes(monkeypatch, gray, load_cascade_xml(FIXTURE_XML), DetectParams())
    per_scale = [group_boxes([b for b in raw if b.w == side], 0)
                 for side in sorted({b.w for b in raw})]
    got = repr((len(raw), group_boxes(raw, 0), per_scale)).encode()
    assert hashlib.sha256(got).hexdigest() == (
        "756f5334222c9e3ca1496302162b0e0b4b7ac162935d13a4617001a6720741e9")


# -- array engine against the scalar oracle -------------------------------------------------
#
# The one-window loop and the box-by-box grouping loop that ``detect`` ran
# before the array engine.  The engine must reproduce their float64 results
# bit for bit: same operations, same order, same raw boxes in raster order.


def _eval_scaled(ii, scaled_stages, x, y, win_w, win_h):
    area = win_w * win_h
    total = rect_sum(ii, (x, y, win_w, win_h))
    total_sq = _squared_sum(ii, (x, y, win_w, win_h))
    mean = total / area
    variance = total_sq / area - mean * mean
    std = math.sqrt(variance) if variance > 0 else 1.0
    norm = std * area

    margin = 0.0
    for stage_rects, stage_threshold in scaled_stages:
        stage_sum = 0.0
        for rects, threshold, left, right in stage_rects:
            value = 0.0
            for rx, ry, rw, rh, weight in rects:
                value += weight * rect_sum(ii, (x + rx, y + ry, rw, rh))
            stage_sum += left if value / norm < threshold else right
        margin = stage_sum - stage_threshold
        if margin < 0:
            return WindowResult(False, margin)
    return WindowResult(True, margin)


def _scalar_raw_boxes(gray, cascade, params):
    ii = integral_image(gray)
    h, w = gray.shape
    raw = []
    scale = max(1.0, params.min_size / cascade.base_width)
    while True:
        win_w = max(1, int(round(cascade.base_width * scale)))
        win_h = max(1, int(round(cascade.base_height * scale)))
        if win_w > w or win_h > h:
            break
        scaled_stages = _scale_rects(cascade, scale)
        for y in range(0, h - win_h + 1, params.step):
            for x in range(0, w - win_w + 1, params.step):
                result = _eval_scaled(ii, scaled_stages, x, y, win_w, win_h)
                if result.accept:
                    raw.append(DetectionBox(x, y, win_w, win_h, result.score))
        scale *= params.scale_factor
    return raw


def _group_boxes_loop(boxes, min_neighbors):
    clusters = []
    for box in boxes:
        for cluster in clusters:
            if any(iou(box, member) > IOU_GROUPING_THRESHOLD for member in cluster):
                cluster.append(box)
                break
        else:
            clusters.append([box])
    grouped = []
    for cluster in clusters:
        if len(cluster) < max(1, min_neighbors):
            continue
        n = len(cluster)
        x = int(round(sum(b.x for b in cluster) / n))
        y = int(round(sum(b.y for b in cluster) / n))
        w = int(round(sum(b.w for b in cluster) / n))
        h = int(round(sum(b.h for b in cluster) / n))
        right = max(b.x + b.w for b in cluster)
        bottom = max(b.y + b.h for b in cluster)
        grouped.append(DetectionBox(x, y, min(w, right - x), min(h, bottom - y),
                                    max(b.score for b in cluster)))
    return grouped


def _random_cascade(rng, n_stages):
    """Stumps anywhere in the base window, edge-touching ones included,
    with 2- and 3-rect features; a stage may be empty or have an infinite
    threshold.  Stump votes are full-precision normals, so summing them in
    another order changes the low bits of a score."""
    base_w, base_h = 5 + rng.randint(10), 5 + rng.randint(10)

    def rect():
        x, y = rng.randint(base_w), rng.randint(base_h)
        w = base_w - x if rng.randint(3) == 0 else 1 + rng.randint(base_w - x)
        h = base_h - y if rng.randint(3) == 0 else 1 + rng.randint(base_h - y)
        return HaarRect(x, y, w, h, float(rng.uniform(-3.0, 3.0)))

    stages = []
    for _ in range(n_stages):
        stumps = tuple(
            WeakClassifier(HaarFeature(tuple(rect() for _ in range(2 + rng.randint(2)))),
                           float(rng.normal(0.0, 0.05)), rng.normal(), rng.normal())
            for _ in range(rng.randint(5)))
        # mid-range thresholds reject about half the windows at each stage
        threshold = sum((wc.left_value + wc.right_value) / 2 for wc in stumps) \
            + float(rng.uniform(0.0, 0.3)) * len(stumps)
        kind = rng.randint(10)
        stages.append(Stage(stumps, math.inf if kind == 0 else -math.inf if kind == 1
                            else threshold))
    return Cascade(base_w, base_h, tuple(stages))


def _random_scene(rng, w, h):
    """Blocks of flat tone, with grain over the top half only, so the
    bottom half holds windows of zero variance."""
    img = np.zeros((h, w))
    for _ in range(8):
        x, y = rng.randint(w), rng.randint(h)
        img[y:y + 4 + rng.randint(h // 2), x:x + 4 + rng.randint(w // 2)] = rng.uniform(0, 255)
    img[:h // 2] += rng.uniform(-30.0, 30.0, shape=(h // 2, w))
    return np.clip(img, 0, 255).astype(np.uint8)


def _engine_raw_boxes(monkeypatch, gray, casc, params):
    seen = []
    monkeypatch.setattr(cascade_module, "group_boxes",
                        lambda boxes, min_neighbors: seen.append(boxes) or [])
    detect(gray, casc, params)
    monkeypatch.undo()
    return seen[0]


# (seed, stages, width, height, step, scale_factor); each seed was picked
# so that its case keeps between 20 and 800 raw boxes, except the empty
# cascade (every window) and the last case (a stage that rejects all)
_ORACLE_CASES = [
    (1, 0, 23, 17, 3, 1.5),
    (106, 1, 97, 61, 1, 1.3),
    (218, 2, 97, 61, 2, 1.1),
    (307, 3, 97, 61, 3, 1.25),
    (407, 4, 97, 61, 1, 1.4),
    (501, 2, 61, 97, 2, 1.2),
    (619, 3, 321, 240, 3, 1.5),
    (705, 4, 64, 48, 1, 1.15),
    (834, 1, 321, 240, 3, 1.45),
    (906, 3, 50, 31, 1, 1.1),
    (1003, 4, 97, 61, 2, 1.35),
    (1112, 2, 37, 53, 1, 1.5),
    (1204, 3, 97, 61, 2, 1.2),
    # thousands of windows reach stage 3 or 4, whose gathers read phases of
    # unequal widths: 49 and 48 at step 2, 33, 33 and 32 at step 3
    (1429, 4, 96, 61, 2, 1.2),
    (1508, 3, 97, 61, 3, 1.2),
    # a first-stage rect that is the whole window, whose sum the scan reuses
    (1777, 2, 97, 61, 2, 1.25),
]


def _oracle_case(seed, n_stages, width, height, step, factor):
    rng = SplitMix64(seed)
    casc = _random_cascade(rng, n_stages)
    gray = _random_scene(rng, width, height)
    params = DetectParams(scale_factor=factor, step=step,
                          min_size=max(casc.base_width, min(width, height) // 8),
                          min_neighbors=1 + rng.randint(3))
    return casc, gray, params


@pytest.mark.parametrize("case", _ORACLE_CASES, ids=lambda case: f"seed{case[0]}")
def test_engine_matches_scalar_oracle(monkeypatch, case):
    casc, gray, params = _oracle_case(*case)
    expected = _scalar_raw_boxes(gray, casc, params)
    assert expected or any(s.stage_threshold == math.inf for s in casc.stages)
    assert _engine_raw_boxes(monkeypatch, gray, casc, params) == expected
    grouped = _group_boxes_loop(expected, params.min_neighbors)
    grouped.sort(key=lambda b: (-b.score, b.y, b.x, b.w, b.h))
    assert detect(gray, casc, params) == grouped


def test_oracle_cases_cover_the_edge_cases():
    cases = [_oracle_case(*case) for case in _ORACLE_CASES]
    stages = [s for casc, _, _ in cases for s in casc.stages]
    rects = [(casc, r) for casc, _, _ in cases for s in casc.stages
             for wc in s.weak_classifiers for r in wc.feature.rects]
    assert {len(casc.stages) for casc, _, _ in cases} == {0, 1, 2, 3, 4}
    assert any(not s.weak_classifiers for s in stages)
    assert {math.inf, -math.inf} <= {s.stage_threshold for s in stages}
    assert {2, 3} <= {len(wc.feature.rects) for s in stages for wc in s.weak_classifiers}
    assert any(r.x + r.w == casc.base_width for casc, r in rects)
    assert any(r.y + r.h == casc.base_height for casc, r in rects)
    assert {case[4] for case in _ORACLE_CASES} == {1, 2, 3}
    assert any(r == HaarRect(0, 0, casc.base_width, casc.base_height, r.weight)
               for casc, _, _ in cases if casc.stages
               for wc in casc.stages[0].weak_classifiers for r in wc.feature.rects)
    assert any((width + 1) % step
               for _, stages, width, height, step, _ in _ORACLE_CASES if stages >= 3)
    flat = 0
    for casc, gray, _ in cases:
        windows = np.lib.stride_tricks.sliding_window_view(
            gray, (casc.base_height, casc.base_width))
        flat += int((windows.min(axis=(2, 3)) == windows.max(axis=(2, 3))).sum())
    assert flat > 0  # windows of zero variance, which count as std 1


@pytest.mark.parametrize("seed", range(4))
def test_eval_window_matches_scalar_oracle(seed):
    rng = SplitMix64(50 + seed)
    casc = _random_cascade(rng, 1 + rng.randint(4))
    gray = _random_scene(rng, 71, 59)
    ii = integral_image(gray)
    for _ in range(150):
        scale = float(rng.uniform(1.0, 3.0))
        win_w = max(1, round(casc.base_width * scale))
        win_h = max(1, round(casc.base_height * scale))
        if win_w > 71 or win_h > 59:
            continue
        x, y = rng.randint(71 - win_w + 1), rng.randint(59 - win_h + 1)
        expected = _eval_scaled(ii, _scale_rects(casc, scale), x, y, win_w, win_h)
        assert eval_window(ii, casc, (x, y), scale) == expected



def test_stump_threshold_at_the_exact_feature_value_votes_right():
    # the value is summed rect by rect in cascade order; summed in another
    # order it moves by an ulp in some of these windows and the vote flips
    rng = SplitMix64(77)
    ii = integral_image(_random_scene(rng, 40, 40))
    for _ in range(60):
        rects = tuple(HaarRect(rng.randint(8), rng.randint(8), 1 + rng.randint(8),
                               1 + rng.randint(8), rng.normal()) for _ in range(3))
        x, y = rng.randint(25), rng.randint(25)
        probe = Cascade(16, 16, (Stage((WeakClassifier(HaarFeature(rects), 0.0, 0.0, 0.0),),
                                       0.0),))
        scaled = _scale_rects(probe, 1.0)[0][0][0][0]  # the one stump's rects
        mean = rect_sum(ii, (x, y, 16, 16)) / 256
        variance = _squared_sum(ii, (x, y, 16, 16)) / 256 - mean * mean
        value = 0.0
        for rx, ry, rw, rh, weight in scaled:
            value += weight * rect_sum(ii, (x + rx, y + ry, rw, rh))
        threshold = value / ((math.sqrt(variance) if variance > 0 else 1.0) * 256)
        casc = Cascade(16, 16, (Stage((WeakClassifier(HaarFeature(rects), threshold, -1.0, 1.0),),
                                      0.0),))
        assert eval_window(ii, casc, (x, y), 1.0) == WindowResult(True, 1.0)

# -- XML import --------------------------------------------------------------------------


def test_fixture_xml_structure():
    casc = load_cascade_xml(FIXTURE_XML)
    assert (casc.base_width, casc.base_height) == (24, 24)
    assert len(casc.stages) == 2
    assert [len(s.weak_classifiers) for s in casc.stages] == [1, 2]
    assert [s.stage_threshold for s in casc.stages] == [0.5, 1.5]
    first = casc.stages[0].weak_classifiers[0]
    assert first.threshold == 0.8
    assert (first.left_value, first.right_value) == (-1.0, 1.0)
    assert first.feature.rects == (
        HaarRect(0, 0, 24, 24, -1.0),
        HaarRect(0, 0, 24, 12, 2.0),
    )
    # the two symmetry stumps watch opposite halves of the window
    left_check, right_check = casc.stages[1].weak_classifiers
    assert left_check.feature.rects[1] == HaarRect(0, 0, 12, 24, 2.0)
    assert right_check.feature.rects[1] == HaarRect(12, 0, 12, 24, 2.0)
    # canonical patterns balance weighted areas to zero
    for stage in casc.stages:
        for wc in stage.weak_classifiers:
            assert sum(r.w * r.h * r.weight for r in wc.feature.rects) == 0


def test_xml_three_rect_feature_parses(tmp_path):
    p = _write_xml(tmp_path, """<?xml version="1.0"?>
<opencv_storage>
<c type_id="opencv-haar-classifier">
  <size>24 24</size>
  <stages>
    <_><trees><_><_>
      <feature><rects>
        <_>0 0 24 24 -1.</_>
        <_>8 0 8 24 3.</_>
        <_>0 0 2 2 1.5</_>
      </rects><tilted>0</tilted></feature>
      <threshold>0.</threshold><left_val>-1.</left_val><right_val>1.</right_val>
    </_></_></trees><stage_threshold>0.</stage_threshold></_>
  </stages>
</c>
</opencv_storage>
""")
    casc = load_cascade_xml(p)
    rects = casc.stages[0].weak_classifiers[0].feature.rects
    assert len(rects) == 3
    assert rects[2] == HaarRect(0, 0, 2, 2, 1.5)


def _write_xml(tmp_path, body):
    p = tmp_path / "c.xml"
    p.write_text(body, encoding="utf-8")
    return p


def test_xml_empty_stages_is_vacuous_cascade(tmp_path):
    p = _write_xml(tmp_path, """<?xml version="1.0"?>
<opencv_storage>
<c type_id="opencv-haar-classifier">
  <size>24 24</size>
  <stages></stages>
</c>
</opencv_storage>
""")
    casc = load_cascade_xml(p)
    assert casc.stages == ()
    ii = integral_image(np.zeros((24, 24), dtype=np.uint8))
    assert eval_window(ii, casc, (0, 0), 1.0).accept


def test_xml_rejects_out_of_window_rect(tmp_path):
    p = _write_xml(tmp_path, """<?xml version="1.0"?>
<opencv_storage>
<c type_id="opencv-haar-classifier">
  <size>24 24</size>
  <stages>
    <_><trees><_><_>
      <feature><rects><_>0 0 25 24 -1.</_><_>0 0 12 24 2.</_></rects><tilted>0</tilted></feature>
      <threshold>0.</threshold><left_val>-1.</left_val><right_val>1.</right_val>
    </_></_></trees><stage_threshold>0.</stage_threshold></_>
  </stages>
</c>
</opencv_storage>
""")
    with pytest.raises(CascadeFormatError, match=r"rects/_\[0\]"):
        load_cascade_xml(p)


def test_xml_rejects_tilted_and_deep_trees(tmp_path):
    tilted = _write_xml(tmp_path, """<?xml version="1.0"?>
<opencv_storage>
<c type_id="opencv-haar-classifier">
  <size>24 24</size>
  <stages>
    <_><trees><_><_>
      <feature><rects><_>0 0 12 24 -1.</_><_>0 0 12 12 2.</_></rects><tilted>1</tilted></feature>
      <threshold>0.</threshold><left_val>-1.</left_val><right_val>1.</right_val>
    </_></_></trees><stage_threshold>0.</stage_threshold></_>
  </stages>
</c>
</opencv_storage>
""")
    with pytest.raises(CascadeFormatError, match="tilted"):
        load_cascade_xml(tilted)

    deep = _write_xml(tmp_path, """<?xml version="1.0"?>
<opencv_storage>
<c type_id="opencv-haar-classifier">
  <size>24 24</size>
  <stages>
    <_><trees><_>
      <_>
        <feature><rects><_>0 0 12 24 -1.</_><_>0 0 12 12 2.</_></rects><tilted>0</tilted></feature>
        <threshold>0.</threshold><left_val>-1.</left_val><right_val>1.</right_val>
      </_>
      <_>
        <feature><rects><_>0 0 12 24 -1.</_><_>0 0 12 12 2.</_></rects><tilted>0</tilted></feature>
        <threshold>0.</threshold><left_val>-1.</left_val><right_val>1.</right_val>
      </_>
    </_></trees><stage_threshold>0.</stage_threshold></_>
  </stages>
</c>
</opencv_storage>
""")
    with pytest.raises(CascadeFormatError, match="stump"):
        load_cascade_xml(deep)


def test_xml_malformed_document(tmp_path):
    p = _write_xml(tmp_path, "<opencv_storage><unclosed>")
    with pytest.raises(CascadeFormatError, match="parse"):
        load_cascade_xml(p)
    q = _write_xml(tmp_path, "<not_storage></not_storage>")
    with pytest.raises(CascadeFormatError, match="opencv_storage"):
        load_cascade_xml(q)


@pytest.mark.parametrize("size", ["--4 24", "\u00b2 24", "2" * 5000 + " 24"],
                         ids=["double-minus", "superscript", "5000-digits"])
def test_xml_unreadable_size_is_a_format_error(tmp_path, size):
    text = FIXTURE_XML.read_text().replace("<size>24 24</size>", f"<size>{size}</size>")
    with pytest.raises(CascadeFormatError, match="/size"):
        load_cascade_xml(_write_xml(tmp_path, text))


@pytest.mark.parametrize("encoding", ["bogus", "utf-32", "rot13", "punycode"])
def test_xml_declared_encoding_it_cannot_read_is_a_format_error(tmp_path, encoding):
    text = FIXTURE_XML.read_text().replace('version="1.0"',
                                           f'version="1.0" encoding="{encoding}"')
    with pytest.raises(CascadeFormatError, match="cannot parse XML"):
        load_cascade_xml(_write_xml(tmp_path, text))


# -- JSON format --------------------------------------------------------------------------


def test_json_roundtrip_structural_identity(tmp_path):
    casc = load_cascade_xml(FIXTURE_XML)
    p = tmp_path / "c.json"
    save_cascade_json(casc, p)
    back = load_cascade_json(p)
    assert back == casc


def test_json_and_xml_detect_identically(tmp_path):
    xml_casc = load_cascade_xml(FIXTURE_XML)
    p = tmp_path / "c.json"
    save_cascade_json(xml_casc, p)
    json_casc = load_cascade_json(p)
    img = _band_image()
    assert detect(img, xml_casc) == detect(img, json_casc)


# sha256 of the bytes save_cascade_json writes: a saved cascade is a file
# format, so a change to these bytes is a change of format
@pytest.mark.parametrize("build,rect_counts,digest", [
    (lambda: load_cascade_xml(FIXTURE_XML), {2},
     "ee21bec4892cfdf3e0b89ec22bdaab3927e5504eba586f7d5dc3982eee737e28"),
    (lambda: _random_cascade(SplitMix64(14), 8), {2, 3},
     "c7fc1d110bbea378cd8cfaabf083d334dcd382dd92237fb434832f7c73a32dc4"),
], ids=["xml-fixture", "generated"])
def test_saved_json_bytes_are_pinned(tmp_path, build, rect_counts, digest):
    casc = build()
    assert all(math.isfinite(s.stage_threshold) for s in casc.stages)
    assert {len(wc.feature.rects) for s in casc.stages for wc in s.weak_classifiers} \
        == rect_counts
    p = tmp_path / "c.json"
    save_cascade_json(casc, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == digest


def _int_and_float_cascades():
    """One cascade with integer numbers, small and past int64, and its twin
    with each number as a float; every integer here is exact as a float."""
    def build(num):
        feature = HaarFeature((HaarRect(0, 0, 24, 24, num(-1)), HaarRect(0, 0, 24, 12, num(2))))
        return Cascade(24, 24, (
            Stage((WeakClassifier(feature, num(1), num(-1), num(1)),), num(0)),
            Stage((WeakClassifier(feature, num(0), num(-1), num(10**20)),), num(1)),
        ))
    return build(int), build(float)


def _box_bytes(boxes):
    return [(b.x, b.y, b.w, b.h, np.float64(b.score).tobytes()) for b in boxes]


def test_integer_cascade_numbers_detect_like_their_float_twins(tmp_path):
    ints, floats = _int_and_float_cascades()
    img = _band_image()
    expected = _box_bytes(detect(img, floats, DetectParams(min_neighbors=1)))
    assert expected
    assert _box_bytes(detect(img, ints, DetectParams(min_neighbors=1))) == expected
    p = tmp_path / "ints.json"
    save_cascade_json(ints, p)
    assert '"right_value": 100000000000000000000' in p.read_text()
    assert _box_bytes(detect(img, load_cascade_json(p), DetectParams(min_neighbors=1))) \
        == expected


def test_json_missing_stage_threshold_pointer(tmp_path):
    doc = {
        "base_window": [24, 24],
        "stages": [{"weak_classifiers": []}],
    }
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(CascadeFormatError, match=rf"{p}: stages\[0\]\.stage_threshold: "):
        load_cascade_json(p)


def test_json_cascade_not_utf8_is_a_format_error(tmp_path):
    p = tmp_path / "c.json"
    p.write_bytes(b"\xff\xfe{}")
    with pytest.raises(CascadeFormatError, match="not valid JSON"):
        load_cascade_json(p)


def test_json_schema_violations_report_pointers(tmp_path):
    p = tmp_path / "c.json"

    p.write_text("[]")
    with pytest.raises(CascadeFormatError, match=f"{p}: config: expected an object"):
        load_cascade_json(p)

    p.write_text(json.dumps({"stages": []}))
    with pytest.raises(CascadeFormatError, match=f"{p}: base_window: "):
        load_cascade_json(p)

    p.write_text(json.dumps({"base_window": [24, 0], "stages": []}))
    with pytest.raises(CascadeFormatError, match=f"{p}: base_window: "):
        load_cascade_json(p)

    bad_rect = {
        "base_window": [24, 24],
        "stages": [{
            "stage_threshold": 0.0,
            "weak_classifiers": [{
                "feature": {"rects": [
                    {"x": 0, "y": 0, "w": 30, "h": 24, "weight": -1.0},
                    {"x": 0, "y": 0, "w": 12, "h": 24, "weight": 2.0},
                ]},
                "threshold": 0.0, "left_value": -1.0, "right_value": 1.0,
            }],
        }],
    }
    p.write_text(json.dumps(bad_rect))
    with pytest.raises(CascadeFormatError,
                       match=rf"{p}: stages\[0\]\.weak_classifiers\[0\]\.feature\.rects\[0\]: "):
        load_cascade_json(p)

    p.write_text("{nope")
    with pytest.raises(CascadeFormatError, match="JSON"):
        load_cascade_json(p)


@pytest.mark.parametrize("text,match", [
    ('{"base_window": [' + "1" * 5000 + ', 24], "stages": []}', "not valid JSON"),
    ("[" * 100000 + "]" * 100000, "not valid JSON"),
    ('{"base_window": [24, 24], "stages": [{"stage_threshold": 1' + "0" * 400
     + ', "weak_classifiers": []}]}', r"stages\[0\]\.stage_threshold: number out of range"),
], ids=["5000-digit-int", "deep-nesting", "int-past-float-range"])
def test_json_numbers_and_nesting_past_the_parser_are_format_errors(tmp_path, text, match):
    p = tmp_path / "c.json"
    p.write_text(text)
    with pytest.raises(CascadeFormatError, match=match):
        load_cascade_json(p)


def test_json_unknown_key_is_refused_by_its_dotted_path(tmp_path):
    p = tmp_path / "c.json"
    save_cascade_json(_two_rect_cascade(), p)
    doc = json.loads(p.read_text())
    doc["stages"][0]["weak_classifiers"][0]["feature"]["tilted"] = 0
    p.write_text(json.dumps(doc))
    with pytest.raises(CascadeFormatError, match=rf"^{p}: unknown config key: "
                       r"stages\[0\]\.weak_classifiers\[0\]\.feature\.tilted$"):
        load_cascade_json(p)


def test_json_error_quotes_a_bounded_part_of_a_large_value(tmp_path):
    p = tmp_path / "c.json"
    save_cascade_json(load_cascade_xml(FIXTURE_XML), p)
    doc = json.loads(p.read_text())
    doc["stages"] = {"all": doc["stages"] * 200}  # about 130 KB where a list belongs
    p.write_text(json.dumps(doc))
    with pytest.raises(CascadeFormatError, match=f"^{p}: stages: expected a list, got ") as info:
        load_cascade_json(p)
    assert len(str(info.value)) < len(str(p)) + 100


def test_cascade_validate_catches_bad_structures():
    rect = HaarRect(0, 0, 30, 24, -1.0)
    casc = Cascade(24, 24, (Stage((WeakClassifier(HaarFeature((rect, rect)), 0, -1, 1),), 0.0),))
    with pytest.raises(CascadeFormatError, match="outside"):
        casc.validate()
    single = HaarRect(0, 0, 12, 12, 1.0)
    casc2 = Cascade(24, 24, (Stage((WeakClassifier(HaarFeature((single,)), 0, -1, 1),), 0.0),))
    with pytest.raises(CascadeFormatError, match="2 or 3"):
        casc2.validate()


# -- the rules every cascade meets, whatever its file format -------------------------------


def _json_doc(tmp_path):
    """The two-rect cascade as a JSON document, to mutate before loading."""
    p = tmp_path / "c.json"
    save_cascade_json(_two_rect_cascade(), p)
    return json.loads(p.read_text())


def _wc(doc):
    return doc["stages"][0]["weak_classifiers"][0]


@pytest.mark.parametrize("mutate,node", [
    (lambda d: d["stages"][0].update(stage_threshold=math.nan), r"stages\[0\]\.stage_threshold"),
    (lambda d: _wc(d).update(threshold=math.nan),
     r"stages\[0\]\.weak_classifiers\[0\]\.threshold"),
    (lambda d: _wc(d).update(left_value=math.inf, right_value=-math.inf),
     r"stages\[0\]\.weak_classifiers\[0\]\.left_value"),
    (lambda d: _wc(d).update(right_value=math.nan),
     r"stages\[0\]\.weak_classifiers\[0\]\.right_value"),
    (lambda d: _wc(d)["feature"]["rects"][1].update(weight=-math.inf),
     r"stages\[0\]\.weak_classifiers\[0\]\.feature\.rects\[1\]\.weight"),
    (lambda d: d.update(base_window=[10**400, 24]), r"base_window\[0\]"),
    (lambda d: d.update(base_window=[24, cascade_module.MAX_BASE_WINDOW + 1]), "base_window"),
], ids=["nan-stage-threshold", "nan-stump-threshold", "infinite-votes", "nan-vote",
        "infinite-weight", "400-digit-window", "window-past-the-bound"])
def test_json_cascade_rules_name_the_node(tmp_path, mutate, node):
    doc = _json_doc(tmp_path)
    mutate(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))  # json writes NaN and Infinity literals
    with pytest.raises(CascadeFormatError, match=f"{p}: {node}: "):
        load_cascade_json(p)


def test_json_stage_threshold_must_be_finite_on_load_and_save(tmp_path):
    doc = _json_doc(tmp_path)
    p, q = tmp_path / "c.json", tmp_path / "saved.json"
    for threshold in (math.inf, -math.inf):
        # JSON numbers are finite, like those of every JSON file the codec reads
        doc["stages"][0]["stage_threshold"] = threshold
        p.write_text(json.dumps(doc))
        with pytest.raises(CascadeFormatError, match=rf"{p}: stages\[0\]\.stage_threshold: "):
            load_cascade_json(p)
        # valid in code (and from XML), but no JSON file holds it
        stage = _two_rect_cascade().stages[0]
        casc = Cascade(24, 24, (Stage(stage.weak_classifiers, threshold),))
        casc.validate()
        with pytest.raises(CascadeFormatError, match=rf"{q}: stages\[0\]\.stage_threshold: "):
            save_cascade_json(casc, q)
        assert not q.exists()
    # NaN would pass every window: the stage test ``margin < 0`` is false for it
    doc["stages"][0]["stage_threshold"] = math.nan
    p.write_text(json.dumps(doc))
    with pytest.raises(CascadeFormatError, match=rf"{p}: stages\[0\]\.stage_threshold: "):
        load_cascade_json(p)


@pytest.mark.parametrize("old,new,path", [
    ("<stage_threshold>0.5</stage_threshold>", "<stage_threshold>nan</stage_threshold>",
     r"/stages/_\[0\]/stage_threshold"),
    ("<threshold>0.8</threshold>", "<threshold>nan</threshold>",
     r"/stages/_\[0\]/trees/_\[0\]/_\[0\]/threshold"),
    ("<left_val>-1.0</left_val>", "<left_val>-inf</left_val>",
     r"/stages/_\[0\]/trees/_\[0\]/_\[0\]/left_val"),
    ("<_>0 0 24 12 2.</_>", "<_>0 0 24 12 inf</_>",
     r"/stages/_\[0\]/trees/_\[0\]/_\[0\]/feature/rects/_\[1\]"),
    ("<size>24 24</size>", "<size>" + "9" * 400 + " 24</size>", "/size"),
], ids=["nan-stage-threshold", "nan-stump-threshold", "infinite-vote", "infinite-weight",
        "400-digit-size"])
def test_xml_cascade_rules_name_the_node(tmp_path, old, new, path):
    text = FIXTURE_XML.read_text()
    assert old in text
    with pytest.raises(CascadeFormatError, match="^/opencv_storage/band_face" + path + ": "):
        load_cascade_xml(_write_xml(tmp_path, text.replace(old, new, 1)))


def test_detect_refuses_a_programmatic_cascade_that_breaks_a_rule():
    feature = _two_rect_cascade().stages[0].weak_classifiers[0].feature
    nan_stage = Cascade(24, 24, (Stage((WeakClassifier(feature, 0.5, -1.0, 1.0),), math.nan),))
    with pytest.raises(CascadeFormatError, match=r"^stages\[0\]\.stage_threshold: "):
        detect(_band_image(), nan_stage)
    # inf + -inf votes sum to NaN, which no stage threshold rejects
    votes = Stage((WeakClassifier(feature, 0.5, math.inf, math.inf),
                   WeakClassifier(feature, 0.5, -math.inf, -math.inf)), 1e9)
    with pytest.raises(CascadeFormatError,
                       match=r"^stages\[0\]\.weak_classifiers\[0\]\.left_value: "):
        detect(np.zeros((48, 48), np.uint8), Cascade(24, 24, (votes,)))


@pytest.mark.parametrize("field,node", [
    ("stage_threshold", r"stages\[0\]\.stage_threshold"),
    ("threshold", r"stages\[0\]\.weak_classifiers\[0\]\.threshold"),
    ("left_value", r"stages\[0\]\.weak_classifiers\[0\]\.left_value"),
    ("weight", r"stages\[0\]\.weak_classifiers\[0\]\.feature\.rects\[1\]"),
], ids=["stage-threshold", "stump-threshold", "left-value", "rect-weight"])
def test_detect_refuses_a_programmatic_number_past_the_float_range(field, node):
    huge = 10**400  # float(huge) raises OverflowError
    rects = (HaarRect(0, 0, 24, 12, -1.0),
             HaarRect(0, 12, 24, 12, huge if field == "weight" else 2.0))
    wc = WeakClassifier(HaarFeature(rects), huge if field == "threshold" else 0.5,
                        huge if field == "left_value" else -1.0, 1.0)
    stage = Stage((wc,), huge if field == "stage_threshold" else 0.0)
    with pytest.raises(CascadeFormatError, match=f"^{node}: number out of range$"):
        detect(np.zeros((48, 48), np.uint8), Cascade(24, 24, (stage,)))
