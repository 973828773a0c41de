"""Tests for dataset scanning/splitting, the PPM codec, resize/normalize,
augmentation, batching, and the synthetic corpus generator."""

import json
import math
import os
import time

import numpy as np
import pytest

from maskdetect.data import (
    AugmentConfig,
    DatasetIndex,
    Label,
    LABEL_NAMES,
    Sample,
    apply_split_manifest,
    augment,
    batches,
    load_ppm,
    load_split_manifest,
    normalize,
    resize_bilinear,
    save_ppm,
    save_split_manifest,
    scan_dataset,
    split_dataset,
    synth_dataset,
    _warp,
)
from maskdetect.errors import (
    ConfigError,
    InputError,
    ParameterError,
    PPMError,
    UsageError,
)
from maskdetect.rng import SplitMix64


def random_image(rng, h, w):
    return (rng.uniform(0.0, 256.0, shape=(h, w, 3)) % 256).astype(np.uint8)


# ---------------------------------------------------------------------------
# reference implementations (independent oracles)
# ---------------------------------------------------------------------------


def resize_bilinear_ref(image, out_w, out_h):
    """Direct per-pixel evaluation of the half-pixel-center formula."""
    in_h, in_w = image.shape[:2]
    out = np.zeros((out_h, out_w, 3), dtype=np.uint8)
    for y in range(out_h):
        sy = min(max((y + 0.5) * (in_h / out_h) - 0.5, 0.0), in_h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, in_h - 1)
        wy = sy - y0
        for x in range(out_w):
            sx = min(max((x + 0.5) * (in_w / out_w) - 0.5, 0.0), in_w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, in_w - 1)
            wx = sx - x0
            for c in range(3):
                v = (
                    (1 - wy) * (1 - wx) * float(image[y0, x0, c])
                    + (1 - wy) * wx * float(image[y0, x1, c])
                    + wy * (1 - wx) * float(image[y1, x0, c])
                    + wy * wx * float(image[y1, x1, c])
                )
                out[y, x, c] = min(255, max(0, int(math.floor(v + 0.5))))
    return out


def augment_ref(image, angle, zoom, offsets, dy, dx):
    """Per-pixel float64 reference: sample the composed inverse map
    ``c + R(angle)((p - d - c) / zoom)`` once, bilinearly over a one-pixel
    zero border on every side, add the offsets where ``p - d`` is in the
    frame, round once."""
    h, w = image.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    cos_a, sin_a = math.cos(math.radians(angle)), math.sin(math.radians(angle))

    def px(y, x, c):  # the image, 0 outside it
        return float(image[y, x, c]) if 0 <= y < h and 0 <= x < w else 0.0

    out = np.zeros((h, w, 3), dtype=np.uint8)
    for y in range(h):
        for x in range(w):
            qy, qx = (y - dy - cy) / zoom, (x - dx - cx) / zoom
            sy = cy - sin_a * qx + cos_a * qy
            sx = cx + cos_a * qx + sin_a * qy
            framed = 0 <= y - dy < h and 0 <= x - dx < w
            for c in range(3):
                value = 0.0
                if -1.0 < sy < h and -1.0 < sx < w:
                    y0, x0 = math.floor(sy), math.floor(sx)
                    wy, wx = sy - y0, sx - x0
                    value = (1 - wy) * ((1 - wx) * px(y0, x0, c) + wx * px(y0, x0 + 1, c)) \
                        + wy * ((1 - wx) * px(y0 + 1, x0, c) + wx * px(y0 + 1, x0 + 1, c))
                if framed:
                    value += offsets[c]
                out[y, x, c] = min(max(math.floor(value + 0.5), 0), 255)
    return out


def knn3_accuracy(train_x, train_y, test_x, test_y):
    """3-nearest-neighbor accuracy on flattened pixel vectors."""
    correct = 0
    for vec, want in zip(test_x, test_y):
        d2 = np.sum((train_x - vec[None, :]) ** 2, axis=1)
        nearest = np.argsort(d2)[:3]
        votes = np.bincount(train_y[nearest], minlength=3)
        if int(np.argmax(votes)) == want:
            correct += 1
    return correct / len(test_y)


# ---------------------------------------------------------------------------
# PPM codec
# ---------------------------------------------------------------------------


def test_ppm_roundtrip_bit_exact(tmp_path):
    rng = SplitMix64(11)
    for k in range(20):
        h = 1 + rng.randint(40)
        w = 1 + rng.randint(40)
        image = random_image(rng, h, w)
        path = tmp_path / f"img_{k}.ppm"
        save_ppm(image, path)
        again = load_ppm(path)
        assert again.dtype == np.uint8
        assert np.array_equal(again, image)


def test_ppm_save_exact_bytes(tmp_path):
    image = np.array([[[255, 0, 0], [0, 0, 255]]], dtype=np.uint8)
    path = tmp_path / "two.ppm"
    save_ppm(image, path)
    assert path.read_bytes() == b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255])


def test_ppm_hand_authored_fixture(tmp_path):
    # hand-written stream: 2x1, red pixel then blue pixel
    path = tmp_path / "hand.ppm"
    path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 255]))
    image = load_ppm(path)
    assert image.shape == (1, 2, 3)
    assert tuple(image[0, 0]) == (255, 0, 0)
    assert tuple(image[0, 1]) == (0, 0, 255)


def test_ppm_header_comments_ok(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n1 1\n# another\n255\n" + bytes([9, 8, 7]))
    image = load_ppm(path)
    assert tuple(image[0, 0]) == (9, 8, 7)


def test_ppm_wrong_magic(tmp_path):
    path = tmp_path / "p5.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(PPMError, match="byte 0"):
        load_ppm(path)


def test_ppm_bad_maxval_reports_offset(tmp_path):
    path = tmp_path / "m.ppm"
    path.write_bytes(b"P6\n2 1\n256\n" + bytes(6))
    # maxval token starts right after "P6\n2 1\n" == 7 bytes
    with pytest.raises(PPMError, match="byte 7"):
        load_ppm(path)


def test_ppm_truncated_raster_reports_offset(tmp_path):
    path = tmp_path / "t.ppm"
    data = b"P6\n2 2\n255\n" + bytes(5)  # needs 12 raster bytes
    path.write_bytes(data)
    with pytest.raises(PPMError, match=f"byte {len(data)}"):
        load_ppm(path)


def test_ppm_header_ends_early(tmp_path):
    path = tmp_path / "e.ppm"
    path.write_bytes(b"P6\n2")
    with pytest.raises(PPMError, match="ended early"):
        load_ppm(path)


def test_ppm_non_numeric_dimension(tmp_path):
    path = tmp_path / "x.ppm"
    path.write_bytes(b"P6\nab 1\n255\n")
    with pytest.raises(PPMError, match="width"):
        load_ppm(path)


@pytest.mark.parametrize("header", [
    b"P6\n" + b"9" * 5000 + b" 1\n255\n",  # width past int()'s digit limit
    b"P6\n1 1\n" + b"9" * 5000 + b"\n",  # maxval past int()'s digit limit
], ids=["width", "maxval"])
def test_ppm_overlong_number_is_a_ppm_error(tmp_path, header):
    path = tmp_path / "n.ppm"
    path.write_bytes(header + bytes(3))
    with pytest.raises(PPMError, match="expected"):
        load_ppm(path)


@pytest.mark.parametrize("header, message", [
    (b"P6\n" + b"9" * 4_000_000 + b"x 1\n255\n", "expected width at byte 3"),
    (b"P6\n# " + b"c" * 4_000_000 + b"\n1 1\n", "header ended early"),
], ids=["4mb-token", "4mb-comment"])
def test_ppm_long_header_is_refused_quickly_in_bounded_form(tmp_path, header, message):
    path = tmp_path / "h.ppm"
    path.write_bytes(header)
    started = time.perf_counter()
    with pytest.raises(PPMError, match=message) as info:
        load_ppm(path)
    assert time.perf_counter() - started < 0.5
    assert len(str(info.value)) < 500


def test_save_ppm_rejects_bad_input(tmp_path):
    with pytest.raises(InputError):
        save_ppm(np.zeros((4, 4), dtype=np.uint8), tmp_path / "bad.ppm")
    with pytest.raises(InputError):
        save_ppm(np.zeros((4, 4, 3), dtype=np.float32), tmp_path / "bad.ppm")


# ---------------------------------------------------------------------------
# resize
# ---------------------------------------------------------------------------


def test_resize_2x2_to_4x4_hand_oracle():
    # channel-constant 2x2 input, every output evaluated by hand from the
    # mapping src=(dst+0.5)*scale-0.5 with edge clamping
    base = np.array([[0, 100], [200, 40]], dtype=np.uint8)
    image = np.stack([base] * 3, axis=2)
    want = np.array(
        [
            [0, 25, 75, 100],
            [50, 59, 76, 85],
            [150, 126, 79, 55],
            [200, 160, 80, 40],
        ],
        dtype=np.uint8,
    )
    out = resize_bilinear(image, 4, 4)
    for c in range(3):
        assert np.array_equal(out[:, :, c], want)


def test_resize_matches_reference_loop():
    rng = SplitMix64(23)
    for _ in range(12):
        h = 2 + rng.randint(9)
        w = 2 + rng.randint(9)
        image = random_image(rng, h, w)
        out_w = 1 + rng.randint(14)
        out_h = 1 + rng.randint(14)
        got = resize_bilinear(image, out_w, out_h)
        want = resize_bilinear_ref(image, out_w, out_h)
        assert np.array_equal(got, want), (h, w, out_h, out_w)


def test_resize_constant_stays_constant():
    rng = SplitMix64(5)
    for _ in range(10):
        value = rng.randint(256)
        image = np.full((7, 5, 3), value, dtype=np.uint8)
        out = resize_bilinear(image, 1 + rng.randint(20), 1 + rng.randint(20))
        assert np.all(out == value)


def test_resize_identity_is_bit_exact():
    rng = SplitMix64(6)
    for _ in range(10):
        h = 1 + rng.randint(16)
        w = 1 + rng.randint(16)
        image = random_image(rng, h, w)
        assert np.array_equal(resize_bilinear(image, w, h), image)


def test_resize_validates_output_size():
    image = np.zeros((4, 4, 3), dtype=np.uint8)
    with pytest.raises(ParameterError):
        resize_bilinear(image, 0, 4)
    with pytest.raises(ParameterError):
        resize_bilinear(image, 4, -1)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_endpoints_and_midpoint():
    image = np.zeros((1, 3, 3), dtype=np.uint8)
    image[0, 0] = 0
    image[0, 1] = 255
    image[0, 2] = 127
    out = normalize(image)
    assert out.dtype == np.float32
    assert out.shape == (3, 1, 3)
    assert abs(float(out.data[0, 0, 0]) + 1.0) < 1e-7
    assert abs(float(out.data[0, 0, 1]) - 1.0) < 1e-7
    assert abs(float(out.data[0, 0, 2]) - (127 / 127.5 - 1.0)) < 1e-7
    assert abs(float(out.data[0, 0, 2]) + 0.0039) < 1e-4


def test_normalize_layout_is_channel_first():
    rng = SplitMix64(7)
    image = random_image(rng, 5, 4)
    out = normalize(image).data
    want = image.astype(np.float32).transpose(2, 0, 1) / 127.5 - 1.0
    assert np.allclose(out, want, atol=1e-7)


def test_normalize_bounds_and_monotonicity():
    ramp = np.arange(256, dtype=np.uint8).reshape(16, 16)
    image = np.stack([ramp] * 3, axis=2)
    out = normalize(image).data
    assert out.min() >= -1.0 and out.max() <= 1.0
    flat = out[0].reshape(-1)
    assert np.all(np.diff(flat) > 0)  # strictly monotone in pixel value


# ---------------------------------------------------------------------------
# augmentation transforms
# ---------------------------------------------------------------------------


def test_rotate_zero_angle_identity():
    rng = SplitMix64(9)
    image = random_image(rng, 11, 13)
    assert np.array_equal(_warp(image, angle_deg=0.0), image)


def test_rotate_quarter_turn_matches_rot90():
    rng = SplitMix64(10)
    for size in (4, 5, 8):
        image = random_image(rng, size, size)
        got = _warp(image, angle_deg=90.0)
        assert np.array_equal(got, np.rot90(image, k=-1))


def test_rotate_center_pixel_fixed_for_odd_sizes():
    rng = SplitMix64(12)
    image = random_image(rng, 9, 9)
    for angle in (7.0, -31.5, 45.0):
        out = _warp(image, angle_deg=angle)
        assert np.array_equal(out[4, 4], image[4, 4])


def test_rotate_fills_corners_with_zero():
    image = np.full((16, 16, 3), 255, dtype=np.uint8)
    out = _warp(image, angle_deg=45.0)
    assert np.all(out[0, 0] == 0)
    assert np.all(out[0, -1] == 0)
    assert np.all(out[-1, 0] == 0)
    assert np.all(out[-1, -1] == 0)


def test_rotate_constant_image_is_symmetric_under_half_turn():
    # far edges fade toward the zero border exactly as near edges do
    image = np.full((16, 16, 3), 200, dtype=np.uint8)
    out = _warp(image, angle_deg=10.0)
    assert np.array_equal(out, out[::-1, ::-1])


def test_zoom_out_fades_far_edge_like_near_edge():
    # at zoom 0.9 the 16-px image's edge rows and columns read coordinates
    # -0.83 and 15.83: both blend 17 % of a pixel with the zero border
    image = np.full((16, 16, 3), 200, dtype=np.uint8)
    out = augment(image, AugmentConfig(0.0, (0.9, 0.9), 0.0, 0.0), SplitMix64(0))
    edge = out[8, 0, 0]
    assert 0 < edge < 200
    assert out[8, -1, 0] == edge and out[0, 8, 0] == edge and out[-1, 8, 0] == edge


def test_zoom_identity_factor():
    # a (1, 1) zoom range is off: it draws nothing and leaves the image as is
    rng = SplitMix64(13)
    image = random_image(rng, 10, 10)
    gen = SplitMix64(5)
    out = augment(image, AugmentConfig(0.0, (1.0, 1.0), 0.0, 0.0), gen)
    assert np.array_equal(out, image)
    assert gen.next_u64() == SplitMix64(5).next_u64()


def test_zoom_out_pads_border_with_zero():
    image = np.full((8, 8, 3), 250, dtype=np.uint8)
    out = augment(image, AugmentConfig(0.0, (0.5, 0.5), 0.0, 0.0), SplitMix64(0))
    assert out.shape == (8, 8, 3)
    assert np.all(out[0, 0] == 0)
    assert np.all(out[-1, -1] == 0)
    assert out[4, 4, 0] > 200  # center still bright


def test_color_shift_plus_ten_on_constant_hundred():
    image = np.full((6, 6, 3), 100, dtype=np.uint8)
    out = _warp(image, offsets=(10.0, 10.0, 10.0))
    assert np.all(out == 110)


def test_color_shift_clamps_both_ends():
    image = np.full((2, 2, 3), 250, dtype=np.uint8)
    assert np.all(_warp(image, offsets=(20, 20, 20)) == 255)
    image = np.full((2, 2, 3), 5, dtype=np.uint8)
    assert np.all(_warp(image, offsets=(-20, -20, -20)) == 0)


def test_color_shift_is_per_channel():
    image = np.full((3, 3, 3), 100, dtype=np.uint8)
    out = _warp(image, offsets=(10.0, 0.0, -5.0))
    assert np.all(out[:, :, 0] == 110)
    assert np.all(out[:, :, 1] == 100)
    assert np.all(out[:, :, 2] == 95)


def test_translate_known_shift():
    image = np.zeros((4, 4, 3), dtype=np.uint8)
    image[0, 0] = 9
    out = _warp(image, shift=(2, 1))
    assert np.all(out[2, 1] == 9)
    assert out.sum() == 27  # single pixel moved, zero fill elsewhere


def test_translate_negative_and_overflow():
    rng = SplitMix64(14)
    image = random_image(rng, 5, 5)
    out = _warp(image, shift=(-2, -3))
    assert np.array_equal(out[:3, :2], image[2:, 3:])
    assert np.all(out[3:, :] == 0)
    assert np.all(out[:, 2:] == 0)
    assert np.all(_warp(image, shift=(5, 0)) == 0)
    assert np.all(_warp(image, shift=(0, -7)) == 0)


def test_augment_all_zero_magnitudes_is_identity():
    rng = SplitMix64(15)
    image = random_image(rng, 12, 12)
    out = augment(image, AugmentConfig(0.0, (1.0, 1.0), 0.0, 0.0), SplitMix64(0))
    assert np.array_equal(out, image)
    assert out is not image  # caller's array is never aliased


def test_augment_deterministic_per_seed():
    rng = SplitMix64(16)
    image = random_image(rng, 20, 20)
    config = AugmentConfig()
    a = augment(image, config, SplitMix64(123))
    b = augment(image, config, SplitMix64(123))
    c = augment(image, config, SplitMix64(124))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_augment_preserves_shape_and_range():
    rng = SplitMix64(17)
    for k in range(200):
        h = 8 + rng.randint(17)
        w = 8 + rng.randint(17)
        image = random_image(rng, h, w)
        config = AugmentConfig(
            rotation_max_deg=rng.uniform(0.0, 45.0),
            zoom_range=tuple(sorted((rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)))),
            color_shift_max=rng.uniform(0.0, 60.0),
            translate_max_fraction=rng.uniform(0.0, 0.3),
        )
        out = augment(image, config, rng.derive("aug", k))
        assert out.shape == image.shape
        assert out.dtype == np.uint8  # uint8 => every pixel in [0, 255]


def test_augment_matches_composed_reference():
    rng = SplitMix64(18)
    for k in range(12):
        h, w = 6 + rng.randint(14), 6 + rng.randint(14)
        image = random_image(rng, h, w)
        config = AugmentConfig(
            rotation_max_deg=rng.uniform(0.0, 45.0),
            zoom_range=tuple(sorted((rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)))),
            color_shift_max=rng.uniform(0.0, 60.0),
            translate_max_fraction=rng.uniform(0.0, 0.3),
        )
        draws = SplitMix64(k)  # the draw order: angle, zoom, offsets, row and column shift
        angle = draws.uniform(-config.rotation_max_deg, config.rotation_max_deg)
        zoom = draws.uniform(*config.zoom_range)
        offsets = draws.uniform(-config.color_shift_max, config.color_shift_max, shape=3)
        f = config.translate_max_fraction
        dy = int(round(draws.uniform(-f, f) * h))
        dx = int(round(draws.uniform(-f, f) * w))
        want = augment_ref(image, angle, zoom, offsets, dy, dx)
        assert np.array_equal(augment(image, config, SplitMix64(k)), want)


def test_augment_single_transform_matches_public_transform():
    # a config with one transform on is one _warp with that transform's draw
    rng = SplitMix64(19)
    for k in range(20):
        image = random_image(rng, 8 + rng.randint(20), 8 + rng.randint(20))
        h, w = image.shape[:2]
        draws = SplitMix64(k)
        angle = draws.uniform(-30.0, 30.0)
        rotated = augment(image, AugmentConfig(30.0, (1.0, 1.0), 0.0, 0.0), SplitMix64(k))
        assert np.array_equal(rotated, _warp(image, angle_deg=angle))
        draws = SplitMix64(k)
        offsets = draws.uniform(-40.0, 40.0, shape=3)
        shifted = augment(image, AugmentConfig(0.0, (1.0, 1.0), 40.0, 0.0), SplitMix64(k))
        assert np.array_equal(shifted, _warp(image, offsets=offsets))
        draws = SplitMix64(k)
        dy = int(round(draws.uniform(-0.3, 0.3) * h))
        dx = int(round(draws.uniform(-0.3, 0.3) * w))
        moved = augment(image, AugmentConfig(0.0, (1.0, 1.0), 0.0, 0.3), SplitMix64(k))
        assert np.array_equal(moved, _warp(image, shift=(dy, dx)))


def test_augment_translated_in_pixels_stay_zero_under_color_shift():
    image = np.full((20, 20, 3), 100, dtype=np.uint8)
    config = AugmentConfig(0.0, (1.0, 1.0), 50.0, 0.3)
    for k in range(20):
        draws = SplitMix64(k)
        offsets = draws.uniform(-50.0, 50.0, shape=3)
        dy = int(round(draws.uniform(-0.3, 0.3) * 20))
        dx = int(round(draws.uniform(-0.3, 0.3) * 20))
        out = augment(image, config, SplitMix64(k))
        framed = np.zeros((20, 20), dtype=bool)
        framed[max(dy, 0) : 20 + min(dy, 0), max(dx, 0) : 20 + min(dx, 0)] = True
        assert np.all(out[~framed] == 0)
        want = np.clip(np.floor(100.0 + offsets + 0.5), 0, 255)
        assert np.all(out[framed] == want)


def test_augment_requires_generator():
    image = np.zeros((8, 8, 3), dtype=np.uint8)
    with pytest.raises(UsageError):
        augment(image, AugmentConfig(), None)


def test_augment_config_validation():
    with pytest.raises(ConfigError):
        AugmentConfig(rotation_max_deg=46.0)
    with pytest.raises(ConfigError):
        AugmentConfig(rotation_max_deg=-1.0)
    with pytest.raises(ConfigError):
        AugmentConfig(zoom_range=(0.4, 1.1))
    with pytest.raises(ConfigError):
        AugmentConfig(zoom_range=(1.2, 0.9))
    with pytest.raises(ConfigError):
        AugmentConfig(color_shift_max=-5.0)
    with pytest.raises(ConfigError):
        AugmentConfig(translate_max_fraction=0.31)


def test_augment_config_dict_roundtrip():
    config = AugmentConfig(5.0, (0.8, 1.2), 12.0, 0.05)
    assert AugmentConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ConfigError):
        AugmentConfig.from_dict({"rotation_max_deg": 5.0, "wobble": 1.0})


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------


def write_corpus(root, counts, layout="native", size=4):
    """Author a tiny corpus tree with a known number of images per class."""
    rng = SplitMix64(99)
    made = []
    for sub, n in counts.items():
        d = root / sub
        d.mkdir(parents=True, exist_ok=True)
        for i in range(n):
            path = d / f"im_{i:03d}.ppm"
            save_ppm(random_image(rng, size, size), path)
            made.append(str(path))
    return made


def test_scan_native_counts(tmp_path):
    write_corpus(tmp_path, {"with_mask": 5, "without_mask": 4, "incorrect_mask": 3})
    index = scan_dataset(tmp_path)
    assert len(index) == 12
    assert index.class_counts() == {
        "with_mask": 5,
        "without_mask": 4,
        "incorrect_mask": 3,
    }
    assert index.warnings == []
    assert all(s.split is None for s in index.samples)


def test_scan_empty_root(tmp_path):
    index = scan_dataset(tmp_path)
    assert len(index) == 0
    assert index.warnings == []


def test_scan_mfn_layout_with_imfd_variants(tmp_path):
    write_corpus(tmp_path, {"CMFD": 3})
    # IMFD carries several style sub-folders; all collapse to incorrect_mask
    write_corpus(tmp_path / "IMFD", {"variant_a": 2, "variant_b": 1, "variant_c": 2})
    (tmp_path / "extra_stuff").mkdir()
    index = scan_dataset(tmp_path, layout="mfn")
    counts = index.class_counts()
    assert counts == {"with_mask": 3, "without_mask": 0, "incorrect_mask": 5}
    assert any("extra_stuff" in w for w in index.warnings)
    assert all(s.label == Label.INCORRECT_MASK for s in index.samples if "IMFD" in s.path)


def test_scan_smfd_layout(tmp_path):
    write_corpus(tmp_path, {"masked": 2, "unmasked": 3})
    index = scan_dataset(tmp_path, layout="smfd")
    assert index.class_counts() == {
        "with_mask": 2,
        "without_mask": 3,
        "incorrect_mask": 0,
    }


def test_scan_multiple_roots_and_source_counts(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_corpus(a, {"with_mask": 2, "without_mask": 1, "incorrect_mask": 0})
    write_corpus(b, {"with_mask": 1, "without_mask": 0, "incorrect_mask": 3})
    index = scan_dataset([a, b])
    assert len(index) == 7
    assert index.source_counts[str(a)]["with_mask"] == 2
    assert index.source_counts[str(b)]["incorrect_mask"] == 3


def test_scan_is_deterministic(tmp_path):
    write_corpus(tmp_path, {"with_mask": 4, "without_mask": 4, "incorrect_mask": 4})
    first = [s.path for s in scan_dataset(tmp_path).samples]
    second = [s.path for s in scan_dataset(tmp_path).samples]
    assert first == second
    assert first == sorted(first)


def test_scan_errors(tmp_path):
    with pytest.raises(InputError):
        scan_dataset(tmp_path / "missing")
    with pytest.raises(ConfigError):
        scan_dataset(tmp_path, layout="nope")


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def fake_index(n_per_class):
    samples = []
    for label in Label:
        for i in range(n_per_class[int(label)]):
            samples.append(Sample(path=f"{LABEL_NAMES[label]}/{i:04d}.ppm", label=label))
    return DatasetIndex(samples=samples)


def test_split_thousand_per_class():
    index = split_dataset(fake_index([1000, 1000, 1000]), seed=3)
    for name, want in (("train", 700), ("val", 150), ("test", 150)):
        counts = index.class_counts(name)
        assert counts == {k: want for k in counts}


def test_split_ten_per_class_remainder_to_train():
    index = split_dataset(fake_index([10, 10, 10]), seed=3)
    assert index.class_counts("train") == {k: 8 for k in LABEL_NAMES}
    assert index.class_counts("val") == {k: 1 for k in LABEL_NAMES}
    assert index.class_counts("test") == {k: 1 for k in LABEL_NAMES}


def test_split_partitions_and_preserves_order():
    base = fake_index([17, 9, 4])
    index = split_dataset(base, seed=7)
    assert [s.path for s in index.samples] == [s.path for s in base.samples]
    assert all(s.split is None for s in base.samples)  # input not mutated
    assert all(s.split in ("train", "val", "test") for s in index.samples)


def test_split_deterministic_and_seed_sensitive():
    base = fake_index([40, 40, 40])
    a = split_dataset(base, seed=5)
    b = split_dataset(base, seed=5)
    c = split_dataset(base, seed=6)
    assert [s.split for s in a.samples] == [s.split for s in b.samples]
    assert [s.split for s in a.samples] != [s.split for s in c.samples]
    assert a.split_counts() == c.split_counts()  # counts invariant to the seed


def test_split_fraction_deviation_bounded():
    # floors for val/test deviate less than 1 below target; the remainder
    # pushes train at most 2 above its floor target
    rng = SplitMix64(21)
    for _ in range(30):
        n = 1 + rng.randint(200)
        index = split_dataset(fake_index([n, 0, 0]), seed=int(rng.next_u64() % 1000))
        counts = {
            name: index.class_counts(name)["with_mask"]
            for name in ("train", "val", "test")
        }
        assert counts["train"] + counts["val"] + counts["test"] == n
        assert abs(counts["train"] - 0.70 * n) < 2.0
        assert abs(counts["val"] - 0.15 * n) < 1.0 + 1e-9
        assert abs(counts["test"] - 0.15 * n) < 1.0 + 1e-9


def test_split_empty_class_warns():
    index = split_dataset(fake_index([6, 0, 6]), seed=1)
    assert any("without_mask" in w for w in index.warnings)


def test_split_validates_ratios():
    base = fake_index([4, 4, 4])
    with pytest.raises(ConfigError):
        split_dataset(base, ratios=(0.5, 0.25, 0.30))
    with pytest.raises(ConfigError):
        split_dataset(base, ratios=(1.2, -0.1, -0.1))
    with pytest.raises(ConfigError):
        split_dataset(base, ratios=(math.nan, 0.5, 0.5))


@pytest.mark.parametrize("ratios", [("x", 0, 0), (10**400, 0, 0), 5, None, (True, False, False)],
                         ids=["string", "past-float-range", "int", "none", "bools"])
def test_split_refuses_ratios_that_are_not_three_real_numbers(ratios):
    with pytest.raises(ConfigError, match="ratios"):
        split_dataset(fake_index([4, 4, 4]), ratios=ratios)


def test_split_manifest_roundtrip(tmp_path):
    write_corpus(tmp_path / "data", {"with_mask": 7, "without_mask": 7, "incorrect_mask": 7})
    index = split_dataset(scan_dataset(tmp_path / "data"), seed=42)
    manifest_path = tmp_path / "split.json"
    save_split_manifest(index, manifest_path)

    manifest = load_split_manifest(manifest_path)
    assert manifest.seed == 42
    assert manifest.ratios == (0.70, 0.15, 0.15)

    rescanned = scan_dataset(tmp_path / "data")
    applied = apply_split_manifest(rescanned, manifest_path)
    assert [s.split for s in applied.samples] == [s.split for s in index.samples]


def test_split_manifest_does_not_depend_on_root_spelling(tmp_path, monkeypatch):
    write_corpus(tmp_path / "corpus", {"with_mask": 5, "without_mask": 5, "incorrect_mask": 5})
    monkeypatch.chdir(tmp_path)
    index = split_dataset(scan_dataset("corpus"), seed=3)
    save_split_manifest(index, "split.json")
    manifest = load_split_manifest("split.json")
    assert all(key.startswith(os.path.join("0", "")) for key in manifest.splits)
    want = [s.split for s in index.samples]
    for root in (os.path.abspath("corpus"), "./corpus/"):
        assert [s.split for s in apply_split_manifest(scan_dataset(root), "split.json").samples] == want
    monkeypatch.chdir(tmp_path / "corpus")
    applied = apply_split_manifest(scan_dataset("."), tmp_path / "split.json")
    assert [s.split for s in applied.samples] == want


def test_split_manifest_keeps_two_roots_apart(tmp_path, monkeypatch):
    # both roots hold the same file names; each file keeps its own split
    for name in ("a", "b"):
        write_corpus(tmp_path / name, {"with_mask": 6, "without_mask": 6, "incorrect_mask": 6})
    monkeypatch.chdir(tmp_path)
    index = split_dataset(scan_dataset(["a", "b"]), seed=5)
    save_split_manifest(index, "split.json")
    assert len(load_split_manifest("split.json").splits) == len(index) == 36
    want = [s.split for s in index.samples]
    assert want[:18] != want[18:]
    rescanned = scan_dataset([os.path.abspath("a"), os.path.abspath("b")])
    assert [s.split for s in apply_split_manifest(rescanned, "split.json").samples] == want


def test_split_manifest_reads_full_path_keys(tmp_path):
    # manifests written before keys were made relative to their root
    write_corpus(tmp_path / "corpus", {"with_mask": 5, "without_mask": 5, "incorrect_mask": 5})
    index = split_dataset(scan_dataset(tmp_path / "corpus"), seed=4)
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"seed": 4, "ratios": [0.7, 0.15, 0.15],
                                "splits": {s.path: s.split for s in index.samples}}))
    applied = apply_split_manifest(scan_dataset(tmp_path / "corpus"), path)
    assert [s.split for s in applied.samples] == [s.split for s in index.samples]


def test_split_manifest_errors(tmp_path):
    index = split_dataset(fake_index([4, 4, 4]), seed=0)
    path = tmp_path / "m.json"
    save_split_manifest(index, path)
    with pytest.raises(UsageError):
        save_split_manifest(fake_index([2, 2, 2]), tmp_path / "u.json")
    stranger = fake_index([5, 4, 4])  # has a path the manifest never saw
    with pytest.raises(InputError):
        apply_split_manifest(stranger, path)
    path.write_text('{"seed": 1, "ratios": [0.7, 0.15, 0.15]}')
    with pytest.raises(ConfigError):
        load_split_manifest(path)


def _write_manifest(tmp_path, **changes):
    """A manifest of ``fake_index([4, 4, 4])`` split with seed 0, with ``changes``."""
    path = tmp_path / "m.json"
    save_split_manifest(split_dataset(fake_index([4, 4, 4]), seed=0), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))
    return path


@pytest.mark.parametrize("changes, named", [
    ({"k" * 100_000: 1}, "unknown manifest key: kkkk"),
    ({"splits": {"x.ppm": "banana"}}, r"splits\['x.ppm'\]: expected one of .*, got 'banana'"),
    ({"splits": {"x.ppm": "t" * 100_000}}, r"splits\['x.ppm'\]: expected one of"),
    ({"splits": {"k" * 100_000: "banana"}}, r"splits\['kkkk.*'\]: expected one of"),
    ({"splits": {"x.ppm": 3}}, r"splits\['x.ppm'\]: expected a string, got 3"),
    ({"splits": []}, "splits: expected an object"),
], ids=["unknown-key", "unknown-split", "long-split", "long-key", "int-split", "list"])
def test_split_manifest_problems_are_named_in_bounded_form(tmp_path, changes, named):
    path = _write_manifest(tmp_path, **changes)
    with pytest.raises(ConfigError, match=named) as info:
        load_split_manifest(path)
    assert str(info.value).startswith(f"split manifest {path}: ")
    assert len(str(info.value)) < 500


def test_split_manifest_every_split_is_checked_not_only_scanned_ones(tmp_path):
    index = split_dataset(fake_index([4, 4, 4]), seed=0)
    path = _write_manifest(tmp_path)
    splits = json.loads(path.read_text())["splits"]
    path = _write_manifest(tmp_path, splits={**splits, "not/scanned.ppm": "banana"})
    with pytest.raises(ConfigError, match="not/scanned.ppm"):
        apply_split_manifest(index, path)


def test_split_manifest_keys_that_name_one_sample_must_agree(tmp_path):
    index = split_dataset(fake_index([4, 4, 4]), seed=0)
    path = _write_manifest(tmp_path)
    splits = json.loads(path.read_text())["splits"]
    key, split = next(iter(splits.items()))
    spelled = os.path.join(os.curdir, key)
    other = "test" if split != "test" else "train"
    path = _write_manifest(tmp_path, splits={**splits, spelled: other})
    with pytest.raises(ConfigError, match="name one sample") as info:
        apply_split_manifest(index, path)
    assert repr(key) in str(info.value) and repr(spelled) in str(info.value)
    # the same split under two spellings is the same assignment
    path = _write_manifest(tmp_path, splits={**splits, spelled: split})
    assert [s.split for s in apply_split_manifest(index, path).samples] == \
        [s.split for s in index.samples]
    long = os.path.join(*["."] * 50_000, key)
    path = _write_manifest(tmp_path, splits={**splits, long: other})
    with pytest.raises(ConfigError, match="name one sample") as info:
        apply_split_manifest(index, path)
    assert len(str(info.value)) < 500


@pytest.mark.parametrize("content", [
    b"5",                                                     # not an object
    b"{bad",                                                  # not JSON
    b"\xff\xfe{}",                                            # not UTF-8
    b'{"seed": 1, "ratios": [0.7, 0.15, 0.15], "splits": []}',
    b'{"seed": 1, "ratios": 0.7, "splits": {}}',
])
def test_split_manifest_malformed_file_is_a_config_error(tmp_path, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    with pytest.raises(ConfigError):
        load_split_manifest(path)


@pytest.mark.parametrize("key, value", [
    ("seed", "banana"),
    ("seed", True),
    ("seed", 1.5),
    ("ratios", ["x", None]),
    ("ratios", [True, 0, 0]),
    ("ratios", [0.5, 0.5]),
    ("ratios", [0.5, 0.5, 0.5]),
    ("ratios", [-0.5, 0.75, 0.75]),
    ("ratios", [10**400, 0, 0]),
])
def test_split_manifest_seed_and_ratios_are_checked(tmp_path, key, value):
    manifest = {"seed": 1, "ratios": [0.7, 0.15, 0.15], "splits": {}}
    manifest[key] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError) as caught:
        load_split_manifest(path)
    assert key in str(caught.value) and str(path) in str(caught.value)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def small_corpus(tmp_path, n_per_class=4, size=16, seed=77):
    index = synth_dataset(n_per_class, size, seed, tmp_path / "corpus")
    return split_dataset(index, seed=seed)


def test_batches_sizes_with_partial_final(tmp_path):
    index = small_corpus(tmp_path)
    ten = DatasetIndex(samples=[
        Sample(s.path, s.label, "train") for s in index.samples[:10]
    ])
    sizes = [x.shape[0] for x, _ in batches(ten, "train", 4, False, image_size=16)]
    assert sizes == [4, 4, 2]


def test_batches_shapes_and_one_hot(tmp_path):
    index = small_corpus(tmp_path)
    for x, y in batches(index, "train", 3, False, image_size=16):
        assert x.shape[1:] == (3, 16, 16)
        assert x.dtype == np.float32
        assert y.shape == (x.shape[0], 3)
        assert np.all(y.data.sum(axis=1) == 1.0)
        assert np.all((y.data == 0.0) | (y.data == 1.0))


def test_batches_order_without_shuffle_matches_index(tmp_path):
    index = small_corpus(tmp_path)
    train = index.samples_for("train")
    rows = []
    labels = []
    for x, y in batches(index, "train", 4, False, image_size=16):
        rows.extend(x.data[i] for i in range(x.shape[0]))
        labels.extend(int(np.argmax(y.data[i])) for i in range(y.shape[0]))
    assert labels == [int(s.label) for s in train]
    for row, sample in zip(rows, train):
        want = normalize(load_ppm(sample.path)).data
        assert np.array_equal(row, want)


def test_batches_cover_split_exactly_once_shuffled(tmp_path):
    index = small_corpus(tmp_path)
    train = index.samples_for("train")
    want = sorted(normalize(load_ppm(s.path)).data.tobytes() for s in train)
    got = []
    for x, _ in batches(index, "train", 3, True, rng=SplitMix64(1), image_size=16):
        got.extend(x.data[i].tobytes() for i in range(x.shape[0]))
    assert sorted(got) == want


def test_batches_shuffle_depends_on_epoch(tmp_path):
    index = small_corpus(tmp_path)

    def order(epoch):
        out = []
        for x, y in batches(
            index, "train", 4, True, rng=SplitMix64(9), image_size=16, epoch=epoch
        ):
            out.extend(x.data[i].tobytes() for i in range(x.shape[0]))
        return out

    assert order(0) == order(0)
    assert order(0) != order(1)
    assert sorted(order(0)) == sorted(order(1))


def test_batches_augmented_deterministic(tmp_path):
    index = small_corpus(tmp_path)
    config = AugmentConfig()

    def epoch_bytes(epoch, seed=4):
        out = []
        for x, _ in batches(
            index, "train", 4, True, config, SplitMix64(seed),
            image_size=16, epoch=epoch,
        ):
            out.append(x.data.tobytes())
        return b"".join(out)

    assert epoch_bytes(0) == epoch_bytes(0)
    assert epoch_bytes(0) != epoch_bytes(1)  # new draws every epoch
    plain = b"".join(
        x.data.tobytes()
        for x, _ in batches(index, "train", 4, True, rng=SplitMix64(4), image_size=16)
    )
    assert epoch_bytes(0) != plain


def test_augmented_batches_do_not_depend_on_root_spelling(tmp_path, monkeypatch):
    synth_dataset(4, 16, 77, tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)

    def epoch_bytes(root):
        index = split_dataset(scan_dataset(root), seed=77)
        return [x.data.tobytes() for x, _ in batches(
            index, "train", 4, True, AugmentConfig(), SplitMix64(4), image_size=16, epoch=1)]

    assert epoch_bytes("corpus") == epoch_bytes("./corpus") == epoch_bytes(tmp_path / "corpus")


def test_batches_resizes_to_requested_size(tmp_path):
    index = small_corpus(tmp_path, size=24)
    for x, _ in batches(index, "val", 2, False, image_size=16):
        assert x.shape[1:] == (3, 16, 16)


def test_batches_usage_errors(tmp_path):
    index = small_corpus(tmp_path)
    with pytest.raises(UsageError):
        batches(index, "val", 2, False, AugmentConfig(), SplitMix64(0), image_size=16)
    with pytest.raises(UsageError):
        batches(index, "test", 2, False, AugmentConfig(), SplitMix64(0), image_size=16)
    with pytest.raises(UsageError):
        batches(index, "train", 2, True, image_size=16)  # shuffle needs rng
    with pytest.raises(ParameterError):
        batches(index, "training", 2, False, image_size=16)
    with pytest.raises(ParameterError):
        batches(index, "train", 0, False, image_size=16)


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------


def test_synth_counts_and_layout(tmp_path):
    index = synth_dataset(20, 24, 0, tmp_path / "c")
    assert len(index) == 60
    assert index.class_counts() == {k: 20 for k in LABEL_NAMES}
    for name in LABEL_NAMES:
        files = sorted(os.listdir(tmp_path / "c" / name))
        assert len(files) == 20
        assert all(f.endswith(".ppm") for f in files)


def test_synth_bit_identical_per_seed(tmp_path):
    a = synth_dataset(3, 20, 5, tmp_path / "a")
    b = synth_dataset(3, 20, 5, tmp_path / "b")
    c = synth_dataset(3, 20, 6, tmp_path / "d")
    a_bytes = [open(s.path, "rb").read() for s in a.samples]
    b_bytes = [open(s.path, "rb").read() for s in b.samples]
    c_bytes = [open(s.path, "rb").read() for s in c.samples]
    assert a_bytes == b_bytes
    assert a_bytes != c_bytes


def test_synth_classes_are_knn_separable(tmp_path):
    index = synth_dataset(20, 24, 11, tmp_path / "c")
    per_class = {int(label): [] for label in Label}
    for s in index.samples:
        per_class[int(s.label)].append(load_ppm(s.path).astype(np.float64).ravel())
    train_x, train_y, test_x, test_y = [], [], [], []
    for label, vecs in per_class.items():
        half = len(vecs) // 2
        train_x.extend(vecs[:half])
        train_y.extend([label] * half)
        test_x.extend(vecs[half:])
        test_y.extend([label] * (len(vecs) - half))
    accuracy = knn3_accuracy(
        np.array(train_x), np.array(train_y), np.array(test_x), np.array(test_y)
    )
    assert accuracy > 0.90


def test_synth_validates_arguments(tmp_path):
    with pytest.raises(ParameterError):
        synth_dataset(0, 24, 0, tmp_path)
    with pytest.raises(ParameterError):
        synth_dataset(2, 8, 0, tmp_path)


@pytest.mark.parametrize("n, size, named", [(1, 1025, "image_size"), (100_001, 16, "n_per_class")])
def test_synth_caps_are_checked_before_any_output(tmp_path, n, size, named):
    # a file where the corpus folder would go: a cap checked after the
    # first directory is made fails on it with an OSError instead
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(ParameterError, match=named):
        synth_dataset(n, size, 0, blocker / "corpus")
