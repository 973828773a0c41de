"""Sliding-window face localization with a hand-built two-stage cascade.

The detector classifies every window of a scale pyramid: stage one fires
on bright-top/dark-bottom windows, stage two insists the window is
left-right symmetric.  Windows passing all stages are grouped by overlap
into final boxes.

Run:  python3 demos/02_face_detection.py
"""

import os
import tempfile

import numpy as np

from maskdetect import (
    DetectParams, detect, eval_window, integral_image, load_cascade_json, save_cascade_json,
)
from maskdetect.cascade import Cascade, HaarFeature, HaarRect, Stage, WeakClassifier


def band_cascade() -> Cascade:
    """24x24 base window; features are (whole * -1) + (half * 2) = half - other."""
    top_vs_bottom = HaarFeature(rects=(
        HaarRect(0, 0, 24, 24, -1.0),
        HaarRect(0, 0, 24, 12, 2.0),
    ))
    left_vs_right = HaarFeature(rects=(
        HaarRect(0, 0, 24, 24, -1.0),
        HaarRect(0, 0, 12, 24, 2.0),
    ))
    right_vs_left = HaarFeature(rects=(
        HaarRect(0, 0, 24, 24, -1.0),
        HaarRect(12, 0, 12, 24, 2.0),
    ))
    brightness = Stage(
        weak_classifiers=(WeakClassifier(top_vs_bottom, 0.8, -1.0, 1.0),),
        stage_threshold=0.5,
    )
    symmetry = Stage(
        weak_classifiers=(
            WeakClassifier(left_vs_right, 0.2, 1.0, -1.0),
            WeakClassifier(right_vs_left, 0.2, 1.0, -1.0),
        ),
        stage_threshold=1.5,
    )
    return Cascade(base_width=24, base_height=24, stages=(brightness, symmetry))


cascade = band_cascade()
cascade.validate()

# a 48x64 scene split into a bright upper band and a dark lower band
scene = np.empty((48, 64), np.uint8)
scene[:24] = 210
scene[24:] = 40

# one window, evaluated by hand: top half 210, bottom half 40 -> accepted
ii = integral_image(scene)
result = eval_window(ii, cascade, origin=(20, 12), scale=1.0)
print(f"window at (20, 12): accept={result.accept} score={result.score:+.2f}")

# the full pyramid scan with overlap grouping
boxes = detect(scene, cascade, DetectParams(scale_factor=1.2, step=2, min_neighbors=3))
print(f"{len(boxes)} grouped detection(s):")
for box in boxes:
    print(f"  x={box.x:3d} y={box.y:3d} w={box.w:3d} h={box.h:3d} score={box.score:+.2f}")

# nothing fires when the pattern is upside down or absent
assert detect(255 - scene, cascade) == []
assert detect(np.full_like(scene, 128), cascade) == []
print("inverted and blank scenes produce no detections")

# the cascade round-trips through the JSON codec
with tempfile.TemporaryDirectory(prefix="maskdemo_") as work:
    path = os.path.join(work, "band_cascade.json")
    save_cascade_json(cascade, path)
    assert load_cascade_json(path) == cascade
print("cascade saved as JSON and read back unchanged")
