"""The whole pipeline on one image: locate faces, classify each crop.

A synthetic "photo" gets three cartoon portraits pasted onto a gray
wall, one per class.  A hand-built cascade proposes face regions: its
first stage is a centre-vs-surround feature (portraits are bright discs
on dark tiles, so the window centre outshines the border), its second
the left-right symmetry check from demo 02.  Each proposed crop is
resized to the model input and classified, and the verdicts are drawn
back onto the image with the class colour convention (green worn /
red none / orange incorrect).

Run:  python3 demos/05_full_pipeline.py   (trains a tiny model first)
"""

import os
import tempfile

import numpy as np

from maskdetect import (
    DetectParams,
    HeadConfig,
    TrainConfig,
    build_model,
    desk_backbone,
    detect,
    load_ppm,
    save_ppm,
    split_dataset,
    synth_dataset,
    to_grayscale,
    two_phase_train,
)
from maskdetect.cascade import Cascade, HaarFeature, HaarRect, Stage, WeakClassifier
from maskdetect.cli import CLASS_COLORS, classify_crop, draw_rectangle
from maskdetect.data import LABEL_NAMES


def portrait_cascade() -> Cascade:
    whole = HaarRect(0, 0, 24, 24, -1.0)
    stages = (
        Stage(  # bright centre against a darker surround
            weak_classifiers=(WeakClassifier(
                HaarFeature(rects=(whole, HaarRect(6, 6, 12, 12, 4.0))),
                0.8, -1.0, 1.0),),
            stage_threshold=0.5,
        ),
        Stage(  # roughly left-right symmetric
            weak_classifiers=(
                WeakClassifier(HaarFeature(rects=(whole, HaarRect(0, 0, 12, 24, 2.0))),
                               0.3, 1.0, -1.0),
                WeakClassifier(HaarFeature(rects=(whole, HaarRect(12, 0, 12, 24, 2.0))),
                               0.3, 1.0, -1.0),
            ),
            stage_threshold=1.5,
        ),
    )
    return Cascade(base_width=24, base_height=24, stages=stages)


# the corpus and the annotated image live in one directory, removed at the end
with tempfile.TemporaryDirectory(prefix="maskdemo_") as work:
    # 1. train a small classifier on the synthetic corpus
    corpus_dir = os.path.join(work, "corpus")
    index = split_dataset(synth_dataset(60, 75, seed=11, out_dir=corpus_dir), seed=0)
    model = build_model(
        desk_backbone(),
        HeadConfig(hidden_units=64, hidden_layers=1, dropout_rate=0.0),
        seed=0,
    )
    config = TrainConfig(epochs_phase1=0, epochs_phase2=6, unfreeze_last_k=4,
                         lr_phase2=1e-3, batch_size=8, seed=0, augment=None)
    result = two_phase_train(model, index, config)
    print(f"classifier trained: final val accuracy {result.logs[-1].val_acc:.3f}")

    # 2. compose a scene: one unseen portrait per class on a neutral wall
    test_samples = index.samples_for("test")
    by_label = {sample.label: sample for sample in test_samples}
    scene = np.full((130, 290, 3), 128, np.uint8)
    placements = [(by_label[label], 15 + 90 * i, 28) for i, label in enumerate(sorted(by_label))]
    for sample, x0, y0 in placements:
        scene[y0:y0 + 75, x0:x0 + 75] = load_ppm(sample.path)
        print(f"pasted a {LABEL_NAMES[sample.label]} portrait at ({x0}, {y0})")

    # 3. locate and classify
    boxes = detect(to_grayscale(scene), portrait_cascade(),
                   DetectParams(scale_factor=1.15, step=2, min_size=48, min_neighbors=2))
    print(f"{len(boxes)} face region(s) proposed")

    annotated = scene.copy()
    boxes = sorted(boxes, key=lambda b: b.x)
    for box, (klass, confidence) in zip(boxes, classify_crop(model, scene, boxes)):
        draw_rectangle(annotated, box.x, box.y, box.w, box.h, CLASS_COLORS[klass])
        print(f"  box ({box.x},{box.y},{box.w},{box.h}) -> "
              f"{LABEL_NAMES[klass]} ({confidence:.2f})")

    out_path = os.path.join(work, "annotated.ppm")
    save_ppm(annotated, out_path)
    assert np.array_equal(load_ppm(out_path), annotated)
    print("annotated image written and read back unchanged")
