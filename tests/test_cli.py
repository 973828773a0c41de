"""End-to-end tests for the command-line interface.

Every test drives ``main()`` in process and checks exit codes, stderr
routing, and the files each command leaves behind.  Every refusal is a row
of ``REFUSALS``, which one test body holds to the contract the README's
"Exit codes" states.  Runs use a tiny 32-pixel model so the whole module
stays fast.
"""

import argparse
import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from maskdetect.checkpoint import load_checkpoint, read_header, save_checkpoint
from maskdetect.cascade import DetectionBox, load_cascade_xml, save_cascade_json
from maskdetect.cli import (
    CLASS_COLORS,
    build_parser,
    classify_crop,
    config_leaves,
    default_config,
    draw_rectangle,
    main,
)
from maskdetect.data import LABEL_NAMES, load_ppm, save_ppm, synth_dataset
from maskdetect.errors import InputError
from maskdetect.nn import BackboneConfig, HeadConfig, build_model

FIXTURE_XML = os.path.join(os.path.dirname(__file__), "fixtures", "face_cascade.xml")

TINY_CONFIG = {
    "backbone": {
        "input_size": 32,
        "width_mult": 0.25,
        "num_blocks": 2,
        "factorized_blocks": [2],
        "stem_channels": [8, 8, 16],
        "stem_strides": [2, 1, 2],
    },
    "head": {"hidden_units": 16, "hidden_layers": 1, "dropout_rate": 0.0},
    "train": {
        "epochs_phase1": 1,
        "epochs_phase2": 1,
        "unfreeze_last_k": 1,
        "batch_size": 8,
        "seed": 3,
        "augment": None,
    },
}
NO_EPOCHS = ("--train.epochs_phase1", "0", "--train.epochs_phase2", "0")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    synth_dataset(8, 32, seed=1, out_dir=root)
    return root


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


@pytest.fixture(scope="module")
def train_run(corpus, tiny_config, tmp_path_factory):
    """One shared training run; several tests only need its artifacts."""
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--data", str(corpus), "--out", str(out),
                 "--config", str(tiny_config)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """An image the fixture cascade fires on: bright top, dark bottom."""
    path = tmp_path_factory.mktemp("scene") / "scene.ppm"
    image = np.full((48, 64, 3), 128, np.uint8)
    image[10:22, 20:44] = 210
    image[22:34, 20:44] = 40
    save_ppm(image, path)
    return path


@pytest.fixture(scope="module")
def blank_scene(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene") / "blank.ppm"
    save_ppm(np.full((48, 64, 3), 128, np.uint8), path)
    return path


@pytest.fixture(scope="module")
def four_per_class(tmp_path_factory):
    """12 images: at the default ratios the val and test splits are empty."""
    root = tmp_path_factory.mktemp("four")
    synth_dataset(4, 32, seed=1, out_dir=root)
    return root


# -- parser plumbing ------------------------------------------------------------------


def test_help_returns_zero():
    assert main(["--help"]) == 0


def test_parser_lists_the_config_leaves_once(monkeypatch):
    # five subcommands take the config flags; the leaf list is built once a call
    calls = []

    def counted(config):
        calls.append(config)
        return config_leaves(config)

    monkeypatch.setattr("maskdetect.cli.config_leaves", counted)
    build_parser()
    assert len(calls) == 1


def test_every_scalar_leaf_has_a_flag():
    leaves = config_leaves(default_config())
    # spot-check the documented override plus one per section
    for dotted in ("train.epochs_phase1", "train.epochs_phase2",
                   "backbone.width_mult", "train.augment.rotation_max_deg",
                   "head.hidden_units", "data.split_seed",
                   "detect.scale_factor"):
        assert dotted in leaves
    assert len(leaves) == 22
    # list-valued leaves stay config-file only
    assert "data.ratios" not in leaves
    assert "backbone.stem_channels" not in leaves


def test_interrupt_exits_130_with_one_error_line(corpus, tiny_config, tmp_path):
    # the console script's entry point, sent SIGINT (what Ctrl-C sends) past its first epoch
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = ["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
            "--config", str(tiny_config), "--train.epochs_phase1", "1000"]
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from maskdetect.cli import main; sys.exit(main())",
         *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        for line in proc.stdout:
            if line.startswith("epoch"):
                break
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130, err
    assert err.splitlines() == ["error: interrupted"]


# -- scan / synth ---------------------------------------------------------------------


def test_scan_writes_manifest(corpus, tmp_path, capsys):
    out = tmp_path / "manifest.json"
    assert main(["scan", str(corpus), "--out", str(out)]) == 0
    manifest = json.loads(out.read_text())
    assert manifest["total"] == 24
    assert manifest["counts"] == {name: 8 for name in LABEL_NAMES}
    assert len(manifest["samples"]) == 24
    assert manifest["layout"] == "native"
    assert "scanned 24 samples" in capsys.readouterr().out


def test_scan_empty_root_zero_counts(tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    out = tmp_path / "m.json"
    assert main(["scan", str(root), "--out", str(out)]) == 0
    manifest = json.loads(out.read_text())
    assert manifest["total"] == 0
    assert all(v == 0 for v in manifest["counts"].values())


def test_scan_unknown_subdir_warns_on_stderr(tmp_path, capsys):
    root = tmp_path / "root"
    root.mkdir()
    (root / "with_mask").mkdir()
    (root / "stray_folder").mkdir()
    assert main(["scan", str(root), "--out", str(tmp_path / "m.json")]) == 0
    err = capsys.readouterr().err
    assert "stray_folder" in err


def test_synth_then_scan_roundtrip(tmp_path):
    out = tmp_path / "corpus"
    assert main(["synth", "--n", "3", "--size", "24", "--seed", "7",
                 "--out", str(out)]) == 0
    meta = json.loads((out / "synth_config.json").read_text())
    assert meta["n_per_class"] == 3 and meta["seed"] == 7
    manifest = tmp_path / "m.json"
    assert main(["scan", str(out), "--out", str(manifest)]) == 0
    assert json.loads(manifest.read_text())["total"] == 9


# -- config merge and overrides -------------------------------------------------------


def test_config_precedence_flags_beat_file(corpus, tiny_config, tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--data", str(corpus), "--out", str(out),
                 "--config", str(tiny_config),
                 "--train.epochs_phase2", "0", "--train.batch_size", "4"])
    assert code == 0
    echo = json.loads((out / "config.json").read_text())
    assert echo["train"]["batch_size"] == 4          # flag beat file's 8
    assert echo["train"]["epochs_phase2"] == 0       # flag beat file's 1
    assert echo["train"]["epochs_phase1"] == 1       # file beat default 40
    assert echo["backbone"]["input_size"] == 32      # file beat default 75
    assert echo["train"]["lr_phase1"] == 1e-3        # untouched default
    # the echoed config is itself a valid config file
    rerun = tmp_path / "rerun"
    code = main(["train", "--data", str(corpus), "--out", str(rerun),
                 "--config", str(out / "config.json")])
    assert code == 0


def test_flag_into_a_section_the_file_leaves_out_takes_effect(corpus, tmp_path):
    train = {k: v for k, v in TINY_CONFIG["train"].items() if k != "augment"}
    config = tmp_path / "no-augment.json"
    config.write_text(json.dumps({**TINY_CONFIG, "train": train}))
    assert "data" not in TINY_CONFIG
    out = tmp_path / "run"
    code = main(["train", "--data", str(corpus), "--out", str(out), "--config", str(config),
                 "--train.epochs_phase1", "0", "--train.epochs_phase2", "0",
                 "--data.split_seed", "5", "--train.augment.rotation_max_deg", "5"])
    assert code == 0
    echo = json.loads((out / "config.json").read_text())
    assert echo["data"]["split_seed"] == 5 and echo["train"]["augment"]["rotation_max_deg"] == 5
    assert echo["train"]["augment"]["zoom_range"] == [0.9, 1.1]  # untouched default
    assert echo["train"]["batch_size"] == 8                        # from the file
    assert json.loads((out / "split.json").read_text())["seed"] == 5


# -- train ----------------------------------------------------------------------------


def test_train_writes_all_artifacts(train_run):
    for name in ("config.json", "split.json", "logs.csv", "final.ckpt",
                 "best.ckpt", "metrics.json", "report.txt", "confusion.csv"):
        assert (train_run / name).exists(), name
    logs = (train_run / "logs.csv").read_text().strip().splitlines()
    assert len(logs) == 3  # header + 2 epochs
    metrics = json.loads((train_run / "metrics.json").read_text())
    assert metrics["split"] == "test"
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert "best_val_acc" in metrics and "best_epoch" in metrics
    report = (train_run / "report.txt").read_text()
    assert "Accuracy" in report and "Weighted_avg" in report
    confusion = (train_run / "confusion.csv").read_text().strip().splitlines()
    assert len(confusion) == 4  # header + 3 classes


def test_train_stdout_is_epoch_lines_then_report(corpus, tiny_config, tmp_path, capsys):
    out = tmp_path / "printed"
    assert main(["train", "--data", str(corpus), "--out", str(out),
                 "--config", str(tiny_config)]) == 0
    want = []
    for row in (out / "logs.csv").read_text().strip().splitlines()[1:]:
        epoch, phase, tl, ta, vl, va, _ = row.split(",")
        want.append(f"epoch {int(epoch):3d} phase {phase}  "
                    f"train_loss {float(tl):.4f} train_acc {float(ta):.4f}  "
                    f"val_loss {float(vl):.4f} val_acc {float(va):.4f}")
    want.append((out / "report.txt").read_text().removesuffix("\n"))
    metrics = json.loads((out / "metrics.json").read_text())
    want.append(f"test accuracy {metrics['accuracy']:.4f} (best val "
                f"{metrics['best_val_acc']:.4f} at epoch {metrics['best_epoch']}) -> {out}")
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_train_rerun_is_bit_identical(corpus, tiny_config, train_run, tmp_path):
    out = tmp_path / "again"
    assert main(["train", "--data", str(corpus), "--out", str(out),
                 "--config", str(tiny_config)]) == 0
    assert (out / "final.ckpt").read_bytes() == (train_run / "final.ckpt").read_bytes()
    assert (out / "best.ckpt").read_bytes() == (train_run / "best.ckpt").read_bytes()


def test_train_seed_changes_weights(corpus, tiny_config, train_run, tmp_path):
    out = tmp_path / "seeded"
    assert main(["train", "--data", str(corpus), "--out", str(out),
                 "--config", str(tiny_config), "--train.seed", "9"]) == 0
    assert (out / "final.ckpt").read_bytes() != (train_run / "final.ckpt").read_bytes()


def test_train_zero_epochs_is_evaluation_only(corpus, tiny_config, tmp_path):
    out = tmp_path / "zero"
    code = main(["train", "--data", str(corpus), "--out", str(out),
                 "--config", str(tiny_config),
                 "--train.epochs_phase1", "0", "--train.epochs_phase2", "0"])
    assert code == 0
    logs = (out / "logs.csv").read_text().strip().splitlines()
    assert len(logs) == 1  # header only, no epochs ran
    assert json.loads((out / "metrics.json").read_text())["accuracy"] >= 0.0

    # weights in the checkpoint are exactly the freshly initialised ones
    saved = load_checkpoint(out / "final.ckpt")
    fresh = build_model(
        BackboneConfig.from_dict(TINY_CONFIG["backbone"]),
        HeadConfig.from_dict(TINY_CONFIG["head"]),
        seed=TINY_CONFIG["train"]["seed"],
    )
    fresh_params = fresh.named_parameters()
    assert saved.named_parameters().keys() == fresh_params.keys()
    for name, param in saved.named_parameters().items():
        assert np.array_equal(param.data, fresh_params[name].data), name


def test_train_non_finite_loss_exits_one(corpus, tiny_config, tmp_path, capsys):
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                     "--config", str(tiny_config), "--train.lr_phase1", "1e30"])
    assert code == 1
    assert "error: training loss is nan at epoch 1, batch 2" in capsys.readouterr().err
    assert not (tmp_path / "r" / "final.ckpt").exists()


def test_train_refuses_an_empty_test_split_before_training(four_per_class, tiny_config,
                                                           tmp_path, capsys):
    # the row train-test-split-empty holds the message; here, no epoch ran first
    code = main(["train", "--data", str(four_per_class), "--out", str(tmp_path / "run"),
                 "--config", str(tiny_config)])
    captured = capsys.readouterr()
    assert code == 2
    assert "'test' split has 0 of the 12 samples" in captured.err
    assert "epoch" not in captured.out


def test_train_refuses_an_empty_val_split_unless_no_epoch_runs(four_per_class, tmp_path):
    # the refusal is the row train-val-split-empty; with no epoch to run, training needs no val
    config = json.loads(json.dumps(TINY_CONFIG))
    config["data"] = {"ratios": [0.75, 0.0, 0.25]}  # 3 train, 0 val, 1 test per class
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["train", "--data", str(four_per_class), "--config", str(path),
                 "--out", str(tmp_path / "b"), *NO_EPOCHS]) == 0


def test_train_reports_the_split_warnings(tmp_path, tiny_config, capsys):
    root = tmp_path / "two-classes"
    synth_dataset(8, 32, seed=1, out_dir=root)
    shutil.rmtree(root / "incorrect_mask")
    code = main(["train", "--data", str(root), "--out", str(tmp_path / "r"),
                 "--config", str(tiny_config),
                 "--train.epochs_phase1", "0", "--train.epochs_phase2", "0"])
    assert code == 0
    assert "warning: class 'incorrect_mask' has no samples" in capsys.readouterr().err


def test_train_init_backbone(corpus, tiny_config, train_run, tmp_path):
    out = tmp_path / "adopted"
    code = main(["train", "--data", str(corpus), "--out", str(out),
                 "--config", str(tiny_config),
                 "--init-backbone", str(train_run / "final.ckpt"),
                 "--train.epochs_phase1", "0", "--train.epochs_phase2", "0"])
    assert code == 0
    adopted = load_checkpoint(out / "final.ckpt")
    donor_params = load_checkpoint(train_run / "final.ckpt").named_parameters()
    for name, param in adopted.named_parameters().items():
        if name.startswith("backbone."):
            assert np.array_equal(param.data, donor_params[name].data), name


# -- evaluate -------------------------------------------------------------------------


def test_evaluate_reproduces_train_test_metrics(corpus, tiny_config, train_run, tmp_path):
    out = tmp_path / "eval"
    code = main(["evaluate", "--data", str(corpus),
                 "--checkpoint", str(train_run / "best.ckpt"),
                 "--out", str(out), "--split", "test",
                 "--split-manifest", str(train_run / "split.json"),
                 "--config", str(tiny_config)])
    assert code == 0
    evaluated = json.loads((out / "metrics.json").read_text())
    trained = json.loads((train_run / "metrics.json").read_text())
    assert evaluated["accuracy"] == trained["accuracy"]
    assert evaluated["classes"] == trained["classes"]
    assert (out / "report.txt").read_text() == (train_run / "report.txt").read_text()


def test_evaluate_names_an_empty_split(four_per_class, train_run, tmp_path, capsys):
    # the row evaluate-val-split-empty holds the contract; here, each split is named
    for split in ("val", "test"):
        code = main(["evaluate", "--data", str(four_per_class),
                     "--checkpoint", str(train_run / "best.ckpt"),
                     "--out", str(tmp_path / split), "--split", split])
        assert code == 2
        assert f"'{split}' split has 0 of the 12 samples" in capsys.readouterr().err


def test_evaluate_missing_checkpoint_fails(corpus, tmp_path, capsys):
    # the row evaluate-checkpoint-missing holds the contract; here, the path is named
    missing = tmp_path / "nope.ckpt"
    code = main(["evaluate", "--data", str(corpus), "--checkpoint", str(missing),
                 "--out", str(tmp_path / "e")])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_evaluate_split_manifest_ignores_data_root_spelling(corpus, tiny_config, tmp_path,
                                                            monkeypatch):
    monkeypatch.chdir(corpus.parent)
    run = tmp_path / "run"
    assert main(["train", "--data", corpus.name, "--out", str(run),
                 "--config", str(tiny_config)]) == 0
    out = tmp_path / "eval"
    code = main(["evaluate", "--data", os.path.join(".", corpus.name),
                 "--checkpoint", str(run / "best.ckpt"), "--out", str(out),
                 "--split-manifest", str(run / "split.json"), "--config", str(tiny_config)])
    assert code == 0
    evaluated = json.loads((out / "metrics.json").read_text())
    trained = json.loads((run / "metrics.json").read_text())
    assert evaluated["accuracy"] == trained["accuracy"]


# -- sweep ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_run(corpus, tiny_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    code = main(["sweep", "--data", str(corpus), "--out", str(out),
                 "--config", str(tiny_config),
                 "--train.epochs_phase1", "1", "--train.epochs_phase2", "0"])
    assert code == 0
    return out


def test_sweep_outputs(sweep_run):
    rows = (sweep_run / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 8  # header + 7 head variants
    doc = json.loads((sweep_run / "sweep.json").read_text())
    assert len(doc["rows"]) == 7
    pairs = [(r["neurons"], r["hidden_layers"]) for r in doc["rows"]]
    assert pairs == [(32, 1), (32, 2), (64, 1), (64, 2), (128, 1), (128, 2), (128, 3)]
    best = doc["best"]
    assert (best["neurons"], best["hidden_layers"]) in pairs
    # best has the maximum validation accuracy
    assert best["val_acc"] == max(r["val_acc"] for r in doc["rows"])
    for neurons, layers in pairs:
        assert (sweep_run / "logs" / f"{neurons}x{layers}.csv").exists()


def test_sweep_trains_with_the_config_dropout(corpus, tiny_config, tmp_path, monkeypatch):
    class Stop(Exception):
        pass

    def capture(*args, head_config=None, **kwargs):
        raise Stop(head_config)

    monkeypatch.setattr("maskdetect.cli.sweep", capture)
    with pytest.raises(Stop) as stop:
        main(["sweep", "--data", str(corpus), "--out", str(tmp_path / "sweep"),
              "--config", str(tiny_config), "--head.dropout_rate", "0.125"])
    assert stop.value.args[0].dropout_rate == 0.125


def test_sweep_marks_best_row(corpus, tiny_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--data", str(corpus), "--out", str(out),
                 "--config", str(tiny_config),
                 "--train.epochs_phase1", "1", "--train.epochs_phase2", "0"])
    assert code == 0
    stdout = capsys.readouterr().out
    starred = [line for line in stdout.splitlines() if line.endswith("*")]
    assert len(starred) == 1
    doc = json.loads((out / "sweep.json").read_text())
    assert f"{doc['best']['neurons']:4d} neurons" in starred[0]


# -- detect ---------------------------------------------------------------------------


def test_detect_writes_sorted_boxes(scene, tmp_path):
    out = tmp_path / "boxes.json"
    code = main(["detect", "--image", str(scene), "--cascade", FIXTURE_XML,
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["boxes"]) >= 1
    scores = [b["score"] for b in doc["boxes"]]
    assert scores == sorted(scores, reverse=True)
    box = doc["boxes"][0]
    assert set(box) == {"x", "y", "w", "h", "score"}
    assert doc["params"]["min_neighbors"] == 3


def test_detect_xml_and_json_cascades_agree(scene, tmp_path):
    json_cascade = tmp_path / "cascade.json"
    save_cascade_json(load_cascade_xml(FIXTURE_XML), json_cascade)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["detect", "--image", str(scene), "--cascade", FIXTURE_XML,
                 "--out", str(out_a)]) == 0
    assert main(["detect", "--image", str(scene), "--cascade", str(json_cascade),
                 "--out", str(out_b)]) == 0
    boxes = json.loads(out_a.read_text())["boxes"]
    assert boxes and boxes == json.loads(out_b.read_text())["boxes"]


def test_detect_no_faces_is_success(blank_scene, tmp_path):
    out = tmp_path / "boxes.json"
    assert main(["detect", "--image", str(blank_scene), "--cascade", FIXTURE_XML,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["boxes"] == []


def test_detect_override_params(scene, tmp_path):
    out = tmp_path / "boxes.json"
    assert main(["detect", "--image", str(scene), "--cascade", FIXTURE_XML,
                 "--out", str(out), "--detect.min_neighbors", "1",
                 "--detect.step", "3"]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["min_neighbors"] == 1
    assert doc["params"]["step"] == 3

def test_detect_scale_factor_past_the_float_range_ends_the_pyramid(tmp_path, capsys):
    # at 1e308 the second scale's window overflows to infinity; it fits no
    # image, so the pyramid holds one scale, as at 1e300
    image = tmp_path / "wide.ppm"
    save_ppm(np.full((120, 160, 3), 90, np.uint8), image)
    docs = []
    for factor in ("1e300", "1e308"):
        out = tmp_path / f"boxes-{factor}.json"
        assert main(["detect", "--image", str(image), "--cascade", FIXTURE_XML,
                     "--out", str(out), "--detect.scale_factor", factor]) == 0
        docs.append(json.loads(out.read_text()))
    assert "Traceback" not in capsys.readouterr().err
    assert docs[0]["boxes"] == docs[1]["boxes"]


# -- annotate -------------------------------------------------------------------------


def test_annotate_draws_classified_boxes(scene, train_run, tmp_path):
    out = tmp_path / "annotated.ppm"
    code = main(["annotate", "--image", str(scene), "--cascade", FIXTURE_XML,
                 "--checkpoint", str(train_run / "best.ckpt"), "--out", str(out)])
    assert code == 0
    doc = json.loads((tmp_path / "annotated.json").read_text())
    assert len(doc["faces"]) == 1  # the scene contains exactly one target
    face = doc["faces"][0]
    assert face["class"] in LABEL_NAMES
    assert 1.0 / 3.0 <= face["confidence"] <= 1.0

    original = load_ppm(scene)
    annotated = load_ppm(out)
    box = face["box"]
    x, y, w, h = box["x"], box["y"], box["w"], box["h"]
    color = np.array(CLASS_COLORS[LABEL_NAMES.index(face["class"])], np.uint8)
    # border bands take the class colour, and stay inside the box bounds
    assert np.all(annotated[y, x:x + w] == color)
    assert np.all(annotated[y + h - 1, x:x + w] == color)
    assert np.all(annotated[y:y + h, x] == color)
    assert np.all(annotated[y:y + h, x + w - 1] == color)
    changed = np.argwhere((annotated != original).any(axis=2))
    assert changed[:, 0].min() >= y and changed[:, 0].max() <= y + h - 1
    assert changed[:, 1].min() >= x and changed[:, 1].max() <= x + w - 1
    # interior beyond the 2-pixel band is untouched
    assert np.array_equal(annotated[y + 2:y + h - 2, x + 2:x + w - 2],
                          original[y + 2:y + h - 2, x + 2:x + w - 2])


def test_annotate_classifies_in_batches_of_the_batch_size(train_run, tmp_path):
    image = np.full((48, 176, 3), 128, np.uint8)
    for x in (20, 76, 132):  # three targets like the one in ``scene``
        image[10:22, x:x + 24] = 210
        image[22:34, x:x + 24] = 40
    save_ppm(image, tmp_path / "three.ppm")
    docs = []
    for batch_size in ("1", "2", "64"):
        out = tmp_path / f"batch-{batch_size}.ppm"
        assert main(["annotate", "--image", str(tmp_path / "three.ppm"), "--cascade", FIXTURE_XML,
                     "--checkpoint", str(train_run / "best.ckpt"), "--out", str(out),
                     "--train.batch_size", batch_size]) == 0
        docs.append(json.loads(out.with_suffix(".json").read_text()))
    assert len(docs[0]["faces"]) == 3
    assert docs[0] == docs[1] == docs[2]


def test_annotate_no_faces_copies_image(blank_scene, train_run, tmp_path):
    out = tmp_path / "annotated.ppm"
    json_out = tmp_path / "faces.json"
    code = main(["annotate", "--image", str(blank_scene), "--cascade", FIXTURE_XML,
                 "--checkpoint", str(train_run / "best.ckpt"),
                 "--out", str(out), "--json-out", str(json_out)])
    assert code == 0
    assert json.loads(json_out.read_text())["faces"] == []
    assert np.array_equal(load_ppm(out), load_ppm(blank_scene))


def test_an_empty_backbone_section_trains_the_desk_backbone_that_annotate_reads(
        corpus, scene, tmp_path):
    # a zero-epoch train whose config gives the backbone as {} runs the default
    # (desk, 75 px) backbone, echoes it without branch widths and writes a
    # format-4 checkpoint; annotate run twice on it writes the same JSON bytes
    config = tmp_path / "empty-backbone.json"
    config.write_text('{"backbone": {}}')
    run = tmp_path / "r"
    assert main(["train", "--data", str(corpus), "--out", str(run), "--config", str(config),
                 *NO_EPOCHS]) == 0
    echo = json.loads((run / "config.json").read_text())
    assert echo["backbone"]["input_size"] == 75, echo["backbone"]
    assert "widths" not in echo["backbone"], echo["backbone"]
    assert read_header(run / "final.ckpt")["format_version"] == 4
    annotate = ["annotate", "--image", str(scene), "--cascade", FIXTURE_XML,
                "--checkpoint", str(run / "final.ckpt"), "--detect.min_neighbors", "0"]
    for name in ("annotated", "again"):
        assert main(annotate + ["--out", str(tmp_path / f"{name}.ppm")]) == 0
    assert (tmp_path / "annotated.json").read_bytes() == (tmp_path / "again.json").read_bytes()
    assert json.loads((tmp_path / "annotated.json").read_text())["faces"], "no face classified"


# -- drawing and classification helpers -----------------------------------------------


def test_draw_rectangle_stays_inside_box():
    image = np.zeros((20, 20, 3), np.uint8)
    draw_rectangle(image, 3, 2, 10, 8, (255, 0, 0))
    changed = np.argwhere((image != 0).any(axis=2))
    assert changed[:, 0].min() == 2 and changed[:, 0].max() == 9
    assert changed[:, 1].min() == 3 and changed[:, 1].max() == 12
    # interior untouched
    assert np.all(image[4:8, 5:11] == 0)


def test_draw_rectangle_clips_at_edges():
    image = np.zeros((10, 10, 3), np.uint8)
    draw_rectangle(image, -4, -4, 8, 8, (0, 255, 0))
    # the visible 4x4 quadrant is all border band; nothing painted beyond it
    assert np.all(image[0:4, 0:4] == (0, 255, 0))
    assert not image[4:, :].any() and not image[:, 4:].any()
    draw_rectangle(image, 8, 8, 20, 20, (0, 255, 0))
    assert np.all(image[8:, 8:] == (0, 255, 0))  # clipped corner


def test_draw_rectangle_fully_outside_is_noop():
    image = np.zeros((10, 10, 3), np.uint8)
    draw_rectangle(image, 50, 50, 5, 5, (255, 255, 255))
    assert not image.any()


def test_draw_rectangle_tiny_box_fills():
    image = np.zeros((10, 10, 3), np.uint8)
    draw_rectangle(image, 4, 4, 3, 3, (9, 9, 9))
    assert np.all(image[4:7, 4:7] == 9)


def test_classify_crop_rejects_outside_box(train_run):
    model = load_checkpoint(train_run / "best.ckpt")
    image = np.zeros((30, 30, 3), np.uint8)
    with pytest.raises(InputError):
        classify_crop(model, image, [DetectionBox(40, 40, 10, 10, 1.0)])


def test_classify_crop_returns_distribution(train_run):
    model = load_checkpoint(train_run / "best.ckpt")
    image = np.full((40, 40, 3), 90, np.uint8)
    ((klass, confidence),) = classify_crop(model, image, [DetectionBox(5, 5, 24, 24, 1.0)])
    assert klass in (0, 1, 2)
    assert 1.0 / 3.0 - 1e-9 <= confidence <= 1.0


def test_classify_crop_gives_each_box_of_a_batch_its_own_bits(train_run):
    model = load_checkpoint(train_run / "best.ckpt")
    image = np.random.default_rng(3).integers(0, 256, size=(40, 50, 3), dtype=np.uint8)
    boxes = [DetectionBox(0, 0, 20, 20, 1.0), DetectionBox(5, 7, 31, 24, 1.0),
             DetectionBox(30, 20, 30, 30, 1.0)]  # the last one clipped to the image
    assert classify_crop(model, image, boxes) == [
        label for box in boxes for label in classify_crop(model, image, [box])]
    assert classify_crop(model, image, []) == []


# -- the refusal contract ---------------------------------------------------------------
#
# Every refusal ends one way: main() returns the code the README's "Exit codes"
# gives, stderr is one "error: " line with no traceback, and no --out or
# --json-out path exists.  Two forms take more lines: argparse prints its usage
# before "maskdetect[ COMMAND]: error: ...", and a run config's problems follow
# "error: config validation failed:" one indented line each.  Each row runs in
# its own working directory, which must hold the same entries afterwards.


def refusal(command, args, code, *fragments, absent=()):
    """A row: ``args`` builds the argv after ``command`` (None: the top-level
    parser) from an :class:`Inputs`; each of ``fragments`` must appear in
    stderr, and none of ``absent``."""
    return SimpleNamespace(command=command, args=args, code=code, fragments=fragments,
                           absent=absent)


def _ckpt(header, payload=bytes(4)) -> bytes:
    """A checkpoint file around ``header`` (bytes, or a JSON value)."""
    body = header if isinstance(header, bytes) else json.dumps(header).encode()
    return b"MPC1" + struct.pack("<I", len(body)) + body + payload


class Inputs:
    """What a row's argv is built from: the module fixtures, and files written
    into the working directory.  An option that ``extra`` gives again
    overrides the default one, since argparse keeps the last."""

    def __init__(self, corpus, four_per_class, tiny_config, train_run, scene):
        self.corpus, self.four, self.config = str(corpus), str(four_per_class), str(tiny_config)
        self.ckpt, self.manifest = str(train_run / "best.ckpt"), train_run / "split.json"
        self.scene = str(scene)

    @staticmethod
    def file(name, data=b"") -> str:
        """``name`` holding ``data`` (bytes, text or a JSON value); a name
        ending in "/" is made an empty directory."""
        if name.endswith("/"):
            os.mkdir(name)
        else:
            text = data if isinstance(data, (bytes, str)) else json.dumps(data)
            Path(name).write_bytes(text.encode() if isinstance(text, str) else text)
        return name.rstrip("/")

    def broken(self, case, name, wrong):
        """``name`` missing, as a directory, empty, or holding ``wrong``."""
        if case == "missing":
            return name
        return self.file(name + "/" if case == "directory" else name,
                         wrong if case == "wrong-type" else b"")

    def train(self, *extra):
        return ["--data", self.corpus, "--out", "out", "--config", self.config, *extra]

    sweep = train

    def evaluate(self, *extra):
        return ["--data", self.corpus, "--checkpoint", self.ckpt, "--out", "out", *extra]

    def detect(self, *extra):
        return ["--image", self.scene, "--cascade", FIXTURE_XML, "--out", "out", *extra]

    def best(self, old, new) -> str:
        """best.ckpt with ``old`` in its header replaced by ``new``."""
        raw = Path(self.ckpt).read_bytes()
        (hlen,) = struct.unpack("<I", raw[4:8])
        return self.file("bad.ckpt", _ckpt(raw[8:8 + hlen].replace(old, new), raw[8 + hlen:]))

    def crafted(self, kind, text):
        """evaluate reading a ``kind`` of JSON file whose seed is ``text``."""
        if kind == "checkpoint":
            return self.evaluate("--checkpoint",
                                 self.best(b'"seed":3', b'"seed":' + text.encode()))
        flag = "--config" if kind == "config" else "--split-manifest"
        return self.evaluate(flag, self.file("c.json", '{"seed": ' + text + "}"))

    @staticmethod
    def wide() -> str:
        """A checkpoint whose backbone is twice as wide as the tiny one."""
        wide = BackboneConfig.from_dict(dict(TINY_CONFIG["backbone"], width_mult=0.5))
        save_checkpoint(build_model(wide, HeadConfig(), seed=0), "wide.ckpt")
        return "wide.ckpt"

    def infinite_threshold(self) -> str:
        """The fixture cascade as JSON, its first stage threshold Infinity."""
        save_cascade_json(load_cascade_xml(FIXTURE_XML), "inf.json")
        text = Path("inf.json").read_text()
        return self.file("inf.json", re.sub(r'("stage_threshold": )[^,]*', r"\1Infinity", text,
                                            count=1))

    @staticmethod
    def same_file(out, json_out):
        """annotate onto one file twice, beside sub/ and a symlink link to it;
        no input exists, so the refusal comes before any file is read."""
        os.mkdir("sub")
        os.symlink("sub", "link")
        return (["--image", "none.ppm", "--cascade", "none.xml", "--checkpoint", "none.ckpt",
                 "--out", out] + (["--json-out", json_out] if json_out else []))


HUGE = "1" + "0" * 400  # an integer past the float range
CRAFTED_JSON = {"deep-array": "[" * 100_000 + "]" * 100_000, "long-integer": "1" * 5000}
BAD_CONFIGS = [
    ({"train": {"batch_size": "16"}}, "train.batch_size"),
    ({"train": {"augment": {"zoom_range": 5}}}, "train.augment.zoom_range"),
    ({"backbone": {"stem_channels": 5}}, "backbone.stem_channels"),
    ({"train": {"augment": {"rotation_max_deg": "a"}}}, "train.augment.rotation_max_deg"),
    ({"head": {"hidden_units": None}}, "head.hidden_units"),
    ({"data": {"ratios": "abc"}}, "data.ratios"),
    ({"data": {"split_seed": "x"}}, "data.split_seed"),
    ({"train": {"seed": 1.5}}, "train.seed"),
    ({"detect": {"step": "2"}}, "detect.step"),
    ({"train": {"epochs_phase1": True}}, "train.epochs_phase1"),
]
# per file kind: the command and flag that read it, a file name, content of the
# wrong JSON type, then (code, fragment) for the file missing, a directory,
# empty and of the wrong type; for --data a directory is an empty one
BROKEN_FILES = [
    ("config", "detect", "--config", "c.json", [1], (2, "cannot read config file"),
     (2, "cannot read config file"), (2, "invalid JSON"), (2, "top level must be a JSON object")),
    ("manifest", "evaluate", "--split-manifest", "m.json", [1], (1, "No such file or directory"),
     (1, "Is a directory"), (2, "split manifest is not valid JSON"),
     (2, "manifest: expected an object")),
    *[(kind, command, flag, "c.ckpt", _ckpt([1]), (1, "cannot read checkpoint"),
       (1, "cannot read checkpoint"), (1, "bad magic bytes"), (1, "header must be a JSON object"))
      for kind, command, flag in (("checkpoint", "evaluate", "--checkpoint"),
                                  ("init-backbone", "train", "--init-backbone"))],
    ("xml-cascade", "detect", "--cascade", "c.xml", None, (1, "cannot parse XML"),
     (1, "Is a directory"), (1, "cannot parse XML"), None),
    ("json-cascade", "detect", "--cascade", "c.json", [1], (1, "cannot read"),
     (1, "Is a directory"), (1, "not valid JSON"), (1, "cascade: expected an object")),
    ("ppm", "detect", "--image", "i.ppm", None, (1, "No such file or directory"),
     (1, "Is a directory"), (1, "expected magic 'P6' at byte 0"), None),
    ("data", "train", "--data", "d", None, (2, "dataset root is not a directory"),
     (2, "no samples found"), (2, "dataset root is not a directory"), None),
]
# checkpoint headers asking for a 9-unit stem, and for the largest head
STEM9 = {"format_version": 4, "seed": 0, "head": {},
         "backbone": {"stem_channels": [1024] * 9, "stem_strides": [1] * 9},
         "entries": [{"name": "w", "kind": "param", "shape": [1], "dtype": "f32", "offset": 0}]}
HEAD_4096X8 = {**STEM9, "backbone": {}, "head": {"hidden_units": 4096, "hidden_layers": 8}}
VAL_EMPTY = "'val' split has 0 of the 12 samples"

REFUSALS = {
    # the parsers
    "no-command": refusal(None, lambda f: [], 2, "the following arguments are required: COMMAND"),
    "unknown-command": refusal(None, lambda f: ["frobnicate"], 2, "invalid choice: 'frobnicate'"),
    "train-unknown-flag": refusal("train", lambda f: [
        "--data", "x", "--out", "y", "--no-such-flag", "1"], 2,
        "unrecognized arguments: --no-such-flag 1"),
    "train-width-flag": refusal("train", lambda f: f.train(
        *NO_EPOCHS, "--backbone.widths.b1x1", "8"), 2,
        "unrecognized arguments: --backbone.widths.b1x1 8"),
    # scan, synth and the size of a run
    "scan-missing-root": refusal("scan", lambda f: ["nope", "--out", "out"], 2, "nope"),
    "synth-size-past-its-cap": refusal("synth", lambda f: [
        "--n", "1", "--size", "1000000", "--out", "out"], 2, "image_size must be"),
    "synth-n-past-its-cap": refusal("synth", lambda f: [
        "--n", "1000000", "--size", "16", "--out", "out"], 2, "n_per_class must be"),
    "train-test-split-empty": refusal("train", lambda f: f.train("--data", f.four), 2,
                                      "'test' split has 0 of the 12 samples"),
    "train-val-split-empty": refusal("train", lambda f: f.train("--data", f.four, "--config", (
        f.file("c.json", {**TINY_CONFIG, "data": {"ratios": [0.75, 0.0, 0.25]}}))), 2, VAL_EMPTY),
    "sweep-val-split-empty": refusal("sweep", lambda f: f.sweep("--data", f.four), 2, VAL_EMPTY),
    "evaluate-val-split-empty": refusal("evaluate", lambda f: f.evaluate(
        "--data", f.four, "--split", "val"), 2, VAL_EMPTY),
    "evaluate-unknown-split": refusal("evaluate", lambda f: f.evaluate("--split", "holdout"), 2,
                                      "holdout"),
    "sweep-no-epochs": refusal("sweep", lambda f: f.sweep(*NO_EPOCHS), 2, "epochs_phase1",
                               "epochs_phase2"),
    # each file kind missing, a directory, empty and of the wrong JSON type
    **{f"{command}-{kind}-{case}": refusal(
        command, lambda f, command=command, flag=flag, case=case, name=name, wrong=wrong:
        getattr(f, command)(flag, f.broken(case, name, wrong)), *want)
       for kind, command, flag, name, wrong, *wants in BROKEN_FILES
       for case, want in zip(("missing", "directory", "empty", "wrong-type"), wants) if want},
    # the run config: its problems, and the flags that lie over it
    "train-config-invalid-json": refusal("train", lambda f: f.train("--config", f.file(
        "c.json", "{nope")), 2, "invalid JSON"),
    "train-config-not-utf8": refusal("train", lambda f: f.train("--config", f.file(
        "c.json", b"\xff\xfe{}")), 2, "invalid JSON"),
    "train-config-unknown-keys": refusal("train", lambda f: f.train("--config", f.file(
        "c.json", {"train": {"epochz": 1}, "bogus": {"x": 2}})), 2, "train.epochz", "bogus"),
    "detect-config-unknown-key-and-wrong-type": refusal("detect", lambda f: f.detect(
        "--config", f.file("c.json", {"train": {"epochz": 1}, "detect": {"step": "2"}}),
        "--detect.min_size", "big"), 2, "unknown config key: train.epochz",
        "detect.step: expected an integer", "--detect.min_size: expected an integer, got 'big'"),
    "train-config-unfreeze-past-the-blocks": refusal("train", lambda f: f.train("--config", f.file(
        "c.json", {"backbone": {"num_blocks": 2, "factorized_blocks": [2]},
                   "train": {"unfreeze_last_k": 9}})), 2,
        "train.unfreeze_last_k=9 exceeds backbone.num_blocks=2"),
    "train-config-ratios-and-unfreeze": refusal("train", lambda f: f.train("--config", f.file(
        "c.json", {"data": {"ratios": [0.5, 0.5, 0.5]}, "train": {"unfreeze_last_k": 9}})), 2,
        "data: ratios must sum to 1", "train.unfreeze_last_k=9 exceeds backbone.num_blocks=4"),
    "train-config-number-past-the-float-range": refusal("train", lambda f: f.train(
        "--config", f.file("c.json", '{"train": {"lr_phase1": ' + HUGE + "}}")), 2,
        "train.lr_phase1: number out of range", absent=("0" * 50,)),
    "detect-flag-number-past-the-float-range": refusal("detect", lambda f: f.detect(
        "--detect.min_size", HUGE), 2, "detect.min_size: number out of range", absent=("0" * 50,)),
    "train-flag-model-size-past-its-bound": refusal("train", lambda f: f.train(
        "--backbone.input_size", "1" + "0" * 30), 2, "config validation failed",
        "backbone: input_size must be in [8, 1024]"),
    "train-flag-value-not-a-number": refusal("train", lambda f: f.train(
        "--train.batch_size", "not_a_number"), 2, "train.batch_size"),
    "train-flag-into-a-disabled-section": refusal("train", lambda f: f.train("--config", f.file(
        "c.json", {"train": {"augment": None}}), "--train.augment.rotation_max_deg", "5"), 2,
        "disabled"),
    **{f"{command}-config-{named}": refusal(command, lambda f, command=command, config=config:
        getattr(f, command)("--config", f.file("c.json", config)), 2, "config validation failed",
        named)
       for command in ("train", "detect") for config, named in BAD_CONFIGS},
    # JSON past the decoder's limits, and what a reader refuses in well-formed files
    **{f"evaluate-{kind}-{inner}": refusal("evaluate", lambda f, kind=kind, text=text: f.crafted(
        kind, text), code, message)
       for kind, code, message in (("config", 2, "invalid JSON"),
                                   ("manifest", 2, "split manifest is not valid JSON"),
                                   ("checkpoint", 1, "header is not valid JSON"))
       for inner, text in CRAFTED_JSON.items()},
    "evaluate-manifest-unknown-key": refusal("evaluate", lambda f: f.evaluate(
        "--split-manifest", f.file("m.json", {**json.loads(f.manifest.read_text()),
                                              "bogus_key": 1})), 2,
        "unknown manifest key: bogus_key"),
    "evaluate-checkpoint-zero-blocks": refusal("evaluate", lambda f: f.evaluate(
        "--checkpoint", f.best(b'"num_blocks":2', b'"num_blocks":0')), 1, "num_blocks"),
    "evaluate-checkpoint-stem-channel-zero": refusal("evaluate", lambda f: f.evaluate(
        "--checkpoint", f.best(b'"stem_channels":[8,8,16]', b'"stem_channels":[8,0,16]')), 1,
        "stem_channels"),
    "evaluate-checkpoint-stem-9-units": refusal("evaluate", lambda f: f.evaluate(
        "--checkpoint", f.file("s.ckpt", _ckpt(STEM9))), 1, "at most 8 units"),
    "evaluate-checkpoint-head-4096x8": refusal("evaluate", lambda f: f.evaluate(
        "--checkpoint", f.file("h.ckpt", _ckpt(HEAD_4096X8))), 1, "entry 0: name is 'w'"),
    **{f"{command}-init-backbone-mismatched": refusal(command, lambda f, command=command:
        getattr(f, command)("--init-backbone", f.wide()), 1, "has shape")
       for command in ("train", "sweep")},
    "detect-xml-cascade-malformed": refusal("detect", lambda f: f.detect("--cascade", f.file(
        "c.xml", "<opencv_storage><cascade></cascade></opencv_storage>")), 1,
        "/opencv_storage/cascade"),
    "detect-json-cascade-infinite-threshold": refusal("detect", lambda f: f.detect(
        "--cascade", f.infinite_threshold()), 1, "stages[0].stage_threshold: "),
    "detect-ppm-4mb-header-token": refusal("detect", lambda f: f.detect("--image", f.file(
        "i.ppm", b"P6\n" + b"9" * 4_000_000 + b"x 1\n255\n")), 1, "expected width at byte 3"),
    "detect-scale-factor-near-one": refusal("detect", lambda f: f.detect(  # ~200k scales
        "--image", f.file("i.ppm", b"P6\n24 24\n255\n" + bytes([90]) * 24 * 24 * 3),
        "--detect.scale_factor", "1.0000001"), 2, "scale_factor"),
    **{f"annotate-same-file-{out}-{json_out}": refusal(
        "annotate", lambda f, out=out, json_out=json_out: f.same_file(out, json_out), 2,
        "the --json-out file would overwrite the --out image")
       for out, json_out in [("faces.json", None), ("a.ppm", "a.ppm"),
                             ("./a.ppm", "a.ppm"),          # compared as resolved paths
                             ("sub/../a.ppm", "./a.ppm"),
                             ("link/a.ppm", "sub/a.ppm")]},  # one file through a symlink
}


@pytest.fixture
def inputs(corpus, four_per_class, tiny_config, train_run, scene):
    return Inputs(corpus, four_per_class, tiny_config, train_run, scene)


@pytest.mark.parametrize("name", REFUSALS)
def test_a_refusal_keeps_the_contract(name, inputs, tmp_path, monkeypatch, capsys):
    row = REFUSALS[name]
    monkeypatch.chdir(tmp_path)
    argv = ([row.command] if row.command else []) + row.args(inputs)
    before = sorted(tmp_path.rglob("*"))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == row.code, err
    lines = err.splitlines()
    if lines[0].startswith("usage: "):  # argparse: its usage, then "<prog>: error: ..."
        prog, _, error = lines[-1].partition(": ")
        assert prog.startswith("maskdetect") and all(line.startswith(" ") for line in lines[1:-1])
        lines = [error]
    elif lines[0] == "error: config validation failed:":
        assert all(line.startswith("  ") for line in lines[1:]), err
        assert err.count("config validation failed") == 1
        lines = lines[:1]
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err
    assert all(fragment in err for fragment in row.fragments), err
    assert not any(fragment in err for fragment in row.absent)
    outputs = [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in ("--out", "--json-out")]
    assert not any(os.path.lexists(path) for path in outputs)
    assert sorted(tmp_path.rglob("*")) == before


def test_every_subcommand_has_a_refusal_and_every_refusal_a_subcommand():
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert {row.command for row in REFUSALS.values()} - {None} == set(commands)
