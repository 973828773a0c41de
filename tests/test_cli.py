"""End-to-end tests for the command-line interface.

Every test drives ``main()`` in process and checks exit codes, stderr
routing, and the files each command leaves behind.  Runs use a tiny
32-pixel model so the whole module stays fast.
"""

import json
import os
import shutil
import signal
import struct
import subprocess
import sys

import numpy as np
import pytest

from maskdetect.checkpoint import load_checkpoint, save_checkpoint
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


def test_missing_command_returns_two():
    assert main([]) == 2


def test_unknown_command_returns_two():
    assert main(["frobnicate"]) == 2


def test_unknown_flag_returns_two():
    assert main(["train", "--data", "x", "--out", "y", "--no-such-flag", "1"]) == 2


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


def test_scan_missing_root_exits_two(tmp_path, capsys):
    code = main(["scan", str(tmp_path / "nope"), "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "nope" in err


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


def test_synth_past_its_caps_exits_two_before_any_output(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["synth", "--n", "1", "--size", "1000000", "--out", str(out)]) == 2
    assert main(["synth", "--n", "1000000", "--size", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "image_size must be" in err and "n_per_class must be" in err
    assert not out.exists()


# -- empty splits -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def four_per_class(tmp_path_factory):
    """12 images: at the default ratios the val and test splits are empty."""
    root = tmp_path_factory.mktemp("four")
    synth_dataset(4, 32, seed=1, out_dir=root)
    return root


def test_train_refuses_an_empty_test_split_before_training(four_per_class, tiny_config,
                                                           tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--data", str(four_per_class), "--out", str(out),
                 "--config", str(tiny_config)])
    assert code == 2
    assert "'test' split has 0 of the 12 samples" in capsys.readouterr().err
    assert not (out / "logs.csv").exists() and not (out / "final.ckpt").exists()


def test_train_refuses_an_empty_val_split_unless_no_epoch_runs(four_per_class, tmp_path,
                                                               capsys):
    config = json.loads(json.dumps(TINY_CONFIG))
    config["data"] = {"ratios": [0.75, 0.0, 0.25]}  # 3 train, 0 val, 1 test per class
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    argv = ["train", "--data", str(four_per_class), "--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 2
    assert "'val' split has 0 of the 12 samples" in capsys.readouterr().err
    assert not (tmp_path / "a" / "logs.csv").exists()
    assert main(argv + ["--out", str(tmp_path / "b"), "--train.epochs_phase1", "0",
                        "--train.epochs_phase2", "0"]) == 0


def test_evaluate_names_an_empty_split(four_per_class, train_run, tmp_path, capsys):
    code = main(["evaluate", "--data", str(four_per_class),
                 "--checkpoint", str(train_run / "best.ckpt"),
                 "--out", str(tmp_path / "e"), "--split", "val"])
    assert code == 2
    assert "'val' split has 0 of the 12 samples" in capsys.readouterr().err


def test_sweep_with_no_epochs_exits_two_before_any_output(corpus, tiny_config, tmp_path,
                                                          capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--data", str(corpus), "--out", str(out),
                 "--config", str(tiny_config),
                 "--train.epochs_phase1", "0", "--train.epochs_phase2", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "epochs_phase1" in err and "epochs_phase2" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, data, patch, extra, message", [
    ("train", "four", {}, [], "'test' split has 0"),
    ("train", "four", {"data": {"ratios": [0.75, 0.0, 0.25]}}, [], "'val' split has 0"),
    ("train", "corpus", {}, ["--init-backbone", "missing.ckpt"], "cannot read checkpoint"),
    ("train", "corpus", {}, ["--init-backbone", "wide.ckpt"], "has shape"),
    ("sweep", "four", {}, [], "'val' split has 0"),
    ("sweep", "corpus", {}, ["--init-backbone", "wide.ckpt"], "has shape"),
    ("evaluate", "four", {}, ["--checkpoint", "best.ckpt", "--split", "val"], "'val' split has 0"),
    ("evaluate", "corpus", {}, ["--checkpoint", "missing.ckpt"], "cannot read checkpoint"),
], ids=["train-test-split", "train-val-split", "train-missing-backbone",
        "train-mismatched-backbone", "sweep-val-split", "sweep-mismatched-backbone",
        "evaluate-val-split", "evaluate-missing-checkpoint"])
def test_a_refused_run_creates_no_out_dir(command, data, patch, extra, message, corpus,
                                          four_per_class, train_run, tmp_path, capsys):
    config = json.loads(json.dumps(TINY_CONFIG))
    config.update(patch)
    (tmp_path / "c.json").write_text(json.dumps(config))
    wide = BackboneConfig.from_dict(dict(TINY_CONFIG["backbone"], width_mult=0.5))
    save_checkpoint(build_model(wide, HeadConfig(), seed=0), tmp_path / "wide.ckpt")
    files = {"missing.ckpt": tmp_path / "missing.ckpt", "wide.ckpt": tmp_path / "wide.ckpt",
             "best.ckpt": train_run / "best.ckpt"}
    out = tmp_path / "out"
    code = main([command, "--data", str(four_per_class if data == "four" else corpus),
                 "--out", str(out), "--config", str(tmp_path / "c.json")]
                + [str(files.get(arg, arg)) for arg in extra])
    assert code in (1, 2)
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_unknown_config_keys_all_listed(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"epochz": 1}, "bogus": {"x": 2}}))
    code = main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                 "--config", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "train.epochz" in err and "bogus" in err


def test_bad_flag_value_exits_two(corpus, tmp_path, capsys):
    code = main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                 "--train.batch_size", "not_a_number"])
    assert code == 2
    assert "train.batch_size" in capsys.readouterr().err


def test_invalid_config_json_exits_two(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                 "--config", str(bad)])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_config_not_utf8_exits_two(corpus, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code = main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                 "--config", str(bad)])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_flag_into_disabled_section_exits_two(corpus, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"augment": None}}))
    code = main(["train", "--data", str(corpus), "--out", str(tmp_path / "r"),
                 "--config", str(cfg),
                 "--train.augment.rotation_max_deg", "5"])
    assert code == 2
    assert "disabled" in capsys.readouterr().err


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


def test_train_missing_data_dir_exits_two(tiny_config, tmp_path):
    code = main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "r"), "--config", str(tiny_config)])
    assert code == 2


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


CRAFTED_JSON = {"deep-array": "[" * 100_000 + "]" * 100_000, "long-integer": "1" * 5000}


@pytest.mark.parametrize("inner", sorted(CRAFTED_JSON))
@pytest.mark.parametrize("kind, want_code, message", [
    ("config", 2, "invalid JSON"),
    ("manifest", 2, "split manifest is not valid JSON"),
    ("checkpoint", 1, "header is not valid JSON"),
], ids=["config", "manifest", "checkpoint"])
def test_crafted_json_files_exit_with_their_code(corpus, tiny_config, train_run, tmp_path,
                                                 capsys, kind, want_code, message, inner):
    bad = tmp_path / "bad"
    files = {"config": str(tiny_config), "manifest": str(train_run / "split.json"),
             "checkpoint": str(train_run / "best.ckpt")}
    if kind == "checkpoint":
        raw = (train_run / "best.ckpt").read_bytes()
        (hlen,) = struct.unpack("<I", raw[4:8])
        header = raw[8:8 + hlen].replace(b'"seed":3', b'"seed":' + CRAFTED_JSON[inner].encode())
        bad.write_bytes(raw[:4] + struct.pack("<I", len(header)) + header + raw[8 + hlen:])
    else:
        bad.write_text('{"seed": ' + CRAFTED_JSON[inner] + "}")
    files[kind] = str(bad)
    code = main(["evaluate", "--data", str(corpus), "--checkpoint", files["checkpoint"],
                 "--out", str(tmp_path / "e"), "--split-manifest", files["manifest"],
                 "--config", files["config"]])
    assert code == want_code
    assert message in capsys.readouterr().err


def test_evaluate_unknown_split_exits_two(corpus, train_run, tmp_path, capsys):
    code = main(["evaluate", "--data", str(corpus),
                 "--checkpoint", str(train_run / "best.ckpt"),
                 "--out", str(tmp_path / "e"), "--split", "holdout"])
    assert code == 2
    assert "holdout" in capsys.readouterr().err


def test_evaluate_bad_architecture_checkpoint_exits_one(corpus, train_run, tmp_path, capsys):
    raw = (train_run / "best.ckpt").read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    for key, value, named in (("num_blocks", 0, "num_blocks"),
                              ("stem_channels", [8, 0, 16], "stem_channels")):
        header = json.loads(raw[8:8 + hlen])
        header["backbone"][key] = value
        enc = json.dumps(header).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw[:4] + struct.pack("<I", len(enc)) + enc + raw[8 + hlen:])
        code = main(["evaluate", "--data", str(corpus), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "e")])
        assert code == 1
        assert named in capsys.readouterr().err


def test_evaluate_missing_checkpoint_fails(corpus, tmp_path):
    code = main(["evaluate", "--data", str(corpus),
                 "--checkpoint", str(tmp_path / "nope.ckpt"),
                 "--out", str(tmp_path / "e")])
    assert code in (1, 2)


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
    assert json.loads(out_a.read_text())["boxes"] == json.loads(out_b.read_text())["boxes"]


def test_detect_no_faces_is_success(blank_scene, tmp_path):
    out = tmp_path / "boxes.json"
    assert main(["detect", "--image", str(blank_scene), "--cascade", FIXTURE_XML,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["boxes"] == []


def test_detect_malformed_cascade_reports_element_path(scene, tmp_path, capsys):
    bad = tmp_path / "bad.xml"
    bad.write_text("<opencv_storage><cascade></cascade></opencv_storage>")
    code = main(["detect", "--image", str(scene), "--cascade", str(bad),
                 "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "/opencv_storage/cascade" in capsys.readouterr().err


def test_detect_override_params(scene, tmp_path):
    out = tmp_path / "boxes.json"
    assert main(["detect", "--image", str(scene), "--cascade", FIXTURE_XML,
                 "--out", str(out), "--detect.min_neighbors", "1",
                 "--detect.step", "3"]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["min_neighbors"] == 1
    assert doc["params"]["step"] == 3



def test_detect_scale_factor_near_one_exits_two(tmp_path, capsys):
    # the pyramid would need ~200k scales on this 24x24 image
    image = tmp_path / "small.ppm"
    save_ppm(np.full((24, 24, 3), 90, np.uint8), image)
    code = main(["detect", "--image", str(image), "--cascade", FIXTURE_XML,
                 "--out", str(tmp_path / "boxes.json"), "--detect.scale_factor", "1.0000001"])
    assert code == 2
    assert "scale_factor" in capsys.readouterr().err
    assert not (tmp_path / "boxes.json").exists()


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


@pytest.mark.parametrize("out, json_out", [
    ("faces.json", None),           # the default JSON path is --out with .json
    ("a.ppm", "a.ppm"),
    ("./a.ppm", "a.ppm"),           # compared as resolved paths
    ("sub/../a.ppm", "./a.ppm"),
    ("link/a.ppm", "sub/a.ppm"),    # the same file through a symlink
])
def test_annotate_same_path_for_both_outputs_exits_two(tmp_path, monkeypatch, capsys,
                                                      out, json_out):
    # the image, cascade and checkpoint do not exist: the refusal comes
    # before any file is read, and nothing is written
    monkeypatch.chdir(tmp_path)
    os.mkdir("sub")
    os.symlink("sub", "link")
    argv = ["annotate", "--image", "none.ppm", "--cascade", "none.xml",
            "--checkpoint", "none.ckpt", "--out", out]
    code = main(argv + (["--json-out", json_out] if json_out else []))
    assert code == 2
    assert "the --json-out file would overwrite the --out image" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["link", "sub"] and not os.listdir("sub")


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
