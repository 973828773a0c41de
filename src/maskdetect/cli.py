"""Command-line front end.

Seven subcommands cover the full workflow::

    maskdetect scan     ROOT [ROOT ...]   index a corpus, write a manifest
    maskdetect synth    --out DIR         generate a synthetic corpus
    maskdetect train    --data DIR        two-phase training run
    maskdetect sweep    --data DIR        classifier-head architecture sweep
    maskdetect evaluate --data DIR        score a checkpoint on one split
    maskdetect detect   --image F.ppm     face boxes from a sliding-window cascade
    maskdetect annotate --image F.ppm     detect + classify + draw boxes

Configuration is a JSON document shaped like :class:`RunConfig`, which
every command that takes ``--config`` reads whole.  Every scalar leaf can be
overridden on the command line with a dotted flag (``--train.batch_size 16``,
``--backbone.width_mult 0.5``); list-valued leaves (split ratios, stem widths,
zoom range) can only be changed through a config file.  Precedence is
flags > config file > built-in defaults, and the merged result is echoed
into the output location so every run records exactly what it ran with.

Exit codes: 0 success, 1 runtime failure (bad file contents, I/O), 2
usage or configuration error, 130 interrupted (Ctrl-C).  All error text
goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .cascade import (
    DetectParams,
    detect,
    load_cascade_json,
    load_cascade_xml,
    to_grayscale,
)
from .checkpoint import load_checkpoint, load_into, save_checkpoint
from .config import Config, parse_text, read_json, scalar_leaves, write_json
from .data import (
    LABEL_NAMES,
    SPLIT_NAMES,
    _require_split,
    apply_split_manifest,
    batches,
    check_split_ratios,
    load_ppm,
    normalize,
    resize_bilinear,
    save_ppm,
    save_split_manifest,
    scan_dataset,
    split_dataset,
    synth_dataset,
)
from .errors import (
    ConfigError,
    InputError,
    MaskDetectError,
    ParameterError,
    UsageError,
)
from .metrics import render_report
from .nn import BackboneConfig, HeadConfig, build_model, desk_backbone
from .tensor import Tensor
from .training import (
    EpochLog,
    TrainConfig,
    _require_sweep_epochs,
    _require_training_splits,
    evaluate,
    restore_state,
    sweep,
    two_phase_train,
    write_logs,
    write_sweep_csv,
    write_sweep_json,
)

# box colours per predicted class (with / without / incorrect)
CLASS_COLORS = {
    0: (0, 255, 0),
    1: (255, 0, 0),
    2: (255, 165, 0),
}
# width in pixels of each side of a drawn box
BOX_THICKNESS = 2

# error classes that indicate the *user* got something wrong -> exit 2
_USAGE_ERRORS = (ConfigError, UsageError, InputError, ParameterError)


# ---------------------------------------------------------------------------
# run configuration: one dataclass; the config file, then flags, lie over its defaults
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataSection(Config):
    layout: str = "native"
    split_seed: int = 0
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)

    def validate(self) -> None:
        check_split_ratios(self.ratios)


@dataclass(frozen=True)
class RunConfig(Config):
    """Everything one command reads; the JSON config file has this shape."""

    data: DataSection = field(default_factory=DataSection)
    backbone: BackboneConfig = field(default_factory=desk_backbone)
    head: HeadConfig = field(default_factory=HeadConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    detect: DetectParams = field(default_factory=DetectParams)

    def validate(self) -> None:
        k, blocks = self.train.unfreeze_last_k, self.backbone.num_blocks
        if k > blocks:
            raise ConfigError(f"train.unfreeze_last_k={k} exceeds backbone.num_blocks={blocks}")


def default_config() -> RunConfig:
    """The built-in run configuration (desk-scale model, standard recipe)."""
    return RunConfig()


def config_leaves(config: RunConfig) -> dict:
    """Dotted path of every scalar leaf, mapped to its value.  Tuples stay
    config-file only: a flag has no list syntax worth inventing."""
    return {dotted: value for dotted, (_, value) in scalar_leaves(config).items()}


def load_config(args: argparse.Namespace) -> RunConfig:
    """Config file <- dotted flags, decoded once over the defaults with
    every problem listed."""
    config = {}
    path = getattr(args, "config", None)
    if path is not None:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read config file: {exc}") from None
        config = read_json(raw, ConfigError, f"{path}: invalid JSON")
        if not isinstance(config, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")

    problems = []
    flags = vars(args)
    for dotted, (kind, _) in scalar_leaves(default_config()).items():
        raw = flags.get(dotted)
        if raw is None:
            continue
        try:
            value = parse_text(kind, raw)
        except ValueError as exc:
            problems.append(f"--{dotted}: {exc}")
            continue
        node = config
        for section in dotted.split(".")[:-1]:
            node = node.setdefault(section, {}) if isinstance(node, dict) else node
        if isinstance(node, dict):
            node[dotted.rsplit(".", 1)[1]] = value
        elif node is None:
            problems.append(f"--{dotted}: section was disabled (null) in the config file")
    return RunConfig.from_dict(config, problems)


def _prepare_out_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _split_index(data_root, config, split_manifest=None):
    """Scan and split ``data_root``, printing the scan's warnings, then
    the ones the split added."""
    index = scan_dataset(data_root, layout=config.data.layout)
    for warning in index.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if len(index) == 0:
        raise InputError(f"no samples found under {data_root}")
    if split_manifest is not None:
        split = apply_split_manifest(index, split_manifest)
    else:
        split = split_dataset(index, ratios=config.data.ratios, seed=config.data.split_seed)
    for warning in split.warnings[len(index.warnings):]:
        print(f"warning: {warning}", file=sys.stderr)
    return split


def _run_inputs(args, config, *needed):
    """Split ``--data``, refuse an empty split in ``needed`` ((split,
    needed_by) pairs) or one that training reads, and read
    ``--init-backbone`` into a fresh model: the checks a training run makes
    before ``--out`` is created."""
    index = _split_index(args.data, config, args.split_manifest)
    for split, needed_by in needed:
        _require_split(index, split, needed_by)
    _require_training_splits(index, config.train)
    model = build_model(config.backbone, config.head, seed=config.train.seed)
    if args.init_backbone is not None:
        load_into(model, args.init_backbone, prefix="backbone.")
    return index, model


def _eval_split(model, index, split, batch_size):
    stream = batches(
        index,
        split,
        batch_size,
        shuffle=False,
        image_size=model.backbone_config.input_size,
    )
    return evaluate(model, stream)


def _write_eval_outputs(out_dir: str, result, extra: dict | None = None) -> None:
    """metrics.json + report.txt + confusion.csv for one evaluation."""
    payload = result.report.to_dict()
    payload["loss"] = result.loss
    if extra:
        payload.update(extra)
    write_json(os.path.join(out_dir, "metrics.json"), payload)
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_report(result.report) + "\n")
    with open(os.path.join(out_dir, "confusion.csv"), "w", encoding="utf-8") as fh:
        fh.write(result.cm.to_csv())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_scan(args: argparse.Namespace) -> int:
    index = scan_dataset(args.roots, layout=args.layout)
    manifest = {
        "layout": args.layout,
        "roots": [os.fspath(r) for r in args.roots],
        "total": len(index),
        "counts": index.class_counts(),
        "source_counts": index.source_counts,
        "warnings": index.warnings,
        "samples": [
            {"path": s.path, "label": LABEL_NAMES[s.label]} for s in index.samples
        ],
    }
    write_json(args.out, manifest)
    for warning in index.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    counts = " ".join(f"{k}={v}" for k, v in index.class_counts().items())
    print(f"scanned {len(index)} samples ({counts}) -> {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    index = synth_dataset(args.n, args.size, args.seed, args.out)
    meta = {
        "n_per_class": args.n,
        "image_size": args.size,
        "seed": args.seed,
        "counts": index.class_counts(),
    }
    write_json(os.path.join(args.out, "synth_config.json"), meta)
    print(f"wrote {len(index)} synthetic images to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args)
    train_config = config.train
    index, model = _run_inputs(args, config, ("test", "the final evaluation"))
    if args.init_backbone is not None:
        print(f"loaded backbone weights from {args.init_backbone}")
    out_dir = _prepare_out_dir(args.out)
    write_json(os.path.join(out_dir, "config.json"), config.to_dict())
    save_split_manifest(index, os.path.join(out_dir, "split.json"))

    def report_epoch(log: EpochLog) -> None:
        print(
            f"epoch {log.epoch:3d} phase {log.phase}  "
            f"train_loss {log.train_loss:.4f} train_acc {log.train_acc:.4f}  "
            f"val_loss {log.val_loss:.4f} val_acc {log.val_acc:.4f}",
            flush=True,
        )

    result = two_phase_train(model, index, train_config, on_epoch=report_epoch)
    write_logs(result.logs, os.path.join(out_dir, "logs.csv"))
    save_checkpoint(model, os.path.join(out_dir, "final.ckpt"))

    # test-set metrics come from the best-validation weights
    restore_state(model, result.best_state)
    save_checkpoint(model, os.path.join(out_dir, "best.ckpt"))
    test_result = _eval_split(model, index, "test", train_config.batch_size)
    _write_eval_outputs(
        out_dir,
        test_result,
        extra={
            "split": "test",
            "best_val_acc": result.best_val_acc,
            "best_epoch": result.best_epoch,
        },
    )
    print(render_report(test_result.report))
    print(
        f"test accuracy {test_result.accuracy:.4f} "
        f"(best val {result.best_val_acc:.4f} at epoch {result.best_epoch}) -> {out_dir}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args)
    _require_sweep_epochs(config.train)
    index, _ = _run_inputs(args, config)  # the model only proves --init-backbone fits
    out_dir = _prepare_out_dir(args.out)
    write_json(os.path.join(out_dir, "config.json"), config.to_dict())
    save_split_manifest(index, os.path.join(out_dir, "split.json"))

    result = sweep(index, config.backbone, config.train,
                   backbone_checkpoint=args.init_backbone, head_config=config.head)

    write_sweep_csv(result, os.path.join(out_dir, "sweep.csv"))
    write_sweep_json(result, os.path.join(out_dir, "sweep.json"))
    logs_dir = _prepare_out_dir(os.path.join(out_dir, "logs"))
    for key, logs in result.logs.items():
        write_logs(logs, os.path.join(logs_dir, f"{key}.csv"))

    for i, row in enumerate(result.rows):
        marker = " *" if i == result.best_index else ""
        print(
            f"{row.neurons:4d} neurons x {row.hidden_layers} layers  "
            f"train_acc {row.train_acc:.4f}  val_acc {row.val_acc:.4f}  "
            f"params {row.num_params}{marker}"
        )
    best = result.best_row
    print(
        f"best head: {best.neurons} neurons x {best.hidden_layers} layers "
        f"(val_acc {best.val_acc:.4f}) -> {out_dir}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_config(args)
    if args.split not in SPLIT_NAMES:
        raise ParameterError(
            f"unknown split '{args.split}'; expected one of {list(SPLIT_NAMES)}"
        )
    model = load_checkpoint(args.checkpoint)
    index = _split_index(args.data, config, args.split_manifest)
    _require_split(index, args.split, "evaluation")
    out_dir = _prepare_out_dir(args.out)
    write_json(os.path.join(out_dir, "config.json"), config.to_dict())
    result = _eval_split(model, index, args.split, config.train.batch_size)
    _write_eval_outputs(
        out_dir, result, extra={"split": args.split, "checkpoint": args.checkpoint}
    )
    print(render_report(result.report))
    print(f"{args.split} accuracy {result.accuracy:.4f} -> {out_dir}")
    return 0


def _load_cascade_any(path):
    """Dispatch on file extension: .xml -> XML codec, anything else JSON."""
    if os.fspath(path).lower().endswith(".xml"):
        return load_cascade_xml(path)
    return load_cascade_json(path)


def cmd_detect(args: argparse.Namespace) -> int:
    config = load_config(args)
    image = load_ppm(args.image)
    cascade = _load_cascade_any(args.cascade)
    boxes = detect(to_grayscale(image), cascade, config.detect)
    payload = {
        "image": os.fspath(args.image),
        "cascade": os.fspath(args.cascade),
        "params": config.detect.to_dict(),
        "boxes": [box._asdict() for box in boxes],
    }
    write_json(args.out, payload)
    print(f"{len(boxes)} boxes -> {args.out}")
    return 0


def draw_rectangle(image: np.ndarray, x: int, y: int, w: int, h: int, color) -> None:
    """Draw a rectangle outline in place, kept inside the box bounds.

    The bands occupy the outermost ``BOX_THICKNESS`` pixels of the box on
    each side, clipped to the image, so annotations never spill outside
    either the box or the frame.
    """
    height, width = image.shape[:2]
    x0, y0 = max(x, 0), max(y, 0)
    x1, y1 = min(x + w, width), min(y + h, height)
    if x0 >= x1 or y0 >= y1:
        return
    t = BOX_THICKNESS
    color = np.asarray(color, dtype=np.uint8)
    image[y0:min(y0 + t, y1), x0:x1] = color          # top
    image[max(y1 - t, y0):y1, x0:x1] = color          # bottom
    image[y0:y1, x0:min(x0 + t, x1)] = color          # left
    image[y0:y1, max(x1 - t, x0):x1] = color          # right


def classify_crop(model, image: np.ndarray, boxes) -> list[tuple[int, float]]:
    """Crop detections from a colour image and classify them in one forward.

    Returns ``(class_index, confidence)`` per box, confidence being the winning
    softmax probability (ties go to the lowest class index).  The eval
    forward is batch-invariant: a box gets the bits it would get alone."""
    height, width = image.shape[:2]
    size = model.backbone_config.input_size
    crops = []
    for box in boxes:
        x0, y0 = max(box.x, 0), max(box.y, 0)
        x1, y1 = min(box.x + box.w, width), min(box.y + box.h, height)
        if x0 >= x1 or y0 >= y1:
            raise InputError(f"detection box {box} lies outside the image")
        crops.append(normalize(resize_bilinear(image[y0:y1, x0:x1], size, size)).data)
    if not crops:
        return []
    probs = model.forward(Tensor(np.stack(crops)), mode="eval").data
    return [(int(k), float(p[k])) for k, p in zip(probs.argmax(axis=1), probs)]


def cmd_annotate(args: argparse.Namespace) -> int:
    json_out = args.json_out
    if json_out is None:
        stem, _ = os.path.splitext(os.fspath(args.out))
        json_out = stem + ".json"
    if os.path.realpath(json_out) == os.path.realpath(args.out):
        raise UsageError(f"the --json-out file would overwrite the --out image {args.out!r}")
    config = load_config(args)
    image = load_ppm(args.image)
    cascade = _load_cascade_any(args.cascade)
    model = load_checkpoint(args.checkpoint)
    boxes = detect(to_grayscale(image), cascade, config.detect)

    annotated = image.copy()
    faces = []
    step = config.train.batch_size
    labels = [label for k in range(0, len(boxes), step)
              for label in classify_crop(model, image, boxes[k:k + step])]
    for box, (klass, confidence) in zip(boxes, labels):
        draw_rectangle(annotated, box.x, box.y, box.w, box.h, CLASS_COLORS[klass])
        faces.append({"box": {"x": box.x, "y": box.y, "w": box.w, "h": box.h},
                      "class": LABEL_NAMES[klass], "confidence": confidence})
    save_ppm(annotated, args.out)
    write_json(
        json_out,
        {
            "image": os.fspath(args.image),
            "cascade": os.fspath(args.cascade),
            "checkpoint": os.fspath(args.checkpoint),
            "params": config.detect.to_dict(),
            "faces": faces,
        },
    )
    print(f"{len(faces)} faces annotated -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser, leaves: list[str]) -> None:
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON run-config file")
    group = parser.add_argument_group(
        "config overrides",
        "any scalar config leaf, e.g. --train.batch_size 16",
    )
    for dotted in leaves:
        group.add_argument(f"--{dotted}", metavar="V", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskdetect",
        description="Face-mask detection: corpus tools, training, evaluation, annotation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    leaves = sorted(config_leaves(default_config()))

    p = sub.add_parser("scan", help="index a corpus and write a manifest")
    p.add_argument("roots", nargs="+", help="corpus root directories")
    p.add_argument("--layout", default="native",
                   help="directory layout name (default: native)")
    p.add_argument("--out", default="manifest.json", metavar="PATH")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, default=20, help="images per class")
    p.add_argument("--size", type=int, default=75, help="image side in pixels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="two-phase training run")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--init-backbone", default=None, metavar="CKPT",
                   help="checkpoint whose backbone weights seed this run")
    p.add_argument("--split-manifest", default=None, metavar="PATH",
                   help="reuse a saved split instead of splitting afresh")
    _add_config_flags(p, leaves)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="classifier-head architecture sweep")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--init-backbone", default=None, metavar="CKPT")
    p.add_argument("--split-manifest", default=None, metavar="PATH")
    _add_config_flags(p, leaves)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evaluate", help="score a checkpoint on one split")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--checkpoint", required=True, metavar="CKPT")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--split", default="test", help="train, val or test")
    p.add_argument("--split-manifest", default=None, metavar="PATH")
    _add_config_flags(p, leaves)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("detect", help="face boxes from a cascade")
    p.add_argument("--image", required=True, metavar="PPM")
    p.add_argument("--cascade", required=True, metavar="PATH",
                   help=".xml or .json cascade file")
    p.add_argument("--out", default="boxes.json", metavar="PATH")
    _add_config_flags(p, leaves)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("annotate", help="detect, classify and draw boxes")
    p.add_argument("--image", required=True, metavar="PPM")
    p.add_argument("--cascade", required=True, metavar="PATH")
    p.add_argument("--checkpoint", required=True, metavar="CKPT")
    p.add_argument("--out", default="annotated.ppm", metavar="PATH")
    p.add_argument("--json-out", default=None, metavar="PATH",
                   help="per-face JSON (default: --out with .json extension)")
    _add_config_flags(p, leaves)
    p.set_defaults(func=cmd_annotate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MaskDetectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a run stopped by Ctrl-C


if __name__ == "__main__":
    sys.exit(main())
