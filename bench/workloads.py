"""The four benchmark workloads and the loop that measures them.

Each workload is a closed loop in one process: one call at a time, the
next only after the previous returns.  A workload sets up (several times
when set-up is cheap, to report its median), warms up, then runs timed
rounds until ``--seconds`` have passed and at least ``min_rounds`` are
done.  Every operation runs under :meth:`Ops.call`, which counts a raise
of any kind as a failed operation, keeps its text and carries on.  The
output checks run after the last round.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in ``bench/README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import time
from pathlib import Path

from maskdetect import cascade, checkpoint, cli, data, nn, training
from maskdetect.data import LABEL_NAMES, AugmentConfig, DatasetIndex, Sample

import scenes
import tracing

_clock = time.perf_counter
_median = statistics.median


class Ops:
    """Attempted and failed operation counts, with each failure's text."""

    def __init__(self):
        self.attempted = 0
        self.errors: list = []

    def call(self, label: str, fn):
        """Run ``fn()``; returns ``(True, value)`` or ``(False, None)``."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception as exc:  # the run must go on; the failure is counted
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return False, None


def _timed(fn):
    start = _clock()
    value = fn()
    return value, _clock() - start


def _inside(point, box) -> bool:
    x, y = point
    return box[0] <= x < box[0] + box[2] and box[1] <= y < box[1] + box[3]


# -- transfer, transfer-aug ------------------------------------------------------


class Transfer:
    """Criterion-5 two-phase run on a seeded synthetic corpus, then an
    evaluation of the best state over all 180 images."""

    name = "transfer"
    augment = None
    setups = 1          # the donor pretrain alone takes seconds; set up once
    min_rounds = 2      # the determinism check compares two runs
    # throughput_per_s is eval images per second here; three passes a
    # round give it several seconds of measured time per run
    evals_per_round = 3
    throughput = "eval_images_per_s"

    def config(self) -> training.TrainConfig:
        return training.TrainConfig(epochs_phase1=5, epochs_phase2=3, unfreeze_last_k=2,
                                    lr_phase1=1e-3, lr_phase2=2e-4, batch_size=8,
                                    seed=0, augment=self.augment)

    def setup(self, seed: int, work: Path) -> dict:
        corpus = data.synth_dataset(60, 75, seed=seed, out_dir=work / "corpus")
        index = data.split_dataset(corpus, (0.70, 0.15, 0.15), seed=seed)
        donor = training.pretrain_backbone(index, nn.desk_backbone(), seed=0, epochs=4,
                                           batch_size=8, lr=1e-3)
        checkpoint.save_checkpoint(donor, work / "donor.ckpt")
        everything = DatasetIndex(samples=[Sample(s.path, s.label, "test")
                                           for s in index.samples])
        return {"work": work, "index": index, "everything": everything,
                "splits": [s.split for s in index.samples],
                "train_s": [], "eval_s": [], "runs": [], "preds": []}

    def warmup(self, st: dict) -> None:
        """The set-up's pretrain has already run every op of the round."""

    def _train(self, st: dict, k: int):
        model = nn.build_model(nn.desk_backbone(),
                               nn.HeadConfig(hidden_units=128, hidden_layers=2,
                                             dropout_rate=0.0), seed=0)
        checkpoint.load_into(model, st["work"] / "donor.ckpt", prefix="backbone.")
        result, seconds = _timed(lambda: training.two_phase_train(model, st["index"],
                                                                  self.config()))
        final = st["work"] / f"final-{k}.ckpt"
        checkpoint.save_checkpoint(model, final)
        training.restore_state(model, result.best_state)
        logs = [(g.epoch, g.phase, g.train_loss, g.train_acc, g.val_loss, g.val_acc)
                for g in result.logs]
        return model, seconds, (logs, final.read_bytes(), result)

    def round(self, st: dict, ops: Ops, k: int) -> None:
        ok, out = ops.call("two_phase_train", lambda: self._train(st, k))
        if not ok:
            return
        model, seconds, run = out
        st["train_s"].append(seconds)
        st["runs"].append(run)
        for _ in range(self.evals_per_round):
            ok, out = ops.call("evaluate", lambda: _timed(lambda: training.evaluate(
                model, data.batches(st["everything"], "test", 32, False, image_size=75))))
            if ok:
                st["preds"].append((out[0].pred, out[0].truth))
                st["eval_s"].append(out[1])

    def _accuracy(self, st: dict, split: str) -> float:
        pred, truth = st["preds"][0]
        rows = [p == t for p, t, s in zip(pred, truth, st["splits"]) if s == split]
        return sum(rows) / len(rows)

    def check(self, st: dict) -> list:
        if len(st["runs"]) < 2 or not st["preds"]:
            return ["fewer than two completed training runs and one evaluation"]
        problems = []
        logs, weights, _ = st["runs"][0]
        if any(other[0] != logs for other in st["runs"][1:]):
            problems.append("epoch logs (minus wall_seconds) differ between runs of one seed")
        if any(other[1] != weights for other in st["runs"][1:]):
            problems.append("final checkpoints differ between runs of one seed")
        if any(p != st["preds"][0] for p in st["preds"][1:]):
            problems.append("evaluations of one state disagree")
        train_acc, test_acc = self._accuracy(st, "train"), self._accuracy(st, "test")
        if train_acc < 0.95 or test_acc < 0.90:
            problems.append(f"learnability bar missed: train {train_acc:.3f} "
                            f"(needs 0.95), test {test_acc:.3f} (needs 0.90)")
        return problems

    def figures(self, st: dict) -> dict:
        n = len(st["everything"].samples)
        seen = st["splits"].count("train") * self.config().total_epochs
        best = st["runs"][0][2]
        named = {
            "train_s": (_median(st["train_s"]), "s"),
            "eval_images_per_s": (_median([n / s for s in st["eval_s"]]), "1/s"),
            "train_images_per_s": (_median([seen / s for s in st["train_s"]]), "1/s"),
            "test_acc": (self._accuracy(st, "test"), "fraction"),
            "train_acc_best_state": (self._accuracy(st, "train"), "fraction"),
            "train_acc_last_epoch": (best.logs[-1].train_acc, "fraction"),
            "best_val_acc": (best.best_val_acc, "fraction"),
        }
        return {
            "end_to_end": {
                "latency_ms": (1000.0 * named["train_s"][0], "ms"),
                "throughput_per_s": named[self.throughput],
                "accuracy": named["test_acc"],
            },
            "named": named,
        }


class TransferAug(Transfer):
    """The same recipe with the CLI-default augmentation.  Its evaluation
    is the same work as on ``transfer``, so its throughput is training
    images per second, and one evaluation a round serves the checks."""

    name = "transfer-aug"
    augment = AugmentConfig()
    evals_per_round = 1
    throughput = "train_images_per_s"


# -- scan ------------------------------------------------------------------------


class Scan:
    """``detect`` with the fixture cascade and default parameters: per
    round one 640x480 scene and three 320x240 scenes."""

    name = "scan"
    setups = 5
    min_rounds = 1
    small_scenes = 3

    def setup(self, seed: int, work: Path) -> dict:
        faces = scenes.portraits(work)
        (sw, sh), (lw, lh) = scenes.SCAN_SIZES
        return {
            "cascade": scenes.fixture_cascade(),
            "large": [scenes.scan_scene(seed, (lw, lh), faces)],
            "small": [scenes.scan_scene(seed, (sw, sh), faces, k)
                      for k in range(self.small_scenes)],
            "calls": {"large": [], "small": []},
        }

    def warmup(self, st: dict) -> None:
        cascade.detect(st["small"][0][0][:120, :160], st["cascade"])

    def round(self, st: dict, ops: Ops, k: int) -> None:
        # small scenes on both sides of the large one, so that one slow
        # spell of the machine cannot cover every small-scene sample
        order = [("small", 0), ("large", 0), ("small", 1), ("small", 2)]
        for kind, i in order:
            gray = st[kind][i][0]
            ok, out = ops.call(f"detect {gray.shape[1]}x{gray.shape[0]}",
                               lambda: _timed(lambda: cascade.detect(gray, st["cascade"])))
            if ok:
                st["calls"][kind].append((i, out[0], out[1]))

    def check(self, st: dict) -> list:
        if not st["calls"]["large"] or not st["calls"]["small"]:
            return ["no completed detect call at one of the sizes"]
        problems = []
        first = {}
        for kind in ("large", "small"):
            for i, boxes, _ in st["calls"][kind]:
                gray, centres = st[kind][i]
                h, w = gray.shape
                where = f"{kind} scene {i} ({w}x{h})"
                for c in centres:
                    if not any(_inside(c, b) for b in boxes):
                        problems.append(f"{where}: no box contains the band centre {c}")
                for b in boxes:
                    if b.x < 0 or b.y < 0 or b.x + b.w > w or b.y + b.h > h:
                        problems.append(f"{where}: box {tuple(b)} leaves the image")
                if first.setdefault((kind, i), boxes) != boxes:
                    problems.append(f"{where}: repeated calls returned different boxes")
        return problems

    def figures(self, st: dict) -> dict:
        large = _median([s for _, _, s in st["calls"]["large"]])
        small = _median([s for _, _, s in st["calls"]["small"]])
        hits = [any(_inside(c, b) for b in boxes)
                for kind in ("large", "small") for i, boxes, _ in st["calls"][kind]
                for c in st[kind][i][1]]
        return {
            "end_to_end": {
                "latency_ms": (1000.0 * large, "ms"),
                "throughput_per_s": (1.0 / small, "1/s"),
                "accuracy": (sum(hits) / len(hits), "fraction"),
            },
            "named": {
                "detect_ms.320x240": (1000.0 * small, "ms"),
                "detect_ms.640x480": (1000.0 * large, "ms"),
            },
        }


# -- annotate --------------------------------------------------------------------


class Annotate:
    """``maskdetect annotate`` CLI calls, in process, on seeded 640x480
    scenes with the demo-05 portrait cascade and a desk checkpoint."""

    name = "annotate"
    setups = 5
    min_rounds = 2
    n_scenes = 2
    flags = ["--detect.min_size", "48", "--detect.scale_factor", "1.15",
             "--detect.min_neighbors", "2"]

    def setup(self, seed: int, work: Path) -> dict:
        faces = scenes.portraits(work)
        cascade.save_cascade_json(scenes.portrait_cascade(), work / "portrait.json")
        model = nn.build_model(nn.desk_backbone(),
                               nn.HeadConfig(hidden_units=64, hidden_layers=1,
                                             dropout_rate=0.0), seed=0)
        checkpoint.save_checkpoint(model, work / "desk.ckpt")
        placed = []
        for k in range(self.n_scenes):
            image, centres = scenes.annotate_scene(seed, faces, k)
            data.save_ppm(image, work / f"scene-{k}.ppm")
            placed.append((image.shape, centres))
            if k == 0:  # a 120 px crop around one portrait, for the warm-up call
                x0, y0 = max(0, centres[0][0] - 60), max(0, centres[0][1] - 60)
                data.save_ppm(image[y0:y0 + 120, x0:x0 + 120], work / "warm.ppm")
        return {"work": work, "scenes": placed, "calls": []}

    def _annotate(self, st: dict, image: Path, out: Path) -> tuple:
        """One CLI call; returns its seconds and the boxes its ``detect``
        returned, which the JSON must match one face per box."""
        argv = ["annotate", "--image", str(image),
                "--cascade", str(st["work"] / "portrait.json"),
                "--checkpoint", str(st["work"] / "desk.ckpt"),
                "--out", str(out), "--json-out", str(out.with_suffix(".json")), *self.flags]
        found = []
        detect = cli.detect

        def recorded(*args, **kwargs):
            found.append(detect(*args, **kwargs))
            return found[-1]

        stdout, stderr = io.StringIO(), io.StringIO()
        cli.detect = recorded
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code, seconds = _timed(lambda: cli.main(argv))
        finally:
            cli.detect = detect
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr.getvalue().strip()}")
        return seconds, found[0]

    def warmup(self, st: dict) -> None:
        self._annotate(st, st["work"] / "warm.ppm", st["work"] / "warm-out.ppm")

    def round(self, st: dict, ops: Ops, k: int) -> None:
        i = k % self.n_scenes
        out = st["work"] / f"out-{k}.ppm"
        ok, done = ops.call("annotate", lambda: self._annotate(
            st, st["work"] / f"scene-{i}.ppm", out))
        if ok:
            st["calls"].append((i, out, *done))

    def _faces(self, out: Path) -> list:
        return json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))["faces"]

    def check(self, st: dict) -> list:
        if not st["calls"]:
            return ["no completed annotate call"]
        problems = []
        for i, out, _, boxes in st["calls"]:
            shape, _ = st["scenes"][i]
            faces = self._faces(out)
            got = [tuple(f["box"][key] for key in "xywh") for f in faces]
            if got != [(b.x, b.y, b.w, b.h) for b in boxes]:
                problems.append(f"{out.name}: {len(faces)} faces for {len(boxes)} boxes")
            for f in faces:
                if f["class"] not in LABEL_NAMES or not 0.0 < f["confidence"] <= 1.0:
                    problems.append(f"{out.name}: bad class or confidence {f}")
            if data.load_ppm(out).shape != shape:
                problems.append(f"{out.name}: annotated image has the wrong shape")
        return problems

    def figures(self, st: dict) -> dict:
        hits, faces_per_s = [], []
        for i, out, seconds, _ in st["calls"]:
            boxes = [f["box"] for f in self._faces(out)]
            for c in st["scenes"][i][1]:
                hits.append(any(_inside(c, (b["x"], b["y"], b["w"], b["h"])) for b in boxes))
            faces_per_s.append(len(boxes) / seconds)
        latency = 1000.0 * _median([s for _, _, s, _ in st["calls"]])
        return {
            "end_to_end": {
                "latency_ms": (latency, "ms"),
                "throughput_per_s": (_median(faces_per_s), "1/s"),
                "accuracy": (sum(hits) / len(hits), "fraction"),
            },
            "named": {"annotate_ms": (latency, "ms")},
        }


WORKLOADS = {w.name: w for w in (Transfer, TransferAug, Scan, Annotate)}


# -- the measuring loop ------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(name: str, seed: int, seconds: float, traced: bool, root: Path,
            record: dict) -> tuple:
    """Run one workload; returns ``(result, record)`` where ``result`` is
    the final JSON object the benchmark prints."""
    workload = WORKLOADS[name]()
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    tracer = tracing.Tracer()
    ops = Ops()
    try:
        setup_s = []
        for k in range(workload.setups):
            tracer.round = f"setup-{k}"
            if traced:
                tracer.install()
            try:
                (st, spent) = _timed(lambda: workload.setup(seed, work / f"setup-{k}"))
            finally:
                tracer.uninstall()
            setup_s.append(spent)
        workload.warmup(st)

        rounds = {True: [], False: []}    # traced? -> [(round id, wall seconds)]
        started = _clock()
        k = 0
        min_rounds = max(workload.min_rounds, 2 if traced else 1)
        while k < min_rounds or _clock() - started < seconds:
            on = traced and k % 2 == 1
            tracer.round = f"round-{k}"
            if on:
                tracer.install()
            try:
                _, wall = _timed(lambda: workload.round(st, ops, k))
            finally:
                tracer.uninstall()
            rounds[on].append((tracer.round, wall))
            k += 1
        tracer.round = "check"
        problems = workload.check(st)
        try:
            figures = workload.figures(st)
        except (IndexError, ZeroDivisionError, statistics.StatisticsError):
            figures = None  # no operation of some kind completed
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(ops.errors)
    record.update({
        "workload": name,
        "seed": seed,
        "rounds": k,
        "attempted": ops.attempted,
        "failed": failed,
        "fail_ratio": failed / ops.attempted,
        "errors": ops.errors,
        "check_failures": problems,
        "setup_s_each": setup_s,
    })
    if figures is None:
        raise SystemExit(f"error: {name}: nothing to report: {problems + ops.errors}")
    metrics = {
        "setup_s": (_median(setup_s), "s"),
        **figures["end_to_end"],
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    record["named_metrics"] = {
        k: {"value": v, "unit": u}
        for k, (v, u) in {**figures["named"], "setup_s": metrics["setup_s"],
                          "peak_rss_mb": metrics["peak_rss_mb"],
                          "fail_ratio": (failed / ops.attempted, "fraction")}.items()
    }
    if traced:
        traced_ids = [r for r, _ in rounds[True]]
        overhead = (_median([w for _, w in rounds[True]])
                    - _median([w for _, w in rounds[False]]))
        record["trace_overhead_s"] = overhead
        out = tracing.layer_metrics(tracer, traced_ids, overhead, tracing.span_cost())
        path = root / ".bench_results" / f"trace-{name}-{seed}.json"
        tracer.write(str(path), traced_ids, record)
        record["trace_file"] = str(path.relative_to(root))
    else:
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {"correct": not problems, "attempted": ops.attempted, "failed": failed,
              "metrics": out}
    return result, record

