"""Adam optimization, the two-phase fine-tuning schedule, the seven-head
sweep, and evaluation with epoch logging.

A run is a pure function of (seed, data, config): shuffling, augmentation
and dropout all draw from streams derived from the run seed, so repeating
a run reproduces every parameter bit and every logged number except
``wall_seconds``.
"""

from __future__ import annotations

import csv
import time
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from itertools import accumulate
from typing import Callable

import numpy as np

from . import tensor as T
from .checkpoint import load_into
from .config import Config, write_json
from .data import AugmentConfig, DatasetIndex, _require_split, batch_order, batches
from .errors import ConfigError, NonFiniteError, UsageError
from .metrics import ClassReport, ConfusionMatrix, classification_report, confusion
from .nn import BackboneConfig, HeadConfig, Model, build_model
from .rng import SplitMix64

__all__ = [
    "Adam",
    "TrainConfig",
    "EpochLog",
    "TrainResult",
    "EvalResult",
    "SweepRow",
    "SweepResult",
    "SWEEP_HEADS",
    "select_best",
    "train_epoch",
    "two_phase_train",
    "evaluate",
    "sweep",
    "pretrain_backbone",
    "capture_state",
    "restore_state",
    "write_logs",
    "write_sweep_csv",
    "write_sweep_json",
]


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam over the parameters that are trainable at construction time.

    Moments are held in float64 and exist only for the tracked parameters;
    frozen parameters are never touched.  ``t`` advances by exactly one per
    step.  The tracked parameters' gradients and moments each live in one
    flat array, so a step is one pass of ufuncs over all of them; ``m`` and
    ``v`` map each name to its view.  Every op is elementwise, so the bits
    are those of a step per tensor.
    """

    def __init__(self, params, lr: float):
        if lr < 0:
            raise ConfigError(f"learning rate must be >= 0, got {lr}")
        self.params = [p for p in params if p.trainable]
        self.lr = float(lr)
        self.t = 0
        ends = list(accumulate(p.data.size for p in self.params))
        self._spans = [slice(end - p.data.size, end) for p, end in zip(self.params, ends)]
        # gradients, moments and two work rows: a step allocates no flat temporary
        self._g, self._m, self._v, self._u, self._w = np.zeros((5, ends[-1] if ends else 0))
        self.m = self._views(self._m)
        self.v = self._views(self._v)

    def _views(self, flat: np.ndarray) -> dict:
        return {p.name: flat[span].reshape(p.data.shape)
                for p, span in zip(self.params, self._spans)}

    def step(self) -> None:
        """One bias-corrected update from the gradients currently held."""
        self.t += 1
        g, m, v, u, w = self._g, self._m, self._v, self._u, self._w
        for p, span in zip(self.params, self._spans):
            if p.grad is None:
                raise UsageError(f"parameter {p.name!r} has no gradient to step with")
            g[span] = p.grad.reshape(-1)
        # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g, op for op
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=u)
        v *= BETA2
        v += np.multiply(np.multiply(g, 1.0 - BETA2, out=u), g, out=u)
        # lr * m_hat / (sqrt(v_hat) + eps), bias-corrected by step
        np.multiply(np.divide(m, 1.0 - BETA1**self.t, out=u), self.lr, out=u)
        np.sqrt(np.divide(v, 1.0 - BETA2**self.t, out=w), out=w)
        u /= np.add(w, EPSILON, out=w)
        for p, span in zip(self.params, self._spans):
            p.data -= u[span].reshape(p.data.shape).astype(p.data.dtype)


# ---------------------------------------------------------------------------
# configuration and logs
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig(Config):
    """Knobs for one two-phase run.

    Phase 1 trains the head against a frozen feature extractor; phase 2
    unfreezes the last ``unfreeze_last_k`` backbone blocks and continues
    at the smaller rate.
    """

    epochs_phase1: int = 40
    epochs_phase2: int = 20
    unfreeze_last_k: int = 2
    lr_phase1: float = 1e-3
    lr_phase2: float = 1e-4
    batch_size: int = 32
    seed: int = 0
    augment: AugmentConfig | None = field(default_factory=AugmentConfig)

    def validate(self) -> None:
        if self.epochs_phase1 < 0 or self.epochs_phase2 < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.unfreeze_last_k < 0:
            raise ConfigError(f"unfreeze_last_k must be >= 0, got {self.unfreeze_last_k}")
        if self.lr_phase1 < 0 or self.lr_phase2 < 0:
            raise ConfigError("learning rates must be >= 0")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")

    @property
    def total_epochs(self) -> int:
        return self.epochs_phase1 + self.epochs_phase2


@dataclass
class EpochLog:
    epoch: int          # 1-based, global across both phases
    phase: int          # 1 or 2
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    wall_seconds: float


@dataclass
class TrainResult:
    model: Model
    logs: list[EpochLog]
    best_state: dict            # parameter/buffer arrays at the best-val epoch
    best_val_acc: float
    best_epoch: int


@dataclass
class EvalResult:
    report: ClassReport
    cm: ConfusionMatrix
    loss: float
    pred: list[int]
    truth: list[int]

    @property
    def accuracy(self) -> float:
        return self.report.accuracy


def capture_state(model: Model) -> dict:
    """Copies of every parameter and buffer array, keyed by name."""
    state = {p.name: p.data.copy() for p in model.parameters()}
    for name, buf in model.buffers():
        state[name] = buf.copy()
    return state


def restore_state(model: Model, state: dict) -> None:
    """Write captured arrays back (in place; trainable flags untouched)."""
    for p in model.parameters():
        p.data[...] = state[p.name]
    for name, buf in model.buffers():
        buf[...] = state[name]


# ---------------------------------------------------------------------------
# epoch loops
# ---------------------------------------------------------------------------


def train_epoch(model: Model, batch_stream, optimizer: Adam,
                rng: SplitMix64 | None, epoch: int = 1,
                start: int = 0) -> tuple[float, float]:
    """One optimization pass; returns (mean loss, accuracy) over the epoch.

    The stream's inputs enter the model at stage ``start`` (see
    :meth:`Model.run`).  Raises :class:`NonFiniteError` before stepping on
    a batch whose loss or trainable gradient is not finite; ``epoch`` only
    labels that message.
    """
    total_loss = 0.0
    correct = 0
    seen = 0
    for batch, (x, y) in enumerate(batch_stream, start=1):
        model.zero_grad()
        logits = model.run(x, start, mode="train", rng=rng)
        loss = T.softmax_cross_entropy(logits, y)
        loss.backward()
        where = f"at epoch {epoch}, batch {batch}"
        if not np.isfinite(loss.data).all():
            raise NonFiniteError(f"training loss is {loss.item()} {where}")
        for p in optimizer.params:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NonFiniteError(f"gradient of {p.name} is not finite {where}")
        optimizer.step()
        n = x.shape[0]
        total_loss += float(loss.item()) * n
        correct += int(np.sum(np.argmax(logits.data, axis=1) == np.argmax(y.data, axis=1)))
        seen += n
    if seen == 0:
        raise UsageError("train_epoch got an empty batch stream")
    return total_loss / seen, correct / seen


def evaluate(model: Model, batch_stream, start: int = 0) -> EvalResult:
    """Deterministic eval pass: loss, confusion matrix and the full report.

    The stream's inputs enter the model at stage ``start``.  The
    prediction for a row is the argmax of its softmax output; exact ties
    resolve to the lowest class index.
    """
    preds: list[int] = []
    truths: list[int] = []
    total_loss = 0.0
    seen = 0
    for x, y in batch_stream:
        logits = model.run(x, start)
        loss = T.softmax_cross_entropy(logits, y)
        probs = T.softmax(logits)
        preds.extend(int(k) for k in np.argmax(probs.data, axis=1))
        truths.extend(int(k) for k in np.argmax(y.data, axis=1))
        n = x.shape[0]
        total_loss += float(loss.item()) * n
        seen += n
    if seen == 0:
        raise UsageError("evaluate got an empty batch stream")
    cm = confusion(preds, truths)
    return EvalResult(
        report=classification_report(cm),
        cm=cm,
        loss=total_loss / seen,
        pred=preds,
        truth=truths,
    )


# ---------------------------------------------------------------------------
# two-phase schedule
# ---------------------------------------------------------------------------


# A split's frozen-prefix outputs are kept for a phase only while they fit
# in this many bytes; a larger split runs the prefix again for each batch.
_PREFIX_CACHE_BYTES = 256 << 20


def _epoch_batches(model, stop, index, config, split, rows=None, rng=None, epoch=0):
    """One epoch of ``split`` as inputs to stage ``stop``, shuffled (and,
    on the train split, augmented) by ``rng`` when one is given.  Runs
    each batch through the frozen stages ``[0, stop)`` in eval mode (they
    hold nothing trainable, so train mode would give the same bits), or
    only ``[stage, stop)`` over the ``_memoise`` rows (stage, xs, ys)."""
    if rows is not None:
        stage, xs, ys = rows
        for pick in batch_order(len(xs), config.batch_size, rng, epoch):
            yield model.run(T.Tensor(xs[pick]), stage, stop), T.Tensor(ys[pick])
        return
    augment = config.augment if split == "train" else None
    stream = batches(index, split, config.batch_size, rng is not None,
                     augment_config=augment, rng=rng,
                     image_size=model.backbone_config.input_size, epoch=epoch)
    for x, y in stream:
        yield model.run(x, 0, stop), y


def _memoise(model, stop, index, config, split, rows=None):
    """(stop, prefix outputs, targets) of every sample of ``split``, in
    split order, built from the images or from earlier-stage ``rows``; None
    for an empty split or one past ``_PREFIX_CACHE_BYTES``, as the output
    of one zero row (or one of ``rows``) tells before any image is loaded."""
    count = len(index.samples_for(split))
    size = model.backbone_config.input_size
    stage, xs = rows[:2] if rows else (0, np.zeros((1, 3, size, size), np.float32))
    row = model.run(T.Tensor(xs[:1]), stage, stop).data[0]
    if not count or row.nbytes * count > _PREFIX_CACHE_BYTES:
        return None
    held, ys, at = np.empty((count,) + row.shape, row.dtype), [], 0  # filled in place
    for x, y in _epoch_batches(model, stop, index, config, split, rows):
        held[at : at + x.shape[0]] = x.data
        at += x.shape[0]
        ys.append(y.data)
    return stop, held, np.concatenate(ys)


def _run_phase(model, index, config, phase, rng, dropout_rng, logs, best, start_epoch,
               prefix, prefix_stage, on_epoch=None):
    lr = config.lr_phase1 if phase == 1 else config.lr_phase2
    epochs = config.epochs_phase1 if phase == 1 else config.epochs_phase2
    optimizer = Adam(model.trainable_parameters(), lr)
    # Training starts at the first stage with a trainable parameter.  The
    # frozen prefix before it is a pure function of an unaugmented image:
    # ``prefix`` holds each split's rows at ``prefix_stage``, phase 2's
    # start (None past the cache, which that stage then never probes
    # again), phase 1 runs only its later frozen stages over them, and
    # each epoch then runs only the rest of the model.
    stop = model.frozen_stages()
    rows = {split: held if stop == prefix_stage
            else _memoise(model, stop, index, config, split, held)
            for split, held in prefix.items()} if epochs else {}
    train_rows, val_rows = rows.get("train"), rows.get("val")
    for k in range(epochs):
        epoch = start_epoch + k
        started = time.perf_counter()
        train_stream = _epoch_batches(model, stop, index, config, "train", train_rows, rng, epoch)
        train_loss, train_acc = train_epoch(model, train_stream, optimizer, dropout_rng,
                                            epoch, start=stop)
        val = evaluate(model, _epoch_batches(model, stop, index, config, "val", val_rows),
                       start=stop)
        logs.append(EpochLog(
            epoch=epoch,
            phase=phase,
            train_loss=train_loss,
            train_acc=train_acc,
            val_loss=val.loss,
            val_acc=val.accuracy,
            wall_seconds=time.perf_counter() - started,
        ))
        if on_epoch is not None:
            on_epoch(logs[-1])
        if val.accuracy > best["acc"]:
            best["acc"] = val.accuracy
            best["epoch"] = epoch
            best["state"] = capture_state(model)
    return start_epoch + epochs


def _require_training_splits(index: DatasetIndex, config: TrainConfig) -> None:
    """Refuse an empty train or val split when any epoch will run."""
    if config.total_epochs:  # a zero-epoch run reads neither split
        for split in ("train", "val"):
            _require_split(index, split, "training")


def _require_sweep_epochs(config: TrainConfig) -> None:
    """A sweep scores each head by its last epoch, so it needs one."""
    if not config.total_epochs:
        raise ConfigError("a sweep scores each head by its last epoch, so "
                          "epochs_phase1 + epochs_phase2 must be at least 1")


def two_phase_train(model: Model, index: DatasetIndex, config: TrainConfig,
                    on_epoch: Callable[[EpochLog], None] | None = None) -> TrainResult:
    """Freeze the backbone and train the head, then unfreeze the last k
    blocks and fine-tune at the smaller rate.

    The model should already carry useful backbone weights (a pretrained
    checkpoint) — that is what phase 1's freezing preserves.  Returns the
    final model, per-epoch logs tagged by phase, and a snapshot of the
    best-validation-accuracy state.  ``on_epoch`` gets each epoch's log as
    soon as it is appended.  When any epoch will run, an empty train or
    val split is refused before the first one starts.
    """
    config.validate()
    num_blocks = model.backbone_config.num_blocks
    if config.unfreeze_last_k > num_blocks:
        raise ConfigError(
            f"unfreeze_last_k={config.unfreeze_last_k} exceeds the "
            f"{num_blocks} backbone blocks"
        )
    _require_training_splits(index, config)
    rng = SplitMix64(config.seed)
    dropout_rng = rng.derive("dropout")
    logs: list[EpochLog] = []
    best = {"acc": -1.0, "epoch": 0, "state": None}

    model.set_trainable("backbone", False)
    # The stages before phase 2's start (its first unfrozen block, or the
    # head) are frozen in both phases, so each split runs them once per
    # run: the val split, and the train split when augmentation is off.
    k = config.unfreeze_last_k
    start2 = model.num_stages - (k + 2 if k else 1)
    splits = ("val", "train") if config.augment is None else ("val",)
    prefix = {split: _memoise(model, start2, index, config, split)
              for split in splits} if config.total_epochs else {}
    next_epoch = _run_phase(model, index, config, 1, rng, dropout_rng, logs, best, 1,
                            prefix, start2, on_epoch)

    for b in range(num_blocks - k + 1, num_blocks + 1):
        model.set_trainable(f"backbone.block{b}", True)
    assert model.frozen_stages() == start2
    _run_phase(model, index, config, 2, rng, dropout_rng, logs, best, next_epoch, prefix,
               start2, on_epoch)

    if best["state"] is None:  # no epoch ran a validation pass
        best["state"] = capture_state(model)
        best["acc"] = 0.0
    return TrainResult(
        model=model,
        logs=logs,
        best_state=best["state"],
        best_val_acc=best["acc"],
        best_epoch=best["epoch"],
    )


def pretrain_backbone(index: DatasetIndex, backbone_config: BackboneConfig,
                      seed: int = 0, epochs: int = 3, batch_size: int = 32,
                      lr: float = 1e-3) -> Model:
    """Train a small-headed model end-to-end to give the backbone useful
    weights — the desk-scale stand-in for a published pretrained network.

    The returned model's backbone can be adopted by any head via
    ``load_into(..., prefix="backbone.")`` on its saved checkpoint.
    """
    model = build_model(
        backbone_config,
        HeadConfig(hidden_units=32, hidden_layers=1, dropout_rate=0.0),
        seed=seed,
    )
    rng = SplitMix64(seed).derive("pretrain")
    dropout_rng = rng.derive("dropout")
    optimizer = Adam(model.trainable_parameters(), lr)
    size = backbone_config.input_size
    for epoch in range(1, epochs + 1):
        stream = batches(index, "train", batch_size, shuffle=True,
                         rng=rng, image_size=size, epoch=epoch)
        train_epoch(model, stream, optimizer, dropout_rng, epoch)
    return model


# ---------------------------------------------------------------------------
# head sweep
# ---------------------------------------------------------------------------

# (hidden units, hidden layers), in the published comparison order
SWEEP_HEADS: tuple[tuple[int, int], ...] = (
    (32, 1), (32, 2), (64, 1), (64, 2), (128, 1), (128, 2), (128, 3),
)


@dataclass
class SweepRow:
    neurons: int
    hidden_layers: int
    train_acc: float
    val_acc: float
    train_loss: float
    val_loss: float
    image_size: int
    epochs: int
    num_params: int


@dataclass
class SweepResult:
    rows: list[SweepRow]
    best_index: int
    logs: dict[str, list[EpochLog]]   # "{neurons}x{layers}" -> per-epoch logs

    @property
    def best_row(self) -> SweepRow:
        return self.rows[self.best_index]


def sweep(index: DatasetIndex, backbone_config: BackboneConfig,
          base_config: TrainConfig, backbone_checkpoint=None,
          head_config: HeadConfig = HeadConfig()) -> SweepResult:
    """Run the seven head configurations under identical data and seed.

    Each run builds a fresh model whose head is ``head_config`` with the
    row's units and layers (optionally adopting backbone weights from
    ``backbone_checkpoint``), trains with the shared config, and is scored
    by its final-epoch metrics.  The best row has the highest validation
    accuracy; ties go to the smaller parameter count.  A schedule with no
    epochs is refused before any model is built.
    """
    base_config.validate()
    _require_sweep_epochs(base_config)
    rows: list[SweepRow] = []
    logs: dict[str, list[EpochLog]] = {}
    for neurons, layers in SWEEP_HEADS:
        model = build_model(
            backbone_config,
            replace(head_config, hidden_units=neurons, hidden_layers=layers),
            seed=base_config.seed,
        )
        if backbone_checkpoint is not None:
            load_into(model, backbone_checkpoint, prefix="backbone.")
        result = two_phase_train(model, index, replace(base_config))
        last = result.logs[-1]
        rows.append(SweepRow(
            neurons=neurons,
            hidden_layers=layers,
            train_acc=last.train_acc,
            val_acc=last.val_acc,
            train_loss=last.train_loss,
            val_loss=last.val_loss,
            image_size=backbone_config.input_size,
            epochs=base_config.total_epochs,
            num_params=model.num_parameters(),
        ))
        logs[f"{neurons}x{layers}"] = result.logs
    return SweepResult(rows=rows, best_index=select_best(rows), logs=logs)


def select_best(rows: list[SweepRow]) -> int:
    """Index of the winning row: highest val accuracy, ties to the row with
    fewer parameters, remaining ties to the earlier configuration."""
    best = 0
    for k in range(1, len(rows)):
        incumbent, challenger = rows[best], rows[k]
        if challenger.val_acc > incumbent.val_acc or (
            challenger.val_acc == incumbent.val_acc
            and challenger.num_params < incumbent.num_params
        ):
            best = k
    return best


# ---------------------------------------------------------------------------
# log and sweep serialization
# ---------------------------------------------------------------------------

def _write_csv(path, record_type, records) -> None:
    """A header line of ``record_type``'s field names, then one row per
    record with full-precision values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(record_type))
        writer.writerows(astuple(record) for record in records)


def write_logs(logs: list[EpochLog], path) -> None:
    """Per-epoch CSV with one header line and full-precision values."""
    _write_csv(path, EpochLog, logs)


def write_sweep_csv(result: SweepResult, path) -> None:
    _write_csv(path, SweepRow, result.rows)


def write_sweep_json(result: SweepResult, path) -> None:
    best = result.best_row
    write_json(path, {
        "rows": [asdict(row) for row in result.rows],
        "best": {"neurons": best.neurons, "hidden_layers": best.hidden_layers,
                 "val_acc": best.val_acc},
    })
