"""Tests for the optimizer, epoch loops, two-phase schedule and sweep."""

import csv
import math
from typing import get_type_hints

import numpy as np
import pytest

from maskdetect import data as data_module
from maskdetect import training
from maskdetect.checkpoint import load_into, save_checkpoint
from maskdetect.data import AugmentConfig, batches, split_dataset, synth_dataset
from maskdetect.errors import (
    CheckpointError, ConfigError, InputError, NonFiniteError, UsageError,
)
from maskdetect.nn import BackboneConfig, HeadConfig, build_model
from maskdetect.rng import SplitMix64
from maskdetect.tensor import Parameter, Tensor
from maskdetect.training import (
    Adam,
    EpochLog,
    SweepRow,
    SWEEP_HEADS,
    TrainConfig,
    capture_state,
    evaluate,
    pretrain_backbone,
    restore_state,
    select_best,
    sweep,
    train_epoch,
    two_phase_train,
    write_logs,
)


def tiny_backbone():
    """A 32-pixel two-block profile small enough for test-speed training."""
    return BackboneConfig(input_size=32, width_mult=0.25, num_blocks=2,
                          factorized_blocks=(2,))


def blob_batches(seed, n_batches=2, batch=6, size=32):
    """In-memory batches of class-shifted noise (labels cycle 0,1,2)."""
    rng = SplitMix64(seed)
    shift = (-0.6, 0.0, 0.6)
    out = []
    for _ in range(n_batches):
        x = np.empty((batch, 3, size, size), dtype=np.float32)
        y = np.zeros((batch, 3), dtype=np.float32)
        for i in range(batch):
            label = i % 3
            x[i] = shift[label] + rng.normal(0.0, 0.25, shape=(3, size, size))
            y[i, label] = 1.0
        out.append((Tensor(np.clip(x, -1.0, 1.0)), Tensor(y)))
    return out


def scalar_param(value):
    return Parameter("w", Tensor(np.array([value], dtype=np.float64)))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradients_identity():
    p = Parameter("w", Tensor(np.arange(6, dtype=np.float32).reshape(2, 3)))
    before = p.data.copy()
    opt = Adam([p], lr=1e-3)
    for _ in range(3):
        p.grad = np.zeros_like(p.data)
        opt.step()
    assert np.array_equal(p.data, before)
    assert opt.t == 3


def test_adam_first_step_hand_value():
    # t=1, g=1, lr=1e-3: m_hat = v_hat = 1, so the step is -lr/(1+eps)
    p = scalar_param(0.0)
    opt = Adam([p], lr=1e-3)
    p.grad = np.array([1.0], dtype=np.float64)
    opt.step()
    want = -1e-3 / (1.0 + 1e-8)
    assert abs(p.data.item() - want) < 1e-18
    assert abs(p.data.item() + 9.9999999e-4) < 1e-12


def test_adam_matches_reference_on_quadratic():
    # independently coded update rule on f(w) = w^2, g = 2w
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05
    m = v = 0.0
    theta = 1.3
    reference = []
    for t in range(1, 4):
        g = 2.0 * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        reference.append(theta)

    p = scalar_param(1.3)
    opt = Adam([p], lr=lr)
    got = []
    for _ in range(3):
        p.grad = np.array([2.0 * p.data.item()], dtype=np.float64)
        opt.step()
        got.append(p.data.item())
    assert np.allclose(got, reference, atol=1e-12, rtol=0.0)


def test_adam_tracks_only_trainable_and_requires_grads():
    a = Parameter("a", Tensor(np.zeros(2, dtype=np.float32)))
    b = Parameter("b", Tensor(np.zeros(2, dtype=np.float32)), trainable=False)
    opt = Adam([a, b], lr=1e-3)
    assert set(opt.m) == {"a"}
    with pytest.raises(UsageError, match="'a'"):
        opt.step()  # no gradient present
    assert opt.t == 1  # the failed step still counted its increment


def test_adam_second_moment_nonnegative():
    p = Parameter("w", Tensor(np.zeros(4, dtype=np.float32)))
    opt = Adam([p], lr=1e-3)
    rng = SplitMix64(2)
    for _ in range(20):
        p.grad = rng.normal(0.0, 3.0, shape=4).astype(np.float32)
        opt.step()
    assert np.all(opt.v["w"] >= 0.0)


def test_adam_flat_step_matches_a_step_per_tensor():
    # the update rule run tensor by tensor, as separate arrays
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
    shapes = [(4, 3, 3, 3), (4,), (7, 5), (1,), (2, 3)]
    rng = SplitMix64(11)
    params = [Parameter(f"p{i}", Tensor(rng.normal(shape=shape).astype(np.float32)))
              for i, shape in enumerate(shapes)]
    want = [p.data.copy() for p in params]
    m = [np.zeros(w.shape) for w in want]
    v = [np.zeros(w.shape) for w in want]
    opt = Adam(params, lr=lr)
    for t in range(1, 6):
        for i, p in enumerate(params):
            p.grad = rng.normal(0.0, 10.0 ** (i - 2), shape=p.data.shape).astype(np.float32)
            g = p.grad.astype(np.float64)
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            update = lr * (m[i] / (1.0 - b1**t)) / (np.sqrt(v[i] / (1.0 - b2**t)) + eps)
            want[i] -= update.astype(np.float32)
        opt.step()
        for i, p in enumerate(params):
            assert np.array_equal(p.data, want[i]), (t, p.name)
            assert np.array_equal(opt.m[p.name], m[i]) and np.array_equal(opt.v[p.name], v[i])


def test_adam_rejects_negative_lr():
    with pytest.raises(ConfigError):
        Adam([], lr=-1.0)


# ---------------------------------------------------------------------------
# train_epoch / evaluate
# ---------------------------------------------------------------------------


def frozen_head_model(seed=1):
    model = build_model(tiny_backbone(), HeadConfig(16, 1, dropout_rate=0.0), seed)
    model.set_trainable("backbone", False)
    return model


def test_train_epoch_lr_zero_changes_nothing():
    model = frozen_head_model()
    data = blob_batches(3)
    before = capture_state(model)
    opt = Adam(model.trainable_parameters(), lr=0.0)
    loss, acc = train_epoch(model, iter(data), opt, SplitMix64(0))
    after = capture_state(model)
    assert sorted(before) == sorted(after)
    for name in before:
        assert np.array_equal(before[name], after[name]), name
    # frozen normalization + no dropout: the train forward is the eval forward
    assert evaluate(model, iter(data)).loss == loss
    assert 0.0 <= acc <= 1.0


def test_train_epoch_deterministic():
    def run():
        model = build_model(tiny_backbone(), HeadConfig(16, 1), seed=5)
        opt = Adam(model.trainable_parameters(), lr=1e-3)
        return train_epoch(model, iter(blob_batches(7)), opt, SplitMix64(5))

    assert run() == run()


def test_train_epoch_loss_decreases_across_seeds():
    wins = 0
    for seed in range(10):
        model = build_model(tiny_backbone(), HeadConfig(16, 1, dropout_rate=0.0), seed)
        data = blob_batches(seed)
        opt = Adam(model.trainable_parameters(), lr=1e-3)
        rng = SplitMix64(seed)
        losses = [train_epoch(model, iter(data), opt, rng)[0] for _ in range(10)]
        wins += losses[-1] < losses[0]
    assert wins >= 8


def test_train_epoch_empty_stream():
    model = frozen_head_model()
    opt = Adam(model.trainable_parameters(), lr=1e-3)
    with pytest.raises(UsageError):
        train_epoch(model, iter([]), opt, SplitMix64(0))


@pytest.mark.parametrize("lr, named", [
    (1e30, "training loss is nan at epoch 3, batch 2"),
    (1e10, "gradient of backbone.stem.0.conv.weight is not finite at epoch 3, batch 2"),
])
def test_train_epoch_stops_on_non_finite_values(lr, named):
    # one step at a huge rate blows the weights up; the next batch's loss
    # or gradient is then not finite and must stop the run before stepping
    model = build_model(tiny_backbone(), HeadConfig(16, 1, dropout_rate=0.0), 1)
    opt = Adam(model.trainable_parameters(), lr=lr)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as info:
        train_epoch(model, iter(blob_batches(3, n_batches=3)), opt, SplitMix64(0), epoch=3)
    assert named in str(info.value)
    assert opt.t == 1


def test_train_epoch_stops_on_a_nan_pixel():
    # a NaN input must reach the loss through every relu, not turn into 0
    model = frozen_head_model()
    (x, y), = blob_batches(3, n_batches=1)
    x.data[2, 1, 5, 7] = np.nan
    opt = Adam(model.trainable_parameters(), lr=1e-3)
    with pytest.raises(NonFiniteError, match="training loss is nan at epoch 1, batch 1"):
        train_epoch(model, iter([(x, y)]), opt, SplitMix64(0))
    assert opt.t == 0


def test_evaluate_constant_predictor_on_balanced_set():
    model = frozen_head_model()
    model.out.weight.data[...] = 0.0
    model.out.bias.data[...] = np.array([1.0, 0.0, 0.0], dtype=np.float32)
    result = evaluate(model, iter(blob_batches(1, n_batches=2, batch=6)))
    assert result.pred == [0] * 12
    assert abs(result.accuracy - 1.0 / 3.0) < 1e-12


def test_evaluate_ties_resolve_to_lowest_class():
    model = frozen_head_model()
    model.out.weight.data[...] = 0.0
    model.out.bias.data[...] = 0.0  # all logits equal -> uniform softmax
    result = evaluate(model, iter(blob_batches(2)))
    assert set(result.pred) == {0}


def test_evaluate_repeatable_and_matches_dumped_pairs():
    model = build_model(tiny_backbone(), HeadConfig(16, 1), seed=8)
    data = blob_batches(9)
    a = evaluate(model, iter(data))
    b = evaluate(model, iter(data))
    assert a.report == b.report
    assert a.pred == b.pred
    # independent recount from the dumped pairs
    want_acc = sum(p == t for p, t in zip(a.pred, a.truth)) / len(a.pred)
    assert abs(a.accuracy - want_acc) < 1e-12
    tally = np.zeros((3, 3), dtype=np.int64)
    for p, t in zip(a.pred, a.truth):
        tally[t, p] += 1
    assert np.array_equal(a.cm.counts, tally)


def test_evaluate_empty_stream():
    with pytest.raises(UsageError):
        evaluate(frozen_head_model(), iter([]))


# ---------------------------------------------------------------------------
# two-phase schedule
# ---------------------------------------------------------------------------


def small_corpus(tmp_path, n=10, size=32, seed=0):
    return split_dataset(synth_dataset(n, size, seed, tmp_path / "corpus"), seed=seed)


def quick_config(**overrides):
    base = dict(epochs_phase1=1, epochs_phase2=1, unfreeze_last_k=1,
                batch_size=8, seed=4, augment=None)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.mark.parametrize("ratios, empty", [((0.7, 0.15, 0.15), "val"), ((0.0, 0.5, 0.5), "train")])
def test_two_phase_train_refuses_an_empty_split_before_any_epoch(tmp_path, ratios, empty):
    index = split_dataset(synth_dataset(4, 32, 0, tmp_path / "corpus"), ratios, seed=0)
    model = build_model(tiny_backbone(), HeadConfig(16, 1), seed=4)
    seen = []
    with pytest.raises(InputError, match=f"'{empty}' split has 0 of the 12 samples"):
        two_phase_train(model, index, quick_config(epochs_phase1=0), on_epoch=seen.append)
    assert seen == []
    with pytest.raises(InputError, match=f"'{empty}' split"):
        sweep(index, tiny_backbone(), quick_config())
    # with no epoch to run, nothing reads either split
    assert two_phase_train(model, index, quick_config(epochs_phase1=0, epochs_phase2=0)).logs == []


def test_two_phase_freeze_audits(tmp_path):
    index = small_corpus(tmp_path)

    # phase 1 only: every backbone entry bit-equals its starting value
    model_a = build_model(tiny_backbone(), HeadConfig(16, 1), seed=4)
    init = capture_state(model_a)
    result_a = two_phase_train(model_a, index, quick_config(epochs_phase2=0))
    after_p1 = capture_state(model_a)
    for name in init:
        if name.startswith("backbone."):
            assert np.array_equal(init[name], after_p1[name]), name
    changed_head = [n for n in init if n.startswith("head.")
                    and not np.array_equal(init[n], after_p1[n])]
    assert changed_head  # the head actually trained

    # identical seed with a phase 2 appended: phase 1 replays identically,
    # so anything outside head + last-k blocks must still match after_p1
    model_b = build_model(tiny_backbone(), HeadConfig(16, 1), seed=4)
    result_b = two_phase_train(model_b, index, quick_config())
    final = capture_state(model_b)
    for name in final:
        if name.startswith("backbone.") and not name.startswith("backbone.block2"):
            assert np.array_equal(final[name], after_p1[name]), name
    unfrozen = {p.name for p in model_b.trainable_parameters()}
    assert all(n.startswith(("head.", "backbone.block2")) for n in unfrozen)
    assert any(n.startswith("backbone.block2") for n in unfrozen)
    assert len(result_a.logs) == 1 and len(result_b.logs) == 2


def test_two_phase_log_structure(tmp_path):
    index = small_corpus(tmp_path)
    model = build_model(tiny_backbone(), HeadConfig(16, 1), seed=2)
    result = two_phase_train(model, index, quick_config(epochs_phase1=2, epochs_phase2=2))
    logs = result.logs
    assert [log.epoch for log in logs] == [1, 2, 3, 4]
    assert [log.phase for log in logs] == [1, 1, 2, 2]
    for log in logs:
        assert log.train_loss >= 0.0 and log.val_loss >= 0.0
        assert 0.0 <= log.train_acc <= 1.0 and 0.0 <= log.val_acc <= 1.0
        assert log.wall_seconds >= 0.0


def test_two_phase_deterministic(tmp_path):
    index = small_corpus(tmp_path)

    def run():
        model = build_model(tiny_backbone(), HeadConfig(16, 1), seed=6)
        result = two_phase_train(model, index, quick_config(seed=6))
        return capture_state(model), result.logs

    state_a, logs_a = run()
    state_b, logs_b = run()
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name
    for la, lb in zip(logs_a, logs_b):
        assert (la.epoch, la.phase, la.train_loss, la.train_acc,
                la.val_loss, la.val_acc) == (
            lb.epoch, lb.phase, lb.train_loss, lb.train_acc,
            lb.val_loss, lb.val_acc)


def test_two_phase_best_state_restores(tmp_path):
    index = small_corpus(tmp_path)
    model = build_model(tiny_backbone(), HeadConfig(16, 1), seed=3)
    result = two_phase_train(model, index, quick_config(epochs_phase1=2))
    assert result.best_epoch >= 1
    assert 0.0 <= result.best_val_acc <= 1.0
    fresh = build_model(tiny_backbone(), HeadConfig(16, 1), seed=99)
    restore_state(fresh, result.best_state)
    val = evaluate(fresh, batches(index, "val", 8, False, image_size=32))
    assert val.accuracy == result.best_val_acc


def test_two_phase_unfreeze_bound(tmp_path):
    index = small_corpus(tmp_path)
    model = build_model(tiny_backbone(), HeadConfig(16, 1), seed=0)
    with pytest.raises(ConfigError):
        two_phase_train(model, index, quick_config(unfreeze_last_k=3))


def test_two_phase_on_epoch_sees_each_log_in_order(tmp_path):
    index = small_corpus(tmp_path)
    model = build_model(tiny_backbone(), HeadConfig(16, 1), seed=2)
    seen = []
    result = two_phase_train(model, index, quick_config(epochs_phase1=2),
                             on_epoch=lambda log: seen.append(log))
    assert seen == result.logs
    assert all(a is b for a, b in zip(seen, result.logs))


def reference_two_phase(model, index, config):
    """The two-phase schedule as plain full-model epochs over data.batches:
    (logs minus wall_seconds, best epoch, best state)."""
    size = model.backbone_config.input_size
    num_blocks = model.backbone_config.num_blocks
    rng = SplitMix64(config.seed)
    dropout_rng = rng.derive("dropout")
    logs, best = [], (-1.0, 0, None)
    model.set_trainable("backbone", False)
    epoch = 0
    for phase, epochs, lr in ((1, config.epochs_phase1, config.lr_phase1),
                              (2, config.epochs_phase2, config.lr_phase2)):
        if phase == 2:
            for b in range(num_blocks - config.unfreeze_last_k + 1, num_blocks + 1):
                model.set_trainable(f"backbone.block{b}", True)
        opt = Adam(model.trainable_parameters(), lr)
        for _ in range(epochs):
            epoch += 1
            train = batches(index, "train", config.batch_size, True, config.augment, rng,
                            image_size=size, epoch=epoch)
            train_loss, train_acc = train_epoch(model, train, opt, dropout_rng, epoch)
            val = evaluate(model, batches(index, "val", config.batch_size, False,
                                          image_size=size))
            logs.append((epoch, phase, train_loss, train_acc, val.loss, val.accuracy))
            if val.accuracy > best[0]:
                best = (val.accuracy, epoch, capture_state(model))
    return logs, best[1], best[2]


@pytest.mark.parametrize("overrides, dropout_rate, cache_bytes", [
    ({}, 0.0, None),
    ({"augment": AugmentConfig()}, 0.0, None),
    ({}, 0.3, None),
    ({"augment": AugmentConfig()}, 0.3, None),
    ({"unfreeze_last_k": 0}, 0.0, None),
    ({"unfreeze_last_k": 2}, 0.3, None),   # every block of the tiny backbone
    ({"epochs_phase1": 0}, 0.0, None),
    ({}, 0.3, 0),   # no cache room: every split runs its prefix per batch
    ({"epochs_phase2": 0}, 0.0, None),
    # room for phase 1's pooled rows (at most 24 x 144 bytes a split) but not
    # for the block-2 inputs phase 2 starts from (7,680 bytes a row): phase 1
    # memoises from the images and phase 2 runs its prefix per batch
    ({}, 0.3, 4096),
])
def test_two_phase_matches_full_model_reference(tmp_path, monkeypatch, overrides,
                                                dropout_rate, cache_bytes):
    if cache_bytes is not None:
        monkeypatch.setattr(training, "_PREFIX_CACHE_BYTES", cache_bytes)
    index = small_corpus(tmp_path)
    config = quick_config(**{"epochs_phase1": 2, "epochs_phase2": 2, **overrides})

    def fresh():
        return build_model(tiny_backbone(), HeadConfig(16, 1, dropout_rate), seed=4)

    ref, model = fresh(), fresh()
    want_logs, want_epoch, want_best = reference_two_phase(ref, index, config)
    result = two_phase_train(model, index, config)
    got_logs = [(g.epoch, g.phase, g.train_loss, g.train_acc, g.val_loss, g.val_acc)
                for g in result.logs]
    assert got_logs == want_logs
    assert result.best_epoch == want_epoch
    final = capture_state(model)
    for name, value in capture_state(ref).items():
        assert np.array_equal(final[name], value), name
        assert np.array_equal(result.best_state[name], want_best[name]), name


def count_loads(monkeypatch):
    """Count data.load_ppm calls per path from here on."""
    loads = {}
    original = data_module.load_ppm

    def counting(path):
        loads[path] = loads.get(path, 0) + 1
        return original(path)

    monkeypatch.setattr(data_module, "load_ppm", counting)
    return loads


@pytest.mark.parametrize("augment", [None, AugmentConfig()], ids=["plain", "augmented"])
def test_two_phase_loads_each_image_once_per_run(tmp_path, monkeypatch, augment):
    # both phases share one frozen-prefix pass per split; an augmented train
    # split is decoded and augmented anew each epoch
    index = small_corpus(tmp_path)
    loads = count_loads(monkeypatch)
    model = build_model(tiny_backbone(), HeadConfig(16, 1), seed=4)
    config = quick_config(epochs_phase1=3, epochs_phase2=2, augment=augment)
    two_phase_train(model, index, config)
    per_train = 1 if augment is None else config.total_epochs
    want = {s.path: per_train if s.split == "train" else 1
            for s in index.samples if s.split in ("train", "val")}
    assert loads == want


def test_phase_two_does_not_probe_a_prefix_past_the_cache_again(tmp_path, monkeypatch):
    # room for phase 1's pooled rows but not for phase 2's block-2 inputs:
    # the stage's output shape tells the run so before it loads an image,
    # so phase 1's one pass loads each image once, and phase 2 once per epoch
    monkeypatch.setattr(training, "_PREFIX_CACHE_BYTES", 4096)
    index = small_corpus(tmp_path)
    loads = count_loads(monkeypatch)
    runs = []
    for epochs_phase2 in (0, 2):
        loads.clear()
        model = build_model(tiny_backbone(), HeadConfig(16, 1), seed=4)
        two_phase_train(model, index, quick_config(epochs_phase1=1,
                                                   epochs_phase2=epochs_phase2))
        runs.append(dict(loads))
    assert runs[0] == {s.path: 1 for s in index.samples if s.split in ("train", "val")}
    assert runs[1] == {path: 3 for path in runs[0]}


def test_train_config_defaults_and_dicts():
    config = TrainConfig()
    assert (config.epochs_phase1, config.epochs_phase2) == (40, 20)
    assert config.total_epochs == 60
    assert config.unfreeze_last_k == 2
    assert (config.lr_phase1, config.lr_phase2) == (1e-3, 1e-4)
    assert config.batch_size == 32
    assert config.augment is not None

    again = TrainConfig.from_dict(config.to_dict())
    assert again == config
    bare = TrainConfig.from_dict({"augment": None, "epochs_phase1": 1})
    assert bare.augment is None
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"epochs": 5})
    # zero total epochs is legal: it means "evaluate the initial weights"
    TrainConfig(epochs_phase1=0, epochs_phase2=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(epochs_phase1=-1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr_phase1=-1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(unfreeze_last_k=-1).validate()


# ---------------------------------------------------------------------------
# backbone transfer
# ---------------------------------------------------------------------------


def test_pretrain_and_adopt_backbone(tmp_path):
    index = small_corpus(tmp_path)
    donor = pretrain_backbone(index, tiny_backbone(), seed=1, epochs=1, batch_size=8)
    ckpt = tmp_path / "backbone.ckpt"
    save_checkpoint(donor, ckpt)

    target = build_model(tiny_backbone(), HeadConfig(64, 2), seed=9)
    fresh = build_model(tiny_backbone(), HeadConfig(64, 2), seed=9)
    load_into(target, ckpt, prefix="backbone.")

    donor_state = capture_state(donor)
    target_state = capture_state(target)
    fresh_state = capture_state(fresh)
    for name in target_state:
        if name.startswith("backbone."):
            assert np.array_equal(target_state[name], donor_state[name]), name
        else:
            assert np.array_equal(target_state[name], fresh_state[name]), name
    # pretraining actually moved the running statistics that came across
    assert any(
        not np.array_equal(donor_state[n], fresh_state[n])
        for n in donor_state if n.endswith("running_mean")
    )


def test_prefix_load_still_audits(tmp_path):
    index = small_corpus(tmp_path)
    donor = pretrain_backbone(index, tiny_backbone(), seed=1, epochs=1, batch_size=8)
    ckpt = tmp_path / "backbone.ckpt"
    save_checkpoint(donor, ckpt)
    other = build_model(
        BackboneConfig(input_size=32, width_mult=0.5, num_blocks=2,
                       factorized_blocks=(2,)),
        HeadConfig(16, 1), seed=0,
    )
    with pytest.raises(CheckpointError):
        load_into(other, ckpt, prefix="backbone.")
    with pytest.raises(CheckpointError, match="prefix"):
        load_into(other, ckpt, prefix="nothing.")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_rows_and_selection(tmp_path):
    index = small_corpus(tmp_path)
    result = sweep(index, tiny_backbone(), quick_config(seed=3))
    assert [(r.neurons, r.hidden_layers) for r in result.rows] == list(SWEEP_HEADS)
    assert len(result.rows) == 7
    for row in result.rows:
        assert row.image_size == 32
        assert row.epochs == 2
        assert 0.0 <= row.train_acc <= 1.0 and 0.0 <= row.val_acc <= 1.0
        assert row.train_loss >= 0.0 and row.val_loss >= 0.0
        assert row.num_params > 0
    assert result.logs["32x1"][0].phase == 1
    assert len(result.logs) == 7
    assert result.best_index == select_best(result.rows)
    assert result.best_row.val_acc == max(r.val_acc for r in result.rows)


def test_sweep_keeps_head_config_but_units_and_layers(tmp_path, monkeypatch):
    built = []

    def recording_build(backbone, head, seed):
        built.append(head)
        return build_model(backbone, head, seed)

    def one_epoch(model, index, config):
        return training.TrainResult(model, [EpochLog(1, 1, 0.5, 0.5, 0.5, 0.5, 0.0)],
                                    {}, 0.5, 1)

    monkeypatch.setattr(training, "build_model", recording_build)
    monkeypatch.setattr(training, "two_phase_train", one_epoch)
    sweep(small_corpus(tmp_path, n=2), tiny_backbone(), quick_config(),
          head_config=HeadConfig(hidden_units=999, hidden_layers=9, dropout_rate=0.25))
    assert built == [HeadConfig(neurons, layers, dropout_rate=0.25)
                     for neurons, layers in SWEEP_HEADS]


def test_sweep_refuses_a_schedule_with_no_epochs_before_building_a_model(tmp_path,
                                                                        monkeypatch):
    # a sweep scores each head by its last epoch
    def no_build(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(training, "build_model", no_build)
    with pytest.raises(ConfigError, match="epochs_phase1.*epochs_phase2"):
        sweep(small_corpus(tmp_path, n=2), tiny_backbone(),
              quick_config(epochs_phase1=0, epochs_phase2=0))


def test_select_best_tie_breaks():
    def row(val_acc, num_params):
        return SweepRow(32, 1, 0.9, val_acc, 0.1, 0.1, 32, 2, num_params)

    assert select_best([row(0.8, 10), row(0.9, 20)]) == 1
    assert select_best([row(0.9, 20), row(0.9, 10)]) == 1  # tie -> fewer params
    assert select_best([row(0.9, 10), row(0.9, 10)]) == 0  # full tie -> earlier
    assert select_best([row(0.9, 10), row(0.9, 20)]) == 0


# ---------------------------------------------------------------------------
# logs on disk
# ---------------------------------------------------------------------------


def fake_logs(total=60, switch=40):
    logs = []
    for e in range(1, total + 1):
        logs.append(EpochLog(
            epoch=e,
            phase=1 if e <= switch else 2,
            train_loss=1.0 / e,
            train_acc=1.0 - 1.0 / (e + 1),
            val_loss=1.1 / e,
            val_acc=1.0 - 1.3 / (e + 2),
            wall_seconds=0.25,
        ))
    return logs


def test_write_logs_sixty_epochs(tmp_path):
    path = tmp_path / "log.csv"
    write_logs(fake_logs(), path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 61
    assert lines[0] == "epoch,phase,train_loss,train_acc,val_loss,val_acc,wall_seconds"
    phases = [int(line.split(",")[1]) for line in lines[1:]]
    assert phases[39] == 1 and phases[40] == 2  # switch exactly at epoch 41


def read_logs(path) -> list[EpochLog]:
    """Parse a ``write_logs`` CSV back into epoch logs, each field by its type."""
    kinds = get_type_hints(EpochLog)
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return [EpochLog(**{name: kind(row[name]) for name, kind in kinds.items()})
                for row in csv.DictReader(fh)]


def test_logs_roundtrip(tmp_path):
    path = tmp_path / "log.csv"
    logs = fake_logs(total=7, switch=4)
    write_logs(logs, path)
    again = read_logs(path)
    assert again == logs  # full-precision values survive the CSV
