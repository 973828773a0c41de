"""Architecture tests: shapes, naming, freezing, and mode semantics."""

import tracemalloc

import numpy as np
import pytest

from maskdetect import tensor as T
from maskdetect.errors import ConfigError, ParameterError, ShapeError, UsageError
from maskdetect.nn import (
    BackboneConfig,
    HeadConfig,
    InceptionBlock,
    Model,
    _he_uniform,
    build_model,
    desk_backbone,
)
from maskdetect.rng import SplitMix64


def _desk_model(seed=0, **head_kw):
    head = HeadConfig(**head_kw) if head_kw else HeadConfig()
    return build_model(desk_backbone(), head, seed=seed)


def _input(seed, n=2, size=75, ch=3):
    return T.Tensor(SplitMix64(seed).normal(shape=(n, ch, size, size)).astype(np.float32))


# -- shapes ---------------------------------------------------------------------


def test_desk_profile_dimensions():
    m = _desk_model()
    # width 0.25 quarters every base width: stem 8/8/16, blocks 30 or 36 out
    assert [u.conv.weight.data.shape[0] for u in m.stem] == [8, 8, 16]
    assert [b.out_channels for b in m.blocks] == [30, 36, 30, 36]
    assert m.feature_dim == 36
    feats = m.features(_input(1))
    assert feats.shape == (2, 36)


def test_full_profile_dimensions():
    cfg = BackboneConfig()
    m = build_model(cfg, HeadConfig(), seed=0)
    assert [u.conv.weight.data.shape[0] for u in m.stem] == [32, 32, 64]
    assert [b.out_channels for b in m.blocks] == [120, 144, 120, 144]
    assert m.feature_dim == 144


def test_inception_block_preserves_spatial_size():
    rng = SplitMix64(5)
    blk = InceptionBlock("backbone.block1", 16, 0.25, True)
    _he_uniform(blk.parameters(), rng)
    x = T.Tensor(SplitMix64(1).normal(shape=(1, 16, 19, 19)).astype(np.float32))
    y = blk.forward(x, "eval")
    assert y.shape == (1, blk.out_channels, 19, 19)


def _random_block(dtype, seed, in_ch=16):
    """A factorized desk-width block at ``dtype`` whose batch norms carry
    random affine parameters and running statistics."""
    rng = SplitMix64(seed)
    blk = InceptionBlock("backbone.block1", in_ch, 0.25, True)
    _he_uniform(blk.parameters(), rng)
    for unit in blk._units():
        c = unit.out_channels
        unit.conv.weight.data = unit.conv.weight.data.astype(dtype)
        unit.bn.gamma.data = (np.abs(rng.normal(shape=c)) + 0.5).astype(dtype)
        unit.bn.beta.data = rng.normal(shape=c).astype(dtype)
        unit.bn.state.running_mean = rng.normal(std=0.1, shape=c).astype(dtype)
        unit.bn.state.running_var = (np.abs(rng.normal(shape=c)) + 0.5).astype(dtype)
    return blk


@pytest.mark.parametrize("dtype, atol", [(np.float32, 1e-5), (np.float64, 1e-12)])
@pytest.mark.parametrize("mode", ["eval", "train"])
def test_pool_branch_projects_then_pools_as_pooling_first_would(dtype, atol, mode):
    # the projection has no bias and the pool counts its zero padding, so
    # both maps are linear and commute; float32 sums in another order and
    # differs in its last bits (at most 2e-6 seen over 20 seeds)
    for seed in range(3):
        blk = _random_block(dtype, seed)
        x = T.Tensor(SplitMix64(100 + seed).normal(shape=(4, 16, 19, 19)).astype(dtype))
        proj = blk.branches[-1][0]
        got = blk.forward(x, mode).data[:, -proj.out_channels:]
        want = proj.forward(T.pool2d(x, "avg", 3, 1, padding=1), mode).data
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= atol


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_inception_block_input_gradient_f64(mode):
    blk = _random_block(np.float64, 7, in_ch=4)
    x = T.Tensor(SplitMix64(8).normal(shape=(2, 4, 6, 6)))
    s = T.Tensor(SplitMix64(9).normal(shape=(2, blk.out_channels, 6, 6)))
    assert T.gradient_check(lambda t: (blk.forward(t, mode) * s).sum(), x) < 1e-6


def _graph_reference(blk, x):
    """``blk``'s eval output by the graph ops, nothing folded: each unit a
    conv (then the pool, on the pool branch), batch_norm2d by running
    statistics, then relu."""
    outs = []
    for branch in blk.branches:
        y = x
        for unit in branch:
            conv, bn = unit.conv, unit.bn
            y = T.conv2d(y, conv.weight, stride=conv.stride, padding=conv.padding)
            if branch is blk.branches[-1]:
                y = T.pool2d(y, "avg", 3, 1, padding=1)
            y = T.relu(T.batch_norm2d(y, bn.gamma, bn.beta, bn.state, "eval",
                                      epsilon=bn.epsilon))
        outs.append(y)
    return T.concat_channels(outs).data


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 2e-6), (np.float64, 1e-13)])
def test_folded_eval_block_matches_the_graph_path(dtype, rtol):
    # the fold scales the conv weights and shifts once, where the graph ops
    # normalize the conv output.  Largest float32 error over 20 seeds: 5.0e-7
    # of the largest output
    for seed in range(3):
        blk = _random_block(dtype, seed)
        x = T.Tensor(SplitMix64(100 + seed).normal(shape=(4, 16, 19, 19)).astype(dtype))
        got = blk.forward(x, "eval").data
        want = _graph_reference(blk, x)
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_block_bits_do_not_depend_on_the_input_gradient(dtype):
    # an eval unit runs folded whether or not its input needs a gradient
    for seed in range(3):
        blk = _random_block(dtype, seed)
        x = SplitMix64(100 + seed).normal(shape=(4, 16, 19, 19)).astype(dtype)
        plain = blk.forward(T.Tensor(x), "eval")
        tracked = blk.forward(T.Tensor(x, requires_grad=True), "eval")
        assert not plain.requires_grad and tracked.requires_grad
        assert plain.data.tobytes() == tracked.data.tobytes()


def test_eval_forward_of_a_trainable_backbone_records_no_graph():
    m = _desk_model(seed=2)
    assert all(p.trainable for p in m.parameters())
    y = _input(3, n=4)
    for k in range(m.num_stages - 1):
        y = m.run(y, k, k + 1)
        assert not y.requires_grad and y._parents == (), k
    logits = m.run(y, m.num_stages - 1)
    targets = T.Tensor(np.eye(3, dtype=np.float32)[[0, 1, 2, 0]])
    T.softmax_cross_entropy(logits, targets).backward()
    for p in m.parameters():
        assert (p.grad is None) == p.name.startswith("backbone."), p.name
    # an input that needs a gradient gets one through the folded units, and
    # the backbone parameters still get none
    m.zero_grad()
    x = T.Tensor(_input(3, n=4).data, requires_grad=True)
    T.softmax_cross_entropy(m.forward_logits(x), targets).backward()
    assert x.grad is not None and np.abs(x.grad).max() > 0
    for p in m.parameters():
        assert (p.grad is None) == p.name.startswith("backbone."), p.name


def test_eval_forward_of_a_trainable_backbone_holds_no_graph_memory():
    # the graph path would keep every unit's columns and activations alive
    # (a 114 MB peak); folded, each is freed as the next unit runs, and a
    # conv copies its columns a few samples at a time (6.3 MB; 18 MB with
    # the whole batch's columns)
    m = _desk_model()
    x = _input(4, n=32)
    tracemalloc.start()
    try:
        m.forward_logits(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def test_forward_returns_probability_rows():
    m = _desk_model(seed=3)
    p = m.forward(_input(2, n=4), "eval")
    assert p.shape == (4, 3)
    assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-5)
    assert (p.data >= 0).all()
    assert np.isfinite(p.data).all()


def test_forward_logits_matches_forward_through_softmax():
    m = _desk_model(seed=4)
    x = _input(3)
    logits = m.forward_logits(x, "eval")
    probs = m.forward(x, "eval")
    assert np.allclose(T.softmax(logits).data, probs.data, atol=1e-7)


def test_eval_forward_is_deterministic():
    m = _desk_model(seed=5)
    x = _input(4)
    a = m.forward(x, "eval").data
    b = m.forward(x, "eval").data
    assert np.array_equal(a, b)


def test_eval_features_do_not_depend_on_the_batch():
    # every conv is one GEMM per sample and the head one product per row, so
    # a crop's features and logits are the same bits whether it is
    # classified alone or in a batch
    m = _desk_model()
    x = _input(8, n=14)
    batch = m.features(x).data
    logits = m.forward_logits(x).data
    for i in range(14):
        one = T.Tensor(x.data[i : i + 1])
        assert np.array_equal(m.features(one).data, batch[i : i + 1])
        assert m.forward_logits(one).data.tobytes() == logits[i : i + 1].tobytes()


def test_head_layer_count_and_zero_hidden():
    m2 = _desk_model(hidden_units=64, hidden_layers=3)
    assert [fc.weight.data.shape for fc in m2.fcs] == [(36, 64), (64, 64), (64, 64)]
    assert m2.out.weight.data.shape == (64, 3)
    m0 = _desk_model(hidden_units=64, hidden_layers=0)
    assert m0.fcs == []
    assert m0.out.weight.data.shape == (36, 3)
    assert m0.forward(_input(5), "train").shape == (2, 3)  # no dropout without hidden layers


# -- initialization ----------------------------------------------------------------


def test_init_is_seed_deterministic_and_seed_sensitive():
    a = _desk_model(seed=11)
    b = _desk_model(seed=11)
    c = _desk_model(seed=12)
    assert all(np.array_equal(p.data, q.data) for p, q in zip(a.parameters(), b.parameters()))
    diffs = sum(
        not np.array_equal(p.data, q.data) for p, q in zip(a.parameters(), c.parameters())
    )
    assert diffs > 0


def test_init_respects_fan_in_bounds():
    m = _desk_model(seed=13)
    for p in m.parameters():
        if p.name.endswith("conv.weight"):
            o, c, kh, kw = p.data.shape
            bound = np.sqrt(6.0 / (c * kh * kw))
            assert np.abs(p.data).max() <= bound
            assert np.abs(p.data).max() > 0.5 * bound  # actually fills the range
        elif p.name.endswith(".bias") or p.name.endswith(".beta"):
            assert (p.data == 0).all()
        elif p.name.endswith(".gamma"):
            assert (p.data == 1).all()


def test_model_alone_holds_zero_weights_and_build_model_draws_them():
    bare = Model(desk_backbone(), HeadConfig(), seed=13)
    drawn = _desk_model(seed=13)
    for p, q in zip(bare.parameters(), drawn.parameters()):
        assert p.name == q.name
        if p.name.endswith(".weight"):
            assert not p.data.any() and q.data.any()
        else:
            assert np.array_equal(p.data, q.data)  # gamma 1, beta and bias 0
    for (_, a), (_, b) in zip(bare.buffers(), drawn.buffers()):
        assert np.array_equal(a, b)


def test_parameter_names_unique_and_order_stable():
    m = _desk_model(seed=1)
    names = [p.name for p in m.parameters()]
    assert len(names) == len(set(names))
    assert names == [p.name for p in _desk_model(seed=2).parameters()]
    assert names[0].startswith("backbone.stem.0.")
    assert names[-1] == "head.out.bias"
    # convs carry no bias: a batch norm follows each, and its beta is the shift
    assert not [n for n in names if n.endswith(".conv.bias")]
    units = list(m.stem) + [u for b in m.blocks for u in b._units()]
    assert len(units) == 33
    for unit in units:
        prefix = unit.conv.weight.name[: -len("conv.weight")]
        assert [p.name for p in unit.parameters()] == [
            prefix + "conv.weight", prefix + "bn.gamma", prefix + "bn.beta"]
    buf_names = [n for n, _ in m.buffers()]
    assert all(n.endswith(("running_mean", "running_var")) for n in buf_names)
    assert len(buf_names) == len(set(buf_names))


# -- freezing ---------------------------------------------------------------------


def test_set_trainable_counts_and_validation():
    m = _desk_model()
    n_backbone = len([p for p in m.parameters() if p.name.startswith("backbone.")])
    assert m.set_trainable("backbone.", False) == n_backbone
    assert m.set_trainable("backbone.", False) == 0  # already frozen
    assert sum(p.data.size for p in m.trainable_parameters()) == sum(
        p.data.size for p in m.parameters() if p.name.startswith("head.")
    )
    assert m.set_trainable("backbone.block4", True) > 0
    with pytest.raises(ParameterError):
        m.set_trainable("backbone.block9", True)


def test_frozen_backbone_gets_no_gradients():
    m = _desk_model(seed=6)
    m.set_trainable("backbone.", False)
    x = _input(6, n=4)
    targets = np.zeros((4, 3), dtype=np.float32)
    targets[np.arange(4), [0, 1, 2, 0]] = 1.0
    loss = T.softmax_cross_entropy(
        m.forward_logits(x, "train", SplitMix64(8)), T.Tensor(targets)
    )
    loss.backward()
    for p in m.parameters():
        if p.name.startswith("backbone."):
            assert p.grad is None, p.name
        else:
            assert p.grad is not None, p.name
    m.zero_grad()
    assert all(p.grad is None for p in m.parameters())


def test_frozen_normalization_uses_running_stats_in_train_mode():
    m = _desk_model(seed=7)
    x = _input(7, n=4)
    # unfrozen train mode shifts running stats away from their init
    before = [arr.copy() for _, arr in m.buffers()]
    m.features(x, "train")
    after_unfrozen = [arr.copy() for _, arr in m.buffers()]
    assert any(not np.array_equal(a, b) for a, b in zip(before, after_unfrozen))
    # frozen train mode leaves them alone and matches eval output exactly
    m.set_trainable("backbone.", False)
    snapshot = [arr.copy() for _, arr in m.buffers()]
    frozen_train = m.features(x, "train")
    assert all(np.array_equal(s, arr) for s, (_, arr) in zip(snapshot, m.buffers()))
    eval_out = m.features(x, "eval")
    assert np.array_equal(frozen_train.data, eval_out.data)


def test_a_unit_with_only_its_batch_norm_frozen_trains_with_batch_statistics():
    # a unit is frozen only when none of its parameters trains; this one's
    # conv weight still does, so its batch norm uses batch statistics
    m = _desk_model(seed=7)
    assert m.set_trainable("backbone.stem.0.bn", False) == 2
    unit = m.stem[0]
    before = [arr.copy() for _, arr in unit.buffers()]
    m.features(_input(7, n=4), "train").sum().backward()
    assert all(not np.array_equal(b, arr) for b, (_, arr) in zip(before, unit.buffers()))
    assert unit.conv.weight.grad is not None and np.abs(unit.conv.weight.grad).max() > 0
    assert unit.bn.gamma.grad is None and unit.bn.beta.grad is None


# -- mode handling -----------------------------------------------------------------


def test_train_dropout_requires_generator():
    m = _desk_model(seed=8)
    x = _input(8)
    with pytest.raises(UsageError):
        m.forward(x, "train")
    p1 = m.forward(x, "train", SplitMix64(3)).data
    p2 = m.forward(x, "train", SplitMix64(3)).data
    assert np.array_equal(p1, p2)  # same stream, same masks
    assert m.forward(x, "eval").shape == (2, 3)


def test_invalid_mode_rejected():
    m = _desk_model()
    with pytest.raises(ParameterError):
        m.forward(_input(9), "predict")


def test_input_validation():
    m = _desk_model()
    with pytest.raises(ShapeError):
        m.forward(T.Tensor(np.zeros((2, 3, 64, 64), dtype=np.float32)))
    with pytest.raises(ShapeError):
        m.forward(T.Tensor(np.zeros((2, 1, 75, 75), dtype=np.float32)))
    with pytest.raises(ShapeError):
        m.forward(T.Tensor(np.zeros((3, 75, 75), dtype=np.float32)))
    with pytest.raises(ParameterError):
        m.forward(T.Tensor(np.zeros((2, 3, 75, 75), dtype=np.float64)))


# -- configuration -----------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        BackboneConfig(width_mult=0.0).validate()
    with pytest.raises(ConfigError):
        BackboneConfig(stem_channels=(32,), stem_strides=(2, 1)).validate()
    with pytest.raises(ConfigError):
        BackboneConfig(factorized_blocks=(5,)).validate()
    with pytest.raises(ConfigError):
        BackboneConfig(input_size=4).validate()
    with pytest.raises(ConfigError):
        HeadConfig(hidden_layers=-1).validate()
    with pytest.raises(ConfigError):
        HeadConfig(dropout_rate=1.0).validate()


MODEL_SIZE_BOUNDS = [
    (BackboneConfig, "input_size", 1024, 1025),
    (BackboneConfig, "width_mult", 4.0, 4.01),
    (BackboneConfig, "stem_channels", (1024, 32, 64), (32, 1025, 64)),
    (BackboneConfig, "num_blocks", 16, 17),
    (HeadConfig, "hidden_units", 4096, 4097),
    (HeadConfig, "hidden_layers", 8, 9),
]


@pytest.mark.parametrize("cls, key, largest, too_large", MODEL_SIZE_BOUNDS,
                         ids=[key for _, key, _, _ in MODEL_SIZE_BOUNDS])
def test_model_sizes_have_upper_bounds(cls, key, largest, too_large):
    cls(**{key: largest}).validate()
    with pytest.raises(ConfigError, match=key):
        cls(**{key: too_large}).validate()


def test_config_dict_roundtrip():
    bc = desk_backbone()
    rt = BackboneConfig.from_dict(bc.to_dict())
    assert rt == bc
    hc = HeadConfig(hidden_units=64, hidden_layers=1, dropout_rate=0.25)
    assert HeadConfig.from_dict(hc.to_dict()) == hc


def test_model_counts_parameters():
    m = _desk_model(hidden_units=128, hidden_layers=2)
    total = sum(p.data.size for p in m.parameters())
    assert m.num_parameters() == total
    head_only = sum(p.data.size for p in m.parameters() if p.name.startswith("head."))
    # head dominated by fc1: 36*128 + 128 + 128*128 + 128 + 128*3 + 3
    assert head_only == 36 * 128 + 128 + 128 * 128 + 128 + 128 * 3 + 3
    assert (len(m.parameters()), total) == (105, 32_563)
    assert build_model(BackboneConfig(), HeadConfig(), seed=0).num_parameters() == 202_339
