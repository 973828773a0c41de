"""Classifier architecture: a small inception-style backbone with batch
normalization everywhere, global average pooling, and a configurable
fully-connected head ending in a 3-way softmax.  The input is RGB, the
classes are the three of ``data.LABEL_NAMES`` and the inception branch
widths are fixed (:data:`_BRANCHES`, scaled only by the width
multiplier); none of these is configurable.

Two backbone profiles matter in practice: the full profile (299x299 input,
width multiplier 1.0) and the desk profile returned by
:func:`desk_backbone` (75x75 input, width multiplier 0.25), which keeps the
same topology at a fraction of the cost so the whole training pipeline runs
on a CPU in minutes.

Parameter names are stable dotted paths ("backbone.stem.0.conv.weight",
"head.fc1.bias", ...) shared by the checkpoint format and the freeze /
unfreeze machinery.  No layer draws weights: :func:`build_model` draws
them into a zero-weight :class:`Model`, which a checkpoint load fills.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import tensor as T
from .config import Config
from .data import LABEL_NAMES
from .errors import ConfigError, ParameterError, ShapeError, UsageError
from .rng import SplitMix64


def _scaled(base: int, mult: float) -> int:
    """Channel width under a multiplier, never rounded below 1."""
    return max(1, int(round(base * mult)))


def _he_uniform(parameters: Iterable[T.Parameter], rng: SplitMix64) -> None:
    """Draw each conv and linear weight in ``parameters`` He-uniform from ``rng``, in order."""
    for p in parameters:
        if p.name.endswith(".weight"):
            fan_in = p.data[0].size if p.data.ndim == 4 else p.data.shape[0]
            bound = float(np.sqrt(6.0 / fan_in))
            p.data[...] = rng.uniform(-bound, bound, shape=p.data.shape)


# -- configuration ---------------------------------------------------------------


@dataclass(frozen=True)
class BackboneConfig(Config):
    """Shape of the convolutional feature extractor.

    The stem is a chain of 3x3 conv+norm+relu units (first one stride 2);
    after it come ``num_blocks`` inception blocks.  Blocks listed in
    ``factorized_blocks`` (1-based) carry the extra 1x7/7x1 branch.  The
    branch widths are fixed (:data:`_BRANCHES`); ``width_mult`` scales them
    and the stem's.

    Sizes have upper bounds, so a config file, flag or checkpoint header
    cannot ask for an unbounded model: ``input_size`` in [8, 1024],
    ``width_mult`` in (0, 4], at most 8 stem units of ``stem_channels`` in
    [1, 1024] each, and ``num_blocks`` in [1, 16].
    """

    input_size: int = 299
    width_mult: float = 1.0
    stem_channels: tuple[int, ...] = (32, 32, 64)
    stem_strides: tuple[int, ...] = (2, 1, 2)
    num_blocks: int = 4
    factorized_blocks: tuple[int, ...] = (2, 4)

    def validate(self) -> None:
        if not 8 <= self.input_size <= 1024:
            raise ConfigError(f"input_size must be in [8, 1024], got {self.input_size}")
        if not 0 < self.width_mult <= 4:
            raise ConfigError(f"width_mult must be in (0, 4], got {self.width_mult}")
        if len(self.stem_channels) != len(self.stem_strides) or not self.stem_channels:
            raise ConfigError(
                f"stem_channels {self.stem_channels} and stem_strides {self.stem_strides} "
                "must be non-empty and the same length"
            )
        if len(self.stem_channels) > 8:
            raise ConfigError(f"stem_channels must have at most 8 units, "
                              f"got {len(self.stem_channels)}")
        if any(ch < 1 for ch in self.stem_channels):
            raise ConfigError(f"stem_channels must be >= 1, got {self.stem_channels}")
        if any(ch > 1024 for ch in self.stem_channels):
            raise ConfigError(f"stem_channels must be <= 1024, got {self.stem_channels}")
        if any(s < 1 for s in self.stem_strides):
            raise ConfigError(f"stem strides must be >= 1, got {self.stem_strides}")
        if not 1 <= self.num_blocks <= 16:
            raise ConfigError(f"num_blocks must be in [1, 16], got {self.num_blocks}")
        bad = [b for b in self.factorized_blocks if not 1 <= b <= self.num_blocks]
        if bad:
            raise ConfigError(
                f"factorized_blocks {self.factorized_blocks} outside 1..{self.num_blocks}"
            )


def desk_backbone() -> BackboneConfig:
    """Quarter-width 75x75 profile: same topology, CPU-friendly cost."""
    return BackboneConfig(input_size=75, width_mult=0.25)


@dataclass(frozen=True)
class HeadConfig(Config):
    """Fully-connected classifier head on top of pooled features:
    ``hidden_layers`` in [0, 8] layers of ``hidden_units`` in [1, 4096]."""

    hidden_units: int = 128
    hidden_layers: int = 2
    dropout_rate: float = 0.5

    def validate(self) -> None:
        if not 0 <= self.hidden_layers <= 8:
            raise ConfigError(f"hidden_layers must be in [0, 8], got {self.hidden_layers}")
        if self.hidden_layers > 0 and self.hidden_units < 1:
            raise ConfigError(f"hidden_units must be >= 1, got {self.hidden_units}")
        if self.hidden_units > 4096:
            raise ConfigError(f"hidden_units must be <= 4096, got {self.hidden_units}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


# -- layers -----------------------------------------------------------------------


class Conv2d:
    """Convolution without bias (a batch norm follows)."""

    def __init__(self, name: str, in_ch: int, out_ch: int, kernel: tuple,
                 stride: int, padding):
        self.stride = stride
        self.padding = padding
        self.weight = T.Parameter(name + ".weight",
                                  np.zeros((out_ch, in_ch, *kernel), dtype=np.float32))

    def parameters(self) -> list:
        return [self.weight]


class BatchNorm2d:
    """Per-channel normalization parameters (gamma, beta) and running
    statistics; :class:`ConvBnRelu` applies them."""

    epsilon = 1e-5

    def __init__(self, name: str, channels: int):
        self.name = name
        self.gamma = T.Parameter(name + ".gamma", np.ones(channels, dtype=np.float32))
        self.beta = T.Parameter(name + ".beta", np.zeros(channels, dtype=np.float32))
        self.state = T.BatchNormState(channels, np.float32)

    def parameters(self) -> list:
        return [self.gamma, self.beta]

    def buffers(self) -> list:
        return [
            (self.name + ".running_mean", self.state.running_mean),
            (self.name + ".running_var", self.state.running_var),
        ]


class ConvBnRelu:
    """conv -> batch norm -> relu, the unit every backbone path is built from;
    with ``pool`` a 3x3 average pool (stride 1, zeros counted) follows the conv.

    A unit trains in train mode when any of its parameters does: its batch
    norm then normalizes by batch statistics and updates the running ones.
    Every other call (eval mode, or the whole unit frozen) applies the
    running statistics as the per-channel map ``s*z + beta - mu*s``,
    s = gamma / sqrt(var + eps), folded: ``s`` scales the conv weights as a
    constant (it commutes with the pool; the shift does not) and the shift
    is added in place.  The result has no parameter edge, only the input's
    when that needs a gradient.  The fold is made anew on every call and
    kept nowhere.
    """

    def __init__(self, name: str, in_ch: int, out_ch: int, kernel: tuple,
                 stride: int, padding):
        self.conv = Conv2d(name + ".conv", in_ch, out_ch, kernel, stride, padding)
        self.bn = BatchNorm2d(name + ".bn", out_ch)
        self.out_channels = out_ch

    def forward(self, x: T.Tensor, mode: str, pool: bool = False) -> T.Tensor:
        conv, bn, weight = self.conv, self.bn, self.conv.weight
        trains = mode == "train" and any(p.trainable for p in self.parameters())
        if not trains:
            dt = np.result_type(x.dtype, weight.dtype)
            s = bn.gamma.data / np.sqrt(bn.state.running_var.astype(dt) + dt.type(bn.epsilon))
            weight = T.Tensor(weight.data * s[:, None, None, None])
        y = T.conv2d(x, weight, stride=conv.stride, padding=conv.padding)
        if pool:
            y = T.pool2d(y, "avg", 3, 1, padding=1)
        if trains:
            return T.relu(T.batch_norm2d(y, bn.gamma, bn.beta, bn.state, "train",
                                         epsilon=bn.epsilon))
        # no gradient function reads the conv or pool output, so it shifts in place
        y.data += (bn.beta.data - bn.state.running_mean.astype(dt) * s)[:, None, None]
        if y.requires_grad:
            return T.relu(y)
        np.maximum(y.data, 0, out=y.data)
        return y

    def parameters(self) -> list:
        return self.conv.parameters() + self.bn.parameters()

    def buffers(self) -> list:
        return self.bn.buffers()


class Linear:
    """Affine layer; weight is [in_features, out_features]."""

    def __init__(self, name: str, in_features: int, out_features: int):
        self.weight = T.Parameter(name + ".weight",
                                  np.zeros((in_features, out_features), dtype=np.float32))
        self.bias = T.Parameter(name + ".bias", np.zeros(out_features, dtype=np.float32))

    def forward(self, x: T.Tensor) -> T.Tensor:
        return T.linear(x, self.weight, self.bias)

    def parameters(self) -> list:
        return [self.weight, self.bias]


# The branches of an inception block in output order, each a chain of
# units given as (name, output channels before the width multiplier,
# kernel, padding).  The widths are part of the architecture, as fixed as
# its topology; only ``width_mult`` scales them.
_BRANCHES = (
    (("b1x1", 32, (1, 1), 0),),
    (("b3x3.reduce", 24, (1, 1), 0), ("b3x3.conv", 48, (3, 3), 1)),
    (("b5x5.reduce", 16, (1, 1), 0), ("b5x5.conv", 24, (5, 5), 2)),
    (("b7x7.reduce", 16, (1, 1), 0), ("b7x7.row", 24, (1, 7), (0, 3)),
     ("b7x7.col", 24, (7, 1), (3, 0))),
    (("pool.proj", 16, (1, 1), 0),),
)


class InceptionBlock:
    """Parallel conv branches concatenated along channels.

    ``branches`` lists the branches of :data:`_BRANCHES` in output order,
    each a chain of conv+norm+relu units: 1x1, 3x3 (behind a 1x1 reduce),
    5x5 (behind a reduce), 1x7 then 7x1 (behind a reduce; ``factorized``
    blocks only), and last the pool branch: a 1x1 projection unit run with
    its ``pool`` step, a 3x3 average pool (zeros counted) ahead of its
    batch norm.  The conv has no bias and both maps are linear, so in
    exact arithmetic this equals pooling the input before projecting it,
    but it pools the projection's channels instead of ``in_ch``.  Spatial
    size is preserved by every branch.
    """

    def __init__(self, name: str, in_ch: int, mult: float, factorized: bool):
        self.branches = []
        for spec in _BRANCHES:
            if spec[0][0].startswith("b7x7") and not factorized:
                continue
            branch, cin = [], in_ch
            for suffix, width, kernel, padding in spec:
                branch.append(ConvBnRelu(f"{name}.{suffix}", cin, _scaled(width, mult),
                                         kernel, 1, padding))
                cin = branch[-1].out_channels
            self.branches.append(branch)
        self.b1 = self.branches[0][0]
        self.out_channels = sum(branch[-1].out_channels for branch in self.branches)

    def forward(self, x: T.Tensor, mode: str) -> T.Tensor:
        outs = []
        for branch in self.branches:
            y = x
            for unit in branch:
                y = unit.forward(y, mode, pool=branch is self.branches[-1])
            outs.append(y)
        return T.concat_channels(outs)

    def _units(self) -> list:
        return [unit for branch in self.branches for unit in branch]

    def parameters(self) -> list:
        return [p for u in self._units() for p in u.parameters()]

    def buffers(self) -> list:
        return [b for u in self._units() for b in u.buffers()]


# -- full model ---------------------------------------------------------------------


class Model:
    """Backbone + pooled features + fully-connected head.

    The constructor gives zero conv and linear weights, touching no page of
    them; :func:`build_model` draws them.  ``forward`` returns class
    probabilities; ``forward_logits`` stops before the softmax so the fused
    cross-entropy can consume it.  Dropout (train mode only) needs an
    explicit generator.
    """

    def __init__(self, backbone_config: BackboneConfig, head_config: HeadConfig, seed: int):
        backbone_config.validate()
        head_config.validate()
        self.backbone_config = backbone_config
        self.head_config = head_config
        self.seed = seed

        bc = backbone_config
        self.stem = []
        in_ch = 3  # RGB
        for i, (ch, stride) in enumerate(zip(bc.stem_channels, bc.stem_strides)):
            out_ch = _scaled(ch, bc.width_mult)
            self.stem.append(
                ConvBnRelu(f"backbone.stem.{i}", in_ch, out_ch, (3, 3), stride, 1)
            )
            in_ch = out_ch
        self.blocks = []
        for b in range(1, bc.num_blocks + 1):
            block = InceptionBlock(f"backbone.block{b}", in_ch, bc.width_mult,
                                   b in bc.factorized_blocks)
            self.blocks.append(block)
            in_ch = block.out_channels
        self.feature_dim = in_ch

        hc = head_config
        self.fcs = []
        f_in = self.feature_dim
        for i in range(1, hc.hidden_layers + 1):
            self.fcs.append(Linear(f"head.fc{i}", f_in, hc.hidden_units))
            f_in = hc.hidden_units
        self.out = Linear("head.out", f_in, len(LABEL_NAMES))
        self.dropout_rate = hc.dropout_rate

        names = [p.name for p in self.parameters()]
        assert len(names) == len(set(names)), "parameter names must be unique"

    # -- inference ------------------------------------------------------------

    def _check_input(self, x: T.Tensor) -> None:
        bc = self.backbone_config
        if x.shape[1:] != (3, bc.input_size, bc.input_size):
            raise ShapeError(
                f"model input must be [N,3,{bc.input_size},{bc.input_size}], got {x.shape}"
            )
        if x.dtype != np.float32:
            raise ParameterError(f"model input must be float32, got {x.dtype}")

    @property
    def num_stages(self) -> int:
        """Stages of the forward pass: each stem unit and block, then global
        average pooling, then the head."""
        return len(self._units()) + 2

    def run(self, x: T.Tensor, start: int = 0, stop: Optional[int] = None,
            mode: str = "eval", rng: Optional[SplitMix64] = None) -> T.Tensor:
        """Stages ``[start, stop)`` of the forward pass (to the logits when
        ``stop`` is None).  Only a run from stage 0 checks its input."""
        if start == 0:
            self._check_input(x)
        if mode not in ("train", "eval"):
            raise ParameterError(f"mode must be 'train' or 'eval', got {mode!r}")
        units = self._units()
        y = x
        for k in range(start, self.num_stages if stop is None else stop):
            if k < len(units):
                y = units[k].forward(y, mode)
            elif k == len(units):
                y = T.global_avg_pool(y)
            else:
                y = self._head(y, mode, rng)
        return y

    def _head(self, y: T.Tensor, mode: str, rng: Optional[SplitMix64]) -> T.Tensor:
        for fc in self.fcs:
            y = T.relu(fc.forward(y))
        if self.fcs and self.dropout_rate > 0.0:
            if mode == "train" and rng is None:
                raise UsageError("train-mode forward with dropout needs a generator")
            y = T.dropout(y, self.dropout_rate, mode, rng)
        return self.out.forward(y)

    def frozen_stages(self) -> int:
        """How many leading stages hold no trainable parameter.  Pooling
        counts as frozen once every stem unit and block is."""
        units = self._units()
        for k, unit in enumerate(units):
            if any(p.trainable for p in unit.parameters()):
                return k
        return len(units) + 1

    def features(self, x: T.Tensor, mode: str = "eval") -> T.Tensor:
        return self.run(x, 0, self.num_stages - 1, mode)

    def forward_logits(self, x: T.Tensor, mode: str = "eval",
                       rng: Optional[SplitMix64] = None) -> T.Tensor:
        return self.run(self.features(x, mode), self.num_stages - 1, mode=mode, rng=rng)

    def forward(self, x: T.Tensor, mode: str = "eval",
                rng: Optional[SplitMix64] = None) -> T.Tensor:
        return T.softmax(self.forward_logits(x, mode, rng))

    # -- parameter plumbing ------------------------------------------------------

    def _units(self) -> list:
        return list(self.stem) + list(self.blocks)

    def parameters(self) -> list:
        params = [p for u in self._units() for p in u.parameters()]
        for fc in self.fcs:
            params += fc.parameters()
        params += self.out.parameters()
        return params

    def named_parameters(self) -> dict:
        return {p.name: p for p in self.parameters()}

    def buffers(self) -> list:
        return [b for u in self._units() for b in u.buffers()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def set_trainable(self, prefix: str, flag: bool) -> int:
        """Toggle every parameter whose name starts with ``prefix``.

        Returns how many parameters changed state; asking for a prefix that
        matches nothing is almost always a typo, so that raises.
        """
        matched = [p for p in self.parameters() if p.name.startswith(prefix)]
        if not matched:
            raise ParameterError(f"no parameter names start with {prefix!r}")
        changed = 0
        for p in matched:
            if p.trainable != flag:
                p.trainable = flag
                changed += 1
        return changed

    def trainable_parameters(self) -> list:
        return [p for p in self.parameters() if p.trainable]

    def num_parameters(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))


def build_model(backbone_config: Optional[BackboneConfig] = None,
                head_config: Optional[HeadConfig] = None, seed: int = 0) -> Model:
    """Construct a model with seeded He-uniform weights.

    Defaults give the full-size profile; pass :func:`desk_backbone` for the
    CPU-scale variant.  Weights are drawn in parameter order from one stream,
    so the same (configs, seed) triple always yields bit-identical weights.
    """
    model = Model(backbone_config or BackboneConfig(), head_config or HeadConfig(), seed)
    _he_uniform(model.parameters(), SplitMix64(seed).derive("init"))
    return model
