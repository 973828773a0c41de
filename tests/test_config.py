"""The dataclass-driven config codec and the CLI run config built on it."""

import json
import os
import struct
from dataclasses import dataclass, field, is_dataclass

import numpy as np
import pytest

from maskdetect.cascade import load_cascade_json, load_cascade_xml, save_cascade_json
from maskdetect.checkpoint import load_checkpoint, save_checkpoint
from maskdetect.cli import RunConfig, default_config, main
from maskdetect.config import Config, encode, parse_text
from maskdetect.data import save_ppm, synth_dataset
from maskdetect.errors import CascadeFormatError, CheckpointError, ConfigError
from maskdetect.nn import BackboneConfig, HeadConfig, build_model
from maskdetect.rng import SplitMix64

FIXTURE_XML = os.path.join(os.path.dirname(__file__), "fixtures", "face_cascade.xml")


@dataclass(frozen=True)
class Inner(Config):
    ratio: float = 0.5
    flag: bool = False


@dataclass(frozen=True)
class Outer(Config):
    count: int = 1
    name: str = "a"
    pair: tuple[float, float] = (1.0, 2.0)
    sizes: tuple[int, ...] = (3,)
    inner: Inner = field(default_factory=Inner)
    maybe: Inner | None = None

    def validate(self) -> None:
        if self.count < 0:
            raise ConfigError(f"count must be >= 0, got {self.count}")


def _problems(cls, data) -> str:
    with pytest.raises(ConfigError) as info:
        cls.from_dict(data)
    message = str(info.value)
    assert message.startswith("config validation failed:")
    return message


# -- codec ------------------------------------------------------------------------------


def test_roundtrip_of_every_supported_type():
    config = Outer(2, "b", (0.5, 1.5), (1, 2, 3), Inner(0.25, True), Inner())
    assert encode(config) == {
        "count": 2, "name": "b", "pair": [0.5, 1.5], "sizes": [1, 2, 3],
        "inner": {"ratio": 0.25, "flag": True},
        "maybe": {"ratio": 0.5, "flag": False},
    }
    assert Outer.from_dict(config.to_dict()) == config
    assert Outer.from_dict({}) == Outer()
    assert Outer.from_dict({"maybe": None}).maybe is None
    assert Outer.from_dict({"sizes": []}).sizes == ()


def test_int_is_a_float_but_is_not_converted():
    config = Outer.from_dict({"inner": {"ratio": 1}, "pair": [0, 2]})
    assert type(config.inner.ratio) is int
    assert json.dumps(config.to_dict()["inner"]) == '{"ratio": 1, "flag": false}'
    assert config.to_dict()["pair"] == [0, 2]


@pytest.mark.parametrize("data, named", [
    ({"count": True}, "count: expected an integer, got True"),
    ({"count": 1.0}, "count: expected an integer"),
    ({"count": "1"}, "count: expected an integer"),
    ({"name": 3}, "name: expected a string"),
    ({"inner": {"flag": 1}}, "inner.flag: expected a boolean"),
    ({"inner": {"ratio": True}}, "inner.ratio: expected a finite number"),
    ({"inner": {"ratio": float("nan")}}, "inner.ratio: expected a finite number"),
    ({"inner": 4}, "inner: expected an object"),
    ({"pair": [1.0]}, "pair: expected 2 items, got 1"),
    ({"pair": "ab"}, "pair: expected a list"),
    ({"sizes": [1, "2"]}, "sizes[1]: expected an integer"),
    ({"maybe": {"ratio": "x"}}, "maybe.ratio: expected a finite number"),
    ({"inner": {"extra": 1}}, "unknown config key: inner.extra"),
    ({"count": -1}, "count must be >= 0"),
])
def test_each_problem_names_its_dotted_path(data, named):
    assert named in _problems(Outer, data)


def test_all_problems_are_reported_together():
    message = _problems(Outer, {"count": "x", "bogus": 1, "inner": {"flag": None, "y": 2}})
    for named in ("count: expected", "unknown config key: bogus",
                  "inner.flag: expected", "unknown config key: inner.y"):
        assert named in message
    # validate() runs for every well-typed section, not just the first
    message = _problems(RunConfig, {"train": {"batch_size": 0},
                                    "head": {"dropout_rate": 1.0}})
    assert "train: batch_size must be >= 1" in message
    assert "head: dropout_rate must be in [0, 1)" in message


def test_stem_channels_must_be_positive():
    message = _problems(BackboneConfig, {"input_size": 32, "stem_channels": [0, -3, 4]})
    assert "stem_channels must be >= 1, got (0, -3, 4)" in message


def test_stem_has_at_most_eight_units():
    eight = {"input_size": 32, "stem_channels": [4] * 8, "stem_strides": [1] * 8}
    assert len(BackboneConfig.from_dict(eight).stem_channels) == 8
    message = _problems(BackboneConfig, {"input_size": 32, "stem_channels": [4] * 9,
                                         "stem_strides": [1] * 9})
    assert "stem_channels must have at most 8 units, got 9" in message


EMPTY_SECTIONS = [("data",), ("backbone",), ("head",), ("train",), ("detect",),
                  ("train", "augment")]


@pytest.mark.parametrize("place", EMPTY_SECTIONS, ids=".".join)
def test_a_section_given_as_empty_decodes_like_one_left_out(place):
    data = {}
    node = data
    for key in place:
        node = node.setdefault(key, {})
    assert RunConfig.from_dict(data) == RunConfig.from_dict({}) == default_config()


def test_a_section_given_in_part_keeps_the_other_defaults_of_its_place():
    config = RunConfig.from_dict({"backbone": {"num_blocks": 2, "factorized_blocks": [2]}})
    assert config.backbone.input_size == 75 and config.backbone.width_mult == 0.25
    # below a section that defaults to None, a missing key takes its class default
    assert Outer.from_dict({"maybe": {"flag": True}}).maybe == Inner(flag=True)


def test_top_level_must_be_an_object():
    assert "config: expected an object" in _problems(Outer, [1])


@dataclass(frozen=True)
class Leaf:
    x: int
    weight: float


@dataclass(frozen=True)
class Tree(Config):
    leaves: tuple[Leaf, ...]
    name: str = "tree"


def test_sections_with_required_fields_decode_from_their_keys():
    doc = {"leaves": [{"x": 1, "weight": 0.5}, {"x": 2, "weight": 3}]}
    assert Tree.from_dict(doc) == Tree((Leaf(1, 0.5), Leaf(2, 3)))
    assert Tree.from_dict(doc).to_dict() == {**doc, "name": "tree"}
    # each item's problem is named by its dotted path, all in one error
    problems = _problems(Tree, {"leaves": [{"weight": 1.0}, {"x": "2", "weight": 1.0},
                                           {"x": 3, "weight": 1.0, "z": 0}]})
    assert "leaves[0].x: missing required key" in problems
    assert "leaves[1].x: expected an integer, got '2'" in problems
    assert "unknown config key: leaves[2].z" in problems
    assert "leaves: missing required key" in _problems(Tree, {"name": "t"})


def test_parse_text_follows_the_field_type():
    assert parse_text(int, "16") == 16
    assert parse_text(float, "1e-3") == 1e-3
    assert parse_text(str, "native") == "native"
    assert parse_text(bool, "Yes") is True and parse_text(bool, "off") is False
    for kind, text in ((int, "1.5"), (float, "x"), (bool, "maybe")):
        with pytest.raises(ValueError):
            parse_text(kind, text)


# -- the CLI run config -----------------------------------------------------------------


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    synth_dataset(4, 24, seed=0, out_dir=root / "corpus")
    save_ppm(np.full((30, 30, 3), 128, np.uint8), root / "blank.ppm")
    return root


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


@pytest.mark.parametrize("command", ["train", "detect"])
@pytest.mark.parametrize("config, named", BAD_CONFIGS, ids=[n for _, n in BAD_CONFIGS])
def test_wrong_typed_config_exits_two(inputs, tmp_path, capsys, command, config, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    if command == "train":
        argv = ["train", "--data", str(inputs / "corpus"), "--out", str(tmp_path / "r")]
    else:
        argv = ["detect", "--image", str(inputs / "blank.ppm"), "--cascade", FIXTURE_XML,
                "--out", str(tmp_path / "boxes.json")]
    assert main(argv + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config validation failed" in err and named in err
    assert not (tmp_path / "r").exists() and not (tmp_path / "boxes.json").exists()


def test_unknown_key_and_wrong_type_in_one_message(inputs, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"train": {"epochz": 1}, "detect": {"step": "2"}}))
    code = main(["detect", "--image", str(inputs / "blank.ppm"), "--cascade", FIXTURE_XML,
                 "--out", str(tmp_path / "b.json"), "--config", str(path),
                 "--detect.min_size", "big"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("config validation failed") == 1
    for named in ("unknown config key: train.epochz", "detect.step: expected an integer",
                  "--detect.min_size: expected an integer, got 'big'"):
        assert named in err


CROSS_SECTION_CONFIGS = [
    ({"backbone": {"num_blocks": 2, "factorized_blocks": [2]}, "train": {"unfreeze_last_k": 9}},
     ["train.unfreeze_last_k=9 exceeds backbone.num_blocks=2"]),
    ({"data": {"ratios": [0.5, 0.5, 0.5]}, "train": {"unfreeze_last_k": 9}},
     ["data: ratios must sum to 1", "train.unfreeze_last_k=9 exceeds backbone.num_blocks=4"]),
]


@pytest.mark.parametrize("config, named", CROSS_SECTION_CONFIGS, ids=["unfreeze", "ratios"])
def test_cross_section_problems_stop_train_before_any_output(inputs, tmp_path, capsys,
                                                             config, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "r"
    code = main(["train", "--data", str(inputs / "corpus"), "--out", str(out),
                 "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("config validation failed") == 1
    for problem in named:
        assert problem in err
    assert not (out / "config.json").exists() and not (out / "split.json").exists()


HUGE = "1" + "0" * 400  # an integer past the float range


def test_config_file_number_past_the_float_range_exits_two(inputs, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"train": {"lr_phase1": ' + HUGE + "}}")
    code = main(["train", "--data", str(inputs / "corpus"), "--out", str(tmp_path / "r"),
                 "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "train.lr_phase1: number out of range" in err and "0" * 50 not in err
    assert not (tmp_path / "r").exists()


def test_flag_number_past_the_float_range_exits_two(inputs, tmp_path, capsys):
    code = main(["detect", "--image", str(inputs / "blank.ppm"), "--cascade", FIXTURE_XML,
                 "--out", str(tmp_path / "boxes.json"), "--detect.min_size", HUGE])
    assert code == 2
    err = capsys.readouterr().err
    assert "detect.min_size: number out of range" in err and "0" * 50 not in err
    assert not (tmp_path / "boxes.json").exists()


def test_flag_model_size_past_its_bound_exits_two(inputs, tmp_path, capsys):
    code = main(["train", "--data", str(inputs / "corpus"), "--out", str(tmp_path / "r"),
                 "--backbone.input_size", "1" + "0" * 30])
    assert code == 2
    err = capsys.readouterr().err
    assert "config validation failed" in err and "backbone: input_size must be in [8, 1024]" in err
    assert not (tmp_path / "r").exists()


LONG_KEY = "bogus_key_" + "x" * 100_000


def test_unknown_long_key_is_quoted_in_bounded_form(inputs, tmp_path, capsys):
    # a run config file, a cascade JSON and a checkpoint header's backbone
    # each name the key by its start, in an error of bounded length
    run_config = tmp_path / "run.json"
    run_config.write_text(json.dumps({"train": {LONG_KEY: 1}}))
    code = main(["detect", "--image", str(inputs / "blank.ppm"), "--cascade", FIXTURE_XML,
                 "--out", str(tmp_path / "b.json"), "--config", str(run_config)])
    assert code == 2
    messages = [capsys.readouterr().err]

    cascade = tmp_path / "c.json"
    save_cascade_json(load_cascade_xml(FIXTURE_XML), cascade)
    doc = json.loads(cascade.read_text())
    doc[LONG_KEY] = 1
    cascade.write_text(json.dumps(doc))
    with pytest.raises(CascadeFormatError) as info:
        load_cascade_json(cascade)
    messages.append(str(info.value))

    ckpt = tmp_path / "m.ckpt"
    model = build_model(BackboneConfig(input_size=32, width_mult=0.125), HeadConfig(), seed=0)
    save_checkpoint(model, ckpt)
    raw = ckpt.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    header["backbone"][LONG_KEY] = 1
    enc = json.dumps(header).encode()
    ckpt.write_bytes(raw[:4] + struct.pack("<I", len(enc)) + enc + raw[8 + hlen :])
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(ckpt)
    messages.append(str(info.value))

    for message in messages:
        assert "unknown config key: " in message and LONG_KEY[:10] in message
        assert len(message) < 500, len(message)


FUZZ_VALUES = [None, True, False, -1, 0, 1.5, float("nan"), "x", "", [], [1, "a"], {}, {"k": 1}]


def _json_paths(node, prefix=()):
    """Every key/index path under a parsed JSON value, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _json_paths(child, prefix + (key,))


def _empty_as_defaults(data, default):
    """``data`` with each object given as {} replaced by ``default``'s value
    at its place: a missing key takes the default config's value there."""
    if not (isinstance(data, dict) and is_dataclass(default)):
        return data
    if not data:
        return default.to_dict()
    return {key: _empty_as_defaults(value, getattr(default, key, None))
            for key, value in data.items()}


def test_config_fuzz_decodes_or_raises_config_error():
    rng = SplitMix64(31)
    paths = list(_json_paths(default_config().to_dict()))
    outcomes = {"decoded": 0, "rejected": 0}
    for case in range(400):
        data = default_config().to_dict()
        for _ in range(1 + rng.randint(3)):
            path = paths[rng.randint(len(paths))]
            parent = data
            try:
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = FUZZ_VALUES[rng.randint(len(FUZZ_VALUES))]
            except (KeyError, IndexError, TypeError):
                pass  # an earlier mutation replaced an enclosing node
        try:
            config = RunConfig.from_dict(data)
        except ConfigError as exc:
            assert str(exc).startswith("config validation failed:")
            outcomes["rejected"] += 1
        else:
            # accepted input echoes unchanged, but for an object given as {}
            assert config.to_dict() == _empty_as_defaults(data, default_config())
            outcomes["decoded"] += 1
    assert outcomes["decoded"] > 0 and outcomes["rejected"] > 0
