"""Checkpoint format: roundtrips, byte determinism, and corruption handling."""

import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from maskdetect import checkpoint
from maskdetect import tensor as T
from maskdetect.checkpoint import (
    FORMAT_VERSION,
    load_checkpoint,
    load_into,
    read_header,
    save_checkpoint,
)
from maskdetect.cli import main
from maskdetect.data import synth_dataset
from maskdetect.errors import CheckpointError
from maskdetect.nn import BackboneConfig, HeadConfig, build_model, desk_backbone
from maskdetect.rng import SplitMix64


def _model(seed=0, units=32, layers=1):
    cfg = BackboneConfig(input_size=32, width_mult=0.125, stem_strides=(2, 1, 2))
    return build_model(cfg, HeadConfig(hidden_units=units, hidden_layers=layers), seed=seed)


def _x(seed, m):
    size = m.backbone_config.input_size
    return T.Tensor(SplitMix64(seed).normal(shape=(2, 3, size, size)).astype(np.float32))


def test_roundtrip_restores_everything(tmp_path):
    m = _model(seed=9)
    # make buffers non-trivial before saving
    m.features(_x(1, m), "train")
    m.set_trainable("backbone.", False)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)

    loaded = load_checkpoint(path)
    assert loaded.backbone_config == m.backbone_config
    assert loaded.head_config == m.head_config
    assert loaded.seed == m.seed
    for p, q in zip(m.parameters(), loaded.parameters()):
        assert p.name == q.name
        assert np.array_equal(p.data, q.data)
        assert p.trainable == q.trainable
    for (n1, b1), (n2, b2) in zip(m.buffers(), loaded.buffers()):
        assert n1 == n2
        assert np.array_equal(b1, b2)
    x = _x(2, m)
    assert np.array_equal(m.forward(x, "eval").data, loaded.forward(x, "eval").data)


def test_saved_bytes_are_deterministic(tmp_path):
    m = _model(seed=4)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(m, p1)
    save_checkpoint(m, p2)
    assert p1.read_bytes() == p2.read_bytes()
    # an independently built identical model writes the same bytes too
    save_checkpoint(_model(seed=4), p2)
    assert p1.read_bytes() == p2.read_bytes()


# SHA-256 of the seed-0 desk model as saved: it pins the SplitMix64 draw
# order of the initial weights, the parameter names and the manifest order.
# Init and save use no BLAS, so it should not depend on the numpy build.
INITIAL_DESK_V4_SHA256 = "f2b9101e5a0627ba7630853fcfd27d17aada5439bcc6bd1d7a0f284aca09317a"
# the same model saved in format 3, whose header also held backbone.widths
# (the inception branch widths, always the fixed ones)
INITIAL_DESK_V3_SHA256 = "72070012964375848d532b2422cb2f5f6be96075ae2867558b00587dbcc3f015"
# the same model saved in format 2, whose header also held backbone.in_channels
# and head.num_classes (both always 3)
INITIAL_DESK_SHA256 = "989400c3190c49390878bcc5b7e8f03d937db9f23c0cf20c150abe8f9a644e84"
# the same model saved in format 1, which held a zero bias for every conv as well
INITIAL_DESK_V1_SHA256 = "ffec5ed025a1bbc03febc4fd3bd106f4d298b8be0036ecc009a198acd2ebdaff"
# SHA-256 over each parameter's name, then its <f4 bytes, in model order: the
# weights drawn from the init stream, whatever file format holds them
INITIAL_DESK_WEIGHTS_SHA256 = "07f208b44174d1ee381157ad917cef084654a1a21487d9211f4dc25d9c903098"


def test_initial_desk_weights_match_the_golden_hash(tmp_path):
    path = tmp_path / "init.ckpt"
    model = build_model(desk_backbone(), HeadConfig(), seed=0)
    save_checkpoint(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INITIAL_DESK_V4_SHA256
    names = [e["name"] for e in read_header(path)["entries"]]
    assert not [n for n in names if n.endswith(".conv.bias")]
    assert len(names) == 105 + 2 * 33  # parameters, then two buffers per batch norm
    assert path.stat().st_size == 152_101  # format 3 held 117 bytes more: backbone.widths
    # the helpers below write what formats 3, 2 and 1 wrote for the same model
    _save_version_3(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INITIAL_DESK_V3_SHA256
    _save_version_2(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INITIAL_DESK_SHA256
    _save_version_1(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INITIAL_DESK_V1_SHA256


def test_initial_desk_weights_drawn_from_the_init_stream_are_pinned():
    digest = hashlib.sha256()
    for p in build_model(desk_backbone(), HeadConfig(), seed=0).parameters():
        digest.update(p.name.encode())
        digest.update(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    assert digest.hexdigest() == INITIAL_DESK_WEIGHTS_SHA256


# backbone.widths of formats 1 to 3: the fixed branch widths, by branch
FORMAT_3_WIDTHS = {"b1x1": 32, "b3x3_reduce": 24, "b3x3": 48, "b5x5_reduce": 16, "b5x5": 24,
                   "b7x7_reduce": 16, "b7x7": 24, "pool_proj": 16}


def _save_version_3(model, path):
    """Write ``model`` as format 3 did: with a ``backbone.widths`` object."""
    def mutate(header):
        header["backbone"]["widths"] = FORMAT_3_WIDTHS
        header["format_version"] = 3
        return header
    save_checkpoint(model, path)
    _rewrite_header(path, path, mutate)


def _save_version_2(model, path):
    """Write ``model`` as format 2 did: format 3 with ``in_channels`` and
    ``num_classes`` keys."""
    def mutate(header):
        header["backbone"]["in_channels"] = header["head"]["num_classes"] = 3
        header["format_version"] = 2
        return header
    _save_version_3(model, path)
    _rewrite_header(path, path, mutate)


def _save_version_1(model, path):
    """Write ``model`` as format 1 did: format 2 with a zero ``.conv.bias``
    after each conv weight."""
    _save_version_2(model, path)
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header, payload = json.loads(raw[8 : 8 + hlen]), raw[8 + hlen :]
    entries, blobs = [], []
    for e in header["entries"]:
        pieces = [(e, payload[e["offset"] : e["offset"] + 4 * math.prod(e["shape"])])]
        if e["name"].endswith(".conv.weight"):
            bias = {**e, "name": e["name"][: -len("weight")] + "bias", "shape": e["shape"][:1]}
            pieces.append((bias, bytes(4 * e["shape"][0])))
        for entry, blob in pieces:
            entries.append({**entry, "offset": sum(map(len, blobs))})
            blobs.append(blob)
    header.update(format_version=1, entries=entries)
    enc = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:4] + struct.pack("<I", len(enc)) + enc + b"".join(blobs))


def _version(value):
    def mutate(header):
        header["format_version"] = value
        return header
    return mutate


# format 1 held conv biases, format 2 the fixed channel and class counts,
# format 3 the fixed branch widths; a bool, or a float equal to a version,
# is no version
BAD_VERSIONS = {"true": True, "one_point_zero": 1.0, "two_point_zero": 2.0,
                "three_point_zero": 3.0, "version_1": 1, "version_2": 2, "version_3": 3}


@pytest.mark.parametrize("case", sorted(BAD_VERSIONS))
def test_unsupported_format_version_is_refused(tmp_path, case, capsys):
    version = BAD_VERSIONS[case]
    model, bad = _model(seed=1), tmp_path / "bad.ckpt"
    saves = {"version_1": _save_version_1, "version_2": _save_version_2,
             "version_3": _save_version_3}
    if case in saves:
        saves[case](model, bad)
    else:
        save_checkpoint(model, tmp_path / "good.ckpt")
        _rewrite_header(tmp_path / "good.ckpt", bad, _version(version))
    named = (f"format version {version!r} is not supported, "
             f"this build reads version {FORMAT_VERSION}")
    with pytest.raises(CheckpointError, match=named):
        load_checkpoint(bad)
    before = [p.data.copy() for p in model.parameters()]
    with pytest.raises(CheckpointError, match=named):
        load_into(model, bad, prefix="backbone.")  # the --init-backbone path
    assert all(np.array_equal(a, p.data) for a, p in zip(before, model.parameters()))
    synth_dataset(1, 16, seed=1, out_dir=tmp_path / "corpus")
    code = main(["evaluate", "--data", str(tmp_path / "corpus"), "--checkpoint", str(bad),
                 "--out", str(tmp_path / "e")])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_header_layout(tmp_path):
    m = _model(seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(m, path)
    raw = path.read_bytes()
    assert raw[:4] == b"MPC1"
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    assert header["format_version"] == 4
    assert "widths" not in header["backbone"]
    kinds = {e["kind"] for e in header["entries"]}
    assert kinds == {"param", "buffer"}
    n_params = sum(1 for e in header["entries"] if e["kind"] == "param")
    assert n_params == len(m.parameters())
    # payload is exactly the f32 values, little endian, at the stated offsets
    payload = raw[8 + hlen :]
    first = header["entries"][0]
    count = int(np.prod(first["shape"]))
    vals = np.frombuffer(payload, "<f4", count=count, offset=first["offset"])
    assert np.array_equal(vals.reshape(first["shape"]), m.parameters()[0].data)
    assert read_header(path)["seed"] == 1


def test_load_into_moves_values_not_flags(tmp_path):
    src = _model(seed=2)
    src.set_trainable("backbone.", False)
    path = tmp_path / "m.ckpt"
    save_checkpoint(src, path)
    dst = _model(seed=3)
    assert not np.array_equal(dst.parameters()[0].data, src.parameters()[0].data)
    load_into(dst, path)
    for p, q in zip(dst.parameters(), src.parameters()):
        assert np.array_equal(p.data, q.data)
        assert p.trainable  # dst flags untouched


def test_load_into_rejects_architecture_mismatch(tmp_path):
    src = _model(seed=2, units=32, layers=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(src, path)
    wider = _model(seed=2, units=64, layers=1)
    with pytest.raises(CheckpointError, match="head.fc1.weight"):
        load_into(wider, path)
    deeper = _model(seed=2, units=32, layers=2)
    with pytest.raises(CheckpointError, match="fc2"):
        load_into(deeper, path)
    # mismatch must leave the target untouched
    before = [p.data.copy() for p in wider.parameters()]
    try:
        load_into(wider, path)
    except CheckpointError:
        pass
    assert all(np.array_equal(a, p.data) for a, p in zip(before, wider.parameters()))


def test_corruption_detection(tmp_path):
    m = _model(seed=5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)

    bad.write_bytes(raw[:6])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)

    bad.write_bytes(raw[:-8])  # truncated payload
    with pytest.raises(CheckpointError, match="payload"):
        load_checkpoint(bad)

    (hlen,) = struct.unpack("<I", raw[4:8])
    garbled = raw[:8] + b"{" * hlen + raw[8 + hlen :]
    bad.write_bytes(garbled)
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(bad)

    header = json.loads(raw[8 : 8 + hlen])
    header["format_version"] = 99
    enc = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    bad.write_bytes(raw[:4] + struct.pack("<I", len(enc)) + enc + raw[8 + hlen :])
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad)

    missing = tmp_path / "nope.ckpt"
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(missing)


def test_training_state_survives_roundtrip(tmp_path):
    # simulate a phase boundary: frozen backbone, adapted head, shifted stats
    m = _model(seed=6)
    m.set_trainable("backbone.", False)
    rng = SplitMix64(7)
    x = _x(8, m)
    t = np.zeros((2, 3), dtype=np.float32)
    t[0, 0] = t[1, 2] = 1.0
    for step in range(3):
        loss = T.softmax_cross_entropy(
            m.forward_logits(x, "train", rng.derive("dropout", step)), T.Tensor(t)
        )
        loss.backward()
        for p in m.parameters():
            if p.trainable:
                p.data[...] -= 0.05 * p.grad
        m.zero_grad()
    path = tmp_path / "trained.ckpt"
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    assert [p.trainable for p in back.parameters()] == [p.trainable for p in m.parameters()]
    xq = _x(9, m)
    assert np.array_equal(m.forward(xq, "eval").data, back.forward(xq, "eval").data)


def _rewrite_header(src, dst, mutate):
    """Copy a checkpoint, passing its parsed header through ``mutate``."""
    raw = src.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = mutate(json.loads(raw[8 : 8 + hlen]))
    enc = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(raw[:4] + struct.pack("<I", len(enc)) + enc + raw[8 + hlen :])


_DROP = object()


def _set_entry(field, value):
    def mutate(header):
        header["entries"][0][field] = value
        return header
    return mutate


def _drop_offset(header):
    del header["entries"][0]["offset"]
    return header


def _with(key, value):
    def mutate(header):
        header[key] = value
        return header
    return mutate


MALFORMED_HEADERS = {
    "missing_offset": (_drop_offset, "offset"),
    "string_offset": (_set_entry("offset", "0"), "offset"),
    "entries_not_a_list": (_with("entries", 5), "entries"),
    "array_header": (lambda header: [header], "JSON object"),
    "name_not_a_string": (_set_entry("name", 7), "name"),
    "shape_not_a_list": (_set_entry("shape", "3x3"), "shape"),
    "unknown_kind": (_set_entry("kind", "weights"), "kind"),
    "float_seed": (_with("seed", 1.5), "seed"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_header_is_checkpoint_error(tmp_path, case):
    mutate, named = MALFORMED_HEADERS[case]
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(_model(seed=1), good)
    _rewrite_header(good, bad, mutate)
    with pytest.raises(CheckpointError, match=named):
        load_checkpoint(bad)
    with pytest.raises(CheckpointError, match=named):
        load_into(_model(seed=1), bad)


def test_entries_must_tile_the_payload_in_order(tmp_path):
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(build_model(desk_backbone(), HeadConfig(), seed=0), good)
    second = read_header(good)["entries"][1]
    name, start = second["name"], second["offset"]

    def second_at(offset):
        def mutate(header):
            header["entries"][1]["offset"] = offset
            return header
        return mutate

    # at offset 0 the second entry (a batch norm's gamma) would hold the first
    # conv's weights, and one float either way overlaps a neighbour; the
    # payload's total length is the same in every case
    for offset in (0, start - 4, start + 4):
        _rewrite_header(good, bad, second_at(offset))
        named = re.escape(f"entry 1: offset is {offset}, this architecture saves {start}")
        for load in (load_checkpoint, read_header):
            with pytest.raises(CheckpointError, match=named):
                load(bad)


def _swap_two_names(header, payload):
    first, second = header["entries"][1:3]  # a batch norm's gamma and beta: one shape
    first["name"], second["name"] = second["name"], first["name"]
    return header, payload


def _drop_last(header, payload):
    last = header["entries"].pop()
    return header, payload[: last["offset"]]


def _add_one(header, payload):
    header["entries"].append({"name": "extra", "kind": "buffer", "shape": [1], "dtype": "f32",
                              "offset": len(payload)})
    return header, payload + bytes(4)


def _set(index, field, value):
    def mutate(header, payload):
        if value is _DROP:
            del header["entries"][index][field]
        else:
            header["entries"][index][field] = value
        return header, payload
    return mutate


def _float_shape(header, payload):
    entry = header["entries"][1]
    entry["shape"] = [float(n) for n in entry["shape"]]
    return header, payload


# manifests whose payload framing still adds up, each refused by comparison
# with the manifest save_checkpoint writes for the header's architecture
BAD_MANIFESTS = {
    "swapped": (_swap_two_names, "entry 1: name is "),
    "dropped": (_drop_last, "entries, this architecture saves"),
    "added": (_add_one, "entries, this architecture saves"),
    "float_shape": (_float_shape, r"entry 1: shape is \[8\.0\]"),
    "false_offset": (_set(0, "offset", False), "entry 0: offset is False"),
    "float_offset": (_set(0, "offset", 0.0), r"entry 0: offset is 0\.0"),
    "no_trainable": (_set(0, "trainable", _DROP), "entry 0: trainable is missing"),
    "int_trainable": (_set(0, "trainable", 1), "entry 0: trainable is 1"),
    "string_trainable": (_set(0, "trainable", "true"), "entry 0: trainable is 'true'"),
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_manifest_must_equal_the_one_save_writes(tmp_path, case):
    mutate, named = BAD_MANIFESTS[case]
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(build_model(desk_backbone(), HeadConfig(), seed=0), good)
    raw = good.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    header, payload = mutate(json.loads(raw[8 : 8 + hlen]), raw[8 + hlen :])
    enc = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    bad.write_bytes(raw[:4] + struct.pack("<I", len(enc)) + enc + payload)
    target = build_model(desk_backbone(), HeadConfig(), seed=1)
    before = [p.data.copy() for p in target.parameters()]
    for load in (load_checkpoint, read_header,
                 lambda path: load_into(target, path, prefix="backbone.")):
        with pytest.raises(CheckpointError, match=named):
            load(bad)
    assert all(np.array_equal(a, p.data) for a, p in zip(before, target.parameters()))


# a header asking for the largest head the caps allow (8 layers of 4096
# units, 470 MB of float32 weights) with a one-entry manifest
CRAFTED_HEAD = {"format_version": 4, "seed": 0, "backbone": {},
                "head": {"hidden_units": 4096, "hidden_layers": 8},
                "entries": [{"name": "w", "kind": "param", "shape": [1], "dtype": "f32",
                             "offset": 0, "trainable": True}]}

_TIMED_LOAD = """import resource, sys, time
from maskdetect.checkpoint import load_checkpoint
from maskdetect.errors import CheckpointError
start = time.perf_counter()
try:
    load_checkpoint(sys.argv[1])
except CheckpointError as exc:
    seconds = time.perf_counter() - start
    print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, exc)
"""


def test_crafted_head_is_refused_without_touching_its_weights(tmp_path):
    # the model is built with zero weights, whose pages nothing touches
    # before the manifest is refused; measured in a child process so that
    # max RSS is this load's own
    path = tmp_path / "head.ckpt"
    body = json.dumps(CRAFTED_HEAD).encode()
    path.write_bytes(b"MPC1" + struct.pack("<I", len(body)) + body + bytes(4))
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run([sys.executable, "-c", _TIMED_LOAD, str(path)], env=env,
                         capture_output=True, text=True, timeout=120)
    seconds, max_rss_mb, message = out.stdout.split(" ", 2)
    assert "entry 0: name is 'w'" in message, out.stdout + out.stderr
    assert float(seconds) < 0.5 and float(max_rss_mb) < 150, out.stdout


# SHA-256 over each parameter's, then each buffer's name and <f4 bytes, in
# model order, of a seed-1 desk model with a 64x1 head after it adopts the
# backbone of the seed-0 desk model whose buffers hold SplitMix64(5) draws
ADOPTED_DESK_SHA256 = "ff07b73d0085d3293782d7df6cb04c99c6e47cfb509792524bbdb6b3231154fc"


def test_load_into_under_a_prefix_moves_the_pinned_bytes(tmp_path):
    donor = build_model(desk_backbone(), HeadConfig(), seed=0)
    rng = SplitMix64(5)
    for _, buf in donor.buffers():
        buf[...] = rng.uniform(0.5, 1.5, shape=buf.shape)
    path = tmp_path / "donor.ckpt"
    save_checkpoint(donor, path)
    target = build_model(desk_backbone(), HeadConfig(hidden_units=64, hidden_layers=1), seed=1)
    load_into(target, path, prefix="backbone.")
    digest = hashlib.sha256()
    for name, arr in [(p.name, p.data) for p in target.parameters()] + target.buffers():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    assert digest.hexdigest() == ADOPTED_DESK_SHA256


def test_bad_architecture_is_checkpoint_error(tmp_path):
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(_model(seed=1), good)

    def zero_blocks(header):
        header["backbone"]["num_blocks"] = 0
        return header

    def negative_stem(header):
        header["backbone"]["stem_channels"][0] = -5
        return header

    for mutate, named in ((zero_blocks, "num_blocks"),
                          (negative_stem, "stem_channels must be >= 1")):
        _rewrite_header(good, bad, mutate)
        with pytest.raises(CheckpointError, match=named):
            load_checkpoint(bad)


def _peak_of_refused_load(path, match) -> int:
    """Peak traced bytes of a ``load_checkpoint`` that must refuse ``path``."""
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversized_head_is_refused_before_any_model_is_built(tmp_path):
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(build_model(desk_backbone(), HeadConfig(), seed=0), good)

    def million_units(header):
        header["head"]["hidden_units"] = 1_000_000
        return header

    _rewrite_header(good, bad, million_units)
    peak = _peak_of_refused_load(bad, "hidden_units must be <= 4096")
    assert peak < 4 * bad.stat().st_size  # the file is read; no model is built


def test_nine_unit_stem_is_refused_before_any_model_is_built(tmp_path):
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(_model(seed=1), good)

    def nine_wide_units(header):
        header["backbone"]["stem_channels"] = [1024] * 9  # 128 wide at width 0.125
        header["backbone"]["stem_strides"] = [1] * 9
        return header

    _rewrite_header(good, bad, nine_wide_units)
    peak = _peak_of_refused_load(bad, "stem_channels must have at most 8 units")
    assert peak < 2**20  # the 35 kB file is read; the 5 MB stem is never built


def test_load_checkpoint_reads_file_once(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(_model(seed=1), path)
    reads = []
    real_read = checkpoint._read

    def counting_read(p):
        reads.append(p)
        return real_read(p)

    monkeypatch.setattr(checkpoint, "_read", counting_read)
    load_checkpoint(path)
    assert len(reads) == 1


FUZZ_VALUES = [None, True, False, -1, 0, 1.5, float("nan"), "x", "", [], [1, "a"], {}, {"k": 1}]


def _json_paths(node, prefix=()):
    """Every key/index path under a parsed JSON value, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _json_paths(child, prefix + (key,))


def test_header_fuzz_raises_only_checkpoint_error(tmp_path):
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    save_checkpoint(_model(seed=1, units=8), good)
    rng = SplitMix64(2024)
    outcomes = {"loaded": 0, "rejected": 0}
    for case in range(300):
        def mutate(header):
            top = sorted(header)[rng.randint(len(header))]
            paths = [(top,)]
            if isinstance(header[top], (dict, list)):
                paths += [(top,) + p for p in _json_paths(header[top])]
            path = paths[rng.randint(len(paths))]
            parent = header
            for key in path[:-1]:
                parent = parent[key]
            value = ([_DROP] + FUZZ_VALUES)[rng.randint(len(FUZZ_VALUES) + 1)]
            if value is _DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            return header

        _rewrite_header(good, bad, mutate)
        try:
            load_checkpoint(bad)
            outcomes["loaded"] += 1
        except CheckpointError:
            outcomes["rejected"] += 1
    assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0
