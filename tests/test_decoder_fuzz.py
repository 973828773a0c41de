"""Seeded fuzzing of the file decoders: a mutated valid file must either
load or raise a MaskDetectError, never any other exception."""

import argparse
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from maskdetect.cascade import load_cascade_json, load_cascade_xml, save_cascade_json
from maskdetect.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from maskdetect.cli import default_config, load_config
from maskdetect.config import write_json
from maskdetect.data import (
    DatasetIndex,
    Label,
    Sample,
    apply_split_manifest,
    load_ppm,
    load_split_manifest,
    save_ppm,
    save_split_manifest,
    split_dataset,
)
from maskdetect.errors import (
    CascadeFormatError,
    CheckpointError,
    ConfigError,
    MaskDetectError,
)
from maskdetect.nn import BackboneConfig, HeadConfig, build_model
from maskdetect.rng import SplitMix64

FIXTURE_XML = Path(__file__).parent / "fixtures" / "face_cascade.xml"
CASES = 300
_TOKEN = re.compile(rb"[^\s<>{}\[\]\",:/]+")


def _mutate(data: bytes, header_end: int, rng: SplitMix64) -> bytes:
    """One to three edits: a bit flip, a truncation, an insertion of 1-8
    random bytes, or a swap of two tokens that start in ``data[:header_end]``."""
    data = bytearray(data)
    for _ in range(1 + rng.randint(3)):
        op = rng.randint(4)
        if op == 0 and data:
            data[rng.randint(len(data))] ^= 1 << rng.randint(8)
        elif op == 1:
            del data[rng.randint(len(data) + 1):]
        elif op == 2:
            at = rng.randint(len(data) + 1)
            data[at:at] = bytes(rng.randint(256) for _ in range(1 + rng.randint(8)))
        else:
            spans = [m.span() for m in _TOKEN.finditer(bytes(data[:header_end]))]
            if len(spans) < 2:
                continue
            (a0, a1), (b0, b1) = sorted((spans[rng.randint(len(spans))],
                                         spans[rng.randint(len(spans))]))
            if a1 <= b0:
                data[a0:b1] = data[b0:b1] + data[a1:b0] + data[a0:a1]
    return bytes(data)


def _valid_file(decoder: str, tmp_path: Path) -> tuple[bytes, int]:
    """A valid file for ``decoder`` and the length of its header."""
    if decoder == "ppm":
        image = (SplitMix64(1).uniform(shape=(5, 7, 3)) * 256).astype(np.uint8)
        save_ppm(image, tmp_path / "valid.ppm")
        data = (tmp_path / "valid.ppm").read_bytes()
        return data, len(data) - image.size
    if decoder == "json":
        save_cascade_json(load_cascade_xml(FIXTURE_XML), tmp_path / "valid.json")
        data = (tmp_path / "valid.json").read_bytes()
        return data, len(data)
    data = FIXTURE_XML.read_bytes()
    return data, len(data)


LOADERS = {"ppm": load_ppm, "json": load_cascade_json, "xml": load_cascade_xml}


@pytest.mark.parametrize("decoder", sorted(LOADERS))
def test_mutated_files_load_or_raise_a_named_error(tmp_path, decoder):
    good, header_end = _valid_file(decoder, tmp_path)
    rng = SplitMix64(7000 + sorted(LOADERS).index(decoder))
    path = tmp_path / f"case.{decoder}"
    outcomes = {"loaded": 0, "rejected": 0}
    for case in range(CASES):
        path.write_bytes(_mutate(good, header_end, rng))
        try:
            LOADERS[decoder](path)
            outcomes["loaded"] += 1
        except MaskDetectError:
            outcomes["rejected"] += 1
        except Exception as e:  # any other type is the defect under test
            pytest.fail(f"case {case}: {type(e).__name__}: {e}")
    assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0, outcomes


# -- the JSON readers ---------------------------------------------------------------------

_INDEX = split_dataset(DatasetIndex(samples=[
    Sample(f"corpus/{label.name.lower()}/{k}.ppm", label) for label in Label for k in range(4)
]), seed=0)
_TINY_BACKBONE = BackboneConfig(input_size=16, width_mult=0.125, num_blocks=1,
                                factorized_blocks=(), stem_channels=(8,), stem_strides=(2,))


def _read_config(path):
    return load_config(argparse.Namespace(config=str(path)))


def _read_manifest(path):
    return apply_split_manifest(_INDEX, path)


def _write_checkpoint_file(path, header: bytes, payload: bytes) -> None:
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header + payload)


def _split_checkpoint(path) -> tuple[bytes, bytes]:
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[4:8])
    return raw[8:8 + hlen], raw[8 + hlen:]


def _valid_document(reader: str, tmp_path: Path) -> bytes:
    """The JSON document of a valid file for ``reader``: a config, a split
    manifest, or the header of a checkpoint."""
    path = tmp_path / f"valid.{reader}"
    if reader == "config":
        write_json(path, default_config().to_dict())
    elif reader == "manifest":
        save_split_manifest(_INDEX, path)
    else:
        save_checkpoint(build_model(_TINY_BACKBONE, HeadConfig(hidden_units=4, hidden_layers=1),
                                    seed=0), path)
        return _split_checkpoint(path)[0]
    return path.read_bytes()


JSON_READERS = {"config": _read_config, "manifest": _read_manifest,
                "checkpoint": load_checkpoint}


@pytest.mark.parametrize("reader", sorted(JSON_READERS))
def test_mutated_json_documents_load_or_raise_a_named_error(tmp_path, reader):
    good = _valid_document(reader, tmp_path)
    payload = b""
    if reader == "checkpoint":
        payload = _split_checkpoint(tmp_path / "valid.checkpoint")[1]
    rng = SplitMix64(7100 + sorted(JSON_READERS).index(reader))
    path = tmp_path / f"case.{reader}"
    outcomes = {"loaded": 0, "rejected": 0, "still JSON": 0}
    for case in range(CASES):
        document = _mutate(good, len(good), rng)
        if reader == "checkpoint":  # the header is mutated, the framing stays valid
            _write_checkpoint_file(path, document, payload)
        else:
            path.write_bytes(document)
        try:
            json.loads(document)
            outcomes["still JSON"] += 1
        except (ValueError, RecursionError):
            pass
        try:
            JSON_READERS[reader](path)
            outcomes["loaded"] += 1
        except MaskDetectError:
            outcomes["rejected"] += 1
        except Exception as e:  # any other type is the defect under test
            pytest.fail(f"case {case}: {type(e).__name__}: {e}")
    # most mutations break the syntax; some must reach the checks behind the decoder
    assert outcomes["rejected"] > 0 and outcomes["still JSON"] > 0, outcomes


_DEEP = b"[" * 100_000 + b"]" * 100_000
_LONG_INT = b"1" * 5000


def _crafted(reader: str, tmp_path: Path, inner: bytes) -> Path:
    """A file for ``reader`` whose JSON holds ``inner`` where a value belongs."""
    path = tmp_path / f"crafted.{reader}"
    if reader == "config":
        path.write_bytes(b'{"train": {"epochs_phase1": ' + inner + b"}}")
    elif reader == "manifest":
        path.write_bytes(b'{"seed": ' + inner + b', "ratios": [], "splits": {}}')
    elif reader == "cascade":
        path.write_bytes(b'{"base_window": [' + inner + b', 24], "stages": []}')
    else:
        header = _valid_document("checkpoint", tmp_path)
        _write_checkpoint_file(path, header.replace(b'"seed":0', b'"seed":' + inner), b"")
    return path


CRAFTED_READERS = {
    "config": (_read_config, ConfigError, "invalid JSON"),
    "manifest": (load_split_manifest, ConfigError, "split manifest is not valid JSON"),
    "cascade": (load_cascade_json, CascadeFormatError, "not valid JSON"),
    "checkpoint": (load_checkpoint, CheckpointError, "header is not valid JSON"),
}


@pytest.mark.parametrize("inner", [_DEEP, _LONG_INT], ids=["deep-array", "long-integer"])
@pytest.mark.parametrize("reader", sorted(CRAFTED_READERS))
def test_crafted_json_is_a_named_error(tmp_path, reader, inner):
    load, error, message = CRAFTED_READERS[reader]
    path = _crafted(reader, tmp_path, inner)
    with pytest.raises(error, match=message):
        load(path)
