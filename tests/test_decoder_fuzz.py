"""Seeded fuzzing of the file decoders: a mutated valid file must either
load or raise a MaskDetectError, never any other exception."""

import re
from pathlib import Path

import numpy as np
import pytest

from maskdetect.cascade import load_cascade_json, load_cascade_xml, save_cascade_json
from maskdetect.data import load_ppm, save_ppm
from maskdetect.errors import MaskDetectError
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
