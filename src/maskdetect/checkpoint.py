"""Binary model checkpoints.

Layout: the 4 magic bytes ``MPC1``, a little-endian u32 byte length, a JSON
header of exactly that length, then a packed little-endian float32 payload.
The header records the integer format version, both architecture configs,
the build seed, and a manifest of every parameter and running-statistics
buffer (name, kind, shape, byte offset into the payload, trainable flag for
parameters).  The manifest order is the model's own stable parameter
order, and the JSON is dumped with sorted keys, so saving the same model
state twice produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .config import read_json
from .errors import CheckpointError, ConfigError
from .nn import BackboneConfig, HeadConfig, Model

MAGIC = b"MPC1"
FORMAT_VERSION = 4


def save_checkpoint(model: Model, path) -> None:
    """Write the model's full state (weights, buffers, configs) to ``path``."""
    states = [(p.name, "param", p.data, {"trainable": bool(p.trainable)})
              for p in model.parameters()]
    states += [(name, "buffer", buf, {}) for name, buf in model.buffers()]
    entries = []
    blobs = []
    offset = 0
    for name, kind, data, extra in states:
        arr = np.ascontiguousarray(data, dtype="<f4")
        entries.append({"name": name, "kind": kind, "shape": list(arr.shape),
                        "dtype": "f32", "offset": offset, **extra})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "backbone": model.backbone_config.to_dict(),
        "head": model.head_config.to_dict(),
        "seed": model.seed,
        "entries": entries,
    }
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(encoded)))
        f.write(encoded)
        for blob in blobs:
            f.write(blob)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _entry_problem(e) -> str | None:
    """What is wrong with one manifest entry's schema, or None."""
    if not isinstance(e, dict):
        return "must be an object"
    if not isinstance(e.get("name"), str):
        return f"name must be a string, got {e.get('name')!r}"
    if e.get("kind") not in ("param", "buffer"):
        return f"kind must be 'param' or 'buffer', got {e.get('kind')!r}"
    if e.get("dtype") != "f32":
        return f"dtype must be 'f32', got {e.get('dtype')!r}"
    shape = e.get("shape")
    if not isinstance(shape, list) or not all(_is_int(s) and s >= 0 for s in shape):
        return f"shape must be a list of non-negative integers, got {shape!r}"
    if not _is_int(e.get("offset")) or e["offset"] < 0:
        return f"offset must be a non-negative integer, got {e.get('offset')!r}"
    if not isinstance(e.get("trainable", True), bool):
        return f"trainable must be a boolean, got {e['trainable']!r}"
    return None


def _read(path) -> tuple[dict, bytes]:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read checkpoint: {e}") from e
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic bytes)")
    (hlen,) = struct.unpack("<I", raw[4:8])
    if 8 + hlen > len(raw):
        raise CheckpointError(f"{path}: truncated header (wants {hlen} bytes)")
    header = read_json(raw[8 : 8 + hlen], CheckpointError, f"{path}: header is not valid JSON")
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header must be a JSON object")
    version = header.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version!r} is not supported, "
                              f"this build reads version {FORMAT_VERSION}")
    for key in ("backbone", "head", "seed", "entries"):
        if key not in header:
            raise CheckpointError(f"{path}: header is missing {key!r}")
    if not _is_int(header["seed"]):
        raise CheckpointError(f"{path}: seed must be an integer, got {header['seed']!r}")
    if not isinstance(header["entries"], list):
        raise CheckpointError(f"{path}: entries must be a list")
    for i, e in enumerate(header["entries"]):
        problem = _entry_problem(e)
        if problem:
            raise CheckpointError(f"{path}: entry {i}: {problem}")
    payload = raw[8 + hlen :]
    names = [e["name"] for e in header["entries"]]
    if len(names) != len(set(names)):
        raise CheckpointError(f"{path}: duplicate entry names in manifest")
    # the entries tile the payload in manifest order, as save_checkpoint writes them
    total = 0
    for e in header["entries"]:
        if e["offset"] != total:
            raise CheckpointError(f"{path}: entry {e['name']!r} starts at byte {e['offset']}, "
                                  f"the entries before it end at byte {total}")
        total += 4 * math.prod(e["shape"])
    if total != len(payload):
        raise CheckpointError(
            f"{path}: payload is {len(payload)} bytes, manifest accounts for {total}"
        )
    return header, payload


def read_header(path) -> dict:
    """Parse and validate just the JSON header (architecture, manifest)."""
    header, _ = _read(path)
    return header


def _extract(entry: dict, payload: bytes) -> np.ndarray:
    count = math.prod(entry["shape"])
    arr = np.frombuffer(payload, dtype="<f4", count=count, offset=entry["offset"])
    return arr.reshape(entry["shape"]).astype(np.float32)


def load_into(model: Model, path, prefix: str | None = None) -> None:
    """Copy checkpoint values into an existing model.

    Every parameter and buffer must match by name and shape in both
    directions; any mismatch names the offender and nothing is modified.
    The model's own trainable flags are kept (values move, freeze state
    does not).  With ``prefix`` (e.g. ``"backbone."``) only names under
    that prefix take part, on both sides — the way a pretrained feature
    extractor is adopted under a differently shaped head.
    """
    _load_state(model, *_read(path), path, prefix)


def _load_state(model: Model, header: dict, payload: bytes, path, prefix: str | None) -> None:
    by_name = {e["name"]: e for e in header["entries"]}
    targets = [(p.name, "param", p.data) for p in model.parameters()]
    targets += [(name, "buffer", buf) for name, buf in model.buffers()]
    if prefix is not None:
        by_name = {n: e for n, e in by_name.items() if n.startswith(prefix)}
        targets = [t for t in targets if t[0].startswith(prefix)]
        if not targets:
            raise CheckpointError(f"{path}: model has no entries under prefix {prefix!r}")

    model_names = {name for name, _, _ in targets}
    extra = sorted(set(by_name) - model_names)
    missing = sorted(model_names - set(by_name))
    if extra or missing:
        raise CheckpointError(
            f"{path}: state does not line up with the model"
            + (f"; checkpoint-only entries: {extra[:3]}" if extra else "")
            + (f"; model-only entries: {missing[:3]}" if missing else "")
        )
    staged = []
    for name, kind, dest in targets:
        entry = by_name[name]
        if entry["kind"] != kind:
            raise CheckpointError(f"{path}: entry {name!r} is a {entry['kind']}, expected {kind}")
        if tuple(entry["shape"]) != dest.shape:
            raise CheckpointError(
                f"{path}: entry {name!r} has shape {tuple(entry['shape'])}, "
                f"model wants {dest.shape}"
            )
        staged.append((dest, _extract(entry, payload)))
    for dest, values in staged:
        dest[...] = values


def load_checkpoint(path) -> Model:
    """Rebuild the saved model: architecture, weights, buffers and the
    trainable flags it was saved with."""
    header, payload = _read(path)
    try:
        backbone = BackboneConfig.from_dict(header["backbone"])
        head = HeadConfig.from_dict(header["head"])
    except ConfigError as e:
        raise CheckpointError(f"{path}: bad architecture config: {e}") from e
    model = Model(backbone, head, seed=header["seed"])
    _load_state(model, header, payload, path, None)
    flags = {e["name"]: e.get("trainable", True) for e in header["entries"]
             if e["kind"] == "param"}
    for p in model.parameters():
        p.trainable = flags[p.name]
    return model
