"""Binary model checkpoints.

Layout: the 4 magic bytes ``MPC1``, a little-endian u32 byte length, a JSON
header of exactly that length, then a packed little-endian float32 payload.
The header records the integer format version, both architecture configs,
the build seed, and a manifest of every parameter and running-statistics
buffer (name, kind, shape, byte offset into the payload, trainable flag for
parameters).  The manifest order is the model's own stable parameter
order, and the JSON is dumped with sorted keys, so saving the same model
state twice produces byte-identical files.  A reader builds the header's
architecture with zero weights and, before it reads any weight, requires
the manifest to equal the one :func:`save_checkpoint` writes for that
model, compared as JSON text so a bool or a float is never an integer.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .config import _REPR, read_json
from .errors import CheckpointError, ConfigError
from .nn import BackboneConfig, HeadConfig, Model

MAGIC = b"MPC1"
FORMAT_VERSION = 4


def _manifest(model: Model) -> list:
    """(entry, array) for every parameter, then every buffer, in payload
    order; the entries are the manifest :func:`save_checkpoint` writes."""
    states = ([(p.name, p.data, {"kind": "param", "trainable": p.trainable})
               for p in model.parameters()]
              + [(name, buf, {"kind": "buffer"}) for name, buf in model.buffers()])
    pairs, offset = [], 0
    for name, arr, fields in states:
        pairs.append(({"name": name, "shape": list(arr.shape), "dtype": "f32",
                       "offset": offset, **fields}, arr))
        offset += 4 * arr.size
    return pairs


def _header(model: Model) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "backbone": model.backbone_config.to_dict(),
        "head": model.head_config.to_dict(),
        "seed": model.seed,
        "entries": [entry for entry, _ in _manifest(model)],
    }


def save_checkpoint(model: Model, path) -> None:
    """Write the model's full state (weights, buffers, configs) to ``path``."""
    encoded = json.dumps(_header(model), sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(encoded)))
        f.write(encoded)
        for _, arr in _manifest(model):
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _text(value) -> str:
    return json.dumps(value, sort_keys=True)


def _manifest_problem(entries: list, want: list) -> str | None:
    """Where the file's manifest first differs from ``want``, or None."""
    if _text(entries) == _text(want):
        return None
    for i, (got, saved) in enumerate(zip(entries, want)):
        if not isinstance(got, dict):
            return f"entry {i}: expected an object, got {_REPR.repr(got)}"
        unknown = sorted(got.keys() - saved.keys())
        if unknown:
            return f"entry {i}: unknown key {_REPR.repr(unknown[0])}"
        for key, value in saved.items():
            found = _REPR.repr(got[key]) if key in got else "missing"
            if key not in got or _text(got[key]) != _text(value):
                return f"entry {i}: {key} is {found}, this architecture saves {value!r}"
    return f"manifest lists {len(entries)} entries, this architecture saves {len(want)}"


def _read(path) -> Model:
    """The model saved at ``path``, its file checked throughout."""
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
        raise CheckpointError(f"{path}: format version {_REPR.repr(version)} is not supported, "
                              f"this build reads version {FORMAT_VERSION}")
    for key in ("backbone", "head", "seed", "entries"):
        if key not in header:
            raise CheckpointError(f"{path}: header is missing {key!r}")
    if not _is_int(header["seed"]):
        raise CheckpointError(f"{path}: seed must be an integer, got {_REPR.repr(header['seed'])}")
    entries = header["entries"]
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: entries must be a list")
    try:
        backbone = BackboneConfig.from_dict(header["backbone"])
        head = HeadConfig.from_dict(header["head"])
    except ConfigError as e:
        raise CheckpointError(f"{path}: bad architecture config: {e}") from e
    model = Model(backbone, head, seed=header["seed"])
    for p, entry in zip(model.parameters(), entries):
        if isinstance(entry, dict) and isinstance(entry.get("trainable"), bool):
            p.trainable = entry["trainable"]
    want = _manifest(model)
    problem = _manifest_problem(entries, [entry for entry, _ in want])
    if problem:
        raise CheckpointError(f"{path}: {problem}")
    payload = raw[8 + hlen :]
    total = 4 * sum(arr.size for _, arr in want)
    if total != len(payload):
        raise CheckpointError(
            f"{path}: payload is {len(payload)} bytes, manifest accounts for {total}"
        )
    for entry, arr in want:
        arr[...] = np.frombuffer(payload, "<f4", arr.size, entry["offset"]).reshape(arr.shape)
    return model


def read_header(path) -> dict:
    """The header (architecture, seed, manifest) of the checkpoint at
    ``path``, once the whole file has passed :func:`load_checkpoint`'s checks."""
    return _header(_read(path))


def load_into(model: Model, path, prefix: str | None = None) -> None:
    """Copy checkpoint values into an existing model.

    Every parameter and buffer must match by name and shape in both
    directions; any mismatch names the offender and nothing is modified.
    The model's own trainable flags are kept (values move, freeze state
    does not).  With ``prefix`` (e.g. ``"backbone."``) only names under
    that prefix take part, on both sides — the way a pretrained feature
    extractor is adopted under a differently shaped head.
    """
    prefix = prefix or ""
    theirs, ours = ({entry["name"]: arr for entry, arr in _manifest(m)
                     if entry["name"].startswith(prefix)} for m in (_read(path), model))
    if not ours:
        raise CheckpointError(f"{path}: model has no entries under prefix {prefix!r}")
    extra = sorted(theirs.keys() - ours.keys())
    missing = sorted(ours.keys() - theirs.keys())
    if extra or missing:
        raise CheckpointError(
            f"{path}: state does not line up with the model"
            + (f"; checkpoint-only entries: {extra[:3]}" if extra else "")
            + (f"; model-only entries: {missing[:3]}" if missing else "")
        )
    for name, dest in ours.items():
        if theirs[name].shape != dest.shape:
            raise CheckpointError(f"{path}: entry {name!r} has shape {theirs[name].shape}, "
                                  f"model wants {dest.shape}")
    for name, dest in ours.items():
        dest[...] = theirs[name]


def load_checkpoint(path) -> Model:
    """Rebuild the saved model: architecture, weights, buffers and the
    trainable flags it was saved with."""
    return _read(path)
