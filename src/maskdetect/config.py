"""One codec for every config dataclass, driven by its fields and type hints.

Supported hints: ``bool``, ``int``, ``float``, ``str``, fixed and variadic
``tuple[...]``, nested dataclasses (in tuples too) and ``X | None``.  A
``bool`` is not an ``int``; an ``int`` is accepted as a ``float`` but kept
as an ``int``, so a decoded config re-encodes to the same JSON.  Unknown
keys, missing required keys, wrong types and ``validate()`` errors are all
collected into one :class:`ConfigError`, each named by its dotted path,
e.g. ``stages[0].stage_threshold``.  ``validate()`` runs on every section
whose fields are well typed, even when a section nested in it failed its
own ``validate()``, so checks that span sections are reported together.

The codec is the one place that knows defaults: a section decodes over the
default value at its place (its class default where that is ``None``; none
for a class with a required field), so a key left out keeps its default
and ``{}`` means the section left out.

Every JSON file the package reads is decoded by :func:`read_json`, and
every indented JSON file it writes goes through :func:`write_json`.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
import types
import typing
from dataclasses import MISSING, fields, is_dataclass, replace

from .errors import ConfigError

_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}
_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}
_BAD = object()  # decoded value that is not of its hinted type
_REPR = reprlib.Repr()
_REPR.maxlevel = 1  # a problem quotes a value's outer level, so its length has a bound


class Config:
    """Base for config dataclasses: ``to_dict``/``from_dict`` through the codec."""

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data, problems=()):
        """Decode ``data`` over ``cls()`` (a class with a required field:
        over nothing), or raise one :class:`ConfigError` listing every
        problem, starting with the ``problems`` the caller already found."""
        problems = list(problems)
        config = _decode_fields(cls, data, "", problems, None)
        if problems:
            raise ConfigError("config validation failed:\n  " + "\n  ".join(problems))
        return config


def encode(value):
    """JSON-ready form of a config dataclass, or of any value inside one."""
    if is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    return value


@functools.cache
def _schema(cls) -> tuple:
    """A dataclass's type hints, resolved once, and its fields without a default."""
    return typing.get_type_hints(cls), [f.name for f in fields(cls)
                                        if f.default is MISSING and f.default_factory is MISSING]


def _decode(hint, value, path: str, problems: list, default=None):
    """Check ``value`` against ``hint``, appending any problems; a section
    decodes over ``default``, the default value at its place.  Returns
    ``_BAD`` when the value (or a part of it) is not of its hinted type."""
    if hint in _KIND_NAMES:  # first, as most values are scalars
        if hint is float:
            ok = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
        else:
            ok = isinstance(value, hint)
        if not ok or (isinstance(value, bool) and hint is not bool):
            problems.append(f"{path}: expected {_KIND_NAMES[hint]}, got {_REPR.repr(value)}")
            return _BAD
        if hint in (int, float):
            try:
                float(value)  # an integer past the float range overflows wherever it is used
            except OverflowError:
                problems.append(f"{path}: number out of range")
                return _BAD
        return value
    if is_dataclass(hint):
        return _decode_fields(hint, value, path, problems, default)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value, path, problems, default)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            problems.append(f"{path}: expected a list, got {_REPR.repr(value)}")
            return _BAD
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            problems.append(f"{path}: expected {len(args)} items, got {len(value)}")
            return _BAD
        items = tuple(_decode(h, v, f"{path}[{i}]", problems)
                      for i, (h, v) in enumerate(zip(args, value)))
        return _BAD if any(v is _BAD for v in items) else items


def _decode_fields(cls, data, path: str, problems: list, default):
    if not isinstance(data, dict):
        problems.append(f"{path or 'config'}: expected an object, got {_REPR.repr(data)}")
        return _BAD
    hints, required = _schema(cls)
    if default is None and not required:
        default = cls()
    prefix = f"{path}." if path else ""
    kwargs = {}
    well_typed = True
    for key, value in data.items():
        where = f"{prefix}{key}"
        if key in hints:
            kwargs[key] = _decode(hints[key], value, where, problems, getattr(default, key, None))
            well_typed = well_typed and kwargs[key] is not _BAD
        else:
            # the key comes from the document, so it is quoted in bounded form
            problems.append(f"unknown config key: {prefix}{_REPR.repr(key)[1:-1]}")
            well_typed = False
    missing = [key for key in required if key not in data] if default is None else []
    problems.extend(f"{prefix}{key}: missing required key" for key in missing)
    if not well_typed or missing:
        return _BAD
    config = _BAD  # stays so when construction itself (a __post_init__ check) fails
    try:
        config = cls(**kwargs) if default is None else replace(default, **kwargs)
        if hasattr(config, "validate"):
            config.validate()
    except ConfigError as exc:
        problems.append(f"{path}: {exc}" if path else str(exc))
    return config


def scalar_leaves(config, prefix: str = "") -> dict:
    """Dotted path -> ``(type, value)`` of every bool/int/float/str field
    of a config instance, nested sections included; tuples are left out."""
    out = {}
    hints = typing.get_type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            out.update(scalar_leaves(value, f"{prefix}{f.name}."))
        elif hints[f.name] in _KIND_NAMES:
            out[prefix + f.name] = (hints[f.name], value)
    return out


def parse_text(kind: type, text: str):
    """Read a command-line string as a value of scalar type ``kind``;
    raises ``ValueError`` when it is not one."""
    try:
        return _BOOL_WORDS[text.strip().lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ValueError(f"expected {_KIND_NAMES[kind]}, got {text!r}") from None


def read_json(raw: bytes, error: type[Exception], prefix: str):
    """Decode one JSON document from UTF-8 ``raw``.  Bad UTF-8, bad syntax,
    an integer past ``int()``'s digit limit and nesting past the recursion
    limit all raise ``error(f"{prefix}: {reason}")``."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"{prefix}: {exc}") from None


def write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
