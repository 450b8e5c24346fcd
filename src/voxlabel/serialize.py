"""Serialization helpers: the JSON codec of the config dataclasses,
run-length encoding, canonical JSON, atomic writes, content hashes."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
from pathlib import Path
import typing

import numpy as np


class JsonDataclass:
    """Base of the frozen dataclasses kept in JSON: configs, Pose and scenes.

    to_json emits every field, nested ones as objects and tuples as lists;
    a class with _json_as_list set is kept as the list of its field values.
    from_json raises ValueError naming the field, dotted when nested, for an
    unknown key, a missing required field or a value of the wrong JSON type;
    an int given for a float field becomes a float. Fields may be bool, int,
    float, str, JsonDataclass, tuple[X, ...] or X | None. Range checks are
    each class's __post_init__, mostly calls of _require; from_json prefixes
    a nested class's error with the path of the field it decodes.
    """

    _json_as_list = False

    def to_json(self):
        values = [_encode(getattr(self, k)) for k in self.__dataclass_fields__]
        if self._json_as_list:
            return values
        return dict(zip(self.__dataclass_fields__, values))

    @classmethod
    def from_json(cls, data):
        return _decode(cls, data, "")

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_json(json.load(f))

    def _require(self, rule: str, *names):
        """ValueError naming the first of the fields names that breaks rule."""
        for name in names:
            if not _RULES[rule](getattr(self, name)):
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


# a bound of math.inf rejects infinities (and NaN) without converting an int
_RULES = {"positive": lambda v: 0 < v < math.inf,
          "non-negative": lambda v: 0 <= v < math.inf,
          "at least 1": lambda v: 1 <= v < math.inf,
          "in [0, 1]": lambda v: 0 <= v <= 1,
          "finite": lambda v: -math.inf < v < math.inf}


def _encode(value):
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value.to_json() if isinstance(value, JsonDataclass) else value


@functools.cache
def _fields(cls) -> dict:
    """name -> (annotation, required) of a dataclass, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}


def _decode(tp, value, path: str):
    """value, read from JSON, as the annotation tp of the field at path."""
    if type(value) is tp:   # exact: true is no int, 1 no float
        return value
    if tp is float and type(value) is int:
        return float(value)
    args = typing.get_args(tp)
    if type(None) in args:
        if value is None:
            return None
        return _decode(next(a for a in args if a is not type(None)), value, path)
    if isinstance(value, list) and typing.get_origin(tp) is tuple:
        return tuple(_decode(args[0], v, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if (isinstance(tp, type) and issubclass(tp, JsonDataclass)
            and type(value) is (list if tp._json_as_list else dict)):
        fields, prefix = _fields(tp), path + "." if path else ""
        if tp._json_as_list:
            if len(value) != len(fields):
                raise ValueError(f"{path or tp.__name__}: expected "
                                 f"{len(fields)} values, got {len(value)}")
            value = dict(zip(fields, value))
        for name in sorted(value.keys() - fields.keys()):
            raise ValueError(f"{prefix}{name}: not a field of {tp.__name__}")
        for name, (_, required) in fields.items():
            if required and name not in value:
                raise ValueError(f"{prefix}{name}: missing required field")
        kwargs = {k: _decode(fields[k][0], v, prefix + k) for k, v in value.items()}
        try:
            return tp(**kwargs)
        except ValueError as exc:
            if not path:
                raise
            # "noise.min_pixels must be ...", "objects[1]: box has ..."
            sep = "." if str(exc).split(" ", 1)[0] in fields else ": "
            raise ValueError(f"{path}{sep}{exc}") from exc
    raise ValueError(f"{path or tp.__name__}: expected {tp.__name__}, "
                     f"got {value!r}")


def rle_encode_bool(mask: np.ndarray) -> list:
    """Row-major run-length encoding of a mask: [[0 or 1, count], ...]."""
    flat = np.asarray(mask, dtype=np.uint8).ravel()
    if flat.size == 0:
        return []
    starts = np.concatenate(([0], np.flatnonzero(flat[1:] != flat[:-1]) + 1))
    counts = np.diff(starts, append=flat.size)
    return [[v, c] for v, c in zip(flat[starts].tolist(), counts.tolist())]


def rle_decode_bool(runs: list, shape: tuple) -> np.ndarray:
    if not runs:
        return np.zeros(shape, dtype=bool)
    values, counts = zip(*runs)
    return np.repeat(np.array(values, dtype=bool), counts).reshape(shape)


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_atomic(path, text: str):
    """Write text to a temporary file next to path, then rename it over path."""
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def derive_seed(master_seed: int, stage: str, index: int = 0) -> int:
    """Stable per-stage seed from a master seed and a stage label."""
    digest = hashlib.sha256(f"{master_seed}|{stage}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**63)
