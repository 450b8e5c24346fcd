"""Serialization helpers: run-length encoding, canonical JSON, content hashes."""

from __future__ import annotations

import hashlib
import json

import numpy as np


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
