"""Flat binary container for named parameter tensors.

Layout: 8-byte magic ``LGTCKPT1``, a little-endian uint32 header length, a
UTF-8 JSON header, then the raw tensor payload. The header carries a format
version, an arbitrary JSON manifest of hyperparameters, and a tensor index
of (name, shape, byte offset). Values are little-endian float64.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .atomic import atomic_write, parse_json
from .errors import CheckpointError, ContractError, ShapeError

MAGIC = b"LGTCKPT1"
FORMAT_VERSION = 1


def save_checkpoint(path, tensors: dict[str, np.ndarray], manifest: dict) -> None:
    index = []
    offset = 0
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
        blob = arr.astype("<f8").tobytes()
        index.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "manifest": manifest,
        "tensors": index,
    }, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    if raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint")
    if len(raw) < 12:
        raise CheckpointError(f"{path}: truncated before the header length")
    (hlen,) = struct.unpack("<I", raw[8:12])
    if 12 + hlen > len(raw):
        raise CheckpointError(f"{path}: header length {hlen} runs past the end "
                              f"of the {len(raw)}-byte file")
    try:
        text = raw[12:12 + hlen].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    header = parse_json(text, f"{path}: corrupt header", CheckpointError)
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version "
                              f"{header.get('format_version')}")
    manifest, index = header.get("manifest"), header.get("tensors")
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest is not a JSON object")
    if not (isinstance(index, list) and all(map(_index_entry_ok, index))):
        raise CheckpointError(f"{path}: malformed tensor index")
    payload = raw[12 + hlen:]
    tensors = {}
    for entry in index:
        name, shape, start = entry["name"], entry["shape"], entry["offset"]
        n = math.prod(shape)
        if start + 8 * n > len(payload):
            raise CheckpointError(f"{path}: tensor {name!r} (shape {shape}, "
                                  f"offset {start}) runs past the "
                                  f"{len(payload)}-byte payload")
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=start)
        try:
            tensors[name] = arr.astype(np.float64).reshape(shape)
        except ValueError as exc:  # more dimensions than numpy supports
            raise CheckpointError(f"{path}: tensor {name!r}: {exc}") from exc
    return tensors, manifest


def _index_entry_ok(entry) -> bool:
    """A str name, a list of non-negative int dimensions and a non-negative
    int offset."""
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(d) is int and d >= 0 for d in entry["shape"])
            and type(entry.get("offset")) is int and entry["offset"] >= 0)


def manifest_strings(path, manifest: dict, *keys) -> list[str]:
    """The list of distinct str at ``manifest[keys[0]][keys[1]]...``; a
    field that is missing, holds anything else or names a string twice is
    a ``CheckpointError``."""
    value = manifest
    for key in keys:
        value = value.get(key) if isinstance(value, dict) else None
    field = ".".join(keys)
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise CheckpointError(f"{path}: manifest field {field} is not a list "
                              "of strings")
    seen = set()
    for v in value:
        if v in seen:
            raise CheckpointError(f"{path}: manifest field {field} repeats "
                                  f"{v!r}")
        seen.add(v)
    return value


def restore_tensors(path, params: dict, tensors: dict[str, np.ndarray]) -> None:
    """Copy each loaded array into the model parameter of the same name."""
    for name, t in params.items():
        if name not in tensors:
            raise ContractError(f"{path}: missing tensor {name}")
        if tensors[name].shape != t.data.shape:
            raise ShapeError(f"{path}: {name} shape {tensors[name].shape} "
                             f"vs expected {t.data.shape}")
        t.data[:] = tensors[name]
