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

from .atomic import atomic_write
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
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version "
                              f"{header.get('format_version')}")
    payload = raw[12 + hlen:]
    try:
        index = [(e["name"], tuple(int(d) for d in e["shape"]), int(e["offset"]))
                 for e in header["tensors"]]
        manifest = header["manifest"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed tensor index: {exc!r}") from exc
    tensors = {}
    for name, shape, start in index:
        n = math.prod(shape)
        if min(shape, default=0) < 0 or start < 0 or start + 8 * n > len(payload):
            raise CheckpointError(f"{path}: tensor {name!r} (shape {list(shape)}, "
                                  f"offset {start}) runs past the "
                                  f"{len(payload)}-byte payload")
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=start)
        tensors[name] = arr.astype(np.float64).reshape(shape)
    return tensors, manifest


def restore_tensors(path, params: dict, tensors: dict[str, np.ndarray]) -> None:
    """Copy each loaded array into the model parameter of the same name."""
    for name, t in params.items():
        if name not in tensors:
            raise ContractError(f"{path}: missing tensor {name}")
        if tensors[name].shape != t.data.shape:
            raise ShapeError(f"{path}: {name} shape {tensors[name].shape} "
                             f"vs expected {t.data.shape}")
        t.data[:] = tensors[name]
