"""Run manifests: the provenance record written beside every output.

A manifest ties outputs to the exact command, canonicalized-config hash,
input-file hashes, and seed that produced them, so any report can be
replayed byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .atomic import write_json


@dataclass
class Manifest:
    command: str
    config_hash: str
    data_hashes: dict[str, str]
    seed: int
    started_at: str
    finished_at: str = ""
    outputs: list[str] = field(default_factory=list)


def config_hash(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def file_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def start_manifest(command: str, config_dict: dict, data_paths: dict,
                   seed: int) -> Manifest:
    return Manifest(command=command, config_hash=config_hash(config_dict),
                    data_hashes={name: file_hash(p) for name, p in
                                 sorted(data_paths.items())},
                    seed=seed, started_at=_now())


def finish_manifest(manifest: Manifest, out_dir, outputs,
                    name: str | None = None) -> Path:
    """Write ``manifest-<name>.json``, named after the command by default."""
    manifest.finished_at = _now()
    manifest.outputs = [str(p) for p in outputs]
    path = Path(out_dir) / f"manifest-{name or manifest.command}.json"
    write_json(path, asdict(manifest))
    return path
