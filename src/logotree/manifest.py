"""Run manifests: the provenance record written beside every output.

A manifest ties outputs to the exact command, canonicalized-config hash,
input-file hashes, and seed that produced them, so any report can be
replayed byte-for-byte, and records the software and CPUs they came from.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import encoders
from .atomic import write_json


def config_hash(config_dict: dict) -> str:
    blob = json.dumps(config_dict, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def file_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def now() -> str:
    return datetime.now(timezone.utc).isoformat()


def environment() -> dict:
    """Python, numpy and BLAS versions, the BLAS thread settings, the usable
    CPUs and whether the helper thread took a job: weight gradients,
    untaped chunks or a biLSTM direction (``weight_grad_helper``, named for
    the first kind, keeps its name so that manifests stay comparable)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads_env": {var: os.environ.get(var) for var in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "usable_cpus": encoders.usable_cpus(),
            "weight_grad_helper": encoders.helper_ran()}


def write_manifest(out_dir, command: str, config_dict: dict, inputs: dict,
                   seed: int, started_at: str, outputs,
                   name: str | None = None) -> Path:
    """Write ``manifest-<name>.json``, named after the command by default.

    ``inputs`` maps a key to each input file, hashed here; a run calls this
    after reading its inputs, so a missing or malformed file has already
    ended in its loader's typed error.
    """
    path = Path(out_dir) / f"manifest-{name or command}.json"
    write_json(path, {
        "command": command, "config_hash": config_hash(config_dict),
        "data_hashes": {k: file_hash(p) for k, p in sorted(inputs.items())},
        "seed": seed, "started_at": started_at, "finished_at": now(),
        "outputs": [str(p) for p in outputs], "environment": environment()})
    return path
