"""Atomic file output: write beside the target, then rename over it.

A reader of the target sees either the previous file or the complete new
one, never a partial write, and a write that fails midway leaves the
previous file in place.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", **open_args):
    """Open a temporary file in ``path``'s directory for writing (``mode``
    "w" or "wb", plus ``open`` keyword arguments); when the block completes
    it replaces ``path`` with ``os.replace``. If the block raises, the
    temporary file is removed and ``path`` is untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
