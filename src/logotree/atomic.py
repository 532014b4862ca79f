"""File input and output at the package boundary.

Every text file is read by ``read_text`` and every JSON document parsed by
``parse_json``, so an unreadable, undecodable or malformed input ends in a
typed ``LogotreeError``. Every output is written beside its target and
renamed over it: readers see the previous file or the complete new one.
"""

from __future__ import annotations

import csv
import json
import os
import uuid
from contextlib import contextmanager
from pathlib import Path

from .errors import IoError


def read_text(path, what: str, error=IoError) -> str:
    """The UTF-8 text of ``path``, line endings untouched. A file that cannot
    be read or decoded (``OSError``, or a ``ValueError``: not UTF-8, a NUL
    in the path) raises ``error`` naming it as ``what``."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def parse_json(text: str, context: str, error):
    """The JSON value in ``text``; malformed JSON, an integer beyond
    Python's digit limit or nesting beyond the recursion limit raises
    ``error`` prefixed by ``context``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{context}: {exc}") from exc


@contextmanager
def atomic_write(path, mode: str = "w", **open_args):
    """Open a temporary file in ``path``'s directory, which is created if
    missing, for writing (``mode`` "w" or "wb", plus ``open`` keyword
    arguments); when the block completes it replaces ``path`` with
    ``os.replace``. If the block raises, the temporary file is removed and
    ``path`` is untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as a UTF-8 CSV file. A row is a
    sequence in header order or a dict keyed by header fields (a missing
    field is empty, a field outside the header raises ``ValueError``)."""
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, header)
        writer.writeheader()
        for row in rows:
            writer.writerow(row if isinstance(row, dict)
                            else dict(zip(header, row)))


def write_json(path, payload) -> None:
    """Write ``payload`` as indented UTF-8 JSON with a final newline."""
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
