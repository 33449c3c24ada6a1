"""Atomic JSON state files shared by the supervisor and its workers.

The service's cross-process state — heartbeats, checkpoint-adjacent
reports, stop requests — lives in small JSON documents inside each
tenant's state directory.  Writers always go through a sibling temp file
and :func:`os.replace`, the same discipline
:func:`repro.stream.checkpoint.save_checkpoint` established, so a reader
never observes a torn document: it sees the previous complete version or
the new complete version, nothing in between.  Readers treat a missing
or (transiently) undecodable file as "no document yet" rather than an
error — the writer may simply not have produced one.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional


def write_json_atomic(path: "str | os.PathLike[str]", document: Dict[str, Any]) -> None:
    """Write ``document`` to ``path`` so readers never see a torn file."""
    target = os.fspath(path)
    # One C-encoder pass; ``json.dump`` streams through the pure-Python
    # iterencode, and heartbeats carry the whole drop ledger every beat.
    text = json.dumps(document, separators=(",", ":"))
    temp_path = f"{target}.tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, target)


def read_json(path: "str | os.PathLike[str]") -> Optional[Dict[str, Any]]:
    """Read a JSON document written by :func:`write_json_atomic`.

    Returns ``None`` when the file does not exist or does not decode —
    with atomic writers the latter can only be a foreign or damaged
    file, and the service treats both as "no usable document".
    """
    try:
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def touch_marker(path: "str | os.PathLike[str]") -> None:
    """Create an empty marker file (stop requests); idempotent."""
    with open(os.fspath(path), "a", encoding="utf-8"):
        pass
