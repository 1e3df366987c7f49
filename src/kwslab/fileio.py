"""All-or-nothing file writes, and the one JSON file writer."""

from __future__ import annotations

import glob
import json
import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Open a new temp file next to `path` for writing (`mode` "w" or "wb").
    When the block completes, the temp file replaces `path` in one step
    (`os.replace`) and the temp files that hard-killed writes to `path` left go;
    when it raises, the temp file is removed, so `path` is never left half-written."""
    prefix = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.")
    tmp = f"{prefix}{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x" + mode[1:], **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    for stale in glob.glob(glob.escape(prefix) + "[0-9a-f]" * 8 + ".tmp"):
        os.unlink(stale)


def write_json(path: str, payload):
    """Write `payload` all at once as strict JSON: sorted keys, indent 2, a final newline."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
