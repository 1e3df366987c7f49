"""All-or-nothing file writes."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Open a new temp file next to `path` for writing (`mode` "w" or "wb").
    When the block completes, the temp file replaces `path` in one step
    (`os.replace`); when it raises, the temp file is removed, so `path` is
    never left half-written."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x" + mode[1:], **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
