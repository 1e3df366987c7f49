"""Single-file checkpoint format: named arrays behind a JSON index.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header,
then the raw array bytes. The header lists (name, shape, dtype, offset)
per array — offsets are relative to the data section — plus an arbitrary
``meta`` dict for callers (model config, hashes, ...). Arrays are stored
sorted by name so identical contents always produce identical files.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from ..errors import CheckpointError
from ..fileio import atomic_open

_MAGIC = b"KWSARRS1"


def save_arrays(path: str, arrays: dict[str, np.ndarray], meta: dict | None = None):
    index = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        arr = arr.astype(arr.dtype.newbyteorder("<"))
        blob = arr.tobytes()
        index.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": arr.dtype.str,
                "offset": offset,
                "nbytes": len(blob),
            }
        )
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps(
        {"arrays": index, "meta": meta or {}}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_arrays(path: str):
    """Returns (arrays dict, meta dict); any malformed file raises
    CheckpointError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    start = len(_MAGIC) + 8
    if len(raw) < start:
        raise CheckpointError(f"{path}: truncated header length")
    (header_len,) = struct.unpack_from("<Q", raw, len(_MAGIC))
    if header_len > len(raw) - start:
        raise CheckpointError(f"{path}: header runs past the end of the file")
    try:  # a bad UTF-8 or JSON byte raises a ValueError subclass
        header = json.loads(raw[start : start + header_len].decode("utf-8"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from None
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise CheckpointError(f"{path}: header lists no arrays")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: header meta is not an object")
    data = memoryview(raw)[start + header_len :]
    arrays = {}
    end = 0  # arrays lie back to back in index order and fill the data section
    for entry in header["arrays"]:
        try:
            name = entry["name"]
            dtype = np.dtype(str(entry["dtype"]))
            shape = tuple(int(d) for d in entry["shape"])
            offset, nbytes = int(entry["offset"]), int(entry["nbytes"])
        except (KeyError, TypeError, ValueError, SyntaxError, OverflowError) as exc:
            # np.dtype(",f4") raises SyntaxError, int() of JSON Infinity OverflowError
            raise CheckpointError(f"{path}: malformed array entry {entry!r}: {exc}") from None
        if dtype.hasobject or dtype.itemsize == 0 or min(shape, default=0) < 0 or offset < 0:
            raise CheckpointError(f"{path}: invalid array entry {entry!r}")
        if nbytes != math.prod(shape) * dtype.itemsize:
            raise CheckpointError(f"{path}: array {name!r} nbytes does not match its shape")
        if offset + nbytes > len(data):
            raise CheckpointError(f"{path}: array {name!r} runs past the end of the file")
        if offset != end:
            raise CheckpointError(f"{path}: array {name!r} does not start where the last ended")
        end += nbytes
        blob = data[offset:end]
        arrays[name] = np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
    if end != len(data):
        raise CheckpointError(f"{path}: {len(data) - end} bytes follow the last array")
    return arrays, meta
