"""Flat binary parameter container.

Layout: 8-byte magic, little-endian uint32 header length, UTF-8 JSON header,
then the payload of little-endian 32-bit floats. The header maps each
parameter name to its shape and byte offset within the payload, and records
the payload's CRC-32.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

MAGIC = b"STRCKPT1"


def save_params(path, params, extra=None):
    """Write named arrays to `path` as float32. `extra` lands in the header."""
    names = list(params)
    entries = {}
    offset = crc = 0
    blobs = []
    for name in names:
        data = params[name]
        arr = np.ascontiguousarray(data.data if hasattr(data, "data") and hasattr(data, "shape") else data,
                                   dtype="<f4")
        entries[name] = {"shape": list(arr.shape), "offset": offset}
        offset += arr.nbytes
        blobs.append(arr.tobytes())
        crc = zlib.crc32(blobs[-1], crc)
    header = {"params": entries, "crc32": crc}
    if extra:
        header["extra"] = extra
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(len(hbytes)).astype("<u4").tobytes())
        fh.write(hbytes)
        for blob in blobs:
            fh.write(blob)


def load_params(path):
    """Read a container; returns (dict of float32 arrays, extra header dict)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"not a parameter container: bad magic {magic!r}")
        hlen = int(np.frombuffer(fh.read(4), dtype="<u4")[0])
        header = json.loads(fh.read(hlen).decode("utf-8"))
        payload = fh.read()
    expected = 4 * sum(int(np.prod(e["shape"])) for e in header["params"].values())
    if len(payload) != expected:
        raise ValueError(f"payload is {len(payload)} bytes; the header's arrays "
                         f"take {expected}")
    crc = zlib.crc32(payload)
    if crc != header.get("crc32"):
        raise ValueError(f"payload CRC-32 {crc} differs from the header's {header.get('crc32')}")
    out = {}
    for name, entry in header["params"].items():
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=start).reshape(shape)
        out[name] = arr.copy()
    return out, header.get("extra", {})
