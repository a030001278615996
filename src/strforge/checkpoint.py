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
    entries = {}
    offset = crc = 0
    arrays = [np.ascontiguousarray(data, dtype="<f4") for data in params.values()]
    for name, arr in zip(params, arrays):
        entries[name] = {"shape": list(arr.shape), "offset": offset}
        offset += arr.nbytes
        crc = zlib.crc32(arr, crc)  # the buffer of a contiguous array: its bytes, no copy
    header = {"params": entries, "crc32": crc}
    if extra:
        header["extra"] = extra
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(len(hbytes)).astype("<u4").tobytes())
        fh.write(hbytes)
        for arr in arrays:
            fh.write(arr)


def load_params(path):
    """Read a container; returns (dict of float32 arrays, extra header dict).

    Raises ValueError naming the fault for a truncated or malformed container,
    a header field of the wrong JSON type among them."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"not a parameter container: bad magic {magic!r}")
        hlen = fh.read(4)
        hbytes = fh.read(int.from_bytes(hlen, "little"))
        if len(hlen) < 4 or len(hbytes) < int.from_bytes(hlen, "little"):
            raise ValueError("truncated container: it ends inside its header")
        header = json.loads(hbytes.decode("utf-8"))
        payload = fh.read()
    params = header.get("params") if isinstance(header, dict) else None
    if not isinstance(params, dict):
        raise ValueError("container header is not a JSON object with a 'params' object")
    for name, entry in params.items():
        if not (isinstance(entry, dict) and type(entry.get("offset")) is int  # not bool
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise ValueError(f"params entry {name!r} is not an object with an integer "
                             f"'offset' and a 'shape' list of sizes: {entry!r}")
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise ValueError(f"container header's 'extra' is not an object: {extra!r}")
    expected = 4 * sum(int(np.prod(e["shape"])) for e in params.values())
    if len(payload) != expected:
        raise ValueError(f"payload is {len(payload)} bytes; the header's arrays "
                         f"take {expected}")
    crc = zlib.crc32(payload)
    if crc != header.get("crc32"):
        raise ValueError(f"payload CRC-32 {crc} differs from the header's {header.get('crc32')}")
    out = {}
    for name, entry in params.items():
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=start).reshape(shape)
        out[name] = arr.copy()
    return out, extra
