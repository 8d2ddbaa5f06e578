"""Versioned binary container for noise draws and spectra.

Layout: the 6-byte magic "MVSAO1", a uint32 record count, then per record a
uint32 length-prefixed JSON header followed by the raw little-endian float64
payload whose shape the header declares.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"MVSAO1"


class ArchiveError(ValueError):
    """A file that is not a complete, well-formed MVSAO1 archive."""


def write_records(path, records: list[tuple[dict, np.ndarray]]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(records)))
        for header, payload in records:
            payload = np.ascontiguousarray(payload, dtype="<f8")
            header = dict(header, shape=list(payload.shape))
            blob = json.dumps(header, sort_keys=True).encode()
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(payload.tobytes())


def read_records(path) -> list[tuple[dict, np.ndarray]]:
    with open(path, "rb") as fh:
        def read(n: int) -> bytes:
            blob = fh.read(n)
            if len(blob) != n:
                raise ArchiveError(f"{path}: truncated archive, wanted {n} bytes "
                                   f"at offset {fh.tell() - len(blob)}, got {len(blob)}")
            return blob

        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ArchiveError(f"{path}: not a MVSAO1 archive: bad magic {magic!r}")
        (count,) = struct.unpack("<I", read(4))
        out = []
        for _ in range(count):
            (hlen,) = struct.unpack("<I", read(4))
            blob = read(hlen)
            try:
                header = json.loads(blob)
                shape = tuple(header.pop("shape"))
                n = int(np.prod(shape)) if shape else 1
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
                raise ArchiveError(f"{path}: bad record header {blob[:80]!r}") from exc
            payload = np.frombuffer(read(8 * n), dtype="<f8").reshape(shape)
            out.append((header, payload.copy()))
        return out
