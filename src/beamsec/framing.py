"""The framing shared by dataset files and model checkpoints.

A framed file is an ASCII magic, a little-endian u32 header length, a UTF-8
JSON header, then float64 little-endian arrays back to back and nothing
after them.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from . import config


class FormatError(ValueError):
    """A file is not a well-formed artifact of the expected kind; names the file."""


def write_framed(path, magic: bytes, header, arrays) -> None:
    """Write a framed file: magic, then the header dataclass as the JSON of
    config.dump with sorted keys, then each array as little-endian float64."""
    blob = json.dumps(config.dump(header), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<I", len(blob)) + blob)
        for array in arrays:
            fh.write(np.ascontiguousarray(array, dtype="<f8"))


def read_framed(path, magic: bytes, header_cls, shapes):
    """Return (header, arrays) of a framed file: its JSON header loaded as
    the dataclass header_cls by config.load, and the arrays of the shapes
    listed by shapes(header), in file order.

    config.load rejects unknown keys, missing fields and mistyped values, and
    any KeyError, TypeError or ValueError it raises becomes a FormatError
    naming the file, as does a wrong magic, a short file, a non-finite value
    or a byte after the last array. Each length is checked against the
    file's size before it is read, and each array is read straight into a
    new array of its own.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def room(nbytes: int) -> None:
            # checked before reading, so a corrupt length never sizes an allocation
            if fh.tell() + nbytes > size:
                raise FormatError(f"{path}: file is shorter than its framing declares")

        def need(count: int) -> bytes:
            room(count)
            return fh.read(count)

        if need(len(magic)) != magic:
            raise FormatError(f"{path}: not a {magic.decode()} file (bad magic)")
        (hlen,) = struct.unpack("<I", need(4))
        blob = need(hlen)
        try:
            header = config.load(header_cls, json.loads(blob.decode("utf-8")))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad header: {type(exc).__name__}: {exc}") from None
        arrays = []
        for shape in shapes(header):
            if not all(type(d) is int and d >= 0 for d in shape):
                raise FormatError(f"{path}: bad array shape {shape!r}")
            room(8 * math.prod(shape))
            array = np.empty(shape, dtype="<f8")
            fh.readinto(array)
            # min and max are NaN or infinite when any value is, and copy nothing
            if array.size and not (np.isfinite(array.min()) and np.isfinite(array.max())):
                raise FormatError(f"{path}: non-finite value in the payload")
            arrays.append(array)
        if fh.tell() != size:
            raise FormatError(f"{path}: {size - fh.tell()} bytes after the payload")
    return header, arrays
