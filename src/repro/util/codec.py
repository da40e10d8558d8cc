"""Compact binary codecs used for every on-"disk" structure.

All persistent TDB structures (chunk headers, descriptors, leaders, commit
chunks, backup descriptors) are serialized with the :class:`Encoder` /
:class:`Decoder` pair below; pickled objects use the same field encodings
through kernels of their own (``objectstore/pickling.py``).  The format is
deliberately simple and self-delimiting at the field level:

* unsigned integers as LEB128 varints,
* signed integers zig-zag mapped onto varints,
* byte strings and text length-prefixed with a varint,
* floats as fixed 8-byte IEEE-754 big-endian.

Nothing here is self-*describing*; readers must know the schema.  That keeps
the per-chunk overhead small, which matters for the §9.3 space numbers.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Optional, Tuple


#: the 128 one-byte varints
_ONE_BYTE = tuple(bytes((value,)) for value in range(0x80))

#: a varint longer than this is refused by :func:`decode_uvarint`, so
#: :func:`encode_uvarint` refuses to write one (11 bytes carry 77 bits)
MAX_UVARINT_BITS = 77


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
    if value < 0x80:
        if value < 0:
            raise ValueError(f"uvarint cannot encode negative value {value}")
        return _ONE_BYTE[value]
    if value < 0x4000:
        return bytes((value & 0x7F | 0x80, value >> 7))
    if value >> MAX_UVARINT_BITS:
        raise ValueError(f"uvarint cannot encode {value}: over {MAX_UVARINT_BITS} bits")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uvarint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a LEB128 varint; returns ``(value, next_offset)``."""
    size = len(data)
    if offset >= size:
        raise ValueError("truncated uvarint")
    result = data[offset]
    if result < 0x80:
        return result, offset + 1
    pos = offset + 1
    if pos < size and data[pos] < 0x80:
        return result & 0x7F | data[pos] << 7, pos + 1
    result &= 0x7F
    shift = 7
    while True:
        if pos >= size:
            raise ValueError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ValueError("uvarint too long")


def zigzag(value: int) -> int:
    """Map a signed integer onto the unsigned ones (0, -1, 1, -2, … →
    0, 1, 2, 3, …), exactly, at any width."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    return value >> 1 if not value & 1 else -((value + 1) >> 1)


class Encoder:
    """Append-only binary encoder."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def uint(self, value: int) -> "Encoder":
        self._parts.append(
            _ONE_BYTE[value] if 0 <= value < 0x80 else encode_uvarint(value)
        )
        return self

    def uints(self, values: Iterable[int]) -> "Encoder":
        """:meth:`uint` each of ``values`` in one loop: the same bytes,
        and the same ``ValueError`` for a value no varint holds."""
        out = bytearray()
        append = out.append
        for value in values:
            if value < 0x80:
                if value < 0:
                    raise ValueError(f"uvarint cannot encode negative value {value}")
                append(value)
            elif value < 0x4000:
                append(value & 0x7F | 0x80)
                append(value >> 7)
            elif value < 0x200000:
                append(value & 0x7F | 0x80)
                append(value >> 7 & 0x7F | 0x80)
                append(value >> 14)
            else:
                out += encode_uvarint(value)
        self._parts.append(bytes(out))
        return self

    def int(self, value: int) -> "Encoder":
        self._parts.append(encode_uvarint(zigzag(value)))
        return self

    def bool(self, value: bool) -> "Encoder":
        self._parts.append(b"\x01" if value else b"\x00")
        return self

    def float(self, value: float) -> "Encoder":
        self._parts.append(struct.pack(">d", value))
        return self

    def bytes(self, value: bytes) -> "Encoder":
        self._parts.append(encode_uvarint(len(value)))
        self._parts.append(value if isinstance(value, bytes) else bytes(value))
        return self

    def raw(self, value: bytes) -> "Encoder":
        """Append bytes without a length prefix (caller knows the size)."""
        self._parts.append(value if isinstance(value, bytes) else bytes(value))
        return self

    def text(self, value: str) -> "Encoder":
        return self.bytes(value.encode("utf-8"))

    def opt_uint(self, value: Optional[int]) -> "Encoder":
        if value is None:
            return self.bool(False)
        return self.bool(True).uint(value)

    def finish(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(p) for p in self._parts)


class Decoder:
    """Sequential binary decoder matching :class:`Encoder`.

    Accepts any bytes-like ``data`` (``bytes`` or ``memoryview``):
    varint/scalar reads index without copying either way."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._pos = offset

    @property
    def position(self) -> int:
        return self._pos

    def exhausted(self) -> bool:
        return self._pos >= len(self._data)

    def uint(self) -> int:
        data, pos = self._data, self._pos
        if pos < len(data) and data[pos] < 0x80:
            self._pos = pos + 1
            return data[pos]
        value, self._pos = decode_uvarint(data, pos)
        return value

    def uints(self, count: int) -> List[int]:
        """``count`` :meth:`uint` reads in one loop: the same values, and
        the same ``ValueError`` on a truncated or over-long varint."""
        data, pos = self._data, self._pos
        values: List[int] = []
        append = values.append
        try:
            for _ in range(count):
                value = data[pos]
                if value < 0x80:
                    pos += 1
                else:
                    second = data[pos + 1]
                    if second < 0x80:
                        value = value & 0x7F | second << 7
                        pos += 2
                    else:
                        third = data[pos + 2]
                        if third < 0x80:
                            value = value & 0x7F | (second & 0x7F) << 7 | third << 14
                            pos += 3
                        else:
                            value, pos = decode_uvarint(data, pos)
                append(value)
        except IndexError:
            raise ValueError("truncated uvarint") from None
        self._pos = pos
        return values

    def int(self) -> int:
        return unzigzag(self.uint())

    def bool(self) -> bool:
        if self._pos >= len(self._data):
            raise ValueError("truncated bool")
        value = self._data[self._pos]
        self._pos += 1
        if value not in (0, 1):
            raise ValueError(f"invalid bool byte {value!r}")
        return bool(value)

    def float(self) -> float:
        if self._pos + 8 > len(self._data):
            raise ValueError("truncated float")
        (value,) = struct.unpack_from(">d", self._data, self._pos)
        self._pos += 8
        return value

    def bytes(self) -> bytes:
        length = self.uint()
        if self._pos + length > len(self._data):
            raise ValueError("truncated bytes field")
        value = self._data[self._pos : self._pos + length]
        self._pos += length
        return value if isinstance(value, bytes) else bytes(value)

    def raw(self, length: int) -> bytes:
        if self._pos + length > len(self._data):
            raise ValueError("truncated raw field")
        value = self._data[self._pos : self._pos + length]
        self._pos += length
        return value if isinstance(value, bytes) else bytes(value)

    def text(self) -> str:
        return self.bytes().decode("utf-8")

    def opt_uint(self) -> Optional[int]:
        if not self.bool():
            return None
        return self.uint()

    def expect_exhausted(self) -> None:
        if not self.exhausted():
            raise ValueError(
                f"{len(self._data) - self._pos} trailing bytes after decode"
            )
