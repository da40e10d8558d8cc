"""Portable object pickling (§2.2, §7).

"TDB pickles objects using application-provided methods so the stored
representation is compact and portable."  This module implements a small,
self-describing binary codec for a useful universe of values:

* Python primitives: ``None``, ``bool``, ``int``, ``float``, ``str``,
  ``bytes``, ``list``, ``tuple``, ``dict``, ``set``;
* :class:`ObjectRef` — typed references between stored objects, which is
  what lets higher layers (collections, indexes) persist graphs;
* application classes registered with :func:`register_class`, which
  supply ``to_state`` / ``from_state`` conversions to and from the
  primitive universe.

Unlike :mod:`pickle`, nothing here executes code on load, the format is
independent of Python's internals, and unknown tags fail loudly — the
properties a *trusted* store needs from its serializer.  Both directions
cap nesting at 64, ints are exact or refused, sets encode alike in every
process, and every malformed input is a :class:`PicklingError`.

The wire format is stated once, in ``docs/INTERNALS.md`` ("Pickled
objects").  It is written and read by the two hand-rolled kernels at the
bottom of this module, not through :class:`~repro.util.codec.Encoder` /
``Decoder``; the recursive route they replaced is kept as the test and
bench oracle (``repro.bench.store_bench._reference_pickle``).
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Tuple, Type

from repro.errors import PicklingError
from repro.util.codec import decode_uvarint, encode_uvarint

_TAG_NONE = 0
_TAG_FALSE = 1
_TAG_TRUE = 2
_TAG_INT = 3
_TAG_FLOAT = 4
_TAG_STR = 5
_TAG_BYTES = 6
_TAG_LIST = 7
_TAG_TUPLE = 8
_TAG_DICT = 9
_TAG_SET = 10
_TAG_REF = 11

_FIRST_CLASS_TAG = 32


class ObjectRef(NamedTuple):
    """A stable, persistent reference to a stored object.

    One object per chunk (§7), so a reference is exactly a chunk id: the
    2-tuple ``(partition, rank)``.  It is a tuple so that hashing,
    equality and ordering run in C on every lock, cache and buffer probe;
    it therefore compares equal to the plain tuple ``(partition, rank)``.
    """

    partition: int
    rank: int

    def __str__(self) -> str:
        return f"obj:{self.partition}.{self.rank}"


class PicklerRegistry:
    """Maps registered application classes to tags and state converters."""

    def __init__(self) -> None:
        self._by_tag: Dict[int, Tuple[Type, Callable, Callable]] = {}
        self._by_class: Dict[Type, int] = {}

    def register(
        self,
        tag: int,
        cls: Type,
        to_state: Callable[[Any], Any],
        from_state: Callable[[Any], Any],
    ) -> None:
        """Register ``cls`` under ``tag`` (≥ 32).

        ``to_state`` must produce a value in the primitive universe;
        ``from_state`` inverts it.  Both must be deterministic — functional
        indexes (§8) extract keys from unpickled objects, and the paper
        requires deterministic extraction.
        """
        if tag < _FIRST_CLASS_TAG:
            raise PicklingError(f"class tags start at {_FIRST_CLASS_TAG}, got {tag}")
        if tag in self._by_tag and self._by_tag[tag][0] is not cls:
            raise PicklingError(f"tag {tag} already registered")
        self._by_tag[tag] = (cls, to_state, from_state)
        self._by_class[cls] = tag

    def tag_for(self, value: Any) -> int:
        tag = self._by_class.get(type(value))
        if tag is None:
            raise PicklingError(
                f"cannot pickle object of unregistered type {type(value).__name__}"
            )
        return tag

    def entry(self, tag: int) -> Tuple[Type, Callable, Callable]:
        try:
            return self._by_tag[tag]
        except KeyError:
            raise PicklingError(f"unknown pickle tag {tag}") from None


#: default shared registry (applications may create private ones)
DEFAULT_REGISTRY = PicklerRegistry()


def register_class(
    tag: int,
    cls: Type,
    to_state: Callable[[Any], Any],
    from_state: Callable[[Any], Any],
    registry: PicklerRegistry = DEFAULT_REGISTRY,
) -> None:
    """Register an application class on the default registry."""
    registry.register(tag, cls, to_state, from_state)


def pickle_value(value: Any, registry: PicklerRegistry = DEFAULT_REGISTRY) -> bytes:
    """Serialize ``value`` to the portable binary format (see module doc)."""
    out = bytearray()
    _encode_items(out, (value,), registry, 0)
    return bytes(out)


def unpickle_value(data: bytes, registry: PicklerRegistry = DEFAULT_REGISTRY) -> Any:
    """Inverse of :func:`pickle_value`; raises :class:`PicklingError` on
    malformed or unknown-tag input (never executes code)."""
    if type(data) is not bytes:
        data = bytes(data)  # any bytes-like input; the kernel slices ``bytes``
    try:
        values, pos = _decode_items(data, 0, 1, registry, 0)
    except (ValueError, IndexError) as exc:
        # IndexError: the input ended where a tag or a length was due
        raise PicklingError(f"corrupt pickle: {exc}") from exc
    if pos != len(data):
        raise PicklingError(f"corrupt pickle: {len(data) - pos} trailing bytes")
    return values[0]


_MAX_DEPTH = 64
_FLOAT = struct.Struct(">d")

# -- the encode kernel -------------------------------------------------------
#
# One pass into one buffer: a container encodes its leaves inside its own
# loop (no call per leaf) and recurses only for a nested container; tags
# and the one- and two-byte varints — nearly every length, int and rank a
# database holds — are written as bytes of the buffer, nothing allocated.
# Anything longer goes through ``encode_uvarint``, which refuses (as
# ValueError) a negative value or one no reader would accept.


def _too_deep() -> PicklingError:
    return PicklingError("object graph too deep (cycle?)")


def _long_uvarint(number: int, value: Any) -> bytes:
    """The varint of an int or reference field outside the in-line cases,
    or the refusal to pickle the ``value`` it belongs to."""
    try:
        return encode_uvarint(number)
    except ValueError as exc:
        raise PicklingError(f"cannot pickle {value!r}: {exc}") from None


def _encode_items(
    out: bytearray, items: Iterable[Any], registry: PicklerRegistry, depth: int
) -> None:
    """Append the encoding of each of ``items``, which sit at ``depth``."""
    put = out.append
    for value in items:
        kind = type(value)
        if kind is str:
            raw = value.encode()
            put(_TAG_STR)
            if len(raw) < 0x80:
                put(len(raw))
            else:
                out += encode_uvarint(len(raw))
            out += raw
        elif kind is int:
            folded = value << 1 if value >= 0 else (-value << 1) - 1  # zig-zag
            put(_TAG_INT)
            if folded < 0x80:
                put(folded)
            elif folded < 0x4000:
                put(folded & 0x7F | 0x80)
                put(folded >> 7)
            else:
                out += _long_uvarint(folded, value)
        elif kind is ObjectRef:
            put(_TAG_REF)
            partition, rank = value.partition, value.rank
            if 0 <= partition < 0x80:
                put(partition)
            else:
                out += _long_uvarint(partition, value)
            if 0 <= rank < 0x80:
                put(rank)
            elif 0x80 <= rank < 0x4000:
                put(rank & 0x7F | 0x80)
                put(rank >> 7)
            else:
                out += _long_uvarint(rank, value)
        elif kind is list or kind is tuple:
            put(_TAG_LIST if kind is list else _TAG_TUPLE)
            if len(value) < 0x80:
                put(len(value))
            else:
                out += encode_uvarint(len(value))
            if value:
                if depth >= _MAX_DEPTH:
                    raise _too_deep()
                _encode_items(out, value, registry, depth + 1)
        elif kind is bytes:
            put(_TAG_BYTES)
            if len(value) < 0x80:
                put(len(value))
            else:
                out += encode_uvarint(len(value))
            out += value
        elif kind is dict:
            put(_TAG_DICT)
            if len(value) < 0x80:
                put(len(value))
            else:
                out += encode_uvarint(len(value))
            if value:
                if depth >= _MAX_DEPTH:
                    raise _too_deep()
                _encode_items(out, chain.from_iterable(value.items()), registry, depth + 1)
        elif kind is bool:
            put(_TAG_TRUE if value else _TAG_FALSE)
        elif value is None:
            put(_TAG_NONE)
        elif kind is float:
            put(_TAG_FLOAT)
            out += _FLOAT.pack(value)
        elif kind is set:
            put(_TAG_SET)
            out += encode_uvarint(len(value))
            if value:
                if depth >= _MAX_DEPTH:
                    raise _too_deep()
                try:
                    members = sorted(value)
                except TypeError:
                    # members that do not sort go in the order of their
                    # encodings: never in hash-iteration order, which
                    # changes from one process to the next
                    encodings = []
                    for member in value:
                        encodings.append(bytearray())
                        _encode_items(encodings[-1], (member,), registry, depth + 1)
                    for encoding in sorted(encodings):
                        out += encoding
                else:
                    _encode_items(out, members, registry, depth + 1)
        else:
            tag = registry.tag_for(value)
            _cls, to_state, _from_state = registry.entry(tag)
            out += encode_uvarint(tag)
            if depth >= _MAX_DEPTH:
                raise _too_deep()
            _encode_items(out, (to_state(value),), registry, depth + 1)


# -- the decode kernel -------------------------------------------------------
#
# By offset over the ``bytes``; tags and one- and two-byte varints are read
# in line.  Running off the end raises IndexError and a bad field
# ValueError: ``unpickle_value`` turns both into PicklingError.


def _decode_items(
    data: bytes, pos: int, count: int, registry: PicklerRegistry, depth: int
) -> Tuple[List[Any], int]:
    """Decode ``count`` consecutive values at ``depth`` starting at
    ``pos``; returns them and the offset after the last."""
    size = len(data)
    if count > size - pos:  # a value is at least one byte
        raise ValueError("truncated pickle")
    if count and depth > _MAX_DEPTH:
        raise PicklingError("pickled data too deeply nested")
    values: List[Any] = []
    append = values.append
    for _ in range(count):
        tag = data[pos]
        pos += 1
        if tag > _TAG_REF:
            if tag > 0x7F:
                tag, pos = decode_uvarint(data, pos - 1)
            if tag > _TAG_REF:
                cls, _to_state, from_state = registry.entry(tag)
                (state,), pos = _decode_items(data, pos, 1, registry, depth + 1)
                try:
                    value = from_state(state)
                except PicklingError:
                    raise
                except Exception as exc:
                    raise PicklingError(
                        f"from_state for tag {tag} refused its state: {exc!r}"
                    ) from exc
                if not isinstance(value, cls):
                    raise PicklingError(
                        f"from_state for tag {tag} returned {type(value).__name__}, "
                        f"expected {cls.__name__}"
                    )
                append(value)
                continue
        if tag == _TAG_STR or tag == _TAG_BYTES:
            length = data[pos]
            pos += 1
            if length > 0x7F:
                length, pos = decode_uvarint(data, pos - 1)
            end = pos + length
            if end > size:
                raise ValueError("truncated bytes field")
            append(data[pos:end].decode() if tag == _TAG_STR else data[pos:end])
            pos = end
        elif tag == _TAG_INT:
            folded = data[pos]
            pos += 1
            if folded > 0x7F:
                if data[pos] < 0x80:
                    folded = folded & 0x7F | data[pos] << 7
                    pos += 1
                else:
                    folded, pos = decode_uvarint(data, pos - 1)
            append(-((folded + 1) >> 1) if folded & 1 else folded >> 1)
        elif tag == _TAG_REF:
            partition = data[pos]
            pos += 1
            if partition > 0x7F:
                partition, pos = decode_uvarint(data, pos - 1)
            rank = data[pos]
            pos += 1
            if rank > 0x7F:
                if data[pos] < 0x80:
                    rank = rank & 0x7F | data[pos] << 7
                    pos += 1
                else:
                    rank, pos = decode_uvarint(data, pos - 1)
            append(ObjectRef(partition, rank))
        elif tag >= _TAG_LIST:  # the four containers
            length = data[pos]
            pos += 1
            if length > 0x7F:
                length, pos = decode_uvarint(data, pos - 1)
            if tag == _TAG_DICT:
                length *= 2
            members, pos = _decode_items(data, pos, length, registry, depth + 1)
            if tag == _TAG_LIST:
                append(members)
            elif tag == _TAG_TUPLE:
                append(tuple(members))
            else:
                try:
                    if tag == _TAG_SET:
                        append(set(members))
                    else:
                        flat = iter(members)
                        append(dict(zip(flat, flat)))
                except TypeError as exc:  # a list, dict or set as key or member
                    raise PicklingError(f"corrupt pickle: {exc}") from exc
        elif tag == _TAG_NONE:
            append(None)
        elif tag == _TAG_FLOAT:
            if pos + 8 > size:
                raise ValueError("truncated float")
            append(_FLOAT.unpack_from(data, pos)[0])
            pos += 8
        else:
            append(tag == _TAG_TRUE)
    return values, pos
