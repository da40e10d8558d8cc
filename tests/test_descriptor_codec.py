"""``MapVector`` — the wire-form map-chunk vector — against its reference.

``MapVector.decode`` splits a body into per-slot encodings with one regex
pass and keeps nothing else: a slot is decoded by a hand-rolled decoder
each time it is indexed, into a descriptor the caller owns.  The
``Encoder`` / ``Decoder`` route through ``ChunkDescriptor.encode`` /
``.decode`` stays the definition of the format, and these properties hold
the two together.
"""

import gc
import os
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.chunkstore.descriptor import (
    ChunkDescriptor,
    ChunkStatus,
    MapVector,
    decode_map_body,
)
from repro.chunkstore.ids import ChunkId
from repro.errors import TamperDetectedError
from repro.util.codec import Decoder, Encoder, encode_uvarint

FAST_HASH_SIZES = [0, 16, 20, 32]  # what the slot pattern covers


def written(hash_sizes):
    return st.builds(
        ChunkDescriptor,
        st.just(ChunkStatus.WRITTEN),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**24),
        st.sampled_from(hash_sizes).flatmap(
            lambda size: st.binary(min_size=size, max_size=size)
        ),
    )


unwritten = st.sampled_from(
    [ChunkDescriptor(ChunkStatus.UNALLOCATED), ChunkDescriptor(ChunkStatus.FREE)]
)
descriptors = st.one_of(unwritten, written(FAST_HASH_SIZES))
vectors = st.lists(descriptors, max_size=64)


def reference_parts(vector):
    """The count prefix, then one ``Encoder`` encoding per descriptor."""
    parts = [encode_uvarint(len(vector))]
    for descriptor in vector:
        enc = Encoder()
        descriptor.encode(enc)
        parts.append(enc.finish())
    return parts


def reference_encode(vector):
    return b"".join(reference_parts(vector))


def reference_decode(body):
    dec = Decoder(body)
    vector = [ChunkDescriptor.decode(dec) for _ in range(dec.uint())]
    dec.expect_exhausted()
    return vector


def assert_both_reject(body):
    with pytest.raises(ValueError):
        reference_decode(body)
    with pytest.raises(ValueError):
        MapVector.decode(body)


def retained_descriptors(vector):
    """Every ``ChunkDescriptor`` reachable from ``vector``."""
    found, seen, frontier = [], set(), [vector]
    while frontier:
        for referent in gc.get_referents(frontier.pop()):
            if isinstance(referent, type) or id(referent) in seen:
                continue
            seen.add(id(referent))
            frontier.append(referent)
            if isinstance(referent, ChunkDescriptor):
                found.append(referent)
    return found


def padded(value, size):
    """``value`` as a non-canonical varint of exactly ``size`` bytes."""
    groups = [(value >> (7 * i)) & 0x7F for i in range(size)]
    return bytes(g | 0x80 for g in groups[:-1]) + bytes(groups[-1:])


class TestVectorCodecMatchesReference:
    @given(vectors)
    def test_bytes_and_values_are_equal(self, vector):
        body = reference_encode(vector)
        assert MapVector.of(vector).encode() == body
        assert MapVector.of(tuple(vector)).encode() == body
        decoded = MapVector.decode(body)
        assert decoded._wire == reference_parts(vector)[1:]  # the fast split
        assert len(decoded) == len(vector)
        assert list(decoded) == vector == reference_decode(body)
        assert all(type(d.body_hash) is bytes for d in decoded)
        assert decoded.encode() == body
        assert list(MapVector.decode(memoryview(body))) == vector

    @given(vectors)
    def test_every_truncation_raises(self, vector):
        body = reference_encode(vector)
        for size in range(len(body)):
            assert_both_reject(body[:size])

    @given(vectors, st.integers(min_value=0, max_value=255))
    def test_every_one_byte_extension_raises(self, vector, extra):
        assert_both_reject(reference_encode(vector) + bytes([extra]))

    @given(
        st.lists(descriptors, min_size=1, max_size=64),
        st.data(),
        st.integers(min_value=3, max_value=127),
    )
    def test_out_of_range_status_raises(self, vector, data, status):
        parts = reference_parts(vector)
        slot = data.draw(st.integers(min_value=1, max_value=len(vector)))
        parts[slot] = bytes([status]) + parts[slot][1:]
        assert_both_reject(b"".join(parts))

    @given(st.lists(st.one_of(descriptors, written([5, 17, 200])), max_size=64))
    def test_hash_sizes_outside_the_pattern_take_the_fallback(self, vector):
        body = reference_encode(vector)
        decoded = MapVector.decode(body)
        assert list(decoded) == vector
        assert decoded.encode() == body

    @given(
        st.lists(written(FAST_HASH_SIZES), min_size=1, max_size=8),
        st.data(),
        st.sampled_from([2, 10, 11]),
    )
    def test_padded_varints_take_the_fallback(self, vector, data, size):
        """Non-canonical location varints, up to the 11 bytes the reference
        accepts (one more than the slot pattern does)."""
        parts = reference_parts(vector)
        slot = data.draw(st.integers(min_value=0, max_value=len(vector) - 1))
        canonical = encode_uvarint(vector[slot].location)
        part = parts[slot + 1]
        assert part[1 : 1 + len(canonical)] == canonical
        parts[slot + 1] = (
            part[:1]
            + padded(vector[slot].location, max(size, len(canonical) + 1))
            + part[1 + len(canonical) :]
        )
        body = b"".join(parts)
        assert list(MapVector.decode(body)) == vector == reference_decode(body)


class TestReplace:
    @given(st.lists(descriptors, min_size=1, max_size=64), st.data())
    def test_replace_then_encode_equals_the_reference(self, vector, data):
        """Random change sets — FREE / UNALLOCATED <-> WRITTEN flips among
        them, since both kinds come from the same strategy."""
        changes = data.draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=len(vector) - 1), descriptors
            )
        )
        base = MapVector.decode(reference_encode(vector))
        replaced = base.replace(changes)
        overlaid = list(vector)
        for slot, descriptor in changes.items():
            overlaid[slot] = descriptor
        assert replaced.encode() == reference_encode(overlaid)
        assert list(replaced) == overlaid
        # only the changed slots were touched (the rest share their bytes),
        # the descriptors handed in were encoded and dropped, and the base
        # is as it was
        assert all(
            replaced._wire[slot] is base._wire[slot]
            for slot in range(len(vector))
            if slot not in changes
        )
        assert all(replaced[slot] is not changes[slot] for slot in changes)
        assert retained_descriptors(replaced) == []
        assert base.encode() == reference_encode(vector)

    def test_replace_does_not_decode_the_rest(self):
        vector = [ChunkDescriptor(ChunkStatus.WRITTEN, i, 9, b"h" * 20) for i in range(64)]
        base = MapVector.decode(reference_encode(vector))
        replaced = base.replace({3: ChunkDescriptor(ChunkStatus.FREE)})
        assert [
            slot for slot in range(64) if replaced._wire[slot] is not base._wire[slot]
        ] == [3]
        assert retained_descriptors(base) == retained_descriptors(replaced) == []


class TestLazySlots:
    def test_indexing_decodes_only_that_slot(self):
        vector = [ChunkDescriptor(ChunkStatus.WRITTEN, i, 9, b"h" * 20) for i in range(64)]
        decoded = MapVector.decode(reference_encode(vector))
        assert decoded[17] == vector[17]
        assert decoded[17] is not decoded[17]  # afresh each time: no memo
        assert retained_descriptors(decoded) == []

    def test_threads_share_one_vector(self):
        """Snapshot views index the store's vectors without a lock: an
        immutable vector gives every racing reader the descriptor that was
        written."""
        vector = [
            ChunkDescriptor(ChunkStatus.WRITTEN, 1000 + i, 50 + i, bytes([i]) * 32)
            for i in range(64)
        ]
        workers = 2 * (os.cpu_count() or 1) + 2
        start = threading.Barrier(workers)
        wrong = []

        def reader(which, shared):
            order = range(64) if which % 2 else range(63, -1, -1)
            start.wait(timeout=10)
            for slot in order:
                if shared[slot] != vector[slot]:
                    wrong.append((which, slot))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                shared = MapVector.decode(reference_encode(vector))
                threads = [
                    threading.Thread(target=reader, args=(which, shared))
                    for which in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert list(shared) == vector
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


class TestWireOnly:
    """The vector is its wire bytes: what it costs resident, and what a
    caller can and cannot do to it."""

    @given(
        st.lists(st.one_of(unwritten, written(FAST_HASH_SIZES)), min_size=1, max_size=64),
        st.data(),
    )
    def test_decode_index_replace_encode_is_the_reference_route(self, vector, data):
        """Every registered hash size and bare-status slots, canonical or
        with one location spelt non-canonically: ``decode → [i] → replace →
        encode`` is byte-equal to decoding and re-encoding with the
        ``Decoder`` / ``Encoder``."""
        parts = reference_parts(vector)
        slot = data.draw(st.integers(min_value=0, max_value=len(vector) - 1))
        if vector[slot].is_written() and data.draw(st.booleans()):
            canonical = encode_uvarint(vector[slot].location)
            part = parts[slot + 1]
            parts[slot + 1] = (
                part[:1]
                + padded(vector[slot].location, len(canonical) + 1)
                + part[1 + len(canonical) :]
            )
        body = b"".join(parts)
        decoded = MapVector.decode(body)
        looked_up = [decoded[i] for i in range(len(decoded))]
        assert looked_up == reference_decode(body) == vector
        rebuilt = decoded.replace(dict(enumerate(looked_up)))
        assert rebuilt.encode() == reference_encode(reference_decode(body))
        # untouched, a slot keeps the bytes it arrived in when the split
        # took them (a padded varint of up to ten bytes still fits the
        # pattern), else the canonical ones the reference route produced
        assert decoded.encode() in (body, rebuilt.encode())

    @given(vectors, st.data())
    def test_a_damaged_body_is_rejected_exactly_when_the_reference_rejects_it(
        self, vector, data
    ):
        """Flip, drop or add bytes anywhere: the split plus the slot decoder
        either raise ``ValueError`` where the reference does (truncation,
        over-long varints, bad status, trailing bytes) or read the very
        same descriptors."""
        body = bytearray(reference_encode(vector))
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            at = data.draw(st.integers(min_value=0, max_value=len(body)))
            damage = data.draw(st.sampled_from(["flip", "drop", "add"]))
            if damage == "add":
                body.insert(at, data.draw(st.integers(min_value=0, max_value=255)))
            elif at < len(body) and damage == "drop":
                del body[at]
            elif at < len(body):
                body[at] ^= data.draw(st.integers(min_value=1, max_value=255))
        body = bytes(body)
        try:
            expected = reference_decode(body)
        except ValueError:
            with pytest.raises(ValueError):
                MapVector.decode(body)
        else:
            assert list(MapVector.decode(body)) == expected

    @pytest.mark.parametrize("hash_size", FAST_HASH_SIZES)
    def test_a_vector_retains_no_descriptor(self, hash_size):
        vector = [
            ChunkDescriptor(ChunkStatus.WRITTEN, 10**6 + i, 1100, bytes([i]) * hash_size)
            for i in range(64)
        ]
        for held in (MapVector.decode(reference_encode(vector)), MapVector.of(vector)):
            assert [held[slot] for slot in range(64)] == vector  # 64 lookups
            replaced = held.replace({5: vector[6], 63: ChunkDescriptor()})
            assert retained_descriptors(held) == retained_descriptors(replaced) == []
            # resident cost: the slot bytes and the list that holds them
            resident = sys.getsizeof(held._wire) + sum(map(sys.getsizeof, held._wire))
            assert resident / 64 <= 100

    def test_mutating_a_returned_descriptor_changes_nothing(self):
        vector = [ChunkDescriptor(ChunkStatus.WRITTEN, i, 9, b"h" * 20) for i in range(4)]
        held = MapVector.of(vector)
        for victim in (held[2], vector[2]):  # one it returned, one it was built from
            victim.location = 999
            victim.status = ChunkStatus.FREE
            victim.body_hash = b""
        assert held[2] == ChunkDescriptor(ChunkStatus.WRITTEN, 2, 9, b"h" * 20)
        assert held.encode() == reference_encode(
            [ChunkDescriptor(ChunkStatus.WRITTEN, i, 9, b"h" * 20) for i in range(4)]
        )


class TestVectorCodecEdges:
    def test_overlong_varint_rejected(self):
        body = b"\x01\x02" + b"\xff" * 11 + b"\x00"
        assert_both_reject(body)

    def test_non_canonical_status_decodes_like_the_reference(self):
        body = b"\x01\x81\x00"  # status 1 (FREE) spelt in two bytes
        assert list(MapVector.decode(body)) == reference_decode(body)

    def test_hash_running_past_the_end_rejected(self):
        body = b"\x01\x02\x05\x05\x20" + b"h" * 31
        assert_both_reject(body)

    def test_wrong_count_rejected(self):
        body = reference_encode([ChunkDescriptor(ChunkStatus.FREE)] * 3)
        assert_both_reject(b"\x02" + body[1:])  # one slot more than declared
        assert_both_reject(b"\x04" + body[1:])  # one fewer


class TestDecodeMapBody:
    def test_wrong_slot_count_is_tampering(self):
        """A body that validated but is not ``fanout`` slots long was not
        written by this store: store, views and recovery all refuse it here."""
        map_id = ChunkId(1, 1, 0)
        body = reference_encode([ChunkDescriptor(ChunkStatus.FREE)] * 3)
        assert len(decode_map_body(map_id, body, 3)) == 3
        for fanout in (2, 4, 64):
            with pytest.raises(TamperDetectedError):
                decode_map_body(map_id, body, fanout)
