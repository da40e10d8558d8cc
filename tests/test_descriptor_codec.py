"""``MapVector`` — the wire-form map-chunk vector — against its reference.

``MapVector.decode`` splits a body into per-slot encodings with one regex
pass and decodes a slot only when it is indexed; the ``Encoder`` /
``Decoder`` route through ``ChunkDescriptor.encode`` / ``.decode`` stays
the definition of the format, and these properties hold the two together.
"""

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


def decoded_slots(vector):
    return [slot for slot, d in enumerate(vector._slots) if d is not None]


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
        assert decoded_slots(decoded) == []  # the fast split, nothing decoded
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
        # only the changed slots were touched, and the base is as it was
        assert all(replaced[slot] is changes[slot] for slot in changes)
        assert base.encode() == reference_encode(vector)

    def test_replace_does_not_decode_the_rest(self):
        vector = [ChunkDescriptor(ChunkStatus.WRITTEN, i, 9, b"h" * 20) for i in range(64)]
        base = MapVector.decode(reference_encode(vector))
        replaced = base.replace({3: ChunkDescriptor(ChunkStatus.FREE)})
        assert decoded_slots(base) == []
        assert decoded_slots(replaced) == [3]


class TestLazySlots:
    def test_indexing_decodes_only_that_slot(self):
        vector = [ChunkDescriptor(ChunkStatus.WRITTEN, i, 9, b"h" * 20) for i in range(64)]
        decoded = MapVector.decode(reference_encode(vector))
        assert decoded[17] == vector[17]
        assert decoded_slots(decoded) == [17]
        assert decoded[17] is decoded[17]  # memoised

    def test_threads_share_one_vector(self):
        """Snapshot views index the store's vectors without a lock: racing
        memoisations of a slot must all read the descriptor that was written."""
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
