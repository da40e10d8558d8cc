"""The single-pass map-chunk vector codec against its reference.

``encode_descriptor_vector`` / ``decode_descriptor_vector`` hand-roll the
varints the map walk spends its time in; the ``Encoder`` / ``Decoder``
route through ``ChunkDescriptor.encode`` / ``.decode`` stays the
definition of the format, and these properties hold the two together.
"""

import pytest
from hypothesis import given, strategies as st

from repro.chunkstore.descriptor import (
    ChunkDescriptor,
    ChunkStatus,
    decode_descriptor_vector,
    encode_descriptor_vector,
)
from repro.util.codec import Decoder, Encoder, encode_uvarint

descriptors = st.one_of(
    st.just(ChunkDescriptor(ChunkStatus.UNALLOCATED)),
    st.just(ChunkDescriptor(ChunkStatus.FREE)),
    st.builds(
        ChunkDescriptor,
        st.just(ChunkStatus.WRITTEN),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**24),
        st.sampled_from([0, 16, 20, 32]).flatmap(
            lambda size: st.binary(min_size=size, max_size=size)
        ),
    ),
)
vectors = st.lists(descriptors, max_size=64)


def reference_parts(vector):
    """The count prefix, then one ``Encoder`` encoding per descriptor."""
    parts = [encode_uvarint(len(vector))]
    for descriptor in vector:
        enc = Encoder()
        descriptor.encode(enc)
        parts.append(enc.finish())
    return parts


def reference_decode(body):
    dec = Decoder(body)
    vector = [ChunkDescriptor.decode(dec) for _ in range(dec.uint())]
    dec.expect_exhausted()
    return vector


def assert_both_reject(body):
    with pytest.raises(ValueError):
        reference_decode(body)
    with pytest.raises(ValueError):
        decode_descriptor_vector(body)


class TestVectorCodecMatchesReference:
    @given(vectors)
    def test_bytes_and_values_are_equal(self, vector):
        body = b"".join(reference_parts(vector))
        assert encode_descriptor_vector(vector) == body
        assert encode_descriptor_vector(tuple(vector)) == body
        decoded = decode_descriptor_vector(body)
        assert isinstance(decoded, tuple)
        assert list(decoded) == vector == reference_decode(body)
        assert all(type(d.body_hash) is bytes for d in decoded)
        assert decode_descriptor_vector(memoryview(body)) == decoded

    @given(vectors)
    def test_every_truncation_raises(self, vector):
        body = encode_descriptor_vector(vector)
        for size in range(len(body)):
            assert_both_reject(body[:size])

    @given(vectors, st.integers(min_value=0, max_value=255))
    def test_every_one_byte_extension_raises(self, vector, extra):
        assert_both_reject(encode_descriptor_vector(vector) + bytes([extra]))

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


class TestVectorCodecEdges:
    def test_overlong_varint_rejected(self):
        body = b"\x01\x02" + b"\xff" * 11 + b"\x00"
        assert_both_reject(body)

    def test_non_canonical_status_decodes_like_the_reference(self):
        body = b"\x01\x81\x00"  # status 1 (FREE) spelt in two bytes
        assert list(decode_descriptor_vector(body)) == reference_decode(body)

    def test_hash_running_past_the_end_rejected(self):
        body = b"\x01\x02\x05\x05\x20" + b"h" * 31
        assert_both_reject(body)
