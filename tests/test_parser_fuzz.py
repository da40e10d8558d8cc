"""Adversarial parser fuzzing.

Every parser that consumes *untrusted* bytes (log headers, unnamed-chunk
records, leader payloads, backup streams, the superblock, pickles) must
fail with a *typed* error on arbitrary input — never with an unhandled
IndexError/KeyError/MemoryError-style crash, and never by silently
succeeding with dangerous values."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import (
    BackupError,
    BackupIntegrityError,
    ChunkStoreError,
    PicklingError,
    TamperDetectedError,
)
from repro.util.codec import Decoder, Encoder

ACCEPTABLE = (
    TamperDetectedError,
    ChunkStoreError,
    BackupError,
    BackupIntegrityError,
    PicklingError,
    ValueError,
    UnicodeDecodeError,
)


class TestLogParsers:
    @given(blob=st.binary(max_size=100))
    @settings(max_examples=100)
    def test_version_header_parse(self, blob):
        from repro.chunkstore.log import LogCodec
        from repro.crypto.hashing import Sha1Hash
        from repro.crypto.modes import CtrStreamCipher

        codec = LogCodec(CtrStreamCipher(b"k" * 16), Sha1Hash())
        try:
            header = codec.parse_header(blob[: codec.header_cipher_size].ljust(
                codec.header_cipher_size, b"\x00"
            ))
            # if it "parses", the kind is at least a valid enum member
            assert header.kind is not None
        except ACCEPTABLE:
            pass

    @given(blob=st.binary(max_size=200))
    @settings(max_examples=100)
    def test_unnamed_records(self, blob):
        from repro.chunkstore.log import (
            CleanerRecord,
            CommitRecord,
            DeallocateRecord,
            NextSegmentRecord,
        )

        for parser in (
            DeallocateRecord.decode,
            CommitRecord.decode,
            NextSegmentRecord.decode,
            CleanerRecord.decode,
        ):
            try:
                parser(blob)
            except ACCEPTABLE:
                pass

    @given(blob=st.binary(max_size=300))
    @settings(max_examples=100)
    def test_leader_payload(self, blob):
        from repro.chunkstore.leader import LeaderPayload

        try:
            LeaderPayload.decode(blob)
        except ACCEPTABLE:
            pass

    @given(blob=st.binary(max_size=200))
    @settings(max_examples=100)
    def test_descriptor_vector(self, blob):
        from repro.chunkstore.descriptor import MapVector

        try:
            MapVector.decode(blob)
        except ACCEPTABLE:
            pass


def _outcome(read, data):
    """What ``read`` makes of a decoder over ``data``: the value and the
    position, or the type of what it raised."""
    decoder = Decoder(data)
    try:
        return read(decoder), decoder.position
    except Exception as exc:  # the type is the outcome compared
        return type(exc)


class TestBulkVarintFuzz:
    """The bulk varint reads refuse what the per-value reads refuse, with
    the same exception type."""

    @given(blob=st.binary(max_size=40), count=st.integers(0, 12))
    @settings(max_examples=200)
    def test_uints_fail_as_uint_does(self, blob, count):
        bulk = _outcome(lambda dec: dec.uints(count), blob)
        assert bulk == _outcome(lambda dec: [dec.uint() for _ in range(count)], blob)

    @given(blob=st.binary(max_size=120))
    @settings(max_examples=200)
    def test_segment_table_fails_as_the_reference_does(self, blob):
        from repro.bench.store_bench import _reference_table_decode
        from repro.chunkstore.leader import SegmentTable

        assert _outcome(SegmentTable.decode, blob) == _outcome(_reference_table_decode, blob)

    def test_truncated_and_overlong_tables(self):
        from repro.bench.store_bench import (
            _reference_table_decode,
            segment_table_sample,
        )
        from repro.chunkstore.leader import SegmentTable

        table = segment_table_sample(random.Random(3), 40)
        enc = Encoder()
        table.encode(enc)
        wire = enc.finish()
        for cut in range(len(wire)):
            assert _outcome(SegmentTable.decode, wire[:cut]) is ValueError
            assert _outcome(_reference_table_decode, wire[:cut]) is ValueError
        # every value in turn padded past the longest varint a reader takes
        dec, starts = Decoder(wire), []
        while not dec.exhausted():
            starts.append(dec.position)
            dec.uint()
        for start in starts:
            overlong = wire[:start] + b"\xff" * 11 + wire[start:]
            assert _outcome(SegmentTable.decode, overlong) is ValueError
            assert _outcome(_reference_table_decode, overlong) is ValueError


class TestSuperblockFuzz:
    @given(blob=st.binary(min_size=4, max_size=4096))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    def test_superblock_parse(self, blob):
        from repro.chunkstore.store import ChunkStore
        from repro.platform import MemoryUntrustedStore

        store = MemoryUntrustedStore(8192)
        store.tamper_write(0, b"TDB1" + blob[4:])

        class _Probe:
            untrusted = store

        try:
            ChunkStore._read_superblock(_Probe())
        except ACCEPTABLE:
            pass


class TestBackupStreamFuzz:
    @given(blob=st.binary(max_size=400))
    @settings(max_examples=100)
    def test_partition_backup_parse(self, blob):
        from repro.backup.format import read_partition_backup
        from repro.crypto.hashing import Sha1Hash
        from repro.crypto.mac import Mac
        from repro.crypto.modes import CtrStreamCipher
        from repro.crypto.registry import make_cipher, make_hash
        from repro.platform.archival import StreamReader

        reader = StreamReader(blob)
        try:
            read_partition_backup(
                reader,
                CtrStreamCipher(b"s" * 16),
                make_cipher,
                Mac(b"m" * 16, Sha1Hash()),
                make_hash,
            )
        except ACCEPTABLE:
            pass


class TestPickleFuzz:
    @given(blob=st.binary(max_size=300))
    @settings(max_examples=150)
    def test_unpickle_arbitrary_bytes(self, blob):
        from repro.objectstore.pickling import unpickle_value

        try:
            unpickle_value(blob)
        except ACCEPTABLE:
            pass

    @given(blob=st.binary(max_size=100))
    @settings(max_examples=50)
    def test_deep_nesting_bomb_rejected(self, blob):
        """A pickled 'list of list of list ...' bomb must hit the depth
        limit, not exhaust the stack."""
        from repro.objectstore.pickling import unpickle_value
        from repro.util.codec import Encoder

        enc = Encoder()
        for _ in range(500):
            enc.uint(7)  # list tag
            enc.uint(1)  # one element
        enc.uint(0)  # None
        try:
            unpickle_value(enc.finish())
        except ACCEPTABLE:
            pass
