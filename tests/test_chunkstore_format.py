"""Wire formats: descriptors, leader payloads, log versions, unnamed
chunk records (§4.3, §4.9, §5.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.chunkstore.descriptor import (
    ChunkDescriptor,
    ChunkStatus,
    MapVector,
)
from repro.chunkstore.ids import ChunkId
from repro.chunkstore.leader import LeaderPayload, SegmentTable, SystemExtras
from repro.chunkstore.log import (
    CleanerRecord,
    CommitRecord,
    DeallocateRecord,
    LogCodec,
    NextSegmentRecord,
    VersionHeader,
    VersionKind,
)
from repro.crypto.hashing import Sha1Hash
from repro.crypto.modes import CtrStreamCipher
from repro.errors import TamperDetectedError


def descriptors_strategy():
    return st.one_of(
        st.just(ChunkDescriptor()),
        st.just(ChunkDescriptor(ChunkStatus.FREE)),
        st.builds(
            ChunkDescriptor,
            st.just(ChunkStatus.WRITTEN),
            st.integers(0, 2**40),
            st.integers(0, 2**20),
            st.binary(min_size=20, max_size=20),
        ),
    )


class TestDescriptors:
    @given(st.lists(descriptors_strategy(), min_size=1, max_size=64))
    def test_vector_roundtrip(self, descriptors):
        data = MapVector.of(descriptors).encode()
        decoded = MapVector.decode(data)
        assert len(decoded) == len(descriptors)
        for a, b in zip(descriptors, decoded):
            assert a.status == b.status
            if a.is_written():
                assert (a.location, a.length, a.body_hash) == (
                    b.location,
                    b.length,
                    b.body_hash,
                )

    def test_same_version_semantics(self):
        a = ChunkDescriptor(ChunkStatus.WRITTEN, 100, 10, b"h" * 20)
        relocated = ChunkDescriptor(ChunkStatus.WRITTEN, 999, 10, b"h" * 20)
        changed = ChunkDescriptor(ChunkStatus.WRITTEN, 100, 10, b"x" * 20)
        assert a.same_version(relocated)  # cleaner moved it: same content
        assert not a.same_version(changed)
        assert not a.same_version(ChunkDescriptor(ChunkStatus.FREE))

    def test_same_version_null_hash_falls_back_to_location(self):
        a = ChunkDescriptor(ChunkStatus.WRITTEN, 100, 10, b"")
        b = ChunkDescriptor(ChunkStatus.WRITTEN, 100, 10, b"")
        c = ChunkDescriptor(ChunkStatus.WRITTEN, 200, 10, b"")
        assert a.same_version(b)
        assert not a.same_version(c)


class TestLeaderPayload:
    def test_roundtrip_full(self):
        payload = LeaderPayload(
            cipher_name="des-cbc",
            hash_name="sha1",
            key=b"k" * 8,
            name="my-partition",
            tree_height=3,
            root=ChunkDescriptor(ChunkStatus.WRITTEN, 4096, 100, b"r" * 20),
            next_rank=1000,
            free_ranks={3, 77, 500},
            copies=[5, 9],
            copy_of=2,
        )
        decoded = LeaderPayload.decode(payload.encode())
        assert decoded.cipher_name == "des-cbc"
        assert decoded.name == "my-partition"
        assert decoded.free_ranks == {3, 77, 500}
        assert decoded.copies == [5, 9]
        assert decoded.copy_of == 2
        assert decoded.root.location == 4096
        assert decoded.system is None

    def test_roundtrip_system(self):
        payload = LeaderPayload(
            cipher_name="3des-cbc",
            hash_name="sha1",
            system=SystemExtras(
                segments=SegmentTable(
                    tail_segment=2,
                    free_segments=[5, 6],
                    used_bytes=[10, 20, 30, 0, 0, 0, 0],
                    live_bytes=[5, 10, 30, 0, 0, 0, 0],
                    residual_segments=[2],
                ),
                checkpoint_count=42,
                restore_history={1: 7},
                backup_bases={1: 9},
            ),
        )
        decoded = LeaderPayload.decode(payload.encode())
        assert decoded.system.checkpoint_count == 42
        assert decoded.system.segments.used_bytes == [10, 20, 30, 0, 0, 0, 0]
        assert decoded.system.restore_history == {1: 7}
        assert decoded.system.backup_bases == {1: 9}

    def test_snapshot_copy_shares_root_but_not_name(self):
        payload = LeaderPayload(
            cipher_name="des-cbc",
            hash_name="sha1",
            key=b"k" * 8,
            name="source",
            tree_height=1,
            root=ChunkDescriptor(ChunkStatus.WRITTEN, 10, 10, b"h" * 20),
            next_rank=5,
            free_ranks={2},
            copies=[4],
        )
        snap = payload.copy_for_snapshot()
        assert snap.root.location == 10
        assert snap.key == payload.key
        assert snap.name == ""  # names are not inherited
        assert snap.copies == []
        assert snap.free_ranks == {2}
        snap.free_ranks.add(99)
        assert 99 not in payload.free_ranks  # deep enough copy


class TestLogCodec:
    def codec(self):
        return LogCodec(CtrStreamCipher(b"k" * 16), Sha1Hash())

    def test_named_version_roundtrip(self):
        codec = self.codec()
        cid = ChunkId(3, 0, 17)
        body_cipher = CtrStreamCipher(b"p" * 16)
        version, digest = codec.build_named(cid, b"hello body", body_cipher, Sha1Hash())
        header = codec.parse_header(version[: codec.header_cipher_size])
        assert header.kind == VersionKind.NAMED
        assert header.chunk_id == cid
        assert header.body_plain_size == 10
        body = codec.decrypt_body(
            header, version[codec.header_cipher_size :], body_cipher
        )
        assert body == b"hello body"
        assert codec.descriptor_hash(header, body, Sha1Hash()) == digest

    def test_version_size_prediction(self):
        codec = self.codec()
        body_cipher = CtrStreamCipher(b"p" * 16)
        version, _ = codec.build_named(
            ChunkId(1, 0, 0), b"x" * 100, body_cipher, Sha1Hash()
        )
        assert len(version) == codec.version_size(100, body_cipher)

    def test_unnamed_version(self):
        codec = self.codec()
        version = codec.build_unnamed(VersionKind.DEALLOCATE, b"payload")
        header = codec.parse_header(version[: codec.header_cipher_size])
        assert header.kind == VersionKind.DEALLOCATE
        assert (
            codec.decrypt_body(header, version[codec.header_cipher_size :], codec.system_cipher)
            == b"payload"
        )

    def test_garbage_header_raises_tamper(self):
        codec = self.codec()
        with pytest.raises(TamperDetectedError):
            codec.parse_header(b"\x00" * codec.header_cipher_size)

    def test_wrong_body_size_raises_tamper(self):
        codec = self.codec()
        body_cipher = CtrStreamCipher(b"p" * 16)
        version, _ = codec.build_named(
            ChunkId(1, 0, 0), b"body", body_cipher, Sha1Hash()
        )
        header = codec.parse_header(version[: codec.header_cipher_size])
        with pytest.raises(TamperDetectedError):
            codec.decrypt_body(header, b"", body_cipher)

    def test_descriptor_hash_binds_identity(self):
        """Same body at a different position hashes differently —
        defeating version-swap attacks."""
        codec = self.codec()
        body_cipher = CtrStreamCipher(b"p" * 16)
        _, digest1 = codec.build_named(
            ChunkId(1, 0, 1), b"same", body_cipher, Sha1Hash()
        )
        _, digest2 = codec.build_named(
            ChunkId(1, 0, 2), b"same", body_cipher, Sha1Hash()
        )
        assert digest1 != digest2


class TestUnnamedRecords:
    def test_deallocate_roundtrip(self):
        record = DeallocateRecord(
            [ChunkId(1, 0, 5), ChunkId(2, 1, 0)], [3, 4]
        )
        decoded = DeallocateRecord.decode(record.encode())
        assert decoded.chunk_ids == record.chunk_ids
        assert decoded.partition_ids == [3, 4]

    def test_commit_record_roundtrip(self):
        record = CommitRecord(99, b"h" * 20, b"m" * 20)
        decoded = CommitRecord.decode(record.encode())
        assert (decoded.count, decoded.set_hash, decoded.mac_tag) == (
            99,
            b"h" * 20,
            b"m" * 20,
        )

    def test_next_segment_fixed_width(self):
        assert len(NextSegmentRecord(0).encode()) == len(
            NextSegmentRecord(2**31).encode()
        )
        assert NextSegmentRecord.decode(NextSegmentRecord(7).encode()).next_segment == 7

    def test_next_segment_malformed(self):
        with pytest.raises(TamperDetectedError):
            NextSegmentRecord.decode(b"xx")

    def test_cleaner_record_roundtrip(self):
        record = CleanerRecord([(0, 5, [1, 2]), (1, 0, [3])])
        decoded = CleanerRecord.decode(record.encode())
        assert decoded.entries == [(0, 5, [1, 2]), (1, 0, [3])]


class TestPaperSizeFidelity:
    def test_map_chunk_size_matches_paper_ballpark(self):
        """§9.2.2: 'each map chunk has 64 descriptors and has a size of
        1.5 KB' — our fanout-64 map chunk must be the same kind of size."""
        from repro.chunkstore.descriptor import (
            ChunkDescriptor,
            ChunkStatus,
            MapVector,
        )

        descriptors = [
            ChunkDescriptor(
                ChunkStatus.WRITTEN,
                location=4096 + i * 600,
                length=560,
                body_hash=bytes(20),
            )
            for i in range(64)
        ]
        body = MapVector.of(descriptors).encode()
        assert 1200 <= len(body) <= 2500, len(body)

    def test_per_chunk_descriptor_overhead(self):
        """§9.3: the descriptor contributes a couple dozen bytes to the
        ~52 B/chunk overhead."""
        from repro.chunkstore.descriptor import ChunkDescriptor, ChunkStatus
        from repro.util.codec import Encoder

        enc = Encoder()
        ChunkDescriptor(
            ChunkStatus.WRITTEN, location=10**7, length=560, body_hash=bytes(20)
        ).encode(enc)
        assert 20 <= len(enc.finish()) <= 40
