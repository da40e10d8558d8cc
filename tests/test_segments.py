"""Segment manager unit tests (§4.9.4): geometry, allocation,
utilization accounting, persistence."""

import pytest

from repro.chunkstore.segments import SegmentManager
from repro.errors import StorageFullError


def manager(superblock=4096, segment=16 * 1024, total=4096 + 8 * 16 * 1024):
    return SegmentManager(superblock, segment, total)


class TestGeometry:
    def test_segment_count(self):
        m = manager()
        assert m.segment_count == 8

    def test_start_and_of_roundtrip(self):
        m = manager()
        for segment in range(m.segment_count):
            start = m.segment_start(segment)
            assert m.segment_of(start) == segment
            assert m.segment_of(start + m.segment_size - 1) == segment

    def test_too_small_store_rejected(self):
        with pytest.raises(ValueError):
            SegmentManager(4096, 16 * 1024, 4096 + 16 * 1024)


class TestAllocation:
    def test_claim_until_full(self):
        m = manager()
        claimed = [m.claim_free_segment() for _ in range(8)]
        assert sorted(claimed) == list(range(8))
        with pytest.raises(StorageFullError):
            m.claim_free_segment()

    def test_release_returns_to_pool(self):
        """A cleaned segment returns to the pool once the next checkpoint
        is durable — not before: that checkpoint's predecessor, which a
        crash would recover from, may still need it — and only if no open
        view was frozen at or before its clean's commit count."""
        m = manager()
        segment = m.claim_free_segment()
        m.jump_to(segment)
        other = m.claim_free_segment()
        m.begin_residual(other)  # move residual off the first segment
        m.release_segment(segment, 5)
        assert segment not in m.free_segments
        assert m.deferred_segments == [(segment, 5)]
        # the checkpoint that releases it already lists it as free
        assert segment in m.to_table().free_segments
        m.release_deferred(5)  # a view frozen at the clean's count holds it
        assert segment not in m.free_segments
        assert segment in m.to_table().free_segments
        m.release_deferred(6)
        assert m.free_segments[-1] == segment and m.deferred_segments == []

    def test_a_reloaded_table_has_nothing_deferred(self):
        m = manager()
        segment = m.claim_free_segment()
        m.jump_to(segment)
        m.begin_residual(m.claim_free_segment())
        m.release_segment(segment, 0)
        reloaded = manager()
        reloaded.load_table(m.to_table())
        assert reloaded.deferred_segments == []
        assert segment in reloaded.free_segments

    def test_release_residual_refused(self):
        m = manager()
        segment = m.claim_free_segment()
        m.begin_residual(segment)
        with pytest.raises(AssertionError):
            m.release_segment(segment, 0)


class TestTail:
    def test_advance_tracks_used(self):
        m = manager()
        segment = m.claim_free_segment()
        m.begin_residual(segment)
        m.advance(100)
        m.advance(50)
        assert m.tail_offset == 150
        assert m.used_bytes[segment] == 150
        assert m.tail_location == m.segment_start(segment) + 150

    def test_overrun_asserts(self):
        m = manager()
        segment = m.claim_free_segment()
        m.begin_residual(segment)
        with pytest.raises(AssertionError):
            m.advance(m.segment_size + 1)

    def test_jump_appends_to_residual_chain(self):
        m = manager()
        first = m.claim_free_segment()
        m.begin_residual(first)
        second = m.claim_free_segment()
        m.jump_to(second)
        assert m.residual_segments == [first, second]
        assert m.tail_offset == 0


class TestUtilization:
    def test_live_accounting(self):
        m = manager()
        segment = m.claim_free_segment()
        m.begin_residual(segment)
        location = m.tail_location
        m.add_live(location, 500)
        assert m.live_bytes[segment] == 500
        m.sub_live(location, 200)
        assert m.live_bytes[segment] == 300
        m.sub_live(location, 10_000)  # clamps at zero (estimate semantics)
        assert m.live_bytes[segment] == 0

    def test_cleanable_ordering(self):
        m = manager()
        a = m.claim_free_segment()
        m.begin_residual(a)
        m.advance(100)
        b = m.claim_free_segment()
        m.jump_to(b)
        m.advance(100)
        c = m.claim_free_segment()
        # residual = [a, b]; make a checkpoint at c so a and b become cleanable
        m.begin_residual(c)
        m.live_bytes[a] = 90
        m.live_bytes[b] = 10
        assert m.emptiest_cleanable_segment() == b  # emptiest first
        m.live_bytes[a] = 10
        assert m.emptiest_cleanable_segment() == min(a, b)  # tie: lowest index
        m.live_bytes[b] = 100  # fully live: nothing to reclaim there
        assert m.emptiest_cleanable_segment() == a
        m.live_bytes[a] = 100
        assert m.emptiest_cleanable_segment() is None  # c is residual, rest free

    def test_stored_and_live_totals(self):
        m = manager()
        a = m.claim_free_segment()
        m.begin_residual(a)
        m.advance(300)
        m.add_live(m.segment_start(a), 120)
        assert m.stored_bytes() == 300
        assert m.live_total() == 120


class TestPersistence:
    def test_table_roundtrip(self):
        m = manager()
        a = m.claim_free_segment()
        m.begin_residual(a)
        m.advance(123)
        m.add_live(m.segment_start(a), 99)
        table = m.to_table()
        m2 = manager()
        m2.load_table(table)
        assert m2.tail_segment == m.tail_segment
        assert m2.tail_offset == 123
        assert m2.used_bytes == m.used_bytes
        assert m2.live_bytes == m.live_bytes
        assert m2.free_segments == m.free_segments
        assert m2.residual_segments == m.residual_segments

    def test_geometry_mismatch_rejected(self):
        m = manager()
        table = m.to_table()
        other = SegmentManager(4096, 16 * 1024, 4096 + 4 * 16 * 1024)
        with pytest.raises(ValueError):
            other.load_table(table)
