"""Validation-discipline unit tests (§4.8.2): chain semantics, commit
records, counter windows, and the one interface both disciplines answer —
isolated from the full store."""

import pytest

from repro.chunkstore.log import CommitRecord
from repro.chunkstore.validation import CounterValidation, DirectValidation
from repro.crypto.hashing import Sha1Hash
from repro.crypto.mac import Mac
from repro.errors import TamperDetectedError
from repro.platform.tamper_resistant import (
    TamperResistantCounter,
    TamperResistantStore,
)


def no_flush():
    raise AssertionError("this publish must not need a flush")


class TestDirectValidation:
    def build(self):
        return DirectValidation(TamperResistantStore(), Sha1Hash())

    def test_chain_is_order_sensitive(self):
        a = self.build()
        b = self.build()
        a.note(b"one")
        a.note(b"two")
        b.note(b"two")
        b.note(b"one")
        assert a.chain != b.chain

    def test_chain_is_boundary_sensitive(self):
        """H(chain‖v) chaining distinguishes ["ab"] from ["a","b"]."""
        a = self.build()
        b = self.build()
        a.note(b"ab")
        b.note(b"a")
        b.note(b"b")
        assert a.chain != b.chain
        # ...while the spans of *one* version may arrive separately
        c = self.build()
        c.note(b"a", b"b")
        assert c.chain == a.chain

    def test_reset_restarts(self):
        v = self.build()
        initial = v.chain
        v.note(b"x")
        v.restart_residual()
        assert v.chain == initial

    def test_commit_point_roundtrip(self):
        tr = TamperResistantStore()
        v = DirectValidation(tr, Sha1Hash())
        v.note(b"version")
        assert v.publish(12345, 42, no_flush)
        reopened = DirectValidation(tr, Sha1Hash())
        assert reopened.recovery_origin(superblock_leader=7) == 42
        assert reopened.recorded_tail == 12345
        reopened.restart_residual()
        reopened.note(b"version")
        reopened.finish_recovery(0)  # same chain: validates
        reopened.note(b"one version more than the TR store vouches for")
        with pytest.raises(TamperDetectedError):
            reopened.finish_recovery(0)

    def test_empty_tr_raises(self):
        v = self.build()
        with pytest.raises(TamperDetectedError):
            v.recovery_origin(0)


class TestCounterValidation:
    def build(self, delta_ut=5, delta_tu=0, counter=None):
        counter = counter or TamperResistantCounter()
        mac = Mac(b"test-key", Sha1Hash())
        return (
            CounterValidation(counter, Sha1Hash(), mac, delta_ut, delta_tu),
            counter,
        )

    def test_commit_record_verifies(self):
        v, _ = self.build()
        v.begin_set()
        v.note(b"chunk bytes")
        record = v.build_commit_record()
        assert v.verify_commit_record(record, v.current_set_hash())

    def test_forged_record_rejected(self):
        v, _ = self.build()
        v.begin_set()
        v.note(b"data")
        record = v.build_commit_record()
        forged = CommitRecord(record.count + 1, record.set_hash, record.mac_tag)
        assert not v.verify_commit_record(forged, record.set_hash)

    def test_wrong_set_hash_rejected(self):
        v, _ = self.build()
        v.begin_set()
        v.note(b"data")
        record = v.build_commit_record()
        assert not v.verify_commit_record(record, b"\x00" * 20)

    def test_counts_increment(self):
        v, _ = self.build()
        first = v.closing_record().count
        second = v.closing_record().count
        assert second == first + 1

    def test_tr_lag_policy(self):
        v, counter = self.build(delta_ut=3)
        for _ in range(2):
            v.closing_record()
            v.flushed()
            assert not v.publish(0, 0, no_flush)
        v.closing_record()
        v.flushed()
        assert v.publish(0, 0, no_flush)
        assert counter.read() == 3
        assert not v.publish(0, 0, no_flush)

    def test_delta_tu_caps_target_when_unflushed(self):
        v, counter = self.build(delta_ut=1, delta_tu=1)
        v.closing_record()  # count 1 exists, never flushed
        v.closing_record()  # count 2
        # flushed_count = 0, so the counter may lead it by at most Δtu=1 —
        # even when the flush it asked for never reports back
        assert v.publish(0, 0, flush=lambda: None)
        assert counter.read() == 1

    def test_final_count_window(self):
        v, counter = self.build(delta_ut=5, delta_tu=0)
        counter.advance_to(10)
        with pytest.raises(TamperDetectedError):
            v.finish_recovery(9)  # one commit deleted beyond Δtu=0

    def test_final_count_accepts_lag(self):
        v, counter = self.build(delta_ut=5)
        counter.advance_to(10)
        v.finish_recovery(13)  # log legitimately ahead within Δut
        assert counter.read() == 13  # window closed after recovery

    def test_final_count_rejects_runaway_log(self):
        v, counter = self.build(delta_ut=2)
        counter.advance_to(10)
        with pytest.raises(TamperDetectedError):
            v.finish_recovery(20)

    def test_delta_tu_tolerates_lead(self):
        v, counter = self.build(delta_ut=5, delta_tu=2)
        counter.advance_to(10)
        v.finish_recovery(8)  # counter leads the log by 2 = Δtu: fine
        with pytest.raises(TamperDetectedError):
            v2, counter2 = self.build(delta_ut=5, delta_tu=2)
            counter2.advance_to(10)
            v2.finish_recovery(7)


# -- the one interface ------------------------------------------------------------


class _Discipline:
    """A validator with its tamper-resistant device's write count."""

    def __init__(self, mode, delta_ut=1, delta_tu=0):
        if mode == "direct":
            self.device = TamperResistantStore()
            self.validator = DirectValidation(self.device, Sha1Hash())
        else:
            self.device = TamperResistantCounter()
            self.validator = CounterValidation(
                self.device, Sha1Hash(), Mac(b"k", Sha1Hash()), delta_ut, delta_tu
            )
        self.flushes = 0

    def flush(self):
        self.flushes += 1
        self.validator.flushed()

    def publish(self, force=False):
        """``publish`` as ``LogWriter.make_durable`` drives it; checks the
        answer against the device."""
        before = self.device.write_count
        wrote = self.validator.publish(100, 10, self.flush, force)
        assert wrote == (self.device.write_count > before)
        return wrote


@pytest.mark.parametrize("mode", ["direct", "counter"])
class TestOneInterface:
    """What ``LogWriter`` and recovery rely on, whichever discipline."""

    def test_an_out_of_set_version_is_chained_but_never_set_hashed(self, mode):
        v = _Discipline(mode).validator
        v.begin_set()
        v.note(b"named version")
        if mode == "direct":
            chain = v.chain
            v.note(b"next-segment jump", in_set=False)
            assert v.chain != chain
        else:
            set_hash = v.current_set_hash()
            v.note(b"next-segment jump", in_set=False)
            assert v.current_set_hash() == set_hash
            v.note(b"another named version")
            assert v.current_set_hash() != set_hash

    def test_closing_record_is_none_or_counts_up(self, mode):
        v = _Discipline(mode).validator
        records = []
        for _ in range(3):
            v.begin_set()
            v.note(b"v")
            records.append(v.closing_record())
        if mode == "direct":
            assert records == [None, None, None]
            assert not v.seals_sets
        else:
            assert [record.count for record in records] == [1, 2, 3]
            assert v.seals_sets

    def test_restart_residual_names_the_next_count(self, mode):
        v = _Discipline(mode).validator
        v.closing_record()
        assert v.restart_residual() == (0 if mode == "direct" else 2)

    def test_publish_reports_the_device_write_and_honours_force(self, mode):
        d = _Discipline(mode, delta_ut=3)
        v = d.validator
        v.closing_record()
        d.flush()
        # direct: every commit is a TR write; counter: not before Δut
        assert d.publish() == (mode == "direct")
        v.closing_record()
        d.flush()
        assert d.publish(force=True)
        if mode == "counter":
            assert d.device.read() == 2

    def test_lazy_flush_is_the_disciplines_call(self, mode):
        d = _Discipline(mode, delta_ut=2, delta_tu=1)
        v = d.validator
        assert v.allows_lazy_flush == (mode == "counter")
        if not v.allows_lazy_flush:
            return
        # an unflushed log: the counter may lead the durable count by Δtu
        # at most, so publish flushes before it moves further
        for expected_flushes, expected_counter in [(0, 0), (1, 2), (1, 2), (2, 4)]:
            v.closing_record()
            d.publish()
            assert d.flushes == expected_flushes
            assert d.device.read() == expected_counter
            assert d.device.read() <= v.flushed_count + v.delta_tu

    def test_recovery_origin_believes_the_right_device(self, mode):
        d = _Discipline(mode)
        v = d.validator
        v.closing_record()
        d.flush()
        d.publish(force=True)
        origin = v.recovery_origin(superblock_leader=77)
        if mode == "direct":
            assert (origin, v.recorded_tail) == (10, 100)
        else:
            assert (origin, v.recorded_tail) == (77, None)
