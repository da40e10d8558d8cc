"""Threat-model tests (§1.1, §4.8.2): every attack the paper's design
must detect, exercised against the real implementation through the
untrusted store's attacker API."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.ids import data_id
from repro.errors import TamperDetectedError
from tests.conftest import chunk_reader, make_config, make_platform

MODES = ["counter", "direct"]
#: every read-side case runs through both validated read paths; the store
#: path keeps the plain ``[mode]`` id
MODES_AND_READERS = [
    pytest.param(mode, via, id=mode if via == "store" else f"{mode}-{via}")
    for mode in MODES
    for via in ("store", "view")
]


def prepared(mode, chunks=20, **overrides):
    platform = make_platform()
    store = ChunkStore.format(platform, make_config(validation_mode=mode, **overrides))
    pid = store.allocate_partition()
    store.commit(
        [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
    )
    for i in range(chunks):
        rank = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, rank, f"secret-{i}".encode() * 3)])
    return platform, store, pid


class TestDataTampering:
    @pytest.mark.parametrize("mode,via", MODES_AND_READERS)
    def test_bit_flip_in_current_chunk_detected_on_read(self, mode, via):
        platform, store, pid = prepared(mode)
        descriptor = store._get_descriptor(data_id(pid, 7))
        offset = descriptor.location + descriptor.length // 2
        byte = platform.untrusted.tamper_read(offset, 1)
        platform.untrusted.tamper_write(offset, bytes([byte[0] ^ 0x01]))
        with pytest.raises(TamperDetectedError):
            chunk_reader(store, pid, via)(7)

    @pytest.mark.parametrize("mode,via", MODES_AND_READERS)
    def test_header_tamper_detected(self, mode, via):
        platform, store, pid = prepared(mode)
        descriptor = store._get_descriptor(data_id(pid, 3))
        byte = platform.untrusted.tamper_read(descriptor.location, 1)
        platform.untrusted.tamper_write(
            descriptor.location, bytes([byte[0] ^ 0x80])
        )
        with pytest.raises(TamperDetectedError):
            chunk_reader(store, pid, via)(3)

    @pytest.mark.parametrize("mode,via", MODES_AND_READERS)
    def test_swapping_chunk_versions_detected(self, mode, via):
        """Swap the stored bytes of two chunks: both reads must fail (the
        descriptor hash binds identity, not just content)."""
        platform, store, pid = prepared(mode)
        d1 = store._get_descriptor(data_id(pid, 1))
        d2 = store._get_descriptor(data_id(pid, 2))
        v1 = platform.untrusted.tamper_read(d1.location, d1.length)
        v2 = platform.untrusted.tamper_read(d2.location, d2.length)
        if d1.length == d2.length:
            platform.untrusted.tamper_write(d1.location, v2)
            platform.untrusted.tamper_write(d2.location, v1)
            read = chunk_reader(store, pid, via)
            with pytest.raises(TamperDetectedError):
                read(1)
            with pytest.raises(TamperDetectedError):
                read(2)

    @pytest.mark.parametrize("mode", MODES)
    def test_secrecy_ciphertext_does_not_leak_plaintext(self, mode):
        platform, store, pid = prepared(mode)
        image = platform.untrusted.tamper_image()
        assert b"secret-" not in image


@pytest.mark.parametrize("mode", MODES)
class TestReplayAttacks:
    def test_whole_image_replay_detected(self, mode):
        """§1: save the database, make purchases, replay the old state."""
        platform, store, pid = prepared(mode)
        saved = platform.untrusted.tamper_image()
        for i in range(8):
            store.commit([ops.WriteChunk(pid, 0, f"purchase-{i}".encode())])
        store.close()
        platform.untrusted.tamper_replay(saved)
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(platform)

    def test_replay_within_delta_ut_window_is_tolerated(self, mode):
        """Counter mode with Δut=5: rolling back *fewer* commits than the
        lag window is the documented, accepted risk (§4.8.2.2).  Direct
        mode detects any rollback."""
        if mode == "direct":
            pytest.skip("direct mode has no tolerance window")
        platform = make_platform()
        store = ChunkStore.format(
            platform, make_config(validation_mode="counter", delta_ut=5)
        )
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name="null", hash_name="sha1")]
        )
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"base")])
        store.checkpoint()
        saved = platform.untrusted.tamper_image()
        saved_tr = platform.counter.read()
        # fewer than Δut commits past the last TR flush
        store.commit([ops.WriteChunk(pid, 0, b"withinwindow")])
        if platform.counter.read() == saved_tr:
            platform.untrusted.tamper_replay(saved)
            reopened = ChunkStore.open(platform)  # accepted: inside the window
            assert reopened.read_chunk(pid, 0) == b"base"

    def test_any_rollback_detected_in_direct_mode(self, mode):
        if mode == "counter":
            pytest.skip("covered by window test")
        platform, store, pid = prepared(mode, chunks=2)
        saved = platform.untrusted.tamper_image()
        store.commit([ops.WriteChunk(pid, 0, b"one more")])
        store.close(checkpoint=False)
        platform.untrusted.tamper_replay(saved)
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(platform)


class TestLogAttacks:
    def test_deleting_log_tail_beyond_window_detected(self):
        platform = make_platform()
        store = ChunkStore.format(
            platform, make_config(validation_mode="counter", delta_ut=1)
        )
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        store.checkpoint()
        saved = platform.untrusted.tamper_image()
        for i in range(10):
            store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"x")])
        store.close(checkpoint=False)
        # restore the pre-commit image: equivalent to deleting 10 commit
        # sets from the log tail
        platform.untrusted.tamper_replay(saved)
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(platform)

    def test_suppressing_deallocation_detected(self):
        """Un-deallocating a chunk by reverting the log region holding the
        deallocate record (§4.8.1)."""
        platform = make_platform()
        store = ChunkStore.format(
            platform, make_config(validation_mode="counter", delta_ut=1)
        )
        pid = store.allocate_partition()
        store.commit(
            [
                ops.WritePartition(pid, cipher_name="null", hash_name="sha1"),
                ops.WriteChunk(pid, 0, b"licence"),
            ]
        )
        store.checkpoint()
        before_dealloc = platform.untrusted.tamper_image()
        store.commit([ops.DeallocateChunk(pid, 0)])
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"later")])
        store.close(checkpoint=False)
        platform.untrusted.tamper_replay(before_dealloc)
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(platform)

    def test_superblock_corruption_detected(self):
        platform, store, pid = prepared("counter")
        store.close()
        head = platform.untrusted.tamper_read(8, 1)
        platform.untrusted.tamper_write(8, bytes([head[0] ^ 0xFF]))
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(platform)

    def test_leader_location_redirect_detected(self):
        """§4.9.2: point the stored leader location at another chunk; the
        recovery procedure checks the chunk at that location is the
        leader."""
        platform, store, pid = prepared("counter")
        descriptor = store._get_descriptor(data_id(pid, 0))
        store.close()
        # rewrite the superblock to point at a data chunk
        from repro.chunkstore.store import ChunkStore as CS

        store2 = CS.__new__(CS)  # forge a superblock with a bad leader loc
        # simpler: patch the varint region is fragile; instead corrupt via
        # a fresh superblock written through the real code path
        store._leader_location = descriptor.location
        store._write_superblock()
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(platform)

    def test_residual_log_corruption_detected(self):
        """Corrupt a committed-but-not-checkpointed region (the residual
        log): recovery must not silently accept it beyond the window."""
        platform = make_platform()
        store = ChunkStore.format(
            platform, make_config(validation_mode="direct")
        )
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        location = store.segman.tail_location
        for i in range(5):
            store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"data")])
        store.close(checkpoint=False)
        byte = platform.untrusted.tamper_read(location + 4, 1)
        platform.untrusted.tamper_write(location + 4, bytes([byte[0] ^ 1]))
        with pytest.raises(TamperDetectedError):
            ChunkStore.open(platform)


class TestTamperFuzz:
    @given(offset_fraction=st.floats(0.0, 0.999), bit=st.integers(0, 7))
    @settings(max_examples=25, deadline=None)
    def test_random_bit_flip_never_corrupts_silently(self, offset_fraction, bit):
        """Flip one random bit anywhere in the store image.  Outcome must
        be: (a) detected on open/read, or (b) harmless — data reads back
        exactly as written.  Silent corruption is the only forbidden
        outcome."""
        platform = make_platform(size=512 * 1024)
        store = ChunkStore.format(
            platform, make_config(validation_mode="counter", delta_ut=1)
        )
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
        )
        expected = {}
        for i in range(10):
            rank = store.allocate_chunk(pid)
            expected[rank] = f"value-{i}".encode()
            store.commit([ops.WriteChunk(pid, rank, expected[rank])])
        store.checkpoint()
        store.close(checkpoint=False)

        offset = int(offset_fraction * platform.untrusted.size)
        byte = platform.untrusted.tamper_read(offset, 1)
        platform.untrusted.tamper_write(offset, bytes([byte[0] ^ (1 << bit)]))

        from repro.errors import ChunkStoreError

        try:
            reopened = ChunkStore.open(platform)
        except (TamperDetectedError, ChunkStoreError):
            return  # detected at recovery (or superblock refused): fine
        for rank, value in expected.items():
            try:
                assert reopened.read_chunk(pid, rank) == value
            except TamperDetectedError:
                pass  # detected at read: fine
