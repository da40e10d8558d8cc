"""What the rest of the system may do, and see, while a commit's device
flush is in flight — pinned deterministically (``tests/parking.py``: the
flush parks on an event; no sleeps, no timing), in both validation modes.

One rule: a commit set — an application commit of any operations, or the
cleaner's re-commit — is appended, made durable with ``ChunkStore._lock``
offered for the device flush, and only then installed.  The writers' lock
is held throughout.  So, while parked:

* calls that take ``_lock`` alone are served, and see the last durable
  state: none of the in-flight set — no new chunk, no new, reset or copied
  partition, no moved version;
* ``open_snapshot_view`` takes ``_lock`` alone: it opens at once, on the
  last durable state, and its view references no byte a crash in the
  window could take back;
* whoever takes the writers' lock waits — a second commit, a checkpoint,
  ``close``;
* a transactional read of an object the in-flight transaction wrote waits
  on that object's 2PL lock, not on the store;
* a flush that fails re-takes ``_lock`` first, and ``_failed`` is set
  before the failed commit returns to anyone;
* a set closed inside another writer — the cleaner's re-commits in
  ``clean`` or in a commit's ``make_room``, scrub's repair commit — holds
  ``_lock`` twice, so the offer leaves it held; a checkpoint's flushes
  never offer it.
"""

from __future__ import annotations

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.ids import data_id
from repro.errors import (
    ChunkStoreError,
    CrashError,
    IOFaultError,
    PartitionNotFoundError,
    TransientIOError,
)
from repro.objectstore import ObjectStore
from repro.objectstore.store import TxStatus
from repro.server import TDBServer
from tests.conftest import make_config
from tests.parking import (
    Gate,
    QueueSpy,
    Worker,
    join_all,
    parking_platform,
    spy_on_locks,
)

RANKS = 6


@pytest.fixture(params=["counter", "direct"])
def mode(request):
    return request.param


def make_store(mode, **overrides):
    """A store over a parking device with ``RANKS`` chunks ``b"old<rank>"``
    in one partition, checkpointed; both locks spied on."""
    platform = parking_platform()
    store = ChunkStore.format(platform, make_config(validation_mode=mode, **overrides))
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")])
    store.commit(
        [
            ops.WriteChunk(pid, store.allocate_chunk(pid), b"old%d" % rank)
            for rank in range(RANKS)
        ]
    )
    store.checkpoint()
    spy_on_locks(store)
    return platform, store, pid


def make_objects(mode):
    """The same over the object store: ``RANKS`` counters, all zero."""
    platform = parking_platform()
    store = ChunkStore.format(platform, make_config(validation_mode=mode))
    objects = ObjectStore(store)
    pid = objects.create_partition(cipher_name="ctr-sha256", hash_name="sha1")
    with objects.transaction() as tx:
        refs = [tx.create(pid, 0) for _ in range(RANKS)]
    spy_on_locks(store)
    return platform, store, objects, pid, refs


def parked_commit(platform, store, operations):
    """Start ``store.commit(operations)`` on a thread and return once its
    flush is parked: ``(gate, worker)``."""
    gate = platform.untrusted.park_next_flush()
    worker = Worker(lambda: store.commit(operations))
    gate.wait_arrived()
    return gate, worker


# ---------------------------------------------------------------------------
# (i) calls that take ``_lock`` alone are served inside the window
# ---------------------------------------------------------------------------


def test_raw_reads_are_served_while_a_commit_flushes(mode):
    platform, store, pid = make_store(mode)
    commits = store.commit_count_stat
    gate, committer = parked_commit(platform, store, [ops.WriteChunk(pid, 0, b"new0")])
    assert not store._lock.held_by_someone_else()
    assert store._writers.held_by_someone_else()
    # another chunk, cold (through the device) and batched
    store.payloads.clear()
    assert store.read_chunk(pid, 1) == b"old1"
    assert store.read_chunks(pid, [2, 3]) == {2: b"old2", 3: b"old3"}
    # the in-flight chunk itself: appended, not yet durable — so not
    # installed, and the read returns the durable bytes
    assert store.read_chunk(pid, 0) == b"old0"
    # allocation, status and tallies answer too
    assert store.chunk_status(pid, store.allocate_chunk(pid)) == "unwritten"
    assert store.stats()["commits"] == commits
    assert not committer.finished and store.commit_count_stat == commits
    gate.open()
    committer.done()
    assert store.commit_count_stat == commits + 1
    assert store.read_chunk(pid, 0) == b"new0"
    assert store._lock.contended == 0  # nobody ever waited for ``_lock``


def test_a_live_transaction_reads_an_unlocked_object_while_a_commit_flushes(mode):
    platform, store, objects, pid, refs = make_objects(mode)
    writer = objects.transaction()
    writer.update(refs[0], writer.get_for_update(refs[0]) + 1)
    gate = platform.untrusted.park_next_flush()
    committer = Worker(writer.commit)
    gate.wait_arrived()
    objects.cache.clear()  # through the chunk store, not the object cache
    with objects.transaction() as reader:
        assert reader.get(refs[1]) == 0
        assert reader.get_many(refs[2:4]) == [0, 0]
    # outside any transaction there is no isolation: either state may show
    assert objects.read_committed(refs[0]) in (0, 1)
    assert not committer.finished
    gate.open()
    committer.done()
    assert objects.read_committed(refs[1]) == 0


# ---------------------------------------------------------------------------
# (ii) a snapshot opens at once, on the last durable state
# ---------------------------------------------------------------------------

OLD = {rank: b"old%d" % rank for rank in range(RANKS)}


@pytest.mark.parametrize("operation", ["write", "dealloc"])
def test_a_snapshot_view_opens_at_once_on_the_durable_state(mode, operation):
    platform, store, pid = make_store(mode)
    commits = store.commit_count_stat
    op = (
        ops.WriteChunk(pid, 0, b"new0")
        if operation == "write"
        else ops.DeallocateChunk(pid, 0)
    )
    gate, committer = parked_commit(platform, store, [op])
    view = Worker(lambda: store.open_snapshot_view(pid)).done()
    assert not committer.finished and store._writers.held_by_someone_else()
    assert view.frozen_at == commits  # the in-flight commit is not counted
    assert view.chunk_count() == RANKS and view.read_chunks(range(RANKS)) == OLD
    gate.open()
    committer.done()
    assert store.commit_count_stat == commits + 1
    assert view.chunk_count() == RANKS and view.read_chunks(range(RANKS)) == OLD
    view.close()
    with store.open_snapshot_view(pid) as after:
        assert after.frozen_at == commits + 1
        if operation == "write":
            assert after.read_chunk(0) == b"new0"
        else:
            assert not after.chunk_exists(0)
    # the opener never queued for either lock
    assert store._lock.contended == store._writers.contended == 0


def test_a_commit_that_creates_a_partition_offers_the_lock_too(mode):
    platform, store, pid = make_store(mode)
    commits = store.commit_count_stat
    created = store.allocate_partition()
    gate, committer = parked_commit(
        platform,
        store,
        [
            ops.WritePartition(
                created, cipher_name="ctr-sha256", hash_name="sha1", name="created"
            ),
            ops.WriteChunk(created, 0, b"fresh"),
            ops.WriteChunk(pid, 0, b"new0"),
        ],
    )
    assert not store._lock.held_by_someone_else()
    # the new partition is not there yet …
    seen = Worker(
        lambda: (store.partition_exists(created), store.find_partition("created"))
    ).done()
    assert seen == (False, None)
    with pytest.raises(PartitionNotFoundError):
        Worker(lambda: store.open_snapshot_view(created)).done()
    # … and a view of another partition opens at once, on the durable state
    view = Worker(lambda: store.open_snapshot_view(pid)).done()
    assert view.frozen_at == commits and view.read_chunks(range(RANKS)) == OLD
    assert not committer.finished
    gate.open()
    committer.done()
    assert store.find_partition("created") == created
    assert store.read_chunk(created, 0) == b"fresh"
    assert store.read_chunk(pid, 0) == b"new0" and view.read_chunk(0) == b"old0"
    view.close()
    assert store._lock.contended == store._writers.contended == 0


def test_a_copy_is_listed_in_its_source_once_durable(mode):
    platform, store, pid = make_store(mode)
    copy = store.allocate_partition()
    gate, committer = parked_commit(platform, store, [ops.CopyPartition(copy, pid)])

    def in_window():
        return (
            store.partition_info(pid)["copies"],
            store.partition_exists(copy),
            store.allocate_chunk(pid),
        )

    copies, exists, allocated = Worker(in_window).done()
    assert copies == [] and not exists
    assert not committer.finished
    gate.open()
    committer.done()
    assert store.partition_info(pid)["copies"] == [copy]
    # the source kept the rank allocated in the window
    assert store.chunk_status(pid, allocated) == "unwritten"
    assert store.read_chunks(copy, range(RANKS)) == OLD
    store.close()
    platform.reboot()
    reopened = ChunkStore.open(platform)
    assert reopened.partition_info(pid)["copies"] == [copy]
    assert reopened.partition_info(copy)["copy_of"] == pid
    assert reopened.read_chunks(copy, range(RANKS)) == OLD


def test_a_reset_partitions_old_chunks_read_until_it_is_durable(mode):
    platform, store, pid = make_store(mode)
    gate, committer = parked_commit(
        platform,
        store,
        [
            ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1"),
            ops.WriteChunk(pid, 0, b"reborn"),
        ],
    )
    store.payloads.clear()  # through the device, not the payload cache
    assert Worker(lambda: store.read_chunks(pid, range(RANKS))).done() == OLD
    assert not committer.finished
    gate.open()
    committer.done()
    assert store.data_ranks(pid) == [0] and store.read_chunk(pid, 0) == b"reborn"


def test_a_crash_in_a_partition_commits_window_leaves_none_of_it(mode):
    platform, store, pid = make_store(mode)
    created = store.allocate_partition()
    gate, committer = parked_commit(
        platform,
        store,
        [
            ops.WritePartition(
                created, cipher_name="ctr-sha256", hash_name="sha1", name="created"
            ),
            ops.WriteChunk(created, 0, b"fresh"),
            ops.WriteChunk(pid, 0, b"new0"),
        ],
    )
    platform.untrusted.simulate_crash()  # the commit's appends are gone
    _fail(platform, gate, "io")
    with pytest.raises(IOFaultError):
        committer.done()
    assert store._failed
    store.close()
    platform.untrusted.flush_error = None
    platform.reboot()
    reopened = ChunkStore.open(platform)
    assert reopened.partition_ids() == [pid]
    assert reopened.find_partition("created") is None
    with pytest.raises(PartitionNotFoundError):
        reopened.read_chunk(created, 0)
    assert reopened.read_chunks(pid, range(RANKS)) == OLD


def test_a_view_opened_in_the_window_outlives_a_crash_of_the_commit(mode):
    """The device loses the in-flight commit's appends while a view opened
    in the window is held: every chunk still reads through it, so it
    referenced no byte that was not durable."""
    platform, store, pid = make_store(mode)
    gate, committer = parked_commit(
        platform,
        store,
        [ops.WriteChunk(pid, rank, b"new%d" % rank) for rank in range(RANKS)],
    )
    view = Worker(lambda: store.open_snapshot_view(pid)).done()
    platform.untrusted.simulate_crash()  # the commit's appends are gone
    assert view.read_chunks(range(RANKS)) == OLD
    _fail(platform, gate, "io")
    with pytest.raises(IOFaultError):
        committer.done()
    assert view.read_chunks(range(RANKS)) == OLD
    view.close()
    store.close()
    platform.untrusted.flush_error = None
    platform.reboot()
    reopened = ChunkStore.open(platform)
    assert reopened.read_chunks(pid, range(RANKS)) == OLD
    assert reopened.quarantined_chunks() == {}


def test_a_session_snapshot_opens_at_once_on_the_durable_state(mode):
    platform, store, objects, pid, refs = make_objects(mode)
    with TDBServer(objects) as server:
        writer, reader = server.session(), server.session()
        tx = writer.transaction()
        tx.update(refs[0], tx.get_for_update(refs[0]) + 1)
        gate = platform.untrusted.park_next_flush()
        committer = Worker(tx.commit)
        gate.wait_arrived()
        commits = store.commit_count_stat

        def snapshot_read():
            with reader.snapshot(pid) as snapshot:
                return snapshot.view.frozen_at, snapshot.get(refs[0])

        assert Worker(snapshot_read).done() == (commits, 0)
        assert not committer.finished
        gate.open()
        committer.done()
        assert snapshot_read() == (commits + 1, 1)
    assert store._lock.contended == store._writers.contended == 0


# ---------------------------------------------------------------------------
# (iii) other writers wait
# ---------------------------------------------------------------------------


def test_a_second_commit_a_checkpoint_and_close_wait_for_the_flush(mode):
    platform, store, pid = make_store(mode)
    gate, committer = parked_commit(platform, store, [ops.WriteChunk(pid, 0, b"new0")])
    waiting = [
        Worker(lambda: store.commit([ops.WriteChunk(pid, 1, b"new1")])),
        Worker(store.checkpoint),
    ]
    store._writers.wait_blocked(threads=2)
    assert not any(worker.finished for worker in waiting)
    assert store.read_chunk(pid, 1) == b"old1"  # nothing of theirs started
    gate.open()
    join_all([committer] + waiting)
    assert store.read_chunk(pid, 1) == b"new1"

    gate, committer = parked_commit(platform, store, [ops.WriteChunk(pid, 2, b"new2")])
    closer = Worker(store.close)
    store._writers.wait_blocked()
    assert not closer.finished
    gate.open()
    join_all([committer, closer])
    platform.reboot()
    reopened = ChunkStore.open(platform)
    assert reopened.read_chunks(pid, [0, 1, 2]) == {0: b"new0", 1: b"new1", 2: b"new2"}


# ---------------------------------------------------------------------------
# (iv) 2PL, not the store, keeps a transaction off an in-flight write
# ---------------------------------------------------------------------------


def test_a_reader_of_an_in_flight_write_waits_on_its_object_lock_not_the_store(mode):
    platform, store, objects, pid, refs = make_objects(mode)
    writer = objects.transaction()
    writer.update(refs[0], writer.get_for_update(refs[0]) + 1)
    gate = platform.untrusted.park_next_flush()
    committer = Worker(writer.commit)
    gate.wait_arrived()

    def read_it():
        with objects.transaction() as reader:
            return reader.get(refs[0])

    waits = objects.locks.stats()["waits"]
    reader = Worker(read_it)
    platform.clock.wait_waiting()  # parked in the lock manager …
    assert objects.locks.stats()["waits"] == waits + 1
    assert not reader.finished
    # … with the store's ``_lock`` free: it never got as far as the store
    assert not store._lock.held_by_someone_else()
    assert store._lock.contended == 0
    gate.open()
    committer.done()
    assert reader.done() == 1  # served once the writer's commit returned


# ---------------------------------------------------------------------------
# (v) a flush that fails
# ---------------------------------------------------------------------------


def _fail(platform, gate, how):
    """Open ``gate`` so that the parked commit fails in the named way."""
    if how == "io":
        # the device stays dead: the retrier (virtual-time backoff) gives up
        platform.untrusted.flush_error = TransientIOError("flush: device gone")
        gate.open()
    else:
        platform.injector.arm("commit.after_flush")
        gate.open()


@pytest.mark.parametrize("how", ["io", "commit.after_flush"])
def test_a_failed_flush_fails_the_store_before_anyone_is_served_again(mode, how):
    """The flush raises (or the crash point after it does) while a reader
    is parked in its own device read *holding* ``_lock``: the committer has
    to queue for the lock it dropped, the reader's admitted read completes,
    and from then on everything is refused."""
    platform, store, pid = make_store(mode)
    gate, committer = parked_commit(platform, store, [ops.WriteChunk(pid, 0, b"new0")])
    store.payloads.clear()
    read_gate = platform.untrusted.park_next_read()
    reader = Worker(lambda: store.read_chunk(pid, 1))
    read_gate.wait_arrived()  # inside the window, ``_lock`` in hand
    _fail(platform, gate, how)
    store._lock.wait_blocked()  # the committer wants its lock back
    assert not committer.finished and not store._failed
    read_gate.open()
    assert reader.done() == b"old1"
    with pytest.raises(IOFaultError if how == "io" else CrashError):
        committer.done()
    assert store._failed
    for call in (
        lambda: store.read_chunk(pid, 1),
        lambda: store.allocate_chunk(pid),
        lambda: store.commit([ops.WriteChunk(pid, 2, b"x")]),
        lambda: store.open_snapshot_view(pid),
        store.checkpoint,
    ):
        with pytest.raises(ChunkStoreError, match="failed state"):
            call()
    # recovery decides: the torn commit is gone or whole, never half
    store.close()
    platform.untrusted.flush_error = None
    platform.reboot()
    reopened = ChunkStore.open(platform)
    assert reopened.read_chunk(pid, 0) in (b"old0", b"new0")
    assert reopened.read_chunk(pid, 1) == b"old1"
    assert reopened.quarantined_chunks() == {}


def test_a_crash_before_the_flush_never_drops_the_lock(mode):
    platform, store, pid = make_store(mode)
    held = []
    platform.untrusted.park_next_flush(
        on_arrival=lambda: held.append("a flush ran")
    ).open()
    platform.injector.arm("commit.before_flush")
    with pytest.raises(CrashError):
        store.commit([ops.WriteChunk(pid, 0, b"new0")])
    assert held == [] and store._failed
    with pytest.raises(ChunkStoreError, match="failed state"):
        store.read_chunk(pid, 1)


@pytest.mark.parametrize("how", ["io", "commit.before_flush", "commit.after_flush"])
def test_a_failed_flush_is_told_to_the_queued_committer(mode, how, monkeypatch):
    """Two sessions: the second one's commit is queued behind the batch
    whose flush fails; it is handed the lead, finds the store failed, and
    is told so — it does not hang and nothing of it is written."""
    queue = QueueSpy().install(monkeypatch)
    platform, store, objects, pid, refs = make_objects(mode)
    with TDBServer(objects) as server:
        first, second = server.session(), server.session()
        tx1, tx2 = first.transaction(), second.transaction()
        tx1.update(refs[0], tx1.get_for_update(refs[0]) + 1)
        tx2.update(refs[1], tx2.get_for_update(refs[1]) + 1)
        if how == "commit.before_flush":
            # that point is ahead of the window: park the leader on its way
            # into the store instead, and let the armed point fail it
            gate = Gate()

            def commit(operations, _commit=store.commit):
                if not gate.arrived.is_set():
                    gate.park()
                return _commit(operations)

            store.commit = commit
            platform.injector.arm(how)
            fail = gate.open
        else:
            gate = platform.untrusted.park_next_flush()
            fail = lambda: _fail(platform, gate, how)
        leader = Worker(tx1.commit)
        gate.wait_arrived()
        follower = Worker(tx2.commit)
        queue.wait_queued()
        fail()
        with pytest.raises(IOFaultError if how == "io" else CrashError):
            leader.done()
        with pytest.raises(ChunkStoreError, match="failed state"):
            follower.done()
        assert store._failed and not objects.committer._leader_active
        assert tx1.status == tx2.status == TxStatus.ABORTED
    platform.untrusted.flush_error = None
    platform.reboot()
    reopened = ObjectStore(ChunkStore.open(platform))
    assert reopened.read_committed(refs[1]) == 0  # never written
    assert reopened.read_committed(refs[0]) in (0, 1)


# ---------------------------------------------------------------------------
# (vi) a flush inside another writer, or a checkpoint's, keeps ``_lock``
# ---------------------------------------------------------------------------


def _lock_probe(store, seen):
    """An ``on_arrival`` hook recording, from the parked device, whether the
    flushing thread still owns ``_lock`` (the gates are opened beforehand,
    so nothing actually parks)."""
    return lambda: seen.append(store._lock._is_owned())


def _probe_every_flush(platform, store, seen=None, flushes=64):
    seen = [] if seen is None else seen
    for _ in range(flushes):
        platform.untrusted.park_next_flush(_lock_probe(store, seen)).open()
    return seen


def test_only_the_application_commits_own_flush_runs_unlocked(mode):
    """A commit that first runs a threshold checkpoint: the checkpoint's
    flushes hold ``_lock``; the commit's own — the last — does not."""
    platform, store, pid = make_store(mode, checkpoint_dirty_threshold=4)
    store.commit([ops.WriteChunk(pid, rank, b"dirty") for rank in range(5)])
    checkpoints = platform.injector.counts["checkpoint.end"]
    seen = _probe_every_flush(platform, store)
    store.commit([ops.WriteChunk(pid, 0, b"new0")])
    assert platform.injector.counts["checkpoint.end"] == checkpoints + 1
    assert len(seen) >= 3 and seen[-1] is False and all(seen[:-1]), seen
    # a checkpoint asked for directly: every flush locked
    del seen[:]
    store.checkpoint()
    assert seen and all(seen), seen


def test_the_cleaners_recommit_never_releases_the_lock(mode):
    """Inside ``store.clean``, which holds ``_lock`` itself, the cleaner's
    re-commits offer the lock and it stays held."""
    platform, store, pid = make_store(mode, segment_size=8 * 1024)
    for round_no in range(12):
        for rank in range(RANKS - 1):  # rank 5 stays put: a survivor
            store.commit([ops.WriteChunk(pid, rank, bytes([round_no]) * 700)])
    store.checkpoint()
    rewritten = store.cleaner.rewritten_versions
    # the first flush inside ``clean`` parks, with this thread looking on …
    seen = []
    gate = platform.untrusted.park_next_flush(_lock_probe(store, seen))
    _probe_every_flush(platform, store, seen)
    cleaner = Worker(lambda: store.clean(max_segments=100))
    gate.wait_arrived()
    assert store._lock.held_by_someone_else()
    assert store._writers.held_by_someone_else()
    gate.open()
    assert cleaner.done() > 0
    # … and every one of them, re-commits included, held ``_lock``
    assert store.cleaner.rewritten_versions > rewritten
    assert seen and all(seen), seen
    assert store.read_chunk(pid, 5) == b"old5"


def test_a_cleaner_pass_of_its_own_offers_the_lock(mode):
    """``cleaner.clean_one()`` called directly is a writer of its own: its
    re-commit's flush offers ``_lock``.  A view opened in the window
    freezes the pre-move map, and the cleaned segment is not reused while
    that view is open."""
    platform, store, pid = make_store(mode, segment_size=8 * 1024)
    for rank in range(RANKS - 1):  # rank 5 stays put: a survivor
        store.commit([ops.WriteChunk(pid, rank, b"new" * 250)])
    store.checkpoint()
    expected = store.read_chunks(pid, range(RANKS))
    survivor = data_id(pid, RANKS - 1)
    victim = store.segman.segment_of(store._get_descriptor(survivor).location)
    assert store.segman.emptiest_cleanable_segment() == victim
    gate = platform.untrusted.park_next_flush()
    cleaner = Worker(store.cleaner.clean_one)
    gate.wait_arrived()
    assert not store._lock.held_by_someone_else()
    view = Worker(lambda: store.open_snapshot_view(pid)).done()
    # nothing of the move is installed yet
    assert store.segman.segment_of(store._get_descriptor(survivor).location) == victim
    assert not cleaner.finished
    gate.open()
    assert cleaner.done() == victim
    assert store.segman.segment_of(store._get_descriptor(survivor).location) != victim
    store.checkpoint()  # would free the victim, but the view holds it
    assert victim not in store.segman.free_segments
    assert view.read_chunks(range(RANKS)) == expected
    view.close()
    store.checkpoint()
    assert victim in store.segman.free_segments
    assert store.read_chunks(pid, range(RANKS)) == expected


def test_scrubs_repair_commit_never_releases_the_lock(mode):
    platform, store, pid = make_store(mode)
    descriptor = store._get_descriptor(data_id(pid, 3))
    offset = descriptor.location + descriptor.length - 2
    byte = platform.untrusted.tamper_read(offset, 1)
    platform.untrusted.tamper_write(offset, bytes([byte[0] ^ 1]))
    store.payloads.clear()
    commits = store.commit_count_stat
    gate = platform.untrusted.park_next_flush()
    scrubber = Worker(
        lambda: store.scrub(
            raise_on_first=False, repair_source=lambda pid, rank: b"old%d" % rank
        )
    )
    gate.wait_arrived()  # parked in the nested repair commit's flush
    assert store._lock.held_by_someone_else()
    assert store._writers.held_by_someone_else()
    gate.open()
    report = scrubber.done()
    assert report["repaired"] == [f"{pid}:0.3"] and report["unrepaired"] == []
    assert store.commit_count_stat == commits + 1
    assert store.read_chunk(pid, 3) == b"old3"


def test_a_lazily_flushed_commit_has_nothing_to_unlock_for():
    """``flush_every_commit=False`` (counter mode): a commit that skips the
    device flush never drops ``_lock``, and the catch-up flush ``publish``
    asks for runs with it held."""
    platform, store, pid = make_store(
        "counter", flush_every_commit=False, delta_ut=3, delta_tu=0
    )
    flushes = platform.untrusted.stats.flushes
    seen = _probe_every_flush(platform, store)
    store.commit([ops.WriteChunk(pid, 0, b"a")])
    store.commit([ops.WriteChunk(pid, 1, b"b")])
    assert platform.untrusted.stats.flushes == flushes and seen == []
    store.commit([ops.WriteChunk(pid, 2, b"c")])  # Δut reached: catch up
    assert platform.untrusted.stats.flushes == flushes + 1
    assert seen == [True]
