"""What the rest of the system may do, and see, while a commit's device
flush is in flight — pinned deterministically (``tests/parking.py``: the
flush parks on an event; no sleeps, no timing), in both validation modes.

One rule: a commit set — an application commit of any operations, or the
cleaner's re-commit — is appended, made durable, and only then installed,
after every set sealed before it.  A plain application commit (chunk
writes and frees of ranks its partitions have) is *pipelined*: it seals
under both locks and drops both for its flush, so the next one appends
and parks its own flush meanwhile.  (The store pipelines only where the
device's last flush took time; a parked flush is as long as the test
makes it, the ones before it take none, so an autouse fixture lets every
flush count — bar the one test of that choice.)  So, while parked:

* calls that take ``_lock`` alone are served, and see the last durable
  state: none of the in-flight sets — no new chunk, no new, reset or
  copied partition, no moved version — and ``commit_count_stat`` counts
  none of them;
* ``open_snapshot_view`` takes ``_lock`` alone: it opens at once, on the
  last durable state, and its view references no byte a crash in the
  window could take back;
* the next plain commit appends, seals and parks its own flush; it is
  neither visible nor acknowledged before the one sealed before it has
  installed, even if its flush returns first; if that one fails, so does
  it (told its outcome is unknown: it is in the log), and a crash with
  both flushes parked reopens on the state before either; a set sealed
  before one that fails the store while appending is acknowledged;
* a writer that needs the whole image waits, with ``_lock`` released,
  until every set in flight has installed — a checkpoint, ``clean``,
  ``close``, a partition operation, a commit naming a chunk an in-flight
  set names; the cleaner so never judges currency against an image that
  lacks an in-flight set;
* a transactional read of an object the in-flight transaction wrote waits
  on that object's 2PL lock, not on the store;
* a flush that fails re-takes ``_lock`` first, and ``_failed`` is set
  before the failed commit returns to anyone;
* a set that keeps the writers' lock to the end — one with partition
  operations, or one closed inside another writer (the cleaner's
  re-commits in ``clean`` or in a commit's ``make_room``, scrub's repair
  commit) — offers ``_lock`` for its flush, and the nested ones hold it
  twice, so the offer leaves it held; a checkpoint's flushes never offer
  it.
"""

from __future__ import annotations

import time

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.chunkstore import store as store_module
from repro.chunkstore.ids import data_id
from repro.errors import (
    ChunkStoreError,
    CommitOutcomeUnknownError,
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
#: the store's own choice, before the fixture below overrides it
MIN_FLUSH_S = store_module.PIPELINE_MIN_FLUSH_S


@pytest.fixture(params=["counter", "direct"])
def mode(request):
    return request.param


@pytest.fixture(autouse=True)
def every_flush_is_worth_overlapping(monkeypatch):
    """A parked flush is as long as the test makes it; the ones before it
    take no time.  Pipeline from the first commit on."""
    monkeypatch.setattr(store_module, "PIPELINE_MIN_FLUSH_S", 0.0)


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
    # a plain commit is pipelined: neither lock is held across its flush
    assert not store._lock.held_by_someone_else()
    assert not store._writers.held_by_someone_else()
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
    assert not committer.finished and len(store._in_flight) == 1
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
    """A partition operation is not pipelined: its commit keeps the
    writers' lock to the end, and offers ``_lock`` for its flush."""
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
    assert store._writers.held_by_someone_else() and not store._in_flight
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
# (iii) the next commit appends in the window; writers that need the whole
# image wait for the drain
# ---------------------------------------------------------------------------


def parked_pair(platform, store, pid):
    """Commit ``k`` (chunk 0) and ``k+1`` (chunk 1), each parked in its own
    flush, ``k+1`` sealed while ``k`` flushes: ``(gates, workers)``."""
    gates = platform.untrusted.park_next_flush(), platform.untrusted.park_next_flush()
    first = Worker(lambda: store.commit([ops.WriteChunk(pid, 0, b"new0")]))
    gates[0].wait_arrived()
    second = Worker(lambda: store.commit([ops.WriteChunk(pid, 1, b"new1")]))
    gates[1].wait_arrived()
    return gates, (first, second)


def test_the_next_commit_appends_and_flushes_while_the_first_one_flushes(mode):
    platform, store, pid = make_store(mode)
    commits = store.commit_count_stat
    (first_gate, second_gate), (first, second) = parked_pair(platform, store, pid)
    # k+1 appended and sealed inside k's window, and parked its own flush
    assert len(store._in_flight) == 2
    assert not (first.finished or second.finished)

    def durable_state_only():
        assert store.read_chunks(pid, [0, 1]) == {0: b"old0", 1: b"old1"}
        assert store.commit_count_stat == store.stats()["commits"] == commits
        with store.open_snapshot_view(pid) as view:
            assert view.frozen_at == commits
            assert view.read_chunks([0, 1]) == {0: b"old0", 1: b"old1"}

    durable_state_only()
    # k+1's flush returns first: it still waits for k, unseen and untold
    second_gate.open()
    second_gate.wait_returned()
    durable_state_only()
    assert not second.finished
    first_gate.open()
    join_all([first, second])
    assert store.commit_count_stat == commits + 2 and not store._in_flight
    assert store.read_chunks(pid, [0, 1]) == {0: b"new0", 1: b"new1"}
    store.close()
    platform.reboot()
    reopened = ChunkStore.open(platform)
    assert reopened.read_chunks(pid, [0, 1]) == {0: b"new0", 1: b"new1"}


def test_sets_install_in_the_order_they_were_sealed(mode, monkeypatch):
    platform, store, pid = make_store(mode)
    installed = []
    install = store._install

    def spy(effects):
        installed.append(effects[0][1])  # the chunk id of the set's write
        install(effects)

    monkeypatch.setattr(store, "_install", spy)
    (first_gate, second_gate), workers = parked_pair(platform, store, pid)
    second_gate.open()
    second_gate.wait_returned()
    first_gate.open()
    join_all(list(workers))
    assert installed == [data_id(pid, 0), data_id(pid, 1)]


def test_a_crash_with_both_flushes_parked_reopens_before_either(mode):
    platform, store, pid = make_store(mode)
    gates, (first, second) = parked_pair(platform, store, pid)
    platform.untrusted.simulate_crash()  # both sets' appends are gone
    platform.untrusted.flush_error = TransientIOError("flush: device gone")
    for gate in gates:
        gate.open()
    with pytest.raises(IOFaultError):
        first.done()
    with pytest.raises(IOFaultError):  # its own flush failed too
        second.done()
    assert store._failed and not store._in_flight
    store.close()
    platform.untrusted.flush_error = None
    platform.reboot()
    reopened = ChunkStore.open(platform)
    assert reopened.read_chunks(pid, range(RANKS)) == OLD
    assert reopened.quarantined_chunks() == {}


@pytest.mark.parametrize("how", ["io", "commit.after_flush"])
def test_a_failed_first_set_fails_the_next_one_though_its_flush_succeeds(mode, how):
    platform, store, pid = make_store(mode)
    (first_gate, second_gate), (first, second) = parked_pair(platform, store, pid)
    _fail(platform, first_gate, how)
    with pytest.raises(IOFaultError if how == "io" else CrashError):
        first.done()
    assert store._failed
    platform.untrusted.flush_error = None
    second_gate.open()  # k+1's own flush succeeds …
    with pytest.raises(CommitOutcomeUnknownError) as told:
        second.done()  # … and it is failed all the same, never installed
    assert isinstance(told.value.__cause__, IOFaultError if how == "io" else CrashError)
    assert store.commit_count_stat == store.stats()["commits"]
    assert not store._in_flight
    store.close()
    platform.reboot()
    reopened = ChunkStore.open(platform)
    # k+1's flush made both sets' logs durable: the counter discipline
    # replays both, in log order; under direct validation neither reached
    # the tamper-resistant store
    new = mode == "counter"
    assert reopened.read_chunks(pid, [0, 1]) == (
        {0: b"new0", 1: b"new1"} if new else {0: b"old0", 1: b"old1"}
    )
    assert reopened.read_chunks(pid, range(2, RANKS)) == {
        rank: OLD[rank] for rank in range(2, RANKS)
    }


@pytest.mark.parametrize("point", ["commit.write", "commit.before_flush"])
def test_a_set_is_acknowledged_though_the_next_one_failed_the_store(mode, point):
    """Set ``k`` flushes; ``k+1`` fails the store while appending or
    sealing inside that window.  ``k``'s flush returns: it is durable, and
    its committer is told it committed — only what comes to the gate
    afterwards is refused."""
    platform, store, pid = make_store(mode)
    gate, first = parked_commit(platform, store, [ops.WriteChunk(pid, 0, b"new0")])
    platform.injector.arm(point)
    with pytest.raises(CrashError):
        store.commit([ops.WriteChunk(pid, 1, b"new1")])
    assert store._failed and len(store._in_flight) == 1
    gate.open()
    assert first.done() is None  # acknowledged
    assert not store._in_flight
    with pytest.raises(ChunkStoreError, match="failed state"):
        store.read_chunk(pid, 0)
    store.close()
    platform.reboot()
    reopened = ChunkStore.open(platform)
    # k is there in both modes; k+1 only if its commit chunk was in the log
    # when k's flush ran (it seals before ``before_flush``) and the log is
    # the commit point (counter validation)
    kept = point == "commit.before_flush" and mode == "counter"
    assert reopened.read_chunks(pid, [0, 1]) == {
        0: b"new0", 1: b"new1" if kept else b"old1"
    }
    assert reopened.quarantined_chunks() == {}


def spy_on_drain(store):
    """A :class:`Gate` whose ``arrived`` is set once a writer starts to wait
    for the sets in flight (``ChunkStore._drain`` with one in flight)."""
    draining = Gate()
    drain = store._drain

    def spy():
        if store._in_flight:
            draining.arrived.set()
        drain()

    store._drain = spy
    return draining


def _whole_image_writers(store, pid, created):
    """Writers that need the whole image, each as ``(call, untouched)``:
    ``untouched()`` says nothing of the writer's own work has happened."""
    injector = store.platform.injector
    appended = store.logbuf.bytes_appended
    checkpoints = injector.counts["checkpoint.begin"]
    partition = ops.WritePartition(created, cipher_name="ctr-sha256", hash_name="sha1")
    return {
        "checkpoint": (
            store.checkpoint,
            lambda: injector.counts["checkpoint.begin"] == checkpoints,
        ),
        "clean": (
            lambda: store.clean(max_segments=1),
            lambda: injector.counts["checkpoint.begin"] == checkpoints,
        ),
        "close": (store.close, lambda: not store._closed),
        "partition": (
            lambda: store.commit([partition]),
            lambda: store.logbuf.bytes_appended == appended,
        ),
        "same_chunk": (
            lambda: store.commit([ops.WriteChunk(pid, 0, b"newer0")]),
            lambda: store.logbuf.bytes_appended == appended,
        ),
    }


@pytest.mark.parametrize(
    "writer", ["checkpoint", "clean", "close", "partition", "same_chunk"]
)
def test_a_writer_that_needs_the_whole_image_waits_for_the_drain(mode, writer):
    platform, store, pid = make_store(mode)
    created = store.allocate_partition()
    gate, committer = parked_commit(platform, store, [ops.WriteChunk(pid, 0, b"new0")])
    call, untouched = _whole_image_writers(store, pid, created)[writer]
    draining = spy_on_drain(store)
    waiting = Worker(call)
    draining.wait_arrived()
    # it holds the writers' lock, so nothing else can start; ``_lock`` it
    # gave up for the wait, so reads are served
    assert store._writers.held_by_someone_else()
    assert Worker(lambda: store.read_chunk(pid, 1)).done() == b"old1"
    assert untouched() and not waiting.finished and not committer.finished
    gate.open()
    join_all([committer, waiting])
    if writer == "close":
        platform.reboot()
        store = ChunkStore.open(platform)
    expected = b"newer0" if writer == "same_chunk" else b"new0"
    assert store.read_chunk(pid, 0) == expected
    if writer == "partition":
        assert store.partition_exists(created)


def test_a_cleaner_pass_never_moves_a_version_an_in_flight_set_superseded(mode):
    """Rank 5's only version sits in the cleaner's victim segment; an
    in-flight commit supersedes it.  ``clean`` waits for that commit, so
    the old version is obsolete when the cleaner judges it, and is not
    moved over the new one — in the image, and in the log recovery reads."""
    platform, store, pid = make_store(mode, segment_size=8 * 1024)
    for rank in range(RANKS - 1):  # rank 5 stays put: the victim's survivor
        store.commit([ops.WriteChunk(pid, rank, b"new" * 250)])
    store.checkpoint()
    survivor = data_id(pid, RANKS - 1)
    victim = store.segman.segment_of(store._get_descriptor(survivor).location)
    assert store.segman.emptiest_cleanable_segment() == victim
    rewritten = store.cleaner.rewritten_versions
    gate, committer = parked_commit(
        platform, store, [ops.WriteChunk(pid, RANKS - 1, b"newer5")]
    )
    draining = spy_on_drain(store)
    cleaner = Worker(lambda: store.clean(max_segments=1))
    draining.wait_arrived()
    gate.open()
    committer.done()
    assert cleaner.done() == 1
    assert victim in {segment for segment, _ in store.segman.deferred_segments}
    assert store.cleaner.rewritten_versions == rewritten  # nothing current left
    assert store.read_chunk(pid, RANKS - 1) == b"newer5"
    store.close()
    platform.reboot()
    reopened = ChunkStore.open(platform)
    assert reopened.read_chunk(pid, RANKS - 1) == b"newer5"


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
    """Sessions commit behind the batch that fails.  The one queued behind
    it is handed the lead, finds the store failed and is told so: it does
    not hang and nothing of it is written.  Where the first batch fails at
    or after its flush, the second session has led its own batch already —
    sealed while the first's flush is parked — and is told its outcome is
    unknown, never that it committed; the session queued is then a third,
    behind that second batch."""
    queue = QueueSpy().install(monkeypatch)
    platform, store, objects, pid, refs = make_objects(mode)
    pipelined = how != "commit.before_flush"
    with TDBServer(objects) as server:
        sessions = [server.session() for _ in range(3 if pipelined else 2)]
        txs = [session.transaction() for session in sessions]
        for tx, ref in zip(txs, refs):
            tx.update(ref, tx.get_for_update(ref) + 1)
        if not pipelined:
            # that point is ahead of the window: park the leader on its way
            # into the store instead, and let the armed point fail it
            gate = Gate()

            def commit(operations, _commit=store.commit, **seam):
                if not gate.arrived.is_set():
                    gate.park()
                return _commit(operations, **seam)

            store.commit = commit
            platform.injector.arm(how)
            fail = gate.open
        else:
            gate = platform.untrusted.park_next_flush()
            second_gate = platform.untrusted.park_next_flush()
            fail = lambda: _fail(platform, gate, how)
        leader = Worker(txs[0].commit)
        gate.wait_arrived()
        if pipelined:
            # the leader handed off at its seal: the second session leads
            # its own batch and parks its flush inside the leader's window;
            # the third queues behind that batch
            second = Worker(txs[1].commit)
            second_gate.wait_arrived()
            assert len(store._in_flight) == 2
            assert queue.entries[1].leads and queue.entries[1].wake.sets == 0
        queued = Worker(txs[-1].commit)
        queue.wait_queued()
        fail()
        with pytest.raises(IOFaultError if how == "io" else CrashError):
            leader.done()
        with pytest.raises(ChunkStoreError, match="failed state"):
            queued.done()
        if pipelined:
            platform.untrusted.flush_error = None
            second_gate.open()  # its own flush succeeds
            with pytest.raises(CommitOutcomeUnknownError):
                second.done()
        assert store._failed and not objects.committer._leader_active
        assert all(tx.status == TxStatus.ABORTED for tx in txs)
    platform.untrusted.flush_error = None
    platform.reboot()
    reopened = ObjectStore(ChunkStore.open(platform))
    values = [reopened.read_committed(ref) for ref in refs[: len(txs)]]
    assert values[-1] == 0  # the queued one: never written
    if pipelined:
        # the second batch's flush made both batches' logs durable: the
        # counter discipline replays both; under direct validation neither
        # reached the tamper-resistant store
        assert values[:2] == ([1, 1] if mode == "counter" else [0, 0])
    else:
        assert values[0] == 0  # it crashed ahead of its flush


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


def test_only_a_flush_worth_overlapping_is_pipelined(mode, monkeypatch):
    """The pipeline is chosen by the device's last flush: while it took
    next to nothing, a plain commit keeps the writers' lock through its own
    flush and never calls ``sealed``; once one took long, the next commit
    seals, releases both locks and calls it; and with a set in flight the
    next one is pipelined behind it whatever the last flush took."""
    monkeypatch.setattr(store_module, "PIPELINE_MIN_FLUSH_S", MIN_FLUSH_S)
    platform, store, pid = make_store(mode)
    assert store.writer.last_sync_s < MIN_FLUSH_S  # a memory device's flushes
    told = []
    gate = platform.untrusted.park_next_flush()
    first = Worker(
        lambda: store.commit([ops.WriteChunk(pid, 0, b"new0")], sealed=lambda: told.append(0))
    )
    gate.wait_arrived()
    assert store._writers.held_by_someone_else() and not store._in_flight
    # not a race: only makes the parked flush outlast the threshold
    time.sleep(2 * MIN_FLUSH_S)
    gate.open()
    first.done()
    assert told == [] and store.writer.last_sync_s >= MIN_FLUSH_S
    gate = platform.untrusted.park_next_flush()
    second = Worker(
        lambda: store.commit([ops.WriteChunk(pid, 1, b"new1")], sealed=lambda: told.append(1))
    )
    gate.wait_arrived()
    assert not store._writers.held_by_someone_else() and len(store._in_flight) == 1
    assert told == [1]
    # a flush that took no time meanwhile does not stop the pipeline while
    # a set is in flight: the next set still installs after this one
    store.writer.last_sync_s = 0.0
    third_gate = platform.untrusted.park_next_flush()
    third = Worker(
        lambda: store.commit([ops.WriteChunk(pid, 2, b"new2")], sealed=lambda: told.append(2))
    )
    third_gate.wait_arrived()
    assert len(store._in_flight) == 2
    third_gate.open()
    third_gate.wait_returned()
    assert store.read_chunks(pid, [1, 2]) == {1: b"old1", 2: b"old2"}
    gate.open()
    join_all([second, third])
    assert told == [1, 2]
    assert store.read_chunks(pid, [0, 1, 2]) == {0: b"new0", 1: b"new1", 2: b"new2"}
