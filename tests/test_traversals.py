"""The three traversals of the chunk store, each with one home.

* bottom-up by chunk id — ``ReadPath.descriptors`` (``test_read_path_cache``);
* top-down by subtree — ``ReadPath.vectors`` / ``children`` / ``subtree`` /
  ``diff``: device-count pins for §5.3 ``diff`` across a tree-height
  boundary and for the deallocation walk, and a fixed accounting script
  whose per-segment ``live_bytes`` were recorded on the tree before the
  descent was unified (healthy, and with a map chunk unreadable);
* log order by segment — ``logscan.VersionReader``, shared by recovery and
  the cleaner: the in-segment rule now holds for the cleaner too.

A static guard keeps each of them in its one module — and partition
bookkeeping in ``partitions.py``, scrub/repair in ``scrub.py``.  A second
recorded script pins that the four effects of a committed version, moved
behind ``PartitionTable``, still make the same cache, walk and accounting
calls in the same order, live and in replay.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.cleaner import Cleaner
from repro.chunkstore.ids import SYSTEM_PARTITION, ChunkId, data_id, partition_rank
from repro.chunkstore.logscan import VersionReader
from repro.chunkstore.readpath import ReadPath
from repro.errors import IOFaultError, TamperDetectedError
from repro.platform import FakeClock, FaultConfig, FaultInjector
from tests.conftest import make_config, make_platform

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
CHUNKSTORE = SRC / "chunkstore"


# ---------------------------------------------------------------------------
# static guard
# ---------------------------------------------------------------------------


def _modules_mentioning(text):
    return {
        path.name for path in CHUNKSTORE.glob("*.py") if text in path.read_text()
    }


def test_each_traversal_has_one_home():
    """Parsing a version header is the business of the codec, the extent
    validator and the log-order reader; loading a map chunk and asking for
    a cached vector that of the read path; recovery and the cleaner issue
    no batched read of their own; and what left ``store.py`` stays out."""
    assert _modules_mentioning("parse_header(") == {
        "log.py", "readpath.py", "logscan.py",
    }
    assert _modules_mentioning("load_map_chunks(") == {"readpath.py"}
    assert _modules_mentioning("cache.vector(") == {"readpath.py"}
    assert not {"recovery.py", "cleaner.py"} & _modules_mentioning("read_many(")
    defined = set(re.findall(r"def (\w+)\(", (CHUNKSTORE / "store.py").read_text()))
    assert not defined & {
        "_diff_recursive", "_diff_leaf", "_classify_leaf",
        "_note_sequential_read", "_rewrite_map_chunk",
    }


def test_partition_bookkeeping_and_scrub_have_one_home_each():
    """The façade keeps none of what moved out, its collaborators go to
    ``store.table`` rather than back through the façade's privates, the
    unreadable-chunk exception set is spelled once, and nobody outside
    the package reaches for a ``PartitionState`` through ``_state``."""
    defined = set(re.findall(r"def (\w+)\(", (CHUNKSTORE / "store.py").read_text()))
    assert not defined & {
        "_apply_chunk_write", "_apply_chunk_dealloc", "_apply_partition_leader",
        "_apply_partition_dealloc", "_collect_copy_family",
        "_iter_partition_locations", "_repair_failed_chunks", "_repair_data_chunk",
    }
    for private in (
        "store._state(", "store._open_partition", "store._share_tallies",
        "store._collect_copy_family", "store._apply_",
    ):
        assert _modules_mentioning(private) <= {"store.py", "partitions.py"}, private
    unreadable = {"TamperDetectedError", "QuarantineError", "IOFaultError"}
    spelled = [
        path.name
        for path in CHUNKSTORE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Tuple)
        and unreadable <= {elt.id for elt in node.elts if isinstance(elt, ast.Name)}
    ]
    assert spelled == ["readpath.py"]
    outside = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if CHUNKSTORE not in path.parents and "._state(" in path.read_text()
    }
    assert outside == {"collection/store.py"}  # its own Collection._state


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _write(store, pid, ranks, tag=b"v", batch=200, size=1):
    state = store._state(pid)
    ranks = list(ranks)
    for start in range(0, len(ranks), batch):
        group = ranks[start : start + batch]
        for rank in group:
            state.allocate_specific(rank)
        store.commit(
            [ops.WriteChunk(pid, rank, (tag + b"%d" % rank) * size) for rank in group]
        )


def _new_partition(store):
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
    return pid


@pytest.fixture(params=["counter", "direct"])
def any_mode(request):
    return request.param


# ---------------------------------------------------------------------------
# top-down: device-count pins
# ---------------------------------------------------------------------------


def test_diff_across_a_height_boundary_reads_one_batch_per_level_per_side():
    """A 4,000-chunk snapshot against its source grown to 5,000 (heights
    2 and 3, three overwrites): the descent stays a descent.  Before, unequal
    heights fell back to one bottom-up walk per rank on each side (10,000
    walks)."""
    platform = make_platform(size=16 * 1024 * 1024)
    store = ChunkStore.format(
        platform, make_config(checkpoint_dirty_threshold=100_000)
    )
    pid = _new_partition(store)
    _write(store, pid, range(4000))
    snapshot = store.allocate_partition()
    store.commit([ops.CopyPartition(snapshot, pid)])
    _write(store, pid, range(4000, 5000))
    _write(store, pid, [7, 2000, 3999], tag=b"w")
    store.checkpoint()
    store.cache.clear()  # cold: every level of both trees comes off the device
    heights = [store._state(p).payload.tree_height for p in (snapshot, pid)]
    assert heights == [2, 3]

    before = platform.untrusted.stats.snapshot()
    changes = store.diff(snapshot, pid)
    delta = platform.untrusted.stats.delta(before)

    assert Counter(changes.values()) == {"added": 1000, "changed": 3}
    assert {r for r, c in changes.items() if c == "changed"} == {7, 2000, 3999}
    assert 0 < delta.batched_reads <= sum(heights)
    assert delta.reads == delta.batched_reads  # no single-extent read


def test_deallocation_reads_only_uncached_map_chunks_a_level_at_a_time():
    """Deallocating a 4,090-chunk partition (65 map chunks) with part of
    its map resident: the accounting walk asks the vector cache first and
    batches what is missing per level.  Before, it re-read all 65, each
    with its own round trip."""
    platform = make_platform(size=16 * 1024 * 1024)
    store = ChunkStore.format(
        platform,
        # room for the whole map, so the walk's own loads evict nothing
        make_config(checkpoint_dirty_threshold=100_000, cache_size=128 * 64),
    )
    pid = _new_partition(store)
    _write(store, pid, range(4090))
    store.checkpoint()
    store.cache.clear()
    store.read_chunks(pid, range(0, 640))  # the root and ten level-1 chunks
    store._get_descriptor(data_id(SYSTEM_PARTITION, partition_rank(pid)))
    state = store._state(pid)
    height = state.payload.tree_height
    map_ids = [ChunkId(pid, 2, 0)] + [ChunkId(pid, 1, rank) for rank in range(64)]
    uncached = [cid for cid in map_ids if store.cache.vector(cid) is None]
    assert height == 2 and len(uncached) == 54

    live = store.segman.live_total()
    fetched = store.readpath.map_chunks_fetched
    batches = store.readpath.walk_batches
    before = platform.untrusted.stats.snapshot()
    store.commit([ops.DeallocatePartition(pid)])
    delta = platform.untrusted.stats.delta(before)

    assert store.readpath.map_chunks_fetched - fetched == len(uncached)
    assert store.readpath.walk_batches - batches <= height
    assert delta.reads == delta.batched_reads <= height
    assert store.segman.live_total() < live // 10


# ---------------------------------------------------------------------------
# top-down: accounting is what it was
# ---------------------------------------------------------------------------


def _accounting_script(degraded):
    """A three-level partition (fanout 4, 40 chunks) with a copy; a few
    overwrites so the two trees share most but not all of their chunks;
    then deallocate the copy and reset the source — with a cold vector
    cache, and if ``degraded`` with the copy's level-1 map chunk 3 (shared
    with the source) on a dead extent.  Returns the per-segment live bytes
    after each of the two commits."""
    faults = FaultInjector(FaultConfig(), seed=0)
    platform = make_platform(faults=faults, clock=FakeClock())
    store = ChunkStore.format(platform, make_config(fanout=4))
    source = _new_partition(store)
    _write(store, source, range(40), batch=8, size=200)
    copy = store.allocate_partition()
    store.commit([ops.CopyPartition(copy, source)])
    _write(store, source, [0, 1, 21, 39], tag=b"w", size=200)
    store.checkpoint()
    assert store._state(copy).payload.tree_height == 3
    if degraded:
        dead = store._get_descriptor(ChunkId(copy, 1, 3))
        assert dead == store._get_descriptor(ChunkId(source, 1, 3))
        faults.mark_bad(dead.location, dead.length)
    recorded = []
    for operation in (
        ops.DeallocatePartition(copy),
        ops.WritePartition(source, cipher_name="null", hash_name="sha1"),
    ):
        store.cache.clear()  # nothing is dirty: the checkpoint just ran
        store.commit([operation])
        recorded.append(
            {seg: live for seg, live in enumerate(store.segman.live_bytes) if live}
        )
        store.checkpoint()
    return recorded


@pytest.mark.parametrize("degraded", [False, True], ids=["healthy", "degraded"])
def test_deallocation_and_reset_accounting_is_unchanged(degraded):
    assert _accounting_script(degraded) == ACCOUNTING_BEFORE_THE_DESCENT[degraded]


#: ``_accounting_script`` run on the parent of the change that introduced
#: ``ReadPath.subtree`` (its ``_iter_partition_locations`` was a DFS with a
#: device read per map chunk)
ACCOUNTING_BEFORE_THE_DESCENT = {
    False: [{2: 3135}, {3: 64, 4: 53}],
    # the four data chunks under the dead map chunk stay booked as live
    True: [{0: 1026, 2: 3135}, {3: 64, 4: 53}],
}


def _image(store):
    cache = store.cache.stats()
    segman = store.segman
    return {
        "live": {str(seg): n for seg, n in enumerate(segman.live_bytes) if n},
        "used": {str(seg): n for seg, n in enumerate(segman.used_bytes) if n},
        "cache": [cache["hits"], cache["misses"], cache["evictions"]],
        "walk": store.stats()["walk"],
    }


def _effects_script(mode):
    """Every effect of a committed version, live and replayed: the
    three-level partition of ``_accounting_script`` under a 32-descriptor
    cache, a copy, overwrites and chunk deallocations, a checkpoint — and
    then, all in the residual log, more of the same, the copy deallocated,
    the source reset and refilled, and a cleaner pass.  Returns the image
    of the live store and of a store reopened from the crashed device."""
    platform = make_platform()
    store = ChunkStore.format(
        platform, make_config(fanout=4, cache_size=32, validation_mode=mode)
    )
    source = _new_partition(store)
    _write(store, source, range(40), batch=8, size=200)
    copy = store.allocate_partition()
    store.commit([ops.CopyPartition(copy, source)])
    _write(store, source, [0, 1, 21, 39], tag=b"w", size=200)
    store.commit([ops.DeallocateChunk(source, 5), ops.DeallocateChunk(source, 22)])
    store.checkpoint()
    _write(store, source, [2, 3, 38], tag=b"x", size=200)
    store.commit([ops.DeallocateChunk(source, 7)])
    store.commit([ops.DeallocatePartition(copy)])
    store.commit([ops.WritePartition(source, cipher_name="null", hash_name="sha1")])
    _write(store, source, range(6), tag=b"y", size=200)
    assert Cleaner(store).clean_one() is not None
    _write(store, source, [6, 7], tag=b"z", size=200)
    live = _image(store)
    platform.reboot()
    return {"live": live, "replayed": _image(ChunkStore.open(platform))}


def test_the_effects_touch_caches_and_accounting_as_before(any_mode):
    assert _effects_script(any_mode) == EFFECTS_BEFORE_THE_TABLE[any_mode]


def _fresh_ranks_script(monkeypatch):
    """A checkpointed three-level partition, its vector cache cold, then
    a commit of 20 ranks never written and one overwriting 2 written ones.
    Returns the ``ReadPath.descriptors`` calls of each commit and the
    per-segment live bytes after both."""
    store = ChunkStore.format(make_platform(), make_config(fanout=4))
    pid = _new_partition(store)
    _write(store, pid, range(40), size=200)
    store.checkpoint()
    store.cache.clear()  # nothing is dirty: the checkpoint just ran
    walks = []
    descriptors = ReadPath.descriptors

    def counted(self, state, cids):
        walks.append(state.pid)
        return descriptors(self, state, cids)

    monkeypatch.setattr(ReadPath, "descriptors", counted)
    counts = []
    for ranks in (range(40, 60), [0, 1]):
        del walks[:]
        _write(store, pid, ranks, tag=b"n", size=200)
        counts.append(walks.count(pid))
    live = {seg: n for seg, n in enumerate(store.segman.live_bytes) if n}
    return counts, live


def test_a_commit_of_fresh_ranks_walks_no_map(monkeypatch):
    """A rank its partition never committed names no live version: the
    commit retires nothing and walks nothing (a bulk load's every write
    used to), while an overwrite still walks to its old version; the
    live-byte books are the ones recorded before the skip."""
    counts, live = _fresh_ranks_script(monkeypatch)
    assert counts[0] == 0 and counts[1] > 0
    assert live == FRESH_RANKS_LIVE


#: ``_fresh_ranks_script``'s live bytes, run on the parent of the change
#: that skips the walk
FRESH_RANKS_LIVE = {0: 14050, 1: 10070, 2: 13372}


#: ``_effects_script`` run on the parent of the change that moved the
#: effects from ``ChunkStore._apply_*`` to ``PartitionTable``; the replayed
#: image since replay redoes the ``WritePartition`` reset as the live commit
#: did — it books exactly the live image's live bytes (it booked more while
#: replay kept the reset partition's old descriptors), and, dropping them,
#: caches and walks differently.  The cleaned segment is released at the
#: next checkpoint, as before
EFFECTS_BEFORE_THE_TABLE = {
    "counter": {
        "live": {
            "live": {"2": 89, "3": 3461},
            "used": {"1": 10339, "2": 4825, "3": 6542},
            "cache": [103, 91, 140],
            "walk": {"batches": 15, "chunk_batches": 0, "chunks_batch_fetched": 0, "map_chunks_fetched": 37, "round_trips_saved": 59},
        },
        "replayed": {
            "live": {"2": 89, "3": 3461},
            "used": {"0": 16338, "1": 10339, "2": 4825, "3": 6542},
            "cache": [6, 22, 0],
            "walk": {"batches": 12, "chunk_batches": 0, "chunks_batch_fetched": 0, "map_chunks_fetched": 29, "round_trips_saved": 46},
        },
    },
    "direct": {
        "live": {
            "live": {"2": 89, "3": 3461},
            "used": {"1": 10107, "2": 4440, "3": 6003},
            "cache": [103, 91, 140],
            "walk": {"batches": 15, "chunk_batches": 0, "chunks_batch_fetched": 0, "map_chunks_fetched": 37, "round_trips_saved": 59},
        },
        "replayed": {
            "live": {"2": 89, "3": 3461},
            "used": {"0": 15953, "1": 10107, "2": 4440, "3": 6003},
            "cache": [6, 22, 0],
            "walk": {"batches": 12, "chunk_batches": 0, "chunks_batch_fetched": 0, "map_chunks_fetched": 29, "round_trips_saved": 46},
        },
    },
}


# ---------------------------------------------------------------------------
# log order: the in-segment rule, for the cleaner too
# ---------------------------------------------------------------------------


def _store_with_a_cleanable_segment(mode="counter"):
    """A store whose emptiest cleanable segment holds, in its second half,
    the current version of a small chunk — and, elsewhere, a valid 12 KB
    version.  Returns ``(platform, store, pid, victim segment, rank of
    that chunk)``."""
    platform = make_platform()
    store = ChunkStore.format(platform, make_config(validation_mode=mode))
    pid = _new_partition(store)
    state = store._state(pid)
    for rank in range(41):
        state.allocate_specific(rank)
    for rank in range(40):
        store.commit([ops.WriteChunk(pid, rank, bytes([rank]) * 700)])
    store.commit([ops.WriteChunk(pid, 40, b"B" * 12 * 1024)])
    store.checkpoint()
    for rank in range(0, 12):  # obsolete versions: something to clean
        store.commit([ops.WriteChunk(pid, rank, b"again" * 100)])
    store.checkpoint()
    victim = store.segman.emptiest_cleanable_segment()
    assert victim is not None
    middle = store.segman.segment_start(victim) + store.segman.segment_size // 2
    locations = {
        rank: store._get_descriptor(data_id(pid, rank)).location for rank in range(40)
    }
    in_victim = [
        (location, rank)
        for rank, location in locations.items()
        if store.segman.segment_of(location) == victim
    ]
    location, rank = max(in_victim)
    assert location > middle
    return platform, store, pid, victim, rank


def test_cleaner_refuses_a_version_that_leaves_its_segment(any_mode):
    """Replay a valid 12 KB version's header over a current version near
    the end of a cleanable segment.  The cleaner used to believe the
    declared size, step past the segment end and release the segment —
    destroying the only evidence; recovery always refused such bytes."""
    platform, store, pid, victim, rank = _store_with_a_cleanable_segment(any_mode)
    header_size = store.codec.header_cipher_size
    big = store._get_descriptor(data_id(pid, 40))
    target = store._get_descriptor(data_id(pid, rank))
    platform.untrusted.tamper_write(
        target.location, platform.untrusted.tamper_read(big.location, header_size)
    )

    with pytest.raises(TamperDetectedError, match="crosses a segment boundary"):
        store.clean()
    assert not store._failed
    assert victim not in store.segman.free_segments
    assert store.segman.used_bytes[victim] > 0
    report = store.scrub(raise_on_first=False)
    assert f"{pid}:0.{rank}" in report["corrupt"]


class TestVersionReader:
    def _reader(self, store):
        return VersionReader(store.codec, store.reader, store.segman)

    def test_reads_what_the_descriptor_points_at(self):
        platform, store, pid, victim, rank = _store_with_a_cleanable_segment()
        descriptor = store._get_descriptor(data_id(pid, rank))
        header, header_ct, body_ct = self._reader(store).read(descriptor.location)
        assert header.chunk_id == data_id(pid, rank)
        assert len(header_ct) + len(body_ct) == descriptor.length
        assert bytes(header_ct) + bytes(body_ct) == platform.untrusted.tamper_read(
            descriptor.location, descriptor.length
        )

    def test_a_header_that_crosses_the_segment_end(self):
        platform, store, pid, victim, rank = _store_with_a_cleanable_segment()
        end = store.segman.segment_start(victim) + store.segman.segment_size
        with pytest.raises(TamperDetectedError, match="header crosses"):
            self._reader(store).read(end - store.codec.header_cipher_size + 1)

    @pytest.mark.parametrize("span_faults", [False, True])
    def test_a_body_that_crosses_the_segment_end(self, span_faults):
        """The same verdict from buffered slices and from per-version
        device reads (the route a faulted span read falls back to)."""
        platform, store, pid, victim, rank = _store_with_a_cleanable_segment()
        big = store._get_descriptor(data_id(pid, 40))
        target = store._get_descriptor(data_id(pid, rank))
        platform.untrusted.tamper_write(
            target.location,
            platform.untrusted.tamper_read(big.location, store.codec.header_cipher_size),
        )
        reader = self._reader(store)
        if span_faults:
            reader._spans[victim] = None
        with pytest.raises(TamperDetectedError, match="body crosses"):
            reader.read(target.location)

    def test_a_faulted_span_read_falls_back_to_per_version_reads(self):
        faults = FaultInjector(FaultConfig(), seed=0)
        platform = make_platform(faults=faults, clock=FakeClock())
        store = ChunkStore.format(platform, make_config())
        pid = _new_partition(store)
        _write(store, pid, range(4))
        store.checkpoint()
        descriptor = store._get_descriptor(data_id(pid, 2))
        segment = store.segman.segment_of(descriptor.location)
        buffered = self._reader(store).read(descriptor.location)
        # a dead sector in the segment's unused tail: the span read faults,
        # the versions themselves stay readable
        end = store.segman.segment_start(segment) + store.segman.segment_size
        faults.mark_bad(end - 64, 64)
        before = platform.untrusted.stats.snapshot()
        reader = self._reader(store)
        header, header_ct, body_ct = reader.read(descriptor.location)
        delta = platform.untrusted.stats.delta(before)
        assert reader._spans[segment] is None
        assert (header, bytes(header_ct), bytes(body_ct)) == (
            buffered[0], bytes(buffered[1]), bytes(buffered[2]),
        )
        assert delta.reads - delta.batched_reads == 2  # header, then body
        # and a version on the dead sector itself is an I/O fault, not tampering
        faults.mark_bad(descriptor.location, descriptor.length)
        with pytest.raises(IOFaultError):
            reader.read(descriptor.location)
