"""The chunk map stays resident — and that is a read-side change only.

* A three-level partition at the default ``cache_size`` never goes back to
  the device for a map chunk once a checkpoint has written its map: not
  for a commit's old-extent lookup, a checkpoint's read-back or a cleaner
  pass.  The same script under a one-vector cache books the same bytes,
  writes the same ``CleanerRecord``s and reads the same results, live and
  after a crash.
* The cleaner asks the map once per cleaned segment (one batch per member
  of each copy family) instead of once per scanned version: its survivors
  are the ones the per-version rule chose, recorded on the parent of that
  change, and an unreadable map chunk raises what it raised there.
* A store image written by that parent reopens and reads back.
"""

import base64
import gc
import json
import random
import weakref
import zlib
from pathlib import Path

import pytest

from repro.chunkstore import ChunkStore, StoreConfig, ops
from repro.chunkstore.cleaner import Cleaner
from repro.chunkstore.ids import SYSTEM_PARTITION, ChunkId, data_id
from repro.errors import QuarantineError, TamperDetectedError
from repro.platform import FakeClock, FaultConfig, FaultInjector
from tests.conftest import make_config, make_platform
from tests.test_traversals import _new_partition, _write, any_mode  # noqa: F401

FANOUT = 4


def _spy_on_rewrites(cleaner):
    """Record what each cleaner pass re-commits: per pass, the
    ``(chunk id, partitions where current)`` that go into its
    ``CleanerRecord``, in log order."""
    passes = []
    rewrite = cleaner._rewrite

    def recording(record, survivors):
        passes.append([(str(cid), list(pids)) for cid, _, pids in survivors])
        rewrite(record, survivors)

    cleaner._rewrite = recording
    return passes


def _books(store):
    segman = store.segman
    return {
        "live": {seg: n for seg, n in enumerate(segman.live_bytes) if n},
        "used": {seg: n for seg, n in enumerate(segman.used_bytes) if n},
    }


# ---------------------------------------------------------------------------
# residency is a read-side change only
# ---------------------------------------------------------------------------


def _residency_script(mode, **cache):
    """48 chunks under fanout 4 (three map levels), written and
    checkpointed — the warm-up — then 240 seeded commits of three writes
    (80 % to ten hot ranks) with a read each, three checkpoints and two
    cleaner passes after each of them."""
    platform = make_platform()
    config = make_config(
        fanout=FANOUT, validation_mode=mode, payload_cache_bytes=0,
        checkpoint_dirty_threshold=100_000, **cache,
    )
    store = ChunkStore.format(platform, config)
    pid = _new_partition(store)
    _write(store, pid, range(48), size=100)
    store.checkpoint()
    assert store._state(pid).payload.tree_height == 3

    rng = random.Random(5)
    rewrites = _spy_on_rewrites(store.cleaner)
    walk = store.stats()["walk"]["map_chunks_fetched"]
    device = platform.untrusted.stats.snapshot()
    reads, cleaned, checkpoints = [], [], 0
    for step in range(240):
        ranks = {
            rng.randrange(10) if rng.random() < 0.8 else rng.randrange(48)
            for _ in range(3)
        }
        _write(store, pid, sorted(ranks), tag=b"s%d-" % step, size=20)
        reads.append(store.read_chunk(pid, rng.randrange(48)))
        if step % 80 == 79:
            store.checkpoint()
            checkpoints += 1
            cleaned += [store.cleaner.clean_one() for _ in range(2)]
    assert checkpoints == 3 and len(cleaned) == 6 and None not in cleaned
    live = {
        "books": _books(store),
        "rewrites": rewrites,
        "reads": reads,
        "contents": store.read_chunks(pid, range(48)),
        "map_chunks_fetched": store.stats()["walk"]["map_chunks_fetched"] - walk,
        "device_reads": platform.untrusted.stats.delta(device).reads,
        "evictions": store.cache.evictions,
    }
    platform.reboot()
    reopened = ChunkStore.open(platform, config)
    replayed = {
        "books": _books(reopened),
        "contents": reopened.read_chunks(pid, range(48)),
    }
    return live, replayed


def test_the_map_stays_resident_and_nothing_else_changes(any_mode):
    live, replayed = _residency_script(any_mode)
    # after the warm-up no map chunk is read again; what the device still
    # serves is one read per data chunk asked for (the payload cache is
    # off: 240 single reads and the closing read of all 48) and one span
    # read per cleaned segment
    assert live["map_chunks_fetched"] == 0 and live["evictions"] == 0
    assert live["device_reads"] == 240 + 1 + 6
    assert sum(map(len, live["rewrites"])) > 0  # the cleaner had chunks to move

    starved, starved_replayed = _residency_script(any_mode, cache_size=FANOUT)
    assert starved["map_chunks_fetched"] > 240 and starved["evictions"] > 0
    for key in ("books", "rewrites", "reads", "contents"):
        assert starved[key] == live[key], key
    assert starved_replayed == replayed
    assert replayed["contents"] == live["contents"]


# ---------------------------------------------------------------------------
# the cleaner's liveness batch
# ---------------------------------------------------------------------------


def _pad_to_a_fresh_segment(store, pid, rank):
    """Write chunks ``rank``, ``rank + 1``, … of ``pid`` (all stay live)
    until the log tail sits in another segment."""
    segman = store.segman
    start = segman.segment_of(segman.tail_location)
    while segman.segment_of(segman.tail_location) == start:
        _write(store, pid, [rank], tag=b"pad", size=300)
        rank += 1
    return segman.segment_of(segman.tail_location)


def _batch_scenario(mode):
    """One segment that holds, of partition ``source``: three versions of
    chunk 1 (two obsolete, the third current only in ``copy``), a version
    of chunk 0 current only in ``copy``, versions current in both, and a
    current version whose header was replaced by a replay of its
    neighbour's; two versions of the deallocated partition ``doomed``; and
    the map chunks and leaders of the checkpoint ``CopyPartition`` forces.
    Returns ``(platform, faults, store, filler, source, copy, victim)``."""
    faults = FaultInjector(FaultConfig(), seed=0)
    platform = make_platform(faults=faults, clock=FakeClock())
    store = ChunkStore.format(
        platform,
        make_config(
            fanout=FANOUT, validation_mode=mode, checkpoint_dirty_threshold=100_000
        ),
    )
    segman = store.segman
    filler = _new_partition(store)
    source = _new_partition(store)
    doomed = _new_partition(store)
    _write(store, source, range(6, 20), size=200)  # three map levels
    victim = _pad_to_a_fresh_segment(store, filler, 0)
    _write(store, source, range(6), tag=b"a", size=50)
    _write(store, doomed, [0, 1], tag=b"d", size=50)
    _write(store, source, [1], tag=b"b", size=50)
    _write(store, source, [1], tag=b"c", size=50)
    copy = store.allocate_partition()
    store.commit([ops.CopyPartition(copy, source)])  # checkpoints first
    assert segman.segment_of(segman.tail_location) == victim + 1
    _write(store, source, [0, 1], tag=b"e", size=50)
    store.commit([ops.DeallocatePartition(doomed)])
    _write(store, source, range(20, 30), size=200)
    store.checkpoint()
    _pad_to_a_fresh_segment(store, filler, 100)
    store.checkpoint()  # the victim's successor leaves the residual log too
    assert store._state(source).payload.tree_height == 3
    assert segman.emptiest_cleanable_segment() == victim

    # replay chunk 3's header over chunk 2's (equal sizes): the scan now
    # meets "chunk 3" at a location chunk 3's descriptor does not name
    two, three = (store._get_descriptor(data_id(source, rank)) for rank in (2, 3))
    assert two.length == three.length
    assert segman.segment_of(two.location) == segman.segment_of(three.location) == victim
    platform.untrusted.tamper_write(
        two.location,
        platform.untrusted.tamper_read(three.location, store.codec.header_cipher_size),
    )
    return platform, faults, store, filler, source, copy, victim


#: ``_batch_scenario``'s victim cleaned on the parent of the change that
#: batched the probe (``Cleaner._current_partitions``: a ``copy_family``
#: walk and a single-id map walk per scanned version): what its one
#: ``CleanerRecord`` named, in log order, identical in both validation
#: modes and from a cold cache.  ``{f}`` / ``{s}`` / ``{c}`` are the ids of
#: the filler, source and copy partitions.
SURVIVORS_OF_THE_PER_VERSION_RULE = [
    ("{f}:0.5", ["{f}"]),  # the pad that opened the segment
    ("{s}:0.0", ["{c}"]),  # a0: overwritten in the source since the copy
    # a1 and b1 are current nowhere; a2 sits under the replayed header and
    # is scanned as a "chunk 3" that chunk 3's descriptor does not name
    ("{s}:0.3", ["{s}", "{c}"]),
    ("{s}:0.4", ["{s}", "{c}"]),
    ("{s}:0.5", ["{s}", "{c}"]),
    # d0 and d1 went with their partition
    ("{s}:0.1", ["{c}"]),  # c1, the third version of chunk 1 in the segment
    # what the copy's checkpoint wrote: the filler's map, then the source's
    # — which the copy shares, and alone still names where the source has
    # been written to since
    ("{f}:1.0", ["{f}"]),
    ("{f}:1.1", ["{f}"]),
    ("{f}:2.0", ["{f}"]),
    ("{s}:1.0", ["{c}"]),
    ("{s}:1.1", ["{s}", "{c}"]),
    ("{s}:1.2", ["{s}", "{c}"]),
    ("{s}:1.3", ["{s}", "{c}"]),
    ("{s}:1.4", ["{s}", "{c}"]),
    ("{s}:2.0", ["{c}"]),
    ("{s}:2.1", ["{c}"]),
    ("{s}:3.0", ["{c}"]),
]
#: named versions in that segment, leaders and the replayed header included
SCANNED = 27


@pytest.mark.parametrize("resident", [True, False], ids=["resident", "cold"])
def test_the_batch_keeps_the_survivors_of_the_per_version_rule(any_mode, resident):
    platform, faults, store, filler, source, copy, victim = _batch_scenario(any_mode)
    asked = (SYSTEM_PARTITION, filler, source, copy)
    if resident:
        for pid in asked[1:]:  # the copy's map has never been walked
            for rank in store.data_ranks(pid):
                store._get_descriptor(data_id(pid, rank))
    else:
        store.cache.clear()  # nothing is dirty: the checkpoint just ran
    cleaner = Cleaner(store)
    rewrites = _spy_on_rewrites(cleaner)
    before = platform.untrusted.stats.snapshot()
    batches = store.readpath.walk_batches
    assert cleaner.clean_one() == victim
    delta = platform.untrusted.stats.delta(before)

    names = {"f": filler, "s": source, "c": copy}
    assert rewrites == [
        [
            (cid.format(**names), [int(pid.format(**names)) for pid in pids])
            for cid, pids in SURVIVORS_OF_THE_PER_VERSION_RULE
        ]
    ]
    if resident:
        assert delta.reads == 1  # the segment's span, and no map chunk
    else:
        # one batch a level for each partition asked, however many of its
        # versions the segment holds (the per-version probe took 15)
        heights = [store._state(pid).payload.tree_height for pid in asked]
        assert store.readpath.walk_batches - batches == 11 <= sum(heights)
        assert delta.reads == delta.batched_reads == 1 + 11
    assert cleaner.stats() == {
        "cleaned_segments": 1,
        "versions_scanned": SCANNED,
        "rewritten_versions": len(SURVIVORS_OF_THE_PER_VERSION_RULE),
        "bytes_rewritten": cleaner.bytes_rewritten,
    }
    assert 0 < cleaner.bytes_rewritten < store.config.segment_size

    # the copy still reads what it held; chunk 2, which both name, was
    # lost to the replay, and both say so
    assert store.read_chunks(copy, (0, 1, 3, 4, 5)) == {
        0: b"a0" * 50, 1: b"c1" * 50, **{rank: b"a%d" % rank * 50 for rank in (3, 4, 5)}
    }
    assert store.read_chunks(source, (0, 1, 3)) == {
        0: b"e0" * 50, 1: b"e1" * 50, 3: b"a3" * 50
    }
    for pid in (source, copy):
        with pytest.raises(TamperDetectedError):
            store.read_chunk(pid, 2)


@pytest.mark.parametrize(
    "damage, error",
    # as on the parent: a dead extent quarantines, a flipped byte is tampering
    [("dead", QuarantineError), ("flipped", TamperDetectedError)],
)
def test_an_unreadable_map_chunk_stops_the_batch_as_it_stopped_the_probe(
    any_mode, damage, error
):
    platform, faults, store, filler, source, copy, victim = _batch_scenario(any_mode)
    leaf = store._get_descriptor(ChunkId(source, 1, 0))  # names chunks 0-3
    if damage == "dead":
        faults.mark_bad(leaf.location, leaf.length)
    else:
        at = leaf.location + leaf.length - 1
        flipped = platform.untrusted.tamper_read(at, 1)[0] ^ 1
        platform.untrusted.tamper_write(at, bytes([flipped]))
    store.cache.clear()
    used = store.segman.used_bytes[victim]
    tail = store.segman.tail_location
    with pytest.raises(error):
        Cleaner(store).clean_one()
    # nothing was rewritten and the victim was not released
    assert store.segman.tail_location == tail
    assert store.segman.used_bytes[victim] == used
    assert victim not in store.segman.free_segments


def test_the_store_has_one_cleaner_and_its_tallies_are_read(any_mode):
    platform, faults, store, filler, source, copy, victim = _batch_scenario(any_mode)
    assert store.stats()["cleaner"] == dict.fromkeys(
        ("cleaned_segments", "versions_scanned", "rewritten_versions", "bytes_rewritten"), 0
    )
    kinds = dict(store.stats()["log"]["bytes_by_kind"])
    assert store.clean() == 1
    tallies = store.stats()["cleaner"]
    assert tallies["cleaned_segments"] == 1 and tallies["versions_scanned"] == SCANNED
    assert tallies["rewritten_versions"] == len(SURVIVORS_OF_THE_PER_VERSION_RULE)
    # the re-commit is booked by kind like any other: a record, the moved
    # data and map chunks, and the set's commit chunk in counter mode
    moved = {
        kind: after - kinds[kind]
        for kind, after in store.stats()["log"]["bytes_by_kind"].items()
        if after != kinds[kind]
    }
    assert set(moved) - {"commit"} == {"cleaner_record", "data", "map"}
    assert sum(moved.values()) == tallies["bytes_rewritten"]
    assert Cleaner(store).cleaned_segments == 0  # a cleaner of one's own starts at 0
    # owning a cleaner does not tie the store into a reference cycle: a
    # dropped store frees its device at once, not at the next collection
    device = weakref.ref(platform.untrusted)
    gc.disable()
    try:
        del store, platform, faults
        assert device() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# an image written by the parent
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden" / "parent_image.json"


def write_parent_image(path=GOLDEN):
    """Run with the parent's ``src`` on ``PYTHONPATH`` to (re)write the
    golden image: per validation mode a small store — three map levels, a
    copy, a checkpoint, a cleaned segment and a residual log — crashed, as
    device bytes plus what the trusted hardware held."""
    images = {}
    for mode in ("counter", "direct"):
        platform = make_platform(size=256 * 1024)
        store = ChunkStore.format(
            platform,
            make_config(
                fanout=FANOUT, segment_size=8 * 1024, validation_mode=mode,
                checkpoint_dirty_threshold=100_000,
            ),
        )
        pid = _new_partition(store)
        _write(store, pid, range(40), size=30)
        copy = store.allocate_partition()
        store.commit([ops.CopyPartition(copy, pid)])
        _write(store, pid, range(0, 40, 3), tag=b"w", size=30)
        store.checkpoint()
        _write(store, pid, range(0, 40, 5), tag=b"x", size=30)
        store.checkpoint()
        assert Cleaner(store).clean_one() is not None
        _write(store, pid, [1, 2, 39], tag=b"y", size=30)  # the residual log
        platform.reboot()
        images[mode] = {
            "secret": platform.secret_store.read().hex(),
            "counter": platform.counter.read(),
            "tamper_resistant": platform.tamper_resistant.read().hex(),
            "pids": [pid, copy],
            "image": base64.b64encode(
                zlib.compress(platform.untrusted.tamper_image(), 9)
            ).decode("ascii"),
        }
    path.write_text(json.dumps(images, indent=1) + "\n")


def test_an_image_written_by_the_parent_reopens_and_reads_back(any_mode):
    golden = json.loads(GOLDEN.read_text())[any_mode]
    image = zlib.decompress(base64.b64decode(golden["image"]))
    platform = make_platform(size=len(image), secret=bytes.fromhex(golden["secret"]))
    platform.untrusted.tamper_replay(image)
    platform.tamper_resistant.write(bytes.fromhex(golden["tamper_resistant"]))
    platform.counter.advance_to(golden["counter"])
    store = ChunkStore.open(platform)
    assert store.config.cache_size == StoreConfig.cache_size  # runtime-only
    pid, copy = golden["pids"]

    def expected(rank, tags):
        return next(tag for tag, ranks in tags if rank in ranks) + b"%d" % rank

    source_tags = [
        (b"y", (1, 2, 39)), (b"x", range(0, 40, 5)), (b"w", range(0, 40, 3)),
        (b"v", range(40)),
    ]
    assert store.read_chunks(pid, range(40)) == {
        rank: expected(rank, source_tags) * 30 for rank in range(40)
    }
    assert store.read_chunks(copy, range(40)) == {
        rank: b"v%d" % rank * 30 for rank in range(40)
    }
    assert store.scrub(raise_on_first=False)["corrupt"] == []
    assert store.quarantined_chunks() == {}
    # and it goes on living: write, clean, checkpoint, reopen
    _write(store, pid, range(0, 40, 2), tag=b"z", size=30)
    store.checkpoint()
    store.clean(4)
    store.close()
    platform.reboot()
    assert ChunkStore.open(platform).read_chunk(pid, 4) == b"z4" * 30
