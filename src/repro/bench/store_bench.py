"""The ``store`` phase of ``python -m repro.bench``: the chunk-store read
path, the map walk's unit of work and the object codec.

Measures the chunk-store read path end-to-end on an in-memory platform:

* ``write`` — populate the store (one commit per small batch);
* ``recovery`` — close with a residual log and reopen (roll-forward
  reads each log segment in one ``read_many`` span);
* ``cold_read`` — first read of every chunk through ``read_chunks``:
  batched map walk + batched data-extent fetch, payload cache cold;
* ``warm_read`` — repeated re-reads served by the validated-payload
  cache (no device, cipher, or hasher work);
* ``uncached_read`` — the same repeated reads with the payload cache
  disabled (``payload_cache_bytes=0``): the pre-cache baseline;
* ``obs_overhead`` — what the always-on obs layer adds to an uncached read;
* ``scan`` — round-trip counts for a full scan, batched vs one read per
  chunk;

on two partition-cipher tiers:

* the **slow tier** (pure-Python ``xtea-cbc`` + ``sha256``) — the
  configuration where the validated-payload cache's savings dominate
  timing noise, and the historical baseline every prior bench number used;
* the **default tier** (``aes-256-gcm``, when the AEAD backend is present)
  — the one-pass authenticated path, where the descriptor digest is the
  auth tag and the separate hash pass is skipped.

Then, once:

* ``map_load`` — the map walk's unit of work on real map-chunk bodies of a
  two-level map: load one uncached map chunk and read one slot, and
  rewrite one with 4 dirty children, through ``MapVector`` and through the
  reference ``Decoder`` / ``Encoder`` route in the same process; what a
  resident vector costs (``resident_bytes_per_descriptor``, everything
  reachable from it) and what a lookup in one costs (``slot_lookup_us``);
  and a count: steady churn over a map of more than 64 map chunks at the
  default ``cache_size`` loads none of them back;
* ``object_codec`` — the object pickler's one-pass kernels beside the
  recursive ``Encoder`` / ``Decoder`` route they replaced (kept below as
  the oracle), µs per value each way on the value shapes the Figure 10
  workloads keep, weighted into the mix those workloads carry; the two
  routes are asserted to agree on every value timed;
* ``object_path`` — counts, not times, of what the object layer does on
  the Figure 10 release mix: lock-manager acquisitions per object read
  (a transaction answers for the locks it already holds), entries into
  the lock manager's condition variable (none without contention) and
  Python-level hash or compare calls on ``ObjectRef`` (none: a ref is a
  tuple).
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time
from typing import Callable, Dict, List

from repro import obs
from repro.bench import Floor, bench_config, best_of, latency
from repro.bench.adapters import TdbAdapter
from repro.bench.workload import Workload
from repro.chunkstore import ChunkId, ChunkStore, StoreConfig, ops
from repro.chunkstore.descriptor import (
    ChunkDescriptor,
    ChunkStatus,
    decode_map_body,
)
from repro.crypto import aead
from repro.errors import PicklingError
from repro.objectstore.pickling import (
    _MAX_DEPTH,
    _TAG_BYTES,
    _TAG_DICT,
    _TAG_FALSE,
    _TAG_FLOAT,
    _TAG_INT,
    _TAG_LIST,
    _TAG_NONE,
    _TAG_REF,
    _TAG_SET,
    _TAG_STR,
    _TAG_TRUE,
    _TAG_TUPLE,
    DEFAULT_REGISTRY,
    ObjectRef,
    pickle_value,
    unpickle_value,
)
from repro.platform.trusted_platform import TrustedPlatform
from repro.util.codec import MAX_UVARINT_BITS, Decoder, Encoder, zigzag

FLOORS = (
    # warm payload-cache reads over the uncached baseline — slow tier only:
    # an AEAD tier's uncached reads are fast enough that the cache's margin
    # over them is not the interesting number
    Floor("slow.warm_speedup", ("slow", "warm_speedup_vs_uncached"), ">=", 5.0),
    Floor(
        "slow.warm_round_trips", ("slow", "warm_read", "round_trips"), "<", 1.0,
        of=("slow", "cold_read", "round_trips"),
    ),
    Floor(
        "default.warm_round_trips", ("default", "warm_read", "round_trips"), "<", 1.0,
        of=("default", "cold_read", "round_trips"),
    ),
    # the always-on obs layer (tracing off) over obs suspended, %
    Floor("slow.obs_overhead_pct", ("slow", "obs_overhead", "overhead_pct"), "<=", 5.0),
    # ops/s: 3× the 132 ops/s the slow tier measured before the AEAD tier
    Floor(
        "default.uncached_ops_per_sec", ("default", "uncached_read", "ops_per_sec"),
        ">=", 400.0,
    ),
    # ``MapVector`` over the reference route on the same map-chunk bodies in
    # the same process — a ratio, so it does not track the machine
    Floor("map_load.load_one_slot", ("map_load", "load_one_slot", "ratio"), ">=", 3.0),
    Floor("map_load.rewrite_4_dirty", ("map_load", "rewrite_4_dirty", "ratio"), ">=", 3.0),
    # bytes a cached vector keeps resident per descriptor (wire form: ≈75)
    Floor(
        "map_load.resident_bytes", ("map_load", "resident_bytes_per_descriptor"),
        "<=", 128.0,
    ),
    # the map stays resident under steady churn
    Floor("map_load.churn_map_loads", ("map_load", "steady_churn", "map_loads"), "<=", 0),
    # the pickler's kernels over the reference route on the Figure 10 mix
    Floor("object_codec.encode_ratio", ("object_codec", "encode_ratio"), ">=", 2.0),
    Floor("object_codec.decode_ratio", ("object_codec", "decode_ratio"), ">=", 1.5),
    # lock-manager acquisitions per object read on the Figure 10 release
    # mix: every re-read of a held ref is answered by the transaction
    Floor(
        "object_path.manager_calls_per_read",
        ("object_path", "manager_calls_per_read"), "<=", 0.85,
    ),
    # no contention, so no acquisition enters the condition variable
    Floor("object_path.condition_entries", ("object_path", "condition_entries"), "<=", 0),
    # ObjectRef hashes and compares in C
    Floor("object_path.ref_python_calls", ("object_path", "ref_python_calls"), "<=", 0),
)

#: the Figure 10 shape mix: shape -> (share of the values a
#: ``fig10_resident`` window pickles, share of those a ``fig10_cold``
#: window unpickles), counted at seed 7 on the e2e benchmark
CODEC_MIX = {
    "member": (0.419, 0.830),
    "index_key": (0.246, 0.0),
    "btree_leaf": (0.219, 0.068),
    "hash_bucket": (0.055, 0.092),
    "collection": (0.051, 0.002),
    "btree_interior": (0.005, 0.005),
    "index_state": (0.005, 0.003),
}

#: the slow tier's cipher/hash: the slowest registered pair, i.e. the
#: configuration where the read path's crypto cost is most visible
PARTITION_CIPHER = "xtea-cbc"
PARTITION_HASH = "sha256"

#: the default tier's suite, run when the AEAD backend is present
DEFAULT_AEAD_CIPHER = "aes-256-gcm"

#: chunk body bytes of the tiers' reads
CHUNK_SIZE = 4096


def run(tiny: bool) -> Dict[str, object]:
    chunks, repeats = (8, 2) if tiny else (48, 5)  # ≤ 64 keeps the map one level
    results: Dict[str, object] = {"slow": _run_tier(chunks, repeats, PARTITION_CIPHER)}
    if aead.available():
        results["default"] = _run_tier(chunks, repeats, DEFAULT_AEAD_CIPHER)
    results["map_load"] = run_map_load(
        2 if tiny else 8, DEFAULT_AEAD_CIPHER if aead.available() else "ctr-sha256"
    )
    results["object_codec"] = run_object_codec(20 if tiny else 200)
    results["object_path"] = run_object_path()
    return results


def _run_tier(chunks: int, repeats: int, cipher: str) -> Dict[str, object]:
    span_s = _operation_span_cost()  # for the obs-overhead estimate below
    obs.reset()  # per-phase histograms below cover this run only
    platform = TrustedPlatform.create_in_memory(untrusted_size=16 * 1024 * 1024)
    io = platform.untrusted.stats
    results: Dict[str, object] = {
        "chunks": chunks,
        "chunk_size": CHUNK_SIZE,
        "repeats": repeats,
        "partition_cipher": cipher,
        "partition_hash": PARTITION_HASH,
    }

    # -- write ---------------------------------------------------------------
    store = ChunkStore.format(platform, bench_config())
    pid = store.allocate_partition()
    store.commit(
        [ops.WritePartition(pid, cipher_name=cipher, hash_name=PARTITION_HASH)]
    )
    payload = bytes(i & 0xFF for i in range(CHUNK_SIZE))
    before = io.snapshot()
    start = time.perf_counter()
    for base in range(0, chunks, 8):
        batch = range(base, min(base + 8, chunks))
        for rank in batch:
            store.partitions[pid].allocate_specific(rank)
        store.commit([ops.WriteChunk(pid, rank, payload) for rank in batch])
    elapsed = time.perf_counter() - start
    delta = io.delta(before)
    results["write"] = {
        "seconds": round(elapsed, 4),
        "ops_per_sec": round(chunks / elapsed, 1),
        "round_trips": delta.reads + delta.writes + delta.flushes,
    }
    store.checkpoint()
    # leave a residual log so recovery below has roll-forward work to do
    store.commit([ops.WriteChunk(pid, rank, payload) for rank in range(4)])
    store.close(checkpoint=False)

    # -- recovery ------------------------------------------------------------
    before = io.snapshot()
    start = time.perf_counter()
    store = ChunkStore.open(platform, bench_config())
    elapsed = time.perf_counter() - start
    delta = io.delta(before)
    results["recovery"] = {
        "seconds": round(elapsed, 4),
        "reads": delta.reads,
        "batched_reads": delta.batched_reads,
        "batched_extents": delta.batched_extents,
    }

    ranks = list(range(chunks))

    # -- cold read (payload cache empty, batched walk + fetch) ---------------
    before = io.snapshot()
    start = time.perf_counter()
    cold = store.read_chunks(pid, ranks)
    cold_elapsed = time.perf_counter() - start
    cold_delta = io.delta(before)
    assert all(cold[rank] == payload for rank in ranks)
    results["cold_read"] = {
        "seconds": round(cold_elapsed, 4),
        "ops_per_sec": round(chunks / cold_elapsed, 1),
        "round_trips": cold_delta.reads,
        "batched_reads": cold_delta.batched_reads,
        "batched_extents": cold_delta.batched_extents,
    }

    # -- warm read (validated-payload cache hot) -----------------------------
    before = io.snapshot()
    start = time.perf_counter()
    for _ in range(repeats):
        for rank in ranks:
            store.read_chunk(pid, rank)
    warm_elapsed = time.perf_counter() - start
    warm_delta = io.delta(before)
    results["warm_read"] = {
        "seconds": round(warm_elapsed, 4),
        "ops_per_sec": round(chunks * repeats / warm_elapsed, 1),
        "round_trips": warm_delta.reads,
    }
    results["payload_cache"] = store.payloads.stats()
    results["walk"] = store.stats()["walk"]
    store.close(checkpoint=False)

    # -- uncached baseline (payload cache disabled) --------------------------
    store = ChunkStore.open(platform, bench_config(payload_cache_bytes=0))
    for rank in ranks:  # warm the descriptor cache; payloads stay uncached
        store.read_chunk(pid, rank)
    before = io.snapshot()
    start = time.perf_counter()
    for _ in range(repeats):
        for rank in ranks:
            store.read_chunk(pid, rank)
    uncached_elapsed = time.perf_counter() - start
    uncached_delta = io.delta(before)
    results["uncached_read"] = {
        "seconds": round(uncached_elapsed, 4),
        "ops_per_sec": round(chunks * repeats / uncached_elapsed, 1),
        "round_trips": uncached_delta.reads,
    }

    # -- obs overhead: what the always-on layer adds to an uncached read -----
    # With tracing off the layer's whole cost on this path is the operation
    # spans a read enters (every other span is the same shared no-op whether
    # the layer is live or suspended).  Timing the loop live and suspended
    # and subtracting would measure that microsecond as the difference of
    # two passes dominated by milliseconds of cipher work — an estimator
    # whose run-to-run spread (−4.5 … +9.2 % on an overhead below 0.1 %)
    # is wider than the ceiling it is held to.  So measure the added work
    # itself: operation spans entered per read (counted here) × the cost of
    # entering one (``span_s``, measured in a tight loop up front), over
    # the per-read time of the same pass.  Thread CPU time, not wall
    # time: the overhead being bounded is CPU work, and a preemption must
    # not be charged to it.
    def _read_pass(loops: int) -> float:
        start = time.thread_time()
        for _ in range(loops):
            for rank in ranks:
                store.read_chunk(pid, rank)
        return time.thread_time() - start

    def _span_samples() -> int:
        histograms = obs.metrics.snapshot()["histograms"]
        return sum(snap["count"] for snap in histograms.values())

    # calibrate the pass length so timer resolution is negligible
    loops = 1
    while _read_pass(loops) < 0.01 and loops < 1024:
        loops *= 2
    samples_before = _span_samples()
    read_s = _read_pass(loops) / (loops * len(ranks))
    spans_per_read = (_span_samples() - samples_before) / (loops * len(ranks))
    added_s = spans_per_read * span_s
    results["obs_overhead"] = {
        "read_us": round(read_s * 1e6, 2),
        "spans_per_read": round(spans_per_read, 2),
        "span_us": round(span_s * 1e6, 3),
        "overhead_pct": round(added_s / (read_s - added_s) * 100.0, 2),
    }

    # -- scan round trips: batched vs one device read per chunk --------------
    before = io.snapshot()
    for rank in ranks:
        store.read_chunk(pid, rank)
    single_delta = io.delta(before)
    store.close(checkpoint=False)
    store = ChunkStore.open(platform, bench_config())
    store.read_chunks(pid, ranks[:1])  # prime descriptors via the walk
    store.payloads.clear()
    before = io.snapshot()
    store.read_chunks(pid, ranks)
    batched_delta = io.delta(before)
    results["scan"] = {
        "single_round_trips": single_delta.reads,
        "batched_round_trips": batched_delta.reads,
        "round_trips_saved": single_delta.reads - batched_delta.reads,
    }
    store.close()

    warm_ops = results["warm_read"]["ops_per_sec"]
    uncached_ops = results["uncached_read"]["ops_per_sec"]
    results["warm_speedup_vs_uncached"] = round(warm_ops / uncached_ops, 2)
    results["latency"] = latency()  # the obs histograms this tier fed
    return results


def _operation_span_cost(calls: int = 20000) -> float:
    """Seconds of CPU one always-on operation span costs over the same
    ``with`` under ``obs.suspend()`` (tracing off on both sides): what the
    live layer adds each time a read enters one.  Floods that span's
    histogram — call it ahead of an ``obs.reset()``."""

    def enter_spans() -> None:
        for _ in range(calls):
            with obs.span("chunkstore.read"):
                pass

    (live_s,) = best_of([enter_spans])
    with obs.suspend():
        (suspended_s,) = best_of([enter_spans])
    return max(0.0, live_s - suspended_s) / calls


def _reference_decode(body: bytes) -> List[ChunkDescriptor]:
    dec = Decoder(body)
    slots = [ChunkDescriptor.decode(dec) for _ in range(dec.uint())]
    dec.expect_exhausted()
    return slots


def _reference_encode(slots: List[ChunkDescriptor]) -> bytes:
    enc = Encoder().uint(len(slots))
    for descriptor in slots:
        descriptor.encode(enc)
    return enc.finish()


# The object pickler's reference route: the recursive ``Encoder`` /
# ``Decoder`` walk ``objectstore/pickling.py`` used before its one-pass
# kernels, over the plain-loop varints ``util/codec.py`` had before its
# one- and two-byte fast paths — kept here, and only here, as the oracle
# that the ``object_codec`` phase and tests/test_pickle_kernels.py hold
# both to (same bytes, same values, same exception types).  It shares no
# line with what it checks.


def _plain_encode_uvarint(value: int) -> bytes:
    if value < 0 or value >> MAX_UVARINT_BITS:
        raise ValueError(f"uvarint cannot encode {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _plain_decode_uvarint(data, offset: int = 0):
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated uvarint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ValueError("uvarint too long")


class _PlainEncoder(Encoder):
    def uint(self, value: int) -> "Encoder":
        self._parts.append(_plain_encode_uvarint(value))
        return self

    def int(self, value: int) -> "Encoder":
        return self.uint(zigzag(value))

    def bytes(self, value: bytes) -> "Encoder":
        return self.uint(len(value)).raw(value)


class _PlainDecoder(Decoder):
    def uint(self) -> int:
        value, self._pos = _plain_decode_uvarint(self._data, self._pos)
        return value


def _reference_pickle(value, registry=DEFAULT_REGISTRY) -> bytes:
    enc = _PlainEncoder()
    try:
        _reference_pickle_into(enc, value, registry, 0)
    except ValueError as exc:  # an int or a reference field no varint holds
        raise PicklingError(f"cannot pickle: {exc}") from exc
    return enc.finish()


def _reference_pickle_into(enc: Encoder, value, registry, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise PicklingError("object graph too deep (cycle?)")
    if value is None:
        enc.uint(_TAG_NONE)
    elif value is False:
        enc.uint(_TAG_FALSE)
    elif value is True:
        enc.uint(_TAG_TRUE)
    elif type(value) is int:
        enc.uint(_TAG_INT)
        enc.int(value)
    elif type(value) is float:
        enc.uint(_TAG_FLOAT)
        enc.float(value)
    elif type(value) is str:
        enc.uint(_TAG_STR)
        enc.text(value)
    elif type(value) is bytes:
        enc.uint(_TAG_BYTES)
        enc.bytes(value)
    elif type(value) is list or type(value) is tuple:
        enc.uint(_TAG_LIST if type(value) is list else _TAG_TUPLE)
        enc.uint(len(value))
        for item in value:
            _reference_pickle_into(enc, item, registry, depth + 1)
    elif type(value) is dict:
        enc.uint(_TAG_DICT)
        enc.uint(len(value))
        for key, item in value.items():
            _reference_pickle_into(enc, key, registry, depth + 1)
            _reference_pickle_into(enc, item, registry, depth + 1)
    elif type(value) is set:
        enc.uint(_TAG_SET)
        enc.uint(len(value))
        try:
            for item in sorted(value):
                _reference_pickle_into(enc, item, registry, depth + 1)
        except TypeError:  # unsortable members: in the order of their encodings
            encodings = []
            for item in value:
                member = _PlainEncoder()
                _reference_pickle_into(member, item, registry, depth + 1)
                encodings.append(member.finish())
            for encoding in sorted(encodings):
                enc.raw(encoding)
    elif type(value) is ObjectRef:
        enc.uint(_TAG_REF)
        enc.uint(value.partition)
        enc.uint(value.rank)
    else:
        tag = registry.tag_for(value)
        _cls, to_state, _from_state = registry.entry(tag)
        enc.uint(tag)
        _reference_pickle_into(enc, to_state(value), registry, depth + 1)


def _reference_unpickle(data, registry=DEFAULT_REGISTRY):
    dec = _PlainDecoder(data)
    try:
        value = _reference_unpickle_from(dec, registry, 0)
        dec.expect_exhausted()
    except (ValueError, TypeError) as exc:  # TypeError: an unhashable key or member
        raise PicklingError(f"corrupt pickle: {exc}") from exc
    return value


def _reference_unpickle_from(dec: Decoder, registry, depth: int):
    if depth > _MAX_DEPTH:
        raise PicklingError("pickled data too deeply nested")
    tag = dec.uint()
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_INT:
        return dec.int()
    if tag == _TAG_FLOAT:
        return dec.float()
    if tag == _TAG_STR:
        return dec.text()
    if tag == _TAG_BYTES:
        return dec.bytes()
    if tag == _TAG_LIST:
        return [_reference_unpickle_from(dec, registry, depth + 1) for _ in range(dec.uint())]
    if tag == _TAG_TUPLE:
        return tuple(
            _reference_unpickle_from(dec, registry, depth + 1) for _ in range(dec.uint())
        )
    if tag == _TAG_DICT:
        result = {}
        for _ in range(dec.uint()):
            key = _reference_unpickle_from(dec, registry, depth + 1)
            result[key] = _reference_unpickle_from(dec, registry, depth + 1)
        return result
    if tag == _TAG_SET:
        return {_reference_unpickle_from(dec, registry, depth + 1) for _ in range(dec.uint())}
    if tag == _TAG_REF:
        return ObjectRef(dec.uint(), dec.uint())
    cls, _to_state, from_state = registry.entry(tag)
    state = _reference_unpickle_from(dec, registry, depth + 1)
    try:
        value = from_state(state)
    except PicklingError:
        raise
    except Exception as exc:
        raise PicklingError(f"from_state for tag {tag} refused its state: {exc!r}") from exc
    if not isinstance(value, cls):
        raise PicklingError(f"from_state for tag {tag} returned {type(value).__name__}")
    return value


def _resident_bytes(root: object) -> int:
    """``sys.getsizeof`` of everything reachable from ``root`` (classes
    and modules aside): what keeping it cached keeps in memory."""
    seen = {id(root)}
    frontier = [root]
    total = 0
    while frontier:
        item = frontier.pop()
        total += sys.getsizeof(item)
        for referent in gc.get_referents(item):
            if id(referent) not in seen and not isinstance(referent, type):
                seen.add(id(referent))
                frontier.append(referent)
    return total


def _checkpointed_store(map_chunks: int, cipher: str):
    """A store at the default ``cache_size`` (payload cache off) whose one
    partition fills ``map_chunks`` leaf map chunks, checkpointed; returns
    ``(store, pid)``."""
    fanout = StoreConfig.fanout
    platform = TrustedPlatform.create_in_memory(untrusted_size=16 * 1024 * 1024)
    store = ChunkStore.format(platform, bench_config(payload_cache_bytes=0))
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name=cipher, hash_name=PARTITION_HASH)])
    state = store.partitions[pid]
    for base in range(0, map_chunks * fanout, fanout):
        for rank in range(base, base + fanout):
            state.allocate_specific(rank)
        store.commit(
            [ops.WriteChunk(pid, rank, b"%08d" % rank) for rank in range(base, base + fanout)]
        )
    store.checkpoint()
    return store, pid


def run_steady_churn(cipher: str, map_chunks: int = 80, commits: int = 200) -> Dict[str, int]:
    """A count, not a timing: seeded 4-write commits with a checkpoint
    every 50, over a two-level map of more map chunks than the 64 the
    descriptor cache used to hold, at the default ``cache_size`` — how
    many map chunks come back off the device once the map is written."""
    store, pid = _checkpointed_store(map_chunks, cipher)
    chunks = map_chunks * StoreConfig.fanout
    rng = random.Random(0)
    loaded = store.readpath.map_chunks_fetched
    checkpoints = 0
    for number in range(commits):
        store.commit(
            [ops.WriteChunk(pid, rng.randrange(chunks), b"%08d" % number) for _ in range(4)]
        )
        if number % 50 == 49:
            store.checkpoint()
            checkpoints += 1
    result = {
        "map_chunks": map_chunks + 1,
        "commits": commits,
        "checkpoints": checkpoints,
        "map_loads": store.readpath.map_chunks_fetched - loaded,
    }
    store.close(checkpoint=False)
    return result


def run_map_load(map_chunks: int, cipher: str, loops: int = 20) -> Dict[str, object]:
    """Time the map walk's two units of work on the leaf map chunks of a
    real two-level map, vector route beside reference route."""
    fanout = StoreConfig.fanout
    store, pid = _checkpointed_store(map_chunks, cipher)
    state = store.partitions[pid]
    assert state.payload.tree_height >= 2, "map_load needs at least two map levels"

    leaves = [ChunkId(pid, 1, rank) for rank in range(map_chunks)]
    bodies = store.readpath.read_validated(
        state, list(zip(leaves, store.readpath.descriptors(state, leaves)))
    )
    slot = fanout // 3
    dirty = {
        child: ChunkDescriptor(ChunkStatus.WRITTEN, 10**7 + child, 560, bytes(32))
        for child in (1, 17, 40, 63)
    }

    def load_all_cold() -> None:
        for rank in range(map_chunks):
            store.cache.clear()  # every load starts from the device
            store._get_descriptor(ChunkId(pid, 0, rank * fanout + slot))

    def vector_load() -> None:
        for _ in range(loops):
            for leaf, body in zip(leaves, bodies):
                decode_map_body(leaf, body, fanout)[slot]

    def reference_load() -> None:
        for _ in range(loops):
            for body in bodies:
                _reference_decode(body)[slot]

    vectors = [decode_map_body(leaf, body, fanout) for leaf, body in zip(leaves, bodies)]
    tuples = [tuple(_reference_decode(body)) for body in bodies]

    def vector_rewrite() -> None:
        for _ in range(loops):
            for vector in vectors:
                vector.replace(dirty).encode()

    def reference_rewrite_one(cached) -> bytes:
        slots = list(cached)
        for child, descriptor in dirty.items():
            slots[child] = descriptor
        return _reference_encode(slots)

    def reference_rewrite() -> None:
        for _ in range(loops):
            for cached in tuples:
                reference_rewrite_one(cached)

    for vector, cached in zip(vectors, tuples):  # the two routes agree
        assert list(vector) == list(cached)
        assert vector.replace(dirty).encode() == reference_rewrite_one(cached)

    def slot_lookup() -> None:
        for _ in range(loops):
            for vector in vectors:
                vector[slot]

    for vector in vectors:  # every slot looked up, as a long-lived vector's are
        list(vector)
    calls = loops * map_chunks
    cold_walk_s, lookup_s = best_of([load_all_cold, slot_lookup])
    results: Dict[str, object] = {
        "map_chunks": map_chunks,
        "map_levels": state.payload.tree_height,
        "partition_cipher": cipher,
        "store_cold_walk_us": round(cold_walk_s / map_chunks * 1e6, 1),
        "resident_bytes_per_descriptor": round(
            sum(map(_resident_bytes, vectors)) / (map_chunks * fanout), 1
        ),
        "slot_lookup_us": round(lookup_s / calls * 1e6, 2),
        "steady_churn": run_steady_churn(cipher),
    }
    for name, vector_work, reference_work in (
        ("load_one_slot", vector_load, reference_load),
        ("rewrite_4_dirty", vector_rewrite, reference_rewrite),
    ):
        vector_us, reference_us = (
            seconds / calls * 1e6 for seconds in best_of([vector_work, reference_work])
        )
        results[name] = {
            "vector_us": round(vector_us, 1),
            "reference_us": round(reference_us, 1),
            "ratio": round(reference_us / vector_us, 2),
        }
    store.close(checkpoint=False)
    return results


def figure_10_values(copies: int = 8) -> Dict[str, List[object]]:
    """``copies`` seeded instances of each value shape the Figure 10
    workloads keep (``benchmarks/e2e/fig10.py``, recorded from its runs):
    a member object, a hash-index key, a 32-key B-tree leaf, an interior
    node, a hash bucket, a collection's state and an index's state."""
    rng = random.Random(10)

    def ref() -> ObjectRef:
        return ObjectRef(1, rng.randrange(20_000))

    def keys(count: int) -> List[int]:
        return sorted(rng.sample(range(1000), count))

    build = {
        "member": lambda: {
            "type": "c%02d" % rng.randrange(30), "ident": rng.randrange(500),
            "price": rng.randrange(1000), "owner": rng.randrange(100),
            "status": rng.choice(("active", "pending", "expired")),
            "uses": rng.randrange(4), "payload": rng.randbytes(rng.randint(80, 300)),
        },
        "index_key": lambda: rng.randrange(500),
        "btree_leaf": lambda: {
            "leaf": True, "keys": keys(32),
            "vals": [[ref() for _ in range(rng.choice((1, 1, 1, 2, 3)))] for _ in range(32)],
        },
        "hash_bucket": lambda: {
            pickle_value(ident): [ref()] for ident in rng.sample(range(500), 16)
        },
        "collection": lambda: {
            "name": "c05", "indexes": {"c05_by_ident": ref(), "c05_by_price": ref()},
            "members_root": ref(), "size": rng.randrange(500),
        },
        "btree_interior": lambda: {
            "leaf": False, "keys": keys(18), "children": [ref() for _ in range(19)],
        },
        "index_state": lambda: {
            "name": "c02_by_ident", "keyfunc": "ident", "sorted": False,
            "buckets": [ref() if rng.random() < 0.8 else None for _ in range(32)],
        },
    }
    return {shape: [make() for _ in range(copies)] for shape, make in build.items()}


def run_object_codec(loops: int = 200) -> Dict[str, object]:
    """The object pickler's kernels beside the reference route, per
    Figure 10 shape and weighted into the mix the workloads carry:
    µs per value each way, and that the two routes agree."""
    results: Dict[str, object] = {"shapes": {}}
    mix = dict.fromkeys(
        ("encode_us", "reference_encode_us", "decode_us", "reference_decode_us"), 0.0
    )

    def repeat(work, inputs) -> Callable[[], None]:
        def run_loops() -> None:
            for _ in range(loops):
                for item in inputs:
                    work(item)

        return run_loops

    for shape, values in figure_10_values().items():
        wires = [pickle_value(value) for value in values]
        for value, wire in zip(values, wires):  # the two routes agree
            assert _reference_pickle(value) == wire
            assert unpickle_value(wire) == value == _reference_unpickle(wire)
        seconds = best_of(
            [
                repeat(pickle_value, values),
                repeat(_reference_pickle, values),
                repeat(unpickle_value, wires),
                repeat(_reference_unpickle, wires),
            ]
        )
        costs = [each / (loops * len(values)) * 1e6 for each in seconds]
        encode_share, decode_share = CODEC_MIX[shape]
        for name, cost in zip(mix, costs):
            mix[name] += cost * (decode_share if "decode" in name else encode_share)
        results["shapes"][shape] = {
            "bytes": round(sum(map(len, wires)) / len(wires), 1),
            **{name: round(cost, 2) for name, cost in zip(mix, costs)},
        }
    results["mix"] = {name: round(cost, 2) for name, cost in mix.items()}
    results["encode_ratio"] = round(mix["reference_encode_us"] / mix["encode_us"], 2)
    results["decode_ratio"] = round(mix["reference_decode_us"] / mix["decode_us"], 2)
    return results


class _CountingCondition:
    """A condition variable that counts the times it is entered or waited
    on, and otherwise is the one it wraps."""

    def __init__(self, inner: threading.Condition) -> None:
        self.inner = inner
        self.entries = 0

    def __enter__(self):
        self.entries += 1
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)

    def wait(self, timeout=None) -> bool:
        self.entries += 1
        return self.inner.wait(timeout)

    def notify_all(self) -> None:
        self.inner.notify_all()


def run_object_path() -> Dict[str, object]:
    """One Figure 10 release experiment on TDB (after the workload's own
    setup and cache warm-up), counting the object layer's calls: the lock
    manager's acquisitions per object read, its condition variable's
    entries and the Python-level hash and compare calls ``ObjectRef`` ran."""
    adapter = TdbAdapter()
    workload = Workload(adapter)
    workload.setup()
    objects = adapter.objects
    locks = objects.locks
    calls = [0]

    def counted(acquire):
        def acquire_counted(tx_id, ref) -> None:
            calls[0] += 1
            acquire(tx_id, ref)

        return acquire_counted

    locks.acquire_shared = counted(locks.acquire_shared)
    locks.acquire_exclusive = counted(locks.acquire_exclusive)
    condition = locks._condition = _CountingCondition(locks._condition)
    ref_codes = {  # the methods a Python-level ref class would hash and compare with
        getattr(vars(ObjectRef).get(name), "__code__", None)
        for name in ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")
    } - {None}
    ref_calls = [0]

    def profile(frame, event, _arg) -> None:
        if event == "call" and frame.f_code in ref_codes:
            ref_calls[0] += 1

    reads = objects.op_counts["read"]
    sys.setprofile(profile)
    try:
        workload.run_experiment("release")
    finally:
        sys.setprofile(None)
        adapter.close()
    reads = objects.op_counts["read"] - reads
    return {
        "reads": reads,
        "manager_calls": calls[0],
        "manager_calls_per_read": round(calls[0] / reads, 3),
        "condition_entries": condition.entries,
        "ref_python_calls": ref_calls[0],
    }
