"""The ``store`` phase of ``python -m repro.bench``: the chunk-store read
path, §9.2.2's operation costs, §2.2's scaling, §9.3's space, the design
ablations, the map walk's unit of work and the object codec.

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
  chunk (§10's batching: one round trip per read, one per batch);

on two partition-cipher tiers:

* the **slow tier** (pure-Python ``xtea-cbc`` + ``sha256``) — the
  configuration where the validated-payload cache's savings dominate
  timing noise, and the historical baseline every prior bench number used;
* the **default tier** (``aes-256-gcm``, when the AEAD backend is present)
  — the one-pass authenticated path, where the descriptor digest is the
  auth tag and the separate hash pass is skipped.

Then, once:

* ``chunk_ops`` — §9.2.2's chunk-store costs: allocate, the affine
  commit and read models (least squares), partition create and copy;
* ``read_scaling`` — §2.2's database sizes: warm, cold (map-climbing) and
  doubly cold reads and a commit at 500, 2,000 and 8,000 chunks, the
  growths, and a working set's descriptor-cache hit rate;
* ``space`` — §9.3: per-chunk overhead, the map's share, utilization
  before and after cleaning;
* ``ablation`` — DESIGN.md §5's design choices against their strawmen,
  in bytes written and TR writes;
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
* ``segment_table`` — the system leader's segment table of a
  3,072-segment device (``chunk_churn``'s) through ``SegmentTable``'s bulk
  varint calls and through the one-call-per-value route they replaced
  (kept below as the oracle): µs per decode and per encode, asserted to
  agree on bytes and values;
* ``object_path`` — counts, not times, of what the object layer does on
  the Figure 10 release mix: lock-manager acquisitions per object read
  (a transaction answers for the locks it already holds), entries into
  the lock manager's condition variable (none without contention) and
  Python-level hash or compare calls on ``ObjectRef`` (none: a ref is a
  tuple);
* ``device_path`` — counts and sizes, not times, of the untrusted device's
  read path: the transient peak of a whole-image capture over the image
  size (one copy: the device hands out one copy of every byte it reads)
  and the Python-level hash or compare calls on ``ChunkId`` per uncached
  ``read_chunk`` (none: an id is a tuple).
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import time
import tracemalloc
from typing import Callable, Dict, List

from repro import obs
from repro.bench import Floor, bench_config, best_of, fit, latency
from repro.bench.adapters import TdbAdapter
from repro.bench.workload import Workload
from repro.chunkstore import ChunkId, ChunkStore, StoreConfig, ops
from repro.chunkstore.descriptor import (
    ChunkDescriptor,
    ChunkStatus,
    decode_map_body,
)
from repro.chunkstore.leader import SegmentTable
from repro.crypto import accel
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
from repro.objectstore.store import Transaction
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
    # the segment table's bulk decode over the per-value route, on the
    # table every open of a 3,072-segment store reads
    Floor("segment_table.decode_ratio", ("segment_table", "decode_ratio"), ">=", 1.5),
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
    # a whole-image capture holds one copy of the image, not two
    Floor(
        "device_path.capture_peak_ratio", ("device_path", "capture_peak_ratio"),
        "<=", 1.05,
    ),
    # ChunkId hashes and compares in C
    Floor(
        "device_path.id_python_calls_per_read",
        ("device_path", "id_python_calls_per_read"), "<=", 0,
    ),
    # §10: a read costs one round trip to the device, a batch of them one
    Floor(
        "scan.single_round_trips_per_read", ("*", "scan", "single_round_trips_per_read"),
        "==", 1.0,
    ),
    Floor("scan.batched_round_trips", ("*", "scan", "batched_round_trips"), "==", 1),
    # §9.2.2: commit cost is affine in chunks and bytes, each term positive
    Floor("chunk_ops.commit_r_squared", ("chunk_ops", "commit", "r_squared"), ">", 0.9),
    Floor("chunk_ops.commit_per_chunk_us", ("chunk_ops", "commit", "per_chunk_us"), ">", 0),
    Floor("chunk_ops.commit_per_byte_us", ("chunk_ops", "commit", "per_byte_us"), ">", 0),
    Floor("chunk_ops.read_per_byte_us", ("chunk_ops", "read", "per_byte_us"), ">", 0),
    # copy-on-write: a partition copy does not scale with its source
    Floor("chunk_ops.copy_growth", ("chunk_ops", "partition", "copy_growth"), "<", 3.0),
    # §9.2.2: a cold read climbs the map, and pays for it
    Floor(
        "read_scaling.cold_over_warm", ("read_scaling", "sizes", "*", "cold_over_warm"),
        ">", 1.0,
    ),
    Floor(
        "read_scaling.map_chunks_per_cold_read",
        ("read_scaling", "sizes", "*", "map_chunks_per_cold_read"), ">=", 1.0,
    ),
    # §4.2: the embedded hash tree locates and validates in one traversal;
    # separate trees would pay a second
    Floor(
        "read_scaling.two_traversals_over_cold",
        ("read_scaling", "sizes", "*", "two_traversals_over_cold"), ">", 1.5,
    ),
    # §2.2: 16× the data, warm reads and commits flat, cold reads up by at
    # most a map level
    Floor("read_scaling.warm_read_growth", ("read_scaling", "growth", "warm_read"), "<", 3.0),
    Floor("read_scaling.commit_growth", ("read_scaling", "growth", "commit"), "<", 3.0),
    Floor("read_scaling.cold_read_growth", ("read_scaling", "growth", "cold_read"), "<", 4.0),
    # §2.2: a working set that fits the descriptor cache stays hit
    Floor(
        "read_scaling.working_set_hit_rate", ("read_scaling", "working_set_hit_rate"),
        ">", 0.99,
    ),
    # §9.3: tens of bytes per chunk, a small map, cleaning restores utilization
    Floor("space.per_chunk_overhead", ("space", "per_chunk_overhead_bytes"), "<", 200),
    Floor("space.map_over_data", ("space", "map_over_data"), "<", 0.2),
    Floor(
        "space.cleaning_raises_utilization", ("space", "utilization_before_cleaning"), "<", 1.0,
        of=("space", "utilization_after_cleaning"),
    ),
    Floor("space.utilization_after_cleaning", ("space", "utilization_after_cleaning"), ">", 0.5),
    # DESIGN.md §5: each design choice against its strawman
    Floor(
        "ablation.eager_over_deferred",
        ("ablation", "checkpoint_deferral", "eager_over_deferred"), ">", 2.0,
    ),
    Floor(
        "ablation.delta_ut_1_over_5", ("ablation", "delta_ut_tr_writes", "1"), ">", 1.0,
        of=("ablation", "delta_ut_tr_writes", "5"),
    ),
    Floor(
        "ablation.delta_ut_5_over_20", ("ablation", "delta_ut_tr_writes", "5"), ">", 1.0,
        of=("ablation", "delta_ut_tr_writes", "20"),
    ),
    Floor(
        "ablation.counter_over_direct", ("ablation", "validation_tr_writes", "counter"),
        "<", 0.5, of=("ablation", "validation_tr_writes", "direct"),
    ),
    Floor(
        "ablation.per_object_over_clustered",
        ("ablation", "object_per_chunk_bytes", "per_object"), "<", 1.0,
        of=("ablation", "object_per_chunk_bytes", "clustered"),
    ),
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

#: the partition cipher of the §9.2.2, §9.3 and ablation stores, and of
#: the single-tier sections without the AEAD backend
STORE_CIPHER = "ctr-sha256"

#: chunk body bytes of the tiers' reads
CHUNK_SIZE = 4096


def run(tiny: bool) -> Dict[str, object]:
    chunks, repeats = (8, 2) if tiny else (48, 5)  # ≤ 64 keeps the map one level
    results: Dict[str, object] = {"slow": _run_tier(chunks, repeats, PARTITION_CIPHER)}
    if accel.available():
        results["default"] = _run_tier(chunks, repeats, DEFAULT_AEAD_CIPHER)
    cipher = DEFAULT_AEAD_CIPHER if accel.available() else STORE_CIPHER
    results["map_load"] = run_map_load(2 if tiny else 8, cipher)
    results["chunk_ops"] = run_chunk_ops()
    results["read_scaling"] = run_read_scaling(cipher)
    results["space"] = run_space()
    results["ablation"] = run_ablation()
    results["object_codec"] = run_object_codec(20 if tiny else 200)
    results["segment_table"] = run_segment_table(20 if tiny else 200)
    results["object_path"] = run_object_path()
    results["device_path"] = run_device_path(cipher)
    return results


def _partitioned_store(
    cipher: str = STORE_CIPHER, hash_name: str = "sha1", untrusted_mib: int = 16, **config
):
    """A fresh in-memory store under :func:`bench_config` (``config``
    overriding it) with one data partition; returns ``(store, pid)``."""
    platform = TrustedPlatform.create_in_memory(untrusted_size=untrusted_mib * 1024 * 1024)
    store = ChunkStore.format(platform, bench_config(**config))
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name=cipher, hash_name=hash_name)])
    return store, pid


def _run_tier(chunks: int, repeats: int, cipher: str) -> Dict[str, object]:
    span_s = _operation_span_cost()  # for the obs-overhead estimate below
    obs.reset()  # per-phase histograms below cover this run only
    store, pid = _partitioned_store(cipher, PARTITION_HASH)
    platform = store.platform
    io = platform.untrusted.stats
    results: Dict[str, object] = {
        "chunks": chunks,
        "chunk_size": CHUNK_SIZE,
        "repeats": repeats,
        "partition_cipher": cipher,
        "partition_hash": PARTITION_HASH,
    }

    # -- write ---------------------------------------------------------------
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
        "single_round_trips_per_read": round(single_delta.reads / len(ranks), 3),
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


def _checkpointed_store(chunks: int, cipher: str, **config):
    """A store (payload cache off, ``config`` over the defaults) whose one
    partition holds ``chunks`` small chunks, checkpointed; returns
    ``(store, pid)``."""
    store, pid = _partitioned_store(cipher, PARTITION_HASH, payload_cache_bytes=0, **config)
    state = store.partitions[pid]
    for base in range(0, chunks, 128):
        batch = range(base, min(base + 128, chunks))
        for rank in batch:
            state.allocate_specific(rank)
        store.commit([ops.WriteChunk(pid, rank, b"%08d" % rank) for rank in batch])
    store.checkpoint()
    return store, pid


def run_steady_churn(cipher: str, map_chunks: int = 80, commits: int = 200) -> Dict[str, int]:
    """A count, not a timing: seeded 4-write commits with a checkpoint
    every 50, over a two-level map of more map chunks than the 64 the
    descriptor cache used to hold, at the default ``cache_size`` — how
    many map chunks come back off the device once the map is written."""
    chunks = map_chunks * StoreConfig.fanout
    store, pid = _checkpointed_store(chunks, cipher)
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
    store, pid = _checkpointed_store(map_chunks * fanout, cipher)
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
    (lookup_s,) = best_of([slot_lookup])
    results: Dict[str, object] = {
        "map_chunks": map_chunks,
        "map_levels": state.payload.tree_height,
        "partition_cipher": cipher,
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


def run_chunk_ops() -> Dict[str, object]:
    """§9.2.2's chunk-store costs on one store, payload cache off (the
    paper's system caches no payloads, and a warm re-read would otherwise
    touch neither the device nor the cipher): allocating a chunk id, the
    affine commit model fitted over commit sets of 1–64 chunks × 128 B–8 KiB,
    the cached-descriptor read fitted over chunk sizes, and creating and
    copying a partition, the copy at three source sizes."""
    store, pid = _partitioned_store(
        segment_size=256 * 1024, untrusted_mib=32, payload_cache_bytes=0
    )

    def allocate() -> None:
        for _ in range(2000):
            store.allocate_chunk(pid)

    def committing(count: int, size: int) -> Callable[[], None]:
        payload = b"\x42" * size

        def commit() -> None:
            ranks = [store.allocate_chunk(pid) for _ in range(count)]
            store.commit([ops.WriteChunk(pid, rank, payload) for rank in ranks])

        return commit

    sets = [
        (count, size) for count in (1, 4, 16, 64) for size in (128, 1024, 8192)
        if count * size <= 192 * 1024
    ]
    allocate_s, *commit_s = best_of([allocate] + [committing(*each) for each in sets], 3)
    commit = fit(
        [seconds * 1e6 for seconds in commit_s],
        [count for count, _ in sets], [count * size for count, size in sets],
    )

    sizes = (128, 512, 2048, 8192, 16384)
    ranks = [store.allocate_chunk(pid) for _ in sizes]
    store.commit([ops.WriteChunk(pid, rank, b"\x17" * size) for rank, size in zip(ranks, sizes)])
    for rank in ranks:  # descriptors cached
        store.read_chunk(pid, rank)
    read_s = best_of([lambda rank=rank: store.read_chunk(pid, rank) for rank in ranks])
    read = fit([seconds * 1e6 for seconds in read_s], sizes)

    def create() -> int:
        new = store.allocate_partition()
        store.commit([ops.WritePartition(new, cipher_name=STORE_CIPHER, hash_name="sha1")])
        return new

    def copying(count: int) -> Callable[[], None]:
        source = create()
        store.commit([ops.WriteChunk(source, store.allocate_chunk(source), b"d" * 200)
                      for _ in range(count)])
        store.checkpoint()
        return lambda: store.commit([ops.CopyPartition(store.allocate_partition(), source)])

    copies = (10, 100, 1000)
    create_s, *copy_s = best_of([create] + [copying(count) for count in copies], 5)
    store.close()
    copy_us = dict(zip(map(str, copies), (round(seconds * 1e6, 1) for seconds in copy_s)))
    return {
        "allocate_us": round(allocate_s / 2000 * 1e6, 3),
        "commit": {
            "fixed_us": round(commit["intercept"], 1),
            "per_chunk_us": round(commit["slopes"][0], 2),
            "per_byte_us": round(commit["slopes"][1], 4),
            "r_squared": round(commit["r_squared"], 4),
        },
        "read": {
            "fixed_us": round(read["intercept"], 1),
            "per_byte_us": round(read["slopes"][0], 4),
        },
        "partition": {
            "create_us": round(create_s * 1e6, 1),
            "copy_us": copy_us,
            # copy-on-write: 100× the source costs under 3× the copy, the
            # smaller copy padded by 0.01 s / 3 (an additive 10 ms of slack)
            "copy_growth": round(copy_s[-1] / (copy_s[0] + 0.01 / 3), 3),
        },
    }


#: §2.2's database sizes, chunks, over a 16-wide map (a level per 16×)
SCALING_SIZES = (500, 2000, 8000)
SCALING_FANOUT = 16


def run_read_scaling(cipher: str, working_set: int = 100) -> Dict[str, object]:
    """§2.2's "gradual degradation", on one checkpointed store per size
    (payload cache off, so a cold read climbs the map): a warm read, a
    cold one (descriptor cache cleared), two cold ones back to back (the
    separate location map and hash tree the embedded tree saves, §4.2)
    and a one-chunk commit; all sizes interleaved in one ``best_of``.  The
    growths pad the smallest size by the original additive slack over the
    bound.  Then a ``working_set`` of chunks re-read in the largest store
    keeps the descriptor cache's hit rate."""
    stores = {
        count: _checkpointed_store(count, cipher, fanout=SCALING_FANOUT)
        for count in SCALING_SIZES
    }
    reads: List[Callable[[], None]] = []
    for count, (store, pid) in stores.items():
        probe = count // 2
        store.read_chunk(pid, probe)

        def cold(store=store, pid=pid, probe=probe) -> None:
            store.cache.clear()
            store.read_chunk(pid, probe)

        def two_traversals(cold=cold) -> None:
            cold()
            cold()

        reads += [lambda store=store, pid=pid, probe=probe: store.read_chunk(pid, probe),
                  cold, two_traversals]
    fetched = {count: store.readpath.map_chunks_fetched for count, (store, _) in stores.items()}
    rounds = 5
    read_s = iter(best_of(reads, rounds))

    def committing(store, pid) -> Callable[[], None]:
        return lambda: store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"\x2e" * 200)])

    commit_s = iter(best_of([committing(*each) for each in stores.values()], rounds))
    sizes: Dict[str, Dict[str, float]] = {}
    for count, (store, _) in stores.items():
        warm, cold, two = (next(read_s) * 1e6 for _ in range(3))
        sizes[str(count)] = {
            "warm_read_us": round(warm, 1),
            "cold_read_us": round(cold, 1),
            "two_traversal_us": round(two, 1),
            "commit_us": round(next(commit_s) * 1e6, 1),
            "cold_over_warm": round(cold / warm, 2),
            "two_traversals_over_cold": round(two / cold, 2),
            "map_chunks_per_cold_read": round(
                (store.readpath.map_chunks_fetched - fetched[count]) / (3 * rounds), 2
            ),
        }
    small, large = sizes[str(SCALING_SIZES[0])], sizes[str(SCALING_SIZES[-1])]
    store, pid = stores[SCALING_SIZES[-1]]
    for rank in range(working_set):
        store.read_chunk(pid, rank)
    store.cache.hits = store.cache.misses = 0
    for _ in range(20):
        for rank in range(working_set):
            store.read_chunk(pid, rank)
    hit_rate = store.cache.hits / (store.cache.hits + store.cache.misses)
    for each, _ in stores.values():
        each.close(checkpoint=False)
    return {
        "fanout": SCALING_FANOUT,
        "sizes": sizes,
        "growth": {  # largest over smallest; slack: 100 µs, 100 µs, 1 ms
            "warm_read": round(large["warm_read_us"] / (small["warm_read_us"] + 100 / 3), 3),
            "commit": round(large["commit_us"] / (small["commit_us"] + 100 / 3), 3),
            "cold_read": round(large["cold_read_us"] / (small["cold_read_us"] + 1000 / 4), 3),
        },
        "working_set_hit_rate": round(hit_rate, 4),
    }


def run_space(chunks: int = 500, chunk_size: int = 512, rounds: int = 20) -> Dict[str, object]:
    """§9.3: the per-chunk overhead and the map's share of ``chunks``
    chunks of ``chunk_size`` bytes, and the log utilization before and
    after cleaning out ``rounds`` overwrites of 50 chunks."""
    store, pid = _partitioned_store(segment_size=256 * 1024)
    store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"\x66" * chunk_size)
                  for _ in range(chunks)])
    unmapped = store.live_bytes()
    store.checkpoint()  # writes the map chunks
    live = store.live_bytes()
    store.close()
    data = chunks * chunk_size

    store, pid = _partitioned_store()
    ranks = [store.allocate_chunk(pid) for _ in range(50)]
    store.commit([ops.WriteChunk(pid, rank, bytes(chunk_size)) for rank in ranks])
    for number in range(rounds):
        for rank in ranks:
            store.commit([ops.WriteChunk(pid, rank, bytes([number]) * chunk_size)])
    before = store.live_bytes() / store.stored_bytes()
    store.clean(max_segments=10_000)
    after = store.live_bytes() / store.stored_bytes()
    store.close()
    return {
        "per_chunk_overhead_bytes": round((live - data) / chunks, 1),
        "map_over_data": round((live - unmapped) / data, 4),
        "utilization_before_cleaning": round(before, 4),
        "utilization_after_cleaning": round(after, 4),
    }


def _churn(eager: bool = False, commits: int = 40, **config) -> Dict[str, int]:
    """Bytes written and TR writes while 8 chunks are overwritten one per
    commit, ``commits`` times; then a checkpoint, or (``eager``) one after
    every commit, which writes the map path each time."""
    store, pid = _partitioned_store(**config)
    platform = store.platform
    before = platform.untrusted.stats.snapshot()
    tr_before = platform.tamper_resistant.write_count + platform.counter.write_count
    ranks = [store.allocate_chunk(pid) for _ in range(8)]
    store.commit([ops.WriteChunk(pid, rank, bytes(300)) for rank in ranks])
    for number in range(commits):
        if eager:
            store.checkpoint()
        store.commit([ops.WriteChunk(pid, ranks[number % 8], bytes([number % 251]) * 300)])
    tr_writes = platform.tamper_resistant.write_count + platform.counter.write_count - tr_before
    store.checkpoint()
    written = platform.untrusted.stats.delta(before).bytes_written
    store.close()
    return {"bytes_written": written, "tr_writes": tr_writes}


def _update_volume(objects: int, object_size: int, clustered: bool) -> int:
    """Bytes written updating each of ``objects`` objects once, one commit
    each, with an object per chunk or all of them in one chunk."""
    store, pid = _partitioned_store()
    width = objects * object_size if clustered else object_size
    ranks = [store.allocate_chunk(pid) for _ in range(1 if clustered else objects)]
    store.commit([ops.WriteChunk(pid, rank, bytes(width)) for rank in ranks])
    before = store.platform.untrusted.stats.snapshot()
    for number in range(objects):
        rank = ranks[0 if clustered else number]
        store.commit([ops.WriteChunk(pid, rank, bytes([number]) * width)])
    written = store.platform.untrusted.stats.delta(before).bytes_written
    store.close()
    return written


def run_ablation() -> Dict[str, object]:
    """DESIGN.md §5's design choices against their strawmen, in bytes and
    TR writes: deferred checkpoints against map propagation on every
    commit (§4.7), the Δut lag window (§4.8.2.2), counter against direct
    validation, one object per chunk against a 16-object cluster (§7).
    The embedded hash tree's cold read is ``read_scaling``'s."""
    deferred = _churn()  # the design: counter mode, Δut = 5
    eager = _churn(eager=True)
    return {
        "checkpoint_deferral": {
            "deferred_bytes": deferred["bytes_written"],
            "eager_bytes": eager["bytes_written"],
            "eager_over_deferred": round(eager["bytes_written"] / deferred["bytes_written"], 2),
        },
        "delta_ut_tr_writes": {
            "1": _churn(delta_ut=1)["tr_writes"],
            "5": deferred["tr_writes"],
            "20": _churn(delta_ut=20)["tr_writes"],
        },
        "validation_tr_writes": {
            "direct": _churn(validation_mode="direct")["tr_writes"],
            "counter": deferred["tr_writes"],
        },
        "object_per_chunk_bytes": {
            "per_object": _update_volume(16, 200, clustered=False),
            "clustered": _update_volume(16, 200, clustered=True),
        },
    }


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


# The segment table's reference route: one ``Encoder.uint`` /
# ``Decoder.uint`` call per value, as ``SegmentTable`` coded before its bulk
# ``uints`` calls — kept here as the oracle the ``segment_table`` section and
# tests/test_codec.py / tests/test_parser_fuzz.py hold the bulk route to
# (same bytes, same values, same exception types).


def _reference_table_encode(table: SegmentTable, enc: Encoder) -> None:
    enc.uint(table.tail_segment)
    enc.uint(len(table.free_segments))
    for segment in table.free_segments:
        enc.uint(segment)
    enc.uint(len(table.used_bytes))
    for used in table.used_bytes:
        enc.uint(used)
    for live in table.live_bytes:
        enc.uint(live)
    enc.uint(len(table.residual_segments))
    for segment in table.residual_segments:
        enc.uint(segment)


def _reference_table_decode(dec: Decoder) -> SegmentTable:
    tail_segment = dec.uint()
    free_segments = [dec.uint() for _ in range(dec.uint())]
    count = dec.uint()
    used_bytes = [dec.uint() for _ in range(count)]
    live_bytes = [dec.uint() for _ in range(count)]
    residual = [dec.uint() for _ in range(dec.uint())]
    return SegmentTable(tail_segment, free_segments, used_bytes, live_bytes, residual)


def segment_table_sample(
    rng: random.Random, segments: int, segment_size: int = StoreConfig.segment_size
) -> SegmentTable:
    """A segment table shaped like a churned store's: a third of the
    segments free and empty, the rest partly used and partly live, and a
    short residual chain."""
    used = [0] * segments
    live = [0] * segments
    order = list(range(segments))
    rng.shuffle(order)
    free = order[: segments // 3]
    residual = order[segments // 3 : segments // 3 + 4]
    for segment in order[segments // 3 :]:
        used[segment] = rng.randrange(segment_size // 2, segment_size + 1)
        live[segment] = rng.randrange(used[segment] + 1)
    return SegmentTable(residual[-1], free, used, live, residual)


def run_segment_table(loops: int = 200, segments: int = 3072) -> Dict[str, object]:
    """The segment table of a ``segments``-segment store both ways: µs per
    decode and encode, bulk and reference, best of alternating rounds."""
    table = segment_table_sample(random.Random(7), segments)
    wire = Encoder()
    table.encode(wire)
    wire = wire.finish()
    reference = Encoder()
    _reference_table_encode(table, reference)
    assert reference.finish() == wire
    assert SegmentTable.decode(Decoder(wire)) == table == _reference_table_decode(Decoder(wire))

    def repeat(work) -> Callable[[], None]:
        def run_loops() -> None:
            for _ in range(loops):
                work()

        return run_loops

    seconds = best_of(
        [
            repeat(lambda: SegmentTable.decode(Decoder(wire))),
            repeat(lambda: _reference_table_decode(Decoder(wire))),
            repeat(lambda: table.encode(Encoder())),
            repeat(lambda: _reference_table_encode(table, Encoder())),
        ]
    )
    decode_us, reference_decode_us, encode_us, reference_encode_us = (
        round(each / loops * 1e6, 1) for each in seconds
    )
    return {
        "segments": segments,
        "bytes": len(wire),
        "decode_us": decode_us,
        "reference_decode_us": reference_decode_us,
        "encode_us": encode_us,
        "reference_encode_us": reference_encode_us,
        "decode_ratio": round(reference_decode_us / decode_us, 2),
        "encode_ratio": round(reference_encode_us / encode_us, 2),
    }


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
    manager's acquisitions per object read (a read being an object a
    transaction's ``get``, ``get_many`` or ``get_for_update`` returned),
    its condition variable's entries and the Python-level hash and compare
    calls ``ObjectRef`` ran."""
    adapter = TdbAdapter()
    workload = Workload(adapter)
    workload.setup()
    locks = adapter.objects.locks
    calls = [0]
    reads = 0

    def counted(acquire):
        def acquire_counted(tx_id, ref) -> None:
            calls[0] += 1
            acquire(tx_id, ref)

        return acquire_counted

    def read_counted(read, many: bool):
        def read_and_count(tx, arg):
            nonlocal reads
            value = read(tx, arg)
            reads += len(arg) if many else 1
            return value

        return read_and_count

    locks.acquire_shared = counted(locks.acquire_shared)
    locks.acquire_exclusive = counted(locks.acquire_exclusive)
    condition = locks._condition = _CountingCondition(locks._condition)
    originals = {
        name: vars(Transaction)[name] for name in ("get", "get_for_update", "get_many")
    }
    for name, read in originals.items():
        setattr(Transaction, name, read_counted(read, name == "get_many"))
    try:
        ref_calls = _python_calls(ObjectRef, lambda: workload.run_experiment("release"))
    finally:
        for name, read in originals.items():
            setattr(Transaction, name, read)
        adapter.close()
    return {
        "reads": reads,
        "manager_calls": calls[0],
        "manager_calls_per_read": round(calls[0] / reads, 3),
        "condition_entries": condition.entries,
        "ref_python_calls": ref_calls,
    }


def _python_calls(cls: type, work: Callable[[], object]) -> int:
    """Run ``work``, counting the calls it made to the Python-level hash
    and compare methods of ``cls`` (none when ``cls`` is a plain tuple)."""
    codes = {
        getattr(vars(cls).get(name), "__code__", None)
        for name in ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")
    } - {None}
    calls = 0

    def profile(frame, event, _arg) -> None:
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def run_device_path(cipher: str, chunks: int = 64) -> Dict[str, object]:
    """A store of ``chunks`` chunks, half of them rewritten since its
    checkpoint, read back with the payload cache off and the descriptors
    cached: the Python-level hash and compare calls ``ChunkId`` ran per
    ``read_chunk``, and the traced peak of copying the whole device image,
    over the image size."""
    store, pid = _partitioned_store(
        cipher, PARTITION_HASH, untrusted_mib=4, payload_cache_bytes=0
    )
    platform = store.platform
    payload = bytes(CHUNK_SIZE)
    store.commit(
        [ops.WriteChunk(pid, store.allocate_chunk(pid), payload) for _ in range(chunks)]
    )
    store.checkpoint()
    # half the reads below find their descriptor dirty, as under churn
    store.commit([ops.WriteChunk(pid, rank, payload) for rank in range(0, chunks, 2)])

    def read_all() -> None:
        for rank in range(chunks):
            store.read_chunk(pid, rank)

    read_all()  # warm the descriptor cache; payloads stay uncached
    id_calls = _python_calls(ChunkId, read_all)
    tracemalloc.start()
    try:
        image = platform.untrusted.durable_image()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store.close()
    return {
        "image_bytes": len(image),
        "capture_peak_bytes": peak,
        "capture_peak_ratio": round(peak / len(image), 3),
        "reads": chunks,
        "id_python_calls": id_calls,
        "id_python_calls_per_read": round(id_calls / chunks, 3),
    }
