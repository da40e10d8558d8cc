"""One run of one workload: set-up, measured window, crash and recovery,
model check, tamper probe — untraced for the end-to-end metrics, or
traced for the per-layer ones.
"""

from __future__ import annotations

import gc
import json
import os
import platform as host
import resource
import subprocess
import sys
from pathlib import Path
from statistics import mean, median
from typing import Any, Dict, Optional

import layers
from churn import ChunkChurn, ChurnSizing
from fig10 import Fig10, Fig10Sizing
from harness import (
    CIPHER,
    HASH,
    Limit,
    Recorder,
    Speedometer,
    clock,
    percentile,
    crash,
    reopen,
    require_aead,
    tamper_probe,
)
from server_mixed import ServerMixed, ServerSizing
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
#: set-up is repeated and ``setup_s`` is the median, so one slow set-up
#: does not read as a regression; a set-up that takes many seconds is
#: steady enough that repeating it would only cost time
SETUP_REPEATS = 3
SETUP_BUDGET_S = 3.0

#: name -> (class, full sizing, --tiny sizing, why the workload is here)
WORKLOADS = {
    "fig10_resident": (
        Fig10,
        Fig10Sizing(per_collection=40, device_mib=16, clean_low_water=16,
                    warm_cache=True, cycles=12),
        Fig10Sizing(per_collection=12, device_mib=16, clean_low_water=16,
                    warm_cache=True, cycles=1),
        "Figure 10 mix at paper scale; working set fits every cache, so "
        "collection, objectstore and small commits do the work",
    ),
    "fig10_cold": (
        Fig10,
        Fig10Sizing(per_collection=500, device_mib=64, clean_low_water=None,
                    warm_cache=False, cycles=2, cycle_seconds=5.0),
        Fig10Sizing(per_collection=150, device_mib=16, clean_low_water=None,
                    warm_cache=False, cycles=1, cycle_seconds=5.0),
        "same mix over 15k objects, 4x the caches, so the chunk-store read "
        "path (map walk, validated read, decrypt) carries the reads",
    ),
    "chunk_churn": (
        ChunkChurn,
        ChurnSizing(chunks=100_000, chunk_bytes=1024, device_mib=192,
                    clean_low_water=160, verify_sample=1024, txns=2000),
        ChurnSizing(chunks=4000, chunk_bytes=1024, device_mib=8,
                    clean_low_water=8, verify_sample=512, txns=300),
        "ChunkStore alone, 100k chunks, 4-write commits at 60% log "
        "utilisation, so checkpoints and the cleaner run in steady state",
    ),
    "server_mixed": (
        ServerMixed,
        ServerSizing(objects=16_384, device_mib=64, ops_per_client=1000),
        ServerSizing(objects=1024, device_mib=16, ops_per_client=150),
        "concurrent sessions on a 2 ms flush: update txns beside snapshot "
        "batches and live reads, so group commit and locks matter",
    ),
}


def build(name: str, seed: int, tiny: bool):
    cls, full, small, _why = WORKLOADS[name]
    return cls(name, small if tiny else full, seed)


def make_limit(workload, seconds: Optional[float]) -> Limit:
    """The window: ``seconds`` on the clock, or the sizing's fixed count."""
    sizing = workload.sizing
    if seconds is not None:
        pinned = getattr(sizing, "cycle_seconds", None)
        if pinned is None:
            return Limit(seconds=seconds)
        return Limit(units=[max(1, round(seconds / pinned))])
    for field in ("cycles", "txns", "ops_per_client"):
        if hasattr(sizing, field):
            return Limit(units=[getattr(sizing, field)] * workload.clients)
    raise ValueError(f"{workload.name}: sizing names no window length")


def window(workload, limit: Limit, tracer: Optional[Tracer]):
    """Run the measured window; returns ``(recorder, wall seconds,
    counters before, counters after)``.  ``limit.speed`` has sampled the
    machine's speed meanwhile."""
    rec = Recorder()
    before = layers.counters(workload)
    gc.collect()
    limit.speed.tick(force=True)
    limit.start()
    start = clock()
    workload.run(limit, rec, tracer)
    seconds = clock() - start
    limit.speed.tick(force=True)
    return rec, seconds, before, layers.counters(workload)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def program_seconds(wall: float, rec: Recorder, limit: Limit, clients: int) -> float:
    """Wall time of a window less the time its clients spent sampling the
    machine's speed, at the reference machine's speed."""
    return (wall - rec.paused / clients) / limit.speed.slowdown()


def end_to_end(rec, seconds, slowdown, written, space_amp, setup_s, open_s, rss_kib):
    """``seconds``, ``setup_s`` and ``open_s`` are speed-corrected already;
    the read latency is corrected here by the window's ``slowdown``."""
    txns = len(rec.commit_s)
    return {
        "setup_s": _metric(median(setup_s), "s"),
        "txn_per_s": _metric(txns / seconds, "1/s"),
        "read_mean_us": _metric(mean(rec.read_s) / slowdown * 1e6, "us"),
        "recovery_s": _metric(median(open_s), "s"),
        "write_kb_per_txn": _metric(written / 1024 / max(txns, 1), "KiB"),
        "space_amp": _metric(space_amp, "ratio"),
        "peak_rss_mb": _metric(rss_kib / 1024, "MiB"),
    }


def git_commit() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def environment(workload) -> Dict[str, Any]:
    import cryptography

    return {
        "git_commit": git_commit(),
        "python": host.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "clients": workload.clients,
        "config": {
            "cipher": CIPHER,
            "hash": HASH,
            "validation_mode": workload.config.validation_mode,
            "delta_ut": workload.config.delta_ut,
            "flush_every_commit": workload.config.flush_every_commit,
            "object_cache": 4096,
            "descriptor_cache": workload.config.cache_size,
            "payload_cache_bytes": workload.config.payload_cache_bytes,
            "obs": "default",
        },
    }


def set_up(name: str, seed: int, tiny: bool, repeats: int):
    """Build and set up the workload up to ``repeats`` times (same seed, so
    the same store each time), while that fits ``SETUP_BUDGET_S``; returns
    the last one, every set-up time (speed-corrected) and the machine's
    slowdown during each."""
    workload, times, slowdowns, spent = None, [], [], 0.0
    while len(times) < repeats and spent < SETUP_BUDGET_S:
        workload = None  # drop the previous device before building the next
        workload = build(name, seed, tiny)
        speed = Speedometer()
        speed.tick()
        start = clock()
        workload.setup(speed)
        wall = clock() - start
        speed.tick(force=True)
        spent += wall
        slowdowns.append(speed.slowdown())
        times.append((wall - speed.spent) / speed.slowdown())
    return workload, times, slowdowns


def run_once(
    name: str, seed: int, seconds: Optional[float], trace: bool, tiny: bool
) -> Dict[str, Any]:
    require_aead()
    tracer = None
    untraced_s = 0.0
    if not trace:
        workload, setup_s, setup_slowdowns = set_up(name, seed, tiny, SETUP_REPEATS)
        limit = make_limit(workload, seconds)
    else:
        # the same operations, untraced first: the difference in wall
        # time is what the tracer costs
        baseline, _, _ = set_up(name, seed, tiny, 1)
        limit = make_limit(baseline, seconds)
        rec, wall, _, _ = window(baseline, limit, None)
        untraced_s = program_seconds(wall, rec, limit, baseline.clients)
        limit = Limit(units=rec.units_done)
        baseline = None
        workload, setup_s, setup_slowdowns = set_up(name, seed, tiny, 1)
        tracer = Tracer(keep_durations=[layers.COMMIT])
        layers.install(tracer)

    setup_image = workload.platform.untrusted.tamper_image()
    try:
        rec, seconds_run, before, after = window(workload, limit, tracer)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        space_amp = workload.store.stored_bytes() / workload.store.live_bytes()
        window_end = crash(workload)
        # the window is charged for the checkpoint it left undone
        written = workload.platform.untrusted.stats.bytes_written - before["io"].bytes_written
        if tracer is None:
            snapshot, open_s, corrected_open_s, wrong = reopen(workload)
        else:
            window_trace = tracer.collect()
            with tracer.thread():
                snapshot, open_s, corrected_open_s, wrong = reopen(workload, 1)
            reopen_trace = tracer.collect()
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe = tamper_probe(workload, snapshot, setup_image, seed)

    mismatches = rec.mismatches + wrong
    slowdown = limit.speed.slowdown()
    corrected_s = program_seconds(seconds_run, rec, limit, workload.clients)
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "tiny": tiny,
        "traced": trace,
        "seconds": seconds,
        "window_s": seconds_run,
        # timings below are divided by these (see harness.Speedometer)
        "machine_slowdown": {
            "setup": setup_slowdowns,
            "window": slowdown,
            "recovery": median(open_s) / median(corrected_open_s),
        },
        "raw": {
            "txn_per_s": len(rec.commit_s) / seconds_run,
            "read_mean_us": mean(rec.read_s or [0.0]) * 1e6,
            "recovery_s": median(open_s),
        },
        "units_done": rec.units_done,
        "sizes": workload.describe(),
        "environment": environment(workload),
        "ops_attempted": rec.attempted,
        "ops_failed": rec.failed,
        "errors": rec.errors,
        "mismatches": mismatches,
        "tamper_probe": probe,
        "window_end_open": window_end,
        "correct": not mismatches and probe["ok"],
        "samples": {
            "commit": len(rec.commit_s),
            "read": len(rec.read_s),
            "read_txn": len(rec.read_txn_s),
            "recovery": len(open_s),
            "setup": len(setup_s),
        },
        # medians and tails of the driver's timings (in the traced run they
        # are per-layer metrics; here they carry no tracing overhead)
        "latency": {
            "commit_mean_ms": mean(rec.commit_s or [0.0]) * 1e3,
            "commit_p50_ms": percentile(rec.commit_s, 0.5) * 1e3,
            "commit_p99_ms": percentile(rec.commit_s, 0.99) * 1e3,
            "read_p50_us": percentile(rec.read_s, 0.5) * 1e6,
            "read_p99_us": percentile(rec.read_s, 0.99) * 1e6,
            "read_txn_p50_us": percentile(rec.read_txn_s, 0.5) * 1e6,
        },
        "stale_snapshot_reads": rec.stale_reads,
        # device traffic of the window; repeats exactly on one client
        "io": vars(after["io"].delta(before["io"])),
    }
    if tracer is None:
        record["e2e"] = end_to_end(
            rec, corrected_s, slowdown, written, space_amp, setup_s,
            corrected_open_s, rss_kib,
        )
    else:
        metrics = layers.per_layer_metrics(
            window_trace, reopen_trace, before, after, len(rec.commit_s),
            rec, seconds_run, corrected_s, untraced_s,
        )
        record["per_layer"] = {
            key: _metric(value, unit) for key, (value, unit) in metrics.items()
        }
        record["layer_table"] = window_trace.layer_table()
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{name}.json").write_text(
            json.dumps({"workload": name, "seed": seed, "spans": window_trace.span_dicts()})
        )
    return record


def print_record(record: Dict[str, Any], out=sys.stdout) -> None:
    name = record["workload"]
    env = record["environment"]
    print(f"== {name} seed={record['seed']} traced={record['traced']} "
          f"window={record['window_s']:.2f}s units={record['units_done']}", file=out)
    print(f"   config: {env['config']}", file=out)
    print(f"   sizes: {record['sizes']}", file=out)
    for key, metric in {**record.get("e2e", {}), **record.get("per_layer", {})}.items():
        print(f"   {key:40s} {metric['value']:>16.4f} {metric['unit']}", file=out)
    print(f"   machine slowdown (timings above are divided by it): "
          f"{record['machine_slowdown']}", file=out)
    print(f"   uncorrected: {record['raw']}", file=out)
    print(f"   latency (uncorrected): {record['latency']}", file=out)
    print(f"   samples: {record['samples']}", file=out)
    print(f"   ops_attempted: {record['ops_attempted']}  ops_failed: {record['ops_failed']}"
          + (f"  first errors: {record['errors']}" if record["errors"] else ""), file=out)
    probe = record["tamper_probe"]
    print(f"   tamper_probe: {'ok' if probe['ok'] else 'FAILED'} "
          f"(replay detected={probe['replay_detected']}, {probe['detections']} "
          f"detections after {probe['flips']} flips)", file=out)
    print(f"   reopening the crash image of the window's end: {record['window_end_open']}",
          file=out)
    print(f"   model check: {'ok' if not record['mismatches'] else record['mismatches']}",
          file=out)
    table = record.get("layer_table")
    if table:
        threads = env["clients"]
        whole = record["window_s"] * threads
        print(f"   layer table ({name}; self seconds on {threads} client thread(s), "
              f"window {record['window_s']:.3f}s):", file=out)
        for layer in (*layers.LAYERS, "bench"):
            self_s = table.get(layer, 0.0)
            print(f"     {layer:12s} {self_s:10.4f} s  {self_s / whole:7.2%}", file=out)
        print(f"     {'sum':12s} {sum(table.values()):10.4f} s  "
              f"{sum(table.values()) / whole:7.2%} of the window", file=out)
