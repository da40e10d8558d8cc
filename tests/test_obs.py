"""The ``repro.obs`` layer: tracing spans, latency histograms, and the
structured event log, plus the end-to-end smoke workload."""

import threading
import time

import pytest

from repro import obs
from repro.obs.metrics import BUCKETS, LatencyHistogram
from repro.obs.trace import _NULL_SPAN, Tracer


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate each test from the process-global obs state."""
    obs.reset()
    obs.disable_tracing()
    yield
    obs.reset()
    obs.disable_tracing()


class TestTracing:
    def test_disabled_span_is_the_shared_null_object(self):
        assert obs.span("anything") is _NULL_SPAN
        assert obs.span("other", pid=3) is _NULL_SPAN
        with obs.span("noop"):
            pass
        assert obs.trace.records() == []

    def test_enabled_span_records_name_duration_tags(self):
        obs.enable_tracing()
        with obs.span("commit", ops=4):
            pass
        (record,) = obs.trace.records()
        assert record.name == "commit"
        assert record.tags == {"ops": 4}
        assert record.duration >= 0.0
        assert record.depth == 0 and record.parent is None

    def test_nesting_tracks_depth_and_parent(self):
        obs.enable_tracing()
        with obs.span("commit"):
            with obs.span("map_walk"):
                pass
        inner, outer = obs.trace.records()  # children finish first
        assert (inner.name, inner.depth, inner.parent) == ("map_walk", 1, "commit")
        assert (outer.name, outer.depth, outer.parent) == ("commit", 0, None)

    def test_ring_is_bounded_and_counts_drops(self):
        from repro.obs.trace import SpanRecord

        tracer = Tracer(capacity=4)
        for i in range(6):
            tracer.record(
                SpanRecord(
                    seq=i, name=f"s{i}", start=0.0, duration=0.0,
                    depth=0, parent=None, thread=0,
                )
            )
        assert len(tracer.records()) == 4
        assert tracer.dropped == 2

    def test_nesting_is_per_thread(self):
        obs.enable_tracing()
        seen = []

        def worker():
            with obs.span("other_thread"):
                pass
            seen.extend(r for r in obs.trace.records()
                        if r.name == "other_thread")

        with obs.span("main_thread"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        (record,) = seen
        assert record.depth == 0  # the main thread's open span is invisible


class TestSelfTime:
    """Spans keep nested-exclusive self time while tracing is on — the
    Figure 12 accounting (§9.5.3: 'the time reported for each module
    excludes nested calls to other reported modules')."""

    def test_inactive_keeps_no_state(self):
        with obs.span("layer.anything"):
            pass  # tracing off: the shared null span
        with obs.span("chunkstore.commit"):
            pass  # an operation span: one histogram sample, nothing else
        assert obs.trace.self_times() == {}
        assert obs.trace.records() == []

    def test_simple_attribution(self):
        obs.enable_tracing()
        with obs.span("a"):
            time.sleep(0.01)
        assert obs.trace.self_times()["a"] >= 0.009
        assert obs.metrics.histogram_for("a").count == 1

    def test_nested_time_is_exclusive(self):
        obs.enable_tracing()
        with obs.span("outer"):
            time.sleep(0.01)
            with obs.span("inner"):
                time.sleep(0.03)
            time.sleep(0.01)
        times = obs.trace.self_times()
        assert times["inner"] >= 0.029
        assert times["outer"] < 0.03  # inner time excluded

    def test_same_label_nested(self):
        obs.enable_tracing()
        with obs.span("x"):
            with obs.span("x"):
                time.sleep(0.005)
        (outer,) = [r for r in obs.trace.records() if r.depth == 0]
        assert obs.metrics.histogram_for("x").count == 2
        # both levels charge "x", and nothing is counted twice
        assert obs.trace.self_times()["x"] == pytest.approx(outer.duration)

    def test_exception_pops_cleanly(self):
        obs.enable_tracing()
        with pytest.raises(RuntimeError):
            with obs.span("failing"):
                raise RuntimeError()
        with obs.span("after"):
            pass
        assert set(obs.trace.self_times()) == {"failing", "after"}
        assert all(r.depth == 0 for r in obs.trace.records())

    def test_self_times_is_a_copy(self):
        obs.enable_tracing()
        with obs.span("m"):
            pass
        times = obs.trace.self_times()
        times["m"] = 999
        assert obs.trace.self_times()["m"] != 999

    def test_threads_keep_separate_stacks(self):
        obs.enable_tracing()
        parked = threading.Event()
        release = threading.Event()

        def worker():
            with obs.span("worker"):
                parked.set()
                assert release.wait(5)

        thread = threading.Thread(target=worker)
        with obs.span("main"):
            thread.start()
            assert parked.wait(5)
            time.sleep(0.02)  # "worker" is open on the other thread only
        release.set()
        thread.join(5)
        assert not thread.is_alive()
        records = {r.name: r for r in obs.trace.records()}
        assert records["worker"].depth == 0 and records["worker"].parent is None
        # nothing nested under "main" on its own thread: all of it is self
        assert obs.trace.self_times()["main"] == pytest.approx(
            records["main"].duration
        )

    def test_self_times_under_one_root_sum_to_its_duration(self):
        obs.enable_tracing()
        with obs.span("root"):
            for _ in range(3):
                with obs.span("child"):
                    time.sleep(0.002)
                    with obs.span("leaf"):
                        time.sleep(0.001)
                    with obs.span("leaf"):
                        pass
            time.sleep(0.002)
        (root,) = [r for r in obs.trace.records() if r.name == "root"]
        assert sum(obs.trace.self_times().values()) == pytest.approx(
            root.duration, rel=0.01
        )

    def test_chunk_store_attributes_layers(self):
        from repro.chunkstore import ChunkStore, ops
        from tests.conftest import make_config, make_platform

        platform = make_platform()
        store = ChunkStore.format(platform, make_config())
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
        )
        obs.enable_tracing()
        for _ in range(5):
            rank = store.allocate_chunk(pid)
            store.commit([ops.WriteChunk(pid, rank, b"x" * 500)])
        store.checkpoint()  # persist descriptors before dropping cache
        store.cache.clear()
        store.read_chunk(pid, 0)
        times = obs.trace.self_times()
        for name in (
            "chunkstore.commit", "chunkstore.read_chunk", "crypto.encrypt",
            "crypto.decrypt", "crypto.hash", "platform.untrusted.write",
            "platform.untrusted.read", "platform.tr.write",
        ):
            assert times[name] > 0.0, name


class TestHistograms:
    def test_bucket_math(self):
        hist = LatencyHistogram("t")
        hist.record(0.0)  # bucket 0
        hist.record(1e-6)  # 1 µs -> bucket 1
        hist.record(100e-6)  # 100 µs -> bucket 7 (64..128)
        assert hist.buckets[0] == 1
        assert hist.buckets[1] == 1
        assert hist.buckets[7] == 1
        assert hist.count == 3

    def test_percentile_is_bucket_upper_bound_clamped_to_max(self):
        hist = LatencyHistogram("t")
        for _ in range(100):
            hist.record(100e-6)
        # all samples in [64, 128) µs; the bucket bound is 128 µs but the
        # observed max is 100 µs — the report clamps to the max so a
        # percentile can never exceed it
        assert hist.percentile(0.50) == pytest.approx(100e-6)
        assert hist.percentile(0.99) == pytest.approx(100e-6)

    def test_percentile_never_exceeds_observed_max(self):
        # regression: the store bench's results (now BENCH.json's store
        # section) once reported chunkstore.commit p50_ms 65.5 against
        # max_ms 58.8 because percentiles were raw bucket upper bounds
        hist = LatencyHistogram("t")
        for _ in range(50):
            hist.record(0.0588)  # just past the 2^15 µs bucket boundary
        snap = hist.snapshot()
        assert snap["p50_s"] <= snap["max_s"]
        assert snap["p95_s"] <= snap["max_s"]
        assert snap["p99_s"] <= snap["max_s"]
        assert snap["p50_s"] == pytest.approx(0.0588)

    def test_percentile_clamp_keeps_upper_bound_bias(self):
        # mixed buckets: the mid-bucket quantile still reports its
        # bucket's upper bound (the max lives in a higher bucket, so the
        # clamp does not fire), preserving reported >= true quantile
        hist = LatencyHistogram("t")
        for _ in range(99):
            hist.record(100e-6)  # bucket (64, 128] µs
        hist.record(0.01)  # max in a much higher bucket
        assert hist.percentile(0.50) == pytest.approx(128e-6)

    def test_percentiles_monotone(self):
        hist = LatencyHistogram("t")
        for us in (1, 2, 4, 50, 400, 10_000):
            for _ in range(10):
                hist.record(us * 1e-6)
        snap = hist.snapshot()
        assert snap["p50_s"] <= snap["p95_s"] <= snap["p99_s"]
        assert snap["p99_s"] >= snap["max_s"] / 2  # ≤2× resolution bias

    def test_extreme_sample_clamps_to_last_bucket(self):
        hist = LatencyHistogram("t")
        hist.record(2.0 ** 60)
        assert hist.buckets[BUCKETS - 1] == 1

    def test_negative_duration_clamps_to_zero(self):
        hist = LatencyHistogram("t")
        hist.record(-1.0)
        assert hist.buckets[0] == 1
        assert hist.max_seconds == 0.0

    def test_span_feeds_histogram_of_the_same_name(self):
        # an operation span is timed with tracing off ...
        with obs.span("chunkstore.commit", ops=1):
            pass
        assert obs.metrics.histogram_for("chunkstore.commit").count == 1
        # ... any other span only while tracing is on
        with obs.span("unit.block"):
            pass
        assert obs.metrics.histogram_for("unit.block") is None
        obs.enable_tracing()
        with obs.span("unit.block"):
            pass
        assert obs.metrics.histogram_for("unit.block").count == 1


class TestEvents:
    def test_mark_and_since(self):
        obs.emit("alpha", n=1)
        mark = obs.events.mark()
        obs.emit("beta", n=2)
        tail = obs.events.since(mark)
        assert [e.kind for e in tail] == ["beta"]
        assert tail[0].fields == {"n": 2}

    def test_counts_survive_ring_eviction(self):
        from repro.obs.events import EventLog

        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("spin", i=i)
        assert len(log.events()) == 4
        assert log.count("spin") == 10

    def test_find_filters_by_kind(self):
        obs.emit("quarantine", chunk="1:0.3")
        obs.emit("repair", chunk="1:0.3")
        found = obs.events.find("quarantine")
        assert len(found) == 1 and found[0].fields["chunk"] == "1:0.3"


class TestSuspendReset:
    def test_suspend_noops_all_three_subsystems(self):
        obs.enable_tracing()
        with obs.suspend():
            obs.observe("unit.suspended", 0.001)
            obs.emit("suspended_event")
            assert obs.span("suspended_span") is _NULL_SPAN
            assert obs.span("chunkstore.commit") is _NULL_SPAN
        assert obs.metrics.histogram_for("unit.suspended") is None
        assert obs.events.count("suspended_event") == 0
        assert obs.trace.records() == []
        # and restores afterwards
        assert obs.trace.enabled()
        obs.observe("unit.after", 0.001)
        assert obs.metrics.histogram_for("unit.after").count == 1

    def test_reset_clears_but_keeps_tracing_state(self):
        obs.enable_tracing()
        obs.emit("unit_event")
        with obs.span("s"):
            pass
        obs.reset()
        assert obs.metrics.histogram_for("s") is None
        assert obs.events.counts() == {}
        assert obs.trace.records() == []
        assert obs.trace.self_times() == {}
        assert obs.trace.enabled()

    def test_snapshot_merges_events(self):
        obs.observe("unit.h", 0.001)
        obs.emit("unit_event")
        snap = obs.snapshot()
        assert snap["histograms"]["unit.h"]["count"] == 1
        assert snap["events"]["unit_event"] == 1


class TestSmokeWorkload:
    def test_smoke_main_passes(self):
        from repro.obs import smoke

        assert smoke.main() == 0

    def test_inspect_metrics_view_has_read_and_commit_percentiles(self):
        from repro.obs.smoke import run_workload
        from repro.tools.inspect import metrics_view, trace_view

        run_workload()
        view = metrics_view()
        for name in ("chunkstore.read", "chunkstore.commit"):
            hist = view["latency"][name]
            assert hist["count"] > 0
            assert 0 < hist["p50_ms"] <= hist["p95_ms"] <= hist["p99_ms"]
        spans = trace_view()
        assert spans["tracing_enabled"]
        assert any("commit" in line for line in spans["spans"])
