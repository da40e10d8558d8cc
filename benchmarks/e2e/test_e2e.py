"""Self-test of the end-to-end benchmark (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload at ``--tiny`` sizes in fresh processes, as the real
command does, and unit-tests the tracer's self-time arithmetic.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from tracer import DRIVER, Tracer  # noqa: E402

MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SINGLE_CLIENT = ("fig10_resident", "fig10_cold", "chunk_churn")


def run_all(out: Path, *extra: str) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
         "--seed", "7", "--out", str(out), *extra],
        check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Two same-seed runs of all four workloads; the first also traced."""
    folder = tmp_path_factory.mktemp("e2e")
    run_all(folder / "a.json", "--trace")
    seconds = run_all(folder / "b.json")
    first, second = (json.loads((folder / n).read_text()) for n in ("a.json", "b.json"))
    return first, second, seconds


def untraced(result, name):
    return next(r for r in result["workloads"][name]["runs"] if not r["traced"])


def test_tiny_runs_all_four_quickly_and_correctly(results):
    first, second, seconds = results
    assert seconds < 30
    for result in (first, second):
        assert result["correct"] and result["claim"] is None
        assert set(result["workloads"]) == {w["name"] for w in MANIFEST["workloads"]}
        for entry in result["workloads"].values():
            assert entry["ops_attempted"] > 0 and entry["ops_failed"] == 0
            for record in entry["runs"]:
                assert record["tamper_probe"]["ok"] and not record["mismatches"]
                assert record["environment"]["python"] and record["sizes"]


def test_every_declared_metric_is_emitted(results):
    first, _, _ = results
    for entry in first["workloads"].values():
        for kind in ("end_to_end", "per_layer"):
            emitted = entry["e2e" if kind == "end_to_end" else "per_layer"]
            assert set(emitted) == {m["name"] for m in MANIFEST[kind]}
            for metric in MANIFEST[kind]:
                assert emitted[metric["name"]]["unit"] == metric["unit"]
                assert math.isfinite(emitted[metric["name"]]["median"])
        for metric in MANIFEST["end_to_end"]:
            assert entry["e2e"][metric["name"]]["median"] > 0


def test_layer_table_adds_up_to_the_window(results):
    first, _, _ = results
    for name in SINGLE_CLIENT:
        record = next(r for r in first["workloads"][name]["runs"] if r["traced"])
        assert sum(record["layer_table"].values()) == pytest.approx(
            record["window_s"], rel=0.02
        )
    churn = first["workloads"]["chunk_churn"]["per_layer"]
    assert churn["collection.self_s"]["median"] == 0
    assert churn["chunkstore.clean.calls"]["median"] > 0


def test_same_seed_repeats_the_counts_exactly(results):
    first, second, _ = results
    for name in SINGLE_CLIENT:
        one, two = untraced(first, name), untraced(second, name)
        assert one["io"] == two["io"]
        for metric in ("write_kb_per_txn", "space_amp"):
            assert one["e2e"][metric]["value"] == two["e2e"][metric]["value"]


def test_compare_accepts_a_rerun_and_flags_a_regression(results):
    first, second, _ = results
    rows = compare.compare(first, second)
    counts = [r for r in rows if r["metric"] in ("write_kb_per_txn", "space_amp")
              and r["workload"] in SINGLE_CLIENT]
    assert counts and all(r["verdict"] == "within" for r in counts)
    slower = json.loads(json.dumps(second))
    stats = slower["workloads"]["chunk_churn"]["e2e"]["write_kb_per_txn"]
    for key in ("median", "q1", "q3"):
        stats[key] *= 2
    stats["values"] = [value * 2 for value in stats["values"]]
    assert any(r["verdict"] == "worse" for r in compare.compare(first, slower))


def test_a_different_seed_changes_the_operations():
    def churn(seed):
        return bench.build("chunk_churn", seed, True)._draw_writes(16)

    assert churn(7) == churn(7) and churn(7) != churn(11)

    def goods(seed):
        workload = bench.build("fig10_cold", seed, True)
        return workload.schema, [workload.rng.random() for _ in range(4)]

    assert goods(7) == goods(7) and goods(7) != goods(11)


def test_a_model_mismatch_fails_the_run(monkeypatch, capsys):
    honest = bench.ChunkChurn.expected

    def forged(self):
        expected = honest(self)
        expected[next(iter(expected))] = b"not what was written"
        return expected

    monkeypatch.setattr(bench.ChunkChurn, "expected", forged)
    assert run.main(["--workload", "chunk_churn", "--tiny"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["attempted"] > 0


# -- tracer arithmetic ---------------------------------------------------------


class Ticks:
    """A clock that returns the given instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_excludes_nested_children():
    #        driver 0..20, outer 1..11, inner 2..5
    tracer = Tracer(clock=Ticks(0, 1, 2, 5, 11, 20))
    inner = tracer.wrap("low.inner", lambda: None)
    outer = tracer.wrap("high.outer", lambda: inner())
    with tracer.thread():
        outer()
    trace = tracer.collect()
    assert trace.spans["low.inner"] == [1, 3, 3]
    assert trace.spans["high.outer"] == [1, 10, 7]
    assert trace.spans[DRIVER] == [1, 20, 10]
    assert trace.edges == {("high", "low"): 1, ("bench", "high"): 1}
    assert sum(trace.layer_table().values()) == 20


def test_self_time_excludes_every_sibling():
    #        driver 0..12, outer 1..11, first 2..4, second 6..9
    tracer = Tracer(clock=Ticks(0, 1, 2, 4, 6, 9, 11, 12))
    first = tracer.wrap("low.first", lambda: None)
    second = tracer.wrap("low.second", lambda: None)
    outer = tracer.wrap("high.outer", lambda: (first(), second()))
    with tracer.thread():
        outer()
    trace = tracer.collect()
    assert trace.spans["high.outer"] == [1, 10, 5]
    assert trace.layer_self_s("low") == 5
    assert trace.layer_calls("low") == 2


def test_threads_keep_their_own_stacks():
    tracer = Tracer()
    inside = threading.Barrier(2)
    work = tracer.wrap("layer.work", lambda: inside.wait(timeout=5))

    def client(number):
        with tracer.thread(number):
            tracer.next_op()
            work()

    threads = [threading.Thread(target=client, args=(n,)) for n in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
        assert not thread.is_alive()
    trace = tracer.collect()
    calls, total, self_s = trace.spans["layer.work"]
    # both spans were open at once; neither became the other's child
    assert calls == 2 and self_s == pytest.approx(total)
    assert trace.edges == {("bench", "layer"): 2}
    assert sorted(span["thread"] for span in trace.span_dicts()
                  if span["name"] == "layer.work") == [0, 1]


def test_untraced_threads_and_uninstall_leave_no_trace():
    class Thing:
        def poke(self):
            return "poked"

    tracer = Tracer()
    tracer.install(Thing, "poke", "layer.Thing.poke")
    assert Thing().poke() == "poked"  # no tracer.thread(): passes through
    assert not tracer.collect().spans
    tracer.uninstall()
    assert "__wrapped__" not in vars(Thing.poke)
