"""The bench runner's floors (``python -m repro.bench --check``).

Every floor of every phase: the committed ``BENCH.json``'s results, with
that one value pushed just past its bound, make ``check`` fail with one
``FAIL`` line, naming it.  A tiny run of the two phases with untimed
floors, ``store`` and ``paper``, must pass every floor whose value does not
depend on timing.  The wall-clock floors, and that every floor's path names
something in a tiny run of every phase, are CI's
``python -m repro.bench --tiny --check`` step's to enforce.  ``BENCH.json``
records exactly the floors ``check`` evaluates.
"""

import copy
import json
import operator
from pathlib import Path

import pytest

from repro.bench.__main__ import PHASES, check, evaluate
from repro.bench.server_bench import SlowFlushStore
from repro.bench.store_bench import CODEC_MIX
from repro.crypto import accel

ROOT = Path(__file__).resolve().parents[1]

DECLARED = [(phase, floor) for phase, module in PHASES.items() for floor in module.FLOORS]

#: the floors on counts and sizes, which no machine's speed moves
UNTIMED = {
    "store.slow.warm_round_trips",
    "store.default.warm_round_trips",
    "store.map_load.resident_bytes",
    "store.map_load.churn_map_loads",
    "store.object_path.manager_calls_per_read",
    "store.object_path.condition_entries",
    "store.object_path.ref_python_calls",
    "store.device_path.capture_peak_ratio",
    "store.device_path.id_python_calls_per_read",
    "store.scan.single_round_trips_per_read",
    "store.scan.batched_round_trips",
    "store.read_scaling.map_chunks_per_cold_read",
    "store.read_scaling.working_set_hit_rate",
    "store.space.per_chunk_overhead",
    "store.space.map_over_data",
    "store.space.cleaning_raises_utilization",
    "store.space.utilization_after_cleaning",
    "store.ablation.eager_over_deferred",
    "store.ablation.delta_ut_1_over_5",
    "store.ablation.delta_ut_5_over_20",
    "store.ablation.counter_over_direct",
    "store.ablation.per_object_over_clustered",
    "paper.fig10_count_error",
    "paper.tdb_xdb_commit_io",
    "paper.tdb_xdb_flushes",
    "paper.tdb_xdb_bytes_written",
    "paper.fig9_below_chunk_store",
    "paper.range_answer_mismatches",
    "paper.range_xdb_scans_all",
    "paper.backup_bytes_per_updated",
    "paper.backup_incremental_over_full",
}


@pytest.fixture(scope="module")
def recorded():
    """The committed ``BENCH.json``'s results (copy before mutating)."""
    return json.loads((ROOT / "BENCH.json").read_text())


def _floor_name(row) -> str:
    return row["name"].split("[")[0]


def _just_past(op: str, bound: float) -> float:
    step = max(abs(bound) * 1e-3, 1e-3)
    return {">=": bound - step, ">": bound, "<=": bound + step, "<": bound, "==": bound + step}[op]


def _set(results, path, value) -> None:
    *parents, last = path
    for key in parents:
        results = results[key]
    results[last] = value


def _fail_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if "FAIL" in line]


def test_untimed_floors_are_declared():
    assert UNTIMED <= {f"{phase}.{floor.name}" for phase, floor in DECLARED}


@pytest.mark.parametrize("name", sorted(UNTIMED))
def test_untimed_floor_holds_in_a_tiny_run(tiny_bench, name):
    assert name.split(".")[0] in tiny_bench
    rows = [row for row in evaluate(tiny_bench) if _floor_name(row) == name]
    if not rows:  # evaluate() drops only an AEAD tier without its backend
        pytest.skip("AEAD backend unavailable")
    assert all(row["verdict"] == "pass" for row in rows), rows


@pytest.mark.parametrize(
    "phase, floor", DECLARED, ids=[f"{phase}.{floor.name}" for phase, floor in DECLARED]
)
def test_floor(recorded, capsys, phase, floor):
    name = f"{phase}.{floor.name}"
    section = {phase: recorded[phase]}
    rows = [row for row in evaluate(section) if _floor_name(row) == name]
    assert rows, "BENCH.json records no value for the floor"
    for row in rows:
        results = copy.deepcopy(section)
        _set(results, row["path"], _just_past(row["op"], row["bound"]))
        capsys.readouterr()
        assert check(results) == 1
        fails = _fail_lines(capsys)
        assert len(fails) == 1 and fails[0].startswith(f"FAIL: {row['name']} is "), fails


def test_a_floor_whose_path_names_nothing_fails(recorded, capsys):
    paper = copy.deepcopy(recorded["paper"])
    for experiment in paper["experiments"].values():
        experiment["speedup"] = experiment.pop("tdb_speedup")
    capsys.readouterr()
    assert check({"paper": paper}) == 1
    assert _fail_lines(capsys) == ["FAIL: paper.tdb_speedup is missing, must be > 1"]


@pytest.mark.parametrize("backend", [True, False], ids=["with-aead", "without-aead"])
def test_an_aead_tier_may_be_absent_only_without_its_backend(recorded, monkeypatch, backend):
    monkeypatch.setattr(accel, "available", lambda: backend)
    crypto = copy.deepcopy(recorded["crypto"])
    crypto["aead_ciphers"] = {}
    rows = [row for row in evaluate({"crypto": crypto}) if _floor_name(row) == "crypto.aead_mb_s"]
    assert [row["verdict"] for row in rows] == (["fail"] if backend else [])


def test_bench_json_records_exactly_the_floors_check_evaluates(recorded):
    recorded = copy.deepcopy(recorded)
    floors = recorded.pop("floors")
    name = operator.itemgetter("name")
    assert sorted(floors, key=name) == sorted(evaluate(recorded), key=name)
    assert {_floor_name(row) for row in floors} == {
        f"{phase}.{floor.name}" for phase, floor in DECLARED
    }
    assert all(row["verdict"] == "pass" for row in floors)


def test_store_phase_shape(tiny_bench):
    """What the store phase's numbers rest on, beyond its floors."""
    store = tiny_bench["store"]
    for tier in (tier for name, tier in store.items() if name in ("slow", "default")):
        assert tier["scan"]["batched_round_trips"] < tier["scan"]["single_round_trips"]
        for section in ("write", "cold_read", "warm_read", "uncached_read"):
            assert tier[section]["ops_per_sec"] > 0
    if "default" in store:  # one pass beats the slow two-pass tier outright
        assert (
            store["default"]["uncached_read"]["ops_per_sec"]
            > store["slow"]["uncached_read"]["ops_per_sec"]
        )
    map_load = store["map_load"]
    assert map_load["map_levels"] >= 2 and map_load["slot_lookup_us"] > 0
    churn = map_load["steady_churn"]  # a map larger than the old 64-vector cache
    assert churn["map_chunks"] > 64 and churn["checkpoints"] >= 2
    assert set(store["object_codec"]["shapes"]) == set(CODEC_MIX)
    for column in (0, 1):  # the shares of each mix add up
        assert sum(shares[column] for shares in CODEC_MIX.values()) == pytest.approx(1.0)


def test_slow_flush_device_counts_batched_reads_inside_a_flush():
    """A ``read_many`` is one round trip inside the flush window, as a
    ``read`` is: map-chunk loads and multi-extent fetches are batched."""
    device = SlowFlushStore(4096, flush_delay=0.0)
    device.read(0, 8)
    device.read_many([(0, 8), (64, 8)])
    assert device.reads_during_flush == 0
    device.flushing = True
    device.read(0, 8)
    device.read_many([(0, 8), (64, 8)])
    assert device.reads_during_flush == 2
