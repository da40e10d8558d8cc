"""The bench runner's floors (``python -m repro.bench --check``).

Every floor of every phase: a tiny run's results, with that one value
pushed just past its bound, make ``check`` fail with one ``FAIL`` line,
naming it.  A tiny run must pass the floors whose value does not depend
on timing; the wall-clock floors of a run this short, on a shared machine,
are CI's ``python -m repro.bench --tiny --check`` step's to enforce.
``BENCH.json`` records exactly the floors ``check`` evaluates.
"""

import copy
import json
import operator
from pathlib import Path

import pytest

from repro.bench.__main__ import PHASES, check, evaluate
from repro.bench.store_bench import CODEC_MIX
from repro.crypto import aead

ROOT = Path(__file__).resolve().parents[1]

DECLARED = [(phase, floor) for phase, module in PHASES.items() for floor in module.FLOORS]

#: the first path key of each tier that exists only with the AEAD backend
_AEAD_TIERS = {("crypto", "aead_ciphers"), ("store", "default")}

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
    "paper.fig10_count_error",
}


def _step(bound: float) -> float:
    return max(abs(bound) * 1e-3, 1e-3)


def _just_past(op: str, bound: float) -> float:
    step = _step(bound)
    return {">=": bound - step, ">": bound, "<=": bound + step, "<": bound}[op]


def _just_inside(op: str, bound: float) -> float:
    step = _step(bound)
    return {">=": bound, ">": bound + step, "<=": bound, "<": bound - step}[op]


def _set(results, path, value) -> None:
    *parents, last = path
    for key in parents:
        results = results[key]
    results[last] = value


def _passing(results):
    """A copy of ``results`` with every failing floor's value moved just
    inside its bound: a timed floor a loaded machine missed."""
    results = copy.deepcopy(results)
    for row in evaluate(results):
        if row["verdict"] != "pass":
            _set(results, row["path"], _just_inside(row["op"], row["bound"]))
    return results


def test_untimed_floors_are_declared():
    assert UNTIMED <= {f"{phase}.{floor.name}" for phase, floor in DECLARED}


@pytest.mark.parametrize(
    "phase, floor", DECLARED, ids=[f"{phase}.{floor.name}" for phase, floor in DECLARED]
)
def test_floor(tiny_bench, capsys, phase, floor):
    name = f"{phase}.{floor.name}"
    rows = [row for row in evaluate(tiny_bench) if row["name"].split("[")[0] == name]
    if not rows and (phase, floor.path[0]) in _AEAD_TIERS and not aead.available():
        pytest.skip("AEAD backend unavailable")
    assert rows, "the floor's path names nothing in a tiny run"
    passing = _passing(tiny_bench)
    for row in rows:
        if name in UNTIMED:
            assert row["verdict"] == "pass", row
        results = copy.deepcopy(passing)
        _set(results, row["path"], _just_past(row["op"], row["bound"]))
        capsys.readouterr()
        assert check(results) == 1
        fails = [line for line in capsys.readouterr().err.splitlines() if "FAIL" in line]
        assert len(fails) == 1 and fails[0].startswith(f"FAIL: {row['name']} is "), fails


def test_bench_json_records_exactly_the_floors_check_evaluates():
    recorded = json.loads((ROOT / "BENCH.json").read_text())
    floors = recorded.pop("floors")
    name = operator.itemgetter("name")
    assert sorted(floors, key=name) == sorted(evaluate(recorded), key=name)
    assert {row["name"].split("[")[0] for row in floors} == {
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
