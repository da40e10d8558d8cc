"""The bind/release digital-goods benchmark (§9.5.1, Figures 10–12).

The paper's benchmark "models two operations related to vending digital
goods":

* **Bind** — a vendor binds three alternative contracts to a digital good;
* **Release** — a consumer releases the digital good, selecting one of the
  three contracts randomly.

"The benchmark first creates 30 collections for different object types.
Each collection has one to four indexes.  The benchmark loads the cache
before executing an experiment.  The experiment consists of 10
consecutive bind or release operations."  Figure 10 fixes the operation
mix::

              read   update   delete   add   commit
    release    781      181       10     4       20
    bind       722      733       10   220       20

We treat Figure 10 as the *specification* of the workload: each
experiment executes exactly that many database operations, spread evenly
over the 10 bind/release operations (two transactions each — vendor-side
then ledger-side), with the touched objects drawn from the 30-collection
schema by a seeded RNG.  Running the same mix through the TDB adapter and
the XDB adapter (:func:`measure`) is what Figures 11 and 12 measure.
"""

from __future__ import annotations

import random
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro import obs
from repro.platform import DiskModel
from repro.platform.untrusted import IOStats

#: Figure 10 operation mix (totals over an experiment of 10 operations)
FIGURE_10 = {
    "release": {"read": 781, "update": 181, "delete": 10, "add": 4, "commit": 20},
    "bind": {"read": 722, "update": 733, "delete": 10, "add": 220, "commit": 20},
}

#: number of collections (§9.5.1)
COLLECTION_COUNT = 30
#: objects initially loaded per collection
INITIAL_OBJECTS = 40


@dataclass
class IndexSpec:
    """One index of a workload collection (field-extracting key)."""

    name: str
    field: str
    sorted_index: bool


@dataclass
class CollectionSpec:
    """One of the 30 workload collections and its 1–4 indexes."""

    name: str
    indexes: List[IndexSpec]


def make_schema(seed: int = 7) -> List[CollectionSpec]:
    """30 collections with 1–4 indexes each (deterministic)."""
    rng = random.Random(seed)
    base_names = [
        "vendors", "goods", "contracts", "accounts", "licenses",
        "usage_records", "keys", "certificates", "offers", "receipts",
        "devices", "users", "policies", "royalties", "bundles",
        "coupons", "regions", "currencies", "taxes", "disputes",
        "refunds", "trials", "subscriptions", "meters", "quotas",
        "events", "sessions", "tokens", "grants", "audits",
    ]
    schema = []
    for name in base_names[:COLLECTION_COUNT]:
        index_count = rng.randint(1, 4)
        fields = ["ident", "price", "owner", "status"][:index_count]
        indexes = [
            IndexSpec(
                name=f"{name}_by_{field_name}",
                field=field_name,
                # first index unsorted (exact match), later ones sorted
                sorted_index=(position > 0),
            )
            for position, field_name in enumerate(fields)
        ]
        schema.append(CollectionSpec(name, indexes))
    return schema


def make_object(rng: random.Random, collection: str, ident: int) -> Dict[str, Any]:
    """A synthetic digital-goods object (~150–400 bytes pickled)."""
    return {
        "type": collection,
        "ident": ident,
        "price": rng.randint(0, 999),
        "owner": rng.randint(0, 99),
        "status": rng.choice(["active", "pending", "expired"]),
        "uses": 0,
        "payload": bytes(rng.getrandbits(8) for _ in range(rng.randint(80, 300))),
    }


class DBAdapter(ABC):
    """What the workload needs from a database system (TDB or XDB)."""

    #: the untrusted device's traffic tally
    stats: IOStats

    def __init__(self) -> None:
        self.op_counts = {"read": 0, "update": 0, "delete": 0, "add": 0, "commit": 0}

    @abstractmethod
    def create_collection(self, spec: CollectionSpec) -> Any: ...

    @abstractmethod
    def begin(self) -> None: ...

    @abstractmethod
    def commit(self) -> None: ...

    @abstractmethod
    def insert(self, coll: Any, obj: Dict[str, Any]) -> Any: ...

    @abstractmethod
    def read(self, coll: Any, handle: Any) -> Dict[str, Any]: ...

    def peek(self, coll: Any, handle: Any) -> Dict[str, Any]:
        """Fetch an object's current value *without* counting a read —
        used by the update path, whose implicit fetch is part of the
        update in Figure 10's accounting (bind has more updates than
        reads, so updates cannot each imply a counted read)."""
        counts = dict(self.op_counts)
        value = self.read(coll, handle)
        self.op_counts.update(counts)
        return value

    @abstractmethod
    def update(self, coll: Any, handle: Any, obj: Dict[str, Any]) -> None: ...

    @abstractmethod
    def delete(self, coll: Any, handle: Any) -> None: ...

    @abstractmethod
    def exact(self, coll: Any, index_name: str, key: Any) -> List[Any]: ...

    @abstractmethod
    def stored_bytes(self) -> int: ...

    @abstractmethod
    def tr_writes(self) -> int:
        """Writes to tamper-resistant storage so far."""


@dataclass
class _LiveSet:
    """The workload's view of which objects exist."""

    handles: Dict[str, List[Any]] = field(default_factory=dict)
    next_ident: int = 100000

    def pick(self, rng: random.Random, collection: str) -> Any:
        return rng.choice(self.handles[collection])

    def add(self, collection: str, handle: Any) -> None:
        self.handles[collection].append(handle)

    def remove(self, rng: random.Random, collection: str) -> Any:
        handles = self.handles[collection]
        index = rng.randrange(len(handles))
        return handles.pop(index)


class Workload:
    """Builds the schema and runs bind/release experiments on an adapter."""

    def __init__(self, adapter: DBAdapter, seed: int = 7) -> None:
        self.adapter = adapter
        self.schema = make_schema(seed)
        self.rng = random.Random(seed * 31 + 1)
        self.collections: Dict[str, Any] = {}
        self.live = _LiveSet()

    # ------------------------------------------------------------------

    def setup(self) -> None:
        """Create the 30 collections and the initial population."""
        adapter = self.adapter
        adapter.begin()
        for spec in self.schema:
            self.collections[spec.name] = adapter.create_collection(spec)
        adapter.commit()
        for spec in self.schema:
            adapter.begin()
            self.live.handles[spec.name] = []
            for ident in range(INITIAL_OBJECTS):
                obj = make_object(self.rng, spec.name, ident)
                handle = adapter.insert(self.collections[spec.name], obj)
                self.live.add(spec.name, handle)
            adapter.commit()
        # "the benchmark loads the cache before executing an experiment"
        self.warm_cache()
        for key in adapter.op_counts:
            adapter.op_counts[key] = 0

    def warm_cache(self) -> None:
        adapter = self.adapter
        adapter.begin()
        for name, handles in self.live.handles.items():
            for handle in handles:
                adapter.read(self.collections[name], handle)
        adapter.commit()

    # ------------------------------------------------------------------

    def run_experiment(self, kind: str, operations: int = 10) -> Dict[str, int]:
        """Run ``operations`` bind or release operations; returns the
        observed operation counts (compare with Figure 10)."""
        mix = FIGURE_10[kind]
        budgets = {
            op: _spread(total, operations) for op, total in mix.items() if op != "commit"
        }
        commits_per_op = mix["commit"] // operations
        for index in range(operations):
            self._one_operation(
                kind,
                reads=budgets["read"][index],
                updates=budgets["update"][index],
                deletes=budgets["delete"][index],
                adds=budgets["add"][index],
                commits=commits_per_op,
            )
        return dict(self.adapter.op_counts)

    def _one_operation(
        self,
        kind: str,
        reads: int,
        updates: int,
        deletes: int,
        adds: int,
        commits: int,
    ) -> None:
        """One bind or release: the op mix split across ``commits``
        transactions (vendor-side work, then ledger-side work)."""
        adapter = self.adapter
        rng = self.rng
        read_split = _spread(reads, commits)
        update_split = _spread(updates, commits)
        delete_split = _spread(deletes, commits)
        add_split = _spread(adds, commits)
        for phase in range(commits):
            adapter.begin()
            # reads: browse the catalog — exact-match lookups plus direct
            # object reads across the schema
            for _ in range(read_split[phase]):
                spec = rng.choice(self.schema)
                if rng.random() < 0.15:
                    index = spec.indexes[0]
                    hits = adapter.exact(
                        self.collections[spec.name], index.name, rng.randrange(40)
                    )
                    if hits:
                        adapter.read(self.collections[spec.name], hits[0])
                    else:
                        handle = self.live.pick(rng, spec.name)
                        adapter.read(self.collections[spec.name], handle)
                else:
                    handle = self.live.pick(rng, spec.name)
                    adapter.read(self.collections[spec.name], handle)
            # updates: debit accounts, bump use counters, occasionally
            # reprice (which moves the object in its price index)
            for update_index in range(update_split[phase]):
                spec = rng.choice(self.schema)
                handle = self.live.pick(rng, spec.name)
                obj = dict(adapter.peek(self.collections[spec.name], handle))
                obj["uses"] += 1
                if update_index % 8 == 0:
                    obj["price"] = rng.randint(0, 999)
                adapter.update(self.collections[spec.name], handle, obj)
            # deletes: retire an expired license/receipt
            for _ in range(delete_split[phase]):
                spec = rng.choice(self.schema)
                if len(self.live.handles[spec.name]) > 5:
                    handle = self.live.remove(rng, spec.name)
                    adapter.delete(self.collections[spec.name], handle)
            # adds: new contracts (bind) or fresh licenses (release)
            for _ in range(add_split[phase]):
                spec = rng.choice(self.schema)
                self.live.next_ident += 1
                obj = make_object(rng, spec.name, self.live.next_ident)
                handle = adapter.insert(self.collections[spec.name], obj)
                self.live.add(spec.name, handle)
            adapter.commit()


def _spread(total: int, buckets: int) -> List[int]:
    """Distribute ``total`` across ``buckets`` as evenly as possible."""
    base = total // buckets
    remainder = total % buckets
    return [base + (1 if index < remainder else 0) for index in range(buckets)]


def measure(adapter: DBAdapter, kind: str, profile: bool = False) -> Dict[str, Any]:
    """Load ``adapter`` with the workload, run one ``kind`` experiment and
    model its I/O with the paper's disk constants (§9.5.2): the measurement
    behind Figures 10–12.  ``profile`` traces the experiment, so every span
    keeps its self time (Figure 12's CPU rows, in ``self_times``)."""
    workload = Workload(adapter)
    workload.setup()
    io_before = adapter.stats.snapshot()
    tr_before = adapter.tr_writes()
    if profile:
        obs.reset()
        obs.enable_tracing()  # spans keep self time only while tracing
    try:
        start = time.perf_counter()
        counts = workload.run_experiment(kind)
        cpu = time.perf_counter() - start
        self_times = obs.trace.self_times() if profile else {}
    finally:
        if profile:
            obs.disable_tracing()
    io = adapter.stats.delta(io_before)
    tr_writes = adapter.tr_writes() - tr_before
    model = DiskModel()
    result = {
        "counts": counts,
        "cpu_s": cpu,
        "write_io_s": model.write_time(io),
        "read_io_s": model.read_time(io),
        "tr_io_s": model.tamper_resistant_time(tr_writes),
        "flushes": io.flushes,
        "bytes_written": io.bytes_written,
        "tr_writes": tr_writes,
        "stored_bytes": adapter.stored_bytes(),
        "self_times": self_times,
    }
    result["total_s"] = cpu + result["write_io_s"] + result["read_io_s"] + result["tr_io_s"]
    return result
