"""The paper's Figure 10 bind/release mix, through the whole stack.

This is the benchmark's own generator (not ``repro.bench.workload``), so
rewriting that module cannot shift these numbers.  Figure 10 fixes the
database operations of one *experiment* — ten consecutive bind or release
operations, two transactions each::

              read   update   delete   add   commit
    release    781      181       10     4       20
    bind       722      733       10   220       20

Experiments run in cycles of nine releases and one bind, and the window
only ends between cycles, so every window holds the same 9:1 mix however
fast the store is.  The driver keeps a model (latest value per object);
updates are built from it, so an update costs the store one fetch, and
every read is compared with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from harness import (
    CIPHER,
    HASH,
    Limit,
    Recorder,
    check_model,
    clock,
    memory_platform,
    object_reader,
    store_config,
    traced,
)

from repro.chunkstore import ChunkStore, WritePartition
from repro.collection import CollectionStore, KeyFunctionRegistry, field_key
from repro.errors import TDBError
from repro.objectstore import ObjectRef, ObjectStore

FIGURE_10 = {
    "release": {"read": 781, "update": 181, "delete": 10, "add": 4, "commit": 20},
    "bind": {"read": 722, "update": 733, "delete": 10, "add": 220, "commit": 20},
}
CYCLE = ("release",) * 9 + ("bind",)
COLLECTIONS = 30
FIELDS = ("ident", "price", "owner", "status")
#: share of reads that go through an exact-match index lookup first
EXACT_SHARE = 0.15
#: objects inserted per set-up transaction
LOAD_BATCH = 50


@dataclass
class Fig10Sizing:
    per_collection: int
    device_mib: int
    clean_low_water: Any  # None = the store's default (no cleaning expected)
    warm_cache: bool
    cycles: int  # window length when no --seconds is given
    #: if set, ``--seconds`` is turned into whole cycles at this many
    #: seconds each instead of being held against the clock.  For a store
    #: that never cleans: its log only grows, so ``space_amp`` and
    #: ``write_kb_per_txn`` depend on how many cycles ran, and a cycle
    #: there is half the window long
    cycle_seconds: Optional[float] = None


def _spread(total: int, buckets: int) -> List[int]:
    base, extra = divmod(total, buckets)
    return [base + (index < extra) for index in range(buckets)]


def make_object(rng: random.Random, collection: str, ident: int) -> Dict[str, Any]:
    """A digital-goods record, ~150–400 bytes pickled."""
    return {
        "type": collection,
        "ident": ident,
        "price": rng.randint(0, 999),
        "owner": rng.randint(0, 99),
        "status": rng.choice(("active", "pending", "expired")),
        "uses": 0,
        "payload": rng.randbytes(rng.randint(80, 300)),
    }


class Fig10:
    """Both fig10 workloads; they differ only in :class:`Fig10Sizing`."""

    clients = 1

    def __init__(self, name: str, sizing: Fig10Sizing, seed: int) -> None:
        self.name = name
        self.sizing = sizing
        self.seed = seed
        self.config = store_config(sizing.clean_low_water)
        self.rng = random.Random(seed * 31 + 1)
        #: collection name -> its index fields (1–4; the first is a hash
        #: index, the rest sorted).  Not drawn from the seed: the number of
        #: indexes sets the cost of an update, and every seed should
        #: measure the same workload
        self.schema = {
            f"c{number:02d}": FIELDS[: number % 4 + 1] for number in range(COLLECTIONS)
        }
        self.names = list(self.schema)
        self.key_functions = KeyFunctionRegistry()
        for field in FIELDS:
            self.key_functions.register(field, field_key(field))
        self.model: Dict[ObjectRef, Dict[str, Any]] = {}
        self.members: Dict[str, List[ObjectRef]] = {name: [] for name in self.names}
        self.next_ident = sizing.per_collection
        #: database operations the driver issued, to hold against Figure 10
        self.db_ops = dict.fromkeys(FIGURE_10["bind"], 0)
        self.experiments = dict.fromkeys(FIGURE_10, 0)

    def describe(self) -> Dict[str, Any]:
        return {
            "collections": COLLECTIONS,
            "objects_per_collection": self.sizing.per_collection,
            "device_mib": self.sizing.device_mib,
            "clean_low_water": self.config.clean_low_water,
            "warm_cache": self.sizing.warm_cache,
            "cycle": "9 release : 1 bind",
        }

    # -- set-up --------------------------------------------------------------

    def _open(self, store: ChunkStore, pid: int):
        objects = ObjectStore(store)
        return objects, CollectionStore(objects, pid, self.key_functions)

    def setup(self, speed) -> None:
        sizing = self.sizing
        self.platform = memory_platform(sizing.device_mib, self.seed)
        self.store = ChunkStore.format(self.platform, self.config)
        self.pid = self.store.allocate_partition()
        self.store.commit([WritePartition(self.pid, CIPHER, HASH)])
        self.objects, self.collections = self._open(self.store, self.pid)
        self.handles = {}
        with self.objects.transaction() as tx:
            for name, fields in self.schema.items():
                coll = self.collections.create_collection(tx, name)
                for position, field in enumerate(fields):
                    self.collections.add_index(
                        tx, coll, f"{name}_by_{field}", field, sorted_index=position > 0
                    )
                self.handles[name] = coll
        for name in self.names:
            for start in range(0, sizing.per_collection, LOAD_BATCH):
                speed.tick()
                with self.objects.transaction() as tx:
                    for ident in range(start, min(start + LOAD_BATCH, sizing.per_collection)):
                        value = make_object(self.rng, name, ident)
                        ref = self.collections.insert(tx, self.handles[name], dict(value))
                        self.model[ref] = value
                        self.members[name].append(ref)
        self.store.checkpoint()
        if sizing.warm_cache:
            # "the benchmark loads the cache before executing an experiment"
            with self.objects.transaction() as tx:
                for ref in self.model:
                    tx.get(ref)

    # -- the measured window -------------------------------------------------

    def run(self, limit: Limit, rec: Recorder, tracer=None) -> None:
        cycles = 0
        with traced(tracer):
            while limit.more(cycles):
                for kind in CYCLE:
                    self._experiment(kind, limit, rec, tracer)
                cycles += 1
        rec.units_done = [cycles]
        rec.paused = limit.speed.spent
        figure = {
            op: sum(self.experiments[kind] * FIGURE_10[kind][op] for kind in FIGURE_10)
            for op in self.db_ops
        }
        if rec.failed == 0 and self.db_ops != figure:
            rec.mismatch(f"issued {self.db_ops}, Figure 10 says {figure}")

    def _experiment(self, kind: str, limit: Limit, rec: Recorder, tracer) -> None:
        mix = FIGURE_10[kind]
        transactions = mix["commit"]
        split = {
            op: _spread(total, transactions) for op, total in mix.items() if op != "commit"
        }
        for index in range(transactions):
            limit.speed.tick()
            rec.attempted += 1
            if tracer is not None:
                tracer.next_op()
            try:
                self._transaction(
                    rec,
                    split["read"][index],
                    split["update"][index],
                    split["delete"][index],
                    split["add"][index],
                )
            except TDBError as exc:
                rec.fail(exc)
        self.experiments[kind] += 1

    def _pick(self) -> str:
        return self.rng.choice(self.names)

    def _transaction(
        self, rec: Recorder, reads: int, updates: int, deletes: int, adds: int
    ) -> None:
        rng = self.rng
        model = self.model
        collections = self.collections
        read_s = rec.read_s
        staged: Dict[ObjectRef, Any] = {}  # applied to the model on commit
        removed: List[Any] = []
        added: List[Any] = []
        tx = self.objects.transaction()
        try:
            for _ in range(reads):
                name = self._pick()
                ref = None
                if rng.random() < EXACT_SHARE:
                    key = rng.randrange(self.sizing.per_collection)
                    hits = collections.exact(
                        tx, self.handles[name], f"{name}_by_ident", key
                    )
                    if hits:
                        ref = hits[0]
                        if staged.get(ref, model.get(ref, {})).get("ident") != key:
                            rec.mismatch(f"exact({name}, {key}) returned {ref}")
                if ref is None:
                    ref = rng.choice(self.members[name])
                start = clock()
                value = tx.get(ref)
                read_s.append(clock() - start)
                if value != staged.get(ref, model.get(ref)):
                    rec.mismatch(f"{ref}: read differs from the model")
            self.db_ops["read"] += reads
            for number in range(updates):
                name = self._pick()
                ref = rng.choice(self.members[name])
                value = dict(staged.get(ref) or model[ref])
                value["uses"] += 1
                if number % 8 == 0:  # reprice: moves the object in its index
                    value["price"] = rng.randint(0, 999)
                collections.update(tx, self.handles[name], ref, dict(value))
                staged[ref] = value
            self.db_ops["update"] += updates
            for _ in range(deletes):
                name = self._pick()
                while len(self.members[name]) <= 5:
                    name = self._pick()
                ref = self.members[name].pop(rng.randrange(len(self.members[name])))
                removed.append((name, ref))
                collections.remove(tx, self.handles[name], ref)
            self.db_ops["delete"] += deletes
            for _ in range(adds):
                name = self._pick()
                self.next_ident += 1
                value = make_object(rng, name, self.next_ident)
                ref = collections.insert(tx, self.handles[name], dict(value))
                staged[ref] = value
                added.append((name, ref))
            self.db_ops["add"] += adds
            start = clock()
            tx.commit()
            rec.commit_s.append(clock() - start)
            self.db_ops["commit"] += 1
        except TDBError:
            tx.abort()
            for name, ref in removed:  # the store kept them
                self.members[name].append(ref)
            raise
        model.update(staged)
        for name, ref in removed:
            model.pop(ref, None)
        for name, ref in added:
            self.members[name].append(ref)

    # -- after the window ----------------------------------------------------

    def expected(self) -> Dict[ObjectRef, Any]:
        return self.model

    def reader(self, store: ChunkStore):
        return object_reader(store)

    def verify(self, store: ChunkStore) -> List[str]:
        """Full scan: every collection holds exactly the model's members,
        and every member reads back as the model's value."""
        wrong = check_model(self.reader(store), self.model)
        objects, collections = self._open(store, self.pid)
        with objects.transaction() as tx:
            for name in self.names:
                coll = collections.open_collection(tx, name)
                if set(collections.scan(tx, coll)) != set(self.members[name]):
                    wrong.append(f"collection {name}: membership differs from the model")
        return wrong
