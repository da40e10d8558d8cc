"""The log write path: a static guard that only ``validation.py`` knows
which §4.8.2 discipline is in force, another that only ``logspace.py``
sizes the log, a third that only ``segments.py`` writes the segment
manager's fields, a fourth that ``cleaner.py`` knows nothing of views, and
``LogWriter`` driven directly — one protocol, whatever the stage and
whichever the discipline.  And the
gate in front of it all: a static guard that every public ``ChunkStore``
call takes its lock(s) — writers the writers' lock, then ``_lock`` — and
checks open/failed first, a second one for the lock order and the one
statement that runs with ``_lock`` dropped, and a spy that never sees the
map walked with the lock free."""

import ast
from pathlib import Path

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.chunkstore.log import VersionKind
from repro.errors import ChunkStoreError
from repro.objectstore import ObjectRef, ObjectStore
from repro.tools.inspect import trusted_view
from tests.conftest import make_config, make_platform, recording_platform

CHUNKSTORE = Path(__file__).resolve().parents[1] / "src" / "repro" / "chunkstore"

#: the discipline's own module, and the config's "is this a known mode" check
MAY_KNOW_THE_DISCIPLINE = {"validation.py", "config.py"}


def test_only_the_validation_module_knows_the_discipline():
    """No comparison on a validation mode and no mention of the validator
    classes (so no ``isinstance`` on them, and no second construction
    site) anywhere else under ``chunkstore/``: the other modules ask the
    validator, they do not ask which one it is."""
    offenders = []
    for path in sorted(CHUNKSTORE.glob("*.py")):
        if path.name in MAY_KNOW_THE_DISCIPLINE:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                for operand in [node.left, *node.comparators]:
                    if (
                        isinstance(operand, ast.Attribute)
                        and operand.attr in ("validation_mode", "mode")
                    ) or (
                        isinstance(operand, ast.Constant)
                        and operand.value in ("direct", "counter")
                    ):
                        offenders.append(f"{path.name}:{node.lineno}: mode comparison")
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            if {"DirectValidation", "CounterValidation"} & set(names):
                offenders.append(f"{path.name}:{node.lineno}: names a validator class")
    assert not offenders, offenders


#: what turns log state into byte counts or into clean/checkpoint decisions
SIZES_THE_LOG = {
    "room", "capacity", "ceiling", "released", "growth", "map_growth",
    "appends", "plain_appends",
}


def test_only_the_log_space_module_sizes_the_log():
    """No call to a log-sizing routine and no mention of a reserve class
    anywhere under ``chunkstore/`` but ``logspace.py``: the other modules
    ask it whether something fits, they do not size the log themselves."""
    offenders = []
    for path in sorted(CHUNKSTORE.glob("*.py")):
        if path.name == "logspace.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Attribute, ast.Name))
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                in SIZES_THE_LOG
            ):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            else:  # a name, an attribute, a class or function definition
                names = [getattr(node, key, None) for key in ("id", "attr", "name")]
            if any(str(name).endswith("Reserve") for name in names):
                offenders.append(f"{path.name}:{node.lineno}: names a reserve class")
    assert not offenders, offenders


#: list methods that change the list they are called on
LIST_MUTATORS = {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse"}


def _reaches_segman_field(node):
    """Whether ``node`` is ``segman.<field>`` or lies under one
    (``self.segman.used_bytes[i]``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        owner = node.value
        if isinstance(node, ast.Attribute) and (
            getattr(owner, "id", None) == "segman"
            or getattr(owner, "attr", None) == "segman"
        ):
            return True
        node = owner
    return False


def test_only_the_segments_module_writes_the_segment_manager():
    """No module under ``src/repro`` but ``segments.py`` assigns (or
    deletes) a segment manager's field or an item of one, or calls a list
    mutator on one: the others move the tail and claim segments through
    its methods."""
    offenders = []
    for path in sorted(CHUNKSTORE.parent.rglob("*.py")):
        if path == CHUNKSTORE / "segments.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in LIST_MUTATORS
            ):
                targets = [node.func.value]
            else:
                continue
            flat = []
            while targets:
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(target.elts)
                else:
                    flat.append(target)
            if any(_reaches_segman_field(target) for target in flat):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders, offenders


def test_the_cleaner_names_no_snapshot_or_view():
    """Open snapshot views and the cleaner meet in one place, the segment
    manager's deferral rule (a cleaned segment waits for the views older
    than its clean): the cleaner neither asks about views nor names them."""
    source = (CHUNKSTORE / "cleaner.py").read_text().lower()
    assert "snapshot" not in source and "view" not in source


#: the public ``ChunkStore`` calls that answer on a closed or failed store
#: (everything else refuses), and why each must
ANSWERS_WHEN_FAILED = {
    "close": "the way out of a failed store; writes nothing once it failed",
    "close_snapshot_view": "releases a view; a view outlives a failed commit",
    "release_chunk": "undo only: Transaction.abort runs it right after the "
    "commit that failed the store",
    "stats": "read-only tallies (what an operator looks at after a failure)",
    "quarantined_chunks": "read-only tally",
    "stored_bytes": "read-only tally; sampled from other threads, lock-free",
    "live_bytes": "read-only tally, as stored_bytes",
}


#: the public calls that take the writers' lock: whoever may append to the
#: log (``diff`` and ``close`` checkpoint first).  All but ``commit`` need
#: the whole image, so they wait for the commits in flight first
WRITERS = {"commit", "checkpoint", "clean", "diff", "scrub", "close"}


def _lock_items(with_node):
    """The leading ``self._writers`` / ``self._lock`` items of a ``with``."""
    names = [ast.unparse(item.context_expr) for item in with_node.items]
    locks = []
    for name in names:
        if name not in ("self._writers", "self._lock"):
            break
        locks.append(name)
    return locks


def _function(tree, name):
    (node,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return node


def _statements(node):
    """``node``'s body less docstrings and lazy collaborator imports."""
    return [
        stmt for stmt in node.body
        if not isinstance(stmt, ast.ImportFrom)
        and not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
    ]


def test_every_public_chunkstore_call_passes_the_gate():
    """Each public method — bar ``format``/``open``, which build the store,
    and the allow-list above — is one ``with`` block over its lock(s) whose
    first statement is ``self._check_open()``: nothing runs before the
    gate, and nothing after the lock is dropped.  Exactly the six
    ``WRITERS`` take the writers' lock, and take it *before* ``_lock``;
    everyone else takes ``_lock`` alone.  A writer first waits for the
    commits in flight — ``self._drain()`` — and passes the gate after
    that wait, in which a commit may have failed the store.  ``commit``
    passes the gate first (it waits only if it must, in ``_admit``), and
    is the one call that goes on after the locks: one span over them and
    the pipelined set's finish."""
    tree = ast.parse((CHUNKSTORE / "store.py").read_text())
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ChunkStore"
    ]
    public = {
        node.name: node for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert set(ANSWERS_WHEN_FAILED) <= set(public), "stale allow-list entry"
    assert WRITERS <= set(public), "stale writer"
    writer_locks = ["self._writers", "self._lock"]
    offenders = []
    for name, node in public.items():
        if name in ("format", "open"):
            continue
        body = _statements(node)
        expected = writer_locks if name in WRITERS else ["self._lock"]
        taken = [
            _lock_items(n) for n in ast.walk(node)
            if isinstance(n, ast.With) and _lock_items(n)
        ]
        if name in ANSWERS_WHEN_FAILED:
            ok = taken in ([], [expected])  # no gate, but the same locks
        elif name == "commit":
            # one span over the locks, then the pipelined set's finish
            nested, span = body
            (locked, finish) = span.body
            ok = (
                ast.unparse(nested) == "nested = self._writers._is_owned()"
                and isinstance(span, ast.With)
                and taken == [expected]
                and _lock_items(locked) == expected
                and ast.unparse(locked.body[0]) == "self._check_open()"
                and ast.unparse(finish).splitlines()[-2:]
                == ["finally:", "    self._finish(flight)"]
            )
        else:
            gate = ["self._check_open()"]
            if name in WRITERS:
                gate = ["self._drain()"] + gate
            ok = (
                len(body) == 1
                and isinstance(body[0], ast.With)
                and taken == [expected]
                and _lock_items(body[0]) == expected
                and [ast.unparse(stmt) for stmt in body[0].body[: len(gate)]] == gate
            )
        if not ok:
            offenders.append(name)
    assert not offenders, offenders


def _chunkstore_sources():
    return {path.name: path.read_text() for path in sorted(CHUNKSTORE.glob("*.py"))}


def test_the_lock_order_and_the_one_unlocked_statement():
    """Static, over all of ``src/repro/chunkstore``: wherever the writers'
    lock is taken, ``_lock`` is the very next item of the same ``with``
    (so the order writers' lock → ``_lock`` cannot be inverted, and the
    writers' lock is never held without ``_lock`` being taken at once);
    only ``store.py`` and ``cleaner.py`` name it at all; and a lock is
    released other than by leaving a ``with`` in exactly two places —
    ``LogWriter.flush``, around ``self.sync()`` — the timed device flush —
    and nothing else, and ``ChunkStore._drain``, around the wait for the last set in flight
    and nothing else."""
    sources = _chunkstore_sources()
    naming = {
        name for name, text in sources.items()
        if any(
            isinstance(node, ast.Attribute) and node.attr == "_writers"
            for node in ast.walk(ast.parse(text))
        )
    }
    assert naming == {"store.py", "cleaner.py"}
    src = CHUNKSTORE.parents[0]
    outside = [
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if path.parent != CHUNKSTORE and "_writers" in path.read_text()
    ]
    assert not outside, outside

    releases = []
    for name, text in sources.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.With):
                items = [ast.unparse(item.context_expr) for item in node.items]
                for index, item in enumerate(items):
                    if item.endswith("._writers"):
                        owner = item[: -len("._writers")]
                        assert items[index + 1 : index + 2] == [owner + "._lock"], (
                            name, node.lineno, items
                        )
                    if item.endswith("._lock"):
                        assert not any(
                            later.endswith("._writers") for later in items[index + 1 :]
                        ), (name, node.lineno, items)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr
                in ("release", "acquire", "_release_save", "_acquire_restore")
            ):
                releases.append((name, node.func.attr, ast.unparse(node)))
    assert sorted(releases) == [
        ("store.py", "acquire", "self._lock.acquire()"),
        ("store.py", "release", "self._lock.release()"),
        ("writepath.py", "acquire", "unlocked.acquire()"),
        ("writepath.py", "release", "unlocked.release()"),
    ], releases
    # … and what runs between each pair is the device flush, or the wait
    for source, function, region in (
        ("writepath.py", "flush", ["self.sync()"]),
        ("store.py", "_drain", ["last.done.wait()"]),
    ):
        (unlocked_region,) = [
            n for n in ast.walk(_function(ast.parse(sources[source]), function))
            if isinstance(n, ast.Try)
        ]
        assert [ast.unparse(stmt) for stmt in unlocked_region.body] == region
    # … where ``sync`` is the retried device flush, timed (the store's
    # choice to pipeline reads how long the last one took)
    sync = _function(ast.parse(sources["writepath.py"]), "sync")
    assert [ast.unparse(stmt) for stmt in sync.body[1:]] == [
        "started = time.perf_counter()",
        "self.logbuf.sync()",
        "self.last_sync_s = time.perf_counter() - started",
    ]
    # … offered by one caller: the store's commit route
    offered = [
        (name, ast.unparse(keyword.value))
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "unlocked" and ast.unparse(keyword.value) != "unlocked"
    ]
    assert offered == [("store.py", "self._lock")], offered


def test_only_an_application_commit_outlives_the_writers_lock():
    """Static: every function that takes the writers' lock ends with that
    ``with`` — the writer's work is done when the lock is left — except
    ``ChunkStore.commit``, which finishes a pipelined set after it
    (``_finish``, called from there alone).  Only ``_commit_set`` returns
    such a set, and only given a plain commit's bound, which only
    ``commit`` passes (from ``_admit``): the cleaner's re-commit hands
    over its ``append`` alone, and is finished under the locks."""
    sources = _chunkstore_sources()
    outliving = []
    for name, text in sources.items():
        for function in ast.walk(ast.parse(text)):
            if not isinstance(function, ast.FunctionDef):
                continue
            for block in ast.walk(function):
                body = getattr(block, "body", None)
                if not isinstance(body, list):
                    continue
                body = [
                    stmt for stmt in body
                    if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
                ]
                for index, stmt in enumerate(body):
                    if (
                        isinstance(stmt, ast.With)
                        and _lock_items(stmt)[:1] == ["self._writers"]
                        or isinstance(stmt, ast.With)
                        and any(
                            ast.unparse(item.context_expr).endswith("._writers")
                            for item in stmt.items
                        )
                    ) and index != len(body) - 1:
                        outliving.append((name, function.name))
    assert outliving == [("store.py", "commit")], outliving
    calls = [
        (name, function.name, node.func.attr, len(node.args) + len(node.keywords))
        for name, text in sources.items()
        for function in ast.walk(ast.parse(text))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("_commit_set", "_finish", "_admit")
    ]
    assert sorted(calls) == [
        ("cleaner.py", "_rewrite", "_commit_set", 1),
        ("store.py", "commit", "_admit", 1),
        ("store.py", "commit", "_commit_set", 2),
        ("store.py", "commit", "_finish", 1),
    ], calls


def test_one_commit_route():
    """Static, over all of ``src/repro``: a commit set is opened and made
    durable — ``LogWriter.begin_set`` / ``make_durable`` — in two places
    only: the store's commit route, which every application commit and
    every cleaner re-commit goes through, and the checkpoint's own
    two-phase protocol.  The cleaner calls neither."""
    calls = set()
    for path in CHUNKSTORE.parent.rglob("*.py"):
        if path.name == "validation.py":
            continue  # the validator's own ``begin_set``
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("begin_set", "make_durable")
                    and not ast.unparse(node.func.value).endswith("validator")
                ):
                    calls.add((path.name, function.name, node.func.attr))
    assert sorted(calls) == [
        ("checkpoint.py", "write_checkpoint", "begin_set"),
        ("checkpoint.py", "write_checkpoint", "make_durable"),
        ("store.py", "_commit_set", "begin_set"),
        ("store.py", "_commit_set", "make_durable"),
    ], sorted(calls)
    cleaner = (CHUNKSTORE / "cleaner.py").read_text()
    assert "begin_set" not in cleaner and "make_durable" not in cleaner
    assert "store._commit_set(" in cleaner


@pytest.fixture(params=["counter", "direct"])
def mode(request):
    return request.param


def test_no_public_call_walks_the_map_with_the_lock_free(mode):
    """Loading a partition that is not resident reads its leader through
    the §4.5 walk and fills the caches: ``partition_info`` and
    ``Transaction.create_at`` used to do that with ``_lock`` free, beside
    a server's committing sessions."""
    platform = make_platform()
    store = ChunkStore.format(platform, make_config(validation_mode=mode))
    pid = store.allocate_partition()
    store.commit(
        [ops.WritePartition(pid, cipher_name="null", hash_name="sha1", name="named")]
    )
    store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"root")])
    store.close()
    store = ChunkStore.open(platform)
    seen = []  # (routine, was the lock held)
    for routine in ("read_chunks", "descriptors"):
        def spy(*args, _real=getattr(store.readpath, routine), _name=routine):
            seen.append((_name, store._lock._is_owned()))
            return _real(*args)
        setattr(store.readpath, routine, spy)
    objects = ObjectStore(store)
    for call in (
        lambda: store.partition_info(pid),
        lambda: store.partition_exists(pid),
        store.partition_ids,
        lambda: store.find_partition("named"),
        lambda: store.chunk_status(pid, 0),
        lambda: store.data_ranks(pid),
        lambda: store.reserve_chunk(pid, 5),
        lambda: objects.transaction().create_at(ObjectRef(pid, 6), "x"),
        lambda: trusted_view(store),
    ):
        # cold again: the next call has to load a leader to answer
        store.partitions.pop(pid, None)
        store.payloads.clear()
        call()
    assert {name for name, _ in seen} == {"read_chunks", "descriptors"}
    assert all(held for _, held in seen), seen


def fresh(mode, platform=None, **overrides):
    platform = platform or make_platform(size=512 * 1024)
    store = ChunkStore.format(
        platform, make_config(validation_mode=mode, segment_size=8 * 1024, **overrides)
    )
    return platform, store


class TestLogWriter:
    def test_make_durable_names_its_points_after_the_stage(self, mode):
        platform, store = fresh(mode, recording_platform(size=512 * 1024))
        start = len(platform.injector.history)
        with store._lock:
            store.writer.begin_set()
            store.writer.append_unnamed(VersionKind.DEALLOCATE, b"")
            store.writer.make_durable("anything", store._leader_location, force=True)
        points = [
            p for p in platform.injector.history[start:] if p.startswith("anything.")
        ]
        assert points == [
            "anything.before_flush",
            "anything.after_flush",
            "anything.after_tr",
        ]

    def test_a_lazy_flush_is_granted_only_where_the_discipline_allows(self, mode):
        platform, store = fresh(mode, delta_ut=5)
        flushes = platform.untrusted.stats.flushes
        with store._lock:
            store.writer.begin_set()
            store.writer.make_durable("commit", store._leader_location, lazy=True)
        flushed = platform.untrusted.stats.flushes - flushes
        assert flushed == (0 if store.validator.allows_lazy_flush else 1)
        assert store.logbuf.pending_bytes == 0  # sealed either way

    def test_a_version_that_does_not_fit_chains_into_a_fresh_segment(self, mode):
        platform, store = fresh(mode)
        writer, segman = store.writer, store.segman
        filler = b"x" * 3000
        with store._lock:
            writer.begin_set()
            first = segman.tail_segment
            locations = [
                writer.append_unnamed(VersionKind.DEALLOCATE, filler) for _ in range(3)
            ]
            assert segman.residual_segments[-2:] == [first, segman.tail_segment]
            assert segman.segment_of(locations[0]) == first
            assert locations[-1] == segman.segment_start(segman.tail_segment)
            # the segment left behind ends in the jump that chains it on
            assert segman.used_bytes[first] <= segman.segment_size
            assert segman.used_bytes[first] > writer.max_version_size - len(filler)

    def test_an_oversized_version_is_refused_before_anything_moves(self, mode):
        platform, store = fresh(mode)
        tail = store.segman.tail_location
        with pytest.raises(ChunkStoreError):
            store.writer.append(b"z" * (store.writer.max_version_size + 1), "data")
        assert store.segman.tail_location == tail
        assert store.logbuf.pending_bytes == 0

    def test_the_four_callers_leave_a_log_that_reopens(self, mode):
        """Commit, both checkpoint phases and a cleaner re-commit, then a
        crash: the image validates and rolls forward."""
        platform, store = fresh(mode, delta_ut=2)
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        state = store.partitions[pid]
        for rank in range(40):
            state.allocate_specific(rank)
            store.commit([ops.WriteChunk(pid, rank, bytes([rank]) * 500)])
        store.checkpoint()
        for rank in range(0, 40, 2):
            store.commit([ops.WriteChunk(pid, rank, bytes([rank + 1]) * 500)])
        assert store.clean(max_segments=2) >= 1
        store.commit([ops.WriteChunk(pid, 1, b"last")])
        platform.reboot()
        reopened = ChunkStore.open(platform)
        assert reopened.read_chunk(pid, 1) == b"last"
        assert reopened.read_chunk(pid, 2) == bytes([3]) * 500
        assert reopened.read_chunk(pid, 3) == bytes([3]) * 500
