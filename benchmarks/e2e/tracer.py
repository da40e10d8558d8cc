"""Outside-in span tracer for the traced run.

Spans are recorded from the benchmark's side of each layer boundary: in
the traced run only, the public methods listed in :data:`BOUNDARIES` are
replaced *at class level* by timing wrappers, and put back afterwards.
A span is ``(id, name, start, end, parent, thread, op)``; a layer's self time
is its spans' duration minus the part their child spans cover on the same
thread, so the self times of all layers plus the driver's own add up to
the window.  ``repro.util.codec`` and ``repro.obs`` are not wrapped: their
time lands in the self time of whichever layer called them.

Every call is aggregated (calls, total, self, per span name); the full
span records are kept in memory for every 64th client operation only.
Only threads that called :meth:`Tracer.thread` are traced.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

SAMPLE_EVERY = 64
DRIVER = "bench.driver"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class _ThreadState:
    def __init__(self, thread: int) -> None:
        self.thread = thread
        #: open spans, innermost last: [name, start, child seconds, span id]
        self.stack: List[list] = []
        #: span name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: (caller layer, callee layer) -> calls
        self.edges: Dict[Tuple[str, str], int] = {}
        self.counts: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.op = -1
        self.sampled = False
        self.records: List[tuple] = []


class Tracer:
    def __init__(
        self,
        keep_durations: Iterable[str] = (),
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.clock = clock
        self._local = threading.local()
        self._mutex = threading.Lock()
        self._finished: List[_ThreadState] = []
        #: span names whose individual durations are kept (stall detection)
        self.keep_durations = frozenset(keep_durations)
        self._undo: List[Tuple[type, str, Any]] = []

    # -- driver side -----------------------------------------------------------

    @contextmanager
    def thread(self, thread: int = 0):
        """Trace the calling thread for the duration of the block, under a
        root span owned by the driver."""
        state = _ThreadState(thread)
        self._local.state = state
        try:
            with self.span(DRIVER):
                yield
        finally:
            self._local.state = None
            with self._mutex:
                self._finished.append(state)

    def next_op(self) -> None:
        """A new client operation starts on this thread."""
        state = self._local.state
        state.op += 1
        state.sampled = state.op % SAMPLE_EVERY == 0

    @contextmanager
    def span(self, name: str):
        state = getattr(self._local, "state", None)
        if state is None:
            yield
            return
        frame = self._enter(state, name)
        try:
            yield
        finally:
            self._exit(state, frame)

    def count(self, name: str, amount: float = 1) -> None:
        state = getattr(self._local, "state", None)
        if state is not None:
            state.counts[name] = state.counts.get(name, 0) + amount

    # -- span bookkeeping ------------------------------------------------------

    def _enter(self, state: _ThreadState, name: str) -> list:
        frame = [name, 0.0, 0.0, len(state.records) if state.sampled else -1]
        if state.sampled:
            parent = state.stack[-1][3] if state.stack else -1
            state.records.append((name, parent))  # completed in _exit
        state.stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _exit(self, state: _ThreadState, frame: list) -> None:
        end = self.clock()
        name, start, children, span_id = frame
        duration = end - start
        stack = state.stack
        stack.pop()
        totals = state.spans.get(name)
        if totals is None:
            totals = state.spans[name] = [0, 0.0, 0.0]
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - children
        if stack:
            parent = stack[-1]
            parent[2] += duration
            edge = (layer_of(parent[0]), layer_of(name))
            state.edges[edge] = state.edges.get(edge, 0) + 1
        if name in self.keep_durations:
            state.durations.setdefault(name, []).append(duration)
        if span_id >= 0:
            parent_id = state.records[span_id][1]
            state.records[span_id] = (
                span_id, name, start, end, parent_id, state.thread, state.op
            )

    def wrap(
        self,
        name: str,
        function: Callable,
        measure: Optional[Callable[[tuple, Any], Optional[Tuple[str, float]]]] = None,
    ) -> Callable:
        """``function`` timed as span ``name``.  ``measure(args, result)``
        may return ``(counter, amount)`` to tally work done by the call."""
        local = self._local
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            state = getattr(local, "state", None)
            if state is None:
                return function(*args, **kwargs)
            frame = enter(state, name)
            try:
                result = function(*args, **kwargs)
            finally:
                leave(state, frame)
            if measure is not None:
                tally = measure(args, result)
                if tally is not None:
                    state.counts[tally[0]] = state.counts.get(tally[0], 0) + tally[1]
            return result

        traced.__wrapped__ = function
        return traced

    # -- class-level installation ----------------------------------------------

    def install(self, cls: type, method: str, name: str, measure=None) -> None:
        """Replace ``cls.method`` wherever the class hierarchy defines it
        (subclasses that override it included)."""
        todo = [cls]
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            original = klass.__dict__.get(method)
            if original is None:
                continue
            if isinstance(original, classmethod):
                wrapped: Any = classmethod(
                    self.wrap(name, original.__func__, measure)
                )
            else:
                wrapped = self.wrap(name, original, measure)
            self.patch(klass, method, wrapped, original)

    def patch(self, klass: type, method: str, replacement: Any, original: Any = None) -> None:
        """Swap in ``replacement`` for ``klass.method`` until :meth:`uninstall`."""
        self._undo.append((klass, method, original or klass.__dict__[method]))
        setattr(klass, method, replacement)

    def uninstall(self) -> None:
        while self._undo:
            klass, method, original = self._undo.pop()
            setattr(klass, method, original)

    # -- results ---------------------------------------------------------------

    def collect(self) -> "Trace":
        """Everything recorded by finished threads since the last call."""
        with self._mutex:
            states, self._finished = self._finished, []
        return Trace(states)


class Trace:
    """Aggregates of one traced phase (the window, or the reopen)."""

    def __init__(self, states: List[_ThreadState]) -> None:
        self.spans: Dict[str, List[float]] = {}
        self.edges: Dict[Tuple[str, str], int] = {}
        self.counts: Dict[str, float] = {}
        self.durations: Dict[str, List[float]] = {}
        self.records: List[tuple] = []
        for state in states:
            for name, totals in state.spans.items():
                mine = self.spans.setdefault(name, [0, 0.0, 0.0])
                for index in range(3):
                    mine[index] += totals[index]
            for edge, calls in state.edges.items():
                self.edges[edge] = self.edges.get(edge, 0) + calls
            for name, amount in state.counts.items():
                self.counts[name] = self.counts.get(name, 0) + amount
            for name, values in state.durations.items():
                self.durations.setdefault(name, []).extend(values)
            self.records.extend(state.records)

    def calls(self, *names: str) -> int:
        return int(sum(self.spans.get(name, (0, 0, 0))[0] for name in names))

    def total_s(self, *names: str) -> float:
        return sum(self.spans.get(name, (0, 0, 0))[1] for name in names)

    def self_s(self, *names: str) -> float:
        return sum(self.spans.get(name, (0, 0, 0))[2] for name in names)

    def layer_calls(self, layer: str) -> int:
        return int(sum(t[0] for n, t in self.spans.items() if layer_of(n) == layer))

    def layer_self_s(self, layer: str) -> float:
        return self.layer_table().get(layer, 0.0)

    def layer_table(self) -> Dict[str, float]:
        """Self seconds per layer, the driver's own time included."""
        table: Dict[str, float] = {}
        for name, totals in self.spans.items():
            table[layer_of(name)] = table.get(layer_of(name), 0.0) + totals[2]
        return table

    def span_dicts(self) -> List[Dict[str, Any]]:
        # ``id`` and ``parent`` (-1: the driver) number spans within a thread
        keys = ("id", "name", "start", "end", "parent", "thread", "op")
        return [dict(zip(keys, record)) for record in self.records if len(record) == 7]
