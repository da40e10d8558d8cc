"""Workload-machinery unit tests: spread arithmetic, object synthesis,
and adapter peek accounting."""

import pytest

from repro.bench.workload import (
    FIGURE_10,
    _spread,
    make_object,
    make_schema,
)


class TestSpread:
    def test_even(self):
        assert _spread(20, 10) == [2] * 10

    def test_remainder_front_loaded(self):
        assert _spread(7, 3) == [3, 2, 2]

    def test_zero(self):
        assert _spread(0, 4) == [0, 0, 0, 0]

    def test_sum_preserved(self):
        for total in (1, 13, 781, 733):
            for buckets in (1, 3, 10, 20):
                assert sum(_spread(total, buckets)) == total

    def test_figure10_budgets_sum(self):
        for kind, mix in FIGURE_10.items():
            for op, total in mix.items():
                if op == "commit":
                    continue
                assert sum(_spread(total, 10)) == total


class TestObjects:
    def test_object_fields(self):
        import random

        obj = make_object(random.Random(1), "goods", 7)
        assert obj["type"] == "goods"
        assert obj["ident"] == 7
        assert 0 <= obj["price"] <= 999
        assert isinstance(obj["payload"], bytes)

    def test_deterministic_given_seed(self):
        import random

        a = make_object(random.Random(5), "goods", 1)
        b = make_object(random.Random(5), "goods", 1)
        assert a == b


class TestAdapterAccounting:
    def test_peek_does_not_count(self):
        from repro.bench.adapters import TdbAdapter
        from repro.bench.workload import make_schema

        adapter = TdbAdapter()
        spec = make_schema()[0]
        adapter.begin()
        coll = adapter.create_collection(spec)
        handle = adapter.insert(coll, {"ident": 1, "price": 2, "owner": 3,
                                       "status": "active", "uses": 0,
                                       "payload": b""})
        adapter.commit()
        adapter.begin()
        before = dict(adapter.op_counts)
        adapter.peek(coll, handle)
        assert adapter.op_counts == before
        adapter.read(coll, handle)
        assert adapter.op_counts["read"] == before["read"] + 1
        adapter.commit()


class TestMeasure:
    def test_a_raising_experiment_leaves_tracing_off(self):
        """A profiled experiment that raises must not leave tracing on for
        the rest of the process."""
        from repro import obs
        from repro.bench.adapters import TdbAdapter
        from repro.bench.workload import measure

        class RaisingAdapter(TdbAdapter):
            def update(self, coll, handle, obj):  # only the experiment updates
                raise RuntimeError("injected")

        with pytest.raises(RuntimeError, match="injected"):
            measure(RaisingAdapter(), "release", profile=True)
        assert not obs.trace.enabled()
