"""The bind/release workload's schema, and the §9.5 comparison's
precondition: identical work driven through both adapters.  That each
system runs Figure 10's counts exactly is the ``paper.fig10_count_error``
floor of ``python -m repro.bench paper`` (held by ``tests/test_bench.py``)."""

import pytest

from repro.bench.adapters import TdbAdapter, XdbAdapter
from repro.bench.workload import COLLECTION_COUNT, Workload, make_schema


class TestSchema:
    def test_thirty_collections(self):
        schema = make_schema()
        assert len(schema) == COLLECTION_COUNT

    def test_one_to_four_indexes_each(self):
        for spec in make_schema():
            assert 1 <= len(spec.indexes) <= 4

    def test_deterministic(self):
        a = make_schema(seed=7)
        b = make_schema(seed=7)
        assert [(s.name, len(s.indexes)) for s in a] == [
            (s.name, len(s.indexes)) for s in b
        ]


@pytest.mark.slow
class TestFigure10:
    def test_same_seed_same_touches(self):
        """Both adapters see the identical operation stream."""
        tdb = Workload(TdbAdapter(), seed=3)
        xdb = Workload(XdbAdapter(), seed=3)
        tdb.setup()
        xdb.setup()
        tdb.run_experiment("release")
        xdb.run_experiment("release")
        assert tdb.adapter.op_counts == xdb.adapter.op_counts
