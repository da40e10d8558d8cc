"""Coverage for remaining corner paths: direct-mode multi-segment
recovery, full-stack value roundtrips, docs link integrity, misc APIs."""

import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunkstore import ChunkStore, ops
from tests.conftest import make_config, make_platform


class TestDirectModeSegmentJumps:
    def test_residual_log_spanning_segments_recovers(self):
        """Direct mode: the chained hash must survive segment jumps in the
        residual log (jump versions are part of the chain)."""
        platform = make_platform(size=4 * 1024 * 1024)
        store = ChunkStore.format(
            platform,
            make_config(validation_mode="direct", segment_size=8 * 1024),
        )
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        # enough data per commit to force several segment jumps without
        # a checkpoint (residual log only)
        ranks = []
        for i in range(12):
            rank = store.allocate_chunk(pid)
            ranks.append(rank)
            store.commit([ops.WriteChunk(pid, rank, bytes([i]) * 3000)])
        assert len(store.segman.residual_segments) > 3
        platform.reboot()
        reopened = ChunkStore.open(platform)
        for i, rank in enumerate(ranks):
            assert reopened.read_chunk(pid, rank) == bytes([i]) * 3000


class TestFullStackRoundtripProperty:
    @given(
        values=st.lists(
            st.recursive(
                st.one_of(
                    st.none(),
                    st.booleans(),
                    st.integers(-(2**40), 2**40),
                    st.text(max_size=20),
                    st.binary(max_size=50),
                ),
                lambda children: st.one_of(
                    st.lists(children, max_size=3),
                    st.dictionaries(st.text(max_size=5), children, max_size=3),
                ),
                max_leaves=10,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_objects_roundtrip_through_crypto_and_log(self, values):
        from repro.objectstore import ObjectStore

        platform = make_platform(size=8 * 1024 * 1024)
        chunks = ChunkStore.format(platform, make_config())
        objects = ObjectStore(chunks)
        pid = objects.create_partition(cipher_name="ctr-sha256", hash_name="sha1")
        with objects.transaction() as tx:
            refs = [tx.create(pid, value) for value in values]
        chunks.checkpoint()  # persist descriptors before dropping caches
        objects.cache.clear()
        chunks.cache.clear()
        for ref, value in zip(refs, values):
            assert objects.read_committed(ref) == value


class TestDocsIntegrity:
    _ROOT = pathlib.Path(__file__).resolve().parent.parent

    def _referenced_paths(self, text):
        import re

        # backticked repo-relative paths like `benchmarks/test_x.py` or
        # `repro/chunkstore/store.py`
        for match in re.finditer(r"`([A-Za-z0-9_./]+\.(?:py|md))(?:::[^`]+)?`", text):
            yield match.group(1)

    @pytest.mark.parametrize(
        "doc", ["DESIGN.md", "EXPERIMENTS.md", "README.md", "docs/INTERNALS.md"]
    )
    def test_referenced_files_exist(self, doc):
        text = (self._ROOT / doc).read_text()
        missing = []
        for path in self._referenced_paths(text):
            candidates = [
                self._ROOT / path,
                self._ROOT / "src" / path,
                self._ROOT / "src" / "repro" / path,
                self._ROOT / "src" / "repro" / "chunkstore" / path,
                self._ROOT / "benchmarks" / path,
                self._ROOT / "tests" / path,
            ]
            if not any(c.exists() for c in candidates):
                missing.append(path)
        assert not missing, f"{doc} references missing files: {missing}"

    def test_design_lists_every_bench_file(self):
        text = (self._ROOT / "DESIGN.md").read_text()
        bench_dir = self._ROOT / "benchmarks"
        unmentioned = [
            p.name
            for p in bench_dir.glob("test_bench_*.py")
            if p.name not in text
        ]
        # comparison/breakdown/workload are referenced via their file names
        assert not unmentioned, f"DESIGN.md misses benches: {unmentioned}"


class TestMiscApis:
    def test_partition_info_fields(self, store):
        pid = store.allocate_partition()
        store.commit(
            [ops.WritePartition(pid, cipher_name="des-cbc", hash_name="sha256")]
        )
        info = store.partition_info(pid)
        assert set(info) == {
            "name", "cipher", "hash", "key", "chunk_count", "copies", "copy_of",
        }
        assert info["chunk_count"] == 0
        assert info["name"] == "" and len(info["key"]) == 8

    def test_data_ranks_excludes_free(self, store):
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        ranks = [store.allocate_chunk(pid) for _ in range(4)]
        store.commit([ops.WriteChunk(pid, r, b"x") for r in ranks])
        store.commit([ops.DeallocateChunk(pid, ranks[1])])
        assert store.data_ranks(pid) == [ranks[0], ranks[2], ranks[3]]

    def test_stored_and_live_bytes_relationship(self, store):
        pid = store.allocate_partition()
        store.commit([ops.WritePartition(pid, cipher_name="null", hash_name="sha1")])
        for i in range(10):
            store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"d" * 100)])
        assert 0 < store.live_bytes() <= store.stored_bytes()
