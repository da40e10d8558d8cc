"""The offline inspection tool (attacker view vs trusted view)."""

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.tools.inspect import (
    attacker_view,
    map_vectors_needed,
    render,
    trusted_view,
)
from tests.conftest import make_config, make_platform


@pytest.fixture
def populated():
    platform = make_platform()
    store = ChunkStore.format(platform, make_config())
    pid = store.allocate_partition()
    store.commit(
        [
            ops.WritePartition(
                pid, cipher_name="ctr-sha256", hash_name="sha1", name="appdata"
            )
        ]
    )
    for i in range(10):
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"v" * 100)])
    store.checkpoint()
    return platform, store, pid


class TestAttackerView:
    def test_sees_only_plaintext_metadata(self, populated):
        platform, store, pid = populated
        view = attacker_view(platform.untrusted)
        assert view["format"] == "TDB v1"
        assert view["segment_size"] == store.config.segment_size
        assert view["validation_mode"] == "counter"
        # nothing about partitions, chunk counts, or contents
        assert "partitions" not in view
        assert "live_bytes" not in view

    def test_non_tdb_image(self):
        platform = make_platform(size=64 * 1024)
        view = attacker_view(platform.untrusted)
        assert "not a TDB store" in view["format"]

    def test_written_regions_look_random(self, populated):
        platform, store, pid = populated
        view = attacker_view(platform.untrusted)
        assert len(view["nonzero_density_samples"]) == 3
        # check the actually-written log head directly: ciphertext has
        # almost no zero bytes
        start = store.config.superblock_size
        blob = platform.untrusted.tamper_read(start, 2048)
        density = sum(1 for b in blob if b) / len(blob)
        assert density > 0.9


class TestTrustedView:
    def test_reports_partitions_and_stats(self, populated):
        platform, store, pid = populated
        view = trusted_view(store)
        named = [p for p in view["partitions"] if p["pid"] == pid]
        assert named and named[0]["name"] == "appdata"
        assert named[0]["chunks"] == 10
        assert view["stored_bytes"] > 0
        assert 0 < view["utilization"] <= 1.0
        assert view["log_space"]["free_segments"] > 0

    def test_says_whether_the_map_is_resident_and_where_the_bytes_went(self, populated):
        platform, store, pid = populated
        view = trusted_view(store)
        needed = {p["pid"]: p["map_vectors_needed"] for p in view["partitions"]}
        assert needed[pid] == 1  # ten chunks: one map chunk, the root
        cache = view["cache"]
        assert cache["vector_capacity"] == store.config.cache_size // store.config.fanout
        assert 0 < cache["vectors_held"] <= cache["vector_capacity"]
        kinds = view["log_bytes_by_kind"]
        assert sum(kinds.values()) == store.logbuf.bytes_appended
        assert kinds["data"] > 0 and kinds["leader"] > 0
        assert view["cleaner"]["cleaned_segments"] == 0
        text = render(view)
        assert "map_vectors_needed=1" in text and "vector_capacity:" in text
        assert "log_bytes_by_kind:" in text and "cleaner_record: 0" in text

    def test_shows_free_and_deferred_segments_against_the_reserve(self, populated):
        platform, store, pid = populated
        for _ in range(3):  # obsolete versions for the cleaner to find
            store.commit([ops.WriteChunk(pid, r, b"z" * 500) for r in range(10)])
        store.checkpoint()
        assert store.clean(max_segments=1) == 1
        view = trusted_view(store)
        assert set(view["segments"]) == {"total", "residual"}  # counted once
        space = view["log_space"]
        assert space["deferred_segments"] == 1
        assert space["free_segments"] == len(store.segman.free_segments)
        assert space["reserve_bytes"] >= store.writer.max_version_size
        assert space["capacity_bytes"] == store.log_space.capacity()
        text = render(view)
        assert "deferred_segments: 1" in text and "reserve_bytes:" in text

    def test_map_vectors_needed_counts_every_level(self):
        assert map_vectors_needed(range(100_000), 64) == 1563 + 25 + 1
        assert map_vectors_needed([5], 64) == 1
        assert map_vectors_needed([70], 64) == 2  # leaf 1 and the root above it
        assert map_vectors_needed([], 64) == 0

    def test_render_is_stringy(self, populated):
        platform, store, pid = populated
        text = render(trusted_view(store))
        assert "partitions:" in text and "appdata" in text
        text2 = render(attacker_view(platform.untrusted))
        assert "TDB v1" in text2


class TestCli:
    def test_cli_on_file_store(self, tmp_path, capsys):
        from repro.platform import (
            CrashInjector,
            FileUntrustedStore,
            MemoryArchivalStore,
            SecretStore,
        )
        from repro.platform.tamper_resistant import (
            TamperResistantCounter,
            TamperResistantStore,
        )
        from repro.platform.trusted_platform import TrustedPlatform
        from repro.tools.inspect import main

        path = str(tmp_path / "store.img")
        injector = CrashInjector()
        file_store = FileUntrustedStore(path, 1 << 20, injector)
        platform = TrustedPlatform(
            secret_store=SecretStore.generate(),
            tamper_resistant=TamperResistantStore(),
            counter=TamperResistantCounter(),
            untrusted=file_store,
            archival=MemoryArchivalStore(),
            injector=injector,
        )
        store = ChunkStore.format(platform, make_config())
        store.close()
        file_store.close()
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "TDB v1" in out

    def test_cli_usage(self, capsys):
        from repro.tools.inspect import main

        assert main([]) == 2


def test_loc_counts_code_not_comments_or_docstrings():
    """``make loc`` (``tools/loc.py``): a line counts if it holds a token
    that is neither a comment nor part of a docstring."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
    spec = importlib.util.spec_from_file_location("loc", path)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    source = (
        '"""Module docstring,\ntwo lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # trailing comment: still code\n"
        "\n"
        "def f(x):\n"
        '    """Docstring."""\n'
        "    text = \"\"\"not a docstring,\n"
        "    two lines\"\"\"\n"
        "    return (x,\n"
        "            text)\n"
    )
    assert loc.code_lines(source) == 6
