"""Multiple partitions (§5): crypto parameters, copies, diff,
deallocation cascade, names, reset semantics."""

import pytest

from repro.chunkstore import ChunkStore, DiffChange, ops
from repro.errors import (
    ChunkNotAllocatedError,
    ChunkStoreError,
    PartitionNotFoundError,
)
from tests.conftest import make_config, make_platform


@pytest.fixture
def env():
    platform = make_platform(size=8 * 1024 * 1024)
    store = ChunkStore.format(platform, make_config())
    return platform, store


def new_partition(store, cipher="ctr-sha256", hash_name="sha1", name=""):
    pid = store.allocate_partition()
    store.commit(
        [ops.WritePartition(pid, cipher_name=cipher, hash_name=hash_name, name=name)]
    )
    return pid


class TestPartitionLifecycle:
    def test_partitions_are_isolated(self, env):
        _, store = env
        p1 = new_partition(store)
        p2 = new_partition(store)
        store.commit([ops.WriteChunk(p1, store.allocate_chunk(p1), b"one")])
        store.commit([ops.WriteChunk(p2, store.allocate_chunk(p2), b"two")])
        assert store.read_chunk(p1, 0) == b"one"
        assert store.read_chunk(p2, 0) == b"two"

    def test_same_position_different_partitions(self, env):
        """A chunk in one partition may share its position with a chunk
        in another (§5.1)."""
        _, store = env
        p1 = new_partition(store)
        p2 = new_partition(store)
        store.commit(
            [
                ops.WriteChunk(p1, store.allocate_chunk(p1), b"p1-chunk"),
                ops.WriteChunk(p2, store.allocate_chunk(p2), b"p2-chunk"),
            ]
        )
        assert store.read_chunk(p1, 0) != store.read_chunk(p2, 0)

    def test_per_partition_crypto_parameters(self, env):
        _, store = env
        encrypted = new_partition(store, cipher="des-cbc", hash_name="sha256")
        plain = new_partition(store, cipher="null", hash_name="sha1")
        unvalidated = new_partition(store, cipher="ctr-sha256", hash_name="null")
        for pid in (encrypted, plain, unvalidated):
            store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"data")])
            assert store.read_chunk(pid, 0) == b"data"
        info = store.partition_info(encrypted)
        assert info["cipher"] == "des-cbc"
        assert info["hash"] == "sha256"

    def test_null_cipher_partition_is_readable_by_attacker(self, env):
        """Sanity: a null-cipher partition really does store plaintext —
        secrecy is genuinely optional per partition (§2.2)."""
        platform, store = env
        pid = new_partition(store, cipher="null")
        store.commit(
            [ops.WriteChunk(pid, store.allocate_chunk(pid), b"FINDME-PLAINTEXT")]
        )
        assert b"FINDME-PLAINTEXT" in platform.untrusted.tamper_image()

    def test_encrypted_partition_hides_data(self, env):
        platform, store = env
        pid = new_partition(store, cipher="ctr-sha256")
        store.commit(
            [ops.WriteChunk(pid, store.allocate_chunk(pid), b"FINDME-SECRET")]
        )
        assert b"FINDME-SECRET" not in platform.untrusted.tamper_image()

    def test_unknown_partition_raises(self, env):
        _, store = env
        with pytest.raises((PartitionNotFoundError, ChunkNotAllocatedError)):
            store.read_chunk(99, 0)

    def test_partition_ids_listing(self, env):
        _, store = env
        p1 = new_partition(store)
        p2 = new_partition(store)
        assert set(store.partition_ids()) >= {p1, p2}

    def test_named_partition_lookup(self, env):
        _, store = env
        pid = new_partition(store, name="registry")
        assert store.find_partition("registry") == pid
        assert store.find_partition("missing") is None

    def test_write_partition_reset(self, env):
        """WritePartition on a written id resets it to empty (§5.1)."""
        _, store = env
        pid = new_partition(store)
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"old")])
        store.commit(
            [ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")]
        )
        with pytest.raises(ChunkNotAllocatedError):
            store.read_chunk(pid, 0)
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"new")])
        assert store.read_chunk(pid, 0) == b"new"

    def test_partition_and_chunk_create_in_one_commit(self, env):
        """§5.1: store a new partition's id in a chunk of an existing
        partition in one atomic step."""
        _, store = env
        existing = new_partition(store)
        directory = store.allocate_chunk(existing)
        fresh = store.allocate_partition()
        store.commit(
            [
                ops.WritePartition(fresh, cipher_name="null", hash_name="sha1"),
                ops.WriteChunk(fresh, 0, b"inside new partition"),
                ops.WriteChunk(existing, directory, str(fresh).encode()),
            ]
        )
        assert int(store.read_chunk(existing, directory)) == fresh
        assert store.read_chunk(fresh, 0) == b"inside new partition"


class TestCopies:
    def test_copy_preserves_state_at_copy_time(self, env):
        _, store = env
        pid = new_partition(store)
        ranks = [store.allocate_chunk(pid) for _ in range(10)]
        store.commit([ops.WriteChunk(pid, r, f"v{r}".encode()) for r in ranks])
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        store.commit([ops.WriteChunk(pid, ranks[0], b"mutated")])
        assert store.read_chunk(snap, ranks[0]) == b"v0"
        assert store.read_chunk(pid, ranks[0]) == b"mutated"

    def test_copy_is_independently_writable(self, env):
        """Copies 'can also be modified independently' (§5.3)."""
        _, store = env
        pid = new_partition(store)
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"orig")])
        copy = store.allocate_partition()
        store.commit([ops.CopyPartition(copy, pid)])
        store.commit([ops.WriteChunk(copy, 0, b"copy-side")])
        assert store.read_chunk(pid, 0) == b"orig"
        assert store.read_chunk(copy, 0) == b"copy-side"

    def test_copy_inherits_crypto_parameters(self, env):
        _, store = env
        pid = new_partition(store, cipher="des-cbc", hash_name="sha256")
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        assert store.partition_info(snap)["cipher"] == "des-cbc"

    def test_copy_tracking(self, env):
        _, store = env
        pid = new_partition(store)
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        assert snap in store.partition_info(pid)["copies"]
        assert store.partition_info(snap)["copy_of"] == pid

    def test_copy_of_copy(self, env):
        _, store = env
        pid = new_partition(store)
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"x")])
        c1 = store.allocate_partition()
        store.commit([ops.CopyPartition(c1, pid)])
        c2 = store.allocate_partition()
        store.commit([ops.CopyPartition(c2, c1)])
        assert store.read_chunk(c2, 0) == b"x"

    def test_copies_survive_reopen(self, env):
        platform, store = env
        pid = new_partition(store)
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"v")])
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        store.commit([ops.WriteChunk(pid, 0, b"changed")])
        store.close()
        platform.reboot()
        reopened = ChunkStore.open(platform)
        assert reopened.read_chunk(snap, 0) == b"v"
        assert reopened.read_chunk(pid, 0) == b"changed"


class TestDiff:
    def test_diff_classification(self, env):
        _, store = env
        pid = new_partition(store)
        ranks = [store.allocate_chunk(pid) for _ in range(6)]
        store.commit([ops.WriteChunk(pid, r, b"base") for r in ranks])
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        store.commit([ops.WriteChunk(pid, ranks[1], b"changed")])
        # allocate before deallocating, else the freed rank is reused (§4.4)
        added = store.allocate_chunk(pid)
        store.commit([ops.WriteChunk(pid, added, b"added")])
        store.commit([ops.DeallocateChunk(pid, ranks[2])])
        diff = store.diff(snap, pid)
        assert diff == {
            ranks[1]: DiffChange.CHANGED,
            ranks[2]: DiffChange.REMOVED,
            added: DiffChange.ADDED,
        }

    def test_diff_of_identical_snapshots_is_empty(self, env):
        _, store = env
        pid = new_partition(store)
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"v")])
        s1 = store.allocate_partition()
        s2 = store.allocate_partition()
        store.commit([ops.CopyPartition(s1, pid), ops.CopyPartition(s2, pid)])
        assert store.diff(s1, s2) == {}

    def test_diff_with_different_tree_heights(self, env):
        platform = make_platform(size=8 * 1024 * 1024)
        store = ChunkStore.format(platform, make_config(fanout=4))
        pid = new_partition(store)
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"a")])
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        # grow the source well past the snapshot's tree height
        for i in range(30):
            store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"g")])
        diff = store.diff(snap, pid)
        assert len(diff) == 30
        assert all(change == DiffChange.ADDED for change in diff.values())

    def test_diff_unchanged_rewrite_not_reported(self, env):
        """Rewriting a chunk with identical content yields an identical
        hash, so diff reports nothing (hash comparison, §5.3)."""
        _, store = env
        pid = new_partition(store)
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"same")])
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        store.commit([ops.WriteChunk(pid, 0, b"same")])
        assert store.diff(snap, pid) == {}


class TestPartitionDeallocation:
    def test_dealloc_removes_partition(self, env):
        _, store = env
        pid = new_partition(store)
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"x")])
        store.commit([ops.DeallocatePartition(pid)])
        assert not store.partition_exists(pid)
        with pytest.raises((PartitionNotFoundError, ChunkStoreError)):
            store.read_chunk(pid, 0)

    def test_dealloc_cascades_to_copies(self, env):
        """Deallocating a partition deallocates all of its copies (§5.1)."""
        _, store = env
        pid = new_partition(store)
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"x")])
        c1 = store.allocate_partition()
        store.commit([ops.CopyPartition(c1, pid)])
        c2 = store.allocate_partition()
        store.commit([ops.CopyPartition(c2, c1)])
        store.commit([ops.DeallocatePartition(pid)])
        for dead in (pid, c1, c2):
            assert not store.partition_exists(dead)

    def test_dealloc_copy_leaves_source(self, env):
        _, store = env
        pid = new_partition(store)
        store.commit([ops.WriteChunk(pid, store.allocate_chunk(pid), b"x")])
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        store.commit([ops.DeallocatePartition(snap)])
        assert store.partition_exists(pid)
        assert not store.partition_exists(snap)
        assert snap not in store.partition_info(pid)["copies"]
        assert store.read_chunk(pid, 0) == b"x"

    def test_partition_id_reused_after_dealloc(self, env):
        _, store = env
        pid = new_partition(store)
        store.commit([ops.DeallocatePartition(pid)])
        assert store.allocate_partition() == pid

    def test_dealloc_survives_reopen(self, env):
        platform, store = env
        pid = new_partition(store)
        snap = store.allocate_partition()
        store.commit([ops.CopyPartition(snap, pid)])
        store.commit([ops.DeallocatePartition(pid)])
        store.close()
        platform.reboot()
        reopened = ChunkStore.open(platform)
        assert not reopened.partition_exists(pid)
        assert not reopened.partition_exists(snap)


@pytest.mark.parametrize("mode", ["counter", "direct"])
@pytest.mark.parametrize("crash", [False, True], ids=["live", "crash-replay"])
def test_dealloc_of_a_copy_fixes_a_source_that_is_not_resident(mode, crash):
    """Regression: after a reopen only the system partition is resident, and
    deallocating a copy fixed its source's ``copies`` list only if the
    source happened to be.  The stale entry survived; the copy's id was
    handed out again; and deallocating the source then took the unrelated
    partition holding that id with it.  The same list must come out of
    replaying the deallocation after a crash before the next checkpoint."""
    platform = make_platform()
    store = ChunkStore.format(platform, make_config(validation_mode=mode))
    source = new_partition(store)
    for rank in range(5):
        store.commit([ops.WriteChunk(source, store.allocate_chunk(source), b"s%d" % rank)])
    copy = store.allocate_partition()
    store.commit([ops.CopyPartition(copy, source)])
    store.close()
    store = ChunkStore.open(platform)

    store.commit([ops.DeallocatePartition(copy)])
    if crash:
        platform.reboot()
        store = ChunkStore.open(platform)
    assert store._state(source).payload.copies == []

    unrelated = store.allocate_partition()
    assert unrelated == copy  # the id is handed out again
    store.commit([ops.WritePartition(unrelated, cipher_name="null", hash_name="sha1")])
    rank = store.allocate_chunk(unrelated)
    store.commit([ops.WriteChunk(unrelated, rank, b"nobody deallocated me")])
    store.commit([ops.DeallocatePartition(source)])
    assert store.partition_exists(unrelated)
    assert store.read_chunk(unrelated, rank) == b"nobody deallocated me"
    store.close()
    assert ChunkStore.open(platform).read_chunk(unrelated, rank) == (
        b"nobody deallocated me"
    )
