"""Chunk id / position arithmetic (§4.3)."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.chunkstore.ids import (
    LEADER_HEIGHT,
    SYSTEM_PARTITION,
    ChunkId,
    data_id,
    leader_id,
    partition_rank,
    rank_to_partition,
    required_height,
    tree_capacity,
)


class TestChunkId:
    def test_kinds(self):
        assert data_id(1, 0).is_data()
        assert ChunkId(1, 2, 0).is_map()
        assert leader_id(1).is_leader()
        assert not leader_id(1).is_data()

    def test_parent_child_roundtrip(self):
        child = ChunkId(3, 1, 130)
        parent = child.parent(64)
        assert parent == ChunkId(3, 2, 2)
        assert parent.child(64, child.slot(64)) == child

    def test_parent_of_leader_rejected(self):
        with pytest.raises(ValueError):
            leader_id(1).parent(64)

    def test_child_of_data_rejected(self):
        with pytest.raises(ValueError):
            data_id(1, 0).child(64, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ChunkId(-1, 0, 0)

    def test_str(self):
        assert str(ChunkId(2, 1, 5)) == "2:1.5"
        assert str(leader_id(0)) == "0:leader"

    @given(
        st.integers(0, 100),
        st.integers(0, 5),
        st.integers(0, 10**6),
        st.sampled_from([2, 4, 64]),
    )
    def test_parent_slot_invariant(self, partition, height, rank, fanout):
        cid = ChunkId(partition, height, rank)
        parent = cid.parent(fanout)
        assert parent.height == height + 1
        assert parent.child(fanout, cid.slot(fanout)) == cid


class TestChunkIdValue:
    """An id is the 3-tuple ``(partition, height, rank)``: it hashes,
    compares and orders as one, and keeps its own type and text."""

    def test_hashes_and_compares_as_the_plain_tuple(self):
        cid = ChunkId(3, 1, 130)
        assert hash(cid) == hash((3, 1, 130))
        assert cid == (3, 1, 130) and (3, 1, 130) == cid
        assert cid != (3, 1, 131) and cid != ChunkId(3, 1, 131)
        assert tuple(cid) == (3, 1, 130) == (cid.partition, cid.height, cid.rank)

    def test_orders_by_partition_height_rank(self):
        ids = [ChunkId(2, 0, 0), ChunkId(1, 1, 0), ChunkId(1, 0, 9), ChunkId(1, 0, 2)]
        assert sorted(ids) == [(1, 0, 2), (1, 0, 9), (1, 1, 0), (2, 0, 0)]
        assert ChunkId(1, 0, 9) < ChunkId(1, 1, 0) < leader_id(1) < ChunkId(2, 0, 0)

    def test_is_a_dict_and_set_key(self):
        table = {ChunkId(1, 0, 2): "a", leader_id(1): "b"}
        assert table[ChunkId(1, 0, 2)] == "a" and table[(1, LEADER_HEIGHT, 0)] == "b"
        assert {data_id(1, 2), ChunkId(1, 0, 2), (1, 0, 2)} == {ChunkId(1, 0, 2)}

    def test_text(self):
        assert str(ChunkId(2, 1, 5)) == "2:1.5" and f"{leader_id(4)}" == "4:leader"
        assert repr(ChunkId(2, 1, 5)) == "ChunkId(partition=2, height=1, rank=5)"

    def test_immutable(self):
        cid = ChunkId(2, 1, 5)
        with pytest.raises(AttributeError):
            cid.rank = 6
        with pytest.raises(AttributeError):
            cid.extra = 1
        assert cid == ChunkId(2, 1, 5)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy]
        + [lambda v, p=p: pickle.loads(pickle.dumps(v, p)) for p in range(6)],
    )
    def test_copy_and_pickle_keep_the_type(self, clone):
        cid = ChunkId(7, LEADER_HEIGHT, 0)
        again = clone(cid)
        assert type(again) is ChunkId and again == cid and again.is_leader()

    @pytest.mark.parametrize("parts", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_negative_components_rejected(self, parts):
        with pytest.raises(ValueError):
            ChunkId(*parts)


class TestHeights:
    def test_required_height_empty(self):
        assert required_height(64, 0) == 0

    def test_required_height_single(self):
        assert required_height(64, 1) == 1

    def test_required_height_boundary(self):
        assert required_height(64, 64) == 1
        assert required_height(64, 65) == 2
        assert required_height(64, 64 * 64) == 2
        assert required_height(64, 64 * 64 + 1) == 3

    def test_tree_capacity(self):
        assert tree_capacity(64, 1) == 64
        assert tree_capacity(64, 3) == 64**3

    @given(st.integers(1, 10**7), st.sampled_from([2, 8, 64]))
    def test_height_covers(self, next_rank, fanout):
        height = required_height(fanout, next_rank)
        assert tree_capacity(fanout, height) >= next_rank
        if height > 1:
            assert tree_capacity(fanout, height - 1) < next_rank


class TestPartitionRanks:
    def test_roundtrip(self):
        for pid in range(1, 50):
            assert rank_to_partition(partition_rank(pid)) == pid

    def test_system_partition_has_no_rank(self):
        with pytest.raises(ValueError):
            partition_rank(SYSTEM_PARTITION)
