"""Longevity soak: many generations of heavy mixed work, each ending in
a crash or clean close, with cleaning pressure throughout — the database
must stay correct and the log must not leak space across generations."""

import random

import pytest

from repro.chunkstore import ChunkStore, ops
from repro.errors import ChunkNotAllocatedError, ChunkNotWrittenError
from tests.conftest import make_config, make_platform


#: per-mode seeds under which at least one generation ends with a residual
#: chain that jumps into a lower-numbered segment (one the cleaner freed),
#: so recovery is exercised on a log whose tail sits below its leader.  A
#: freed segment is claimable only after the next checkpoint, which starts
#: a fresh residual chain, so such endings are rarer than they were with
#: immediate reuse: these were searched for (direct mode: one seed in ~300)
SEEDS = {"counter": 11, "direct": 463}


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["counter", "direct"])
def test_ten_generations_of_churn(mode):
    platform = make_platform(size=2 * 1024 * 1024)
    config = make_config(
        validation_mode=mode,
        segment_size=16 * 1024,
        delta_ut=3,
        checkpoint_dirty_threshold=60,
    )
    store = ChunkStore.format(platform, config)
    pid = store.allocate_partition()
    store.commit([ops.WritePartition(pid, cipher_name="ctr-sha256", hash_name="sha1")])
    rng = random.Random(SEEDS[mode])
    model = {}
    wrapped_reopens = 0

    for generation in range(10):
        for _step in range(60):
            action = rng.random()
            if action < 0.6 or not model:
                rank = rng.randrange(30)
                state = store.partitions[pid]
                if not (
                    rank in state.pending_ranks or state.is_committed_written(rank)
                ):
                    state.allocate_specific(rank)
                data = bytes([generation]) * rng.randrange(50, 600)
                store.commit([ops.WriteChunk(pid, rank, data)])
                model[rank] = data
            elif action < 0.75:
                rank = rng.choice(list(model))
                store.commit([ops.DeallocateChunk(pid, rank)])
                del model[rank]
            elif action < 0.85:
                store.checkpoint()
            else:
                store.clean(max_segments=2)
        # end of generation: crash or clean close, then recover
        if generation % 2 == 1:
            store.close()
        residual = store.segman.residual_segments
        wrapped_reopens += any(b < a for a, b in zip(residual, residual[1:]))
        platform.reboot()
        store = ChunkStore.open(platform)
        # full verification every generation
        for rank, data in model.items():
            assert store.read_chunk(pid, rank) == data, (mode, generation, rank)
        for rank in range(30):
            if rank not in model:
                with pytest.raises((ChunkNotAllocatedError, ChunkNotWrittenError)):
                    store.read_chunk(pid, rank)
        # space sanity: live data fits in the model, store not leaking
        assert store.live_bytes() < platform.untrusted.size
    assert wrapped_reopens > 0, "no reopen saw a descending residual chain"
    # after ten generations the store still accepts work
    state = store.partitions[pid]
    state.allocate_specific(31)
    store.commit([ops.WriteChunk(pid, 31, b"the end")])
    assert store.read_chunk(pid, 31) == b"the end"
