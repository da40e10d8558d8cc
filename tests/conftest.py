"""Shared fixtures for the TDB test suite."""

from __future__ import annotations

import pytest

from repro.chunkstore import ChunkStore, StoreConfig
from repro.platform import TrustedPlatform


def make_config(**overrides) -> StoreConfig:
    """A small, fast store configuration for tests.

    ``ctr-sha256`` keeps the pure-Python crypto cost negligible; dedicated
    crypto tests exercise DES/3DES explicitly.
    """
    defaults = dict(
        segment_size=16 * 1024,
        system_cipher="ctr-sha256",
        system_hash="sha1",
        validation_mode="counter",
        delta_ut=1,
        checkpoint_dirty_threshold=256,
    )
    defaults.update(overrides)
    return StoreConfig(**defaults)


def chunk_reader(store: ChunkStore, pid: int, via: str):
    """``read(rank)`` over one of the two validated read paths: the locked
    ``store.read_chunk`` or a freshly opened (cold) ``SnapshotView``."""
    if via == "store":
        return lambda rank: store.read_chunk(pid, rank)
    return store.open_snapshot_view(pid).read_chunk


def replay(repro_line: str):
    """The reports the command a ``TrialReport.repro_line()`` spells
    produces, run in this process."""
    import shlex

    from repro.testing.__main__ import build_parser, run

    words = shlex.split(repro_line)
    assert words[:4] == ["PYTHONPATH=src", "python", "-m", "repro.testing"]
    return run(build_parser().parse_args(words[4:]))[1].reports


def make_platform(size: int = 4 * 1024 * 1024, **kwargs) -> TrustedPlatform:
    return TrustedPlatform.create_in_memory(untrusted_size=size, **kwargs)


@pytest.fixture
def platform() -> TrustedPlatform:
    return make_platform()


@pytest.fixture
def store(platform) -> ChunkStore:
    return ChunkStore.format(platform, make_config())


@pytest.fixture(params=["counter", "direct"])
def any_mode_store(platform, request) -> ChunkStore:
    """A store in each validation mode (parametrized)."""
    return ChunkStore.format(
        platform, make_config(validation_mode=request.param)
    )


@pytest.fixture(scope="session")
def tiny_bench():
    """Every phase of ``python -m repro.bench`` at ``--tiny`` sizing, run
    once per session (copy before mutating)."""
    from repro.bench.__main__ import PHASES

    return {name: phase.run(tiny=True) for name, phase in PHASES.items()}
