"""The one trial spine under the adversary, the differential runner and
the fault sweep (`repro.testing.spine`): one variant → config → open, one
report whose repro line replays it, one CLI."""

import ast
import dataclasses
import itertools
import re
from pathlib import Path

import pytest

from repro.chunkstore import StoreConfig
from repro.crypto import aead
from repro.testing import (
    Adversary,
    DifferentialRunner,
    FaultSweep,
    TrialReport,
    Variant,
    spine,
)
from repro.testing import __main__ as cli
from tests.conftest import replay

PACKAGE = Path(spine.__file__).parent
HARNESSES = [Adversary, DifferentialRunner, FaultSweep]
VARIANTS = [
    Variant(mode, payload_cache, one_vector_cache, with_aead)
    for mode, payload_cache, one_vector_cache, with_aead in itertools.product(
        ("counter", "direct"), (True, False), (False, True), (False, True)
    )
    if aead.available() or not with_aead
]


def test_the_spine_exists_once():
    """Static guard, like the chunk store's: one ``ChunkStore.open`` call
    (``Variant.open``), one report and one result class, no private config
    builder, each CLI flag defined once."""
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    code = "\n".join(sources.values())
    opens = [
        (name, node.lineno)
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "open"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "ChunkStore"
    ]
    assert [name for name, _ in opens] == ["spine.py"], opens
    for name in ("TrialReport", "SweepResult"):
        assert len(re.findall(rf"^class \w*{name}\b", code, re.M)) == 1, name
    assert not re.search(r"_open_config|_make_config|scenario_config", code)
    assert not re.search(r"\bStoreConfig\(", code.replace(sources["spine.py"], ""))
    flags = re.findall(r'"(--[a-z-]+)"', sources["__main__.py"])
    assert len(set(flags)) == len(flags) == 13, flags
    assert sources["__main__.py"].count("add_argument(") <= 13
    assert len(dataclasses.fields(StoreConfig)) == 14


def test_every_flag_is_one_the_parent_had_and_every_subcommand_takes_the_variant():
    parser = cli.build_parser()
    for command in ("adversary", "differential", "faults"):
        args = parser.parse_args(
            [command, "--mode", "direct", "--aead", "--no-payload-cache",
             "--one-vector-cache", "--seeds", "3", "--base-seed", "9"]
        )
        assert (args.aead, args.no_payload_cache, args.one_vector_cache) == (True,) * 3
        assert (args.trials, args.base_seed) == (3, 9)
    flags = re.findall(r'"(--[a-z-]+)"', (PACKAGE / "__main__.py").read_text())
    assert set(flags) == {
        "--mode", "--trials", "--seeds", "--base-seed", "--seed", "--class",
        "--ops", "--point", "--rate", "--crash-sites", "--no-payload-cache",
        "--one-vector-cache", "--aead",
    }


def test_a_variant_renders_the_flags_that_parse_back_to_it():
    for variant in VARIANTS:
        words = ["differential", *variant.flags().split(), "--seed", "0", "--ops", "3"]
        harness, _ = cli.run(cli.build_parser().parse_args(words))
        assert harness.variant == variant
        config = variant.config()
        assert config.validation_mode == variant.mode
        assert (config.payload_cache_bytes > 0) == variant.payload_cache
        assert (config.cache_size == config.fanout) == variant.one_vector_cache
        assert config.system_cipher == ("aes-256-gcm" if variant.aead else "ctr-sha256")


@pytest.mark.parametrize("harness", HARNESSES, ids=lambda h: h.NAME)
def test_every_variants_repro_line_replays_its_own_report(harness):
    """The line a failing trial prints is the command that reruns *that*
    trial: same variant, same seed, same pinned cell — whichever of the 16
    variants it ran under (the old ``make …`` lines could spell none of
    the three variant flags)."""
    for seed, variant in enumerate(VARIANTS, start=3):
        report = harness(variant).run_trial(seed)
        assert isinstance(report, TrialReport) and not report.failed
        assert variant.flags() in report.repro_line()
        assert f"{harness.NAME} --mode" in report.repro_line()
        [again] = replay(report.repro_line())
        assert again == report, report.repro_line()
        # what was done is spelled the same; what garbage decrypted to may not be
        assert again.detail.split(" -> ")[0] == report.detail.split(" -> ")[0]


def test_a_pinned_cell_is_in_the_line_and_survives_the_replay():
    pinned = [
        Adversary(Variant("direct")).run_trial(11, attack="image_replay"),
        FaultSweep(Variant("direct")).run_trial(11, point="remote", rate=0.1),
        DifferentialRunner(Variant("direct")).run_trial(11, ops=20),
    ]
    assert [r.cell for r in pinned] == ["image_replay", "remote@0.1", "ops=20"]
    for report in pinned:
        assert report.repro_line().endswith(f"--seed 11 {report.pins}")
        assert replay(report.repro_line()) == [report]


def test_main_prints_the_table_and_exits_by_the_verdict(capsys, monkeypatch):
    assert cli.main(["differential", "--seeds", "2", "--one-vector-cache"]) == 0
    out = capsys.readouterr().out
    assert "differential: --mode counter --one-vector-cache trials=2" in out
    assert "agreed=2" in out and DifferentialRunner.HELD in out

    assert cli.main(["faults", "--seed", "4", "--point", "flush", "--rate", "0.1"]) == 0
    assert "flush@0.1" in capsys.readouterr().out

    monkeypatch.setattr(
        Adversary, "_judge", lambda self, platform, acceptable: 1 / 0
    )
    assert cli.main(["adversary", "--seed", "8", "--no-payload-cache"]) == 1
    out = capsys.readouterr().out
    assert "foreign-error: ZeroDivisionError" in out
    assert (
        "repro: PYTHONPATH=src python -m repro.testing adversary --mode counter "
        "--no-payload-cache --seed 8 --class bit_flip" in out
    )


def test_aead_without_a_backend_exits_2_on_every_subcommand(capsys, monkeypatch):
    monkeypatch.setattr(aead, "available", lambda: False)
    for command in ("adversary", "differential", "faults"):
        assert cli.main([command, "--aead", "--trials", "1"]) == 2
        assert "AEAD backend" in capsys.readouterr().err
