"""Static checks on the instrumentation seam: the library never imports
its own bench package, and every span/event name used in ``src/`` is in
the catalogue (docs/OBSERVABILITY.md)."""

import ast
import re
from pathlib import Path

from repro.obs.trace import OPERATIONS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CATALOGUE = (ROOT / "docs" / "OBSERVABILITY.md").read_text()


def modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_nothing_outside_the_bench_package_imports_it():
    offenders = []
    for path, tree in modules():
        if SRC / "bench" in path.parents:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(n == "repro.bench" or n.startswith("repro.bench.") for n in names):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not offenders, offenders


def instrumented_names(function):
    """First arguments of every ``obs.<function>("name", ...)`` in src/."""
    found = set()
    for path, tree in modules():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == function
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "obs"
            ):
                name = node.args[0]
                assert isinstance(name, ast.Constant) and isinstance(name.value, str), (
                    f"{path.relative_to(ROOT)}:{node.lineno}: the name passed to "
                    f"obs.{function} must be a literal so it can be catalogued"
                )
                found.add(name.value)
    return found


def test_every_span_and_event_name_is_catalogued():
    catalogued = set(re.findall(r"`([a-z_.]+)`", CATALOGUE))
    spans, events = instrumented_names("span"), instrumented_names("emit")
    assert spans and events
    assert not (spans | events | instrumented_names("observe")) - catalogued
    # the always-on set names real spans only
    assert OPERATIONS <= spans
