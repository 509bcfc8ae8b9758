"""The scenario catalogue names every spec once, and its consumers only name entries."""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

import pytest

from repro.analysis.registry import EXPERIMENTS
from repro.workloads import catalogue
from repro.workloads.catalogue import CATALOGUE

ROOT = Path(__file__).resolve().parents[2]
GOLDEN_TEST = ROOT / "tests" / "integration" / "test_golden_summaries.py"
ROW_GUARD = ROOT / "tests" / "runtime" / "test_row_construction_guard.py"
HOT_PATH_BENCH = ROOT / "benchmarks" / "bench_hot_path.py"

#: ``ScenarioSpec(...)`` or ``ScenarioSpec.<factory>(...)``: a spec written out.
SPEC_LITERAL = re.compile(r"\bScenarioSpec\s*(\.\s*\w+\s*)?\(")


def _registered_names() -> list[str]:
    """Every name the catalogue module registers, in source order, duplicates kept."""
    tree = ast.parse(Path(catalogue.__file__).read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            names += [d.args[0].value for d in node.decorator_list
                      if isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_entry"]
        elif isinstance(node, ast.Assign):
            names += [target.slice.value for target in node.targets
                      if isinstance(target, ast.Subscript)
                      and getattr(target.value, "id", None) == "CATALOGUE"
                      and isinstance(target.slice, ast.Constant)]
    return names


def _named_entries(path: Path) -> set[str]:
    """The string keys ``path`` looks up in ``CATALOGUE``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "CATALOGUE"
        and isinstance(node.slice, ast.Constant)
    }


def test_catalogue_names_are_unique():
    names = _registered_names()
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert set(names) == set(CATALOGUE)


def test_registering_a_taken_name_is_refused():
    with pytest.raises(ValueError, match="table3"):
        catalogue._entry("table3")(catalogue.table3)


@pytest.mark.parametrize("name", sorted(CATALOGUE))
def test_every_entry_validates_at_its_defaults(name):
    CATALOGUE[name]().validate()


def test_golden_scenarios_are_catalogue_entries():
    loader = importlib.util.spec_from_file_location("golden_summaries", GOLDEN_TEST)
    golden = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(golden)
    assert len(golden.SCENARIOS) == 10
    for name, build in golden.SCENARIOS.items():
        assert build is CATALOGUE[name], name


@pytest.mark.parametrize("path", [ROW_GUARD, HOT_PATH_BENCH], ids=lambda p: p.name)
def test_profiled_scenarios_are_catalogue_entries(path):
    named = _named_entries(path)
    assert named, f"{path.name} names no catalogue entry"
    assert named <= set(CATALOGUE), named - set(CATALOGUE)


def test_registry_grids_name_only_catalogue_entries():
    for experiment in EXPERIMENTS.values():
        for grid in experiment.grids.values():
            for name, point in grid:
                assert name in CATALOGUE, (experiment.name, name)
                CATALOGUE[name](**point).validate()


def test_no_spec_is_written_outside_the_catalogue():
    src = ROOT / "src" / "repro"
    paths = [*sorted((src / "analysis").rglob("*.py")), src / "experiments.py", src / "cli.py",
             GOLDEN_TEST, ROW_GUARD, HOT_PATH_BENCH]
    literals = {
        f"{path.relative_to(ROOT)}:{number}": line.strip()
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if SPEC_LITERAL.search(line)
    }
    assert not literals, literals
