"""The timer seam and the control plane stay off the simulator package.

``Clock`` is what both backends implement, and the handoff and autoscaler
drive the control plane through it, so none of these modules may import
``repro.sim`` (ROADMAP item 13).  Imports are read from the source, so a
function-local or ``TYPE_CHECKING`` import counts as well.
"""

import ast
import importlib

import pytest

SIM = "repro.sim"
MODULES = (
    "repro.core.clock",
    "repro.live.clock",
    "repro.deploy.handoff",
    "repro.deploy.autoscaler",
)


def imported_modules(name: str) -> set[str]:
    """Every module ``name``'s source imports, relative imports resolved."""
    module = importlib.import_module(name)
    package = name.split(".")[:-1]
    found = set()
    with open(module.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            origin = ".".join(base + ([node.module] if node.module else []))
            found.add(origin)
            # ``from .. import sim`` imports the submodule ``repro.sim``.
            found.update(f"{origin}.{alias.name}" for alias in node.names)
    return found


def test_resolves_relative_imports():
    assert "repro.sharding" in imported_modules("repro.deploy.handoff")
    assert "repro.core.clock.ClockCallback" in imported_modules("repro.live.clock")


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_nothing_from_the_simulator(name):
    offending = sorted(
        module for module in imported_modules(name)
        if module == SIM or module.startswith(SIM + ".")
    )
    assert not offending, f"{name} imports {offending}"
