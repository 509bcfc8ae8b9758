"""No module under ``src/`` grows past 700 lines (ROADMAP item 12's bound)."""

from pathlib import Path

MAX_LINES = 700
SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_module_exceeds_the_line_bound():
    sizes = {
        str(path.relative_to(SRC)): len(path.read_text().splitlines())
        for path in SRC.rglob("*.py")
    }
    assert sizes, f"no modules found under {SRC}"
    oversized = {name: lines for name, lines in sizes.items() if lines > MAX_LINES}
    assert not oversized, f"modules over {MAX_LINES} lines: {oversized}"
