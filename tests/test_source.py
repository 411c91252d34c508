"""Source-level rules: checks that guard a result must survive ``python -O``."""

import ast
from pathlib import Path

import aztecbridge


def test_no_assert_statements_in_the_package():
    sources = sorted(Path(aztecbridge.__file__).parent.glob("*.py"))
    assert {"regions.py", "stats.py", "formulas.py"} <= {p.name for p in sources}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "python -O strips these asserts: " + ", ".join(found)
