import ast
from pathlib import Path

import porphyry


def test_library_has_no_assert_statements():
    # A re-check must stay on under `python -O`, which strips assert.
    root = Path(porphyry.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
