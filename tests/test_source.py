import ast
import os
import subprocess
import sys
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


def test_cli_import_loads_no_package_but_numpy():
    # A CLI call is mostly a fresh interpreter importing porphyry.cli, so
    # each package it pulls in is paid on every call.  What the
    # interpreter loads at start-up, before the import, does not count.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import porphyry.cli\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "print(*sorted(new - set(sys.stdlib_module_names)))\n"
    )
    env = dict(os.environ)
    root = str(Path(porphyry.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert set(r.stdout.split()) <= {"porphyry", "numpy"}
    assert "porphyry" in r.stdout.split()


def _name(node):
    """The name a Name, an attribute or an import alias gives, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.asname or node.name
    return None


def test_one_door_makes_every_verdict():
    # Only semantics._verdicts turns scan hits into verdicts: it is the one
    # caller of the scan and of the re-check of its hits, and no other
    # module names the scan.
    root = Path(porphyry.__file__).parent
    calls = {"_scan": [], "_recheck_hits": []}
    naming_scan = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _name(node) == "_scan":
                naming_scan.add(path.stem)
            if isinstance(node, ast.Call) and _name(node.func) in calls:
                calls[_name(node.func)].append(path.stem)
    assert calls == {"_scan": ["semantics"], "_recheck_hits": ["semantics"]}
    assert naming_scan == {"semantics"}
