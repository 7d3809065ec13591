"""Tooling guard: every name a module under src/ or tests/ imports is used
in that module. Package __init__ re-exports and imports on a line marked
`# noqa` are exempt."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the source never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa" in lines[node.lineno - 1] or "# noqa" in lines[alias.lineno - 1]:
                continue
            imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_guard_flags_unused_names():
    source = "import os\nimport sys  # noqa\nimport numpy.linalg\nfrom math import (\n    pi,\n    tau,\n)\n"
    assert unused_imports(source + "print(pi)\n") == [(1, "os"), (3, "numpy"), (6, "tau")]
    assert unused_imports(source + "print(os, numpy.linalg, pi, tau)\n") == []
