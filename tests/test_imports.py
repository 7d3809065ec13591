"""Tooling guards: every name a module under src/ or tests/ imports is used
in that module (imports on a line marked `# noqa` are exempt), and every
private module-level name of the package is read somewhere in src/, so a
refactor cannot leave a dead helper."""

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
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_guard_flags_unused_names():
    source = "import os\nimport sys  # noqa\nimport numpy.linalg\nfrom math import (\n    pi,\n    tau,\n)\n"
    assert unused_imports(source + "print(pi)\n") == [(1, "os"), (3, "numpy"), (6, "tau")]
    assert unused_imports(source + "print(os, numpy.linalg, pi, tau)\n") == []


def _module_level_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """"file: name" of each private module-level name (one leading
    underscore) that no source reads, as a name or as an attribute."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{path}: {name}"
        for path, tree in trees.items()
        for node in tree.body
        for name in _module_level_names(node)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_private_names_are_read():
    files = sorted((ROOT / "src" / "struprune").glob("*.py"))
    assert len(files) > 5
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in files}
    unread = unread_private_names(sources)
    assert not unread, "private names nothing in src/ reads:\n" + "\n".join(unread)


def test_guard_flags_unread_private_names():
    module = ("_used = 1\n_unused: int = 2\n_x, (_y, z) = 1, (2, 3)\n__dunder__ = 4\npublic = 5\n"
              "def _helper():\n    return _used + _x\nclass _Hidden:\n    pass\n")
    assert unread_private_names({"a.py": module}) == ["a.py: _unused", "a.py: _y", "a.py: _helper", "a.py: _Hidden"]
    other = "import a\nfrom a import _unused\nprint(a._helper, a._Hidden)\n"
    assert unread_private_names({"a.py": module, "b.py": other}) == ["a.py: _unused", "a.py: _y"]
