"""Every name a module imports is read somewhere in that module.

An import that nothing reads is dead code a reader still has to trace.
No linter runs on this repository, so this check walks the syntax tree
of each package module and test file. `from __future__` imports are
exempt, and so are the names a module lists in `__all__`, which it
imports to re-export.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def unused_imports(source):
    """The names `source` binds by import and never reads, sorted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\n"
              "print(os.path.sep)\n")
    assert unused_imports(source) == ["dumps", "system"]


def test_no_unused_imports():
    files = sorted(glob.glob(os.path.join(ROOT, "src", "fieldprobe", "*.py"))
                   + glob.glob(os.path.join(ROOT, "tests", "*.py")))
    assert len(files) > 20
    unused = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            names = unused_imports(handle.read())
        unused += ["%s: %s" % (os.path.relpath(path, ROOT), name)
                   for name in names]
    assert unused == []
