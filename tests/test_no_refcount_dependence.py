"""Guard: no module under ``src/repro`` may consult reference counts.

Behaviour must not depend on CPython reference-count details, so any
``getrefcount`` name or attribute anywhere in the package fails here.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _refcount_sites(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "getrefcount":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "getrefcount":
            yield node.lineno
        elif isinstance(node, ast.alias) and node.name == "getrefcount":
            yield node.lineno


def test_package_never_reads_reference_counts():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 50
    sites = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in modules
        for line in _refcount_sites(path)
    ]
    assert sites == []
