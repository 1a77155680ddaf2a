"""Module boundaries of the package: no module reaches into a sibling's
private names, so each module's underscore names can change freely."""
import ast
from pathlib import Path

import nantree

PACKAGE = Path(nantree.__file__).parent


def _sibling_imports(tree: ast.Module):
    """(module, name) for each name imported from a module of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "nantree"):
            for alias in node.names:
                yield node.module or ".", alias.name


def test_no_module_imports_a_private_name_of_a_sibling():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    private = [
        f"{path.name}: from {module} import {name}"
        for path in sources
        for module, name in _sibling_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name.startswith("_")
    ]
    assert private == []


def _imports_csv(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "csv" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "csv":
            return True
    return False


def test_only_data_imports_csv():
    """CSV syntax, its error rules included, lives in one module."""
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if _imports_csv(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == ["data.py"]


_PROCESS_CACHES = {"cache", "lru_cache"}


def _process_caches(tree: ast.Module):
    """Each use of functools.cache or functools.lru_cache, however imported."""
    modules = set()  # the names functools is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names if alias.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "functools":
            yield from (f"from functools import {alias.name}" for alias in node.names
                        if alias.name in _PROCESS_CACHES or alias.name == "*")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _PROCESS_CACHES
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield f"{node.value.id}.{node.attr}"


def test_no_process_wide_caches():
    """Memos live as long as the call that fills them (growth keeps its
    categorical cuts per tree): a cache that outlives calls would make work
    counts, such as the Partitions a train builds, depend on what ran
    before."""
    assert list(_process_caches(ast.parse("import functools as ft\n@ft.lru_cache\ndef f(): pass"))) == ["ft.lru_cache"]
    assert list(_process_caches(ast.parse("from functools import cache, reduce"))) == ["from functools import cache"]
    found = [f"{path.name}: {use}" for path in sorted(PACKAGE.rglob("*.py"))
             for use in _process_caches(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
