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


def test_only_tree_imports_the_missing_routes():
    """Where a missing cell goes is split.Partition's answer, and only tree
    branches on it: no other module imports the routes to decide by hand."""
    routing = {"MissingRoute", "majority_route", "*"}
    importers = sorted({path.name for path in PACKAGE.glob("*.py")
                        for module, name in _sibling_imports(ast.parse(path.read_text(encoding="utf-8")))
                        if module.split(".")[-1] == "split" and name in routing})
    assert importers == ["__init__.py", "tree.py"]


def _imports(tree: ast.Module, packages: set[str]) -> bool:
    """Whether ``tree`` imports from one of the top-level ``packages``, in any scope."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] in packages for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] in packages:
            return True
    return False


def _importers(packages: set[str]) -> list[str]:
    return [path.name for path in sorted(PACKAGE.glob("*.py"))
            if _imports(ast.parse(path.read_text(encoding="utf-8")), packages)]


def test_only_data_imports_csv():
    """CSV syntax, its error rules included, lives in one module."""
    assert _importers({"csv"}) == ["data.py"]


def test_only_parallel_starts_processes():
    """The package has one process pool: the folds, a large tree's
    subtrees and the row ranges of a large unquoted CSV file, read with
    the values and errors of a one-process read, all run through
    parallel.fork_map, so the rules for nesting and for which process runs
    what live in one module."""
    processes = {"multiprocessing", "concurrent"}
    assert _imports(ast.parse("def f():\n    from concurrent.futures import ProcessPoolExecutor"), processes)
    assert _importers(processes) == ["parallel.py"]


def _builds_nodes(tree: ast.Module) -> bool:
    """Whether ``tree`` calls ``Branch`` or ``Leaf``, by name or as an attribute."""
    return any(isinstance(node, ast.Call) and (getattr(node.func, "id", None) in ("Branch", "Leaf")
                                               or getattr(node.func, "attr", None) in ("Branch", "Leaf"))
               for node in ast.walk(tree))


def test_only_tree_builds_nodes():
    """Tree nodes are built in one module, so what a node holds, such as the
    leaf a middle child shares with its parent, is decided in one place."""
    assert _builds_nodes(ast.parse("from nantree import tree\nnode = tree.Leaf(1.0, 2.0, 0.0)"))
    assert not _builds_nodes(ast.parse("isinstance(node, Branch)"))
    builders = [path.name for path in sorted(PACKAGE.rglob("*.py"))
                if _builds_nodes(ast.parse(path.read_text(encoding="utf-8")))]
    assert builders == ["tree.py"]


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


def _self_callers(tree: ast.Module):
    """The name of each function that calls itself by name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == node.name
                for call in ast.walk(node)):
            yield node.name


def test_no_function_calls_itself():
    """A trinary tree's middle chain is as long as the feature count, past
    the interpreter's recursion limit, so no walk over a tree recurses."""
    assert list(_self_callers(ast.parse("def f(n):\n    def g(): return f(n - 1)\n    return g()"))) == ["f"]
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE.rglob("*.py"))
             for name in _self_callers(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def _unused_private_names(tree: ast.Module):
    """Each top-level function, class or assigned name that starts with
    ``_``, dunder names aside, and that the module never loads, by name or
    as an attribute."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    loaded = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
              if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined if name.startswith("_") and not name.endswith("__") and name not in loaded]


def test_every_private_name_is_used_in_its_module():
    """No module keeps a private helper that nothing calls: a sibling may not
    import it, so a test alone would keep it alive."""
    sample = "_K = 1\n_a, _b = 2, 3\ndef _f(): return _a\nclass _C: pass\ndef g(x): return x._C\n__all__ = []"
    assert _unused_private_names(ast.parse(sample)) == ["_K", "_b", "_f"]
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE.rglob("*.py"))
             for name in _unused_private_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
