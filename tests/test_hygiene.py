"""Source hygiene: no uncalled functions, no unread module-level names, no
unread imports, a package ``__all__`` that lists exactly the names of the
package's export map, recursion and calls of the engine's ``step`` only in
the functions two allowlists name, and no module below the command line
that imports the law pipeline.

The checks read syntax trees with ``ast``; nothing is run, and only the
``__all__`` check imports the package namespace, which loads no layer. A
package function counts as called only when the package, the demos or the
benchmark harness name it: a function only tests name belongs with the
test oracles. A function naming itself inside its own body (recursion) and
the package ``__init__`` re-exporting it do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "desimone"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _referenced(path, tree):
    """Every identifier the module reads, calls or imports by name, except a
    function's own name inside its body and the names ``__init__`` imports."""
    out = set()
    todo = [(tree, frozenset())]  # node, names of the functions around it
    while todo:
        node, enclosing = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias) and path.name != "__init__.py":
            name = node.name.split(".")[-1]
        if name is not None and name not in enclosing:
            out.add(name)
        todo.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    return out


def test_every_function_is_named_somewhere():
    named = set()
    for path, tree in _trees(ROOT / "src", ROOT / "demos", ROOT / "bench"):
        named |= _referenced(path, tree)
    unnamed = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in named:
                    unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    assert unnamed == []


def test_every_module_level_name_is_read():
    read = set()
    for _, tree in _trees(ROOT / "src", ROOT / "demos", ROOT / "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for path, tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if not isinstance(name, ast.Name):
                        continue
                    dunder = name.id.startswith("__") and name.id.endswith("__")
                    if not dunder and name.id not in read:
                        unread.append(f"{path.name}:{node.lineno} {name.id}")
    assert unread == []


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path, tree in _trees(PACKAGE):
        if path.name == "__init__.py":
            continue  # the package namespace re-exports what it imports
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{path.name}:{node.lineno} {bound}")
    assert unread == []


def _exports():
    """The package ``__init__``'s literal map from each module to its names."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "_EXPORTS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no _EXPORTS map in the package __init__")


def test_all_lists_exactly_what_the_package_imports():
    import desimone

    exports = _exports()
    names = [name for listed in exports.values() for name in listed]
    assert len(names) == len(set(names))
    assert desimone.__all__ == names


# Every package function that calls itself, each with what bounds its depth.
# A walk over a whole term goes through ``terms.fold`` instead, and the
# path-sum oracle keeps its paths on a stack.
RECURSIVE = {
    "opmodel._step",  # premised nesting (ROADMAP item 5)
    "trace._bounded",  # the table depth
    "formalsum.payload_key",  # words and sums
}


def test_only_the_allowed_functions_recurse():
    found = set()
    for path, tree in _trees(PACKAGE):
        todo = [(tree, path.stem)]  # node, dotted name of the scope it is in
        while todo:
            node, scope = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{scope}.{node.name}"
                if any(
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == node.name
                    for call in ast.walk(node)
                ):
                    found.add(scope)
            todo.extend((child, scope) for child in ast.iter_child_nodes(node))
    assert found == RECURSIVE


# Every package function that calls the engine's ``step`` by name. A walk
# over reachable states goes through ``opmodel.explore`` instead, and so do
# the paths of the path-sum oracle, ``trace.trace_direct``.
STEPPERS = {
    "opmodel.explore",  # the one walk
    "cli.cmd_step",  # the command that prints one step
}


def test_only_the_explorer_and_the_allowed_functions_step():
    found = set()
    for path, tree in _trees(PACKAGE):
        todo = [(tree, path.stem)]  # node, dotted name of the scope it is in
        while todo:
            node, scope = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = f"{scope}.{node.name}"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "step"
            ):
                found.add(scope)  # the innermost function that calls it
            todo.extend((child, scope) for child in ast.iter_child_nodes(node))
    assert found == STEPPERS


# The law pipeline is the oracle for the engine: only the command line and
# the package namespace, which offer both, may import it.
LAW_IMPORTERS = {"cli", "__init__"}


def _imported(node):
    """The dotted names an import binds, a relative one read from the package."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = (["desimone"] if node.level else []) + (node.module or "").split(".")
    return [".".join(filter(None, base + [alias.name])) for alias in node.names]


def test_only_the_command_line_imports_the_law_pipeline():
    importers = set()
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                name.split(".")[:2] == ["desimone", "law"] for name in _imported(node)
            ):
                importers.add(path.stem)
    if "law" in _exports():  # the namespace imports each module it maps on use
        importers.add("__init__")
    assert importers == LAW_IMPORTERS
