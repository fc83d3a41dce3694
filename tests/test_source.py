"""Dead-code checks of the package source: every import a module makes is
used in it, and every module-level _private name has a reference in src/."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "lutnet")


def _modules():
    """{path relative to src/lutnet: parsed module} of every package module."""
    trees = {}
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    trees[os.path.relpath(path, SRC)] = ast.parse(f.read(), path)
    return trees


def unused_imports(trees):
    """[(module, name)] of each name a module imports and never reads;
    package __init__ files, which import to re-export, are left out."""
    found = []
    for module, tree in trees.items():
        if os.path.basename(module) == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, ast.Import | ast.ImportFrom):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        found.append((module, bound))
    return found


def private_definitions(trees):
    """[(module, name)] of each module-level _private function, class and
    constant; dunders are no private names."""
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
                names = [node.name]
            elif isinstance(node, ast.Assign | ast.AnnAssign):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return found


def references(trees):
    """Every name read anywhere in trees: loaded names and attribute names."""
    refs = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def test_every_import_is_used():
    assert unused_imports(_modules()) == []


def test_every_private_name_has_a_caller():
    trees = _modules()
    refs = references(trees)
    assert [(m, n) for m, n in private_definitions(trees) if n not in refs] == []


def test_the_checks_find_an_unused_import_and_an_uncalled_helper():
    tree = ast.parse("import io\nimport os.path\nfrom x import y as z\n"
                     "def _helper():\n    return os.sep\n_CONST = 1\n")
    trees = {"mod.py": tree, "__init__.py": ast.parse("import io\n")}
    assert unused_imports(trees) == [("mod.py", "io"), ("mod.py", "z")]
    assert private_definitions(trees) == [("mod.py", "_helper"), ("mod.py", "_CONST")]
    assert not {"_helper", "_CONST"} & references(trees)
