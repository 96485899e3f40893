"""Static checks on the package source, with the standard library only.

Every module-level import in `src/quadcyl/*.py` must be used in its
module.  `__init__.py` is skipped: it imports names to re-export them.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "quadcyl")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for each module-level import in the tree."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                out.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def used_names(tree):
    """Names read anywhere in the tree, including names listed in
    `__all__` and names inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.arg, ast.FunctionDef)):
            ann = node.annotation if isinstance(node, ast.arg) \
                else node.returns
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value))
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_imports(name):
    with open(os.path.join(SRC, name)) as fh:
        tree = ast.parse(fh.read(), filename=name)
    used = used_names(tree)
    unused = ["%s (line %d)" % (bound, line)
              for bound, line in imported_names(tree) if bound not in used]
    assert not unused, "unused imports in %s: %s" % (name, ", ".join(unused))


def test_check_catches_an_unused_import():
    tree = ast.parse("import os\nfrom math import gcd, sqrt\n"
                     "def f(x) -> 'gcd':\n    return x\n")
    used = used_names(tree)
    unused = [bound for bound, _ in imported_names(tree) if bound not in used]
    assert unused == ["os", "sqrt"]
