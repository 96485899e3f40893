"""Static checks on the package source, with the standard library only.

Every module-level import in `src/quadcyl/*.py` must be used in its
module.  `__init__.py` is skipped: it imports names to re-export them.

Every module-level function and class in `src/quadcyl/*.py` must be named
outside its own definition: in the package (a bare name, or an attribute
read such as `mod.name`), in `scripts/` or `bench/`, or in
`quadcyl.__all__`.  So no API is kept alive only by its own tests.
`cli.cmd_*` are exempt: `cli.main` looks them up by name.

Every non-dunder method and every attribute a method sets on `self`, of
a class in `src/quadcyl/*.py`, must be read as an attribute outside the
tests: in the package, in `scripts/` or `bench/`, or in the frozen
`tests/test_acceptance.py`.  A read through `self` counts only for the
class it is written in.  Dataclass fields are exempt: `asdict` and
`to_obj` read them.
"""

import ast
import os

import pytest

import quadcyl

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "quadcyl")
OUTSIDE = ("scripts", "bench")
ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")
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


def read_names(node):
    """Names read in the tree: bare names, attribute names and the names
    `used_names` finds in `__all__` and string annotations."""
    names = used_names(node)
    names.update(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))
    return names


def unnamed_definitions(modules, outside):
    """(module, name) of each module-level function or class of the
    {module: tree} dict that nothing names outside its own definition,
    counting the names in the `outside` set as named."""
    per_stmt = {mod: [read_names(stmt) for stmt in tree.body]
                for mod, tree in modules.items()}
    whole = {mod: set().union(*names) for mod, names in per_stmt.items()}
    out = []
    for mod, tree in modules.items():
        elsewhere = set(outside)
        for other, names in whole.items():
            if other != mod:
                elsewhere |= names
        for k, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if mod == "cli.py" and stmt.name.startswith("cmd_"):
                continue
            if stmt.name in elsewhere or any(
                    stmt.name in names
                    for j, names in enumerate(per_stmt[mod]) if j != k):
                continue
            out.append((mod, stmt.name))
    return out


def parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def outside_trees():
    """The parsed Python files of scripts/ and bench/."""
    for top in OUTSIDE:
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for f in files:
                if f.endswith(".py"):
                    yield parse(os.path.join(dirpath, f))


def outside_names():
    """Names read in scripts/ and bench/, plus quadcyl.__all__."""
    names = set(quadcyl.__all__)
    for tree in outside_trees():
        names |= read_names(tree)
    return names


def test_no_definition_named_only_by_tests():
    modules = {name: parse(os.path.join(SRC, name)) for name in MODULES}
    unnamed = unnamed_definitions(modules, outside_names())
    assert not unnamed, "named nowhere outside tests: %s" % ", ".join(
        "%s:%s" % pair for pair in unnamed)


def test_check_catches_a_definition_named_only_by_itself():
    modules = {
        "a.py": ast.parse("def used():\n    return helper()\n"
                          "def helper():\n    return 1\n"
                          "def lonely(n):\n    return lonely(n - 1)\n"
                          "class Spare:\n    pass\n"),
        "b.py": ast.parse("import a\nX = a.used\n"
                          "def cmd_go(args):\n    return 0\n"),
        "cli.py": ast.parse("def cmd_go(args):\n    return 0\n"),
    }
    unnamed = unnamed_definitions(modules, {"Spare"})
    assert unnamed == [("a.py", "lonely"), ("b.py", "cmd_go")]


def is_dataclass(cls):
    return any("dataclass" in ast.unparse(d) for d in cls.decorator_list)


def class_members(cls):
    """Non-dunder method names of the class, and the attributes its
    methods set on self, in order of appearance."""
    out = {}
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        if not (fn.name.startswith("__") and fn.name.endswith("__")):
            out[fn.name] = None
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                out[node.attr] = None
    if is_dataclass(cls):
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign):
                out.pop(stmt.target.id, None)
    return list(out)


def attribute_reads(tree, reads, owner=None):
    """Add to the {owner: names} dict reads the attributes read in the
    tree.  A read of self.name inside a class belongs to that class, and
    any other read to the owner None.  The package subclasses none of its
    own classes, so no read is passed on to a base class."""
    if isinstance(tree, ast.ClassDef):
        owner = tree.name
    elif isinstance(tree, ast.Attribute) and isinstance(tree.ctx, ast.Load):
        by_self = isinstance(tree.value, ast.Name) and tree.value.id == "self"
        reads.setdefault(owner if by_self else None, set()).add(tree.attr)
    for child in ast.iter_child_nodes(tree):
        attribute_reads(child, reads, owner)


def unread_members(modules, readers):
    """(module, "Class.member") of each class member of the {module: tree}
    dict that no tree in readers reads as an attribute, either through
    self in that class or through anything else."""
    reads = {}
    for tree in readers:
        attribute_reads(tree, reads)
    anyone = reads.get(None, set())
    return [(mod, "%s.%s" % (cls.name, name))
            for mod, tree in modules.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for name in class_members(cls)
            if name not in anyone and name not in reads.get(cls.name, ())]


def test_no_class_member_read_only_by_tests():
    modules = {name: parse(os.path.join(SRC, name))
               for name in sorted(os.listdir(SRC)) if name.endswith(".py")}
    readers = [*modules.values(), parse(ACCEPTANCE), *outside_trees()]
    unread = unread_members(modules, readers)
    assert not unread, "read nowhere outside tests: %s" % ", ".join(
        "%s:%s" % pair for pair in unread)


def test_check_catches_a_member_read_only_by_tests():
    modules = {"a.py": ast.parse(
        "from dataclasses import dataclass\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self.kept, self.spare = 1, 2\n"
        "    def used(self):\n"
        "        return self.kept\n"
        "    def unused(self):\n"
        "        self.spare = 3\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    field: int\n"
        "    def helper(self):\n"
        "        return 1\n")}
    readers = list(modules.values()) + [ast.parse("K().used()\n")]
    assert unread_members(modules, readers) == [
        ("a.py", "K.spare"), ("a.py", "K.unused"), ("a.py", "D.helper")]


def test_check_gives_self_reads_to_their_own_class():
    modules = {"a.py": ast.parse(
        "class J:\n"
        "    def __init__(self):\n"
        "        self.size = 1\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self.size = 2\n"
        "    def grow(self):\n"
        "        return self.size + 1\n")}
    readers = list(modules.values()) + [ast.parse("K().grow()\n")]
    assert unread_members(modules, readers) == [("a.py", "J.size")]
