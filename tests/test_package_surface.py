"""Every public name in the package is used by the package itself, and no
module reaches into another module's private names.

The shipped package holds what the CLI runs; proof devices, oracles and
other test-only code live under tests/.  This walks the AST of
src/flux_catastrophe/*.py and follows references from the module-level
code that is not a definition (the ``__main__`` entry points), through the
bodies of the top-level definitions they reach.  A public top-level name
that is never reached is reported: a name used only by its own definition,
by tests, or by other unreached code counts as unused.

A name with a leading underscore is private to its module: importing it
from another module, or reading it as an attribute of an imported module,
is reported too.  What two modules share is public.  The same check keeps
tests/oracles.py off the package's private names.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flux_catastrophe"


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _referenced(node: ast.AST) -> set[str]:
    """Names read in ``node``: bare names and attributes such as ``module.name``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreached_public_names(src: Path = SRC) -> list[str]:
    bodies: dict[str, list[ast.stmt]] = {}
    roots: set[str] = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = _defined_names(node)
            for name in names:
                bodies.setdefault(name, []).append(node)
            if not names and not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _referenced(node)
    reached: set[str] = set()
    pending = [name for name in roots if name in bodies]
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in bodies[name]:
            pending.extend(n for n in _referenced(node) if n in bodies and n not in reached)
    return sorted(name for name in bodies if not name.startswith("_") and name not in reached)


def test_every_public_name_is_used_by_the_package():
    assert unreached_public_names() == []


def test_the_walk_reports_an_unused_name(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def main():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def only_tests():\n    return only_tests_too()\n\n"
        "def only_tests_too():\n    return 2\n\n"
        "if __name__ == '__main__':\n    main()\n"
    )
    assert unreached_public_names(tmp_path) == ["only_tests", "only_tests_too"]


def private_imports(src: Path = SRC) -> list[str]:
    """``module: name`` for every underscore name a module takes from another."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                if node.level and node.module is None:  # from . import module
                    modules |= {alias.asname or alias.name for alias in node.names}
                else:
                    out += [f"{path.stem}: {name}" for name in names if name.startswith("_")]
            elif isinstance(node, ast.Import):
                modules |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                out.append(f"{path.stem}: {node.value.id}.{node.attr}")
    return out


def test_no_module_imports_a_private_name():
    assert private_imports() == []


def test_oracles_import_no_private_name():
    # an oracle that borrows a package helper would share the code it checks
    tests = Path(__file__).resolve().parent
    assert [name for name in private_imports(tests) if name.startswith("oracles:")] == []


def test_the_check_reports_a_private_import(tmp_path):
    (tmp_path / "overlap.py").write_text(
        "from . import matrixcore\n"
        "from .matrixcore import _toeplitz, toeplitz\n\n"
        "def build():\n    return matrixcore._assemble(toeplitz, _toeplitz, matrixcore.__name__)\n"
    )
    assert private_imports(tmp_path) == ["overlap: _toeplitz", "overlap: matrixcore._assemble"]


def unread_members(src: Path = SRC) -> list[str]:
    """``Class.name`` for every public method or property of a package class
    whose name no attribute read in the package uses: a member left behind
    when its last caller went."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return sorted(
        f"{cls.name}.{member.name}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and member.name not in read
    )


def test_every_public_member_is_read_by_the_package():
    assert unread_members() == []


def test_the_check_reports_an_unread_member(tmp_path):
    (tmp_path / "potential.py").write_text(
        "class Bump:\n"
        "    def __call__(self, x):\n        return x\n\n"
        "    @property\n    def breakpoints(self):\n        return ()\n\n"
        "    @property\n    def smallest_gap(self):\n        return 1.0\n\n"
        "    def to_dict(self):\n        return {}\n\n"
        "def edges(a):\n    a.to_dict = None\n    return a.breakpoints\n"
    )
    assert unread_members(tmp_path) == ["Bump.smallest_gap", "Bump.to_dict"]
