"""Code that only tests reach goes: every public top-level function and
class of a library module is used by the library, a script or the
benchmark.

A use is a name, an attribute, an import alias or a string that is a
(dotted) identifier, such as a benchmark hook's target, in ``src/``,
``scripts/`` or ``bench/``, outside the definition itself.  Docstrings
and the package's ``__init__`` re-exports do not count: an export alone
is not a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "infoflow"
USERS = ("src", "scripts", "bench")


def _docstrings(tree: ast.AST) -> set:
    """ids of the constant nodes that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def _uses(node: ast.AST, docstrings: set) -> set:
    """Every identifier ``node`` uses outside the ``docstrings``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and id(n) not in docstrings \
                and all(p.isidentifier() for p in n.value.split(".")):
            out.update(n.value.split("."))
    return out


def unused_definitions(root: Path = ROOT) -> list:
    """Sorted ``module.name`` of every public top-level function and class
    of ``src/infoflow/*.py`` (not ``__init__.py``) that nothing in
    ``src/``, ``scripts/`` or ``bench/`` uses besides its own definition."""
    package = root / "src" / "infoflow"
    statements = []        # (top-level statement, the identifiers it uses)
    for folder in USERS:
        for path in sorted((root / folder).rglob("*.py")):
            if path != package / "__init__.py":
                tree = ast.parse(path.read_text(), str(path))
                docstrings = _docstrings(tree)
                statements += [(path, stmt, _uses(stmt, docstrings))
                               for stmt in tree.body]
    unused = []
    for path, stmt, _ in statements:
        if path.parent == package and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and not stmt.name.startswith("_") \
                and not any(stmt.name in uses for _, other, uses in statements
                            if other is not stmt):
            unused.append(f"{path.stem}.{stmt.name}")
    return sorted(unused)


def test_every_public_definition_has_a_use_outside_tests():
    assert unused_definitions() == []


def test_the_guard_sees_a_definition_only_tests_use(tmp_path):
    for folder in USERS:
        (tmp_path / folder).mkdir()
    pkg = tmp_path / "src" / "infoflow"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .mod import lonely, used, hooked\n")
    (pkg / "mod.py").write_text(
        '"""lonely is named here only."""\n'
        "def lonely():\n    return lonely\n\n"
        "def used():\n    pass\n\n"
        "def hooked():\n    pass\n\n"
        "class _Private:\n    pass\n")
    (tmp_path / "scripts" / "run.py").write_text(
        "from infoflow.mod import used\nused()\n")
    (tmp_path / "bench" / "hooks.py").write_text('HOOK = "mod.hooked"\n')
    assert unused_definitions(tmp_path) == ["mod.lonely"]
