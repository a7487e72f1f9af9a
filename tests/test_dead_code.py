"""Every private top-level function or class of a ``linexp`` module is used
somewhere in the package outside its own definition.

A private name (one starting with ``_``) is no part of the public API, so
a helper left beside its replacement is dead code. A use is a name or an
attribute of that name in any top-level statement but the definition
itself, so recursion alone does not count.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "linexp"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private top-level definition in ``sources``
    (module name to source) that no other top-level statement uses."""
    private, statements = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            statements.append(stmt)
            if isinstance(stmt, DEFINITIONS) and stmt.name.startswith("_"):
                private.append((module, stmt))
    uses = [
        {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        for stmt in statements
    ]
    return [
        f"{module}.{defn.name}"
        for module, defn in private
        if not any(defn.name in used for stmt, used in zip(statements, uses) if stmt is not defn)
    ]


def test_every_private_definition_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unused_private_definitions(sources) == []


def test_an_unused_private_definition_is_found():
    sources = {
        "a": "def _called(): pass\n"
             "def _recursive(n): return _recursive(n - 1)\n"
             "class _Unused: pass\n"
             "def _by_attribute(): pass\n"
             "def public(): return _called()\n",
        "b": "from . import a\nx = a._by_attribute()\n",
    }
    assert unused_private_definitions(sources) == ["a._recursive", "a._Unused"]
