"""Every top-level function or class of a ``linexp`` module is used
somewhere in the package outside its own definition, unless it is public
and kept on purpose in ``KEPT_PUBLIC``.

A private name (one starting with ``_``) is no part of the public API, so
a helper left beside its replacement is dead code. A public name that no
package statement uses is API that only its tests run. A use is a name or
an attribute of that name in any top-level statement but the definition
itself, so recursion alone does not count, and neither does an import:
the re-exports of ``__init__`` are no use.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "linexp"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Public definitions that no package statement uses, and why each stays.
KEPT_PUBLIC = {
    "formats.hypergraph_from_labeled_dump": "perfbench and the README read labeled dumps with it",
    "learn.sample_neighbors": "criterion-09 checks the sampling estimator on it",
    "learn.separable_toy": "criterion-11 trains on it",
    "learn.load_zoo": "the README documents it, as library API only",
    "verify.random_connected_hypergraph": "criterion-07 draws its corpus from it",
    "expansions.clique_adjacency": "the README documents it and networkx oracle tests pin it",
    "expansions.line_graph": "criterion-04 and the networkx and multigraph tests pin it",
}


def unused_definitions(sources: dict[str, str], public: bool = False) -> list[str]:
    """``module.name`` of each private (or, with ``public``, each public)
    top-level definition in ``sources`` (module name to source) that no
    other top-level statement uses."""
    chosen, statements = [], []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            statements.append(stmt)
            if isinstance(stmt, DEFINITIONS) and stmt.name.startswith("_") != public:
                chosen.append((module, stmt))
    uses = [
        {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
        for stmt in statements
    ]
    return [
        f"{module}.{defn.name}"
        for module, defn in chosen
        if not any(defn.name in used for stmt, used in zip(statements, uses) if stmt is not defn)
    ]


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_every_private_definition_is_used():
    assert unused_definitions(package_sources()) == []


def test_every_public_definition_is_used_or_kept():
    unused = unused_definitions(package_sources(), public=True)
    assert [name for name in unused if name not in KEPT_PUBLIC] == []


EXAMPLE = {
    "__init__": "from .a import Unused, public\n",
    "a": "def _called(): pass\n"
         "def _recursive(n): return _recursive(n - 1)\n"
         "class _Unused: pass\n"
         "def _by_attribute(): pass\n"
         "def public(): return _called()\n"
         "class Unused: pass\n"
         "def caller(x: Used): return public()\n"
         "class Used: pass\n",
    "b": "from . import a\nx = a._by_attribute()\n",
}


def test_an_unused_private_definition_is_found():
    assert unused_definitions(EXAMPLE) == ["a._recursive", "a._Unused"]


def test_an_unused_public_definition_is_found():
    """A re-export is no use; an annotation is."""
    assert unused_definitions(EXAMPLE, public=True) == ["a.Unused", "a.caller"]
