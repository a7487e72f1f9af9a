"""The README's example runs and shows the values its comments state."""
import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_shows_its_commented_values():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            shown.append((value, comment))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert [value for value, _ in shown] == [(8, 10), True]
    for value, comment in shown:
        assert comment.startswith(repr(value))
