"""The README's example runs and shows the values its comments state, its
CLI block lists every subcommand's flags, and its train-config key list
names every key the config reader accepts and every bound TrainConfig sets."""
import argparse
import ast
import dataclasses
import re
from pathlib import Path

from linexp.cli import build_parser
from linexp.learn import _AT_LEAST_ONE, _NONNEGATIVE, TrainConfig

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


def test_readme_cli_block_lists_each_subcommands_flags():
    block = re.search(r"## CLI\n\n```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
    documented: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("linexp "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    (subparsers,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    defined = {
        name: {opt for action in sub._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == defined


def test_readme_train_config_lists_each_accepted_key():
    keys = re.search(r"\*\*Train config\*\*: `key = value` lines \((.*?)\);",
                     README.read_text(encoding="utf-8"), re.S)[1]
    documented = re.findall(r"(?:^|,\s+)`(\w+)`", keys)
    assert sorted(documented) == sorted(dataclasses.asdict(TrainConfig()))


def test_readme_train_config_lists_each_bound():
    text = README.read_text(encoding="utf-8")
    listed = r"((?:`\w+`,\s+)*`\w+`\s+or\s+`\w+`)"
    negative = re.search(r"negative\s+" + listed + ",", text)[1]
    below_one = re.search(r"and\s+" + listed + r"\s+below 1", text)[1]
    assert sorted(re.findall(r"`(\w+)`", negative)) == sorted(_NONNEGATIVE)
    assert sorted(re.findall(r"`(\w+)`", below_one)) == sorted(_AT_LEAST_ONE)
