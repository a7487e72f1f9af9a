"""Mutation checks: each mutant edits one exact snippet of a file under
``src/linexp/`` and names the tests that must fail on the edit.

    python3 mutants/run.py [NAME ...]

The script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and first runs every named test there, unedited: they must pass,
or a failure would prove nothing. Then, for each mutant (all by default),
it makes a fresh copy, applies the edit, and runs ``pytest -x -q`` on the
mutant's tests with ``PYTHONPATH`` at the copy. It prints each mutant as
killed (a named test failed), survived (all passed) or error (pytest could
not run them), with the time, and exits 1 unless every mutant is killed.
The working tree is never edited. Standard library only.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                # relative to the repository root
    snippet: str             # occurs exactly once in ``file``
    replacement: str
    tests: tuple[str, ...]   # pytest ids; at least one must fail


MUTANTS = (
    Mutant(
        "propagation-without-w_e-term",
        "src/linexp/expansions.py",
        "np.repeat([op.w_e, op.w_v]",
        "np.repeat([0.0, op.w_v]",
        ("tests/test_expansions.py::TestVertexPropagation::test_equals_the_dense_product",),
    ),
    Mutant(
        "operator-degree-swap",
        "src/linexp/expansions.py",
        "1.0 / np.sqrt(le.w_e * d + le.w_v * delta)",
        "1.0 / np.sqrt(le.w_e * delta + le.w_v * d)",
        ("tests/test_unify.py::TestStarEquivalence::test_worked_example",),
    ),
    Mutant(
        "backward-without-transpose",
        "src/linexp/learn.py",
        "g = op.T @ ds",
        "g = op @ ds",
        (
            "tests/test_learn.py::TestForwardBackward::"
            "test_gradient_check_narrowing_and_widening_layers[sampled]",
        ),
    ),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(copy: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit code on ``tests`` in ``copy``: 0 all passed, 1 some
    failed, anything else could not run them."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode


def run(mutant: Mutant) -> tuple[str, float]:
    """``(verdict, seconds)`` of ``mutant`` on a fresh copy."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="linexp-mutant-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        target = copy / mutant.file
        source = target.read_text(encoding="utf-8")
        if source.count(mutant.snippet) != 1:
            return "error", time.perf_counter() - start
        target.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        code = _pytest(copy, mutant.tests)
    verdict = {0: "survived", 1: "killed"}.get(code, "error")
    return verdict, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run the committed mutants")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] if args.names else list(MUTANTS)

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="linexp-mutant-") as tmp:
        _copy(Path(tmp))
        baseline = _pytest(Path(tmp), tuple(t for m in chosen for t in m.tests))
    if baseline != 0:
        print(f"error: the named tests do not pass unedited (pytest exit {baseline})")
        return 1
    print(f"baseline: the named tests pass unedited ({time.perf_counter() - start:.1f} s)")
    verdicts = []
    for m in chosen:
        verdict, seconds = run(m)
        verdicts.append(verdict)
        print(f"{verdict:<9}{m.name} ({seconds:.1f} s)")
    print(f"{verdicts.count('killed')} of {len(chosen)} killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
