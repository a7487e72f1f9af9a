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
        "line-graph-without-parallel-dedup",
        "src/linexp/expansions.py",
        "return keys[first]",
        "return keys",
        (
            "tests/test_expansions.py::TestLineGraphEquivalence::"
            "test_line_graph_of_multigraph_matches_pairwise_definition",
        ),
    ),
    Mutant(
        "line-graph-self-loop-twice",
        "src/linexp/expansions.py",
        "keep = a != b",
        "keep = a == a",
        (
            "tests/test_expansions.py::TestLineGraphEquivalence::"
            "test_line_graph_of_multigraph_matches_pairwise_definition",
        ),
    ),
    Mutant(
        "adjacency-weights-swapped",
        "src/linexp/expansions.py",
        'edges["kind"] == VERTEX_SIMILAR, self.w_e, self.w_v',
        'edges["kind"] == VERTEX_SIMILAR, self.w_v, self.w_e',
        ("tests/test_expansions.py::TestLineExpand::test_edge_kinds_carry_weights",),
    ),
    Mutant(
        "back-projection-degrees-of-the-rows",
        "src/linexp/expansions.py",
        "w = 1.0 / np.bincount(cols_of)[cols_of]",
        "w = 1.0 / np.bincount(rows_of)[rows_of]",
        ("tests/test_expansions.py::TestProjections::test_back_projection_row_weights",),
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
    Mutant(
        "reader-without-empty-field-check",
        "src/linexp/formats.py",
        "gaps.min(initial=2) < 2",
        "gaps.min(initial=2) < 1",
        (
            "tests/test_formats.py::TestByteReader::test_faulty_line_is_named"
            "[2 1\\n0 \\n1 0\\n0 1\\n-line 2: node line must have two fields]",
        ),
    ),
    Mutant(
        "reader-long-field-check-off-by-one",
        "src/linexp/formats.py",
        "gaps.max(initial=0) > _DIGITS",
        "gaps.max(initial=0) > _DIGITS + 1",
        (
            "tests/test_formats.py::TestByteReader::test_faulty_line_is_named"
            "[2 1\\n0 9223372036854775808\\n1 0\\n0 1\\n"
            "-line 2: label (0, 9223372036854775808) does not fit in int64]",
        ),
    ),
    Mutant(
        "reader-without-edge-dedup",
        "src/linexp/formats.py",
        "np.divmod(keys[distinct], max(n, 1))",
        "np.divmod(keys, max(n, 1))",
        (
            "tests/test_formats.py::TestByteReader::"
            "test_read_in_the_writers_form[repeated-and-reversed-edges]",
        ),
    ),
    Mutant(
        "reader-without-sign-branch",
        "src/linexp/formats.py",
        "    if len(ends) != 2 * rows:\n",
        "    if False:\n",
        ("tests/test_formats.py::TestByteReader::test_read_in_the_writers_form[signed-zeros]",),
    ),
    Mutant(
        "writer-groups-reversed",
        "src/linexp/formats.py",
        "chain.from_iterable(le.groups)",
        "chain.from_iterable(reversed(le.groups))",
        ("tests/test_formats.py::TestRenderLineExpansion::test_matches_the_edge_triples_at_scale",),
    ),
    Mutant(
        "writer-header-edge-count-plus-one",
        "src/linexp/formats.py",
        'f"{le.num_nodes} {le.num_edges}"',
        'f"{le.num_nodes} {le.num_edges + 1}"',
        ("tests/test_formats.py::TestRenderLineExpansion::test_matches_the_edge_triples_at_scale",),
    ),
    Mutant(
        "dump-bytes-counts-one-edge-line-too-many",
        "src/linexp/formats.py",
        "(group_sizes - 2)",
        "(group_sizes - 1)",
        ("tests/test_cli.py::TestStats::test_counts_match_loop_definitions",),
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
