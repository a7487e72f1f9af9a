"""The committed mutant list is current: each snippet occurs exactly once in
its file, and each test id it names exists. No mutant runs here;
``python3 mutants/run.py`` runs them."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
mutants_run = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants_run)
MUTANTS = mutants_run.MUTANTS


def test_names_are_unique_and_files_in_the_package():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    assert all(m.file.startswith("src/linexp/") and m.tests for m in MUTANTS)


def test_each_snippet_occurs_once():
    for m in MUTANTS:
        source = (ROOT / m.file).read_text(encoding="utf-8")
        assert source.count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name


def test_each_named_test_exists():
    ids = [t for m in MUTANTS for t in m.tests]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    collected = [line for line in done.stdout.splitlines() if "::" in line]
    assert sorted(collected) == sorted(set(ids))
