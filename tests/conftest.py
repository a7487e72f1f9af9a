from functools import cached_property

import numpy as np
import pytest

from linexp import Hypergraph, LineExpansion, parse_hypergraph

# 5 vertices, hyperedges {0,1}, {0,1,2}, {2,3,4}
WORKED_EXAMPLE_TEXT = "5 3\n0 1\n0 1 2\n2 3 4\n"


@pytest.fixture
def worked() -> Hypergraph:
    return parse_hypergraph(WORKED_EXAMPLE_TEXT)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def groups_builds(monkeypatch) -> list:
    """The hypergraph of every line expansion whose ``groups`` is built
    while the test runs, one entry per build."""
    builds = []
    real = LineExpansion.groups.func

    def counted(le):
        builds.append(le.hypergraph)
        return real(le)

    prop = cached_property(counted)
    prop.__set_name__(LineExpansion, "groups")
    monkeypatch.setattr(LineExpansion, "groups", prop)
    return builds


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance verdict lines so they survive output capture."""
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
