"""Spans around calls into the program's modules, for the traced run.

``Tracer.install`` replaces every public function of every ``linexp`` module,
in every module namespace that binds it, with a wrapper that records one span
per call: name ``<module>.<function>``, start, end, parent span and, for a
few functions, a size read off the result. The program itself is unchanged;
the untraced run never installs the wrappers, so its figures carry no
tracing cost. Each stage of the benchmark opens a root span ``stage.<name>``.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass

# Sizes recorded at the boundary where the work happens.
COUNTERS = {
    "hypergraph.parse_hypergraph": lambda h: h.num_pairs,
    "expansions.line_expand": lambda le: le.num_edges,
    "expansions.renormalized_operator": lambda op: op.matrix.nnz,
    "learn.sampled_operator": lambda op: op.matrix.nnz,
    "formats.render_line_expansion": len,
}


def _conv_layer(args, kwargs) -> int:
    return kwargs.get("layer_index", args[6] if len(args) > 6 else 0)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    count: int | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if name == "learn.conv_forward":
                label = f"{name}.{_conv_layer(args, kwargs)}"
            span = Span(label, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.count = counter(result)
            return result

        return traced

    def install(self, package: str = "linexp") -> None:
        """Wrap the package's public functions everywhere they are bound."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        wrapped = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith(package + ".")
                ):
                    continue
                if obj not in wrapped:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrapped[obj] = self._wrap(obj, name)
                setattr(module, attr, wrapped[obj])

    @contextlib.contextmanager
    def stage(self, name: str):
        span = Span(f"stage.{name}", time.perf_counter(), 0.0, -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        """Spans as tab-separated lines: index, parent, name, start, end, count."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tparent\tname\tstart\tend\tcount\n")
            for i, s in enumerate(self.spans):
                count = "" if s.count is None else s.count
                f.write(f"{i}\t{s.parent}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{count}\n")


class NullTracer:
    """Stands in for ``Tracer`` in the untraced run."""

    @contextlib.contextmanager
    def stage(self, name: str):
        yield


@dataclass
class Summary:
    """Per-name figures over one traced run, scaled to one pass.

    A pass is one set-up plus one round. Self time and counts from spans
    under a ``stage.setup`` root are divided by the number of set-ups, all
    others by the number of rounds. Counts are also kept per root stage.
    """

    setups: int
    rounds: int
    self_s: dict[str, float]
    stage_count: dict[tuple[str, str], int]
    call_counts: dict[tuple[str, str], list[int]]
    latencies: dict[str, list[float]]

    @classmethod
    def of(cls, spans: list[Span], setups: int, rounds: int) -> "Summary":
        child = [0.0] * len(spans)
        root = list(range(len(spans)))
        for i, s in enumerate(spans):
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
                root[i] = root[s.parent]
        out = cls(setups, rounds, {}, {}, {}, {})
        for i, s in enumerate(spans):
            stage = spans[root[i]].name
            scale = 1.0 / (setups if stage == "stage.setup" else rounds)
            own = s.end - s.start - child[i]
            out.self_s[s.name] = out.self_s.get(s.name, 0.0) + own * scale
            if s.count is not None:
                key = (stage, s.name)
                out.stage_count[key] = out.stage_count.get(key, 0) + s.count
                out.call_counts.setdefault(key, []).append(s.count)
            if s.parent < 0 or spans[s.parent].name != s.name:
                out.latencies.setdefault(s.name, []).append(s.end - s.start)
        return out

    def self_time(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def count(self, stage: str, name: str) -> float:
        """Size recorded by ``name`` under ``stage.<stage>``, per pass."""
        total = self.stage_count.get((f"stage.{stage}", name), 0)
        return total / (self.setups if stage == "setup" else self.rounds)

    def mean_count(self, name: str, stage: str | None = None) -> float:
        """Mean size per call of ``name``, under ``stage.<stage>`` if given."""
        values = [
            c for (root, n), counts in self.call_counts.items()
            if n == name and (stage is None or root == f"stage.{stage}")
            for c in counts
        ]
        return statistics.fmean(values) if values else 0.0

    def latency_ms(self, name: str, q: int) -> float:
        """Percentile ``q`` (1-99) of the outermost calls' durations, in ms."""
        values = self.latencies.get(name, [])
        if len(values) < 2:
            return values[0] * 1e3 if values else 0.0
        if q == 50:
            return statistics.median(values) * 1e3
        return statistics.quantiles(values, n=100)[q - 1] * 1e3
