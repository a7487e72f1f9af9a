"""The program interface that ``perfbench/run.py`` calls, run on tiny inputs,
so that a change which breaks it fails here and not only in a benchmark run.

``perfbench/run.py`` is imported by path, with its own modules found beside
it. No tracer is installed: ``tracing.COUNTERS`` and ``tracing._conv_layer``
are applied by hand to what they would read.
"""
import importlib
import importlib.util
import inspect
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module, and the package as it loads it. The
    thread settings the module makes on import and the path entries of both
    are undone afterwards."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", [str(PERFBENCH), *sys.path]):
        spec.loader.exec_module(module)
        module.lx = module.load_program()
    return module


@pytest.fixture(scope="module")
def instance(bench):
    """The first side-corpus instance: vertex count, hyperedges, .hg text."""
    nv, edges = bench.inputs.side_corpus(0, 1)[0]
    return nv, edges, bench.inputs.render(nv, edges)


def test_warm_up_runs_every_stage(bench):
    run = bench.Run(bench.lx, bench.tracing.NullTracer(), 0)
    bench.warm_up(run)
    assert run.problems == []


def test_check_large_setup_passes(bench, instance):
    lx = bench.lx
    nv, edges, text = instance
    run = bench.Run(lx, bench.tracing.NullTracer(), 0)
    pairs, line_edges = bench.inputs.line_sizes(nv, edges)
    run.facts.update(pairs=pairs, line_edges=line_edges)
    h = lx.parse_hypergraph(text)
    le = lx.line_expand(h)
    bench.check_large_setup(run, nv, edges, h, le, lx.projections(h), lx.renormalized_operator(le))
    assert run.problems == []


def test_every_counter_reads_its_function_result(bench, instance):
    lx = bench.lx
    _, _, text = instance
    h = lx.parse_hypergraph(text)
    le = lx.line_expand(h)
    calls = {
        "hypergraph.parse_hypergraph": (text,),
        "expansions.line_expand": (h,),
        "expansions.renormalized_operator": (le,),
        "learn.sampled_operator": (le, lx.SamplingConfig(2, 2), np.random.default_rng(0)),
        "formats.render_line_expansion": (le,),
    }
    assert calls.keys() == bench.tracing.COUNTERS.keys()
    for name, counter in bench.tracing.COUNTERS.items():
        module, function = name.split(".")
        result = getattr(importlib.import_module(f"linexp.{module}"), function)(*calls[name])
        assert counter(result) > 0, name


def test_conv_layer_reads_layer_index(bench):
    signature = inspect.signature(bench.lx.learn.conv_forward)
    assert list(signature.parameters).index("layer_index") == 6
    args = tuple(range(7))
    assert bench.tracing._conv_layer(args, {}) == signature.bind(*args).arguments["layer_index"]


@pytest.mark.parametrize("sampling", [False, True])
def test_conv_layer_names_every_layer(bench, monkeypatch, sampling):
    """The tracer names each ``conv_forward`` span by ``_conv_layer``. Every
    layer that ``train()`` runs must read as its own name, or the per-layer
    metrics ``learn.conv_forward.0_s`` and ``.1_s`` would fold together."""
    learn = bench.lx.learn
    conv_forward = learn.conv_forward
    names = set()

    def recording_conv_forward(*args, **kwargs):
        names.add(f"learn.conv_forward.{bench.tracing._conv_layer(args, kwargs)}")
        return conv_forward(*args, **kwargs)

    monkeypatch.setattr(learn, "conv_forward", recording_conv_forward)
    h, ds = learn.separable_toy(vertices_per_class=4, seed=0)
    config = bench.lx.TrainConfig(epochs=2, layers=3, seed=0, sampling=sampling,
                                  delta_v=2, delta_e=2)
    bench.lx.train(h, ds, config)
    assert names == {f"learn.conv_forward.{k}" for k in range(config.layers)}
