"""The benchmark's tracer (perfbench/tracing.py) wraps polarnet functions by
name, so renaming one of them must fail here rather than in a benchmark run."""
from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

from polarnet import communities
from polarnet.network import MultiplexNetwork


def _tracing_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_hook():
    run_combo = communities.run_combo
    drop_node = inspect.getattr_static(MultiplexNetwork, "drop_node")
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._saved)
        assert communities.run_combo is not run_combo
    finally:
        tracer.uninstall()
    assert all(inspect.getattr_static(owner, attr) is raw for owner, attr, raw in wrapped)
    assert communities.run_combo is run_combo
    assert inspect.getattr_static(MultiplexNetwork, "drop_node") is drop_node
