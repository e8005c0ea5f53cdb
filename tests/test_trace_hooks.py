"""The benchmark (perfbench/) uses polarnet by name and by the shape of its
results: the tracer wraps functions by name, a traced run reports the
per-layer metrics that BENCHMARK.json declares, and the portfolio worker
reads each node's label from a detection.  A change that breaks one of
these must fail here rather than in a benchmark run."""
from __future__ import annotations

import importlib.util
import inspect
import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from helpers import layer_of
from polarnet import communities
from polarnet.communities import DEFAULT_PORTFOLIO
from polarnet.network import MultiplexNetwork

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def perfbench(monkeypatch):
    """Loads a perfbench module; their imports of each other need perfbench/ on sys.path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return _perfbench_module


def test_tracer_installs_and_uninstalls_every_hook():
    run_combo = communities.run_combo
    drop_node = inspect.getattr_static(MultiplexNetwork, "drop_node")
    tracer = _perfbench_module("tracing").Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._saved)
        assert communities.run_combo is not run_combo
    finally:
        tracer.uninstall()
    assert all(inspect.getattr_static(owner, attr) is raw for owner, attr, raw in wrapped)
    assert communities.run_combo is run_combo
    assert inspect.getattr_static(MultiplexNetwork, "drop_node") is drop_node


def test_traced_metric_names_are_the_benchmarks_per_layer_names(perfbench, monkeypatch):
    """A traced run prints the tracer's metrics, the tracing overhead and the
    ``-X importtime`` figures of ``run.IMPORT_MODULES``, in BENCHMARK.json's order."""
    run = perfbench("run")
    stderr = "\n".join(f"import time: 1 | 2 | {module}" for module in run.IMPORT_MODULES)
    monkeypatch.setattr(run.subprocess, "run", lambda *args, **kwargs: SimpleNamespace(stderr=stderr))
    names = perfbench("tracing").metric_names() + ["trace.overhead_s", *run.measure_imports({})]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert names == [metric["name"] for metric in declared]
    assert [run.unit_of(name) for name in names] == [metric["unit"] for metric in declared]


def test_traced_polarization_and_group_nmi_report_finite_metrics(perfbench, tmp_path):
    """A non-finite metric would make the run's JSON line unreadable."""
    run, worker = perfbench("run"), perfbench("worker")
    manifest = run.inputs.write_fixture(tmp_path / "in", 0.1, run.inputs.fixture_seeds(1))
    commands = [(name, argv) for name, argv in
                worker.cli_commands("fixture", tmp_path / "in", manifest, tmp_path / "out")
                if name in ("polarization", "group-nmi")]
    assert len(commands) == 2
    tracer = worker.Tracer()
    tracer.install()
    try:
        records = worker.cli_round(commands)
    finally:
        tracer.uninstall()
    assert all(record["ok"] for record in records), records
    metrics = tracer.metrics()
    assert [name for name, value in metrics.items() if not math.isfinite(value)] == []
    assert metrics["modularity.q.calls"] > 0
    assert metrics["communities.script.f-1.wins"] > 0


def test_portfolio_round_reports_every_nodes_label(perfbench):
    layer = layer_of(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (6, 7), (7, 6)])
    (record,) = perfbench("worker").portfolio_round([("small", layer, 5)])
    assert record["ok"], record["error"]
    result = communities.run_portfolio(layer, DEFAULT_PORTFOLIO, seed=5)
    partition = result.partition
    assert record["node_ids"] == list(layer.node_ids)
    assert record["labels"] == [partition.labels[code] for code in partition.codes]
    assert (record["q"], record["script"]) == (result.q, result.script)
