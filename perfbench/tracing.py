"""Per-layer spans recorded from outside the program.

A ``Tracer`` replaces the public functions of each ``polarnet`` module
under the names their callers look them up by (for example ``cli.jackknife``
or ``communities.run_combo``) with wrappers that add up time and counts per
layer, and puts the originals back on ``uninstall``.  Times are inclusive:
a jackknife's time also holds the ``modularity.q`` calls it makes, which
``modularity.q.s`` counts again.
"""
from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

from polarnet import cli, communities, ideology
from polarnet.communities import DEFAULT_PORTFOLIO
from polarnet.network import MultiplexNetwork

COMMANDS = ("layer-similarity", "polarization", "group-nmi", "timeseries",
            "structure", "demodularity", "topics")


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = [f"cli.{cmd}.s" for cmd in COMMANDS]
    names += ["network.ingest.s", "network.ingest.calls", "network.assemble.s",
              "network.filter.s", "network.drop_node.s", "network.drop_node.calls",
              "modularity.q.s", "modularity.q.calls", "modularity.demod.s",
              "communities.portfolio.s", "communities.portfolio.calls"]
    for script in DEFAULT_PORTFOLIO:
        names += [f"communities.script.{script}.{kind}" for kind in ("s", "q", "wins")]
    names += ["communities.nonconverged",
              "infometrics.jackknife.s", "infometrics.jackknife.replicates",
              "infometrics.jackknife.skipped", "infometrics.partial_jaccard.s",
              "infometrics.link_nmi.s", "infometrics.partition_nmi.s",
              "timeseries.sweep.s", "timeseries.windows",
              "structure.report.s", "structure.groups",
              "ideology.demod_distance.s", "topics.read.s", "topics.report.s",
              "reports.write.s", "reports.bytes"]
    return names


class Tracer:
    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.script_q: dict[str, list[float]] = defaultdict(list)
        self._saved: list[tuple[object, str, object]] = []

    # -- hooks run on a wrapped call's result --------------------------------

    def _on_combo(self, args, kwargs, result) -> None:
        self.script_q[result.script].append(result.q)
        self.counts["communities.nonconverged"] += len(result.flags)
        self.seconds[f"communities.script.{result.script}.s"] += self._last

    def _on_portfolio(self, args, kwargs, result) -> None:
        self.counts[f"communities.script.{result.script}.wins"] += 1

    def _on_jackknife(self, args, kwargs, result) -> None:
        self.counts["infometrics.jackknife.replicates"] += result.samples - result.skipped
        self.counts["infometrics.jackknife.skipped"] += result.skipped

    def _on_sweep(self, args, kwargs, result) -> None:
        self.counts["timeseries.windows"] += len(result.records)

    def _on_structure(self, args, kwargs, result) -> None:
        self.counts["structure.groups"] += len(result)

    def _on_write(self, args, kwargs, result) -> None:
        self.counts["reports.bytes"] += os.path.getsize(args[0])

    # -- installation ---------------------------------------------------------

    def _wrap(self, owner, attr: str, layer: str | None, count: str | None = None, hook=None) -> None:
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            tracer._last = time.perf_counter() - started
            if layer is not None:
                tracer.seconds[layer] += tracer._last
            if count is not None:
                tracer.counts[count] += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        self._saved.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def install(self) -> None:
        for cmd in COMMANDS:
            self._wrap(cli, "cmd_" + cmd.replace("-", "_"), f"cli.{cmd}.s")
        self._wrap(cli, "ingest_layer", "network.ingest.s", "network.ingest.calls")
        self._wrap(MultiplexNetwork, "assemble", "network.assemble.s")
        self._wrap(cli, "filter_partition", "network.filter.s")
        self._wrap(MultiplexNetwork, "drop_node", "network.drop_node.s", "network.drop_node.calls")
        for owner in (cli, communities):
            self._wrap(owner, "q_modularity", "modularity.q.s", "modularity.q.calls")
            self._wrap(owner, "run_portfolio", "communities.portfolio.s",
                       "communities.portfolio.calls", self._on_portfolio)
        for owner in (cli, ideology):
            self._wrap(owner, "demodularity_matrix", "modularity.demod.s")
        self._wrap(communities, "run_combo", None, hook=self._on_combo)
        self._wrap(cli, "jackknife", "infometrics.jackknife.s", hook=self._on_jackknife)
        for name in ("partial_jaccard", "link_nmi", "partition_nmi"):
            self._wrap(cli, name, f"infometrics.{name}.s")
        self._wrap(cli, "sweep", "timeseries.sweep.s", hook=self._on_sweep)
        self._wrap(cli, "structure_report", "structure.report.s", hook=self._on_structure)
        self._wrap(cli, "demod_distance_analysis", "ideology.demod_distance.s")
        self._wrap(cli, "read_comments", "topics.read.s")
        self._wrap(cli, "topic_report", "topics.report.s")
        for name in ("write_csv", "write_json"):
            self._wrap(cli, name, "reports.write.s", hook=self._on_write)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in metric_names():
            if name.startswith("communities.script.") and name.endswith(".q"):
                script = name[len("communities.script."):-len(".q")]
                values = self.script_q.get(script, [])
                out[name] = sum(values) / len(values) if values else 0.0
            elif name.endswith(".s"):
                out[name] = self.seconds.get(name, 0.0)
            else:
                out[name] = float(self.counts.get(name, 0))
        return out
