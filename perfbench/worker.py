"""One benchmark worker: runs whole rounds of a workload's operations.

Started by ``run.py`` in a fresh process with ``src`` on ``PYTHONPATH`` and
the BLAS pool pinned.  It loads the generated inputs, runs rounds until the
next one would end past ``--seconds`` (at least ``MIN_ROUNDS``), and
writes what each operation returned to ``--result`` as JSON.  Output
checks happen in the parent, after this process has ended.

With ``--trace 1`` it runs ``MIN_ROUNDS`` untraced rounds and then one
traced round; the tracing overhead is the traced round's wall time minus
the median untraced one.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from polarnet import cli, communities
from polarnet.communities import DEFAULT_PORTFOLIO
from polarnet.network import LayerSchema, ingest_layer

from tracing import Tracer

# fixture and similarity write reports; two rounds let every run check that
# a rerun writes them byte for byte.  A portfolio round outlasts a run.
MIN_ROUNDS = {"fixture": 2, "portfolio": 1, "similarity": 2}


def cli_commands(workload: str, inputs: Path, manifest: dict, out: Path) -> list[tuple[str, list[str]]]:
    """``similarity``: layer-similarity with its jackknife.  ``fixture``: the
    criterion-10 command list, with --min-group-size scaled to the tier."""
    base: list[str] = []
    for layer in manifest["layers"]:
        base += ["--layer", f"{layer['name']}={inputs / (layer['name'] + '.csv')}"]
    base += ["--nodes", str(inputs / "nodes.csv"), "--merge", str(inputs / "merge.cfg")]
    tail = ["--out", str(out)]
    min_group = ["--min-group-size", str(manifest["min_group_size"])]
    positions = ["--positions", str(inputs / "positions.csv")]
    if workload == "similarity":
        return [("layer-similarity", ["layer-similarity", *base, *tail])]
    return [
        ("layer-similarity", ["layer-similarity", *base, "--no-jackknife", *tail]),
        ("polarization", ["polarization", *base, "--portfolio", "f-1", "--seed", "11", *tail]),
        ("group-nmi", ["group-nmi", *base, "--portfolio", "f-1", "--seed", "11", *tail]),
        ("timeseries", ["timeseries", *base, "--window-days", "60", "--step-days", "7",
                        "--events", str(inputs / "events.csv"), *tail]),
        ("structure", ["structure", *base, *min_group, *positions, *tail]),
        ("demodularity", ["demodularity", *base, *min_group, *positions, *tail]),
        ("topics", ["topics", *base, "--comments", str(inputs / "comments.csv"), *min_group,
                    "--alpha", "0.01", *tail]),
    ]


def cli_round(commands) -> list[dict]:
    records = []
    for name, argv in commands:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            records.append({"op": name, "ok": code == 0, "error": None if code == 0 else f"exit {code}"})
        except Exception:  # a crash fails this operation only
            records.append({"op": name, "ok": False, "error": traceback.format_exc(limit=3)})
    return records


def portfolio_round(graphs: list[tuple[str, object, int]]) -> list[dict]:
    records = []
    for name, layer, seed in graphs:
        try:
            # Looked up on the module at call time, so a tracer can wrap it.
            result = communities.run_portfolio(layer, DEFAULT_PORTFOLIO, seed=seed)
            assignment = result.partition.assignment
            records.append({"op": name, "ok": True, "error": None, "q": result.q,
                            "script": result.script,
                            "labels": [assignment[node] for node in layer.node_ids],
                            "node_ids": list(layer.node_ids)})
        except Exception:
            records.append({"op": name, "ok": False, "error": traceback.format_exc(limit=3)})
    return records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()
    min_rounds = MIN_ROUNDS[args.workload]
    manifest = json.loads((args.inputs / "manifest.json").read_text(encoding="utf-8"))

    if args.workload == "portfolio":
        graphs = []
        for graph in manifest["graphs"]:
            layer = ingest_layer(args.inputs / f"{graph['name']}.csv", LayerSchema(name=graph["name"]))
            graphs.append((graph["name"], layer, graph["seed"]))

        def one_round(k: int) -> list[dict]:
            return portfolio_round(graphs)
    else:
        def one_round(k: int) -> list[dict]:
            out = args.out / f"round{k}"
            return cli_round(cli_commands(args.workload, args.inputs, manifest, out))

    rounds: list[dict] = []

    def timed_round(k: int) -> None:
        started = time.perf_counter()
        records = one_round(k)
        rounds.append({"wall_s": time.perf_counter() - started, "records": records})

    trace = None
    if args.trace:
        for k in range(min_rounds):
            timed_round(k)
        untraced = statistics.median(r["wall_s"] for r in rounds)
        tracer = Tracer()
        tracer.install()
        try:
            timed_round(len(rounds))
        finally:
            tracer.uninstall()
        trace = tracer.metrics()
        trace["trace.overhead_s"] = rounds[-1]["wall_s"] - untraced
    else:
        began = time.perf_counter()
        while True:
            timed_round(len(rounds))
            typical = statistics.median(r["wall_s"] for r in rounds)
            if len(rounds) >= min_rounds and time.perf_counter() - began + typical > args.seconds:
                break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.result.write_text(json.dumps({
        "rounds": rounds,
        "peak_rss_mb": peak_kb / 1024.0,
        "trace": trace,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
