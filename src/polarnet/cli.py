"""Command-line interface: one subcommand per analysis artifact.

Each command ingests the named layers (plus node table, merge config and any
auxiliary files), runs one analysis, and writes deterministic report files
under the output directory.  Identical inputs, flags and seed produce
byte-identical files.

Randomness derives from the single ``--seed`` through a fixed split scheme,
``communities.derive_seed``: community detection for layer number ``i``
(0-based, command-line order) and unaligned-handling variant ``v`` (0 =
included, 1 = excluded) runs the portfolio with ``derive_seed(seed, i, v)``,
and the portfolio gives its script ``j`` ``derive_seed(that, j)``.  Partial
reruns therefore match full runs.

Commands that share an output directory share work through ``store``: each
parsed layer and each detection is kept there as a hidden
``.polarnet-<kind>-<key>.npz`` file keyed by its content (the layer file's
bytes; the layer, scripts and derived seed of a detection) and by a digest
of the package's sources and the Python, numpy and scipy versions.  A
later command reuses it instead of parsing or detecting again, so
``group-nmi`` after ``polarization`` detects nothing anew.  Reports are the
same bytes either way, and deleting the hidden files is always safe.
"""
from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import store
from .communities import DEFAULT_PORTFOLIO, ComboScript, DetectionResult, derive_seed, run_portfolio
from .errors import PolarnetError, ValidationError
from .ideology import demod_distance_analysis, read_positions
# jackknife is not called here; it stays bound because perfbench's tracer wraps cli.jackknife.
from .infometrics import (
    ESTIMATORS,
    LinkIndicatorPair,
    MetricEstimate,
    jackknife,
    link_nmi,
    partial_jaccard,
    partition_nmi,
    similarity_replicates,
)
from .modularity import (
    NORMALIZATIONS,
    classify_polarization,
    demodularity_matrix,
    leave_one_out_q,
    q_modularity,
)
from .network import (
    LayerSchema,
    MultiplexNetwork,
    Partition,
    PartyMergeConfig,
    apply_party_merge,
    export_graphml,
    export_layer_csv,
    filter_partition,
    ingest_layer,
    parse_date,
    read_merge_config,
    read_node_table,
    read_table,
)
from .reports import FORMATS, demod_matrix_table, table_payload, write_csv, write_json
from .structure import CORE_CONVENTIONS, structure_report
from .timeseries import WindowSpec, event_annotation, sweep
from .topics import (
    SIGNIFICANCE_METHODS,
    corpus_for_groups,
    load_stopwords,
    read_comments,
    topic_report,
)

_LAYER_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

INCLUDE_VARIANT = "incl_unaligned"
EXCLUDE_VARIANT = "excl_unaligned"


# -- configuration plumbing ------------------------------------------------


@dataclass(frozen=True)
class LoadedRun:
    """Everything a command needs: the network plus the party partition."""

    network: MultiplexNetwork
    layer_names: tuple[str, ...]
    partition: Partition | None
    merge: PartyMergeConfig | None


def _parse_layer_args(pairs: Sequence[str]) -> list[tuple[str, str]]:
    out = []
    seen = set()
    for pair in pairs:
        name, eq, path = pair.partition("=")
        if not eq or not name or not path:
            raise ValidationError(f"--layer expects NAME=PATH, got {pair!r}")
        if not _LAYER_NAME_RE.match(name):
            raise ValidationError(
                f"layer name {name!r} may only contain letters, digits, '_', '.', '-'"
            )
        if name in seen:
            raise ValidationError(f"layer name {name!r} given twice")
        seen.add(name)
        out.append((name, path))
    return out


def _load_run(args: argparse.Namespace, *, need_partition: bool, min_layers: int = 1) -> LoadedRun:
    pairs = _parse_layer_args(args.layer or [])
    if len(pairs) < min_layers:
        raise ValidationError(
            f"this command needs at least {min_layers} --layer NAME=PATH argument(s)"
        )
    # ingest_layer is looked up at call time, so perfbench's tracer sees every parse.
    layers = [
        store.layer(args.out, path, name,
                    lambda data: ingest_layer(path, LayerSchema(name=name), data=data))
        for name, path in pairs
    ]
    node_table = read_node_table(args.nodes) if args.nodes else None
    network = MultiplexNetwork.assemble(layers, node_table)
    partition = None
    merge = None
    if node_table is not None:
        if args.merge:
            merge = read_merge_config(args.merge)
        else:
            merge = PartyMergeConfig.identity(node_table.values())
        raw = {node: node_table.get(node, "") for node in network.node_ids}
        partition = apply_party_merge(raw, merge)
    if need_partition and partition is None:
        raise ValidationError("this command needs a node table (--nodes)")
    return LoadedRun(network, tuple(name for name, _ in pairs), partition, merge)


def _apply_unaligned_filter(run: LoadedRun, exclude: bool) -> tuple[MultiplexNetwork, Partition]:
    assert run.partition is not None and run.merge is not None
    if not exclude:
        return run.network, run.partition
    return filter_partition(run.network, run.partition, run.merge.unaligned_label)


def _restrict_to_large_groups(
    network: MultiplexNetwork, partition: Partition, min_size: int
) -> tuple[MultiplexNetwork, Partition]:
    """Drop groups below min_size (members counted on the active registry)."""
    codes = partition.codes_on(network.node_ids)[network.active_indices()]
    sizes = np.bincount(codes, minlength=len(partition.labels))
    if sizes.max() < min_size:
        raise ValidationError(
            f"no group reaches --min-group-size {min_size}; largest is {sizes.max()}"
        )
    for label, size in zip(partition.labels, sizes):
        if size < min_size:
            network, partition = filter_partition(network, partition, label)
    return network, partition


def _parse_portfolio(text: str | None) -> tuple[ComboScript, ...]:
    if text is None:
        return tuple(ComboScript.parse(script) for script in DEFAULT_PORTFOLIO)
    scripts = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not scripts:
        raise ValidationError("--portfolio must name at least one combo script")
    return tuple(ComboScript.parse(script) for script in scripts)


def _require_seed(args: argparse.Namespace, scripts: Sequence[ComboScript]) -> int:
    if args.seed is not None and args.seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, not {args.seed}")
    if any(script.stochastic for script in scripts):
        if args.seed is None:
            raise ValidationError(
                "--seed is required: the detection portfolio contains stochastic stages"
            )
        return args.seed
    return args.seed if args.seed is not None else 0


def _detect(
    out: str, layer, scripts: Sequence[ComboScript], root_seed: int, layer_index: int, variant: int
) -> DetectionResult:
    seed = derive_seed(root_seed, layer_index, variant)
    return store.detection(out, layer, scripts, seed, lambda: run_portfolio(layer, scripts, seed=seed))


def _read_events(path: str | Path) -> list[tuple[date, str]]:
    """Events CSV with columns date,label; header row optional."""
    return [
        (parse_date(day, path, line), label.strip())
        for line, (day, label) in read_table(path, ("date", "label"))
    ]


def _emit(args: argparse.Namespace, stem: str, header: Sequence[str], rows: list[list[Any]]) -> Path:
    path = Path(args.out) / f"{stem}.{args.format}"
    if args.format == "csv":
        write_csv(path, header, rows)
    else:
        write_json(path, table_payload(header, rows))
    print(f"wrote {path}")
    return path


# -- subcommands -----------------------------------------------------------


def _estimate(args: argparse.Namespace, point: float, replicates: Callable[[], Any]) -> list[Any]:
    """[point, jack_mean, two_sigma, unreliable]; ``replicates()`` gives the
    leave-one-node-out values in index order, NaN or None where undefined."""
    if args.no_jackknife:
        return [point, None, None, None]
    est = MetricEstimate.from_replicates(point, replicates())
    return [est.point, est.jack_mean, est.two_sigma, est.unreliable]


def cmd_layer_similarity(args: argparse.Namespace) -> int:
    run = _load_run(args, need_partition=False, min_layers=2)
    network, names = run.network, run.layer_names
    header = ["metric", "layer_x", "layer_y", "point", "jack_mean", "two_sigma", "unreliable"]
    rows: list[list[Any]] = []
    # (partial Jaccard, NMI) replicate arrays of each ordered pair, one pass per unordered pair.
    scores: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
    if not args.no_jackknife:
        nodes = network.active_indices()
        for i, x in enumerate(names):
            for y in names[i + 1:]:
                counts = LinkIndicatorPair.leave_one_out(network.layer(x), network.layer(y), nodes)
                scores[(x, y)], scores[(y, x)] = similarity_replicates(counts, args.estimator)
    for x in names:
        for y in names:
            if x == y:
                continue
            a, b = network.layer(x), network.layer(y)
            rows.append(["overlap", x, y, *_estimate(
                args, partial_jaccard(a, b), lambda: scores[(x, y)][0])])
            rows.append(["nmi", x, y, *_estimate(
                args, link_nmi(a, b, args.estimator)[0], lambda: scores[(x, y)][1])])
    _emit(args, "layer_similarity", header, rows)
    return 0


def cmd_polarization(args: argparse.Namespace) -> int:
    run = _load_run(args, need_partition=True)
    scripts = _parse_portfolio(args.portfolio)
    root_seed = _require_seed(args, scripts)
    header = [
        "layer",
        "variant",
        "q_party",
        "q_party_class",
        "jack_mean",
        "two_sigma",
        "unreliable",
        "q_comp",
        "q_comp_class",
        "comp_groups",
        "comp_script",
    ]
    variants = [(INCLUDE_VARIANT, 0, False), (EXCLUDE_VARIANT, 1, True)]
    rows: list[list[Any]] = []
    for variant_name, variant_index, exclude in variants:
        network, partition = _apply_unaligned_filter(run, exclude)
        for layer_index, name in enumerate(run.layer_names):
            layer = network.layer(name)
            detection = _detect(args.out, layer, scripts, root_seed, layer_index, variant_index)
            point, *jack = _estimate(
                args, q_modularity(layer, partition),
                lambda: leave_one_out_q(layer, partition.codes_on(layer.node_ids),
                                        network.active_indices()))
            rows.append(
                [
                    name,
                    variant_name,
                    point,
                    classify_polarization(point),
                    *jack,
                    detection.q,
                    classify_polarization(detection.q),
                    detection.group_count,
                    str(detection.script),
                ]
            )
    rows.sort(key=lambda row: (run.layer_names.index(row[0]), row[1] == EXCLUDE_VARIANT))
    _emit(args, "polarization", header, rows)
    return 0


def cmd_group_nmi(args: argparse.Namespace) -> int:
    run = _load_run(args, need_partition=True)
    scripts = _parse_portfolio(args.portfolio)
    root_seed = _require_seed(args, scripts)
    network, partition = _apply_unaligned_filter(run, args.exclude_unaligned)
    variant_index = 1 if args.exclude_unaligned else 0
    named: list[tuple[str, Partition]] = [("parties", partition)]
    for layer_index, name in enumerate(run.layer_names):
        detection = _detect(
            args.out, network.layer(name), scripts, root_seed, layer_index, variant_index
        )
        named.append((f"communities:{name}", detection.partition))
    nodes = [network.node_ids[i] for i in network.active_indices()]
    header = ["x", "y", "nmi", "estimator"]
    rows: list[list[Any]] = []
    for x_name, x_part in named:
        for y_name, y_part in named:
            if x_name == y_name:
                continue
            value = partition_nmi(x_part, y_part, nodes, args.estimator)[0]
            rows.append([x_name, y_name, value, args.estimator])
    _emit(args, "group_nmi", header, rows)
    return 0


def cmd_timeseries(args: argparse.Namespace) -> int:
    run = _load_run(args, need_partition=True)
    network, partition = _apply_unaligned_filter(run, args.exclude_unaligned)
    spec = WindowSpec(width_days=args.window_days, step_days=args.step_days)
    events = _read_events(args.events) if args.events else []
    header = ["layer", "window_start", "value", "links_in_window", "annotations"]
    rows: list[list[Any]] = []
    event_rows: list[list[Any]] = []
    for name in run.layer_names:
        series = sweep(
            network.layer(name), partition, q_modularity, spec, permissive=args.allow_undated
        )
        if events:
            series = event_annotation(series, events)
        by_window: dict[date, list[str]] = {}
        for note in series.annotations:
            if note.window_start is not None:
                by_window.setdefault(note.window_start, []).append(note.label)
            event_rows.append(
                [name, note.day.isoformat(), note.label, note.in_span,
                 note.window_start.isoformat() if note.window_start else None]
            )
        for record in series.records:
            rows.append(
                [
                    name,
                    record.start.isoformat(),
                    record.value,
                    record.links_in_window,
                    "; ".join(by_window.get(record.start, [])),
                ]
            )
    _emit(args, "timeseries", header, rows)
    if events:
        _emit(args, "timeseries_events", ["layer", "date", "label", "in_span", "window_start"], event_rows)
    return 0


def cmd_structure(args: argparse.Namespace) -> int:
    run = _load_run(args, need_partition=True)
    network, partition = _apply_unaligned_filter(run, args.exclude_unaligned)
    positions = read_positions(args.positions) if args.positions else {}
    header = [
        "layer",
        "group",
        "n",
        "links",
        "in_degree_centralization",
        "average_path_length",
        "max_kcore",
        "lr",
        "cl",
    ]
    rows: list[list[Any]] = []
    for name in run.layer_names:
        report = structure_report(
            network.layer(name),
            partition,
            min_group_size=args.min_group_size,
            core_convention=args.core_convention,
        )
        for row in report:
            position = positions.get(row.label)
            rows.append(
                [
                    name,
                    row.label,
                    row.n,
                    row.links,
                    row.in_degree_centralization,
                    row.average_path_length,
                    row.max_kcore,
                    position.lr if position else None,
                    position.cl if position else None,
                ]
            )
    _emit(args, "structure", header, rows)
    return 0


def cmd_demodularity(args: argparse.Namespace) -> int:
    run = _load_run(args, need_partition=True)
    network, partition = _apply_unaligned_filter(run, args.exclude_unaligned)
    network, partition = _restrict_to_large_groups(network, partition, args.min_group_size)
    positions = read_positions(args.positions) if args.positions else None
    scatter_rows: list[list[Any]] = []
    corr_rows: list[list[Any]] = []
    for name in run.layer_names:
        matrix = demodularity_matrix(
            network.layer(name), partition, normalization=args.normalization
        )
        header, rows = demod_matrix_table(matrix)
        _emit(args, f"demodularity_{name}", header, rows)
        if positions is not None:
            result = demod_distance_analysis(
                network.layer(name),
                partition,
                positions,
                normalization=args.normalization,
                ordered=not args.unordered,
            )
            for pair in result.pairs:
                scatter_rows.append(
                    [name, pair.from_party, pair.to_party, pair.distance, pair.demod]
                )
            corr_rows.append([name, result.r, result.p_value, len(result.pairs)])
    if positions is not None:
        _emit(args, "demod_scatter", ["layer", "from_group", "to_group", "distance", "demod"], scatter_rows)
        _emit(args, "demod_correlation", ["layer", "r", "p_value", "n_pairs"], corr_rows)
    return 0


def cmd_topics(args: argparse.Namespace) -> int:
    run = _load_run(args, need_partition=True)
    network, partition = _apply_unaligned_filter(run, args.exclude_unaligned)
    network, partition = _restrict_to_large_groups(network, partition, args.min_group_size)
    comments = read_comments(args.comments)
    comments = corpus_for_groups(comments, partition)
    if not comments:
        raise ValidationError("no comments remain after group filtering")
    stopwords = load_stopwords(args.stopwords)
    report = topic_report(
        comments,
        partition,
        stopwords=stopwords,
        top_k=args.top_k,
        alpha=args.alpha,
        method=args.sig_method,
    )
    word_header = ["group", "rank", "word", "count_in_group", "count_total", "pmi", "p_value"]
    word_rows: list[list[Any]] = []
    count_rows: list[list[Any]] = []
    for group in report.groups:
        for rank, stat in enumerate(group.words, start=1):
            word_rows.append(
                [group.label, rank, stat.word, stat.count_in_group, stat.count_total,
                 stat.pmi, stat.p_value]
            )
        count_rows.append([group.label, group.word_count, group.comment_count, group.user_count])
    for label in report.omitted:
        count_rows.append([label, 0, 0, 0])
    _emit(args, "topics", word_header, word_rows)
    _emit(args, "topics_counts", ["group", "words", "comments", "users"], count_rows)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    run = _load_run(args, need_partition=False)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in run.layer_names:
        path = out / f"{name}.csv"
        export_layer_csv(run.network.layer(name), path)
        print(f"wrote {path}")
    if args.graphml:
        path = out / "network.graphml"
        export_graphml(run.network, path, run.partition)
        print(f"wrote {path}")
    return 0


# -- argument parsing ------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--layer",
        action="append",
        metavar="NAME=PATH",
        help="named layer CSV (repeatable; order fixes layer indices)",
    )
    parser.add_argument("--nodes", metavar="PATH", help="node table CSV (node_id,affiliation)")
    parser.add_argument("--merge", metavar="PATH", help="party merge config (key=value lines)")
    parser.add_argument("--out", required=True, metavar="DIR", help="output directory")
    parser.add_argument("--format", choices=FORMATS, default="csv", help="report file format")


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, metavar="N", help="root seed for stochastic stages")


def _add_portfolio(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--portfolio",
        metavar="SCRIPTS",
        help="comma-separated combo scripts (default: %s)" % ",".join(DEFAULT_PORTFOLIO),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarnet",
        description="Polarization analysis of multiplex directed social networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("layer-similarity", help="link overlap and NMI per ordered layer pair")
    _add_common(p)
    p.add_argument("--estimator", choices=ESTIMATORS, default="mm", help="entropy estimator")
    p.add_argument("--no-jackknife", action="store_true", help="skip leave-one-out error bars")
    p.set_defaults(func=cmd_layer_similarity)

    p = sub.add_parser("polarization", help="party-label and detected-community modularity")
    _add_common(p)
    _add_seed(p)
    _add_portfolio(p)
    p.add_argument("--no-jackknife", action="store_true", help="skip leave-one-out error bars")
    p.set_defaults(func=cmd_polarization)

    p = sub.add_parser("group-nmi", help="NMI between party labels and detected communities")
    _add_common(p)
    _add_seed(p)
    _add_portfolio(p)
    p.add_argument("--estimator", choices=ESTIMATORS, default="mm", help="entropy estimator")
    p.add_argument("--exclude-unaligned", action="store_true")
    p.set_defaults(func=cmd_group_nmi)

    p = sub.add_parser("timeseries", help="sliding-window modularity series")
    _add_common(p)
    p.add_argument("--window-days", type=int, default=60, metavar="N")
    p.add_argument("--step-days", type=int, default=1, metavar="N")
    p.add_argument("--events", metavar="PATH", help="events CSV (date,label) to annotate")
    p.add_argument("--allow-undated", action="store_true", help="skip links without timestamps")
    p.add_argument("--exclude-unaligned", action="store_true")
    p.set_defaults(func=cmd_timeseries)

    p = sub.add_parser("structure", help="per-group centralization, path length, k-core")
    _add_common(p)
    p.add_argument("--min-group-size", type=int, default=200, metavar="N")
    p.add_argument("--core-convention", choices=CORE_CONVENTIONS, default="undirected")
    p.add_argument("--positions", metavar="PATH", help="party positions CSV (party,lr,cl)")
    p.add_argument("--exclude-unaligned", action="store_true")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("demodularity", help="group-pair demodularity matrices and correlation")
    _add_common(p)
    p.add_argument("--min-group-size", type=int, default=200, metavar="N")
    p.add_argument("--normalization", choices=NORMALIZATIONS, default="out_weight")
    p.add_argument("--positions", metavar="PATH", help="party positions CSV (party,lr,cl)")
    p.add_argument("--unordered", action="store_true", help="average the two pair directions")
    p.add_argument("--exclude-unaligned", action="store_true")
    p.set_defaults(func=cmd_demodularity)

    p = sub.add_parser("topics", help="PMI topic words per group from a comment corpus")
    _add_common(p)
    p.add_argument("--comments", required=True, metavar="PATH", help="comments CSV (author,date,text)")
    p.add_argument("--alpha", type=float, default=0.01, metavar="P", help="significance level")
    p.add_argument("--top-k", type=int, default=20, metavar="N")
    p.add_argument("--min-group-size", type=int, default=200, metavar="N")
    p.add_argument("--stopwords", metavar="PATH", help="stopword list (default: bundled German)")
    p.add_argument("--sig-method", choices=SIGNIFICANCE_METHODS, default="g")
    p.add_argument("--exclude-unaligned", action="store_true")
    p.set_defaults(func=cmd_topics)

    p = sub.add_parser("export", help="canonical layer CSVs and optional GraphML")
    _add_common(p)
    p.add_argument("--graphml", action="store_true", help="also write network.graphml")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolarnetError as exc:
        print(f"polarnet: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"polarnet: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
