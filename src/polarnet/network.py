"""Multiplex directed network model.

A network is a shared node registry plus named directed layers.  Layers are
read from CSV files into row columns, built by ``Layer.from_columns``, carry
optional per-link weights and calendar-day timestamps, and are stored as dense
index arrays so whole-layer metrics stay vectorized.  Partitions assign every node a group label and are the common
currency between the party tables and the community detection output.
"""
from __future__ import annotations

import copy
import csv
import itertools
import math
import re
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence
from xml.etree import ElementTree

import numpy as np
from scipy.sparse import csr_matrix

from .errors import ParseError, ValidationError

# Sentinel for "link has no timestamp" inside int64 day arrays.
MISSING_DAY = np.iinfo(np.int64).min

# The layer CSV columns, in positional order.
LAYER_COLUMNS = ("source", "target", "weight", "date")

# The only date form a cell may hold: YYYY-MM-DD.
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


@dataclass(frozen=True)
class LayerLink:
    """One directed link inside a layer, as ``Layer.links`` yields it."""

    source: str
    target: str
    weight: float = 1.0
    timestamp: date | None = None


@dataclass(frozen=True)
class LayerSchema:
    """How to read a layer CSV file: the layer name (default: the file stem)."""

    name: str | None = None


class Layer:
    """A named directed layer over a node registry.

    ``from_columns`` merges duplicate rows with ``merge_links``.  A weighted
    layer keeps one link per (source, target, day) and adds its rows'
    weights in row order; an unweighted layer keeps one link per (source,
    target), dated with its earliest real day (undated if no row has a
    date).  Arrays are sorted by (source, target, day), so equal link
    multisets produce equal layers.  Self-links are kept in storage but
    excluded from metric views.  Instances are treated as immutable.
    """

    def __init__(
        self,
        name: str,
        node_ids: tuple[str, ...],
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        days: np.ndarray | None,
        weighted: bool,
        node_count: int | None = None,
    ):
        self.name = name
        self.node_ids = node_ids
        self.src = src
        self.dst = dst
        self.weight = weight
        self.days = days
        self.weighted = weighted
        self.node_count = len(node_ids) if node_count is None else node_count
        self._metric_view: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_columns(
        cls,
        name: str,
        sources: Sequence[str],
        targets: Sequence[str],
        weights: Sequence[float],
        days: Sequence[int],
        *,
        weighted: bool | None = None,
        node_ids: Sequence[str] | None = None,
    ) -> "Layer":
        """Build a layer from row columns, extending or reusing a registry;
        ``days`` holds day ordinals, ``MISSING_DAY`` for an undated row."""
        ends = [end for pair in zip(sources, targets) for end in pair]
        registry = tuple(dict.fromkeys(ends) if node_ids is None else node_ids)
        index = {node: i for i, node in enumerate(registry)}
        codes = np.array([index.get(end, -1) for end in ends], dtype=np.int64).reshape(-1, 2)
        w = np.array(weights, dtype=np.float64)
        if weighted is None:
            weighted = bool((w != 1.0).any())
        bad = ~((w > 0) & (w < np.inf)) | (codes < 0).any(axis=1) | ((w != 1.0) & (not weighted))
        if bad.any():
            i = int(np.argmax(bad))
            source, target, weight = sources[i], targets[i], float(w[i])
            if not np.isfinite(weight) or weight <= 0:
                kind = "non-positive" if np.isfinite(weight) else "non-finite"
                raise ValidationError(
                    f"layer {name!r}: {kind} weight {weight!r} on {source!r} -> {target!r}"
                )
            unknown = source if source not in index else target
            if unknown not in index:
                raise ValidationError(f"layer {name!r}: unknown node {unknown!r}")
            raise ValidationError(f"layer {name!r}: unweighted layer requires unit weights")
        day = np.array(days, dtype=np.int64)
        undated = np.iinfo(np.int64).max
        if not weighted:
            # Undated rows sort last, so each pair's first row holds its earliest real day.
            day[day == MISSING_DAY] = undated
        (src, dst, day), w = merge_links(w, codes[:, 0], codes[:, 1], day)
        if not weighted:
            first = (np.diff(src, prepend=-1) != 0) | (np.diff(dst, prepend=-1) != 0)
            src, dst, day, w = src[first], dst[first], day[first], np.ones(np.count_nonzero(first))
            day[day == undated] = MISSING_DAY
        days = day if (day != MISSING_DAY).any() else None
        return cls(name, registry, src, dst, w, days, weighted)

    # -- basic accessors ---------------------------------------------------

    @property
    def n_links(self) -> int:
        return len(self.src)

    @property
    def has_timestamps(self) -> bool:
        return self.days is not None

    def links(self) -> Iterator[LayerLink]:
        days = self.days
        for i in range(self.n_links):
            day = None
            if days is not None and days[i] != MISSING_DAY:
                day = date.fromordinal(int(days[i]))
            yield LayerLink(
                self.node_ids[int(self.src[i])],
                self.node_ids[int(self.dst[i])],
                float(self.weight[i]),
                day,
            )

    def metric_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, dst, weight) with self-links removed; the view metrics see."""
        if self._metric_view is None:
            keep = self.src != self.dst
            if keep.all():
                self._metric_view = (self.src, self.dst, self.weight)
            else:
                self._metric_view = (self.src[keep], self.dst[keep], self.weight[keep])
        return self._metric_view

    # -- derived copies ----------------------------------------------------

    def _masked(self, keep: np.ndarray, *, node_count: int | None = None) -> "Layer":
        days = None if self.days is None else self.days[keep]
        return Layer(
            self.name,
            self.node_ids,
            self.src[keep],
            self.dst[keep],
            self.weight[keep],
            days,
            self.weighted,
            self.node_count if node_count is None else node_count,
        )

    def without_node(self, v: int) -> "Layer":
        """The layer with node index v and its incident links removed."""
        keep = (self.src != v) & (self.dst != v)
        return self._masked(keep, node_count=self.node_count - 1)

    def remapped(self, node_ids: tuple[str, ...], lut: np.ndarray) -> "Layer":
        """Re-express link endpoints against a new registry via a lookup table."""
        src = lut[self.src]
        dst = lut[self.dst]
        days = self.days
        order_day = np.zeros(len(src), dtype=np.int64) if days is None else days
        order = np.lexsort((order_day, dst, src))
        return Layer(
            self.name,
            node_ids,
            src[order],
            dst[order],
            self.weight[order],
            None if days is None else days[order],
            self.weighted,
        )


def merge_links(weight: np.ndarray, *keys: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Merge rows with equal key columns into one row each, adding their weights.

    Returns the distinct rows of ``keys`` in sorted order (the first column
    sorts first) and each row's weight sum as float64.  The sort is stable
    and ``bincount`` adds in index order, so every sum adds its rows'
    weights in row order, bit for bit as a running total would.
    """
    order = np.lexsort(keys[::-1])
    columns = [key[order] for key in keys]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.logical_or.reduce([col[1:] != col[:-1] for col in columns])
    sums = np.bincount(np.cumsum(first) - 1, weights=weight[order])
    return tuple(col[first] for col in columns), sums.astype(np.float64)


def symmetric_adjacency(n: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> csr_matrix:
    """The undirected view of self-link-free links as an n×n CSR matrix.

    Entries (i, j) and (j, i) both hold w(i->j) + w(j->i), and every row's
    columns are sorted.  Each unordered pair's weights are added once, in
    link order, and the sum is mirrored, so the two entries are equal bit
    for bit.
    """
    (lo, hi), sums = merge_links(weight, np.minimum(src, dst), np.maximum(src, dst))
    return csr_matrix(
        (np.concatenate([sums, sums]), (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
        shape=(n, n),
    )


# -- ingestion -------------------------------------------------------------


def _parse_weight(cell: str, path: str, line: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"bad weight {cell!r}", path=path, line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite weight {cell!r}", path=path, line=line)
    if value <= 0:
        raise ParseError(f"non-positive weight {cell!r}", path=path, line=line)
    return value


def parse_date(cell: str, path: str | Path, line: int) -> date:
    """The YYYY-MM-DD date in a cell; anything else is a ParseError at ``path:line``."""
    cell = cell.strip()
    # From Python 3.11 on, fromisoformat also reads forms like 20130105 and 2013-W01-1.
    if _DATE.fullmatch(cell):
        try:
            return date.fromisoformat(cell)
        except ValueError:
            pass
    raise ParseError(f"bad date {cell!r} (expected YYYY-MM-DD)", path=str(path), line=line)


def _not_utf8(path: str | Path) -> ParseError:
    """ParseError at the first line of ``path`` that does not decode as UTF-8.

    A text stream decodes in chunks, so its UnicodeDecodeError cannot name
    the line; newline bytes never occur inside a UTF-8 sequence, so decoding
    line by line finds it.
    """
    with open(path, "rb") as handle:
        for line, raw in enumerate(handle, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return ParseError("not UTF-8 text", path=str(path), line=line)
    return ParseError("not UTF-8 text", path=str(path))


def read_text(path: str | Path) -> str:
    """A UTF-8 text file with any byte-order mark dropped and newlines as ``\\n``."""
    try:
        return Path(path).read_text("utf-8-sig")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def csv_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, cells) for every non-blank row of a UTF-8 CSV file.

    A leading byte-order mark is dropped.  ``line`` is the physical line on
    which the row starts, so rows after a quoted multi-line cell are still
    named correctly in errors.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        line = 1
        try:
            for cells in reader:
                if len(cells) > 1 or (cells and cells[0].strip()):
                    yield line, cells
                line = reader.line_num + 1
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def read_table(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, cells) for the data rows of a CSV file with exactly ``columns``.

    A header on line 1 spelling the column names (case-insensitively) is
    skipped; any other row of the wrong width is a ParseError at its line.
    """
    header = [column.casefold() for column in columns]
    for line, cells in csv_rows(path):
        if line == 1 and [cell.strip().casefold() for cell in cells] == header:
            continue
        if len(cells) != len(columns):
            raise ParseError(
                f"expected {len(columns)} columns ({','.join(columns)}), found {len(cells)}",
                path=str(path), line=line,
            )
        yield line, cells


def ingest_layer(path: str | Path, schema: LayerSchema | None = None) -> Layer:
    """Read a layer CSV with columns source,target[,weight][,date].

    A header on line 1 whose first two cells are source,target maps every
    column by name, and an unknown or repeated name is an error; otherwise
    rows are read positionally (2 columns unweighted, 3 with weight, 4 with
    weight and date).  The layer is weighted exactly when a weight column is
    present.
    """
    path = Path(path)
    where = str(path)
    name = (schema.name if schema else None) or path.stem
    rows = csv_rows(path)
    first = next(rows, None)
    if first is None:
        return Layer.from_columns(name, [], [], [], [], weighted=False)
    line, cells = first
    header = [cell.strip().casefold() for cell in cells]
    if line == 1 and header[:2] == ["source", "target"]:
        for i, column in enumerate(header):
            if column not in LAYER_COLUMNS:
                raise ParseError(
                    f"unknown column {cells[i].strip()!r} (expected {','.join(LAYER_COLUMNS)})",
                    path=where, line=line,
                )
            if column in header[:i]:
                raise ParseError(f"column {cells[i].strip()!r} given twice", path=where, line=line)
        positions = {column: i for i, column in enumerate(header)}
        cols = tuple(positions.get(column) for column in LAYER_COLUMNS)
        columns = [cell.strip() for cell in cells]
    else:
        if not 2 <= len(cells) <= 4:
            raise ParseError(
                f"expected 2 to 4 columns ({','.join(LAYER_COLUMNS)}), found {len(cells)}",
                path=where, line=line,
            )
        cols = tuple(i if i < len(cells) else None for i in range(4))
        columns = LAYER_COLUMNS[: len(cells)]
        rows = itertools.chain([first], rows)
    src_col, dst_col, weight_col, date_col = cols
    width = len(cells)
    sources, targets, weights, days = [], [], [], []
    total = 0.0
    for line, cells in rows:
        if len(cells) != width:
            raise ParseError(
                f"expected {width} columns ({','.join(columns)}), found {len(cells)}",
                path=where, line=line,
            )
        source = cells[src_col].strip()
        target = cells[dst_col].strip()
        if not source or not target:
            raise ParseError("empty node id", path=where, line=line)
        weight = 1.0
        if weight_col is not None:
            wcell = cells[weight_col].strip()
            if not wcell:
                raise ParseError("missing weight", path=where, line=line)
            weight = _parse_weight(wcell, where, line)
            # Every merged weight is at most the total, so a finite total
            # keeps each merged link weight and m finite.
            total += weight
            if not math.isfinite(total):
                raise ParseError("link weights sum past the float range", path=where, line=line)
        day = MISSING_DAY
        if date_col is not None and cells[date_col].strip():
            day = parse_date(cells[date_col], where, line).toordinal()
        sources.append(source)
        targets.append(target)
        weights.append(weight)
        days.append(day)
    return Layer.from_columns(name, sources, targets, weights, days, weighted=weight_col is not None)


def export_layer_csv(layer: Layer, path: str | Path) -> None:
    """Serialize a layer to its canonical CSV form (round-trips via ingest)."""
    header = ["source", "target"]
    if layer.weighted:
        header.append("weight")
    if layer.has_timestamps:
        header.append("date")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for link in layer.links():
            row = [link.source, link.target]
            if layer.weighted:
                row.append(repr(link.weight))
            if layer.has_timestamps:
                row.append(link.timestamp.isoformat() if link.timestamp else "")
            writer.writerow(row)


# -- node tables and party merge -------------------------------------------


def read_node_table(path: str | Path) -> dict[str, str]:
    """Read node_id,affiliation rows into an ordered mapping."""
    table: dict[str, str] = {}
    for line, (node, affiliation) in read_table(path, ("node_id", "affiliation")):
        node = node.strip()
        if not node:
            raise ParseError("empty node id", path=str(path), line=line)
        if node in table:
            raise ParseError(f"duplicate node id {node!r}", path=str(path), line=line)
        table[node] = affiliation.strip()
    return table


@dataclass(frozen=True)
class PartyMergeConfig:
    """Raw affiliation string -> canonical party label, plus the unaligned label."""

    mapping: Mapping[str, str]
    unaligned_label: str = "unaligned"

    @classmethod
    def identity(cls, raw_values: Iterable[str], unaligned_label: str = "unaligned") -> "PartyMergeConfig":
        """Pass-through config: every distinct non-empty raw value maps to itself."""
        mapping = {raw: raw for raw in sorted(set(raw_values)) if raw}
        return cls(mapping, unaligned_label)


def read_merge_config(path: str | Path) -> PartyMergeConfig:
    """Parse key=value lines; the key '*' names the unaligned label."""
    path = Path(path)
    mapping: dict[str, str] = {}
    for lineno, raw_line in enumerate(read_text(path).split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected key=value", path=str(path), line=lineno)
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError("empty key or value", path=str(path), line=lineno)
        if key in mapping:
            raise ParseError(f"duplicate key {key!r}", path=str(path), line=lineno)
        mapping[key] = value
    unaligned = mapping.pop("*", "unaligned")
    return PartyMergeConfig(mapping, unaligned)


@dataclass(frozen=True)
class Partition:
    """Total assignment of node ids to group labels."""

    assignment: Mapping[str, str]
    labels: tuple[str, ...]

    @classmethod
    def from_assignment(
        cls, assignment: Mapping[str, str], labels: Sequence[str] | None = None
    ) -> "Partition":
        if not assignment:
            raise ValidationError("partition needs at least one node")
        if labels is None:
            seen: dict[str, None] = {}
            for label in assignment.values():
                seen.setdefault(label, None)
            labels = tuple(seen)
        else:
            labels = tuple(labels)
            if len(set(labels)) != len(labels):
                raise ValidationError("partition labels must be distinct")
            missing = set(assignment.values()) - set(labels)
            if missing:
                raise ValidationError(f"labels {sorted(missing)!r} assigned but not declared")
        return cls(dict(assignment), labels)

    def label_of(self, node: str) -> str:
        try:
            return self.assignment[node]
        except KeyError:
            raise ValidationError(f"node {node!r} missing from partition") from None

    def codes(self, node_ids: Sequence[str]) -> np.ndarray:
        """Group code per node, indexing ``labels``.

        Raises ValidationError for a node missing from the partition or a
        label that ``labels`` does not declare.
        """
        label_code = {label: i for i, label in enumerate(self.labels)}
        try:
            return np.array(
                [label_code[self.label_of(node)] for node in node_ids], dtype=np.int64
            )
        except KeyError as exc:
            raise ValidationError(f"label {exc.args[0]!r} not in partition labels") from None


def apply_party_merge(raw_affiliations: Mapping[str, str], config: PartyMergeConfig) -> Partition:
    """Label every node with its canonical party; unmapped raws go unaligned."""
    assignment: dict[str, str] = {}
    used: dict[str, None] = {}
    for node, raw in raw_affiliations.items():
        label = config.mapping.get(raw.strip(), config.unaligned_label)
        assignment[node] = label
        used.setdefault(label, None)
    # Canonical ordering: config value order first, unaligned last.
    order: dict[str, None] = {}
    for value in config.mapping.values():
        if value in used:
            order.setdefault(value, None)
    for label in used:
        if label != config.unaligned_label:
            order.setdefault(label, None)
    if config.unaligned_label in used:
        order[config.unaligned_label] = None
    return Partition.from_assignment(assignment, tuple(order))


# -- the multiplex network -------------------------------------------------


class MultiplexNetwork:
    """Shared node registry plus named directed layers.

    ``inactive`` marks nodes removed by leave-one-out resampling without
    renumbering the registry, so index-aligned caches stay valid across
    jackknife replicates.  Treat instances as immutable.
    """

    def __init__(
        self,
        node_ids: tuple[str, ...],
        layers: Mapping[str, Layer],
        inactive: frozenset[int] = frozenset(),
    ):
        self.node_ids = node_ids
        self.index = {node: i for i, node in enumerate(node_ids)}
        self.layers = dict(layers)
        self.inactive = inactive

    @classmethod
    def assemble(
        cls,
        layers: Sequence[Layer],
        node_table: Mapping[str, str] | None = None,
    ) -> "MultiplexNetwork":
        """Unify layer registries into one network.

        The node universe is the union of node-table ids and every id seen in
        any layer, in first-seen order (table first, then layers in the order
        given).
        """
        index: dict[str, int] = {}
        for node in (node_table or {}):
            index.setdefault(node, len(index))
        for layer in layers:
            for node in layer.node_ids:
                index.setdefault(node, len(index))
        registry = tuple(index)
        remapped: dict[str, Layer] = {}
        for layer in layers:
            if layer.name in remapped:
                raise ValidationError(f"duplicate layer name {layer.name!r}")
            lut = np.array([index[node] for node in layer.node_ids], dtype=np.int64)
            remapped[layer.name] = layer.remapped(registry, lut)
        return cls(registry, remapped)

    @property
    def n(self) -> int:
        """Active node count."""
        return len(self.node_ids) - len(self.inactive)

    def active_indices(self) -> list[int]:
        if not self.inactive:
            return list(range(len(self.node_ids)))
        return [i for i in range(len(self.node_ids)) if i not in self.inactive]

    def layer(self, name: str) -> Layer:
        try:
            return self.layers[name]
        except KeyError:
            raise ValidationError(f"no layer named {name!r}") from None

    def drop_node(self, node: int | str) -> "MultiplexNetwork":
        """Leave-one-out copy: the node and its incident links are removed.

        Indices are not renumbered; the node is marked inactive and filtered
        from layer arrays.
        """
        v = self.index[node] if isinstance(node, str) else int(node)
        if v in self.inactive:
            raise ValidationError(f"node index {v} already removed")
        # Instances are immutable, so the replica shares the registry index.
        replica = copy.copy(self)
        replica.layers = {name: layer.without_node(v) for name, layer in self.layers.items()}
        replica.inactive = self.inactive | {v}
        return replica

    def induced(self, keep_ids: Iterable[str]) -> "MultiplexNetwork":
        """Rebuild the network on a node subset, renumbering the registry."""
        keep = set(keep_ids)
        registry = tuple(node for node in self.node_ids if node in keep)
        lut = np.full(len(self.node_ids), -1, dtype=np.int64)
        for i, node in enumerate(registry):
            lut[self.index[node]] = i
        new_layers = {}
        for name, layer in self.layers.items():
            mask = (lut[layer.src] >= 0) & (lut[layer.dst] >= 0)
            new_layers[name] = layer._masked(mask, node_count=len(registry)).remapped(registry, lut)
        return MultiplexNetwork(registry, new_layers)



def filter_partition(
    network: MultiplexNetwork, partition: Partition, drop_label: str
) -> tuple[MultiplexNetwork, Partition]:
    """Remove every node carrying drop_label, with all incident links."""
    keep_ids = []
    dropped = False
    for node in network.node_ids:
        if network.index[node] in network.inactive:
            continue
        if partition.label_of(node) == drop_label:
            dropped = True
        else:
            keep_ids.append(node)
    if not dropped and drop_label not in partition.labels:
        return network, partition
    if not keep_ids:
        raise ValidationError(f"dropping {drop_label!r} removes every node")
    new_assignment = {
        node: label for node, label in partition.assignment.items() if label != drop_label
    }
    new_labels = tuple(label for label in partition.labels if label != drop_label)
    return network.induced(keep_ids), Partition.from_assignment(new_assignment, new_labels)


# -- synthetic graphs ------------------------------------------------------


def generate_planted_partition(
    groups: int,
    size: int,
    p_in: float,
    p_out: float,
    seed: int,
    layer_name: str = "links",
) -> tuple[MultiplexNetwork, Partition]:
    """Directed planted-partition graph with known group labels.

    Every ordered intra-group pair links with probability p_in, every
    inter-group pair with p_out; no self-links.  Same seed, same graph.
    """
    if groups < 1 or size < 1:
        raise ValidationError("groups and size must be positive")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValidationError("need 0 <= p_out < p_in <= 1")
    n = groups * size
    labels = np.repeat(np.arange(groups), size)
    rng = np.random.default_rng(seed)
    draw = rng.random((n, n))
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    adjacency = draw < prob
    np.fill_diagonal(adjacency, False)
    src, dst = np.nonzero(adjacency)  # row-major: sorted by (src, dst)
    node_ids = tuple(f"n{i}" for i in range(n))
    layer = Layer(
        layer_name,
        node_ids,
        src.astype(np.int64),
        dst.astype(np.int64),
        np.ones(len(src), dtype=np.float64),
        None,
        False,
    )
    assignment = {node_ids[i]: f"g{labels[i]}" for i in range(n)}
    partition = Partition.from_assignment(assignment, tuple(f"g{k}" for k in range(groups)))
    network = MultiplexNetwork.assemble([layer], node_table=None)
    return network, partition


# -- graph export ----------------------------------------------------------


def export_graphml(
    network: MultiplexNetwork,
    path: str | Path,
    partition: Partition | None = None,
) -> None:
    """Write a GraphML-style XML file for external renderers.

    All layers land in one directed graph; edges carry layer, weight and date
    attributes, nodes carry the partition label when one is given.
    """
    root = ElementTree.Element("graphml")
    def key(kid: str, target: str, name: str, kind: str) -> None:
        ElementTree.SubElement(
            root, "key", id=kid, **{"for": target, "attr.name": name, "attr.type": kind}
        )
    if partition is not None:
        key("d0", "node", "group", "string")
    key("d1", "edge", "layer", "string")
    key("d2", "edge", "weight", "double")
    key("d3", "edge", "date", "string")
    graph = ElementTree.SubElement(root, "graph", id="network", edgedefault="directed")
    for i in network.active_indices():
        node = network.node_ids[i]
        el = ElementTree.SubElement(graph, "node", id=node)
        if partition is not None:
            data = ElementTree.SubElement(el, "data", key="d0")
            data.text = partition.label_of(node)
    for name in network.layers:
        for link in network.layers[name].links():
            el = ElementTree.SubElement(graph, "edge", source=link.source, target=link.target)
            ElementTree.SubElement(el, "data", key="d1").text = name
            ElementTree.SubElement(el, "data", key="d2").text = repr(link.weight)
            if link.timestamp is not None:
                ElementTree.SubElement(el, "data", key="d3").text = link.timestamp.isoformat()
    tree = ElementTree.ElementTree(root)
    ElementTree.indent(tree)
    tree.write(path, encoding="utf-8", xml_declaration=True)
