"""Multiplex directed network model.

A network is a shared node registry plus named directed layers.  Layers are
read from CSV files into row columns, built by ``Layer.from_columns``, carry
optional per-link weights and calendar-day timestamps, and are stored as dense
index arrays so whole-layer metrics stay vectorized.  A partition holds one
int64 group code per node of a registry, indexing its labels; it is the
common currency between the party tables and the community detection output.
"""
from __future__ import annotations

import copy
import csv
import io
import itertools
import math
import re
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence
from xml.etree import ElementTree

import numpy as np

from .errors import ParseError, ValidationError

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

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
        ends = [None] * (2 * len(sources))
        ends[0::2] = sources
        ends[1::2] = targets
        registry = tuple(dict.fromkeys(ends) if node_ids is None else node_ids)
        index = {node: i for i, node in enumerate(registry)}
        codes = np.fromiter(map(index.get, ends, itertools.repeat(-1)), np.int64, len(ends))
        codes = codes.reshape(-1, 2)
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
    # Loaded on first call, so that starting the CLI loads no scipy submodule.
    from scipy.sparse import csr_matrix

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


def _not_utf8(path: str | Path, data: bytes | None = None) -> ParseError:
    """ParseError at the first line of ``path`` (or of ``data``, its bytes)
    that does not decode as UTF-8.

    A text stream decodes in chunks, so its UnicodeDecodeError cannot name
    the line; newline bytes never occur inside a UTF-8 sequence, so decoding
    line by line finds it.
    """
    with open(path, "rb") if data is None else io.BytesIO(data) as handle:
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


def csv_rows(path: str | Path, data: bytes | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, cells) for every non-blank row of a UTF-8 CSV file.

    ``data``, when given, is the file's bytes, already read, and ``path``
    only names it in errors; a pipe cannot be opened a second time.  A
    leading byte-order mark is dropped.  ``line`` is the physical line on
    which the row starts, so rows after a quoted multi-line cell are still
    named correctly in errors.
    """
    if data is None:
        handle = open(path, newline="", encoding="utf-8-sig")
    else:
        handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    with handle:
        reader = csv.reader(handle)
        line = 1
        try:
            for cells in reader:
                if len(cells) > 1 or (cells and cells[0].strip()):
                    yield line, cells
                line = reader.line_num + 1
        except UnicodeDecodeError:
            raise _not_utf8(path, data) from None


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


def _layer_cells(path: Path, data: bytes) -> tuple[np.ndarray, list[str], bool]:
    """The width of every non-blank row of a layer CSV, the cells of all rows
    in one list, in row order, and whether the first row starts on line 1.

    A table with no quote, NUL or lone carriage return and no blank line,
    whose rows are all of one width and whose cells fit the csv module's
    field size limit, is split on newlines and commas in C, into the cells
    ``csv.reader`` would cut, in about a third of its time.  Any other text
    goes through ``csv.reader``.  Lines are not counted: ``_row_at`` finds
    the line of a row to report it.
    """
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise _not_utf8(path, data) from None
    flat = text.replace("\r\n", "\n") if "\r" in text else text
    if '"' not in flat and "\r" not in flat and "\0" not in flat:
        # A table of one width w >= 2 with no blank line splits once, with a
        # "\n" cell after each row but the last, at every (w + 1)-th place.
        cells = flat.replace("\n", ",\n,").split(",")
        count = flat.count("\n") + 1
        if flat.endswith("\n"):
            del cells[-2:]  # the last "\n" and the empty line after it
            count -= 1
        width = (len(cells) + 1) // count - 1
        if (width >= 2 and (width + 1) * count == len(cells) + 1
                and cells[width::width + 1].count("\n") == count - 1
                and (len(flat) <= csv.field_size_limit()
                     or max(map(len, cells)) <= csv.field_size_limit())):
            del cells[width::width + 1]
            return np.full(count, width), cells, True
    rows = list(csv.reader(io.StringIO(text, newline="")))
    kept = [cells for cells in rows if len(cells) > 1 or (cells and cells[0].strip())]
    widths = np.fromiter(map(len, kept), np.int64, len(kept))
    return widths, list(itertools.chain.from_iterable(kept)), bool(kept) and kept[0] is rows[0]


def _row_at(path: Path, data: bytes, index: int) -> tuple[int, list[str]]:
    """The line and cells of the ``index``-th non-blank row of a layer CSV."""
    return next(itertools.islice(csv_rows(path, data), index, None))


def _weight_column(cells: list[str]) -> tuple[np.ndarray, np.ndarray, int]:
    """The weights in a column of weight cells, their running totals, and the
    index of the first cell that is not a positive finite weight or where
    the total leaves the float range (``len(cells)`` if there is none).

    ``np.cumsum`` adds in row order, so each total equals a Python running
    sum bit for bit; the totals are exact up to that first bad cell.
    """
    weights: list[float] = []
    try:
        weights.extend(map(float, map(str.strip, cells)))
    except ValueError:
        pass  # the list stops before the first cell float() cannot read
    w = np.array(weights, dtype=np.float64)
    good = (w > 0) & (w < np.inf)
    stop = len(w) if good.all() else int(np.argmin(good))
    with np.errstate(over="ignore"):
        totals = np.cumsum(w[:stop])
    finite = np.isfinite(totals)
    return w, totals, stop if finite.all() else int(np.argmin(finite))


def _day_column(cells: list[str]) -> tuple[np.ndarray, int]:
    """Day ordinals of a column of date cells, ``MISSING_DAY`` where a cell is
    blank, and the index of the first cell that is not a real YYYY-MM-DD date
    (``len(cells)`` if there is none).

    The form is checked on each cell's characters: ten of them, ASCII digits
    with dashes at 4 and 7.  So year 0000, a time, another ISO 8601 form,
    a day past its month's end and non-ASCII digits fail, as in ``parse_date``.
    """
    cells = list(map(str.strip, cells))
    n = len(cells)
    lengths = np.fromiter(map(len, cells), np.int64, n)
    # A U10 array cuts longer cells short; their lengths reject them.
    chars = np.array(cells, dtype="U10").view(np.uint32).reshape(n, 10)
    digits = chars[:, [0, 1, 2, 3, 5, 6, 8, 9]].astype(np.int32) - ord("0")
    form = ((lengths == 10) & (chars[:, 4] == ord("-")) & (chars[:, 7] == ord("-"))
            & ((digits >= 0) & (digits <= 9)).all(axis=1))
    digits[~form] = 0
    year = digits[:, :4] @ np.array([1000, 100, 10, 1], dtype=np.int32)
    month = digits[:, 4] * 10 + digits[:, 5]
    day = digits[:, 6] * 10 + digits[:, 7]
    first = ((year - 1970).astype("datetime64[Y]").astype("datetime64[M]") + (month - 1))
    start = first.astype("datetime64[D]")
    month_days = ((first + 1).astype("datetime64[D]") - start).astype(np.int64)
    real = form & (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    # date(1970, 1, 1).toordinal() is 719163
    days = np.where(lengths > 0, start.astype(np.int64) + day - 1 + 719163, MISSING_DAY)
    bad = (lengths > 0) & ~real
    return days, int(np.argmax(bad)) if bad.any() else n


def _check_row(cells: list[str], line: int, where: str, cols: tuple[int | None, ...],
               columns: Sequence[str], total: float) -> None:
    """Raise the ParseError of one layer row, checking in the order of a row
    loop: width, empty id, weight, weight total, date.  ``total`` is the
    running weight total of the rows before it."""
    src_col, dst_col, weight_col, date_col = cols
    if len(cells) != len(columns):
        raise ParseError(
            f"expected {len(columns)} columns ({','.join(columns)}), found {len(cells)}",
            path=where, line=line,
        )
    if not cells[src_col].strip() or not cells[dst_col].strip():
        raise ParseError("empty node id", path=where, line=line)
    if weight_col is not None:
        wcell = cells[weight_col].strip()
        if not wcell:
            raise ParseError("missing weight", path=where, line=line)
        # Every merged weight is at most the total, so a finite total
        # keeps each merged link weight and m finite.
        if not math.isfinite(total + _parse_weight(wcell, where, line)):
            raise ParseError("link weights sum past the float range", path=where, line=line)
    if date_col is not None and cells[date_col].strip():
        parse_date(cells[date_col], where, line)


def ingest_layer(path: str | Path, schema: LayerSchema | None = None, *,
                 data: bytes | None = None) -> Layer:
    """Read a layer CSV with columns source,target[,weight][,date].

    A header on line 1 whose first two cells are source,target maps every
    column by name, and an unknown or repeated name is an error; otherwise
    rows are read positionally (2 columns unweighted, 3 with weight, 4 with
    weight and date).  The layer is weighted exactly when a weight column is
    present.  ``data``, when given, is the file's bytes, already read, and
    ``path`` then only names the layer and its errors.

    Each column is checked whole.  A ParseError names the first bad row, as
    a row-by-row reader would: ``_check_row`` finds its message.
    """
    path = Path(path)
    where = str(path)
    name = (schema.name if schema else None) or path.stem
    if data is None:
        data = path.read_bytes()
    widths, cells, at_line_1 = _layer_cells(path, data)
    if not len(widths):
        return Layer.from_columns(name, [], [], [], [], weighted=False)
    head = cells[: widths[0]]
    header = [cell.strip().casefold() for cell in head]
    if at_line_1 and header[:2] == ["source", "target"]:
        for i, column in enumerate(header):
            if column not in LAYER_COLUMNS:
                raise ParseError(
                    f"unknown column {head[i].strip()!r} (expected {','.join(LAYER_COLUMNS)})",
                    path=where, line=1,
                )
            if column in header[:i]:
                raise ParseError(f"column {head[i].strip()!r} given twice", path=where, line=1)
        positions = {column: i for i, column in enumerate(header)}
        cols = tuple(positions.get(column) for column in LAYER_COLUMNS)
        columns = [cell.strip() for cell in head]
        skip = 1
    else:
        if not 2 <= len(head) <= 4:
            raise ParseError(
                f"expected 2 to 4 columns ({','.join(LAYER_COLUMNS)}), found {len(head)}",
                path=where, line=_row_at(path, data, 0)[0],
            )
        cols = tuple(i if i < len(head) else None for i in range(4))
        columns = LAYER_COLUMNS[: len(head)]
        skip = 0
    src_col, dst_col, weight_col, date_col = cols
    width = len(head)
    n = len(widths) - skip
    # Rows before the first of another width form a table, cut into columns.
    wrong = widths[skip:] != width
    rows = int(np.argmax(wrong)) if wrong.any() else n
    start = skip * width
    raw = [cells[start + j: start + rows * width: width] for j in range(width)]
    del cells
    sources = list(map(str.strip, raw[src_col]))
    targets = list(map(str.strip, raw[dst_col]))
    bad = [rows]
    bad += [ids.index("") for ids in (sources, targets) if "" in ids]
    weights, totals = np.ones(rows), np.zeros(0)
    if weight_col is not None:
        weights, totals, first = _weight_column(raw[weight_col])
        raw[weight_col] = None
        bad.append(first)
    days = np.full(rows, MISSING_DAY)
    if date_col is not None:
        days, first = _day_column(raw[date_col])
        raw[date_col] = None
        bad.append(first)
    first = min(bad)
    if first < n:
        line, row = _row_at(path, data, skip + first)
        total = float(totals[first - 1]) if first and len(totals) else 0.0
        _check_row(row, line, where, cols, columns, total)
        raise AssertionError(f"{where}:{line}: the column checks reject a row "
                             "that the row check accepts")
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


@dataclass(frozen=True, eq=False)
class Partition:
    """A group label for every node of one registry, held as group codes.

    ``codes[i]`` is the group of ``node_ids[i]`` and indexes ``labels``, which
    are distinct.  ``from_assignment`` builds one from a node -> label dict.
    Equal partitions have equal registries, labels and codes.
    """

    node_ids: tuple[str, ...]
    codes: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        if not len(self.node_ids):
            raise ValidationError("partition needs at least one node")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("partition labels must be distinct")
        if (codes.shape != (len(self.node_ids),) or codes.dtype.kind not in "iu"
                or codes.min() < 0 or codes.max() >= len(self.labels)):
            raise ValidationError(f"partition needs one integer code in [0, {len(self.labels)}) per node")
        # An owned read-only copy, since codes_on hands out the array itself.
        object.__setattr__(self, "codes", codes.astype(np.int64))
        self.codes.flags.writeable = False

    @classmethod
    def from_assignment(
        cls, assignment: Mapping[str, str], labels: Sequence[str] | None = None
    ) -> "Partition":
        """The partition of ``assignment``'s nodes, in its order; ``labels``
        (default: first-seen order) must declare every label assigned."""
        labels = tuple(dict.fromkeys(assignment.values()) if labels is None else labels)
        missing = set(assignment.values()) - set(labels)
        if missing:
            raise ValidationError(f"labels {sorted(missing)!r} assigned but not declared")
        code = {label: i for i, label in enumerate(labels)}
        codes = np.array([code[label] for label in assignment.values()], dtype=np.int64)
        return cls(tuple(assignment), codes, labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return (self.node_ids == other.node_ids and self.labels == other.labels
                and np.array_equal(self.codes, other.codes))

    @cached_property
    def index(self) -> dict[str, int]:
        """Registry position of each node id."""
        return {node: i for i, node in enumerate(self.node_ids)}

    @property
    def assignment(self) -> dict[str, str]:
        """A new node -> label dict, in registry order."""
        return dict(zip(self.node_ids, map(self.labels.__getitem__, self.codes.tolist())))

    def label_of(self, node: str) -> str:
        return self.labels[self.codes_on((node,))[0]]

    def codes_on(self, node_ids: Sequence[str]) -> np.ndarray:
        """The group code of each of ``node_ids``: ``codes`` itself when they
        are this partition's registry, else gathered through ``index``.

        Raises ValidationError for a node missing from the partition.
        """
        if node_ids is self.node_ids or (node_ids := tuple(node_ids)) == self.node_ids:
            return self.codes
        try:
            return self.codes[[self.index[node] for node in node_ids]]
        except KeyError as exc:
            raise ValidationError(f"node {exc.args[0]!r} missing from partition") from None


def apply_party_merge(raw_affiliations: Mapping[str, str], config: PartyMergeConfig) -> Partition:
    """Label every node with its canonical party; unmapped raws go unaligned.
    Labels follow the config's value order, then the unaligned label."""
    names = [config.mapping.get(raw.strip(), config.unaligned_label)
             for raw in raw_affiliations.values()]
    used = set(names)
    order = dict.fromkeys([*config.mapping.values(), config.unaligned_label])
    labels = tuple(label for label in order if label in used)
    code = {label: i for i, label in enumerate(labels)}
    codes = np.array([code[name] for name in names], dtype=np.int64)
    return Partition(tuple(raw_affiliations), codes, labels)


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
        lut[[self.index[node] for node in registry]] = np.arange(len(registry))
        new_layers = {}
        for name, layer in self.layers.items():
            src, dst = lut[layer.src], lut[layer.dst]
            keep = (src >= 0) & (dst >= 0)
            # lut increases over the kept nodes and the mask keeps row order, so
            # the rows stay in the (source, target, day) order assemble gave them.
            days = None if layer.days is None else layer.days[keep]
            new_layers[name] = Layer(
                name, registry, src[keep], dst[keep], layer.weight[keep], days, layer.weighted
            )
        return MultiplexNetwork(registry, new_layers)



def filter_partition(
    network: MultiplexNetwork, partition: Partition, drop_label: str
) -> tuple[MultiplexNetwork, Partition]:
    """Remove every node carrying drop_label, with all incident links; the
    partition labels the network's whole registry, and so does the result."""
    codes = partition.codes_on(network.node_ids)
    if drop_label not in partition.labels:
        return network, partition
    drop = partition.labels.index(drop_label)
    keep = codes != drop
    keep[list(network.inactive)] = False
    if not keep.any():
        raise ValidationError(f"dropping {drop_label!r} removes every node")
    filtered = network.induced(itertools.compress(network.node_ids, keep))
    labels = partition.labels[:drop] + partition.labels[drop + 1:]
    return filtered, Partition(filtered.node_ids, (codes - (codes > drop))[keep], labels)


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
    codes = np.repeat(np.arange(groups, dtype=np.int64), size)
    rng = np.random.default_rng(seed)
    draw = rng.random((n, n))
    prob = np.where(codes[:, None] == codes[None, :], p_in, p_out)
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
    network = MultiplexNetwork.assemble([layer], node_table=None)
    return network, Partition(network.node_ids, codes, tuple(f"g{k}" for k in range(groups)))


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
    codes = None if partition is None else partition.codes_on(network.node_ids)
    for i in network.active_indices():
        el = ElementTree.SubElement(graph, "node", id=network.node_ids[i])
        if codes is not None:
            ElementTree.SubElement(el, "data", key="d0").text = partition.labels[codes[i]]
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
