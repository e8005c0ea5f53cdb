"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way -- pure-Python double loops
over explicit link lists -- and deliberately shares no code with the package.
Where both routes encode a documented convention (for instance that the
modularity null model sums over every ordered node pair including i = j),
the convention is restated in the oracle's docstring.  The ``*_reference``
functions and ``eo_bisect_oracle`` are the exception: they keep a replaced
path verbatim, so a test can demand bit-identical results from its
successor, and so do ``DictPartition``, ``apply_party_merge_oracle`` and
``filter_partition_oracle``, the node -> label dict form of a partition.
``decomposition_residual`` also runs the package's own sums, to check that
the demodularity rows and Q add up to one total.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

Link = tuple[int, int, float]


def degree_sums(n: int, links: Iterable[Link]) -> tuple[list[float], list[float], float]:
    """Out-strength, in-strength and total weight with self-links dropped."""
    k_out = [0.0] * n
    k_in = [0.0] * n
    m = 0.0
    for s, t, w in links:
        if s == t:
            continue
        k_out[s] += w
        k_in[t] += w
        m += w
    return k_out, k_in, m


def q_modularity_oracle(n: int, links: Sequence[Link], codes: Sequence[int]) -> float:
    """Directed Q by definition: (1/m) sum_ij [A_ij - k_out_i k_in_j / m] delta.

    Self-links are excluded from A and from the degree sums; the null-model
    double sum runs over every ordered pair including i = j (the convention
    that makes a one-group partition score exactly zero).
    """
    k_out, k_in, m = degree_sums(n, links)
    if m <= 0:
        raise ZeroDivisionError("no non-self links")
    a_in = 0.0
    for s, t, w in links:
        if s != t and codes[s] == codes[t]:
            a_in += w
    null = 0.0
    for i in range(n):
        for j in range(n):
            if codes[i] == codes[j]:
                null += k_out[i] * k_in[j] / m
    return (a_in - null) / m


def demodularity_oracle(
    n: int,
    links: Sequence[Link],
    codes: Sequence[int],
    from_group: int,
    to_group: int,
    normalization: str = "out_weight",
) -> float:
    """Demodularity by definition: (1/m_f) sum over F x T pairs of A - null."""
    if from_group == to_group:
        raise ValueError("demodularity needs two distinct groups")
    k_out, k_in, m = degree_sums(n, links)
    if m <= 0:
        raise ZeroDivisionError("no non-self links")
    total = 0.0
    for i in range(n):
        if codes[i] != from_group:
            continue
        for j in range(n):
            if codes[j] != to_group:
                continue
            a_ij = 0.0
            for s, t, w in links:
                if s == i and t == j and s != t:
                    a_ij += w
            total += a_ij - k_out[i] * k_in[j] / m
    if normalization == "out_weight":
        m_f = sum(k_out[i] for i in range(n) if codes[i] == from_group)
    elif normalization == "link_count":
        m_f = float(
            sum(1 for s, t, _ in links if s != t and codes[s] == from_group)
        )
    elif normalization == "total_m":
        m_f = m
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    if m_f <= 0:
        raise ZeroDivisionError("empty from-group normalizer")
    return total / m_f


def best_partition_oracle(n: int, links: Sequence[Link]) -> tuple[float, tuple[int, ...]]:
    """Exhaustive maximum-Q partition via restricted-growth-string search.

    Enumerates every set partition of the n nodes, carrying group strength
    sums and the internal-weight total incrementally so each leaf costs only
    the final null-model sum.  Feasible to about n = 10 (Bell numbers).
    """
    k_out, k_in, m = degree_sums(n, links)
    if m <= 0:
        raise ZeroDivisionError("no non-self links")
    # adjacency between earlier nodes and the node being placed
    back: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for s, t, w in links:
        if s == t:
            continue
        hi, lo = max(s, t), min(s, t)
        back[hi].append((lo, w))
    codes = [0] * n
    group_out = [0.0] * n
    group_in = [0.0] * n
    best_q = -math.inf
    best: tuple[int, ...] = ()

    def place(v: int, used: int, internal: float) -> None:
        nonlocal best_q, best
        if v == n:
            null = sum(group_out[g] * group_in[g] for g in range(used)) / m
            q = (internal - null) / m
            if q > best_q + 1e-15:
                best_q = q
                best = tuple(codes)
            return
        gain = [0.0] * (used + 1)
        for u, w in back[v]:
            gain[codes[u]] += w
        for g in range(used + 1):
            codes[v] = g
            group_out[g] += k_out[v]
            group_in[g] += k_in[v]
            place(v + 1, used + (1 if g == used else 0), internal + gain[g])
            group_out[g] -= k_out[v]
            group_in[g] -= k_in[v]
        codes[v] = 0

    place(0, 0, 0.0)
    return best_q, best


def entropy_oracle(counts: Sequence[float]) -> float:
    """Plain ML entropy in bits."""
    total = float(sum(counts))
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log2(p)
    return h


def mutual_information_oracle(table: Sequence[Sequence[float]]) -> float:
    """I = sum p log2 p/(px py) over the joint table (ML estimator)."""
    total = float(sum(sum(row) for row in table))
    rows = [sum(row) for row in table]
    cols = [sum(col) for col in zip(*table)]
    info = 0.0
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            if cell > 0:
                info += (cell / total) * math.log2(cell * total / (rows[i] * cols[j]))
    return info


def chi2_sf_oracle(x: float) -> float:
    """Survival function of chi-square with 1 dof: P(X > x) = erfc(sqrt(x/2))."""
    if x < 0:
        raise ValueError("statistic must be nonnegative")
    return math.erfc(math.sqrt(x / 2.0))


def g_statistic_oracle(a: float, b: float, c: float, d: float) -> float:
    """Likelihood-ratio statistic of a 2x2 table [[a, b], [c, d]]."""
    total = a + b + c + d
    rows = (a + b, c + d)
    cols = (a + c, b + d)
    g = 0.0
    for cell, r, co in ((a, 0, 0), (b, 0, 1), (c, 1, 0), (d, 1, 1)):
        if cell > 0:
            g += 2.0 * cell * math.log(cell * total / (rows[r] * cols[co]))
    return g


def pearson_oracle(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs)) * math.sqrt(
        sum((y - my) ** 2 for y in ys)
    )
    return num / den


def permutation_pvalue_oracle(
    xs: Sequence[float], ys: Sequence[float], *, seed: int = 0, samples: int = 100_000
) -> float:
    """Two-sided permutation p-value for the Pearson coefficient.

    Exact over all permutations up to n = 7; seeded Monte Carlo beyond.
    The observed arrangement is always included (so p is never zero).
    """
    import random

    observed = abs(pearson_oracle(xs, ys))
    n = len(xs)
    if n <= 7:
        hits = 0
        count = 0
        for perm in itertools.permutations(ys):
            count += 1
            if abs(pearson_oracle(xs, perm)) >= observed - 1e-12:
                hits += 1
        return hits / count
    rng = random.Random(seed)
    pool = list(ys)
    hits = 1
    for _ in range(samples):
        rng.shuffle(pool)
        if abs(pearson_oracle(xs, pool)) >= observed - 1e-12:
            hits += 1
    return hits / (samples + 1)


def shortest_paths_oracle(n: int, links: Iterable[tuple[int, int]]) -> list[list[float]]:
    """All-pairs directed distances by Floyd-Warshall."""
    dist = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for s, t in links:
        if s != t:
            dist[s][t] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == math.inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def apl_oracle(n: int, links: Iterable[tuple[int, int]]) -> float | None:
    """Average directed distance over reachable ordered pairs (i != j)."""
    dist = shortest_paths_oracle(n, links)
    total = 0.0
    count = 0
    for i in range(n):
        for j in range(n):
            if i != j and dist[i][j] < math.inf:
                total += dist[i][j]
                count += 1
    return total / count if count else None


def symmetric_adjacency_oracle(n: int, links: Iterable[Link]) -> list[dict[int, float]]:
    """Per-node dicts of w(i->j) + w(j->i), built one link at a time.

    Both entries of a pair receive the same additions in link order, so
    they are equal bit for bit.  Self-links must already be dropped.
    """
    combined: list[dict[int, float]] = [dict() for _ in range(n)]
    for s, t, w in links:
        combined[s][t] = combined[s].get(t, 0.0) + w
        combined[t][s] = combined[t].get(s, 0.0) + w
    return combined


def layer_merge_oracle(
    links: Sequence[tuple], weighted: bool | None, node_ids: Sequence[str] | None
) -> tuple[tuple[str, ...], list[int], list[int], list[float], list[int] | None]:
    """Merge (source, target, weight, date or None) records one at a time into a dict.

    Returns (registry, src, dst, weight, days or None), sorted by
    (src, dst, day), where an undated day is -2**63.  A registry not given
    lists the endpoints in first-seen order.  Weighted layers add each
    (source, target, day)'s weights in record order, starting from 0.0;
    unweighted layers keep one link per (source, target) with its earliest
    real day.  The first bad record raises ValueError with the message the
    library puts after the layer name: a weight that is not finite, or not
    positive, then an unknown source or target, then a weight other than 1
    on an unweighted layer.
    """
    missing = -(2**63)
    if weighted is None:
        weighted = any(w != 1.0 for _, _, w, _ in links)
    index: dict[str, int] = {}
    if node_ids is None:
        for s, t, _, _ in links:
            index.setdefault(s, len(index))
            index.setdefault(t, len(index))
    else:
        index = {node: i for i, node in enumerate(node_ids)}
    merged: dict[tuple, float | int] = {}
    for source, target, w, when in links:
        if not math.isfinite(w):
            raise ValueError(f"non-finite weight {w!r} on {source!r} -> {target!r}")
        if w <= 0:
            raise ValueError(f"non-positive weight {w!r} on {source!r} -> {target!r}")
        for node in (source, target):
            if node not in index:
                raise ValueError(f"unknown node {node!r}")
        s, t = index[source], index[target]
        day = missing if when is None else when.toordinal()
        if weighted:
            merged[(s, t, day)] = merged.get((s, t, day), 0.0) + w
            continue
        if w != 1.0:
            raise ValueError("unweighted layer requires unit weights")
        kept = merged.setdefault((s, t), missing)
        if day != missing and (kept == missing or day < kept):
            merged[(s, t)] = day
    if weighted:
        rows = sorted((*key, w) for key, w in merged.items())
    else:
        rows = sorted((s, t, day, 1.0) for (s, t), day in merged.items())
    days = [row[2] for row in rows]
    return (
        tuple(index),
        [row[0] for row in rows],
        [row[1] for row in rows],
        [row[3] for row in rows],
        days if any(day != missing for day in days) else None,
    )


def fast_greedy_oracle(n: int, links: Sequence[Link]) -> list[int]:
    """Clauset-Newman-Moore greedy agglomeration through one global lazy heap.

    Starting from singletons, pop the pair of largest gain
    w(a,b)/m - (k_out_a k_in_b + k_out_b k_in_a)/m^2, ties going to the
    smallest (a, b) with a < b, and merge b into a while the gain exceeds
    1e-12.  Every merge pushes the surviving community's pairs again; a
    popped entry whose gain no longer matches its pair is stale and
    skipped.  Returns codes relabeled 0..G-1 in order of first appearance.
    """
    kept = [(s, t, w) for s, t, w in links if s != t]
    k_out, k_in, m = degree_sums(n, kept)
    conn = symmetric_adjacency_oracle(n, kept)
    alive = [True] * n
    members = [[i] for i in range(n)]

    def gain(a: int, b: int) -> float:
        return conn[a][b] / m - (k_out[a] * k_in[b] + k_out[b] * k_in[a]) / (m * m)

    heap = [(-gain(a, b), a, b) for a in range(n) for b in conn[a] if a < b]
    heapq.heapify(heap)
    while heap:
        neg, a, b = heapq.heappop(heap)
        if not alive[a] or not alive[b] or b not in conn[a]:
            continue
        current = gain(a, b)
        if current != -neg:
            continue
        if current <= 1e-12:
            break
        alive[b] = False
        members[a].extend(members[b])
        members[b] = []
        k_out[a] += k_out[b]
        k_in[a] += k_in[b]
        del conn[a][b]
        for x, wx in conn[b].items():
            if x == a:
                continue
            conn[a][x] = conn[a].get(x, 0.0) + wx
            conn[x][a] = conn[a][x]
            del conn[x][b]
        conn[b] = {}
        for x in conn[a]:
            lo, hi = (a, x) if a < x else (x, a)
            heapq.heappush(heap, (-gain(lo, hi), lo, hi))
    rep = [0] * n
    for r in range(n):
        for node in members[r]:
            rep[node] = r
    relabel: dict[int, int] = {}
    return [relabel.setdefault(r, len(relabel)) for r in rep]


def kcore_oracle(
    n: int, links: Iterable[tuple[int, int]], *, convention: str = "undirected"
) -> list[int]:
    """Core numbers by definition: node v has core >= k iff v survives in the
    subgraph obtained by repeatedly deleting nodes of degree < k.

    Recomputed from scratch for every k (fixed-point pruning, not a peeling
    order), which is what makes this a genuinely independent check of the
    single-pass implementation.  Under ``total_degree`` a mutual pair
    contributes one to each direction's count.
    """
    neighbors: list[dict[int, int]] = [dict() for _ in range(n)]
    for s, t in set(links):
        if s != t:
            neighbors[s][t] = neighbors[s].get(t, 0) + 1
            neighbors[t][s] = neighbors[t].get(s, 0) + 1

    def degree(v: int, alive: list[bool]) -> int:
        if convention == "undirected":
            return sum(1 for u in neighbors[v] if alive[u])
        return sum(c for u, c in neighbors[v].items() if alive[u])

    core = [0] * n
    k = 1
    while True:
        alive = [True] * n
        changed = True
        while changed:
            changed = False
            for v in range(n):
                if alive[v] and degree(v, alive) < k:
                    alive[v] = False
                    changed = True
        if not any(alive):
            break
        for v in range(n):
            if alive[v]:
                core[v] = k
        k += 1
    return core


def window_filter_oracle(
    links: Sequence[tuple[int, int, float, int | None]],
    start_ordinal: int,
    width_days: int,
) -> list[tuple[int, int, float, int | None]]:
    """Half-open date filter [start, start + width) on (src, dst, w, day) rows."""
    kept = []
    for s, t, w, day in links:
        if day is not None and start_ordinal <= day < start_ordinal + width_days:
            kept.append((s, t, w, day))
    return kept


def link_overlap_oracle(
    n: int, x_links: frozenset, y_links: frozenset
) -> tuple[tuple[int, int, int, int], float | None, float | None]:
    """Pair-indicator counts, Jaccard and partial Jaccard of two link sets.

    ``x_links`` and ``y_links`` hold the distinct non-self (source, target)
    pairs of layers X and Y; the universe is the n(n - 1) ordered non-self
    pairs of the n active nodes.  Returns ((n11, n10, n01, n00),
    |X ∩ Y| / |X ∪ Y|, |X ∩ Y| / |Y|), with None for a ratio whose
    denominator is 0.
    """
    both = x_links & y_links
    union = x_links | y_links
    counts = (len(both), len(x_links - y_links), len(y_links - x_links), n * (n - 1) - len(union))
    jaccard = len(both) / len(union) if union else None
    partial = len(both) / len(y_links) if y_links else None
    return counts, jaccard, partial


def entropy_reference(counts, estimator: str) -> float:
    """ML entropy in bits, plus (observed - 1) / (2n) for "mm", which needs n >= 1."""
    if estimator not in ("mm", "ml"):
        raise ValueError(f"unknown estimator {estimator!r}")
    counts = np.asarray(counts, dtype=np.float64).ravel()
    n = counts.sum()
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    if n <= 0:
        raise ZeroDivisionError("all counts are zero")
    if estimator == "mm" and n < 1:
        raise ValueError("the Miller-Madow estimator needs a total count of at least 1")
    p = (counts / n)[counts / n > 0]
    base = float(-(p * np.log2(p)).sum())
    if estimator == "ml":
        return base
    observed = int((counts > 0).sum())
    return base + (observed - 1) / (2.0 * n)


def mutual_information_reference(table, estimator: str) -> tuple[float, float, bool]:
    """(clamped I, raw I, degenerate) of a joint count table, in bits.

    raw = (H(rows) + H(cols)) - H(table), evaluated in that order, and 0.0
    when at most one cell is non-zero.  Invalid input raises ValueError and
    an all-zero table ZeroDivisionError, with the package's messages.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError("joint table must be 2-D")
    if (table < 0).any():
        raise ValueError("counts must be non-negative")
    if table.sum() <= 0:
        raise ZeroDivisionError("all counts are zero")
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    degenerate = int((table > 0).sum()) <= 1
    raw = (
        entropy_reference(rows, estimator)
        + entropy_reference(cols, estimator)
        - entropy_reference(table, estimator)
    )
    if degenerate:
        raw = 0.0
    return max(raw, 0.0), raw, degenerate


def nmi_reference(table, respect_to: str, estimator: str) -> float:
    """NMI normalized by the row ("x") or column ("y") margin's entropy.

    Each call recomputes the normalizing margin's entropy and then the whole
    mutual information.  A zero-entropy margin raises ZeroDivisionError
    "normalizing margin has zero entropy".
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError("joint table must be 2-D")
    if respect_to not in ("x", "y"):
        raise ValueError(f"respect_to must be 'x' or 'y', got {respect_to!r}")
    margin = table.sum(axis=1) if respect_to == "x" else table.sum(axis=0)
    h = entropy_reference(margin, estimator)
    if h <= 0.0:
        raise ZeroDivisionError("normalizing margin has zero entropy")
    return mutual_information_reference(table, estimator)[1] / h


def similarity_replicates_reference(counts, estimator: str):
    """The per-replicate loop that scored the layer-similarity jackknife.

    ``counts`` holds each replicate's (n11, n10, n01, n00) as four sequences.
    Each replicate's (x, y) table [[n11, n10], [n01, n00]] and (y, x) table
    [[n11, n01], [n10, n00]] are scored one at a time: partial Jaccard
    n11 / (n11 + column-0 total), and NMI normalized by the rows from
    ``nmi_reference``, which is undefined where the table is empty or where
    either margin has zero entropy.  Returns ((overlap, nmi) of (x, y),
    (overlap, nmi) of (y, x)) as lists with None where undefined.
    """
    scores = ([], [], [], [])
    for n11, n10, n01, n00 in zip(*(np.asarray(count).tolist() for count in counts)):
        for direction, table in enumerate(([[n11, n10], [n01, n00]], [[n11, n01], [n10, n00]])):
            y_links = table[0][0] + table[1][0]
            scores[2 * direction].append(table[0][0] / y_links if y_links else None)
            try:
                both = [nmi_reference(table, respect_to, estimator) for respect_to in ("x", "y")]
            except ZeroDivisionError:
                both = [None]
            scores[2 * direction + 1].append(both[0])
    return (scores[0], scores[1]), (scores[2], scores[3])


def induced_reference(network, keep_ids) -> dict:
    """{layer name: (src, dst, weight, days)} of ``MultiplexNetwork.induced``'s
    form that masks each layer, maps its rows and lexsorts them by (source,
    target, day) again."""
    keep = set(keep_ids)
    registry = [node for node in network.node_ids if node in keep]
    lut = np.full(len(network.node_ids), -1, dtype=np.int64)
    lut[[network.index[node] for node in registry]] = np.arange(len(registry))
    layers = {}
    for name, layer in network.layers.items():
        mask = (lut[layer.src] >= 0) & (lut[layer.dst] >= 0)
        src, dst, weight = lut[layer.src[mask]], lut[layer.dst[mask]], layer.weight[mask]
        days = None if layer.days is None else layer.days[mask]
        order_day = np.zeros(len(src), dtype=np.int64) if days is None else days
        order = np.lexsort((order_day, dst, src))
        layers[name] = (src[order], dst[order], weight[order], None if days is None else days[order])
    return layers


def ingest_layer_reference(path, schema=None, *, data: bytes | None = None):
    """``network.ingest_layer``'s replaced form, which checks and appends one
    row at a time and raises at the first bad row."""
    from pathlib import Path

    from polarnet.errors import ParseError
    from polarnet.network import (
        LAYER_COLUMNS,
        MISSING_DAY,
        Layer,
        _parse_weight,
        csv_rows,
        parse_date,
    )

    path = Path(path)
    where = str(path)
    name = (schema.name if schema else None) or path.stem
    rows = csv_rows(path, data)
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


def in_degree_centralization_reference(sub) -> float:
    """``structure.in_degree_centralization``'s replaced form."""
    from polarnet.errors import UndefinedMetricError

    if sub.n < 2:
        raise UndefinedMetricError("centralization needs at least 2 nodes")
    k_in = np.bincount(sub.dst, minlength=sub.n)
    return float((k_in.max() - k_in).sum() / (sub.n - 1) ** 2)


def average_path_length_reference(sub, *, symmetrize: bool = False) -> float | None:
    """``structure.average_path_length``'s replaced form: one dense distance
    matrix from ``scipy.sparse.csgraph.shortest_path``."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    from polarnet.errors import UndefinedMetricError

    if sub.n < 2:
        raise UndefinedMetricError("path length needs at least 2 nodes")
    graph = csr_matrix((np.ones(sub.n_links), (sub.src, sub.dst)), shape=(sub.n, sub.n))
    dist = shortest_path(graph, directed=not symmetrize, unweighted=True)
    reached = np.isfinite(dist) & (dist > 0)
    pairs = int(reached.sum())
    if pairs == 0:
        return None
    return int(dist[reached].sum()) / pairs


def kcore_decomposition_reference(sub, *, convention: str = "undirected") -> tuple[dict, int]:
    """(core numbers, max core) by ``structure.kcore_decomposition``'s replaced
    form, a heap peel of the lowest-degree node."""
    from polarnet.errors import ValidationError
    from polarnet.network import symmetric_adjacency

    if convention not in ("undirected", "total_degree"):
        raise ValidationError(f"unknown k-core convention {convention!r}")
    n = sub.n
    # Each neighbour pair holds its directed links (1 or 2); the undirected
    # collapse counts a mutual pair as one edge.
    adj = symmetric_adjacency(n, sub.src, sub.dst, np.ones(sub.n_links))
    if convention == "undirected":
        adj.data[:] = 1.0
    bounds = adj.indptr.tolist()
    nbr, links = adj.indices.tolist(), adj.data.astype(np.int64).tolist()
    current = np.asarray(adj.sum(axis=1), dtype=np.int64).ravel()
    # Peel the lowest-degree node repeatedly; the running maximum of the
    # degree seen at removal time is each node's core number.
    core = np.zeros(n, dtype=np.int64)
    removed = np.zeros(n, dtype=bool)
    heap = [(int(current[i]), i) for i in range(n)]
    heapq.heapify(heap)
    level = 0
    while heap:
        deg, pick = heapq.heappop(heap)
        if removed[pick] or deg != current[pick]:
            continue
        removed[pick] = True
        level = max(level, deg)
        core[pick] = level
        lo, hi = bounds[pick], bounds[pick + 1]
        for j, step in zip(nbr[lo:hi], links[lo:hi]):
            if not removed[j]:
                current[j] -= step
                heapq.heappush(heap, (int(current[j]), j))
    return {sub.node_ids[i]: int(core[i]) for i in range(n)}, int(core.max()) if n else 0


def structure_report_reference(layer, partition, *, min_group_size: int = 200,
                               core_convention: str = "undirected"):
    """``structure.structure_report``'s replaced form: one induced subnetwork
    and one call of each metric per kept group."""
    from polarnet.errors import ValidationError
    from polarnet.structure import StructureRow, group_subnetwork

    if min_group_size < 2:
        raise ValidationError("min_group_size must be at least 2")
    counts = np.bincount(partition.codes_on(layer.node_ids), minlength=len(partition.labels))
    rows = []
    for label, count in zip(partition.labels, counts.tolist()):
        if count < min_group_size:
            continue
        sub = group_subnetwork(layer, partition, label)
        rows.append(
            StructureRow(
                label=label,
                n=sub.n,
                links=sub.n_links,
                in_degree_centralization=in_degree_centralization_reference(sub),
                average_path_length=average_path_length_reference(sub),
                max_kcore=kcore_decomposition_reference(sub, convention=core_convention)[1],
            )
        )
    return tuple(rows)


def decomposition_residual(layer: Layer, partition: Partition) -> float:
    """sum_ft m_f * Q̄_ft + m * Q, which the implementation keeps at zero.

    Stated for the out_weight convention, where the row normalizers cancel
    back to plain cross-group sums.
    """
    from polarnet.modularity import ScaledLayer, _group_normalizers, demodularity_matrix

    matrix = demodularity_matrix(layer, partition, normalization="out_weight")
    view = ScaledLayer(layer)
    codes = partition.codes_on(layer.node_ids)
    groups = len(partition.labels)
    norms = _group_normalizers(view, codes, groups, "out_weight")
    total = view.m * view.q(codes, groups)
    for f in range(groups):
        for t in range(groups):
            if f == t or np.isnan(matrix.values[f, t]):
                continue
            total += norms[f] * matrix.values[f, t]
    return math.ldexp(total, view.e)


def fast_greedy_reference(problem, *, tol: float = 1e-12) -> np.ndarray:
    """Clauset-Newman-Moore agglomeration that updates the survivor's whole row
    with numpy after every merge; the form ``communities._fast_greedy`` replaced.

    ``problem`` supplies ``adj`` (the symmetrized CSR adjacency), ``k_out``,
    ``k_in``, ``m`` and ``n``.  Returns codes relabeled 0..G-1 in order of
    first appearance.

    Every merge joins the pair of communities with the largest modularity
    gain, ties going to the smallest (lo, hi) pair, until no gain exceeds
    ``tol``.  Each row x holds ``best_gain[x]``: either its exact
    best gain, with ``best_to[x]`` the partner (ties to the smaller), or,
    when ``stale[x]``, an upper bound on every gain of the row.

    A merge of b into a recomputes row a alone.  Any other pair changes only
    if it touches a or b, so a neighbour x keeps its other gains.  If x is
    exact, they are all at most its best, and at that best their partner is
    above a; a gain towards a at least as high becomes its best.  If x is
    stale, they are all at most its bound; a gain towards a strictly above
    it is its exact best.  An exact x whose best partner was a or b and that
    does not take a keeps its old best as a bound and turns stale.

    A merge comes from the first row holding the largest value.  If that row
    is stale, every stale row whose bound reaches the largest exact best is
    recomputed first, and the pick is made again.  Once the first row a is
    exact, its best is at least every row's true best, and every earlier
    row's value, bound or exact, is strictly below it.  A tied pair (y, x)
    with y < a would hold that gain in row y, so a's best pair is still the
    smallest tied (lo, hi), and the merges are those of the heap order.
    """
    n, m = problem.n, problem.m
    k_out, k_in = problem.k_out.copy(), problem.k_in.copy()
    adj = problem.adj
    spans = list(zip(adj.indptr.tolist(), adj.indptr[1:].tolist()))
    nbr, wboth = adj.indices.tolist(), adj.data.tolist()
    conn = [dict(zip(nbr[lo:hi], wboth[lo:hi])) for lo, hi in spans]
    members: list[list[int]] = [[i] for i in range(n)]
    # Elementwise double arithmetic, here and in recompute, symmetric bit
    # for bit: gain(x, y) == gain(y, x).
    sizes = np.diff(adj.indptr)
    own = np.repeat(np.arange(n), sizes)
    gains = adj.data / m - (
        k_out[own] * k_in[adj.indices] + k_out[adj.indices] * k_in[own]
    ) / (m * m)
    full = np.flatnonzero(sizes)
    best_gain = np.full(n, -np.inf)  # -inf marks a dead or empty row
    best_gain[full] = np.maximum.reduceat(gains, adj.indptr[full])
    best_to = np.full(n, -1, dtype=np.int64)
    tied = np.where(gains == np.repeat(best_gain, sizes), adj.indices, n)
    best_to[full] = np.minimum.reduceat(tied, adj.indptr[full])
    stale = np.zeros(n, dtype=bool)

    def recompute(x: int) -> tuple[np.ndarray, np.ndarray]:
        """Make row x (not empty) exact; returns its partners and gains."""
        keys = np.fromiter(conn[x], np.int64, len(conn[x]))
        gains = np.fromiter(conn[x].values(), np.float64, len(conn[x])) / m - (
            k_out[x] * k_in[keys] + k_out[keys] * k_in[x]
        ) / (m * m)
        best_gain[x] = top = gains.max()
        best_to[x] = keys[gains == top].min()
        stale[x] = False
        return keys, gains

    while True:
        a = int(best_gain.argmax())
        if best_gain[a] <= tol:
            break
        if stale[a]:
            top = best_gain.max(where=~stale, initial=-np.inf)
            for x in np.flatnonzero(stale & (best_gain >= top)).tolist():
                recompute(x)
            continue
        b = int(best_to[a])
        # Merge b into a; a < b keeps the smallest label as the survivor.
        members[a].extend(members[b])
        members[b] = []
        k_out[a] += k_out[b]
        k_in[a] += k_in[b]
        del conn[a][b]
        for x, wx in conn[b].items():
            if x == a:
                continue
            conn[a][x] = conn[a].get(x, 0.0) + wx
            conn[x][a] = conn[a][x]
            del conn[x][b]
        conn[b] = {}
        best_gain[b] = -np.inf
        stale[b] = False
        if not conn[a]:
            best_gain[a] = -np.inf
            continue
        keys, gains = recompute(a)
        old, prev, bound = best_gain[keys], best_to[keys], stale[keys]
        take = (gains > old) | ((gains == old) & (prev >= a) & ~bound)
        # Marking a stale row again keeps its bound; a take overrides the mark.
        stale[keys[(prev == a) | (prev == b)]] = True
        best_gain[keys[take]] = gains[take]
        best_to[keys[take]] = a
        stale[keys[take]] = False
    codes = np.empty(n, dtype=np.int64)
    for rep in range(n):
        for node in members[rep]:
            codes[node] = rep
    relabel: dict[int, int] = {}
    return np.array([relabel.setdefault(c, len(relabel)) for c in codes.tolist()], dtype=np.int64)


def eo_bisect_oracle(problem, sub, rng, *, tau: float = 1.4, tol: float = 1e-12):
    """One tau-EO bisection of ``sub`` that stable-sorts the fitness on every move.

    ``problem`` supplies ``adj`` (the symmetrized CSR adjacency), ``k_out``,
    ``k_in`` and ``m``.  Each move flips the node at a rank drawn with
    probability proportional to rank^-tau from the stable ascending order of
    fitness; isolated nodes have fitness inf and never move.  Returns the
    best 0/1 sides seen, or None when no split raises Q by more than ``tol``.
    """
    s = len(sub)
    m = problem.m
    local = problem.adj[sub][:, sub]
    kout = problem.k_out[sub]
    kin = problem.k_in[sub]
    bounds = list(zip(local.indptr.tolist(), local.indptr[1:].tolist()))
    local_nbr = [local.indices[lo:hi] for lo, hi in bounds]
    local_wb = [local.data[lo:hi] for lo, hi in bounds]
    ksym = np.array([wb.sum() for wb in local_wb])
    sides = rng.integers(0, 2, size=s).astype(np.int64)
    wsym_same = np.zeros(s)
    for i in range(s):
        mask = sides[local_nbr[i]] == sides[i]
        wsym_same[i] = local_wb[i][mask].sum() / 2.0
    agg_out = np.array([kout[sides == 0].sum(), kout[sides == 1].sum()])
    agg_in = np.array([kin[sides == 0].sum(), kin[sides == 1].sum()])
    cross = float((1 - sides) @ (local @ sides))

    def split_gain() -> float:
        return -cross / m + (agg_out[0] * agg_in[1] + agg_out[1] * agg_in[0]) / (m * m)

    best_gain = split_gain()
    best_sides = sides.copy()
    ranks = np.arange(1, s + 1, dtype=np.float64) ** (-tau)
    cumulative = np.cumsum(ranks / ranks.sum())
    moves = min(max(48, 8 * s), 4096)
    patience = max(24, 2 * s)
    stale = 0
    guard = np.where(ksym > 0.0, ksym, 1.0)
    for _ in range(moves):
        if stale >= patience:
            break
        null = (kout * (agg_in[sides] - kin) + kin * (agg_out[sides] - kout)) / (2.0 * m)
        fitness = (wsym_same - null) / guard
        fitness[ksym == 0.0] = np.inf
        order = np.argsort(fitness, kind="stable")
        rank = min(int(np.searchsorted(cumulative, rng.random(), side="right")), s - 1)
        pick = order[rank]
        old = int(sides[pick])
        new = 1 - old
        sides[pick] = new
        agg_out[old] -= kout[pick]
        agg_in[old] -= kin[pick]
        agg_out[new] += kout[pick]
        agg_in[new] += kin[pick]
        same = 0.0
        for j, wb in zip(local_nbr[pick].tolist(), local_wb[pick].tolist()):
            if sides[j] == new:
                wsym_same[j] += wb / 2.0
                cross -= wb
                same += wb / 2.0
            else:
                wsym_same[j] -= wb / 2.0
                cross += wb
        wsym_same[pick] = same
        gain = split_gain()
        if gain > best_gain + tol:
            best_gain = gain
            best_sides = sides.copy()
            stale = 0
        else:
            stale += 1
    if best_gain > tol and 0 < best_sides.sum() < s:
        return best_sides
    return None


class OracleError(Exception):
    """Raised where the replaced code raised ValidationError, with its text."""


@dataclass(frozen=True)
class DictPartition:
    """Total assignment of node ids to group labels, as a dict."""

    assignment: Mapping[str, str]
    labels: tuple[str, ...]

    @classmethod
    def from_assignment(
        cls, assignment: Mapping[str, str], labels: Sequence[str] | None = None
    ) -> "DictPartition":
        if not assignment:
            raise OracleError("partition needs at least one node")
        if labels is None:
            seen: dict[str, None] = {}
            for label in assignment.values():
                seen.setdefault(label, None)
            labels = tuple(seen)
        else:
            labels = tuple(labels)
            if len(set(labels)) != len(labels):
                raise OracleError("partition labels must be distinct")
            missing = set(assignment.values()) - set(labels)
            if missing:
                raise OracleError(f"labels {sorted(missing)!r} assigned but not declared")
        return cls(dict(assignment), labels)

    def label_of(self, node: str) -> str:
        try:
            return self.assignment[node]
        except KeyError:
            raise OracleError(f"node {node!r} missing from partition") from None

    def codes(self, node_ids: Sequence[str]) -> np.ndarray:
        """Group code per node, indexing ``labels``."""
        label_code = {label: i for i, label in enumerate(self.labels)}
        try:
            return np.array(
                [label_code[self.label_of(node)] for node in node_ids], dtype=np.int64
            )
        except KeyError as exc:
            raise OracleError(f"label {exc.args[0]!r} not in partition labels") from None


def apply_party_merge_oracle(
    raw_affiliations: Mapping[str, str], mapping: Mapping[str, str], unaligned_label: str
) -> DictPartition:
    """Label every node with its canonical party; unmapped raws go unaligned."""
    assignment: dict[str, str] = {}
    used: dict[str, None] = {}
    for node, raw in raw_affiliations.items():
        label = mapping.get(raw.strip(), unaligned_label)
        assignment[node] = label
        used.setdefault(label, None)
    order: dict[str, None] = {}
    for value in mapping.values():
        if value in used:
            order.setdefault(value, None)
    for label in used:
        if label != unaligned_label:
            order.setdefault(label, None)
    if unaligned_label in used:
        order[unaligned_label] = None
    return DictPartition.from_assignment(assignment, tuple(order))


def filter_partition_oracle(
    node_ids: Sequence[str], inactive: Iterable[int], partition: DictPartition, drop_label: str
) -> tuple[list[str] | None, DictPartition]:
    """(ids of the kept nodes, in registry order, or None when the network is
    returned as it is; the partition without ``drop_label``)."""
    inactive = set(inactive)
    keep_ids = []
    dropped = False
    for i, node in enumerate(node_ids):
        if i in inactive:
            continue
        if partition.label_of(node) == drop_label:
            dropped = True
        else:
            keep_ids.append(node)
    if not dropped and drop_label not in partition.labels:
        return None, partition
    if not keep_ids:
        raise OracleError(f"dropping {drop_label!r} removes every node")
    new_assignment = {
        node: label for node, label in partition.assignment.items() if label != drop_label
    }
    new_labels = tuple(label for label in partition.labels if label != drop_label)
    return keep_ids, DictPartition.from_assignment(new_assignment, new_labels)
