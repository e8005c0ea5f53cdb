"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way -- pure-Python double loops
over explicit link lists -- and deliberately shares no code with the package.
Where both routes encode a documented convention (for instance that the
modularity null model sums over every ordered node pair including i = j),
the convention is restated in the oracle's docstring.  The ``*_reference``
functions are the exception: they keep a replaced numpy path verbatim, so a
test can demand bit-identical results from its successor.
"""
from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable, Sequence

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
    """ML entropy in bits, plus (observed - 1) / (2n) for "mm"."""
    if estimator not in ("mm", "ml"):
        raise ValueError(f"unknown estimator {estimator!r}")
    counts = np.asarray(counts, dtype=np.float64).ravel()
    n = counts.sum()
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    if n <= 0:
        raise ZeroDivisionError("all counts are zero")
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
