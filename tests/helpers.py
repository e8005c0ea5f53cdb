"""Builders shared across the test modules."""
from __future__ import annotations

from datetime import date
from typing import Sequence

import numpy as np

from polarnet.errors import ValidationError
from polarnet.network import MISSING_DAY, Layer, MultiplexNetwork, Partition


def ids(n: int) -> tuple[str, ...]:
    return tuple(f"n{i}" for i in range(n))


def layer_of(
    n: int,
    links: Sequence[tuple],
    *,
    name: str = "links",
    weighted: bool | None = None,
) -> Layer:
    """Layer over nodes n0..n{n-1} from (src, dst[, weight[, day_ordinal]]) rows."""
    rows = []
    for s, t, *rest in links:
        w = rest[0] if rest else 1.0
        day = rest[1] if len(rest) > 1 else None
        rows.append((f"n{s}", f"n{t}", w, day))
    return Layer.from_columns(name, *columns(rows), weighted=weighted, node_ids=ids(n))


def links_of(layer: Layer) -> list[tuple[str, str, float, date | None]]:
    """(source, target, weight, date or None) of each link of a layer, in array order."""
    days = [MISSING_DAY] * layer.n_links if layer.days is None else layer.days.tolist()
    return [
        (layer.node_ids[s], layer.node_ids[t], w, None if day == MISSING_DAY else date.fromordinal(day))
        for s, t, w, day in zip(layer.src.tolist(), layer.dst.tolist(), layer.weight.tolist(), days)
    ]


def columns(rows: Sequence[tuple]) -> tuple[list, list, list, list]:
    """(sources, targets, weights, days) of (source, target, weight, day ordinal or None)
    rows, an undated row's day being MISSING_DAY."""
    return (
        [row[0] for row in rows],
        [row[1] for row in rows],
        [float(row[2]) for row in rows],
        [MISSING_DAY if row[3] is None else int(row[3]) for row in rows],
    )


def partition_of(n: int, codes: Sequence[int]) -> Partition:
    """Partition labeling node n{i} with group g{codes[i]}."""
    assignment = {f"n{i}": f"g{codes[i]}" for i in range(n)}
    labels = tuple(f"g{k}" for k in sorted(set(int(c) for c in codes)))
    return Partition.from_assignment(assignment, labels)


def random_digraph(
    rng: np.random.Generator,
    n: int,
    p: float,
    *,
    weighted: bool = False,
    self_links: bool = False,
) -> list[tuple[int, int, float]]:
    """Ordered-pair Bernoulli digraph as (src, dst, weight) rows."""
    links = []
    for i in range(n):
        for j in range(n):
            if i == j and not self_links:
                continue
            if rng.random() < p:
                w = float(rng.integers(1, 6)) if weighted else 1.0
                links.append((i, j, w))
    return links


def random_codes(rng: np.random.Generator, n: int, groups: int) -> list[int]:
    return [int(g) for g in rng.integers(0, groups, size=n)]


def random_dated_links(
    rng: np.random.Generator,
    n: int,
    count: int,
    first_day: int,
    span_days: int,
) -> list[tuple[int, int, float, int]]:
    """Unique (src, dst, weight=1, day) rows with src != dst."""
    seen = set()
    links = []
    while len(links) < count:
        s = int(rng.integers(0, n))
        t = int(rng.integers(0, n))
        if s == t:
            continue
        day = first_day + int(rng.integers(0, span_days))
        if (s, t, day) in seen:
            continue
        seen.add((s, t, day))
        links.append((s, t, 1.0, day))
    return links


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
