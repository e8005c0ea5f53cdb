"""Intra-group structure metrics: centralization, path length, k-cores.

Each group of a partition induces a subnetwork (group members plus the links
among them, self-links dropped).  On that subnetwork we measure in-degree
centralization against the in-star maximum, the average directed shortest
path over reachable ordered pairs, and the k-core decomposition of the
undirected collapse (a directed total-degree variant is available).
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError, ValidationError
from .network import Layer, Partition, merge_links, symmetric_adjacency


@dataclass(frozen=True)
class GroupSubnetwork:
    """Directed simple subgraph induced by one group's members."""

    label: str
    node_ids: tuple[str, ...]
    src: np.ndarray  # local indices, self-links removed, duplicates merged
    dst: np.ndarray
    weight: np.ndarray

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def n_links(self) -> int:
        return len(self.src)


def group_subnetwork(layer: Layer, partition: Partition, label: str) -> GroupSubnetwork:
    """Induce the subgraph of the given group on a layer."""
    if label not in partition.labels:
        raise ValidationError(f"label {label!r} not in partition labels")
    local = np.flatnonzero(partition.codes_on(layer.node_ids) == partition.labels.index(label))
    if not len(local):
        raise ValidationError(f"group {label!r} has no nodes on layer {layer.name!r}")
    lut = np.full(len(layer.node_ids), -1, dtype=np.int64)
    lut[local] = np.arange(len(local))
    src, dst, w = layer.metric_view()
    ls, lt = lut[src], lut[dst]
    keep = (ls >= 0) & (lt >= 0)
    (sub_src, sub_dst), sub_weight = merge_links(w[keep], ls[keep], lt[keep])
    return GroupSubnetwork(
        label, tuple(layer.node_ids[i] for i in local), sub_src, sub_dst, sub_weight
    )


def in_degree_centralization(sub: GroupSubnetwork) -> float:
    """Freeman centralization of in-degrees: sum(k*_in - k_in) / (n - 1)^2.

    Degrees count distinct in-neighbors; the in-star scores 1, the complete
    digraph 0.  Undefined for fewer than 2 nodes.
    """
    if sub.n < 2:
        raise UndefinedMetricError("centralization needs at least 2 nodes")
    k_in = np.bincount(sub.dst, minlength=sub.n)
    return float((k_in.max() - k_in).sum() / (sub.n - 1) ** 2)


def average_path_length(sub: GroupSubnetwork, *, symmetrize: bool = False) -> float | None:
    """Mean shortest directed path over reachable ordered pairs, in hops.

    Unreachable pairs are left out of the mean; None when no ordered pair is
    reachable at all.  ``symmetrize`` measures the undirected collapse
    instead.
    """
    if sub.n < 2:
        raise UndefinedMetricError("path length needs at least 2 nodes")
    # Loaded on first call, so that starting the CLI loads no scipy submodule.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    graph = csr_matrix((np.ones(sub.n_links), (sub.src, sub.dst)), shape=(sub.n, sub.n))
    dist = shortest_path(graph, directed=not symmetrize, unweighted=True)
    reached = np.isfinite(dist) & (dist > 0)
    pairs = int(reached.sum())
    if pairs == 0:
        return None
    return int(dist[reached].sum()) / pairs


CORE_CONVENTIONS = ("undirected", "total_degree")


@dataclass(frozen=True)
class KCoreResult:
    core_numbers: dict[str, int]
    max_kcore: int


def kcore_decomposition(sub: GroupSubnetwork, *, convention: str = "undirected") -> KCoreResult:
    """Iterative-pruning core numbers.

    ``undirected`` collapses mutual links into one edge before counting
    degrees; ``total_degree`` counts in plus out on the directed simple
    graph.  Core numbers do not depend on pruning order; the empty graph is
    all zeros.
    """
    if convention not in CORE_CONVENTIONS:
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
    return KCoreResult(
        {sub.node_ids[i]: int(core[i]) for i in range(n)},
        int(core.max()) if n else 0,
    )


@dataclass(frozen=True)
class StructureRow:
    """Per-group structure metrics for a report."""

    label: str
    n: int
    links: int
    in_degree_centralization: float
    average_path_length: float | None
    max_kcore: int


def structure_report(
    layer: Layer,
    partition: Partition,
    *,
    min_group_size: int = 200,
    core_convention: str = "undirected",
) -> tuple[StructureRow, ...]:
    """Structure metrics for every group with at least min_group_size members.

    Group size counts partition members present on the layer's registry.
    Groups below the threshold are omitted; ordering follows the partition's
    label order.
    """
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
                in_degree_centralization=in_degree_centralization(sub),
                average_path_length=average_path_length(sub),
                max_kcore=kcore_decomposition(sub, convention=core_convention).max_kcore,
            )
        )
    return tuple(rows)
