"""Intra-group structure metrics: centralization, path length, k-cores.

Each group of a partition induces a subnetwork (group members plus the links
among them, self-links dropped).  On that subnetwork we measure in-degree
centralization against the in-star maximum, the average directed shortest
path over reachable ordered pairs, and the k-core decomposition of the
undirected collapse (a directed total-degree variant is available).

``structure_report`` measures all groups of a layer at once, on the graph of
their internal links: its nodes are numbered group by group and no link
joins two groups, so one search and one peel serve every group.  The
single-group functions run the same kernels on a graph of one group.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError, ValidationError
from .network import Layer, Partition, merge_links, symmetric_adjacency

# Cells of one breadth-first frontier block (nodes × columns), so that a
# block's bool arrays take 4 MB each whatever the layer's size.
_FRONTIER_CELLS = 2 ** 22
# A search level whose frontier holds at least 1/_DENSE_SHARE of its block's
# cells is one sparse product over the whole block.
_DENSE_SHARE = 128


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


# -- kernels over groups numbered block by block ------------------------------
#
# ``sizes[g]`` nodes form group g, numbered after those of groups 0..g-1; the
# links (src, dst) are distinct, self-link free and never leave their group.


def _centralizations(sizes: np.ndarray, dst: np.ndarray) -> list[float]:
    """Freeman in-degree centralization of each group (every size at least 2)."""
    k_in = np.bincount(dst, minlength=int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    peaks = np.maximum.reduceat(k_in, starts).tolist()
    totals = np.add.reduceat(k_in, starts).tolist()
    # sum(k* - k_in) = n k* - sum(k_in); both ints divide as one rounding.
    return [(n * peak - total) / (n - 1) ** 2
            for n, peak, total in zip(sizes.tolist(), peaks, totals)]


def _link_positions(indptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the links of ``nodes`` sit in a compressed sparse matrix's index
    array, node by node, and how many links each node has."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total), counts


def _path_sums(sizes: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per group: the hop counts of its shortest directed paths added up, and
    the number of ordered pairs (i != j) that a path joins.

    Breadth-first search from every node at once (Kepner & Gilbert 2011):
    column j of an n×w frontier starts at the j-th node of every group, so
    one frontier searches from one node of each group, in column blocks of
    at most ``_FRONTIER_CELLS`` cells.  A level whose frontier holds at
    least 1/``_DENSE_SHARE`` of the block's cells is one sparse product over
    the whole block.  A thinner level, as in the first levels and along
    long paths, follows only the links of its frontier cells, held as flat
    indices (node·w + column), so that it costs what it reaches, not n·w.
    """
    # Loaded on first call, so that starting the CLI loads no scipy submodule.
    from scipy.sparse import csc_matrix

    n, count = int(sizes.sum()), len(sizes)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    rank = np.arange(n) - np.repeat(starts, sizes)
    group = np.repeat(np.arange(count), sizes)
    # Column u holds the nodes that u links to.  Bool products add with OR,
    # so (links @ frontier)[v, j] is exactly whether a frontier node of
    # column j links to v.
    links = csc_matrix((np.ones(len(src), dtype=bool), (dst, src)), shape=(n, n))
    heads = links.indices.astype(np.int64)
    hops = np.zeros(count, dtype=np.int64)
    pairs = np.zeros(count, dtype=np.int64)
    columns = int(sizes.max(initial=0))
    step = max(1, _FRONTIER_CELLS // max(n, 1))
    # A thin level writes each reached cell's place in its list here and
    # keeps the cells that read their own place back: one of each, unsorted.
    places = np.empty(n * min(step, columns), dtype=np.int64)
    for first in range(0, columns, step):
        width = min(step, columns - first)
        slabs = list(zip((starts * width).tolist(), (ends * width).tolist()))
        node = np.flatnonzero((rank >= first) & (rank < first + width))
        cells = node * width + rank[node] - first
        unseen = np.ones(n * width, dtype=bool)
        unseen[cells] = False
        size, frontier = len(cells), None
        for level in itertools.count(1):
            if _DENSE_SHARE * size >= n * width:
                if frontier is None:
                    frontier = np.zeros(n * width, dtype=bool)
                    frontier[cells] = True
                frontier = (links @ frontier.reshape(n, width)).ravel()
                frontier &= unseen
                unseen ^= frontier
                new = np.array([np.count_nonzero(frontier[lo:hi]) for lo, hi in slabs],
                               dtype=np.int64)
                cells = None
            else:
                if cells is None:
                    cells = np.flatnonzero(frontier)
                    node = cells // width
                    frontier = None
                at, fanout = _link_positions(links.indptr, node)
                reached = heads[at] * width + np.repeat(cells - node * width, fanout)
                reached = reached[unseen[reached]]
                place = np.arange(len(reached))
                places[reached] = place
                cells = reached[places[reached] == place]
                unseen[cells] = False
                node = cells // width
                new = np.bincount(group[node], minlength=count)
            size = int(new.sum())
            if not size:
                break
            pairs += new
            hops += level * new
    return hops, pairs


def _core_numbers(n: int, src: np.ndarray, dst: np.ndarray, convention: str) -> np.ndarray:
    """Core numbers by level peeling.

    At each level every live node whose degree is at most the level drops at
    once, and its neighbours lose its links, until no live node is left at
    that level; the level then rises to the least live degree.  A node's
    core number is the level it drops at, as in the sequential peel of
    Batagelj & Zaversnik (2003).  After the first round of a level only the
    neighbours of the nodes just dropped can drop, so a round reads only
    those, and a long path costs what it holds.
    """
    # Each neighbour pair holds its directed links (1 or 2); the undirected
    # collapse counts a mutual pair as one edge.
    adj = symmetric_adjacency(n, src, dst, np.ones(len(src)))
    if convention == "undirected":
        adj.data[:] = 1.0
    degree = np.asarray(adj.sum(axis=1)).ravel()
    core = np.zeros(n, dtype=np.int64)
    live = np.ones(n, dtype=bool)
    level = 0
    drop = np.flatnonzero(degree <= level)
    while len(drop) or live.any():
        if not len(drop):
            level = int(degree[live].min())
            drop = np.flatnonzero(live & (degree <= level))
        core[drop] = level
        live[drop] = False
        at, _ = _link_positions(adj.indptr, drop)
        touched = adj.indices[at]
        np.subtract.at(degree, touched, adj.data[at])
        drop = np.unique(touched[live[touched] & (degree[touched] <= level)])
    return core


# -- one group ----------------------------------------------------------------


def in_degree_centralization(sub: GroupSubnetwork) -> float:
    """Freeman centralization of in-degrees: sum(k*_in - k_in) / (n - 1)^2.

    Degrees count distinct in-neighbors; the in-star scores 1, the complete
    digraph 0.  Undefined for fewer than 2 nodes.
    """
    if sub.n < 2:
        raise UndefinedMetricError("centralization needs at least 2 nodes")
    return _centralizations(np.array([sub.n]), sub.dst)[0]


def _mean_path(hops: int, pairs: int) -> float | None:
    return int(hops) / int(pairs) if pairs else None


def average_path_length(sub: GroupSubnetwork, *, symmetrize: bool = False) -> float | None:
    """Mean shortest directed path over reachable ordered pairs, in hops.

    Unreachable pairs are left out of the mean; None when no ordered pair is
    reachable at all.  ``symmetrize`` measures the undirected collapse
    instead.
    """
    if sub.n < 2:
        raise UndefinedMetricError("path length needs at least 2 nodes")
    src, dst = sub.src, sub.dst
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    hops, pairs = _path_sums(np.array([sub.n]), src, dst)
    return _mean_path(hops[0], pairs[0])


CORE_CONVENTIONS = ("undirected", "total_degree")


@dataclass(frozen=True)
class KCoreResult:
    core_numbers: dict[str, int]
    max_kcore: int


def _check_convention(convention: str) -> None:
    if convention not in CORE_CONVENTIONS:
        raise ValidationError(f"unknown k-core convention {convention!r}")


def kcore_decomposition(sub: GroupSubnetwork, *, convention: str = "undirected") -> KCoreResult:
    """Core numbers of the group's nodes.

    ``undirected`` collapses mutual links into one edge before counting
    degrees; ``total_degree`` counts in plus out on the directed simple
    graph.  Core numbers do not depend on pruning order; the empty graph is
    all zeros.
    """
    _check_convention(convention)
    core = _core_numbers(sub.n, sub.src, sub.dst, convention)
    return KCoreResult(dict(zip(sub.node_ids, core.tolist())), int(core.max(initial=0)))


# -- every group of a layer ---------------------------------------------------


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
    codes = partition.codes_on(layer.node_ids)
    counts = np.bincount(codes, minlength=len(partition.labels))
    kept = np.flatnonzero(counts >= min_group_size)
    if not len(kept):
        return ()
    _check_convention(core_convention)
    slot = np.full(len(partition.labels), -1, dtype=np.int64)
    slot[kept] = np.arange(len(kept))
    slots = slot[codes]
    # Members of the kept groups, group by group, each in registry order.
    members = np.flatnonzero(slots >= 0)
    members = members[np.argsort(slots[members], kind="stable")]
    local = np.full(len(codes), -1, dtype=np.int64)
    local[members] = np.arange(len(members))
    src, dst, w = layer.metric_view()
    inside = (slots[src] == slots[dst]) & (slots[src] >= 0)
    (src, dst), _ = merge_links(w[inside], local[src[inside]], local[dst[inside]])
    sizes = counts[kept]
    group = np.repeat(np.arange(len(kept)), sizes)
    links = np.bincount(group[src], minlength=len(kept)).tolist()
    hops, pairs = _path_sums(sizes, src, dst)
    max_core = np.zeros(len(kept), dtype=np.int64)
    np.maximum.at(max_core, group, _core_numbers(len(members), src, dst, core_convention))
    columns = zip(kept.tolist(), sizes.tolist(), links, _centralizations(sizes, dst),
                  hops.tolist(), pairs.tolist(), max_core.tolist())
    return tuple(StructureRow(partition.labels[k], n, n_links, centralization,
                              _mean_path(hop_sum, pair_count), core)
                 for k, n, n_links, centralization, hop_sum, pair_count, core in columns)
