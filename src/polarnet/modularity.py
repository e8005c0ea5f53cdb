"""Directed modularity and cross-group demodularity.

Both scores compare realized link weight against the directed configuration
null model k_out_i * k_in_j / m.  Self-links never enter the sums: they are
dropped from the adjacency term, from the degrees and from m.  The null-model
sum over a group does include the i = j degree products, which is what makes
the single-group score exactly zero and the group decomposition exact.  Q,
its leave-one-out replicates, demodularity and detection all read one
``ScaledLayer``: the weights scaled so that no product of them underflows or
overflows, m, the node strengths and the group sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InternalConsistencyError, UndefinedMetricError, ValidationError
from .network import Layer, Partition

POLARIZATION_THRESHOLD = 0.3

# Denominator conventions for demodularity rows.
NORMALIZATIONS = ("out_weight", "link_count", "total_m")


class ScaledLayer:
    """The metric view of one layer with every weight scaled by 2^-e, where e
    is the exponent that puts the scaled m in [0.5, 1), and its per-node
    strengths ``k_out`` and ``k_in`` in the same weights.

    Degree products and m * m then stay in the float range for any finite
    positive weights.  Scaling by a power of two is exact, so Q, every ratio
    of weight sums and every detection step keep their bits.
    """

    def __init__(self, layer: Layer):
        self.src, self.dst, w = layer.metric_view()
        m = float(w.sum())
        if m <= 0.0:
            raise UndefinedMetricError(f"layer {layer.name!r} has no non-self links")
        self.e = math.frexp(m)[1]
        self.w, self.m = np.ldexp(w, -self.e), math.ldexp(m, -self.e)
        self.n = len(layer.node_ids)
        self.k_out = np.bincount(self.src, weights=self.w, minlength=self.n)
        self.k_in = np.bincount(self.dst, weights=self.w, minlength=self.n)

    def group_sums(self, codes: np.ndarray, groups: int) -> tuple[float, np.ndarray, np.ndarray]:
        """(intra-group weight, K_out, K_in) of the groups 0..groups-1 in ``codes``."""
        src, dst, w = self.src, self.dst, self.w
        intra = float(w[codes[src] == codes[dst]].sum())
        k_out = np.bincount(codes[src], weights=w, minlength=groups)
        k_in = np.bincount(codes[dst], weights=w, minlength=groups)
        return intra, k_out, k_in

    def q(self, codes: np.ndarray, groups: int | None = None) -> float:
        """Directed Q of ``codes``; ``groups`` defaults to max(codes) + 1."""
        if groups is None:
            groups = int(codes.max()) + 1 if len(codes) else 1
        intra, k_out, k_in = self.group_sums(codes, groups)
        q = (intra - float(k_out @ k_in) / self.m) / self.m
        if not (-1.0 - 1e-9 <= q <= 1.0 + 1e-9):
            raise InternalConsistencyError(f"modularity {q!r} outside [-1, 1]")
        return float(q)


def q_modularity(
    layer: Layer,
    partition: Partition | None,
    *,
    codes: np.ndarray | None = None,
) -> float:
    """Directed Q = (1/m) * sum_ij [A_ij - k_out_i * k_in_j / m] delta(c_i, c_j).

    ``codes``, one group code per registry index, may stand in for the
    partition, which is then None and the groups 0..max(codes); the CLI
    passes partitions, and ``leave_one_out_q`` codes.
    """
    view = ScaledLayer(layer)
    if codes is None:
        if partition is None:
            raise ValidationError("need a partition or precomputed codes")
        codes = partition.codes_on(layer.node_ids)
    return view.q(codes, len(partition.labels) if partition is not None else None)


def leave_one_out_q(layer: Layer, codes: np.ndarray, nodes: Sequence[int]) -> list[float | None]:
    """``q_modularity(layer.without_node(v), None, codes=codes)`` for each v in
    ``nodes``, None where no non-self link is left, in closed form.

    Removing v changes Q only through v's own sums: m loses v's strengths
    s_out + s_in, the intra-group weight loses v's links to and from its
    group c_v, K_out loses W_in[v] (the weights g -> v) plus s_out at c_v, and
    K_in loses W_out[v] (the weights v -> g) plus s_in at c_v.  The
    subtractions lose about log2(m / m') bits, so a replicate that keeps less
    than 1/256 of the weight is computed from its remaining links instead.
    """
    # Loaded on first call, so that starting the CLI loads no scipy submodule.
    from scipy.sparse import csr_matrix

    view = ScaledLayer(layer)
    src, dst, w, m, size = view.src, view.dst, view.w, view.m, view.n
    groups = int(codes.max()) + 1 if len(codes) else 1
    nodes = np.asarray(nodes, dtype=np.int64)
    links_left = len(src) - (np.bincount(src, minlength=size) + np.bincount(dst, minlength=size))[nodes]
    s_out, s_in = view.k_out[nodes], view.k_in[nodes]
    m_left = m - s_out - s_in
    closed = (links_left > 0) & (m_left * 256.0 >= m)
    w_out = csr_matrix((w, (src, codes[dst])), shape=(size, groups))
    w_in = csr_matrix((w, (dst, codes[src])), shape=(size, groups))
    intra, k_out, k_in = view.group_sums(codes, groups)
    q = np.full(len(nodes), np.nan)
    # Dense per-node group vectors, at most 2^20 values per block.
    step = max(1, (1 << 20) // groups)
    at = np.flatnonzero(closed)
    for part in np.split(at, range(step, len(at), step)):
        v, rows = nodes[part], np.arange(len(part))
        c, out_v, in_v = codes[v], w_out[v].toarray(), w_in[v].toarray()
        intra_v = intra - out_v[rows, c] - in_v[rows, c]
        k_out_v = k_out - in_v
        k_out_v[rows, c] -= s_out[part]
        k_in_v = k_in - out_v
        k_in_v[rows, c] -= s_in[part]
        q[part] = (intra_v - np.einsum("ij,ij->i", k_out_v, k_in_v) / m_left[part]) / m_left[part]
    bad = closed & ~(np.abs(q) <= 1.0 + 1e-9)
    if bad.any():
        raise InternalConsistencyError(f"modularity {float(q[bad][0])!r} outside [-1, 1]")
    return [
        float(q[i]) if closed[i]
        else None if links_left[i] == 0
        else q_modularity(layer.without_node(int(nodes[i])), None, codes=codes)
        for i in range(len(nodes))
    ]


def classify_polarization(q: float) -> str:
    """Map a modularity score to the polarized / not_polarized verdict."""
    if not (-1.0 <= q <= 1.0):
        raise ValidationError(f"modularity {q!r} outside [-1, 1]")
    return "polarized" if q >= POLARIZATION_THRESHOLD else "not_polarized"


def _group_normalizers(
    view: ScaledLayer, codes: np.ndarray, groups: int, normalization: str
) -> np.ndarray:
    if normalization == "out_weight":
        return np.bincount(codes[view.src], weights=view.w, minlength=groups)
    if normalization == "link_count":
        return np.bincount(codes[view.src], minlength=groups).astype(np.float64)
    if normalization == "total_m":
        return np.full(groups, view.m)
    raise ValidationError(f"unknown normalization {normalization!r}")


def demodularity(
    layer: Layer,
    partition: Partition,
    from_group: str,
    to_group: str,
    *,
    normalization: str = "out_weight",
) -> float:
    """Directed cross-group score for ordered groups (from_group, to_group).

    Q̄_ft = (1/m_f) * sum over i in f, j in t of [A_ij - k_out_i * k_in_j / m],
    with m_f set by ``normalization``: the from-group's total outgoing weight
    (default), its outgoing link count, or the whole layer's m.

    Under ``out_weight`` every row sums to zero: sum over all groups t,
    f itself included, of m_f * Q̄_ft = K_out_f - K_out_f * m / m = 0.  So with
    two groups Q̄_ft = -Q̄_ff (the same formula with t = f, which this function
    does not return), and a pair whose within-group term is balanced scores
    exactly 0.
    """
    if from_group == to_group:
        raise ValidationError("from_group and to_group must differ")
    for label in (from_group, to_group):
        if label not in partition.labels:
            raise ValidationError(f"label {label!r} not in partition labels")
    matrix = demodularity_matrix(layer, partition, normalization=normalization)
    value = matrix.value(from_group, to_group)
    if value is None:
        raise UndefinedMetricError(
            f"group {from_group!r} has no normalizing weight under {normalization!r}"
        )
    return value


@dataclass(frozen=True)
class DemodularityMatrix:
    """All ordered cross-group scores for one layer and partition."""

    labels: tuple[str, ...]
    values: np.ndarray  # NaN on the diagonal and on undefined rows
    undefined_rows: tuple[str, ...]
    normalization: str

    def value(self, from_group: str, to_group: str) -> float | None:
        for label in (from_group, to_group):
            if label not in self.labels:
                raise ValidationError(f"label {label!r} not in matrix labels")
        i = self.labels.index(from_group)
        j = self.labels.index(to_group)
        out = self.values[i, j]
        return None if np.isnan(out) else float(out)


def demodularity_matrix(
    layer: Layer,
    partition: Partition,
    *,
    normalization: str = "out_weight",
) -> DemodularityMatrix:
    """Compute every ordered (from, to) demodularity entry in one pass."""
    if len(partition.labels) < 2:
        raise ValidationError("demodularity needs at least two groups")
    view = ScaledLayer(layer)
    codes = partition.codes_on(layer.node_ids)
    groups = len(partition.labels)
    cross = np.zeros((groups, groups))
    np.add.at(cross, (codes[view.src], codes[view.dst]), view.w)
    k_out_g = np.bincount(codes, weights=view.k_out, minlength=groups)
    k_in_g = np.bincount(codes, weights=view.k_in, minlength=groups)
    raw = cross - np.outer(k_out_g, k_in_g) / view.m
    norms = _group_normalizers(view, codes, groups, normalization)
    values = np.full((groups, groups), np.nan)
    undefined = []
    for f in range(groups):
        if norms[f] <= 0.0:
            undefined.append(partition.labels[f])
            continue
        values[f, :] = raw[f, :] / norms[f]
    if normalization == "link_count":
        # Weight per link: undo the scaling, which the weight normalizers cancel.
        values = np.ldexp(values, view.e)
    np.fill_diagonal(values, np.nan)
    return DemodularityMatrix(partition.labels, values, tuple(undefined), normalization)


def decomposition_residual(layer: Layer, partition: Partition) -> float:
    """sum_ft m_f * Q̄_ft + m * Q, which the implementation keeps at zero.

    Stated for the out_weight convention, where the row normalizers cancel
    back to plain cross-group sums.
    """
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
