"""Directed modularity and cross-group demodularity.

Both scores compare realized link weight against the directed configuration
null model k_out_i * k_in_j / m.  Self-links never enter the sums: they are
dropped from the adjacency term, from the degrees and from m.  The null-model
sum over a group does include the i = j degree products, which is what makes
the single-group score exactly zero and the group decomposition exact.  Both
read the weights through ``scaled_metric_view``, so that no product of
weights underflows or overflows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .errors import InternalConsistencyError, UndefinedMetricError, ValidationError
from .network import Layer, Partition

POLARIZATION_THRESHOLD = 0.3

# Denominator conventions for demodularity rows.
NORMALIZATIONS = ("out_weight", "link_count", "total_m")


def scaled_metric_view(layer: Layer) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, int]:
    """(src, dst, weight, m, e): the metric view with every weight scaled by 2^-e,
    where e is the exponent that puts the scaled m in [0.5, 1).

    Degree products and m * m then stay in the float range for any finite
    positive weights.  Scaling by a power of two is exact, so Q, every ratio
    of weight sums and every detection step keep their bits.
    """
    src, dst, w = layer.metric_view()
    m = float(w.sum())
    if m <= 0.0:
        raise UndefinedMetricError(f"layer {layer.name!r} has no non-self links")
    e = math.frexp(m)[1]
    return src, dst, np.ldexp(w, -e), math.ldexp(m, -e), e


def q_modularity(
    layer: Layer,
    partition: Partition | None,
    *,
    codes: np.ndarray | None = None,
) -> float:
    """Directed Q = (1/m) * sum_ij [A_ij - k_out_i * k_in_j / m] delta(c_i, c_j).

    ``codes`` may carry a precomputed group code per registry index (aligned
    with ``partition.labels``) to skip the per-node label lookups; with codes
    supplied the partition itself may be None, and the groups are 0..max(codes).
    """
    src, dst, w, m, _ = scaled_metric_view(layer)
    if codes is None:
        if partition is None:
            raise ValidationError("need a partition or precomputed codes")
        codes = partition.codes(layer.node_ids)
    if partition is not None:
        groups = len(partition.labels)
    else:
        groups = int(codes.max()) + 1 if len(codes) else 1
    w_in = float(w[codes[src] == codes[dst]].sum())
    k_out = np.bincount(codes[src], weights=w, minlength=groups)
    k_in = np.bincount(codes[dst], weights=w, minlength=groups)
    q = (w_in - float(k_out @ k_in) / m) / m
    if not (-1.0 - 1e-9 <= q <= 1.0 + 1e-9):
        raise InternalConsistencyError(f"modularity {q!r} outside [-1, 1]")
    return float(q)


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
    src, dst, w, m, _ = scaled_metric_view(layer)
    groups = int(codes.max()) + 1 if len(codes) else 1
    size = len(layer.node_ids)
    nodes = np.asarray(nodes, dtype=np.int64)
    links_left = len(src) - (np.bincount(src, minlength=size) + np.bincount(dst, minlength=size))[nodes]
    s_out = np.bincount(src, weights=w, minlength=size)[nodes]
    s_in = np.bincount(dst, weights=w, minlength=size)[nodes]
    m_left = m - s_out - s_in
    closed = (links_left > 0) & (m_left * 256.0 >= m)
    w_out = csr_matrix((w, (src, codes[dst])), shape=(size, groups))
    w_in = csr_matrix((w, (dst, codes[src])), shape=(size, groups))
    intra = float(w[codes[src] == codes[dst]].sum())
    k_out = np.bincount(codes[src], weights=w, minlength=groups)
    k_in = np.bincount(codes[dst], weights=w, minlength=groups)
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
    src: np.ndarray, w: np.ndarray, m: float, codes: np.ndarray, groups: int, normalization: str
) -> np.ndarray:
    if normalization == "out_weight":
        return np.bincount(codes[src], weights=w, minlength=groups)
    if normalization == "link_count":
        return np.bincount(codes[src], minlength=groups).astype(np.float64)
    if normalization == "total_m":
        return np.full(groups, m)
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
    src, dst, w, m, e = scaled_metric_view(layer)
    codes = partition.codes(layer.node_ids)
    groups = len(partition.labels)
    cross = np.zeros((groups, groups))
    np.add.at(cross, (codes[src], codes[dst]), w)
    k_out = np.bincount(src, weights=w, minlength=len(layer.node_ids))
    k_in = np.bincount(dst, weights=w, minlength=len(layer.node_ids))
    k_out_g = np.bincount(codes, weights=k_out, minlength=groups)
    k_in_g = np.bincount(codes, weights=k_in, minlength=groups)
    raw = cross - np.outer(k_out_g, k_in_g) / m
    norms = _group_normalizers(src, w, m, codes, groups, normalization)
    values = np.full((groups, groups), np.nan)
    undefined = []
    for f in range(groups):
        if norms[f] <= 0.0:
            undefined.append(partition.labels[f])
            continue
        values[f, :] = raw[f, :] / norms[f]
    if normalization == "link_count":
        # Weight per link: undo the scaling, which the weight normalizers cancel.
        values = np.ldexp(values, e)
    np.fill_diagonal(values, np.nan)
    return DemodularityMatrix(partition.labels, values, tuple(undefined), normalization)


def decomposition_residual(layer: Layer, partition: Partition) -> float:
    """sum_ft m_f * Q̄_ft + m * Q, which the implementation keeps at zero.

    Stated for the out_weight convention, where the row normalizers cancel
    back to plain cross-group sums.
    """
    matrix = demodularity_matrix(layer, partition, normalization="out_weight")
    src, dst, w = layer.metric_view()
    m = float(w.sum())
    codes = partition.codes(layer.node_ids)
    groups = len(partition.labels)
    norms = _group_normalizers(src, w, m, codes, groups, "out_weight")
    total = m * q_modularity(layer, partition)
    for f in range(groups):
        for t in range(groups):
            if f == t or np.isnan(matrix.values[f, t]):
                continue
            total += norms[f] * matrix.values[f, t]
    return float(total)
