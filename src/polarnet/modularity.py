"""Directed modularity and cross-group demodularity.

Both scores compare realized link weight against the directed configuration
null model k_out_i * k_in_j / m.  Self-links never enter the sums: they are
dropped from the adjacency term, from the degrees and from m.  The null-model
sum over a group does include the i = j degree products, which is what makes
the single-group score exactly zero and the group decomposition exact.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, UndefinedMetricError, ValidationError
from .network import Layer, Partition

POLARIZATION_THRESHOLD = 0.3

# Denominator conventions for demodularity rows.
NORMALIZATIONS = ("out_weight", "link_count", "total_m")


def q_modularity(
    layer: Layer,
    partition: Partition | None,
    *,
    codes: np.ndarray | None = None,
    n_groups: int | None = None,
) -> float:
    """Directed Q = (1/m) * sum_ij [A_ij - k_out_i * k_in_j / m] delta(c_i, c_j).

    ``codes`` may carry a precomputed group code per registry index (aligned
    with ``partition.labels``) to skip the per-node label lookups; with codes
    supplied the partition itself may be None.
    """
    src, dst, w = layer.metric_view()
    m = float(w.sum())
    if m <= 0.0:
        raise UndefinedMetricError(f"layer {layer.name!r} has no non-self links")
    if codes is None:
        if partition is None:
            raise ValidationError("need a partition or precomputed codes")
        codes = partition.codes(layer.node_ids)
    if n_groups is not None:
        groups = n_groups
    elif partition is not None:
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


def classify_polarization(q: float) -> str:
    """Map a modularity score to the polarized / not_polarized verdict."""
    if not (-1.0 <= q <= 1.0):
        raise ValidationError(f"modularity {q!r} outside [-1, 1]")
    return "polarized" if q >= POLARIZATION_THRESHOLD else "not_polarized"


def _group_normalizers(
    layer: Layer, codes: np.ndarray, groups: int, normalization: str, m: float
) -> np.ndarray:
    src, dst, w = layer.metric_view()
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
    src, dst, w = layer.metric_view()
    m = float(w.sum())
    if m <= 0.0:
        raise UndefinedMetricError(f"layer {layer.name!r} has no non-self links")
    codes = partition.codes(layer.node_ids)
    groups = len(partition.labels)
    cross = np.zeros((groups, groups))
    np.add.at(cross, (codes[src], codes[dst]), w)
    k_out = np.bincount(src, weights=w, minlength=len(layer.node_ids))
    k_in = np.bincount(dst, weights=w, minlength=len(layer.node_ids))
    k_out_g = np.bincount(codes, weights=k_out, minlength=groups)
    k_in_g = np.bincount(codes, weights=k_in, minlength=groups)
    raw = cross - np.outer(k_out_g, k_in_g) / m
    norms = _group_normalizers(layer, codes, groups, normalization, m)
    values = np.full((groups, groups), np.nan)
    undefined = []
    for f in range(groups):
        if norms[f] <= 0.0:
            undefined.append(partition.labels[f])
            continue
        values[f, :] = raw[f, :] / norms[f]
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
    norms = _group_normalizers(layer, codes, groups, "out_weight", m)
    total = m * q_modularity(layer, partition)
    for f in range(groups):
        for t in range(groups):
            if f == t or np.isnan(matrix.values[f, t]):
                continue
            total += norms[f] * matrix.values[f, t]
    return float(total)
