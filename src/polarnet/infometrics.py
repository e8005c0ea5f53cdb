"""Link-overlap and information-theoretic similarity between layers.

Layers are binarized to sets of ordered non-self node pairs over the shared
registry, held as sorted int64 pair keys.  ``LinkIndicatorPair`` intersects
two such sets into the 2x2 pair-indicator table, which every similarity
reads: set overlap (Jaccard, partial Jaccard) or normalized mutual
information.  Entropies are in bits and use the Miller-Madow corrected
estimator by default, with the plain maximum-likelihood estimator available
as a switch.  Error bars come from leave-one-node-out jackknife resampling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import UndefinedMetricError, ValidationError
from .network import Layer, MultiplexNetwork, Partition

ESTIMATORS = ("mm", "ml")


def _check_shared_registry(x: Layer, y: Layer) -> None:
    if x.node_ids != y.node_ids or x.node_count != y.node_count:
        raise ValidationError(
            f"layers {x.name!r} and {y.name!r} do not share a node registry"
        )


def _link_keys(layer: Layer) -> np.ndarray:
    """Sorted keys src·N + dst of the layer's distinct non-self pairs.

    N is the registry size, which ``drop_node`` keeps, so keys never collide.
    Arrays sorted by (source, target, day) put a pair's days in one run of keys.
    """
    src, dst, _ = layer.metric_view()
    keys = src * len(layer.node_ids) + dst
    return keys[np.diff(keys, prepend=-1) != 0]


def jaccard(x: Layer, y: Layer) -> float:
    """|X ∩ Y| / |X ∪ Y| over the layers' link sets."""
    pair = LinkIndicatorPair.from_layers(x, y)
    union = pair.n11 + pair.n10 + pair.n01
    if union == 0:
        raise UndefinedMetricError("both layers are empty")
    return pair.n11 / union


def partial_jaccard(x: Layer, y: Layer) -> float:
    """|X ∩ Y| / |Y|: the share of Y's links also present in X."""
    pair = LinkIndicatorPair.from_layers(x, y)
    if pair.n11 + pair.n01 == 0:
        raise UndefinedMetricError(f"layer {y.name!r} has no links")
    return pair.n11 / (pair.n11 + pair.n01)


def entropy_ml(counts: Sequence[float] | np.ndarray) -> float:
    """Maximum-likelihood Shannon entropy in bits; zero counts contribute 0."""
    counts = np.asarray(counts, dtype=np.float64).ravel()
    if (counts < 0).any():
        raise ValidationError("counts must be non-negative")
    n = counts.sum()
    if n <= 0:
        raise UndefinedMetricError("all counts are zero")
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


def entropy_mm(counts: Sequence[float] | np.ndarray) -> float:
    """ML entropy plus the Miller-Madow correction (p_observed - 1) / (2n)."""
    counts = np.asarray(counts, dtype=np.float64).ravel()
    n = counts.sum()
    base = entropy_ml(counts)
    observed = int((counts > 0).sum())
    return base + (observed - 1) / (2.0 * n)


def _entropy(counts: np.ndarray, estimator: str) -> float:
    if estimator == "mm":
        return entropy_mm(counts)
    if estimator == "ml":
        return entropy_ml(counts)
    raise ValidationError(f"unknown estimator {estimator!r}")


class MIResult(NamedTuple):
    """Mutual information in bits: clamped value, raw estimate, degeneracy flag."""

    value: float
    raw: float
    degenerate: bool


def mutual_information(table: Sequence | np.ndarray, estimator: str = "mm") -> MIResult:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) over a 2-D joint count table."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValidationError("joint table must be 2-D")
    if (table < 0).any():
        raise ValidationError("counts must be non-negative")
    if table.sum() <= 0:
        raise UndefinedMetricError("all counts are zero")
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    degenerate = int((table > 0).sum()) <= 1
    raw = _entropy(rows, estimator) + _entropy(cols, estimator) - _entropy(table, estimator)
    if degenerate:
        raw = 0.0
    return MIResult(max(raw, 0.0), raw, degenerate)


def nmi(table: Sequence | np.ndarray, respect_to: str = "x", estimator: str = "mm") -> float:
    """NMI(X|Y) = I(X;Y) / H(X), rows being X and columns Y.

    ``respect_to`` picks the normalizing margin ("x" rows, "y" columns).
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValidationError("joint table must be 2-D")
    if respect_to not in ("x", "y"):
        raise ValidationError(f"respect_to must be 'x' or 'y', got {respect_to!r}")
    margin = table.sum(axis=1) if respect_to == "x" else table.sum(axis=0)
    h = _entropy(margin, estimator)
    if h <= 0.0:
        raise UndefinedMetricError("normalizing margin has zero entropy")
    return mutual_information(table, estimator).raw / h


@dataclass(frozen=True)
class LinkIndicatorPair:
    """2x2 pair-indicator counts for two layers over the same registry."""

    n11: int
    n10: int
    n01: int
    n00: int

    @classmethod
    def from_layers(cls, x: Layer, y: Layer) -> "LinkIndicatorPair":
        _check_shared_registry(x, y)
        n = x.node_count
        a, b = _link_keys(x), _link_keys(y)
        n11 = len(np.intersect1d(a, b, assume_unique=True))
        n10 = len(a) - n11
        n01 = len(b) - n11
        n00 = n * (n - 1) - n11 - n10 - n01
        if n00 < 0:
            raise ValidationError("link sets exceed the ordered-pair universe")
        return cls(n11, n10, n01, n00)

    def table(self) -> np.ndarray:
        return np.array([[self.n11, self.n10], [self.n01, self.n00]], dtype=np.float64)


def link_nmi(x: Layer, y: Layer, estimator: str = "mm") -> tuple[float, float]:
    """Pairwise-link NMI between two layers: (NMI(X|Y), NMI(Y|X)).

    Both layers are read as indicator variables over all ordered non-self
    node pairs; NMI(X|Y) normalizes the shared information by H(X).
    """
    table = LinkIndicatorPair.from_layers(x, y).table()
    return (
        nmi(table, respect_to="x", estimator=estimator),
        nmi(table, respect_to="y", estimator=estimator),
    )


def partition_nmi(
    a: Partition,
    b: Partition,
    nodes: Sequence[str],
    estimator: str = "mm",
) -> tuple[float, float]:
    """Group-label NMI between two partitions over a node universe.

    Returns (NMI(A|B), NMI(B|A)) from the joint label count table.
    """
    if len(nodes) == 0:
        raise ValidationError("empty node universe")
    na, nb = len(a.labels), len(b.labels)
    pairs = a.codes(nodes) * nb + b.codes(nodes)
    table = np.bincount(pairs, minlength=na * nb).reshape(na, nb).astype(np.float64)
    return (
        nmi(table, respect_to="x", estimator=estimator),
        nmi(table, respect_to="y", estimator=estimator),
    )


@dataclass(frozen=True)
class MetricEstimate:
    """Point value with jackknife replicate mean and 2-sigma spread."""

    point: float
    jack_mean: float
    two_sigma: float
    samples: int
    skipped: int = 0
    unreliable: bool = False


def jackknife(
    metric: Callable[[MultiplexNetwork], float],
    network: MultiplexNetwork,
    *,
    only_layers: Sequence[str] | None = None,
) -> MetricEstimate:
    """Leave-one-node-out resampling of a scalar network metric.

    One replicate per active node, in index order: the node and its incident
    links are removed from every layer (or just ``only_layers`` when the
    metric reads nothing else) and the metric re-evaluated.  Replicates where
    the metric is undefined are skipped and counted; more than 10% skipped
    flags the estimate unreliable.  Bind metric arguments via a closure.
    """
    point = float(metric(network))
    values = []
    skipped = 0
    for v in network.active_indices():
        replicate = network.drop_node(v, only_layers=only_layers)
        try:
            values.append(float(metric(replicate)))
        except UndefinedMetricError:
            skipped += 1
    samples = network.n
    if not values:
        raise UndefinedMetricError("metric undefined on every jackknife replicate")
    arr = np.array(values)
    return MetricEstimate(
        point=point,
        jack_mean=float(arr.mean()),
        two_sigma=float(2.0 * arr.std(ddof=0)),
        samples=samples,
        skipped=skipped,
        unreliable=skipped > 0.1 * samples,
    )
