"""Link-overlap and information-theoretic similarity between layers.

Layers are binarized to sets of ordered non-self node pairs over the shared
registry, held as sorted int64 pair keys.  ``LinkIndicatorPair`` intersects
two such sets into the 2x2 pair-indicator table, which every similarity
reads: set overlap (Jaccard, partial Jaccard) or normalized mutual
information.  Entropies are in bits and use the Miller-Madow corrected
estimator by default, with the plain maximum-likelihood estimator available
as a switch, from one entropy function.  Every information score reads one
pass over its joint count table: three entropies give I(X;Y) and both NMIs.
Error bars come from leave-one-node-out jackknife resampling: ``jackknife``
copies the network per replicate, and ``LinkIndicatorPair.leave_one_out``
gives every replicate's table in closed form from per-node link counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Sequence

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
    try:
        return LinkIndicatorPair.from_layers(x, y).partial_jaccard()
    except UndefinedMetricError:
        raise UndefinedMetricError(f"layer {y.name!r} has no links") from None


def _checked(counts: Sequence | np.ndarray) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.float64)
    if (counts < 0).any():
        raise ValidationError("counts must be non-negative")
    total = counts.sum()
    if not np.isfinite(total):
        raise ValidationError("counts must be finite")
    if total <= 0:
        raise UndefinedMetricError("all counts are zero")
    return counts


def _entropy(counts: np.ndarray, estimator: str) -> float:
    """Bits from checked 1-D counts, plus (p_observed - 1) / (2n) for "mm"."""
    n = counts.sum()
    p = counts / n
    p = p[p > 0]  # after dividing: a count far below n may round to p = 0
    h = float(-(p * np.log2(p)).sum())
    if estimator == "mm":
        h += (np.count_nonzero(counts) - 1) / (2.0 * n)
    return h


def entropy_ml(counts: Sequence[float] | np.ndarray) -> float:
    """Maximum-likelihood Shannon entropy in bits; zero counts contribute 0."""
    return _entropy(_checked(counts).ravel(), "ml")


def entropy_mm(counts: Sequence[float] | np.ndarray) -> float:
    """ML entropy plus the Miller-Madow correction (p_observed - 1) / (2n)."""
    return _entropy(_checked(counts).ravel(), "mm")


class MIResult(NamedTuple):
    """Mutual information in bits: clamped value, raw estimate, degeneracy flag."""

    value: float
    raw: float
    degenerate: bool


def _information(table: Sequence | np.ndarray, estimator: str) -> tuple[MIResult, float, float]:
    """(I(X;Y), H(X), H(Y)) from one check of the table and at most three entropies."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2:
        raise ValidationError("joint table must be 2-D")
    table = _checked(table)
    if estimator not in ESTIMATORS:
        raise ValidationError(f"unknown estimator {estimator!r}")
    hx = _entropy(table.sum(axis=1), estimator)
    hy = _entropy(table.sum(axis=0), estimator)
    degenerate = int((table > 0).sum()) <= 1
    raw = 0.0 if degenerate else hx + hy - _entropy(table.ravel(), estimator)
    return MIResult(max(raw, 0.0), raw, degenerate), hx, hy


def _normalized(raw: float, h: float) -> float:
    if h <= 0.0:
        raise UndefinedMetricError("normalizing margin has zero entropy")
    return raw / h


def mutual_information(table: Sequence | np.ndarray, estimator: str = "mm") -> MIResult:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) over a 2-D joint count table."""
    return _information(table, estimator)[0]


def nmi(table: Sequence | np.ndarray, respect_to: str = "x", estimator: str = "mm") -> float:
    """NMI(X|Y) = I(X;Y) / H(X), rows being X and columns Y.

    ``respect_to`` picks the normalizing margin ("x" rows, "y" columns).
    """
    if respect_to not in ("x", "y"):
        raise ValidationError(f"respect_to must be 'x' or 'y', got {respect_to!r}")
    mi, hx, hy = _information(table, estimator)
    return _normalized(mi.raw, hx if respect_to == "x" else hy)


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

    @classmethod
    def leave_one_out(cls, x: Layer, y: Layer, nodes: Sequence[int]) -> list["LinkIndicatorPair"]:
        """The counts of ``from_layers`` on each node's ``drop_node`` copy, in closed form.

        Removing v removes exactly the pairs incident to v, so each count drops
        by v's incident pairs in X, Y and X ∩ Y, and the universe shrinks to
        (n - 1)(n - 2).  The counts are exact integers.
        """
        _check_shared_registry(x, y)
        size = len(x.node_ids)
        a, b = _link_keys(x), _link_keys(y)
        v = np.asarray(nodes, dtype=np.int64)

        def incident(keys: np.ndarray) -> np.ndarray:
            ends = np.bincount(keys // size, minlength=size) + np.bincount(keys % size, minlength=size)
            return ends[v]

        both = np.intersect1d(a, b, assume_unique=True)
        n = x.node_count - 1
        n11 = len(both) - incident(both)
        n10 = len(a) - incident(a) - n11
        n01 = len(b) - incident(b) - n11
        n00 = n * (n - 1) - n11 - n10 - n01
        if (n00 < 0).any():
            raise ValidationError("link sets exceed the ordered-pair universe")
        return [cls(*counts) for counts in zip(n11.tolist(), n10.tolist(), n01.tolist(), n00.tolist())]

    def swapped(self) -> "LinkIndicatorPair":
        """The counts of the layers in the other order."""
        return LinkIndicatorPair(self.n11, self.n01, self.n10, self.n00)

    def partial_jaccard(self) -> float:
        """|X ∩ Y| / |Y|, undefined when Y is empty."""
        if self.n11 + self.n01 == 0:
            raise UndefinedMetricError("layer y has no links")
        return self.n11 / (self.n11 + self.n01)

    def nmi(self, estimator: str = "mm") -> tuple[float, float]:
        """(NMI(X|Y), NMI(Y|X)), undefined when either layer's indicator has zero entropy."""
        mi, hx, hy = _information(self.table(), estimator)
        return _normalized(mi.raw, hx), _normalized(mi.raw, hy)

    def table(self) -> np.ndarray:
        return np.array([[self.n11, self.n10], [self.n01, self.n00]], dtype=np.float64)


def link_nmi(x: Layer, y: Layer, estimator: str = "mm") -> tuple[float, float]:
    """Pairwise-link NMI between two layers: (NMI(X|Y), NMI(Y|X)).

    Both layers are read as indicator variables over all ordered non-self
    node pairs; NMI(X|Y) normalizes the shared information by H(X).
    """
    return LinkIndicatorPair.from_layers(x, y).nmi(estimator)


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
    mi, ha, hb = _information(np.bincount(pairs, minlength=na * nb).reshape(na, nb), estimator)
    return _normalized(mi.raw, ha), _normalized(mi.raw, hb)


@dataclass(frozen=True)
class MetricEstimate:
    """Point value with jackknife replicate mean and 2-sigma spread."""

    point: float
    jack_mean: float
    two_sigma: float
    samples: int
    skipped: int = 0
    unreliable: bool = False

    @classmethod
    def from_replicates(cls, point: float, replicates: Sequence[float | None]) -> "MetricEstimate":
        """Summarize one replicate per active node, in index order, None where the
        metric is undefined: those are skipped and counted, and more than 10%
        skipped flags the estimate unreliable.  ``two_sigma`` is 2 * std (ddof=0)."""
        values = np.array([value for value in replicates if value is not None], dtype=np.float64)
        if not len(values):
            raise UndefinedMetricError("metric undefined on every jackknife replicate")
        samples = len(replicates)
        skipped = samples - len(values)
        return cls(
            point=float(point),
            jack_mean=float(values.mean()),
            two_sigma=float(2.0 * values.std(ddof=0)),
            samples=samples,
            skipped=skipped,
            unreliable=skipped > 0.1 * samples,
        )


def replicate_values(score: Callable[[Any], float], replicates: Iterable[Any]) -> list[float | None]:
    """score(replicate) per replicate as a float, None where it is undefined."""
    values: list[float | None] = []
    for replicate in replicates:
        try:
            values.append(float(score(replicate)))
        except UndefinedMetricError:
            values.append(None)
    return values


def jackknife(
    metric: Callable[[MultiplexNetwork], float],
    network: MultiplexNetwork,
) -> MetricEstimate:
    """Leave-one-node-out resampling of a scalar network metric, by brute force.

    One replicate per active node, in index order: the node and its incident
    links are removed from every layer and the metric re-evaluated on the
    copy.  Bind metric arguments via a closure.
    """
    point = float(metric(network))
    replicates = (network.drop_node(v) for v in network.active_indices())
    return MetricEstimate.from_replicates(point, replicate_values(metric, replicates))
