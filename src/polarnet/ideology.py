"""Party ideology coordinates and the demodularity-distance correlation.

Parties live on a two-axis plane (left-right, conservative-liberal).  The
analysis pairs every two distinct parties, takes the Euclidean distance
between their positions and the demodularity from one to the other, and
reports the Pearson correlation between distance and demodularity with a
t-based two-sided p-value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
from scipy.special import stdtr

from .errors import ParseError, UndefinedMetricError, ValidationError
from .modularity import demodularity_matrix
from .network import Layer, Partition, read_table


@dataclass(frozen=True)
class PartyPosition:
    """One party's coordinates: left-right and conservative-liberal."""

    party: str
    lr: float
    cl: float


@dataclass(frozen=True)
class DistanceDemodPair:
    """One scatter point: party pair, ideological distance, demodularity."""

    from_party: str
    to_party: str
    distance: float
    demod: float


@dataclass(frozen=True)
class DemodDistanceResult:
    """Scatter pairs plus the Pearson correlation over them."""

    pairs: tuple[DistanceDemodPair, ...]
    r: float
    p_value: float


def read_positions(path: str | Path) -> dict[str, PartyPosition]:
    """Read a positions CSV with columns party, lr, cl.

    A header row spelling exactly those names is skipped.  Duplicate party
    labels are rejected.  Returns parties in file order.
    """
    positions: dict[str, PartyPosition] = {}
    for line, (party, lr_cell, cl_cell) in read_table(path, ("party", "lr", "cl")):
        party = party.strip()
        if not party:
            raise ParseError("empty party label", path=str(path), line=line)
        if party in positions:
            raise ParseError(f"duplicate party {party!r}", path=str(path), line=line)
        try:
            lr, cl = float(lr_cell), float(cl_cell)
        except ValueError:
            raise ParseError(
                f"bad coordinates {lr_cell!r}, {cl_cell!r}", path=str(path), line=line
            ) from None
        if not (math.isfinite(lr) and math.isfinite(cl)):
            raise ParseError("coordinates must be finite", path=str(path), line=line)
        positions[party] = PartyPosition(party=party, lr=lr, cl=cl)
    if not positions:
        raise ParseError("no party positions found", path=str(path), line=1)
    return positions


def euclidean_distance(a: PartyPosition, b: PartyPosition) -> float:
    """Straight-line distance between two parties' coordinates."""
    return math.hypot(a.lr - b.lr, a.cl - b.cl)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation coefficient.

    Requires at least three paired observations and nonconstant inputs.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise ValidationError("inputs must be equal-length 1-d sequences")
    if len(x) < 3:
        raise ValidationError("Pearson correlation needs at least 3 observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedMetricError("Pearson correlation undefined for constant input")
    r = float((dx * dy).sum()) / (sx * sy)
    return min(1.0, max(-1.0, r))


def pearson_pvalue(r: float, n: int) -> float:
    """Two-sided p-value for a Pearson coefficient on n observations.

    Uses the exact-null transform t = r sqrt((n-2)/(1-r^2)) against the
    t-distribution with n-2 degrees of freedom.  |r| = 1 gives p = 0.
    """
    if not -1.0 <= r <= 1.0:
        raise ValidationError(f"correlation {r!r} outside [-1, 1]")
    if n < 3:
        raise ValidationError("p-value needs at least 3 observations")
    if abs(r) == 1.0:
        return 0.0
    stat = r * math.sqrt((n - 2) / (1.0 - r * r))
    return float(2.0 * stdtr(n - 2, -abs(stat)))


def demod_distance_analysis(
    layer: Layer,
    partition: Partition,
    positions: Mapping[str, PartyPosition],
    *,
    normalization: str = "out_weight",
    ordered: bool = True,
) -> DemodDistanceResult:
    """Correlate party-pair demodularity with ideological distance.

    Pairs are the ordered (from, to) combinations of distinct partition
    groups that have known positions and a defined demodularity.  With
    ``ordered=False`` the two directions of each pair are averaged into one
    point (skipped when either direction is undefined).  Needs at least
    three usable pairs.
    """
    matrix = demodularity_matrix(layer, partition, normalization=normalization)
    usable = [label for label in matrix.labels if label in positions]
    pairs = []
    for i, f in enumerate(usable):
        for t_ in usable if ordered else usable[i + 1 :]:
            if f == t_:
                continue
            forward = matrix.value(f, t_)
            backward = forward if ordered else matrix.value(t_, f)
            if forward is None or backward is None:
                continue
            pairs.append(
                DistanceDemodPair(
                    from_party=f,
                    to_party=t_,
                    distance=euclidean_distance(positions[f], positions[t_]),
                    demod=forward if ordered else 0.5 * (forward + backward),
                )
            )
    if len(pairs) < 3:
        raise UndefinedMetricError(
            f"correlation needs at least 3 usable party pairs, found {len(pairs)}"
        )
    r = pearson([p.distance for p in pairs], [p.demod for p in pairs])
    p_value = pearson_pvalue(r, len(pairs))
    return DemodDistanceResult(tuple(pairs), r, p_value)
