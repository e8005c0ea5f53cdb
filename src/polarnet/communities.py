"""Community detection portfolio optimizing directed modularity.

Four building blocks, combinable into combo scripts like "esrfr-30":

* ``f`` greedy agglomeration (Clauset, Newman & Moore 2004): start from
  singletons, repeatedly apply the merge with the largest modularity gain,
  ties to the smallest (lo, hi) pair, until none is positive.  Each
  community row keeps its best gain and partner, or only an upper bound on
  its gains once it may have lost that partner.  A merge recomputes the
  survivor's row; only the absorbed row's old neighbours can take the
  survivor as their best partner, since no other gain towards it can rise
  (its weight stays, its penalty grows and rounding is monotone), and only
  rows whose partner was one of the pair turn stale.  A stale row is
  recomputed when it first holds the largest value.  Short rows are
  recomputed in Python floats, long ones with numpy, by the same operations.
* ``s`` spectral bisection: recursive leading-eigenvector splits of the
  symmetrized modularity matrix, found by LAPACK ``eigh`` on the dense
  matrix of a small subgraph and by ARPACK ``eigsh``, from one fixed start
  vector, on a matrix-free operator above ``_DENSE_LIMIT`` nodes.
* ``e`` extremal optimization: recursive bisection where a low-fitness node
  switches sides.  Each move first draws a rank r with probability
  proportional to r^-tau, then flips the node that a stable sort of the
  fitness puts at rank r (ties in index order), found by selection in O(s)
  for a subgraph of s nodes, without sorting.
* ``r`` reposition: single-node moves to the best neighboring (or fresh)
  group until a full pass yields no improvement; never decreases Q.

Every stage reads one ``_Problem``: the layer's ``modularity.ScaledLayer``
(m and the node strengths; its ``q`` scores every candidate) and one
undirected view, the CSR matrix of w(i->j) + w(j->i) from
``network.symmetric_adjacency``: f seeds its merge rows from it, r walks its
rows, and s and e cut out the block of the subgraph they bisect.

A trailing count ("-30") sets the number of independent seeded restarts of
every e stage, the only stochastic one, in the script; s, r and f are
deterministic and run once per occurrence.  The directed modularity of the
full layer is always the arbiter: internals may symmetrize, accepted splits
and returned scores never do.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
# q_modularity is not called here; it stays bound because perfbench's tracer wraps it.
from .modularity import ScaledLayer, q_modularity
from .network import Layer, Partition, symmetric_adjacency

# Only e stages restart, so the counts of "s-10" and "rsrfr-30" repeat nothing;
# the texts stay because perfbench names its per-script metrics from them.
DEFAULT_PORTFOLIO = ("e-1", "esrfr-30", "r-1", "f-1", "s-10", "rfr-1", "rsrfr-30")

EO_TAU = 1.4
IMPROVE_TOL = 1e-12
_DENSE_LIMIT = 512  # largest subgraph solved with a dense modularity matrix
_SCALAR_ROW = 96  # shortest greedy row recomputed with numpy rather than Python floats


class _NoConvergence(Exception):
    """ARPACK stopped before converging on a subgraph, which then stays whole."""


@dataclass(frozen=True)
class ComboScript:
    """Parsed combo script: a stage sequence plus a restart count."""

    stages: tuple[str, ...]
    repetitions: int = 1

    @classmethod
    def parse(cls, text: str) -> "ComboScript":
        text = text.strip()
        if not text:
            raise ValidationError("empty combo script")
        stages, _, count = text.partition("-")
        reps = 1
        if count:
            try:
                reps = int(count)
            except ValueError:
                raise ValidationError(f"bad repetition count in {text!r}") from None
            if reps < 1:
                raise ValidationError(f"repetition count must be positive in {text!r}")
        bad = set(stages) - set("esfr")
        if not stages or bad:
            raise ValidationError(f"combo script {text!r} may only use stages e, s, f, r")
        return cls(tuple(stages), reps)

    @property
    def stochastic(self) -> bool:
        return "e" in self.stages

    def __str__(self) -> str:
        return "".join(self.stages) + f"-{self.repetitions}"


@dataclass(frozen=True)
class DetectionResult:
    """Partition found by one script together with its recomputed directed Q."""

    partition: Partition
    q: float
    script: str
    seed: int | None
    group_count: int
    flags: tuple[str, ...] = ()

    @classmethod
    def from_codes(
        cls,
        node_ids: Sequence[str],
        script: str,
        seed: int | None,
        codes: np.ndarray,
        q: float,
        flags: tuple[str, ...] = (),
    ) -> "DetectionResult":
        """Wrap canonical ``codes`` over ``node_ids`` and their directed Q."""
        labels = tuple(f"c{k}" for k in range(int(codes.max()) + 1))
        return cls(Partition(tuple(node_ids), codes, labels), q, script, seed, len(labels), flags)


class _Problem(ScaledLayer):
    """The ``ScaledLayer`` of one layer plus the layer and its symmetrized
    adjacency, in the same scaled weights.

    ``adj`` is the n×n CSR matrix with w(i->j) + w(j->i) at (i, j) and
    (j, i), columns sorted; every detection stage reads neighbours from it.
    """

    def __init__(self, layer: Layer):
        super().__init__(layer)
        self.layer = layer
        self.adj = symmetric_adjacency(self.n, self.src, self.dst, self.w)


def _canonical(codes: np.ndarray) -> np.ndarray:
    """Relabel groups 0..G-1 in order of first appearance by node index."""
    mapping: dict[int, int] = {}
    out = np.empty_like(codes)
    for i, c in enumerate(codes.tolist()):
        out[i] = mapping.setdefault(c, len(mapping))
    return out


def _better(q_a: float, codes_a: np.ndarray, q_b: float, codes_b: np.ndarray) -> bool:
    """True when (q_a, codes_a) beats (q_b, codes_b) under (Q, lexicographic)."""
    if q_a != q_b:
        return q_a > q_b
    return tuple(codes_a.tolist()) < tuple(codes_b.tolist())


# -- fast greedy agglomeration ---------------------------------------------


def _fast_greedy(problem: _Problem) -> np.ndarray:
    """Clauset-Newman-Moore agglomeration from singletons.

    Every merge joins the pair of communities with the largest modularity
    gain, ties going to the smallest (lo, hi) pair, until no gain exceeds
    ``IMPROVE_TOL``.  Each row x holds ``best_gain[x]``: either its exact
    best gain, with ``best_to[x]`` the partner (ties to the smaller), or,
    when ``stale[x]``, an upper bound on every gain of the row.  The merges
    depend only on the true gains and the tie rule, never on which rows are
    exact, as long as every row keeps that invariant.  Three rules keep it
    while doing only the work a merge can change.

    * Lazy stale pick.  A merge comes from the first row holding the
      largest value.  If that row is stale, it alone is recomputed and the
      pick is made again.  Once the first row a is exact, its best is at
      least every row's true best, and every earlier row's value, bound or
      exact, is strictly below it.  A tied pair (y, x) with y < a would hold
      that gain in row y, so a's best pair is the smallest tied (lo, hi),
      and the merges are those of the heap order.
    * Update from the absorbed row.  A merge of b into a recomputes row a
      and changes no other pair but those with a.  For a neighbour x of a
      that was not b's, gain(x, a) cannot rise: the link weight is
      unchanged, k_out[a] and k_in[a] only grow, and rounding is monotone,
      so the penalty term rounds no lower.  Its old best or bound still
      holds, and at a tie its partner is already at most a.  So only b's old
      neighbours can take a: an exact x does when its gain towards a
      reaches its best at a partner above a, a stale x when it exceeds its
      bound.  An exact x whose best partner was a or b and that does not
      take a keeps its old best as a bound and turns stale; ``pointed[p]``
      holds every exact row whose partner is p (and some rows no longer so).
    * Scalar short rows.  A row shorter than ``_SCALAR_ROW`` is recomputed
      with Python floats, a longer one with numpy; both do the same IEEE
      operations in the same order, so gain(x, y) == gain(y, x) bit for bit
      whichever row computes it.
    """
    n, m = problem.n, problem.m
    mm = m * m
    k_out, k_in = problem.k_out.copy(), problem.k_in.copy()
    kout, kin = k_out.tolist(), k_in.tolist()
    adj = problem.adj
    spans = list(zip(adj.indptr.tolist(), adj.indptr[1:].tolist()))
    nbr, wboth = adj.indices.tolist(), adj.data.tolist()
    conn = [dict(zip(nbr[lo:hi], wboth[lo:hi])) for lo, hi in spans]
    members: list[list[int]] = [[i] for i in range(n)]
    sizes = np.diff(adj.indptr)
    own = np.repeat(np.arange(n), sizes)
    gains = adj.data / m - (k_out[own] * k_in[adj.indices] + k_out[adj.indices] * k_in[own]) / mm
    full = np.flatnonzero(sizes)
    best_gain = np.full(n, -np.inf)  # -inf marks a dead or empty row
    best_gain[full] = np.maximum.reduceat(gains, adj.indptr[full])
    best_to = np.full(n, -1, dtype=np.int64)
    tied = np.where(gains == np.repeat(best_gain, sizes), adj.indices, n)
    best_to[full] = np.minimum.reduceat(tied, adj.indptr[full])
    best_to = best_to.tolist()
    stale = [False] * n
    pointed: list[set[int]] = [set() for _ in range(n)]
    for x in full.tolist():
        pointed[best_to[x]].add(x)

    def recompute(x: int) -> None:
        """Make row x (not empty) exact."""
        row = conn[x]
        if len(row) < _SCALAR_ROW:
            ko, ki = kout[x], kin[x]
            top, to = -np.inf, n
            for y, w in row.items():
                g = w / m - (ko * kin[y] + kout[y] * ki) / mm
                if g > top or (g == top and y < to):
                    top, to = g, y
        else:
            keys = np.fromiter(row, np.int64, len(row))
            gains = np.fromiter(row.values(), np.float64, len(row)) / m - (
                k_out[x] * k_in[keys] + k_out[keys] * k_in[x]
            ) / mm
            top = gains.max()
            to = int(keys[gains == top].min())
        best_gain[x] = top
        best_to[x] = to
        stale[x] = False
        pointed[to].add(x)

    while True:
        a = int(best_gain.argmax())
        if best_gain[a] <= IMPROVE_TOL:
            break
        if stale[a]:
            recompute(a)
            continue
        b = best_to[a]
        # Merge b into a; a < b keeps the smallest label as the survivor.
        members[a].extend(members[b])
        members[b] = []
        kout[a] += kout[b]
        kin[a] += kin[b]
        k_out[a], k_in[a] = kout[a], kin[a]
        row_a, row_b = conn[a], conn[b]
        del row_a[b], row_b[a]
        for x, wx in row_b.items():
            row_a[x] = w = row_a.get(x, 0.0) + wx
            row_x = conn[x]
            row_x[a] = w
            del row_x[b]
        conn[b] = {}
        best_gain[b] = -np.inf
        if not row_a:
            best_gain[a] = -np.inf
            continue
        recompute(a)
        ko, ki = kout[a], kin[a]
        takes = []
        for x in row_b:
            g = row_a[x] / m - (ko * kin[x] + kout[x] * ki) / mm
            old = best_gain[x]
            if g > old or (g == old and not stale[x] and best_to[x] >= a):
                takes.append((x, g))
        for p in (a, b):
            for x in pointed[p]:
                if best_to[x] == p:
                    stale[x] = True  # marking a stale row again keeps its bound
            pointed[p] = set()
        for x, g in takes:
            best_gain[x] = g
            best_to[x] = a
            stale[x] = False
            pointed[a].add(x)
    codes = np.empty(n, dtype=np.int64)
    for rep in range(n):
        for node in members[rep]:
            codes[node] = rep
    return _canonical(codes)


# -- reposition refinement -------------------------------------------------


def _reposition(problem: _Problem, codes: np.ndarray, max_passes: int = 10_000) -> np.ndarray:
    n, m = problem.n, problem.m
    codes = _canonical(codes)
    k_out, k_in = problem.k_out, problem.k_in
    kout_g = np.zeros(n)
    kin_g = np.zeros(n)
    size_g = np.zeros(n, dtype=np.int64)
    np.add.at(kout_g, codes, k_out)
    np.add.at(kin_g, codes, k_in)
    np.add.at(size_g, codes, 1)
    free = list(range(int(codes.max()) + 1, n))
    heapq.heapify(free)
    bounds = problem.adj.indptr.tolist()
    nbr, wboth = problem.adj.indices.tolist(), problem.adj.data.tolist()
    for _ in range(max_passes):
        moved = False
        for i in range(n):
            lo, hi = bounds[i], bounds[i + 1]
            if lo == hi:
                continue
            g = int(codes[i])
            koi, kii = k_out[i], k_in[i]
            kin_rest = kin_g[g] - kii
            kout_rest = kout_g[g] - koi
            acc: dict[int, float] = {}
            for j, wb in zip(nbr[lo:hi], wboth[lo:hi]):
                h = int(codes[j])
                acc[h] = acc.get(h, 0.0) + wb
            w_same = acc.pop(g, 0.0)
            detach_gain = -w_same / m + (koi * kin_rest + kii * kout_rest) / (m * m)
            best_gain = IMPROVE_TOL
            best_target = -1
            for h in sorted(acc):
                gain = detach_gain + acc[h] / m - (koi * kin_g[h] + kii * kout_g[h]) / (m * m)
                if gain > best_gain:
                    best_gain = gain
                    best_target = h
            if size_g[g] > 1 and detach_gain > best_gain:
                # The heap root is the smallest unused label; consumed on apply.
                best_gain = detach_gain
                best_target = free[0]
            if best_target >= 0:
                if size_g[best_target] == 0:
                    heapq.heappop(free)
                codes[i] = best_target
                kout_g[g] -= koi
                kin_g[g] -= kii
                size_g[g] -= 1
                if size_g[g] == 0:
                    heapq.heappush(free, g)
                kout_g[best_target] += koi
                kin_g[best_target] += kii
                size_g[best_target] += 1
                moved = True
        if not moved:
            break
    return _canonical(codes)


# -- recursive bisection ---------------------------------------------------


def _bisect(
    problem: _Problem, split: Callable[[_Problem, np.ndarray], np.ndarray | None]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Split groups in two with ``split`` until none splits, starting from one group.

    ``split`` returns 0/1 sides for the nodes of ``sub`` or None to leave it
    whole.  A subgraph on which ARPACK does not converge also stays whole,
    and a flag names it.
    """
    codes = np.zeros(problem.n, dtype=np.int64)
    flags: list[str] = []
    next_label = 1
    stack: list[np.ndarray] = [np.arange(problem.n)]
    while stack:
        sub = stack.pop()
        if len(sub) < 2:
            continue
        try:
            sides = split(problem, sub)
        except _NoConvergence:
            flags.append(f"eigsh did not converge on a subgraph of {len(sub)} nodes")
            continue
        if sides is None:
            continue
        half = sub[sides == 1]
        codes[half] = next_label
        next_label += 1
        stack.append(sub[sides == 0])
        stack.append(half)
    return _canonical(codes), tuple(flags)


# -- spectral bisection ----------------------------------------------------


def _split_gain(problem: _Problem, sub: np.ndarray, sides: np.ndarray) -> float:
    """Directed modularity change from splitting ``sub`` along ``sides``."""
    m = problem.m
    # Weight between the halves: side-0 rows of adj times the side-1 indicator.
    far = np.zeros(problem.n)
    far[sub[sides == 1]] = 1.0
    cross = float((problem.adj @ far)[sub[sides == 0]].sum())
    kout0 = float(problem.k_out[sub[sides == 0]].sum())
    kout1 = float(problem.k_out[sub[sides == 1]].sum())
    kin0 = float(problem.k_in[sub[sides == 0]].sum())
    kin1 = float(problem.k_in[sub[sides == 1]].sum())
    return -cross / m + (kout0 * kin1 + kout1 * kin0) / (m * m)


def _leading_vector(problem: _Problem, sub: np.ndarray) -> np.ndarray:
    """Eigenvector of the most positive eigenvalue of the generalized
    symmetrized modularity submatrix; raises _NoConvergence when
    ``eigsh`` does not converge.  ``eigsh`` starts from one fixed generic
    vector, not the all-ones one, which has eigenvalue 0 (zero row sums)."""
    s = len(sub)
    m = problem.m
    local = problem.adj[sub][:, sub]
    kout = problem.k_out[sub]
    kin = problem.k_in[sub]
    # Row sums of the symmetrized modularity matrix restricted to sub.
    row_adj = local @ np.ones(s) / 2.0
    d = row_adj - (kout * float(kin.sum()) + kin * float(kout.sum())) / (2.0 * m)
    if s <= _DENSE_LIMIT:
        dense = local.toarray() / 2.0
        dense -= (np.outer(kout, kin) + np.outer(kin, kout)) / (2.0 * m)
        dense[np.diag_indices(s)] -= d
        return np.linalg.eigh(dense)[1][:, -1]

    def apply(vec: np.ndarray) -> np.ndarray:
        null = (kout * float(kin @ vec) + kin * float(kout @ vec)) / (2.0 * m)
        return local @ vec / 2.0 - null - d * vec

    # Loaded on first call, so that starting the CLI loads no scipy submodule.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    operator = LinearOperator((s, s), matvec=apply, dtype=np.float64)
    start = np.random.default_rng(0).standard_normal(s)
    try:
        return eigsh(operator, k=1, which="LA", v0=start)[1][:, 0]
    except ArpackNoConvergence:
        raise _NoConvergence from None


def _spectral_split(problem: _Problem, sub: np.ndarray) -> np.ndarray | None:
    """Sides by the sign of the leading vector, or None when the split does not raise Q.

    A node without links has a zero component in exact arithmetic; it goes
    to side 1, where ``>= 0.0`` puts an exact zero, whatever the rounding.
    """
    sides = (_leading_vector(problem, sub) >= 0.0).astype(np.int64)
    sides[problem.k_out[sub] + problem.k_in[sub] == 0.0] = 1
    if sides.min() == sides.max() or _split_gain(problem, sub, sides) <= IMPROVE_TOL:
        return None
    return sides


def _spectral(problem: _Problem) -> tuple[np.ndarray, tuple[str, ...]]:
    return _bisect(problem, _spectral_split)


# -- extremal optimization -------------------------------------------------


def _at_stable_rank(values: np.ndarray, rank: int) -> int:
    """The index that ``np.argsort(values, kind="stable")`` puts at ``rank``, in O(s).

    Equal values keep index order, so the pick is the (rank - #smaller)-th
    index holding the rank-th smallest value; ``values`` holds no NaN.
    """
    if rank == 0:
        return int(values.argmin())
    value = np.partition(values, rank)[rank]
    ties = (values == value).nonzero()[0]
    if len(ties) == 1:
        return int(ties[0])
    return int(ties[rank - np.count_nonzero(values < value)])


def _eo_bisect(
    problem: _Problem, sub: np.ndarray, rng: np.random.Generator
) -> np.ndarray | None:
    """One tau-EO bisection of ``sub``; returns sides or None when no split helps.

    Each move draws a rank, then flips the node that a stable sort of the
    fitness would put at that rank.
    """
    s = len(sub)
    m = problem.m
    local = problem.adj[sub][:, sub]
    kout = problem.k_out[sub]
    kin = problem.k_in[sub]
    bounds = list(zip(local.indptr.tolist(), local.indptr[1:].tolist()))
    local_nbr = [local.indices[lo:hi] for lo, hi in bounds]
    local_wb = [local.data[lo:hi] for lo, hi in bounds]
    ksym = np.array([wb.sum() for wb in local_wb])
    sides = rng.integers(0, 2, size=s).astype(np.int64)
    wsym_same = np.zeros(s)
    for i in range(s):
        mask = sides[local_nbr[i]] == sides[i]
        wsym_same[i] = local_wb[i][mask].sum() / 2.0
    agg_out = [float(kout[sides == 0].sum()), float(kout[sides == 1].sum())]
    agg_in = [float(kin[sides == 0].sum()), float(kin[sides == 1].sum())]
    cross = float((1 - sides) @ (local @ sides))
    # Python mirrors of the state that each move touches node by node.
    side_of = sides.tolist()
    same_of = wsym_same.tolist()
    kout_of = kout.tolist()
    kin_of = kin.tolist()
    nbr_of = [nbr.tolist() for nbr in local_nbr]
    wb_of = [wb.tolist() for wb in local_wb]

    def split_gain() -> float:
        return -cross / m + (agg_out[0] * agg_in[1] + agg_out[1] * agg_in[0]) / (m * m)

    best_gain = split_gain()
    best_sides = sides.copy()
    ranks = np.arange(1, s + 1, dtype=np.float64) ** (-EO_TAU)
    cumulative = np.cumsum(ranks / ranks.sum()).tolist()
    moves = min(max(48, 8 * s), 4096)
    patience = max(24, 2 * s)
    stale = 0
    guard = np.where(ksym > 0.0, ksym, 1.0)
    isolated = np.flatnonzero(ksym == 0.0)  # fitness inf: sorted after every linked node
    two_m = 2.0 * m
    # Row 0 carries the in-strength terms of the null model, row 1 the out-strength ones:
    # null = (kout * (agg_in[sides] - kin) + kin * (agg_out[sides] - kout)) / (2m).
    totals = np.empty((2, 2))
    own = np.stack([kin, kout])
    other = np.stack([kout, kin])
    terms = np.empty((2, s))
    in_terms, out_terms = terms
    null = np.empty(s)
    fitness = np.empty(s)
    for _ in range(moves):
        if stale >= patience:
            break
        rank = min(bisect_right(cumulative, rng.random()), s - 1)
        totals[0, 0], totals[0, 1] = agg_in
        totals[1, 0], totals[1, 1] = agg_out
        totals.take(sides, axis=1, out=terms)
        np.subtract(terms, own, out=terms)
        np.multiply(other, terms, out=terms)
        np.add(in_terms, out_terms, out=null)
        np.divide(null, two_m, out=null)
        np.subtract(wsym_same, null, out=fitness)
        np.divide(fitness, guard, out=fitness)
        if len(isolated):
            fitness[isolated] = np.inf
        pick = _at_stable_rank(fitness, rank)
        old = side_of[pick]
        new = 1 - old
        side_of[pick] = new
        sides[pick] = new
        agg_out[old] -= kout_of[pick]
        agg_in[old] -= kin_of[pick]
        agg_out[new] += kout_of[pick]
        agg_in[new] += kin_of[pick]
        same = 0.0
        for j, wb in zip(nbr_of[pick], wb_of[pick]):
            if side_of[j] == new:
                same_of[j] += wb / 2.0
                cross -= wb
                same += wb / 2.0
            else:
                same_of[j] -= wb / 2.0
                cross += wb
            wsym_same[j] = same_of[j]
        same_of[pick] = same
        wsym_same[pick] = same
        gain = split_gain()
        if gain > best_gain + IMPROVE_TOL:
            best_gain = gain
            best_sides = sides.copy()
            stale = 0
        else:
            stale += 1
    if best_gain > IMPROVE_TOL and 0 < best_sides.sum() < s:
        return best_sides
    return None


def _extremal(problem: _Problem, rng: np.random.Generator) -> tuple[np.ndarray, tuple[str, ...]]:
    return _bisect(problem, lambda problem, sub: _eo_bisect(problem, sub, rng))


# -- public entry points ---------------------------------------------------


def derive_seed(root: int, *path: int) -> int:
    """The seed at ``path`` below ``root``: a 32-bit word of SeedSequence([root, *path])."""
    return int(np.random.SeedSequence([root, *path]).generate_state(1)[0])


def refine_reposition(layer: Layer, start: Partition) -> DetectionResult:
    """Single-node move refinement of a starting partition; Q never drops."""
    problem = _Problem(layer)
    codes = _reposition(problem, start.codes_on(layer.node_ids))
    return DetectionResult.from_codes(layer.node_ids, "r-1", None, codes, problem.q(codes))


def run_combo(layer: Layer, script: ComboScript | str, seed: int | None = None) -> DetectionResult:
    """Execute one combo script and return its best partition.

    Stages chain left to right over a current-best partition that starts as
    all singletons: r refines it in place, f, s and the seeded restarts of e
    propose fresh candidates that replace it only when they score a higher
    directed Q (ties broken toward the lexicographically smaller partition).
    Restart k of the e stage at position p draws its generator from
    SeedSequence([seed, p, k]), so identical (layer, script, seed) triples
    reproduce identical partitions.  A script without an e stage reads no
    seed, and its result reports None.
    """
    if isinstance(script, str):
        script = ComboScript.parse(script)
    if script.stochastic and seed is None:
        raise ValidationError(f"script {script} has stochastic stages and needs a seed")
    problem = _Problem(layer)
    seed = seed if script.stochastic else None
    return DetectionResult.from_codes(layer.node_ids, str(script), seed, *_combo(problem, script, seed))


def _combo(
    problem: _Problem, script: ComboScript, seed: int | None
) -> tuple[np.ndarray, float, tuple[str, ...]]:
    """(canonical codes, their directed Q, non-convergence flags) of one script."""
    codes = np.arange(problem.n, dtype=np.int64)
    q = problem.q(codes)
    flags: list[str] = []
    for position, tag in enumerate(script.stages):
        if tag == "r":
            codes = _reposition(problem, codes)
            q = problem.q(codes)
            continue
        if tag == "f":
            candidates = [(_fast_greedy(problem), ())]
        elif tag == "s":
            candidates = [_spectral(problem)]
        else:
            candidates = []
            for repeat in range(script.repetitions):
                rng = np.random.default_rng(np.random.SeedSequence([seed, position, repeat]))
                candidates.append(_extremal(problem, rng))
        for cand, cand_flags in candidates:
            cand_q = problem.q(cand)
            flags.extend(cand_flags)
            if _better(cand_q, cand, q, codes):
                codes, q = cand, cand_q
    return codes, q, tuple(flags)


def run_portfolio(
    layer: Layer,
    scripts: tuple[str, ...] = DEFAULT_PORTFOLIO,
    seed: int | None = None,
) -> DetectionResult:
    """Run every script and keep the best result by (Q, lexicographic partition).

    Script i runs with the derived seed ``derive_seed(seed, i)`` so the
    portfolio is reproducible from one configuration seed.
    """
    if not scripts:
        raise ValidationError("empty portfolio")
    problem = _Problem(layer)
    best = None  # (script, seed, codes, q, flags) of the winner so far
    for i, text in enumerate(scripts):
        script = ComboScript.parse(text) if isinstance(text, str) else text
        sub_seed = None
        if script.stochastic:
            if seed is None:
                raise ValidationError(f"script {script} has stochastic stages and needs a seed")
            sub_seed = derive_seed(seed, i)
        codes, q, flags = _combo(problem, script, sub_seed)
        if best is None or _better(q, codes, best[3], best[2]):
            best = (str(script), sub_seed, codes, q, flags)
    return DetectionResult.from_codes(layer.node_ids, *best)
