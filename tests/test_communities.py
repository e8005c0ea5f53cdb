"""Combo scripts and the modularity-optimizing detection portfolio."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from helpers import layer_of, random_digraph
from oracles import best_partition_oracle, fast_greedy_oracle
from polarnet import communities
from polarnet.communities import (
    DEFAULT_PORTFOLIO,
    ComboScript,
    refine_reposition,
    run_combo,
    run_portfolio,
)
from polarnet.errors import UndefinedMetricError, ValidationError
from polarnet.infometrics import partition_nmi
from polarnet.modularity import q_modularity
from polarnet.network import Partition, generate_planted_partition


def _groups(partition: Partition) -> set[frozenset[str]]:
    by_label: dict[str, set[str]] = {}
    for node, label in partition.assignment.items():
        by_label.setdefault(label, set()).add(node)
    return {frozenset(v) for v in by_label.values()}


def _two_triangles(cross: bool = True):
    links = []
    for base in (0, 3):
        for i in range(3):
            for j in range(3):
                if i != j:
                    links.append((base + i, base + j))
    if cross:
        links.append((0, 3))
    return layer_of(6, links)


# -- combo-script parsing ---------------------------------------------------


def test_parse_script_with_count():
    script = ComboScript.parse("esrfr-30")
    assert script.stages == ("e", "s", "r", "f", "r")
    assert script.repetitions == 30
    assert script.stochastic
    assert str(script) == "esrfr-30"


def test_parse_script_defaults_to_one_repetition():
    script = ComboScript.parse("f")
    assert script == ComboScript(("f",), 1)
    assert not script.stochastic
    assert str(script) == "f-1"
    assert ComboScript.parse("rfr-1") == ComboScript(("r", "f", "r"), 1)
    assert not ComboScript.parse("rfr-1").stochastic
    # Only e stages are stochastic: s solves once from a fixed start vector.
    assert not ComboScript.parse("s-10").stochastic
    assert not ComboScript.parse("rsrfr-30").stochastic


@pytest.mark.parametrize("text", ["", "x-3", "e-0", "e-x", "-5", "ef2", "E-1"])
def test_parse_script_rejects_bad_input(text):
    with pytest.raises(ValidationError):
        ComboScript.parse(text)


def test_parse_round_trips_canonical_text():
    for text in DEFAULT_PORTFOLIO:
        assert str(ComboScript.parse(text)) == text


# -- individual detectors ---------------------------------------------------


def test_fast_greedy_finds_two_cliques():
    layer = _two_triangles()
    result = run_combo(layer, "f-1")
    assert _groups(result.partition) == {
        frozenset({"n0", "n1", "n2"}),
        frozenset({"n3", "n4", "n5"}),
    }
    assert result.q == pytest.approx(q_modularity(layer, result.partition), abs=1e-15)
    assert result.script == "f-1"
    assert result.seed is None
    assert result.group_count == 2


def test_fast_greedy_matches_exhaustive_optimum():
    links = [
        (base + i, base + j, 1.0)
        for base in (0, 3)
        for i in range(3)
        for j in range(3)
        if i != j
    ] + [(0, 3, 1.0)]
    layer = layer_of(6, [(s, t) for s, t, _ in links])
    best_q, _ = best_partition_oracle(6, links)
    assert run_combo(layer, "f-1").q == pytest.approx(best_q, abs=1e-12)


def _greedy_and_oracle(layer):
    src, dst, w = layer.metric_view()
    links = list(zip(src.tolist(), dst.tolist(), w.tolist()))
    got = communities._fast_greedy(communities._Problem(layer)).tolist()
    return got, fast_greedy_oracle(len(layer.node_ids), links)


# (source, target, k, day offset or None) over a registry that may hold nodes
# no link touches; equal endpoints make self-links, which the metric view
# drops.  k sets the weight: 1 unweighted, 1 + k % 3 for small integers, k/8
# for floats.  Eighths keep every sum exact, so the oracle's running total m
# equals numpy's pairwise w.sum() and the gains agree bit for bit; repeats
# on different days still add up to new pair weights.
_GREEDY_LINK = st.tuples(
    st.integers(0, 11),
    st.integers(0, 11),
    st.integers(1, 40),
    st.one_of(st.none(), st.integers(0, 3)),
)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 12),
    links=st.lists(_GREEDY_LINK, min_size=1, max_size=40),
    kind=st.sampled_from(["unweighted", "integer", "eighths"]),
)
@example(  # two triangles, a self-link-only node n6 and an isolated n7
    n=8,
    links=[(0, 1, 1, None), (1, 2, 1, None), (2, 0, 1, None), (3, 4, 1, None),
           (4, 5, 1, None), (5, 3, 1, None), (6, 6, 1, None)],
    kind="unweighted",
)
@example(  # a neighbour's gain towards the survivor ties its best at a larger partner
    n=6,
    links=[(0, 5, 1, None), (2, 0, 1, None), (4, 0, 1, None), (3, 0, 1, None), (2, 4, 1, None),
           (2, 2, 1, None), (5, 3, 1, None), (5, 4, 1, None), (4, 3, 1, None), (2, 5, 1, None),
           (3, 4, 1, None)],
    kind="unweighted",
)
@example(  # a stale row whose bound ties the largest exact best at a later row is
    # recomputed before that row merges
    n=6,
    links=[(5, 2, 1, None), (1, 4, 1, None), (2, 0, 1, None), (4, 3, 1, None), (3, 0, 1, None)],
    kind="unweighted",
)
@example(  # a stale neighbour's gain towards the survivor rises above its bound
    n=10,
    links=[(4, 0, 1, None), (8, 0, 1, None), (3, 9, 1, None), (7, 8, 1, None), (7, 0, 1, None),
           (2, 1, 1, None), (8, 1, 1, None), (0, 2, 1, None), (6, 8, 1, None), (5, 0, 1, None),
           (4, 2, 1, None), (1, 4, 1, None), (1, 6, 1, None), (8, 5, 1, None), (0, 3, 1, None),
           (8, 7, 1, None)],
    kind="unweighted",
)
@example(  # a stale neighbour's gain towards the survivor only ties its bound: it stays stale
    n=10,
    links=[(1, 5, 1, None), (7, 0, 1, None), (4, 3, 1, None), (1, 4, 1, None), (2, 5, 1, None),
           (5, 4, 1, None), (9, 6, 1, None), (9, 0, 1, None), (2, 8, 1, None), (4, 0, 1, None),
           (7, 8, 1, None), (2, 3, 1, None)],
    kind="unweighted",
)
@example(  # two lone links: each merge leaves the survivor with an empty row
    n=4,
    links=[(0, 3, 1, None), (1, 2, 1, None)],
    kind="unweighted",
)
def test_fast_greedy_equals_heap_oracle(n, links, kind):
    weight = {"unweighted": lambda k: 1.0, "integer": lambda k: 1.0 + k % 3,
              "eighths": lambda k: k / 8.0}[kind]
    rows = [(s % n, t % n, weight(k), None if day is None else 738000 + day)
            for s, t, k, day in links]
    assume(any(s != t for s, t, _, _ in rows))
    layer = layer_of(n, rows, weighted=kind != "unweighted")
    got, expected = _greedy_and_oracle(layer)
    assert got == expected


# The last layer has the shape of the quarter-scale benchmark layers: 800
# nodes and 6,832 links, whose unweighted gains tie heavily.
@pytest.mark.parametrize(
    "groups, size, p_in, p_out, seed",
    [(2, 30, 0.3, 0.05, 1), (4, 25, 0.2, 0.03, 2), (6, 20, 0.25, 0.04, 3), (3, 50, 0.1, 0.05, 4),
     (8, 100, 0.08, 0.001, 7)],
)
def test_fast_greedy_equals_heap_oracle_on_planted_layers(groups, size, p_in, p_out, seed):
    layer = generate_planted_partition(groups, size, p_in, p_out, seed=seed)[0].layer("links")
    got, expected = _greedy_and_oracle(layer)
    assert got == expected


def test_fast_greedy_equals_heap_oracle_on_weighted_planted_layer():
    # The 800-node planted layer above with integer weights 1-3.
    planted = generate_planted_partition(8, 100, 0.08, 0.001, seed=7)[0].layer("links")
    src, dst, _ = planted.metric_view()
    weights = np.random.default_rng(7).integers(1, 4, size=len(src))
    layer = layer_of(800, list(zip(src.tolist(), dst.tolist(), weights.tolist())), weighted=True)
    got, expected = _greedy_and_oracle(layer)
    assert got == expected


def test_spectral_recovers_planted_groups():
    net, truth = generate_planted_partition(2, 12, 0.8, 0.05, seed=6)
    layer = net.layer("links")
    result = run_combo(layer, "s-1")
    nodes = sorted(truth.assignment)
    both = partition_nmi(result.partition, truth, nodes, estimator="ml")
    assert min(both) >= 0.85
    assert result.q >= 0.3


def test_spectral_splits_planted_layer_without_flags():
    # Power iteration capped at 10*s steps stalled here at Q 0.388 with 15 flags.
    net, _ = generate_planted_partition(8, 50, 0.1, 0.005, seed=1)
    result = run_combo(net.layer("links"), "s-10", 1004)
    assert result.flags == ()
    assert result.q > 0.45


def _sparse_sized_planted_layer():
    net, _ = generate_planted_partition(6, 100, 0.05, 0.002, seed=8)
    layer = net.layer("links")
    # A strict subset, so the generalized matrix's diagonal correction is non-zero.
    sub = np.setdiff1d(np.arange(600), np.arange(0, 600, 8))
    assert len(sub) > communities._DENSE_LIMIT
    return layer, sub


def test_sparse_leading_vector_matches_dense_eigh():
    layer, sub = _sparse_sized_planted_layer()
    src, dst, w = layer.metric_view()
    adj = np.zeros((600, 600))
    np.add.at(adj, (src, dst), w)
    k_out, k_in, m = adj.sum(axis=1), adj.sum(axis=0), adj.sum()
    sym = (adj + adj.T) / 2.0 - (np.outer(k_out, k_in) + np.outer(k_in, k_out)) / (2.0 * m)
    block = sym[np.ix_(sub, sub)]
    block -= np.diag(block.sum(axis=1))
    dense_sides = np.linalg.eigh(block)[1][:, -1] >= 0.0
    vector = communities._leading_vector(communities._Problem(layer), sub)
    sparse_sides = vector >= 0.0
    assert 0 < sparse_sides.sum() < len(sub)
    assert (sparse_sides == dense_sides).all() or (sparse_sides != dense_sides).all()


def test_arpack_non_convergence_is_flagged(monkeypatch):
    layer, _ = _sparse_sized_planted_layer()

    def stall(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(communities, "eigsh", stall)
    # An s stage solves once, so it flags once whatever the script's count.
    for script in ("s-1", "s-10"):
        result = run_combo(layer, script)
        assert result.flags == ("eigsh did not converge on a subgraph of 600 nodes",)
        assert result.group_count == 1


def test_spectral_side_of_unlinked_node_ignores_rounding(monkeypatch):
    # n6 has only a self-link and n7 no link: their exact components are 0,
    # so a rounding error of either sign must leave them on the same side.
    links = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (6, 6)]
    layer = layer_of(8, links)
    problem = communities._Problem(layer)
    leading = communities._leading_vector
    sides, codes = [], []
    for noise in (1e-17, -1e-17):

        def noisy(problem, sub, noise=noise):
            vector = leading(problem, sub)
            vector[sub >= 6] = noise
            return vector

        monkeypatch.setattr(communities, "_leading_vector", noisy)
        sides.append(communities._spectral_split(problem, np.arange(8)).tolist())
        codes.append(run_combo(layer, "s-1").partition.codes(layer.node_ids).tolist())
    assert sides[0] == sides[1]
    assert sides[0][6:] == [1, 1]
    assert codes[0] == codes[1]


@pytest.mark.parametrize("size", ["dense", "sparse"])
def test_spectral_stage_solves_once(monkeypatch, size):
    # eigh, and eigsh from its fixed start vector, make each split a function
    # of the subgraph alone, so the count of an s-only script repeats nothing.
    if size == "dense":
        layer = generate_planted_partition(4, 40, 0.15, 0.01, seed=3)[0].layer("links")
    else:
        layer, _ = _sparse_sized_planted_layer()
    once = run_combo(layer, "s-1")
    calls = []
    spectral = communities._spectral

    def counted(problem):
        calls.append(problem.n)
        return spectral(problem)

    monkeypatch.setattr(communities, "_spectral", counted)
    result = run_combo(layer, "s-10")
    assert calls == [len(layer.node_ids)]
    assert result == dataclasses.replace(once, script="s-10")
    assert result.seed is None
    assert result.flags == ()
    if size == "dense":
        assert round(result.q, 6) == 0.516967
        assert result.group_count == 5


def test_extremal_recovers_planted_groups():
    net, truth = generate_planted_partition(2, 12, 0.8, 0.05, seed=6)
    layer = net.layer("links")
    result = run_combo(layer, "e-1", seed=3)
    nodes = sorted(truth.assignment)
    both = partition_nmi(result.partition, truth, nodes, estimator="ml")
    assert min(both) >= 0.85
    assert result.q >= 0.3


def test_reposition_never_decreases_q():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(5, 16))
        links = random_digraph(rng, n, 0.35)
        if not links:
            continue
        layer = layer_of(n, links)
        codes = rng.integers(0, 3, size=n)
        start = Partition.from_assignment(
            {f"n{i}": f"g{codes[i]}" for i in range(n)},
            tuple(f"g{k}" for k in sorted(set(codes.tolist()))),
        )
        q_start = q_modularity(layer, start)
        result = refine_reposition(layer, start)
        assert result.q >= q_start - 1e-12


def test_reposition_is_idempotent():
    layer = _two_triangles()
    start = Partition.from_assignment(
        {f"n{i}": "g0" if i < 2 else "g1" for i in range(6)}, ("g0", "g1")
    )
    once = refine_reposition(layer, start)
    twice = refine_reposition(layer, once.partition)
    assert _groups(once.partition) == _groups(twice.partition)
    assert twice.q == once.q


def test_reposition_repairs_corrupted_planted_partition():
    net, truth = generate_planted_partition(2, 10, 0.9, 0.05, seed=2)
    layer = net.layer("links")
    corrupted = dict(truth.assignment)
    flipped = sorted(corrupted)[:3]
    for node in flipped:
        corrupted[node] = "g1" if corrupted[node] == "g0" else "g0"
    start = Partition.from_assignment(corrupted, truth.labels)
    result = refine_reposition(layer, start)
    assert result.q > q_modularity(layer, start)
    assert _groups(result.partition) == _groups(truth)


# -- combo scripts ----------------------------------------------------------


def test_combo_requires_seed_only_for_stochastic_stages():
    layer = _two_triangles()
    assert run_combo(layer, "f-1").q > 0  # deterministic, no seed needed
    assert run_combo(layer, "rfr-1").q > 0
    with pytest.raises(ValidationError):
        run_combo(layer, "e-1")
    with pytest.raises(ValidationError):
        run_combo(layer, "esrfr-30")


def test_combo_reposition_from_singletons_finds_triangles():
    result = run_combo(_two_triangles(), "r-1")
    assert result.group_count == 2
    assert result.q > 0.3


def test_combo_is_deterministic_for_fixed_seed():
    rng = np.random.default_rng(23)
    layer = layer_of(14, random_digraph(rng, 14, 0.3))
    a = run_combo(layer, "esrfr-5", seed=42)
    b = run_combo(layer, "esrfr-5", seed=42)
    assert a.partition.assignment == b.partition.assignment
    assert a.q == b.q
    assert a.seed == 42
    assert a.script == "esrfr-5"


def test_combo_without_e_stage_reports_no_seed():
    # Only e stages read the seed; a script without one matches run_portfolio's None.
    layer = generate_planted_partition(2, 10, 0.6, 0.05, seed=4)[0].layer("links")
    for script in ("s-10", "f-1", "r-1", "rsrfr-30"):
        result = run_combo(layer, script, 1004)
        assert result.seed is None, script
        assert result == run_combo(layer, script)
        assert result.seed == run_portfolio(layer, (script,), seed=1004).seed
    assert run_combo(layer, "esrfr-2", 1004).seed == 1004


def test_combo_never_returns_worse_than_singletons():
    rng = np.random.default_rng(29)
    for script in ("e-2", "s-2", "f-1", "rsr-2"):
        layer = layer_of(10, random_digraph(rng, 10, 0.3))
        singletons = Partition.from_assignment(
            {f"n{i}": f"g{i}" for i in range(10)}, tuple(f"g{i}" for i in range(10))
        )
        floor = q_modularity(layer, singletons)
        assert run_combo(layer, script, seed=7).q >= floor - 1e-12


# -- portfolio --------------------------------------------------------------


def test_portfolio_keeps_best_scoring_script():
    rng = np.random.default_rng(37)
    layer = layer_of(12, random_digraph(rng, 12, 0.35))
    scripts = ("f-1", "e-2", "s-2")
    best = run_portfolio(layer, scripts, seed=11)
    per_script = []
    for i, text in enumerate(scripts):
        script = ComboScript.parse(text)
        sub_seed = None
        if script.stochastic:
            sub_seed = int(np.random.SeedSequence([11, i]).generate_state(1)[0])
        per_script.append(run_combo(layer, script, sub_seed))
    assert best.q == max(r.q for r in per_script)
    winners = [r for r in per_script if r.q == best.q]
    assert any(_groups(r.partition) == _groups(best.partition) for r in winners)


def test_portfolio_requires_seed_when_any_script_is_stochastic():
    layer = _two_triangles()
    with pytest.raises(ValidationError):
        run_portfolio(layer, ("f-1", "e-1"))
    assert run_portfolio(layer, ("f-1", "r-1")).q > 0
    assert run_portfolio(layer, ("f-1", "s-1")).q > 0


def test_portfolio_rejects_empty_script_list():
    with pytest.raises(ValidationError):
        run_portfolio(_two_triangles(), ())


def test_portfolio_builds_one_problem_per_layer(monkeypatch):
    layer = generate_planted_partition(2, 10, 0.6, 0.05, seed=4)[0].layer("links")
    expected = run_portfolio(layer, DEFAULT_PORTFOLIO, seed=9)
    built = []

    class Counted(communities._Problem):
        def __init__(self, layer):
            built.append(layer.name)
            super().__init__(layer)

    monkeypatch.setattr(communities, "_Problem", Counted)
    assert run_portfolio(layer, DEFAULT_PORTFOLIO, seed=9) == expected
    assert built == ["links"]


def test_portfolio_builds_one_partition(monkeypatch):
    layer = generate_planted_partition(2, 10, 0.6, 0.05, seed=4)[0].layer("links")
    built = []
    init = Partition.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Partition, "__init__", counted)
    run_portfolio(layer, DEFAULT_PORTFOLIO, seed=9)
    assert len(built) == 1


@pytest.mark.parametrize("kind", ["random", "planted"])
def test_reported_q_is_the_q_of_the_returned_partition(kind):
    for seed in range(2):
        rng = np.random.default_rng(seed)
        if kind == "random":
            layer = layer_of(14, random_digraph(rng, 14, 0.3, weighted=bool(seed)))
        else:
            layer = generate_planted_partition(3, 12, 0.5, 0.05, seed=seed)[0].layer("links")
        # A start whose labels are not in first-appearance order.
        start = Partition.from_assignment(
            {node: f"g{3 - int(rng.integers(0, 4))}" for node in layer.node_ids}
        )
        results = [
            run_portfolio(layer, seed=seed),
            run_combo(layer, "f-1"),
            run_combo(layer, "s-1"),
            refine_reposition(layer, start),
        ]
        results += [run_combo(layer, script, seed) for script in DEFAULT_PORTFOLIO]
        for result in results:
            assert result.q.hex() == q_modularity(layer, result.partition).hex(), result.script
            assert result.group_count == len(result.partition.labels)


def test_portfolio_is_deterministic():
    rng = np.random.default_rng(41)
    layer = layer_of(13, random_digraph(rng, 13, 0.3))
    a = run_portfolio(layer, seed=5)
    b = run_portfolio(layer, seed=5)
    assert a.partition.assignment == b.partition.assignment
    assert (a.q, a.script) == (b.q, b.script)


def test_portfolio_attains_exhaustive_optimum_on_small_graphs():
    rng = np.random.default_rng(43)
    found = 0
    for trial in range(5):
        n = int(rng.integers(5, 8))
        links = random_digraph(rng, n, 0.4)
        if not links:
            continue
        layer = layer_of(n, links)
        best_q, _ = best_partition_oracle(n, links)
        got = run_portfolio(layer, seed=trial)
        assert got.q <= best_q + 1e-12  # never exceeds the true optimum
        if got.q == pytest.approx(best_q, abs=1e-12):
            found += 1
    assert found >= 4  # the portfolio should almost always reach it


def test_detection_on_empty_layer_is_undefined():
    layer = layer_of(3, [])
    with pytest.raises(UndefinedMetricError):
        run_combo(layer, "f-1")
    with pytest.raises(UndefinedMetricError):
        run_portfolio(layer, seed=0)


def test_isolated_node_survives_detection():
    links = [(0, 1), (1, 0), (0, 2), (2, 0)]  # n3 is isolated
    layer = layer_of(4, links)
    result = run_combo(layer, "f-1")
    assert "n3" in result.partition.assignment
    assert frozenset({"n3"}) in _groups(result.partition)
