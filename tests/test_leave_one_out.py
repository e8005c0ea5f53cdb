"""Closed-form leave-one-node-out replicates against brute-force ``drop_node`` copies.

``modularity.leave_one_out_q`` and ``LinkIndicatorPair.leave_one_out`` give
every jackknife replicate from one pass over a layer's arrays.  The reference
is the network copy that ``jackknife`` scores: the pair counts are integers
and must match exactly, so their scores are bit-equal; Q is rebuilt from
subtracted float sums and is compared to 1e-12.  Replicates are undefined
when no non-self link is left (Q), when Y' is empty (partial Jaccard) or when
either indicator has zero entropy (link NMI); they are skipped by integer
counts, never by a float sum that rounds to a tiny non-zero value.
``similarity_replicates`` scores every replicate's tables in one batch and is
also held, bit for bit, to the per-replicate loop it replaced
(``oracles.similarity_replicates_reference``).
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import layer_of, random_digraph
from oracles import similarity_replicates_reference
from polarnet.errors import UndefinedMetricError, ValidationError
from polarnet.infometrics import (
    ESTIMATORS,
    LinkIndicatorPair,
    MetricEstimate,
    jackknife,
    link_nmi,
    partial_jaccard,
    replicate_values,
    similarity_replicates,
)
from polarnet.modularity import ScaledLayer, leave_one_out_q
from polarnet.network import MultiplexNetwork


def _brute(metric, network: MultiplexNetwork) -> list:
    """metric on each active node's drop_node copy, None where undefined."""
    return replicate_values(metric, (network.drop_node(v) for v in network.active_indices()))


def _assert_close(closed: list, brute: list) -> None:
    """None on the same replicates, values equal to 1e-12."""
    assert [value is None for value in closed] == [value is None for value in brute]
    for got, want in zip(closed, brute):
        if want is not None:
            assert got == pytest.approx(want, rel=0, abs=1e-12)


def _same_estimate(closed: list, metric, network: MultiplexNetwork, point: float) -> None:
    """The closed-form replicates summarize to ``jackknife``'s estimate."""
    try:
        expected = jackknife(metric, network)
    except UndefinedMetricError:
        with pytest.raises(UndefinedMetricError):
            MetricEstimate.from_replicates(point, closed)
        return
    got = MetricEstimate.from_replicates(point, closed)
    assert (got.point, got.samples, got.skipped, got.unreliable) == (
        expected.point, expected.samples, expected.skipped, expected.unreliable
    )
    assert got.jack_mean == pytest.approx(expected.jack_mean, rel=0, abs=1e-12)
    assert got.two_sigma == pytest.approx(expected.two_sigma, rel=0, abs=1e-12)


@st.composite
def _network(draw, layers: tuple[str, ...]):
    """Weighted digraphs on up to 7 nodes with self-links, isolated nodes and
    repeated (source, target, day) rows, and maybe one node already dropped."""
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    row = st.tuples(
        node, node, st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 2.5]),
        st.one_of(st.none(), st.integers(735000, 735001)),
    )
    built = []
    for name in layers:
        rows = draw(st.lists(row, max_size=3 * n))
        rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
        weighted = draw(st.booleans())
        if not weighted:
            rows = [(s, t, 1.0, day) for s, t, _, day in rows]
        built.append(layer_of(n, rows, name=name, weighted=weighted))
    network = MultiplexNetwork.assemble(built)
    dropped = draw(st.one_of(st.none(), node))
    if dropped is not None:
        network = network.drop_node(dropped)
    codes = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    return network, codes


# -- Q ------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_network(("links",)))
def test_closed_form_q_equals_brute_force(case):
    network, codes = case

    def metric(net: MultiplexNetwork) -> float:
        return ScaledLayer(net.layer("links")).q(codes)

    try:
        point = metric(network)
    except UndefinedMetricError:
        assume(False)
    closed = leave_one_out_q(network.layer("links"), codes, network.active_indices())
    _assert_close(closed, _brute(metric, network))
    _same_estimate(closed, metric, network, point)


def test_hub_layer_skips_by_link_count():
    # Every link touches n0.  Without n0, m - s_out - s_in is 5.6e-17, not 0.
    layer = layer_of(5, [(0, 1, 0.1), (2, 0, 0.2), (0, 3, 0.3), (0, 0, 0.7)], weighted=True)
    network = MultiplexNetwork.assemble([layer])
    codes = np.array([0, 0, 1, 1, 0])

    def metric(net: MultiplexNetwork) -> float:
        return ScaledLayer(net.layer("links")).q(codes)

    closed = leave_one_out_q(layer, codes, network.active_indices())
    assert closed[0] is None
    _assert_close(closed, _brute(metric, network))
    estimate = MetricEstimate.from_replicates(metric(network), closed)
    assert (estimate.skipped, estimate.unreliable) == (1, True)
    _same_estimate(closed, metric, network, metric(network))


def test_replicate_keeping_little_weight_is_recomputed():
    # Without n0, 1.1 of the 8e6 weight is left: subtracting n0's sums from the
    # layer's would put an error of about 3e-10 on that replicate's Q.
    links = [(0, k, 1e6) for k in range(1, 5)] + [(k, 0, 1e6) for k in range(1, 5)]
    layer = layer_of(7, links + [(5, 6, 0.1), (6, 1, 0.3), (1, 5, 0.7)], weighted=True)
    network = MultiplexNetwork.assemble([layer])
    codes = np.array([0, 1, 0, 1, 0, 0, 1])

    def metric(net: MultiplexNetwork) -> float:
        return ScaledLayer(net.layer("links")).q(codes)

    closed = leave_one_out_q(layer, codes, network.active_indices())
    _assert_close(closed, _brute(metric, network))


def test_many_groups_are_scored_in_blocks():
    # 349,525 groups: the per-node group vectors go in blocks of 3 nodes.
    rng = np.random.default_rng(7)
    layer = layer_of(10, random_digraph(rng, 10, 0.4, weighted=True, self_links=True), weighted=True)
    network = MultiplexNetwork.assemble([layer])
    codes = np.array(rng.choice([0, 17, 349_524], size=10), dtype=np.int64)
    codes[0] = 349_524

    def metric(net: MultiplexNetwork) -> float:
        return ScaledLayer(net.layer("links")).q(codes)

    closed = leave_one_out_q(layer, codes, network.active_indices())
    _assert_close(closed, _brute(metric, network))


# -- link similarities --------------------------------------------------------


def _bits(values) -> list:
    """Each value's hex form, None for None or NaN: equal lists are equal bits."""
    return [None if value is None or np.isnan(value) else float(value).hex() for value in values]


def _scalar(score):
    """score() as a float, None where it is undefined."""
    try:
        return score()
    except UndefinedMetricError:
        return None


def _same_as_reference(counts) -> None:
    """Batched replicate scores equal the per-replicate loop bit for bit, both estimators."""
    for estimator in ESTIMATORS:
        got = similarity_replicates(counts, estimator)
        want = similarity_replicates_reference(counts, estimator)
        for got_pair, want_pair in zip(got, want):
            for got_values, want_values in zip(got_pair, want_pair):
                assert got_values.dtype == np.float64
                assert _bits(got_values) == _bits(want_values)


@settings(max_examples=300, deadline=None)
@given(_network(("x", "y")))
def test_closed_form_tables_and_scores_equal_brute_force(case):
    network, _ = case
    nodes = network.active_indices()
    counts = LinkIndicatorPair.leave_one_out(network.layer("x"), network.layer("y"), nodes)
    assert [(count.dtype, len(count)) for count in counts] == [(np.int64, len(nodes))] * 4
    n11, n10, n01, n00 = counts
    scores = {estimator: similarity_replicates(counts, estimator) for estimator in ESTIMATORS}
    for i, v in enumerate(nodes):
        x, y = (network.drop_node(v).layer(name) for name in ("x", "y"))
        assert LinkIndicatorPair.from_layers(x, y) == LinkIndicatorPair(n11[i], n10[i], n01[i], n00[i])
        assert LinkIndicatorPair.from_layers(y, x) == LinkIndicatorPair(n11[i], n01[i], n10[i], n00[i])
        for estimator, ordered in scores.items():
            for (overlap, nmi_values), (a, b) in zip(ordered, ((x, y), (y, x))):
                assert _bits([overlap[i]]) == _bits([_scalar(lambda: partial_jaccard(a, b))])
                assert _bits([nmi_values[i]]) == _bits([_scalar(lambda: link_nmi(a, b, estimator)[0])])
    _same_as_reference(counts)


def _random_pair(seed: int, n: int, px: float, py: float):
    rng = np.random.default_rng(seed)
    x = layer_of(n, random_digraph(rng, n, px), name="x")
    y = layer_of(n, random_digraph(rng, n, py), name="y")
    return x, y


@pytest.mark.parametrize("seed", range(6))
def test_batched_scores_equal_the_per_replicate_loop(seed):
    # Tables of a few thousand pairs, where summing the (y, x) cells in the
    # (x, y) order changes last bits of the joint entropy.
    n = 30 + 10 * seed
    x, y = _random_pair(seed, n, 0.05 + 0.05 * seed, 0.3 - 0.04 * seed)
    counts = LinkIndicatorPair.leave_one_out(x, y, range(n))
    _same_as_reference(counts)


def test_batched_scores_of_undefined_and_degenerate_replicates():
    cases = {
        # Two nodes: every replicate's table has no pairs at all.
        "two nodes": (layer_of(2, [(0, 1)], name="x"), layer_of(2, [(1, 0)], name="y")),
        # Identical layers filling the universe: one non-zero cell per table.
        "degenerate": (layer_of(3, [(s, t) for s in range(3) for t in range(3) if s != t], name="x"),
                       layer_of(3, [(s, t) for s in range(3) for t in range(3) if s != t], name="y")),
        # An empty second layer: partial Jaccard and both NMIs are undefined.
        "empty y": (layer_of(4, [(0, 1), (2, 3)], name="x"), layer_of(4, [], name="y")),
        # Without n0, y holds both pairs of {n1, n2}: its indicator has zero entropy.
        "zero-entropy margin": (layer_of(3, [(1, 2), (0, 2), (2, 0)], name="x"),
                                layer_of(3, [(1, 2), (2, 1), (0, 1)], name="y")),
    }
    for name, (x, y) in cases.items():
        counts = LinkIndicatorPair.leave_one_out(x, y, range(len(x.node_ids)))
        _same_as_reference(counts)
        (overlap, nmi_xy), (_, nmi_yx) = similarity_replicates(counts)
        if name == "two nodes":
            assert np.isnan(overlap).all() and np.isnan(nmi_xy).all() and np.isnan(nmi_yx).all()
        elif name == "empty y":
            assert np.isnan(overlap).all() and np.isnan(nmi_xy).all()
        elif name == "zero-entropy margin":
            assert np.isnan(nmi_xy[0]) and np.isnan(nmi_yx[0]) and overlap[0] == 0.5


def test_similarity_replicates_rejects_an_unknown_estimator():
    with pytest.raises(ValidationError, match="unknown estimator"):
        similarity_replicates(LinkIndicatorPair.leave_one_out(*_random_pair(0, 5, 0.3, 0.3), range(5)),
                              "median")


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_hub_layer_similarity_replicates_match_jackknife(estimator):
    # Every link of y touches n0, so without n0 y is empty: partial Jaccard is
    # undefined there, and so is NMI(x|y), y's indicator having zero entropy;
    # NMI(y|x) is undefined for the same replicate.
    x = layer_of(5, [(1, 2), (2, 3), (0, 1), (3, 4)], name="x")
    y = layer_of(5, [(0, 1), (0, 2), (4, 0)], name="y")
    network = MultiplexNetwork.assemble([x, y])
    nodes = network.active_indices()
    (overlap, nmi_xy), (_, nmi_yx) = similarity_replicates(
        LinkIndicatorPair.leave_one_out(x, y, nodes), estimator)
    metrics = [
        (lambda net: partial_jaccard(net.layer("x"), net.layer("y")), overlap),
        (lambda net: link_nmi(net.layer("x"), net.layer("y"), estimator)[0], nmi_xy),
        (lambda net: link_nmi(net.layer("y"), net.layer("x"), estimator)[0], nmi_yx),
    ]
    for metric, closed in metrics:
        assert np.isnan(closed[0])
        assert _bits(closed) == _bits(_brute(metric, network))
        _same_estimate(closed, metric, network, metric(network))


@pytest.mark.parametrize("replicates", [[1.5, None, 2.0, None], [None, None]])
def test_none_and_nan_replicates_summarize_alike(replicates):
    as_nan = np.array([np.nan if value is None else value for value in replicates])
    try:
        want = MetricEstimate.from_replicates(1.0, replicates)
    except UndefinedMetricError:
        with pytest.raises(UndefinedMetricError):
            MetricEstimate.from_replicates(1.0, as_nan)
        return
    assert MetricEstimate.from_replicates(1.0, as_nan) == want
    assert (want.samples, want.skipped, want.jack_mean) == (4, 2, 1.75)
