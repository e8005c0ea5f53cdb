"""Closed-form leave-one-node-out replicates against brute-force ``drop_node`` copies.

``modularity.leave_one_out_q`` and ``LinkIndicatorPair.leave_one_out`` give
every jackknife replicate from one pass over a layer's arrays.  The reference
is the network copy that ``jackknife`` scores: the pair counts are integers
and must match exactly, so their scores are bit-equal; Q is rebuilt from
subtracted float sums and is compared to 1e-12.  Replicates are undefined
when no non-self link is left (Q), when Y' is empty (partial Jaccard) or when
either indicator has zero entropy (link NMI); they are skipped by integer
counts, never by a float sum that rounds to a tiny non-zero value.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import layer_of, random_digraph
from polarnet.errors import UndefinedMetricError
from polarnet.infometrics import (
    ESTIMATORS,
    LinkIndicatorPair,
    MetricEstimate,
    jackknife,
    link_nmi,
    partial_jaccard,
    replicate_values,
)
from polarnet.modularity import leave_one_out_q, q_modularity
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
        return q_modularity(net.layer("links"), None, codes=codes)

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
        return q_modularity(net.layer("links"), None, codes=codes)

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
        return q_modularity(net.layer("links"), None, codes=codes)

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
        return q_modularity(net.layer("links"), None, codes=codes)

    closed = leave_one_out_q(layer, codes, network.active_indices())
    _assert_close(closed, _brute(metric, network))


# -- link similarities --------------------------------------------------------


def _score(score) -> str:
    """repr of score(), or of None where it is undefined: equal reprs are equal bits."""
    try:
        return repr(score())
    except UndefinedMetricError:
        return repr(None)


@settings(max_examples=300, deadline=None)
@given(_network(("x", "y")))
def test_closed_form_tables_and_scores_equal_brute_force(case):
    network, _ = case
    nodes = network.active_indices()
    closed = LinkIndicatorPair.leave_one_out(network.layer("x"), network.layer("y"), nodes)
    assert len(closed) == len(nodes)
    for v, pair in zip(nodes, closed):
        x, y = (network.drop_node(v).layer(name) for name in ("x", "y"))
        assert pair == LinkIndicatorPair.from_layers(x, y)
        assert pair.swapped() == LinkIndicatorPair.from_layers(y, x)
        for counts, (a, b) in ((pair, (x, y)), (pair.swapped(), (y, x))):
            assert _score(counts.partial_jaccard) == _score(lambda: partial_jaccard(a, b))
            for estimator in ESTIMATORS:
                assert _score(lambda: counts.nmi(estimator)[0]) == _score(
                    lambda: link_nmi(a, b, estimator)[0]
                )


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_hub_layer_similarity_replicates_match_jackknife(estimator):
    # Every link of y touches n0, so without n0 y is empty: partial Jaccard is
    # undefined there, and so is NMI(x|y), y's indicator having zero entropy;
    # NMI(y|x) is undefined for the same replicate.
    x = layer_of(5, [(1, 2), (2, 3), (0, 1), (3, 4)], name="x")
    y = layer_of(5, [(0, 1), (0, 2), (4, 0)], name="y")
    network = MultiplexNetwork.assemble([x, y])
    nodes = network.active_indices()
    pairs = LinkIndicatorPair.leave_one_out(x, y, nodes)
    metrics = [
        (lambda net: partial_jaccard(net.layer("x"), net.layer("y")),
         replicate_values(LinkIndicatorPair.partial_jaccard, pairs)),
        (lambda net: link_nmi(net.layer("x"), net.layer("y"), estimator)[0],
         replicate_values(lambda pair: pair.nmi(estimator)[0], pairs)),
        (lambda net: link_nmi(net.layer("y"), net.layer("x"), estimator)[0],
         replicate_values(lambda pair: pair.swapped().nmi(estimator)[0], pairs)),
    ]
    for metric, closed in metrics:
        assert closed[0] is None
        assert closed == _brute(metric, network)
        _same_estimate(closed, metric, network, metric(network))
