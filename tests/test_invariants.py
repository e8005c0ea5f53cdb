"""Relabeling nodes, reordering layer rows or scaling every weight by a power
of two does not change the metrics.

Scope: construction sorts a layer's arrays by (source, target, day), so rows
reordered without duplicate links give bit-identical layers, and with them
bit-identical Q, demodularity values and pair-indicator counts.  Relabeling
permutes the registry and with it the order in which every weight sum adds
up, so Q and the demodularity values are compared to 1e-12 there; the
indicator counts are integers and stay exact.  Scaling by 2^k is exact, so
Q, the weight-normalized demodularity values and detection stay bit-identical
over the whole float range, and demodularity per link scales by exactly 2^k.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import layer_of
from polarnet.communities import run_combo
from polarnet.infometrics import LinkIndicatorPair
from polarnet.modularity import NORMALIZATIONS, demodularity_matrix, leave_one_out_q, q_modularity
from polarnet.network import Partition

_LABELS = ("g0", "g1", "g2")


@st.composite
def _case(draw):
    """n nodes, group codes, two layers of unique (s, t, weight, day) rows, row orders
    and a node relabeling.  The weights add up to different floats in different orders."""
    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    weight = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 2.5])
    day = st.one_of(st.none(), st.integers(735000, 735002))
    layers = []
    for _ in range(2):
        pairs = draw(st.lists(pair, unique=True, max_size=n * n))
        layers.append([(s, t, draw(weight), draw(day)) for s, t in pairs])
    codes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    orders = [draw(st.permutations(range(len(rows)))) for rows in layers]
    relabel = draw(st.permutations(range(n)))
    return n, layers, codes, orders, relabel


def _partition(names, codes) -> Partition:
    return Partition.from_assignment(
        {name: f"g{code}" for name, code in zip(names, codes)}, _LABELS
    )


def _metrics(n, layers, codes, names):
    """Q, demodularity matrices and indicator counts; ``names[i]`` is node i's new index."""
    x, y = (
        layer_of(n, [(names[s], names[t], w, d) for s, t, w, d in rows], name=name, weighted=True)
        for name, rows in zip("xy", layers)
    )
    partition = _partition([f"n{names[i]}" for i in range(n)], codes)
    demod = [demodularity_matrix(x, partition, normalization=norm) for norm in NORMALIZATIONS]
    pair = LinkIndicatorPair.from_layers(x, y)
    return (
        q_modularity(x, partition),
        [(matrix.values, matrix.undefined_rows) for matrix in demod],
        (pair.n11, pair.n10, pair.n01, pair.n00),
    )


def _has_metric_links(rows) -> bool:
    return any(s != t for s, t, _, _ in rows)


@settings(max_examples=200, deadline=None)
@given(case=_case())
def test_reordered_rows_give_bit_identical_metrics(case):
    n, layers, codes, orders, _ = case
    assume(_has_metric_links(layers[0]))
    identity = list(range(n))
    q, demod, counts = _metrics(n, layers, codes, identity)
    shuffled = [[rows[i] for i in order] for rows, order in zip(layers, orders)]
    q2, demod2, counts2 = _metrics(n, shuffled, codes, identity)
    assert q2 == q
    for (values, undefined), (values2, undefined2) in zip(demod, demod2):
        assert np.array_equal(values2, values, equal_nan=True)
        assert undefined2 == undefined
    assert counts2 == counts


@settings(max_examples=200, deadline=None)
@given(case=_case())
def test_relabeled_nodes_give_the_same_metrics(case):
    n, layers, codes, _, relabel = case
    assume(_has_metric_links(layers[0]))
    q, demod, counts = _metrics(n, layers, codes, list(range(n)))
    q2, demod2, counts2 = _metrics(n, layers, codes, list(relabel))
    assert q2 == pytest.approx(q, rel=0, abs=1e-12)
    for (values, undefined), (values2, undefined2) in zip(demod, demod2):
        np.testing.assert_allclose(values2, values, rtol=0, atol=1e-12, equal_nan=True)
        assert undefined2 == undefined
    assert counts2 == counts


@settings(max_examples=100, deadline=None)
@given(case=_case(), k=st.one_of(st.sampled_from([-1000, 600]), st.integers(-1000, 600)))
def test_weights_scaled_by_a_power_of_two_give_bit_identical_scores(case, k):
    """Products of degrees and m * m would underflow at 2^-1000 and overflow at 2^600."""
    n, layers, codes, _, _ = case
    rows = layers[0]
    assume(_has_metric_links(rows))
    layer = layer_of(n, rows, weighted=True)
    scaled = layer_of(n, [(s, t, math.ldexp(w, k), d) for s, t, w, d in rows], weighted=True)
    partition = _partition([f"n{i}" for i in range(n)], codes)
    assert q_modularity(scaled, partition).hex() == q_modularity(layer, partition).hex()
    group_codes, nodes = np.array(codes, dtype=np.int64), range(n)
    replicates = leave_one_out_q(layer, group_codes, nodes)
    again = leave_one_out_q(scaled, group_codes, nodes)
    assert [None if q is None else q.hex() for q in again] == [
        None if q is None else q.hex() for q in replicates
    ]
    for norm in NORMALIZATIONS:
        values = demodularity_matrix(layer, partition, normalization=norm).values
        expected = np.ldexp(values, k) if norm == "link_count" else values
        got = demodularity_matrix(scaled, partition, normalization=norm).values
        assert got.tobytes() == expected.tobytes()
    for script in ("f-1", "r-1", "s-1", "e-1"):
        found, again = run_combo(layer, script, seed=1), run_combo(scaled, script, seed=1)
        assert again.q.hex() == found.q.hex()
        assert again.partition.codes_on(scaled.node_ids).tolist() == found.partition.codes_on(
            layer.node_ids
        ).tolist()
