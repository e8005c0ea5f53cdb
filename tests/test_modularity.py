"""Directed Q-modularity, polarization classification and demodularity."""
from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import layer_of, partition_of, random_codes, random_digraph
from oracles import decomposition_residual, demodularity_oracle, q_modularity_oracle
from polarnet.errors import (
    InternalConsistencyError,
    UndefinedMetricError,
    ValidationError,
)
from polarnet.modularity import (
    POLARIZATION_THRESHOLD,
    ScaledLayer,
    classify_polarization,
    demodularity,
    demodularity_matrix,
    q_modularity,
)


def test_two_directed_two_cycles_score_one_half():
    # two reciprocal pairs, one group each: fully assortative case
    layer = layer_of(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    part = partition_of(4, [0, 0, 1, 1])
    assert q_modularity(layer, part) == pytest.approx(0.5, abs=1e-15)


def test_single_group_is_exactly_zero():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 20))
        links = random_digraph(rng, n, 0.3, weighted=True, self_links=True)
        if not any(s != t for s, t, _ in links):
            continue
        layer = layer_of(n, links, weighted=True)
        assert q_modularity(layer, partition_of(n, [0] * n)) == 0.0


def test_all_singletons_formula():
    layer = layer_of(3, [(0, 1, 2.0), (1, 2, 1.0), (2, 0, 3.0)], weighted=True)
    part = partition_of(3, [0, 1, 2])
    m = 6.0
    k_out = {0: 2.0, 1: 1.0, 2: 3.0}
    k_in = {1: 2.0, 2: 1.0, 0: 3.0}
    expected = -sum(k_out[i] * k_in[i] for i in range(3)) / m**2
    assert q_modularity(layer, part) == pytest.approx(expected, abs=1e-15)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(3, 25))
        links = random_digraph(rng, n, 0.25, weighted=bool(rng.integers(0, 2)), self_links=True)
        if not any(s != t for s, t, _ in links):
            continue
        codes = random_codes(rng, n, int(rng.integers(1, 5)))
        layer = layer_of(n, links, weighted=True)
        expected = q_modularity_oracle(n, links, codes)
        assert q_modularity(layer, partition_of(n, codes)) == pytest.approx(expected, abs=1e-12)


def test_precomputed_codes_agree_with_partition_path():
    rng = np.random.default_rng(3)
    n = 12
    links = random_digraph(rng, n, 0.3)
    layer = layer_of(n, links)
    codes = np.array(random_codes(rng, n, 3), dtype=np.int64)
    part = partition_of(n, codes.tolist())
    via_partition = q_modularity(layer, part)
    via_codes = ScaledLayer(layer).q(codes)
    assert via_codes == via_partition
    with pytest.raises(TypeError):
        q_modularity(layer, None, codes=codes)


def test_empty_metric_weight_is_undefined():
    layer = layer_of(2, [(0, 0), (1, 1)])
    with pytest.raises(UndefinedMetricError):
        q_modularity(layer, partition_of(2, [0, 1]))


def test_classification_threshold():
    assert classify_polarization(POLARIZATION_THRESHOLD) == "polarized"
    assert classify_polarization(0.2999999) == "not_polarized"
    assert classify_polarization(-0.5) == "not_polarized"
    assert classify_polarization(1.0) == "polarized"
    with pytest.raises(ValidationError):
        classify_polarization(1.5)


# -- demodularity ----------------------------------------------------------


def _abc_layer():
    # a->c, b->d, a->b over nodes a=0, b=1, c=2, d=3
    return layer_of(4, [(0, 2), (1, 3), (0, 1)])


def test_demodularity_written_hand_instance_is_zero():
    """For links a->c, b->d, a->b with F={a,b}, T={c,d} the full double sum
    cancels: the A-part is 2 and the null part is (2+2+1+1)/3 = 2, so the
    out-weight-normalized score is exactly (2-2)/3 = 0.  A brute-force oracle
    over the same definition agrees.
    """
    layer = _abc_layer()
    part = partition_of(4, [0, 0, 1, 1])
    value = demodularity(layer, part, "g0", "g1")
    assert value == pytest.approx(0.0, abs=1e-15)
    oracle = demodularity_oracle(4, [(0, 2, 1.0), (1, 3, 1.0), (0, 1, 1.0)], [0, 0, 1, 1], 0, 1)
    assert value == pytest.approx(oracle, abs=1e-15)


def test_demodularity_positive_fixed_point_one_third():
    # a->c, b->d, c->b: A-part 2, null part 4/3, out-weight m_f = 2
    layer = layer_of(4, [(0, 2), (1, 3), (2, 1)])
    part = partition_of(4, [0, 0, 1, 1])
    value = demodularity(layer, part, "g0", "g1")
    assert value == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_demodularity_matches_oracle_all_normalizations():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(4, 20))
        links = random_digraph(rng, n, 0.3, weighted=True, self_links=True)
        codes = random_codes(rng, n, 3)
        if len(set(codes)) < 2 or not any(s != t for s, t, _ in links):
            continue
        layer = layer_of(n, links, weighted=True)
        part = partition_of(n, codes)
        groups = sorted(set(codes))
        for normalization in ("out_weight", "link_count", "total_m"):
            matrix = demodularity_matrix(layer, part, normalization=normalization)
            for fi in groups:
                for ti in groups:
                    if fi == ti:
                        continue
                    got = matrix.value(f"g{fi}", f"g{ti}")
                    try:
                        expected = demodularity_oracle(
                            n, links, codes, fi, ti, normalization
                        )
                    except ZeroDivisionError:
                        assert got is None
                        continue
                    assert got == pytest.approx(expected, abs=1e-12)


def test_demodularity_matrix_shape_and_diagonal():
    layer = _abc_layer()
    part = partition_of(4, [0, 0, 1, 1])
    matrix = demodularity_matrix(layer, part)
    assert matrix.labels == ("g0", "g1")
    assert math.isnan(matrix.values[0, 0]) and math.isnan(matrix.values[1, 1])
    assert matrix.value("g0", "g0") is None
    with pytest.raises(ValidationError):
        matrix.value("g0", "zzz")


def test_demodularity_undefined_row():
    # group g1 = {c, d} has no outgoing links: its out-weight normalizer is 0
    layer = layer_of(4, [(0, 2), (1, 3), (0, 1)])
    part = partition_of(4, [0, 0, 1, 1])
    matrix = demodularity_matrix(layer, part)
    assert "g1" in matrix.undefined_rows
    assert matrix.value("g1", "g0") is None
    with pytest.raises(UndefinedMetricError):
        demodularity(layer, part, "g1", "g0")


def test_demodularity_needs_two_groups():
    layer = _abc_layer()
    with pytest.raises(ValidationError):
        demodularity_matrix(layer, partition_of(4, [0, 0, 0, 0]))
    part = partition_of(4, [0, 0, 1, 1])
    with pytest.raises(ValidationError):
        demodularity(layer, part, "g0", "g0")


def test_decomposition_identity():
    # sum_f m_f * mean-row-demodularity plus m * Q vanishes under out-weight
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(4, 18))
        links = random_digraph(rng, n, 0.35, weighted=True)
        codes = random_codes(rng, n, 3)
        if len(set(codes)) < 2 or not links:
            continue
        layer = layer_of(n, links, weighted=True)
        residual = decomposition_residual(layer, partition_of(n, codes))
        assert abs(residual) < 1e-9


def test_q_range_guard_raises_internal_error():
    # tamper weights post-construction so m stays positive but the score blows
    # past 1: the internal range guard must refuse to return it
    layer = layer_of(2, [(0, 1, 100.0), (1, 0, 1.0)], weighted=True)
    layer.weight[:] = np.array([100.0, -99.0])
    layer._metric_view = None
    with pytest.raises(InternalConsistencyError):
        ScaledLayer(layer).q(np.array([0, 1], dtype=np.int64))
