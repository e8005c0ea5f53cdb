"""Group subnetworks, centralization, path lengths and k-cores."""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import layer_of, partition_of, random_digraph
from oracles import apl_oracle, kcore_oracle, structure_report_reference
from polarnet import structure
from polarnet.errors import PolarnetError, UndefinedMetricError, ValidationError
from polarnet.network import Partition
from polarnet.structure import (
    StructureRow,
    average_path_length,
    group_subnetwork,
    in_degree_centralization,
    kcore_decomposition,
    structure_report,
)


def _sub_of(n, links, codes=None, label="g0"):
    codes = codes if codes is not None else [0] * n
    return group_subnetwork(layer_of(n, links), partition_of(n, codes), label)


# -- subnetwork induction ---------------------------------------------------


def test_group_subnetwork_keeps_internal_links_only():
    links = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 0)]
    sub = _sub_of(5, links, [0, 0, 0, 1, 1], "g0")
    assert sub.label == "g0"
    assert sub.node_ids == ("n0", "n1", "n2")
    kept = set(zip(sub.src.tolist(), sub.dst.tolist()))
    assert kept == {(0, 1), (1, 2)}  # cross-group and self-links are gone


def test_group_subnetwork_merges_repeated_pairs():
    # weighted layer where the same pair appears on two days
    layer = layer_of(3, [(0, 1, 2.0, 738000), (0, 1, 3.0, 738010), (1, 2, 1.0, 738000)], weighted=True)
    sub = group_subnetwork(layer, partition_of(3, [0, 0, 0]), "g0")
    assert sub.n_links == 2
    by_pair = dict(zip(zip(sub.src.tolist(), sub.dst.tolist()), sub.weight.tolist()))
    assert by_pair[(0, 1)] == 5.0


def test_group_subnetwork_matches_dict_merge():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        rows = [
            (s, t, float(rng.random()) + 0.1, 738000 + int(rng.integers(3)))
            for s, t, _ in random_digraph(rng, n, 0.3, self_links=True) * 3
        ]
        codes = rng.integers(0, 3, size=n)
        codes[0] = 0
        layer = layer_of(n, rows, weighted=True)
        sub = group_subnetwork(layer, partition_of(n, codes), "g0")
        members = [i for i in range(n) if codes[i] == 0]
        local = {node: k for k, node in enumerate(members)}
        merged: dict[tuple[int, int], float] = {}
        for s, t, w in zip(*(a.tolist() for a in layer.metric_view())):
            if s in local and t in local:
                key = (local[s], local[t])
                merged[key] = merged.get(key, 0.0) + w
        keys = sorted(merged)
        assert sub.node_ids == tuple(f"n{i}" for i in members)
        assert list(zip(sub.src.tolist(), sub.dst.tolist())) == keys
        assert sub.weight.tolist() == [merged[k] for k in keys]


def test_group_subnetwork_errors():
    layer = layer_of(3, [(0, 1)])
    part = partition_of(3, [0, 0, 1])
    with pytest.raises(ValidationError):
        group_subnetwork(layer, part, "zzz")
    declared = Partition.from_assignment(
        {"n0": "g0", "n1": "g0", "n2": "g0"}, ("g0", "gz")
    )
    with pytest.raises(ValidationError):
        group_subnetwork(layer, declared, "gz")


# -- in-degree centralization -----------------------------------------------


def test_centralization_in_star_is_one():
    sub = _sub_of(4, [(1, 0), (2, 0), (3, 0)])
    assert in_degree_centralization(sub) == 1.0


def test_centralization_complete_digraph_is_zero():
    links = [(i, j) for i in range(3) for j in range(3) if i != j]
    assert in_degree_centralization(_sub_of(3, links)) == 0.0


def test_centralization_hand_value():
    sub = _sub_of(4, [(1, 0), (2, 0), (3, 0), (1, 2)])
    # in-degrees 3, 0, 1, 0 -> (0 + 3 + 2 + 3) / 9
    assert in_degree_centralization(sub) == pytest.approx(8.0 / 9.0, abs=1e-15)


def test_centralization_needs_two_nodes():
    with pytest.raises(UndefinedMetricError):
        in_degree_centralization(_sub_of(1, []))


# -- average path length ----------------------------------------------------


def test_apl_three_cycle():
    sub = _sub_of(3, [(0, 1), (1, 2), (2, 0)])
    assert average_path_length(sub) == pytest.approx(1.5, abs=1e-15)
    assert average_path_length(sub, symmetrize=True) == pytest.approx(1.0, abs=1e-15)


def test_apl_out_star_directed_vs_symmetrized():
    sub = _sub_of(3, [(0, 1), (0, 2)])
    assert average_path_length(sub) == pytest.approx(1.0, abs=1e-15)
    assert average_path_length(sub, symmetrize=True) == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_apl_no_reachable_pairs_is_none():
    assert average_path_length(_sub_of(4, [])) is None


def test_apl_ignores_unreachable_pairs():
    # two components: a 2-path and an isolated node
    sub = _sub_of(4, [(0, 1), (1, 2)])
    assert average_path_length(sub) == pytest.approx((1 + 1 + 2) / 3, abs=1e-15)


def test_apl_needs_two_nodes():
    with pytest.raises(UndefinedMetricError):
        average_path_length(_sub_of(1, []))


def test_apl_matches_floyd_warshall():
    rng = np.random.default_rng(33)
    for _ in range(15):
        n = int(rng.integers(2, 20))
        links = random_digraph(rng, n, 0.2)
        sub = _sub_of(n, links)
        pairs = list(zip(sub.src.tolist(), sub.dst.tolist()))
        expected = apl_oracle(n, pairs)
        got = average_path_length(sub)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)
        both = pairs + [(t, s) for s, t in pairs]
        expected_sym = apl_oracle(n, both)
        got_sym = average_path_length(sub, symmetrize=True)
        if expected_sym is None:
            assert got_sym is None
        else:
            assert got_sym == pytest.approx(expected_sym, abs=1e-12)


# -- k-cores ----------------------------------------------------------------


def test_kcore_directed_triangle():
    sub = _sub_of(3, [(0, 1), (1, 2), (2, 0)])
    result = kcore_decomposition(sub)
    assert result.core_numbers == {"n0": 2, "n1": 2, "n2": 2}
    assert result.max_kcore == 2


def test_kcore_mutual_pair_conventions_differ():
    sub = _sub_of(2, [(0, 1), (1, 0)])
    assert kcore_decomposition(sub, convention="undirected").max_kcore == 1
    assert kcore_decomposition(sub, convention="total_degree").max_kcore == 2


def test_kcore_clique_with_pendant():
    links = [(i, j) for i in range(4) for j in range(4) if i != j]
    links += [(4, 0), (0, 4)]
    result = kcore_decomposition(_sub_of(5, links))
    assert result.core_numbers == {"n0": 3, "n1": 3, "n2": 3, "n3": 3, "n4": 1}
    assert result.max_kcore == 3


def test_kcore_empty_graph_is_all_zeros():
    result = kcore_decomposition(_sub_of(4, []))
    assert result.max_kcore == 0
    assert set(result.core_numbers.values()) == {0}


def test_kcore_unknown_convention():
    with pytest.raises(ValidationError):
        kcore_decomposition(_sub_of(2, [(0, 1)]), convention="out_only")


def test_kcore_matches_fixed_point_oracle():
    rng = np.random.default_rng(39)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        links = random_digraph(rng, n, 0.15)
        sub = _sub_of(n, links)
        pairs = list(zip(sub.src.tolist(), sub.dst.tolist()))
        for convention in ("undirected", "total_degree"):
            expected = kcore_oracle(n, pairs, convention=convention)
            got = kcore_decomposition(sub, convention=convention)
            assert [got.core_numbers[f"n{i}"] for i in range(n)] == expected


def test_kcore_is_permutation_invariant():
    rng = np.random.default_rng(45)
    n = 12
    links = random_digraph(rng, n, 0.3)
    base = kcore_decomposition(_sub_of(n, links))
    perm = rng.permutation(n)
    relabeled = [(int(perm[s]), int(perm[t])) for s, t, _ in links]
    permuted = kcore_decomposition(_sub_of(n, relabeled))
    for i in range(n):
        assert permuted.core_numbers[f"n{perm[i]}"] == base.core_numbers[f"n{i}"]


# -- per-group report -------------------------------------------------------


def test_structure_report_rows_match_direct_calls():
    rng = np.random.default_rng(51)
    n = 12
    links = random_digraph(rng, n, 0.3)
    codes = [0] * 6 + [1] * 6
    layer = layer_of(n, links)
    part = partition_of(n, codes)
    rows = structure_report(layer, part, min_group_size=2)
    assert [row.label for row in rows] == ["g0", "g1"]
    for row in rows:
        sub = group_subnetwork(layer, part, row.label)
        assert row == StructureRow(
            label=row.label,
            n=sub.n,
            links=sub.n_links,
            in_degree_centralization=in_degree_centralization(sub),
            average_path_length=average_path_length(sub),
            max_kcore=kcore_decomposition(sub).max_kcore,
        )


def test_structure_report_omits_small_groups():
    layer = layer_of(7, [(0, 1), (1, 2), (2, 0), (5, 6)])
    part = partition_of(7, [0, 0, 0, 0, 0, 1, 1])
    rows = structure_report(layer, part, min_group_size=3)
    assert [row.label for row in rows] == ["g0"]
    assert rows[0].n == 5


def test_structure_report_core_convention_switch():
    layer = layer_of(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    part = partition_of(4, [0, 0, 0, 0])
    undirected = structure_report(layer, part, min_group_size=2)
    total = structure_report(layer, part, min_group_size=2, core_convention="total_degree")
    assert undirected[0].max_kcore == 1
    assert total[0].max_kcore == 2


def test_structure_report_validates_min_size():
    layer = layer_of(4, [(0, 1)])
    part = partition_of(4, [0, 0, 1, 1])
    with pytest.raises(ValidationError):
        structure_report(layer, part, min_group_size=1)
    assert structure_report(layer, part, min_group_size=3) == ()


# -- all groups at once against the per-group loop ----------------------------


def _outcome(report, *args, **kwargs):
    try:
        return report(*args, **kwargs)
    except PolarnetError as exc:
        return type(exc), str(exc)


@st.composite
def _grouped_layers(draw):
    """A layer with self-links, isolated nodes and, when weighted, pairs on
    several days; a partition with declared labels that no node carries and
    members that the layer lacks."""
    n = draw(st.integers(1, 24))
    groups = draw(st.integers(1, 5))
    codes = draw(st.lists(st.integers(0, groups - 1), min_size=n, max_size=n))
    weighted = draw(st.booleans())
    rows = draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1),
        st.sampled_from([1.0, 0.5, 2.0]) if weighted else st.just(1.0),
        st.sampled_from([None, 738000, 738001])), max_size=3 * n))
    # A path or a clique inside a group makes long paths and deep cores.
    for g in range(groups):
        members = [i for i, code in enumerate(codes) if code == g]
        shape = draw(st.sampled_from(["none", "path", "clique"]))
        if shape == "path":
            rows += [(s, t, 1.0, None) for s, t in zip(members, members[1:])]
        elif shape == "clique":
            k = draw(st.integers(0, len(members)))
            rows += [(s, t, 1.0, None) for s in members[:k] for t in members[:k] if s != t]
    # Nodes past the layer's registry are partition members the layer lacks.
    extra = draw(st.integers(0, 3))
    assignment = {f"n{i}": f"g{code}" for i, code in enumerate(codes)}
    assignment.update({f"x{i}": f"g{i % groups}" for i in range(extra)})
    labels = tuple(f"g{k}" for k in range(groups + draw(st.integers(0, 2))))
    return layer_of(n, rows, weighted=weighted), Partition.from_assignment(assignment, labels)


@settings(max_examples=300, deadline=None)
@given(
    layer_partition=_grouped_layers(),
    min_group_size=st.integers(0, 6),
    convention=st.sampled_from(["undirected", "total_degree", "out_only"]),
    cells=st.sampled_from([structure._FRONTIER_CELLS, 1, 5, 32]),
    # 1 makes almost every search level thin, 10**9 every level dense.
    share=st.sampled_from([structure._DENSE_SHARE, 1, 4, 10 ** 9]),
)
@example(layer_partition=(layer_of(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 0)]),
                          partition_of(6, [0, 0, 0, 1, 1, 1])),
         min_group_size=2, convention="total_degree", cells=5, share=4)
@example(layer_partition=(layer_of(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
                          partition_of(5, [0, 0, 0, 0, 0])),
         min_group_size=2, convention="undirected", cells=structure._FRONTIER_CELLS, share=1)
@example(layer_partition=(layer_of(6, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)]),
                          partition_of(6, [0, 0, 0, 0, 0, 0])),
         min_group_size=2, convention="undirected", cells=structure._FRONTIER_CELLS,
         share=structure._DENSE_SHARE)
# A 300-node chain and cycle beside a clique: hundreds of thin levels and
# peel rounds, in several column blocks.
@example(layer_partition=(
    layer_of(612, [(i, i + 1) for i in range(299)]
             + [(300 + i, 300 + (i + 1) % 300) for i in range(300)]
             + [(600 + s, 600 + t) for s in range(12) for t in range(12) if s != t]),
    partition_of(612, [0] * 300 + [1] * 300 + [2] * 12)),
    min_group_size=2, convention="undirected", cells=612 * 50, share=structure._DENSE_SHARE)
def test_structure_report_equals_the_per_group_reference(layer_partition, min_group_size,
                                                         convention, cells, share):
    layer, partition = layer_partition
    kwargs = dict(min_group_size=min_group_size, core_convention=convention)
    with (mock.patch.object(structure, "_FRONTIER_CELLS", cells),
          mock.patch.object(structure, "_DENSE_SHARE", share)):
        got = _outcome(structure_report, layer, partition, **kwargs)
    assert got == _outcome(structure_report_reference, layer, partition, **kwargs)
