"""Set overlap, entropy/NMI estimators and jackknife resampling."""
from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import columns, ids, layer_of, partition_of, random_digraph
from oracles import (
    entropy_oracle,
    entropy_reference,
    link_overlap_oracle,
    mutual_information_oracle,
    mutual_information_reference,
    nmi_reference,
)
from polarnet.errors import UndefinedMetricError, ValidationError
from polarnet.infometrics import (
    ESTIMATORS,
    LinkIndicatorPair,
    _entropy,
    entropy_ml,
    entropy_mm,
    jaccard,
    jackknife,
    link_nmi,
    mutual_information,
    nmi,
    partial_jaccard,
    partition_nmi,
)
from polarnet.network import Layer, MultiplexNetwork, Partition, filter_partition
from polarnet.timeseries import window_slice


# -- link-set overlap ------------------------------------------------------


def test_jaccard_hand_case():
    x = layer_of(3, [(0, 1), (1, 2)], name="x")
    y = layer_of(3, [(0, 1), (2, 0)], name="y")
    assert jaccard(x, y) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert partial_jaccard(x, y) == pytest.approx(0.5, abs=1e-15)
    assert partial_jaccard(y, x) == pytest.approx(0.5, abs=1e-15)


def test_partial_jaccard_is_directional():
    x = layer_of(4, [(0, 1), (1, 2), (2, 3)], name="x")
    y = layer_of(4, [(0, 1)], name="y")
    assert partial_jaccard(x, y) == 1.0  # every y-link is in x
    assert partial_jaccard(y, x) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_overlap_vs_set_arithmetic():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(3, 15))
        a = random_digraph(rng, n, 0.3)
        b = random_digraph(rng, n, 0.3)
        sa = {(s, t) for s, t, _ in a}
        sb = {(s, t) for s, t, _ in b}
        if not sa or not sb:
            continue
        x = layer_of(n, a, name="x")
        y = layer_of(n, b, name="y")
        assert jaccard(x, y) == pytest.approx(len(sa & sb) / len(sa | sb), abs=1e-15)
        assert partial_jaccard(x, y) == pytest.approx(len(sa & sb) / len(sb), abs=1e-15)


def test_overlap_errors():
    empty = layer_of(3, [], name="e")
    full = layer_of(3, [(0, 1)], name="f")
    with pytest.raises(UndefinedMetricError):
        jaccard(empty, layer_of(3, [], name="e2"))
    with pytest.raises(UndefinedMetricError):
        partial_jaccard(full, empty)
    # partial_jaccard only needs the second layer to be non-empty
    assert partial_jaccard(empty, full) == 0.0
    other = layer_of(4, [(0, 1)], name="g")
    with pytest.raises(ValidationError):
        jaccard(full, other)
    with pytest.raises(ValidationError):
        partial_jaccard(full, other)


# (source, target, weight, day offset or None) over the nodes a..e.  Many
# draws repeat a pair on several days or hold self-links.
_NODES = "abcde"
_DAY0 = date(2021, 3, 1)
_OVERLAP_LINK = st.tuples(
    st.sampled_from(_NODES),
    st.sampled_from(_NODES),
    st.sampled_from([1.0, 2.0]),
    st.one_of(st.none(), st.integers(0, 2)),
)
_OVERLAP_LAYER = st.tuples(st.lists(_OVERLAP_LINK, max_size=14), st.booleans())
_VARIANTS = ("plain", "mismatch", "assemble", "drop1", "drop2", "filter", "window")


def _overlap_layer(name, records, weighted, node_ids=None):
    rows = [
        (s, t, w if weighted else 1.0, None if day is None else _DAY0.toordinal() + day)
        for s, t, w, day in records
    ]
    return Layer.from_columns(name, *columns(rows), weighted=weighted, node_ids=node_ids)


def _windowed_pairs(records, weighted, lo, hi):
    """Pairs dated in [lo, hi): any of a weighted pair's days, an unweighted pair's earliest."""
    days: dict[tuple[str, str], list[int]] = {}
    for s, t, _, day in records:
        if s != t and day is not None:
            days.setdefault((s, t), []).append(day)
    if weighted:
        return frozenset(p for p, ds in days.items() if any(lo <= d < hi for d in ds))
    return frozenset(p for p, ds in days.items() if lo <= min(ds) < hi)


@settings(max_examples=400, deadline=None)
@given(
    x=_OVERLAP_LAYER,
    y=_OVERLAP_LAYER,
    variant=st.sampled_from(_VARIANTS),
    table_order=st.permutations(_NODES),
    drop_order=st.permutations(_NODES),
    labels=st.lists(st.sampled_from("pq"), min_size=5, max_size=5),
    window=st.tuples(st.integers(0, 2), st.integers(1, 2)),
)
@example(  # one weighted pair on three days and a self-link against the same pair once
    x=([("a", "b", 1.0, 0), ("a", "b", 2.0, 1), ("a", "b", 1.0, 2), ("c", "c", 1.0, 0)], True),
    y=([("a", "b", 1.0, None)], False),
    variant="plain", table_order=tuple(_NODES), drop_order=tuple(_NODES),
    labels=list("ppppp"), window=(0, 1),
)
@example(  # after one drop, keys src·(n-1) + dst would collide: (a, e) and (b, a)
    x=([("a", "e", 1.0, None), ("b", "a", 1.0, None)], False),
    y=([("b", "a", 1.0, None)], False),
    variant="drop1", table_order=tuple(_NODES), drop_order=tuple("cabde"),
    labels=list("ppppp"), window=(0, 1),
)
@example(  # two empty layers
    x=([], False), y=([], True), variant="plain", table_order=tuple(_NODES),
    drop_order=tuple(_NODES), labels=list("ppppp"), window=(0, 1),
)
def test_overlap_equals_set_oracle(x, y, variant, table_order, drop_order, labels, window):
    """The key intersection equals set arithmetic on the layers' (source, target) pairs."""
    (x_records, x_weighted), (y_records, y_weighted) = x, y
    x_pairs = frozenset((s, t) for s, t, _, _ in x_records if s != t)
    y_pairs = frozenset((s, t) for s, t, _, _ in y_records if s != t)
    nodes = set(_NODES)
    if variant in ("plain", "mismatch"):
        lx = _overlap_layer("x", x_records, x_weighted, node_ids=tuple(_NODES))
        y_ids = tuple(reversed(_NODES)) if variant == "mismatch" else tuple(_NODES)
        ly = _overlap_layer("y", y_records, y_weighted, node_ids=y_ids)
    else:
        # First-seen registries per layer, unified in the node table's order.
        table = {node: label for node, label in zip(table_order, labels)}
        network = MultiplexNetwork.assemble(
            [_overlap_layer("x", x_records, x_weighted), _overlap_layer("y", y_records, y_weighted)],
            table,
        )
        if variant in ("drop1", "drop2"):
            for node in drop_order[: int(variant[-1])]:
                network = network.drop_node(node)
                nodes.discard(node)
        elif variant == "filter":
            assume("p" in labels)
            network, _ = filter_partition(network, Partition.from_assignment(table), "q")
            nodes = {node for node in _NODES if table[node] == "p"}
        lx, ly = network.layer("x"), network.layer("y")
        if variant == "window":
            assume(lx.has_timestamps and ly.has_timestamps)
            start, width = window
            lx = window_slice(lx, _DAY0 + timedelta(start), width, permissive=True)
            ly = window_slice(ly, _DAY0 + timedelta(start), width, permissive=True)
            x_pairs = _windowed_pairs(x_records, x_weighted, start, start + width)
            y_pairs = _windowed_pairs(y_records, y_weighted, start, start + width)
        x_pairs = frozenset(p for p in x_pairs if set(p) <= nodes)
        y_pairs = frozenset(p for p in y_pairs if set(p) <= nodes)
    if variant == "mismatch":
        for metric in (LinkIndicatorPair.from_layers, jaccard, partial_jaccard):
            with pytest.raises(ValidationError, match="do not share a node registry"):
                metric(lx, ly)
        return
    counts, jaccard_value, partial_value = link_overlap_oracle(len(nodes), x_pairs, y_pairs)
    pair = LinkIndicatorPair.from_layers(lx, ly)
    assert (pair.n11, pair.n10, pair.n01, pair.n00) == counts
    if jaccard_value is None:
        with pytest.raises(UndefinedMetricError, match="both layers are empty"):
            jaccard(lx, ly)
    else:
        assert jaccard(lx, ly) == jaccard_value
    if partial_value is None:
        with pytest.raises(UndefinedMetricError, match="layer 'y' has no links"):
            partial_jaccard(lx, ly)
    else:
        assert partial_jaccard(lx, ly) == partial_value


# -- entropy estimators ----------------------------------------------------


def test_entropy_fixed_points():
    assert entropy_ml([1, 1]) == 1.0
    assert entropy_ml([1, 1, 1, 1]) == 2.0
    assert entropy_ml([7]) == 0.0
    assert entropy_ml([3, 0, 0, 1]) == pytest.approx(
        entropy_oracle([3, 1]), abs=1e-15
    )
    # Miller-Madow adds (observed - 1) / (2n)
    assert entropy_mm([1, 1]) == 1.0 + 1.0 / 4.0
    assert entropy_mm([7]) == 0.0


def test_miller_madow_is_exact_shift_of_ml():
    rng = np.random.default_rng(8)
    for _ in range(20):
        counts = rng.integers(0, 40, size=int(rng.integers(2, 12)))
        if counts.sum() == 0:
            continue
        observed = int((counts > 0).sum())
        n = float(counts.sum())
        assert entropy_mm(counts) == entropy_ml(counts) + (observed - 1) / (2.0 * n)


def test_entropy_vs_oracle():
    rng = np.random.default_rng(14)
    for _ in range(20):
        counts = rng.integers(0, 50, size=6)
        if counts.sum() == 0:
            continue
        assert entropy_ml(counts) == pytest.approx(entropy_oracle(counts.tolist()), abs=1e-12)


def test_entropy_errors():
    with pytest.raises(ValidationError):
        entropy_ml([2, -1])
    with pytest.raises(UndefinedMetricError):
        entropy_ml([0, 0])
    with pytest.raises(UndefinedMetricError):
        entropy_mm([0.0])
    for bad in ([1, np.inf], [1, np.nan]):
        with pytest.raises(ValidationError, match="finite"):
            entropy_ml(bad)


def test_entropy_of_a_count_whose_share_underflows():
    # 5e-324 / 2 rounds to 0: the count is observed but adds no entropy.
    assert entropy_ml([2, 5e-324]) == 0.0
    assert entropy_mm([2, 5e-324]) == 0.25  # (2 observed - 1) / (2 * 2)
    assert np.isfinite(mutual_information([[0, 0, 0, 2], [0, 0, 0, 5e-324]]).raw)


def test_miller_madow_needs_a_total_of_at_least_1():
    message = "the Miller-Madow estimator needs a total count of at least 1"
    for call in (
        lambda: entropy_mm([5e-324, 5e-324]),
        lambda: entropy_mm([0.25, 0.5]),
        lambda: mutual_information([[5e-324, 0], [0, 5e-324]]),
        lambda: nmi([[0.5, 0.25], [0.125, 0]], estimator="mm"),
    ):
        with pytest.raises(ValidationError, match=message):
            call()
    assert entropy_mm([0.5, 0.5]) == 1.0 + 1.0 / 2.0  # a total of exactly 1 is allowed
    assert entropy_ml([5e-324, 5e-324]) == 1.0  # the ML estimator has no such rule
    assert mutual_information([[5e-324, 0], [0, 5e-324]], estimator="ml").raw == 1.0


# -- mutual information and NMI --------------------------------------------


def test_mi_independent_table_is_zero_ml():
    # exact integer product table: p_ij = p_i * q_j
    row = np.array([1, 3])
    col = np.array([2, 5, 3])
    table = np.outer(row, col)
    result = mutual_information(table, estimator="ml")
    assert result.raw == pytest.approx(0.0, abs=1e-12)
    assert result.value == pytest.approx(0.0, abs=1e-12)
    assert not result.degenerate


def test_mi_clamps_negative_mm_estimate():
    table = np.outer([1, 1], [1, 1])  # independent, so MM correction bites
    result = mutual_information(table, estimator="mm")
    assert result.raw < 0.0
    assert result.value == 0.0
    # (2-1)+(2-1)-(4-1) observed-cell corrections over 2n = 8
    assert result.raw == pytest.approx(-1.0 / 8.0, abs=1e-12)


def test_mi_perfect_dependence_equals_margin_entropy():
    table = [[3, 0], [0, 7]]
    result = mutual_information(table, estimator="ml")
    assert result.raw == pytest.approx(entropy_oracle([3, 7]), abs=1e-15)


def test_mi_degenerate_single_cell():
    result = mutual_information([[5, 0], [0, 0]], estimator="mm")
    assert result.degenerate
    assert result.raw == 0.0
    assert result.value == 0.0


def test_mi_vs_oracle_random_tables():
    rng = np.random.default_rng(31)
    for _ in range(20):
        table = rng.integers(0, 30, size=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        if table.sum() == 0 or int((table > 0).sum()) <= 1:
            continue
        expected_ml = mutual_information_oracle(table.tolist())
        got = mutual_information(table, estimator="ml")
        assert got.raw == pytest.approx(expected_ml, abs=1e-12)
        # MM estimate recomposed from independently coded entropies
        n = float(table.sum())
        rows = table.sum(axis=1)
        cols = table.sum(axis=0)
        corr = (
            (int((rows > 0).sum()) - 1)
            + (int((cols > 0).sum()) - 1)
            - (int((table > 0).sum()) - 1)
        ) / (2.0 * n)
        got_mm = mutual_information(table, estimator="mm")
        assert got_mm.raw == pytest.approx(expected_ml + corr, abs=1e-12)
        assert got_mm.value == max(got_mm.raw, 0.0)


def test_mi_validation():
    with pytest.raises(ValidationError):
        mutual_information([1, 2, 3])
    with pytest.raises(ValidationError):
        mutual_information([[1, -2], [0, 3]])
    with pytest.raises(UndefinedMetricError):
        mutual_information([[0, 0], [0, 0]])
    with pytest.raises(ValidationError):
        mutual_information([[1, 2], [3, 4]], estimator="median")


def test_nmi_self_is_exactly_one():
    rng = np.random.default_rng(9)
    for estimator in ("ml", "mm"):
        for _ in range(10):
            diag = rng.integers(1, 30, size=int(rng.integers(2, 6)))
            table = np.diag(diag)
            assert nmi(table, respect_to="x", estimator=estimator) == 1.0
            assert nmi(table, respect_to="y", estimator=estimator) == 1.0


def test_nmi_margin_choice_and_errors():
    table = [[2, 0], [1, 1]]
    x_norm = nmi(table, respect_to="x", estimator="ml")
    y_norm = nmi(table, respect_to="y", estimator="ml")
    info = mutual_information_oracle(table)
    assert x_norm == pytest.approx(info / entropy_oracle([2, 2]), abs=1e-12)
    assert y_norm == pytest.approx(info / entropy_oracle([3, 1]), abs=1e-12)
    with pytest.raises(UndefinedMetricError):
        nmi([[2, 3]], respect_to="x")  # single row: zero margin entropy
    with pytest.raises(ValidationError):
        nmi(table, respect_to="rows")


# -- one pass over the joint table, pinned to the path it replaced ---------

_REFERENCE_ERRORS = {ValidationError: ValueError, UndefinedMetricError: ZeroDivisionError}


def _exact(value):
    """Floats as their hex form, so equality is bitwise and NaN equals NaN."""
    if isinstance(value, tuple):
        return tuple(_exact(item) for item in value)
    return float(value).hex() if isinstance(value, float) else value


def _outcome(fn, *args):
    """The call's exact value, or the reference-side type and message of its error."""
    try:
        return _exact(fn(*args))
    except (ValidationError, UndefinedMetricError) as exc:
        return _REFERENCE_ERRORS[type(exc)], str(exc)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _count_tables(cells):
    """1x1 to 5x5 tables; zero cells are common, so zero rows and columns occur."""
    return st.integers(1, 5).flatmap(
        lambda cols: st.lists(
            st.lists(cells, min_size=cols, max_size=cols), min_size=1, max_size=5
        )
    )


# Float totals below 1, subnormal ones among them, meet the Miller-Madow rule.
@settings(max_examples=400, deadline=None)
@given(
    table=_count_tables(
        st.one_of(st.just(0), st.integers(1, 9), st.integers(0, 10**7), st.floats(0.0, 1e7))
    )
)
@example(table=[[7]])
@example(table=[[0, 0], [0, 0]])
@example(table=[[0, 5, 0], [0, 0, 0]])
@example(table=[[3, 0, 2], [0, 0, 0], [1, 0, 4]])
@example(table=[[10**7, 1], [1, 10**7]])
@example(table=[[0, 0, 0, 2], [0, 0, 0, 5e-324]])  # a share that rounds to 0
@example(table=[[5e-324, 0], [0, 5e-324]])  # Miller-Madow on a total below 1
@example(table=[[0.5, 0.25], [0.125, 0.125]])  # a total of exactly 1
def test_table_scores_equal_the_replaced_path(table):
    for entropy, estimator in ((entropy_ml, "ml"), (entropy_mm, "mm")):
        assert _outcome(entropy, table) == _outcome(entropy_reference, table, estimator)
    for estimator in ESTIMATORS:
        assert _outcome(mutual_information, table, estimator) == _outcome(
            mutual_information_reference, table, estimator
        )
        for respect_to in ("x", "y"):
            assert _outcome(nmi, table, respect_to, estimator) == _outcome(
                nmi_reference, table, respect_to, estimator
            )


@pytest.mark.parametrize("width", range(1, 13))
def test_row_entropies_of_a_stack_equal_the_replaced_path(width):
    # numpy adds fewer than 8 values in order, so narrow rows may hold 0.0 for
    # an empty cell; wider rows must add only their non-zero terms.
    rng = np.random.default_rng(width)
    rows = rng.random((400, width)) * 10.0 ** rng.uniform(0, 4, (400, width))
    rows *= rng.random((400, width)) < 0.7
    rows = rows[rows.sum(axis=1) >= 1]
    for estimator in ESTIMATORS:
        got = _entropy(rows, estimator).tolist()
        want = [entropy_reference(row, estimator) for row in rows]
        assert [value.hex() for value in got] == [value.hex() for value in want]


def _both_directions(table, estimator):
    return tuple(nmi_reference(table, respect_to, estimator) for respect_to in ("x", "y"))


@settings(max_examples=200, deadline=None)
@given(table=_count_tables(st.one_of(st.just(0), st.integers(1, 4))))
@example(table=[[3]])
@example(table=[[0, 2], [0, 0]])
def test_partition_nmi_equals_the_replaced_path(table):
    assume(sum(map(sum, table)) > 0)
    a: dict[str, str] = {}
    b: dict[str, str] = {}
    for i, row in enumerate(table):
        for j, count in enumerate(row):
            for _ in range(count):
                node = f"n{len(a)}"
                a[node], b[node] = f"a{i}", f"b{j}"
    pa = Partition.from_assignment(a, [f"a{i}" for i in range(len(table))])
    pb = Partition.from_assignment(b, [f"b{j}" for j in range(len(table[0]))])
    for estimator in ESTIMATORS:
        assert _outcome(partition_nmi, pa, pb, list(a), estimator) == _outcome(
            _both_directions, table, estimator
        )


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 6))
def test_link_nmi_equals_the_replaced_path(data, n):
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    x_links = data.draw(st.sets(st.sampled_from(pairs)))
    y_links = data.draw(st.sets(st.sampled_from(pairs)))
    (n11, n10, n01, n00), _, _ = link_overlap_oracle(n, frozenset(x_links), frozenset(y_links))
    x = layer_of(n, sorted(x_links), name="x")
    y = layer_of(n, sorted(y_links), name="y")
    for estimator in ESTIMATORS:
        assert _outcome(link_nmi, x, y, estimator) == _outcome(
            _both_directions, [[n11, n10], [n01, n00]], estimator
        )


# -- layer-level NMI -------------------------------------------------------


def test_link_indicator_table_hand_case():
    x = layer_of(3, [(0, 1), (1, 2)], name="x")
    y = layer_of(3, [(0, 1), (2, 0)], name="y")
    pair = LinkIndicatorPair.from_layers(x, y)
    assert (pair.n11, pair.n10, pair.n01, pair.n00) == (1, 1, 1, 3)
    assert pair.table().sum() == 6  # 3 * 2 ordered non-self pairs


def test_link_indicator_ignores_self_links_and_weights():
    x = layer_of(3, [(0, 1, 5.0), (1, 1, 2.0)], name="x", weighted=True)
    y = layer_of(3, [(0, 1)], name="y")
    pair = LinkIndicatorPair.from_layers(x, y)
    assert (pair.n11, pair.n10, pair.n01, pair.n00) == (1, 0, 0, 5)


def test_link_nmi_identical_layers_is_one():
    links = [(0, 1), (1, 2), (3, 0)]
    x = layer_of(5, links, name="x")
    y = layer_of(5, links, name="y")
    for estimator in ("ml", "mm"):
        assert link_nmi(x, y, estimator=estimator) == (1.0, 1.0)


def test_link_nmi_matches_table_nmi():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(4, 12))
        x = layer_of(n, random_digraph(rng, n, 0.4), name="x")
        y = layer_of(n, random_digraph(rng, n, 0.4), name="y")
        table = LinkIndicatorPair.from_layers(x, y).table()
        if int((table > 0).sum()) <= 1:
            continue
        try:
            expected = (
                nmi(table, respect_to="x", estimator="mm"),
                nmi(table, respect_to="y", estimator="mm"),
            )
        except UndefinedMetricError:
            with pytest.raises(UndefinedMetricError):
                link_nmi(x, y, estimator="mm")
            continue
        assert link_nmi(x, y, estimator="mm") == expected


def test_link_nmi_registry_mismatch():
    with pytest.raises(ValidationError):
        link_nmi(layer_of(3, [(0, 1)], name="x"), layer_of(4, [(0, 1)], name="y"))


# -- partition-level NMI ---------------------------------------------------


def test_partition_nmi_identical_up_to_relabeling():
    nodes = ids(6)
    a = partition_of(6, [0, 0, 1, 1, 2, 2])
    names = {"g0": "left", "g1": "mid", "g2": "right"}
    labels = np.array(a.labels)[a.codes_on(nodes)].tolist()
    b = Partition.from_assignment({node: names[label] for node, label in zip(nodes, labels)})
    for estimator in ("ml", "mm"):
        assert partition_nmi(a, b, nodes, estimator=estimator) == (1.0, 1.0)


def test_partition_nmi_independent_labels():
    nodes = ids(4)
    a = partition_of(4, [0, 0, 1, 1])
    b = partition_of(4, [0, 1, 0, 1])
    assert partition_nmi(a, b, nodes, estimator="ml") == (0.0, 0.0)
    mm = partition_nmi(a, b, nodes, estimator="mm")
    assert mm[0] == pytest.approx(-0.125 / 1.125, abs=1e-12)
    assert mm[0] == mm[1]


def test_partition_nmi_respects_node_universe():
    # restricting the universe changes the joint table
    nodes = ids(4)
    a = partition_of(4, [0, 0, 1, 1])
    b = partition_of(4, [0, 1, 0, 1])
    full = partition_nmi(a, b, nodes, estimator="ml")  # independent: (0, 0)
    sub = partition_nmi(a, b, nodes[:3], estimator="ml")
    assert full == (0.0, 0.0)
    assert sub[0] > 0.0 and sub[1] > 0.0


def test_partition_nmi_errors():
    a = partition_of(3, [0, 1, 1])
    b = partition_of(3, [0, 0, 1])
    with pytest.raises(ValidationError):
        partition_nmi(a, b, [])
    with pytest.raises(ValidationError):
        partition_nmi(a, b, ["n0", "zzz"])


# -- jackknife --------------------------------------------------------------


def _weight_sum(name: str):
    def metric(net: MultiplexNetwork) -> float:
        return float(net.layer(name).metric_view()[2].sum())

    return metric


def test_jackknife_constant_metric_has_zero_spread():
    net = MultiplexNetwork.assemble([layer_of(5, [(0, 1), (2, 3)])])
    est = jackknife(lambda _: 42.0, net)
    assert est.point == 42.0
    assert est.jack_mean == 42.0
    assert est.two_sigma == 0.0
    assert est.samples == 5
    assert est.skipped == 0
    assert not est.unreliable


def test_jackknife_hand_case_star():
    # links 0->1, 0->2, 0->3, 1->2; leave-one-out weight sums are 1, 2, 2, 3
    net = MultiplexNetwork.assemble([layer_of(4, [(0, 1), (0, 2), (0, 3), (1, 2)])])
    est = jackknife(_weight_sum("links"), net)
    assert est.point == 4.0
    assert est.jack_mean == pytest.approx(2.0, abs=1e-15)
    assert est.two_sigma == pytest.approx(2.0 * np.sqrt(0.5), abs=1e-12)
    assert est.samples == 4 and est.skipped == 0


def test_jackknife_skips_undefined_replicates():
    from polarnet.modularity import q_modularity

    net = MultiplexNetwork.assemble([layer_of(3, [(0, 1)])])
    part = partition_of(3, [0, 1, 1])
    est = jackknife(lambda sub: q_modularity(sub.layer("links"), part), net)
    # dropping n0 or n1 empties the layer; only the n2 replicate survives
    assert est.skipped == 2
    assert est.samples == 3
    assert est.unreliable
    assert est.jack_mean == est.point  # the surviving replicate is the full layer


def test_jackknife_unreliable_threshold_is_ten_percent():
    def run(n: int) -> bool:
        calls = {"i": 0}

        def metric(_: MultiplexNetwork) -> float:
            calls["i"] += 1
            if calls["i"] == 2:  # first replicate after the point evaluation
                raise UndefinedMetricError("boom")
            return 1.0

        net = MultiplexNetwork.assemble([layer_of(n, [(0, 1)])])
        return jackknife(metric, net).unreliable

    assert run(10) is False  # 1 of 10 skipped is not > 10%
    assert run(9) is True  # 1 of 9 skipped is > 10%


def test_jackknife_all_skipped_raises():
    from polarnet.modularity import q_modularity

    net = MultiplexNetwork.assemble([layer_of(2, [(0, 1)])])
    part = partition_of(2, [0, 1])
    with pytest.raises(UndefinedMetricError):
        jackknife(lambda sub: q_modularity(sub.layer("links"), part), net)

