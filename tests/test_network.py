"""Ingestion, merge semantics, registries, partitions and synthetic graphs."""
from __future__ import annotations

import math
from datetime import date
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import columns, ids, layer_of
from oracles import layer_merge_oracle, symmetric_adjacency_oracle
from polarnet.errors import ParseError, ValidationError
from polarnet.network import (
    MISSING_DAY,
    Layer,
    LayerSchema,
    MultiplexNetwork,
    Partition,
    PartyMergeConfig,
    apply_party_merge,
    export_graphml,
    export_layer_csv,
    filter_partition,
    generate_planted_partition,
    ingest_layer,
    read_merge_config,
    read_node_table,
    symmetric_adjacency,
)


# -- CSV ingestion ---------------------------------------------------------


def test_ingest_three_plain_rows(tmp_path):
    path = tmp_path / "layer.csv"
    path.write_text("a,b\nb,a\na,c\n")
    layer = ingest_layer(path, LayerSchema(name="supports"))
    assert layer.name == "supports"
    assert layer.n_links == 3
    assert len(layer.node_ids) == 3
    assert not layer.weighted
    assert layer.days is None


def test_ingest_header_and_columns(tmp_path):
    path = tmp_path / "layer.csv"
    path.write_text("source,target,weight,date\nx,y,2.5,2011-03-01\ny,x,1,2011-03-02\n")
    layer = ingest_layer(path)
    assert layer.weighted
    assert layer.weight.sum() == pytest.approx(3.5)
    assert layer.has_timestamps
    stamps = sorted(link.timestamp for link in layer.links())
    assert stamps == [date(2011, 3, 1), date(2011, 3, 2)]


@pytest.mark.parametrize(
    "header, column",
    [
        ("source,target,wieght", "'wieght'"),
        ("source,target,weight,date,extra", "'extra'"),
        ("source,target,,weight", "''"),
        ("source,target,weight,Weight", "'Weight' given twice"),
    ],
)
def test_ingest_header_names_every_column(tmp_path, header, column):
    path = tmp_path / "layer.csv"
    width = len(header.split(","))
    rows = [",".join(["a", "b", *["2"] * (width - 2)]), ",".join(["b", "c", *["3"] * (width - 2)])]
    path.write_text("\n".join([header, *rows]) + "\n")
    with pytest.raises(ParseError) as err:
        ingest_layer(path)
    assert err.value.line == 1
    assert str(err.value).startswith(f"{path}:1: ")
    assert column in str(err.value)


def test_ingest_header_is_case_insensitive_in_any_order(tmp_path):
    path = tmp_path / "layer.csv"
    path.write_text("Source,TARGET,Date,Weight\nx,y,2011-03-01,2.5\n")
    (link,) = list(ingest_layer(path).links())
    assert (link.source, link.target, link.weight, link.timestamp) == (
        "x", "y", 2.5, date(2011, 3, 1)
    )


def test_ingest_weighted_duplicates_accumulate(tmp_path):
    path = tmp_path / "layer.csv"
    path.write_text("source,target,weight\na,b,2\na,b,3\n")
    layer = ingest_layer(path)
    assert layer.n_links == 1
    assert layer.weight.sum() == pytest.approx(5.0)


def test_ingest_unweighted_duplicates_keep_earliest_date(tmp_path):
    path = tmp_path / "layer.csv"
    path.write_text("source,target,date\na,b,2011-06-05\na,b,2011-02-01\n")
    layer = ingest_layer(path)
    assert layer.n_links == 1
    (link,) = list(layer.links())
    assert link.timestamp == date(2011, 2, 1)


def test_ingest_row_order_does_not_matter(tmp_path):
    rows = ["c,a", "a,b", "b,c", "a,c"]
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    one.write_text("\n".join(rows) + "\n")
    two.write_text("\n".join(reversed(rows)) + "\n")
    a = ingest_layer(one, LayerSchema(name="l"))
    b = ingest_layer(two, LayerSchema(name="l"))
    # registries may differ in order; compare by link end-point names
    names_a = sorted((a.node_ids[s], a.node_ids[t]) for s, t in zip(a.src, a.dst))
    names_b = sorted((b.node_ids[s], b.node_ids[t]) for s, t in zip(b.src, b.dst))
    assert names_a == names_b


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("a,b,0\n", "weight"),
        ("a,b,-1\n", "weight"),
        ("a,b,nan\n", "weight"),
        ("a,b,1,03/05/2011\n", "date"),
        ("a\n", "column"),
    ],
)
def test_ingest_bad_rows_name_path_and_line(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ParseError) as err:
        ingest_layer(path)
    message = str(err.value)
    assert str(path) in message
    assert ":1:" in message
    assert fragment in message.lower()


@pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
def test_ingest_names_non_finite_weights(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"source,target,weight\na,b,1\na,b,{cell}\n")
    with pytest.raises(ParseError) as err:
        ingest_layer(path)
    assert str(err.value).startswith(f"{path}:3:")
    assert f"non-finite weight '{cell}'" in str(err.value)


@pytest.mark.parametrize(
    "body",
    [
        "source,target,weight\na,b,1e308\na,b,1e308\n",
        "source,target,weight\na,b,1e308\nb,a,1e308\n",
    ],
    ids=["merged-link", "layer-total"],
)
def test_ingest_rejects_weights_that_sum_past_the_float_range(tmp_path, body):
    path = tmp_path / "big.csv"
    path.write_text(body)
    with pytest.raises(ParseError) as err:
        ingest_layer(path)
    assert f"{path}:3:" in str(err.value)


def test_ingest_empty_file_gives_empty_layer(tmp_path):
    # an empty layer is legal at ingest time; metrics on it are undefined
    path = tmp_path / "empty.csv"
    path.write_text("")
    layer = ingest_layer(path, LayerSchema(name="l"))
    assert layer.n_links == 0
    from polarnet.errors import UndefinedMetricError
    from polarnet.modularity import q_modularity

    with pytest.raises(UndefinedMetricError):
        q_modularity(layer, Partition.from_assignment({"a": "x"}))


def test_self_links_kept_but_excluded_from_metric_view():
    layer = layer_of(3, [(0, 0), (0, 1), (1, 2)])
    assert layer.n_links == 3
    src, dst, w = layer.metric_view()
    assert len(src) == 2
    assert w.sum() == pytest.approx(2.0)
    assert (0, 0) not in set(zip(src.tolist(), dst.tolist()))


def test_export_round_trip(tmp_path):
    layer = layer_of(4, [(0, 1, 2.0, 734000), (2, 3, 1.5, 734100), (1, 0, 3.0, None)])
    path = tmp_path / "out.csv"
    export_layer_csv(layer, path)
    again = ingest_layer(path, LayerSchema(name=layer.name))
    assert again.node_ids == layer.node_ids or sorted(again.node_ids) == sorted(layer.node_ids)
    first = sorted((layer.node_ids[s], layer.node_ids[t], float(ww)) for s, t, ww in zip(layer.src, layer.dst, layer.weight))
    second = sorted((again.node_ids[s], again.node_ids[t], float(ww)) for s, t, ww in zip(again.src, again.dst, again.weight))
    assert first == second


def test_unknown_node_rejected_with_fixed_registry():
    with pytest.raises(ValidationError):
        Layer.from_columns("l", ["a"], ["zzz"], [1.0], [MISSING_DAY], node_ids=("a", "b"))


# (source, target, weight, day offset or None).  Weights like 0.1, 0.2, 0.3
# and 0.7 sum to different floats in different orders; "e" is missing from
# the short registry, and "x" in the long one links to nothing.
_MERGE_LINK = st.tuples(
    st.sampled_from("abcde"),
    st.sampled_from("abcde"),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0]),
    st.one_of(st.none(), st.integers(0, 3)),
)
_SPOIL = st.one_of(
    st.none(), st.tuples(st.integers(0, 29), st.sampled_from([0.0, -1.0, math.nan, math.inf]))
)


@settings(max_examples=300, deadline=None)
@given(
    links=st.lists(_MERGE_LINK, max_size=30),
    weighted=st.sampled_from([True, False, None]),
    unit=st.booleans(),
    spoil=_SPOIL,
    node_ids=st.sampled_from([None, ("d", "c", "x", "b", "a", "e"), ("a", "b", "c", "d")]),
)
@example(links=[], weighted=None, unit=False, spoil=None, node_ids=None)  # empty layer
@example(  # nine weights of one link: a sequential sum, not numpy's pairwise one
    links=[("a", "b", w, 0) for w in (0.1, 0.3, 0.2, 0.3, 0.1, 0.1, 0.3, 0.7, 0.1)],
    weighted=True, unit=False, spoil=None, node_ids=None,
)
@example(  # one pair dated, undated and dated earlier: the earliest day stays
    links=[("a", "b", 1.0, 2), ("a", "b", 1.0, None), ("a", "b", 1.0, 0), ("b", "b", 1.0, None)],
    weighted=False, unit=True, spoil=None, node_ids=None,
)
def test_from_columns_equals_dict_merge_oracle(links, weighted, unit, spoil, node_ids):
    records = [
        (s, t, 1.0 if unit else w, None if day is None else date(2021, 3, 1 + day))
        for s, t, w, day in links
    ]
    if spoil is not None and spoil[0] < len(records):
        s, t, _, when = records[spoil[0]]
        records[spoil[0]] = (s, t, spoil[1], when)

    def build() -> Layer:
        rows = [(s, t, w, None if when is None else when.toordinal()) for s, t, w, when in records]
        return Layer.from_columns("l", *columns(rows), weighted=weighted, node_ids=node_ids)

    try:
        registry, src, dst, weight, days = layer_merge_oracle(records, weighted, node_ids)
    except ValueError as exc:
        with pytest.raises(ValidationError) as err:
            build()
        assert str(err.value) == f"layer 'l': {exc}"
        return
    layer = build()
    assert layer.node_ids == registry
    assert layer.weighted == (any(r[2] != 1.0 for r in records) if weighted is None else weighted)
    assert (layer.src.dtype, layer.dst.dtype, layer.weight.dtype) == (np.int64, np.int64, np.float64)
    assert layer.src.tolist() == src
    assert layer.dst.tolist() == dst
    assert layer.weight.tolist() == weight
    if days is None:
        assert layer.days is None
    else:
        assert layer.days.dtype == np.int64
        assert layer.days.tolist() == days


# -- node table / merge ----------------------------------------------------


def test_read_node_table(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("node_id,affiliation\np1,SP\np2,SVP\np3,\n")
    table = read_node_table(path)
    assert table == {"p1": "SP", "p2": "SVP", "p3": ""}


def test_read_node_table_rejects_repeated_node_id(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("node_id,affiliation\np1,SP\np2,SVP\np1,FDP\n")
    with pytest.raises(ParseError) as err:
        read_node_table(path)
    assert f"{path}:4:" in str(err.value)
    assert "p1" in str(err.value)


def test_merge_config_parse(tmp_path):
    path = tmp_path / "merge.cfg"
    path.write_text("# canonical parties\nSVP=SVP/EDU\nEDU=SVP/EDU\nSP=SP\n*=none\n")
    config = read_merge_config(path)
    assert config.mapping == {"SVP": "SVP/EDU", "EDU": "SVP/EDU", "SP": "SP"}
    assert config.unaligned_label == "none"


def test_merge_config_duplicate_key(tmp_path):
    path = tmp_path / "merge.cfg"
    path.write_text("SP=SP\nSP=Left\n")
    with pytest.raises(ParseError) as err:
        read_merge_config(path)
    assert ":2:" in str(err.value)


def test_merge_config_rejects_second_unaligned_key(tmp_path):
    path = tmp_path / "merge.cfg"
    path.write_text("SP=SP\n*=none\n# later\n*=other\n")
    with pytest.raises(ParseError) as err:
        read_merge_config(path)
    assert f"{path}:4:" in str(err.value)
    assert "'*'" in str(err.value)


def test_merge_config_drops_byte_order_mark(tmp_path):
    path = tmp_path / "merge.cfg"
    path.write_bytes("\ufeffSP=Left\n*=none\n".encode("utf-8"))
    config = read_merge_config(path)
    assert config.mapping == {"SP": "Left"}
    assert config.unaligned_label == "none"


def test_apply_party_merge_orders_and_defaults():
    config = PartyMergeConfig({"SVP": "SVP/EDU", "EDU": "SVP/EDU", "SP": "SP"})
    partition = apply_party_merge(
        {"a": "SP", "b": "SVP", "c": "EDU", "d": "Pirates", "e": ""}, config
    )
    # config value order first, then unaligned last; unmapped raws go unaligned
    assert partition.labels == ("SVP/EDU", "SP", "unaligned")
    assert partition.label_of("c") == "SVP/EDU"
    assert partition.label_of("d") == "unaligned"
    assert partition.label_of("e") == "unaligned"


def test_identity_merge_skips_empty():
    config = PartyMergeConfig.identity(["B", "A", "", "B"])
    assert config.mapping == {"A": "A", "B": "B"}


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition.from_assignment({})
    with pytest.raises(ValidationError):
        Partition.from_assignment({"a": "x"}, labels=("x", "x"))
    with pytest.raises(ValidationError):
        Partition.from_assignment({"a": "x"}, labels=("y",))
    part = Partition.from_assignment({"a": "x", "b": "y"})
    assert part.labels == ("x", "y")
    with pytest.raises(ValidationError):
        part.label_of("zzz")


def test_partition_codes_follow_label_order():
    part = Partition.from_assignment({"a": "x", "b": "y", "c": "x"}, labels=("y", "x"))
    assert part.codes(["a", "b", "c"]).tolist() == [1, 0, 1]
    assert part.codes(["c"]).dtype == np.int64
    with pytest.raises(ValidationError, match="zzz"):
        part.codes(["a", "zzz"])
    # The dataclass constructor skips from_assignment's label check.
    undeclared = Partition({"a": "x", "b": "w"}, ("x",))
    with pytest.raises(ValidationError, match="'w'"):
        undeclared.codes(["a", "b"])


# -- multiplex assembly ----------------------------------------------------


def test_assemble_registry_order_and_lookup():
    a = layer_of(2, [(0, 1)], name="a")
    b = Layer.from_columns("b", ["extra"], ["n0"], [1.0], [MISSING_DAY])
    network = MultiplexNetwork.assemble([a, b], node_table={"table_first": "X"})
    assert network.node_ids[0] == "table_first"
    assert set(network.node_ids) == {"table_first", "n0", "n1", "extra"}
    assert network.layer("a").node_ids == network.node_ids
    with pytest.raises(ValidationError):
        network.layer("missing")
    with pytest.raises(ValidationError):
        MultiplexNetwork.assemble([a, layer_of(2, [(0, 1)], name="a")])


def test_drop_node_masks_links_and_registry_indices():
    layer = layer_of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    network = MultiplexNetwork.assemble([layer])
    dropped = network.drop_node("n1")
    assert dropped.n == network.n - 1
    sub = dropped.layer("links")
    pairs = set(zip(sub.src.tolist(), sub.dst.tolist()))
    assert pairs == {(2, 3), (3, 0)}
    assert sub.node_count == 3
    # indices stay aligned with the original registry
    assert dropped.node_ids == network.node_ids
    with pytest.raises(ValidationError):
        dropped.drop_node("n1")


def test_drop_node_shares_the_parent_registry_index():
    layer = layer_of(3, [(0, 1), (1, 2)])
    network = MultiplexNetwork.assemble([layer], node_table={"n0": "A", "n1": "B", "n2": "A"})
    dropped = network.drop_node("n2")
    assert dropped.index is network.index
    assert dropped.drop_node("n0").index is network.index


def test_induced_renumbers():
    layer = layer_of(4, [(0, 1), (1, 2), (2, 3)])
    network = MultiplexNetwork.assemble([layer])
    sub = network.induced(["n1", "n2"])
    assert sub.node_ids == ("n1", "n2")
    pairs = set(zip(sub.layer("links").src.tolist(), sub.layer("links").dst.tolist()))
    assert pairs == {(0, 1)}


def test_filter_partition():
    layer = layer_of(4, [(0, 1), (2, 3)])
    network = MultiplexNetwork.assemble([layer])
    partition = Partition.from_assignment(
        {"n0": "a", "n1": "a", "n2": "none", "n3": "b"}, ("a", "b", "none")
    )
    net2, part2 = filter_partition(network, partition, "none")
    assert net2.node_ids == ("n0", "n1", "n3")
    assert part2.labels == ("a", "b")
    # absent label is a no-op
    same_net, same_part = filter_partition(network, partition, "ghost")
    assert same_net is network and same_part is partition
    all_gone = Partition.from_assignment({f"n{i}": "x" for i in range(4)}, ("x",))
    with pytest.raises(ValidationError):
        filter_partition(network, all_gone, "x")


# -- synthetic graphs and GraphML -----------------------------------------


def test_planted_partition_properties():
    net, part = generate_planted_partition(3, 5, 0.9, 0.05, seed=123)
    layer = net.layer("links")
    assert len(net.node_ids) == 15
    assert part.labels == ("g0", "g1", "g2")
    assert not (layer.src == layer.dst).any()
    again, _ = generate_planted_partition(3, 5, 0.9, 0.05, seed=123)
    assert np.array_equal(layer.src, again.layer("links").src)
    assert np.array_equal(layer.dst, again.layer("links").dst)
    other, _ = generate_planted_partition(3, 5, 0.9, 0.05, seed=124)
    assert not (
        len(layer.src) == len(other.layer("links").src)
        and np.array_equal(layer.src, other.layer("links").src)
        and np.array_equal(layer.dst, other.layer("links").dst)
    )
    with pytest.raises(ValidationError):
        generate_planted_partition(2, 4, 0.3, 0.5, seed=1)
    with pytest.raises(ValidationError):
        generate_planted_partition(0, 4, 0.5, 0.1, seed=1)


def test_export_graphml(tmp_path):
    layer = layer_of(3, [(0, 1, 2.0, 734000), (1, 2)], name="likes")
    network = MultiplexNetwork.assemble([layer])
    partition = Partition.from_assignment({"n0": "a", "n1": "a", "n2": "b"}, ("a", "b"))
    path = tmp_path / "net.graphml"
    export_graphml(network, path, partition)
    tree = ElementTree.parse(path)
    nodes = tree.getroot().findall(".//node")
    edges = tree.getroot().findall(".//edge")
    assert len(nodes) == 3
    assert len(edges) == 2
    groups = {el.get("id"): el.findtext("data") for el in nodes}
    assert groups["n2"] == "b"


def test_metric_view_cached_and_copy_safe():
    layer = layer_of(3, [(0, 1), (1, 2)])
    first = layer.metric_view()
    second = layer.metric_view()
    assert first[0] is second[0]


def test_ids_helper():
    assert ids(3) == ("n0", "n1", "n2")


# -- symmetrized adjacency -------------------------------------------------

# (source, target, weight, day offset or None); sources and targets index a
# registry that may hold nodes no link touches, and equal endpoints make
# self-links, which the metric view drops.  Weights like 0.1, 0.2 and 0.3
# sum to different floats in different orders.
_ADJ_LINK = st.tuples(
    st.integers(0, 7),
    st.integers(0, 7),
    st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.7]), st.floats(0.01, 10.0)),
    st.one_of(st.none(), st.integers(0, 3)),
)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 8), links=st.lists(_ADJ_LINK, max_size=30), weighted=st.booleans())
@example(n=3, links=[], weighted=False)  # empty layer
@example(  # one pair linked on four days both ways, two isolated nodes
    n=4, links=[(0, 1, 0.1, 0), (0, 1, 0.2, 1), (1, 0, 0.3, 2), (1, 0, 0.7, 3)], weighted=True
)
def test_symmetric_adjacency_equals_dict_oracle_bit_for_bit(n, links, weighted):
    registry = ids(n)
    rows = [
        (registry[s % n], registry[t % n], w if weighted else 1.0,
         None if day is None else date(2021, 3, 1 + day).toordinal())
        for s, t, w, day in links
    ]
    layer = Layer.from_columns("l", *columns(rows), weighted=weighted, node_ids=registry)
    src, dst, w = layer.metric_view()
    adj = symmetric_adjacency(n, src, dst, w)
    expected = symmetric_adjacency_oracle(n, zip(src.tolist(), dst.tolist(), w.tolist()))
    assert adj.shape == (n, n)
    for i, row in enumerate(expected):
        cells = slice(adj.indptr[i], adj.indptr[i + 1])
        assert adj.indices[cells].tolist() == sorted(row)
        assert adj.data[cells].tolist() == [row[j] for j in sorted(row)]
