"""End-to-end command-line runs over a small two-layer fixture."""
from __future__ import annotations

import csv
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import polarnet
from polarnet.cli import main
from polarnet.infometrics import jackknife, link_nmi, partial_jaccard
from polarnet.modularity import q_modularity
from polarnet.network import (
    MultiplexNetwork,
    apply_party_merge,
    filter_partition,
    ingest_layer,
    read_merge_config,
    read_node_table,
)
from polarnet.reports import format_value
from polarnet.structure import structure_report

RETWEETS = """source,target,weight,date
u0,u1,2,2021-03-01
u1,u2,1,2021-03-02
u2,u3,1,2021-03-03
u3,u0,1,2021-03-09
u0,u2,1,2021-03-05
u4,u5,2,2021-03-01
u5,u6,1,2021-03-04
u6,u7,1,2021-03-06
u7,u4,1,2021-03-10
u5,u7,1,2021-03-07
u1,u5,1,2021-03-05
u8,u0,1,2021-03-02
u9,u4,1,2021-03-08
"""

REPLIES = """source,target
u0,u1
u1,u0
u2,u3
u4,u5
u5,u4
u6,u7
u1,u4
u8,u9
"""

NODES = """node_id,affiliation
u0,a1
u1,a2
u2,a1
u3,a2
u4,b
u5,b
u6,b
u7,b
u8,ind
"""

MERGE = """# raw affiliation -> canonical party
a1 = A
a2 = A
b = B
* = unaligned
"""

POSITIONS = """party,lr,cl
A,1.0,2.0
B,4.0,6.0
unaligned,0,0
"""

COMMENTS_HEADER = "author,date,text\n"


@pytest.fixture()
def fixture_dir(tmp_path: Path) -> Path:
    (tmp_path / "retweets.csv").write_text(RETWEETS, encoding="utf-8")
    (tmp_path / "replies.csv").write_text(REPLIES, encoding="utf-8")
    (tmp_path / "nodes.csv").write_text(NODES, encoding="utf-8")
    (tmp_path / "merge.cfg").write_text(MERGE, encoding="utf-8")
    (tmp_path / "positions.csv").write_text(POSITIONS, encoding="utf-8")
    comments = COMMENTS_HEADER + "".join(
        [
            'u0,2021-03-01,"%s"\n' % ("Klimapolitik " * 12).strip(),
            'u1,,"Klimapolitik und so weiter"\n',
            'u4,2021-03-02,"%s"\n' % ("Steuern " * 12).strip(),
            'u5,,"Steuern sofort"\n',
            'u8,,"Ganz andere Worte"\n',
        ]
    )
    (tmp_path / "comments.csv").write_text(comments, encoding="utf-8")
    return tmp_path


def _base_args(fix: Path, *, both_layers: bool = True) -> list[str]:
    args = ["--layer", f"retweets={fix / 'retweets.csv'}"]
    if both_layers:
        args += ["--layer", f"replies={fix / 'replies.csv'}"]
    args += ["--nodes", str(fix / "nodes.csv"), "--merge", str(fix / "merge.cfg")]
    return args


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _library_view(fix: Path):
    """Assemble the same network/partition the CLI builds from the fixture."""
    layers = []
    for name in ("retweets", "replies"):
        from polarnet.network import LayerSchema

        layers.append(ingest_layer(fix / f"{name}.csv", LayerSchema(name=name)))
    table = read_node_table(fix / "nodes.csv")
    network = MultiplexNetwork.assemble(layers, table)
    merge = read_merge_config(fix / "merge.cfg")
    raw = {node: table.get(node, "") for node in network.node_ids}
    partition = apply_party_merge(raw, merge)
    return network, partition, merge


# -- polarization -----------------------------------------------------------


def test_polarization_end_to_end(fixture_dir):
    out = fixture_dir / "out"
    code = main(
        ["polarization", *_base_args(fixture_dir), "--portfolio", "f-1,r-1",
         "--out", str(out)]
    )
    assert code == 0
    rows = _read_rows(out / "polarization.csv")
    assert [(r["layer"], r["variant"]) for r in rows] == [
        ("retweets", "incl_unaligned"),
        ("retweets", "excl_unaligned"),
        ("replies", "incl_unaligned"),
        ("replies", "excl_unaligned"),
    ]
    network, partition, merge = _library_view(fixture_dir)
    incl = rows[0]
    assert incl["q_party"] == format_value(q_modularity(network.layer("retweets"), partition))
    assert incl["q_party_class"] in ("polarized", "not_polarized")
    filtered_net, filtered_part = filter_partition(network, partition, merge.unaligned_label)
    excl = rows[1]
    assert excl["q_party"] == format_value(
        q_modularity(filtered_net.layer("retweets"), filtered_part)
    )
    assert all(r["comp_script"] in ("f-1", "r-1") for r in rows)
    assert all(float(r["two_sigma"]) >= 0.0 for r in rows)


def test_polarization_requires_seed_for_stochastic_portfolio(fixture_dir, capsys):
    out = fixture_dir / "out"
    code = main(["polarization", *_base_args(fixture_dir), "--out", str(out)])
    assert code == 1
    assert "--seed is required" in capsys.readouterr().err


def test_spectral_portfolio_needs_no_seed(fixture_dir):
    reports = []
    for tag, seed in (("unseeded", []), ("seeded", ["--seed", "7"])):
        out = fixture_dir / tag
        args = ["polarization", *_base_args(fixture_dir), "--portfolio", "s-1", *seed]
        assert main([*args, "--out", str(out)]) == 0
        reports.append((out / "polarization.csv").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", ["polarization", "group-nmi"])
def test_negative_seed_is_an_error_without_traceback(fixture_dir, capsys, command):
    out = fixture_dir / "out"
    args = [command, *_base_args(fixture_dir), "--portfolio", "f-1", "--seed", "-1"]
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["polarnet: error: --seed must be a non-negative integer, not -1"]


def test_polarization_is_byte_deterministic(fixture_dir):
    outs = []
    for tag in ("one", "two"):
        out = fixture_dir / tag
        code = main(
            ["polarization", *_base_args(fixture_dir), "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        outs.append((out / "polarization.csv").read_bytes())
    assert outs[0] == outs[1]


def _write_shuffle_fixture(root: Path, rng: random.Random) -> list[str]:
    """60 nodes, all in the node table; a dated layer with integer weights and
    repeated pairs, and an unweighted layer.  Returns the common CLI args."""
    nodes = [f"v{i}" for i in range(60)]
    party = {node: ("L", "C", "R", "")[i % 4] for i, node in enumerate(nodes)}
    (root / "nodes.csv").write_text(
        "node_id,affiliation\n" + "".join(f"{n},{party[n]}\n" for n in nodes), encoding="utf-8"
    )
    (root / "merge.cfg").write_text("L = Left\nC = Centre\nR = Right\n", encoding="utf-8")

    def partner(node: str) -> str:
        pool = [n for n in nodes if party[n] == party[node]] if rng.random() < 0.7 else nodes
        return rng.choice([n for n in pool if n != node])

    retweets = ["source,target,weight,date"]
    replies = ["source,target"]
    for node in nodes:
        for _ in range(4):
            day = f"2021-03-{rng.randint(1, 28):02d}"
            retweets.append(f"{node},{partner(node)},{rng.randint(1, 4)},{day}")
            replies.append(f"{node},{partner(node)}")
    retweets += retweets[1:11]  # the same pairs again, merged on ingest
    for name, rows in (("retweets", retweets), ("replies", replies)):
        (root / f"{name}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return ["--layer", f"retweets={root / 'retweets.csv'}", "--layer",
            f"replies={root / 'replies.csv'}", "--nodes", str(root / "nodes.csv"),
            "--merge", str(root / "merge.cfg")]


def test_reports_unchanged_when_layer_rows_are_shuffled(tmp_path):
    """Shuffling every layer's data rows leaves the reports byte-identical.

    Scope: every node is in the node table, so the registry order does not
    depend on which row names a node first (a node missing from the table
    takes first-seen order, and detection breaks ties by index), and the
    weights are integers, which merge to the same sum in any order (float
    weights merged in another order can change last bits).
    """
    rng = random.Random(12)
    args = _write_shuffle_fixture(tmp_path, rng)
    commands = [
        ["layer-similarity"],
        ["polarization", "--portfolio", "f-1", "--seed", "5"],
        ["group-nmi", "--portfolio", "f-1", "--seed", "5"],
    ]

    def reports(out: Path) -> dict[str, bytes]:
        for command in commands:
            assert main([*command, *args, "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    ordered = reports(tmp_path / "ordered")
    assert sorted(ordered) == ["group_nmi.csv", "layer_similarity.csv", "polarization.csv"]
    for round_ in range(2):
        for name in ("retweets", "replies"):
            path = tmp_path / f"{name}.csv"
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            rng.shuffle(rows)
            path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        assert reports(tmp_path / f"shuffled{round_}") == ordered


def test_polarization_no_jackknife_blanks_error_columns(fixture_dir):
    out = fixture_dir / "out"
    code = main(
        ["polarization", *_base_args(fixture_dir), "--portfolio", "f-1",
         "--no-jackknife", "--out", str(out)]
    )
    assert code == 0
    rows = _read_rows(out / "polarization.csv")
    assert all(r["jack_mean"] == "" and r["two_sigma"] == "" and r["unreliable"] == "" for r in rows)


# -- failure modes ----------------------------------------------------------


def test_missing_layer_file_names_path(fixture_dir, capsys):
    out = fixture_dir / "out"
    missing = fixture_dir / "nope.csv"
    code = main(
        ["polarization", "--layer", f"x={missing}", "--nodes",
         str(fixture_dir / "nodes.csv"), "--seed", "1", "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "polarnet: error:" in err
    assert str(missing) in err


@pytest.mark.parametrize(
    "layer_arg",
    ["noequals", "=path.csv", "name=", "bad name=x.csv", "sp@ce=x.csv"],
)
def test_bad_layer_argument(fixture_dir, capsys, layer_arg):
    code = main(
        ["export", "--layer", layer_arg, "--out", str(fixture_dir / "out")]
    )
    assert code == 1
    assert "polarnet: error:" in capsys.readouterr().err


def test_duplicate_layer_name(fixture_dir, capsys):
    code = main(
        ["export",
         "--layer", f"x={fixture_dir / 'retweets.csv'}",
         "--layer", f"x={fixture_dir / 'replies.csv'}",
         "--out", str(fixture_dir / "out")]
    )
    assert code == 1
    assert "given twice" in capsys.readouterr().err


def test_latin1_layer_is_an_error_without_traceback(fixture_dir, capsys):
    latin = fixture_dir / "latin.csv"
    latin.write_bytes("source,target\nM\xfcller,c\n".encode("latin-1"))
    code = main(["structure", "--layer", f"l={latin}", "--out", str(fixture_dir / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"polarnet: error: {latin}:2: not UTF-8 text" in err
    assert "Traceback" not in err


def test_layer_similarity_needs_two_layers(fixture_dir, capsys):
    code = main(
        ["layer-similarity", "--layer", f"retweets={fixture_dir / 'retweets.csv'}",
         "--out", str(fixture_dir / "out")]
    )
    assert code == 1
    assert "at least 2" in capsys.readouterr().err


# -- layer similarity -------------------------------------------------------


def test_layer_similarity_points_match_library(fixture_dir):
    out = fixture_dir / "out"
    code = main(
        ["layer-similarity", *_base_args(fixture_dir), "--no-jackknife",
         "--out", str(out)]
    )
    assert code == 0
    rows = _read_rows(out / "layer_similarity.csv")
    assert [(r["metric"], r["layer_x"], r["layer_y"]) for r in rows] == [
        ("overlap", "retweets", "replies"),
        ("nmi", "retweets", "replies"),
        ("overlap", "replies", "retweets"),
        ("nmi", "replies", "retweets"),
    ]
    network, _, _ = _library_view(fixture_dir)
    x, y = network.layer("retweets"), network.layer("replies")
    assert rows[0]["point"] == format_value(partial_jaccard(x, y))
    assert rows[1]["point"] == format_value(link_nmi(x, y, "mm")[0])
    assert rows[2]["point"] == format_value(partial_jaccard(y, x))
    assert rows[3]["point"] == format_value(link_nmi(y, x, "mm")[0])
    assert all(r["jack_mean"] == "" for r in rows)


def test_layer_similarity_jackknife_columns_filled(fixture_dir):
    out = fixture_dir / "out"
    code = main(["layer-similarity", *_base_args(fixture_dir), "--out", str(out)])
    assert code == 0
    rows = _read_rows(out / "layer_similarity.csv")
    for row in rows:
        assert row["jack_mean"] != ""
        assert float(row["two_sigma"]) >= 0.0
        assert row["unreliable"] in ("true", "false")


def test_jackknife_cells_equal_brute_force_jackknife(fixture_dir):
    """The closed-form error bars equal ``jackknife`` over ``drop_node`` copies."""
    out = fixture_dir / "out"
    assert main(["polarization", *_base_args(fixture_dir), "--portfolio", "f-1",
                 "--out", str(out)]) == 0
    assert main(["layer-similarity", *_base_args(fixture_dir), "--out", str(out)]) == 0
    network, partition, merge = _library_view(fixture_dir)

    def cells(metric, net) -> list[str]:
        estimate = jackknife(metric, net)
        return [format_value(v) for v in (estimate.jack_mean, estimate.two_sigma, estimate.unreliable)]

    rows = _read_rows(out / "polarization.csv")
    assert len(rows) == 4
    for row in rows:
        net, part = network, partition
        if row["variant"] == "excl_unaligned":
            net, part = filter_partition(network, partition, merge.unaligned_label)
        codes = part.codes(net.node_ids)
        metric = lambda sub, name=row["layer"]: q_modularity(sub.layer(name), None, codes=codes)
        assert [row["jack_mean"], row["two_sigma"], row["unreliable"]] == cells(metric, net)

    rows = _read_rows(out / "layer_similarity.csv")
    assert len(rows) == 4
    for row in rows:
        x, y = row["layer_x"], row["layer_y"]
        if row["metric"] == "overlap":
            metric = lambda sub: partial_jaccard(sub.layer(x), sub.layer(y))
        else:
            metric = lambda sub: link_nmi(sub.layer(x), sub.layer(y), "mm")[0]
        assert [row["jack_mean"], row["two_sigma"], row["unreliable"]] == cells(metric, network)


# -- group NMI --------------------------------------------------------------

def test_group_nmi_pairs_and_estimator(fixture_dir):
    out = fixture_dir / "out"
    code = main(
        ["group-nmi", *_base_args(fixture_dir), "--portfolio", "f-1",
         "--estimator", "ml", "--out", str(out)]
    )
    assert code == 0
    rows = _read_rows(out / "group_nmi.csv")
    names = {"parties", "communities:retweets", "communities:replies"}
    assert {(r["x"], r["y"]) for r in rows} == {
        (a, b) for a in names for b in names if a != b
    }
    assert all(r["estimator"] == "ml" for r in rows)
    assert all(-1.0 <= float(r["nmi"]) <= 1.0 + 1e-9 for r in rows)


def test_group_nmi_exclude_unaligned_changes_result(fixture_dir):
    outs = []
    for flag, tag in ((False, "with"), (True, "without")):
        out = fixture_dir / tag
        args = ["group-nmi", *_base_args(fixture_dir), "--portfolio", "f-1",
                "--out", str(out)]
        if flag:
            args.append("--exclude-unaligned")
        assert main(args) == 0
        outs.append((out / "group_nmi.csv").read_bytes())
    assert outs[0] != outs[1]


# -- timeseries -------------------------------------------------------------


def test_timeseries_full_span_matches_polarization(fixture_dir):
    out = fixture_dir / "out"
    code = main(
        ["timeseries", "--layer", f"retweets={fixture_dir / 'retweets.csv'}",
         "--nodes", str(fixture_dir / "nodes.csv"),
         "--merge", str(fixture_dir / "merge.cfg"),
         "--window-days", "10", "--step-days", "10", "--out", str(out)]
    )
    assert code == 0
    rows = _read_rows(out / "timeseries.csv")
    assert len(rows) == 1
    network, partition, _ = _library_view(fixture_dir)
    assert rows[0]["window_start"] == "2021-03-01"
    assert rows[0]["value"] == format_value(q_modularity(network.layer("retweets"), partition))
    assert rows[0]["links_in_window"] == "13"


def test_timeseries_exclude_unaligned_uses_filtered_network(fixture_dir):
    out = fixture_dir / "out"
    code = main(
        ["timeseries", "--layer", f"retweets={fixture_dir / 'retweets.csv'}",
         "--nodes", str(fixture_dir / "nodes.csv"),
         "--merge", str(fixture_dir / "merge.cfg"),
         "--window-days", "10", "--step-days", "10",
         "--exclude-unaligned", "--out", str(out)]
    )
    assert code == 0
    rows = _read_rows(out / "timeseries.csv")
    network, partition, merge = _library_view(fixture_dir)
    filtered_net, filtered_part = filter_partition(network, partition, merge.unaligned_label)
    assert rows[0]["value"] == format_value(
        q_modularity(filtered_net.layer("retweets"), filtered_part)
    )
    assert rows[0]["links_in_window"] == "11"  # u8/u9 links are gone


def test_timeseries_events_annotate_windows(fixture_dir):
    events = fixture_dir / "events.csv"
    events.write_text("date,label\n2021-03-05,Debate\n2022-01-01,Later\n", encoding="utf-8")
    out = fixture_dir / "out"
    code = main(
        ["timeseries", "--layer", f"retweets={fixture_dir / 'retweets.csv'}",
         "--nodes", str(fixture_dir / "nodes.csv"),
         "--merge", str(fixture_dir / "merge.cfg"),
         "--window-days", "10", "--step-days", "10",
         "--events", str(events), "--out", str(out)]
    )
    assert code == 0
    rows = _read_rows(out / "timeseries.csv")
    assert rows[0]["annotations"] == "Debate"
    event_rows = _read_rows(out / "timeseries_events.csv")
    assert [(r["label"], r["in_span"]) for r in event_rows] == [
        ("Debate", "true"),
        ("Later", "false"),
    ]
    assert event_rows[1]["window_start"] == ""


def test_timeseries_undated_layer_fails(fixture_dir, capsys):
    code = main(
        ["timeseries", "--layer", f"replies={fixture_dir / 'replies.csv'}",
         "--nodes", str(fixture_dir / "nodes.csv"),
         "--merge", str(fixture_dir / "merge.cfg"),
         "--out", str(fixture_dir / "out")]
    )
    assert code == 1
    assert "no timestamps" in capsys.readouterr().err


# -- structure --------------------------------------------------------------


def test_structure_rows_match_library(fixture_dir):
    out = fixture_dir / "out"
    code = main(
        ["structure", *_base_args(fixture_dir), "--min-group-size", "4",
         "--positions", str(fixture_dir / "positions.csv"), "--out", str(out)]
    )
    assert code == 0
    rows = _read_rows(out / "structure.csv")
    network, partition, _ = _library_view(fixture_dir)
    assert [(r["layer"], r["group"]) for r in rows] == [
        ("retweets", "A"), ("retweets", "B"), ("replies", "A"), ("replies", "B"),
    ]
    report = structure_report(network.layer("retweets"), partition, min_group_size=4)
    assert rows[0]["n"] == str(report[0].n)
    assert rows[0]["links"] == str(report[0].links)
    assert rows[0]["in_degree_centralization"] == format_value(
        report[0].in_degree_centralization
    )
    assert rows[0]["max_kcore"] == str(report[0].max_kcore)
    assert rows[0]["lr"] == "1" and rows[0]["cl"] == "2"


# -- demodularity -----------------------------------------------------------


def test_demodularity_matrix_and_correlation_files(fixture_dir):
    out = fixture_dir / "out"
    code = main(
        ["demodularity", *_base_args(fixture_dir), "--min-group-size", "2",
         "--positions", str(fixture_dir / "positions.csv"), "--out", str(out)]
    )
    assert code == 0
    matrix_rows = _read_rows(out / "demodularity_retweets.csv")
    assert [r["from_group"] for r in matrix_rows] == ["A", "B", "unaligned"]
    assert matrix_rows[0]["A"] == ""  # diagonal blank
    assert matrix_rows[0]["B"] != ""
    scatter = _read_rows(out / "demod_scatter.csv")
    assert len(scatter) == 12  # 6 ordered pairs per layer, both layers
    corr = _read_rows(out / "demod_correlation.csv")
    assert [r["layer"] for r in corr] == ["retweets", "replies"]
    for row in corr:
        assert -1.0 <= float(row["r"]) <= 1.0
        assert row["n_pairs"] == "6"


def test_demodularity_too_few_pairs_fails_cleanly(fixture_dir, capsys):
    positions = fixture_dir / "two_positions.csv"
    positions.write_text("party,lr,cl\nA,1,2\nB,4,6\n", encoding="utf-8")
    code = main(
        ["demodularity", *_base_args(fixture_dir), "--min-group-size", "4",
         "--positions", str(positions), "--out", str(fixture_dir / "out")]
    )
    assert code == 1
    assert "at least 3 usable party pairs" in capsys.readouterr().err


# -- topics -----------------------------------------------------------------


def test_topics_reports_words_and_counts(fixture_dir):
    out = fixture_dir / "out"
    code = main(
        ["topics", *_base_args(fixture_dir), "--comments",
         str(fixture_dir / "comments.csv"), "--min-group-size", "4",
         "--alpha", "0.05", "--out", str(out)]
    )
    assert code == 0
    words = _read_rows(out / "topics.csv")
    top_by_group = {}
    for row in words:
        top_by_group.setdefault(row["group"], row["word"])
    assert top_by_group["A"] == "Klimapolitik"
    assert top_by_group["B"] == "Steuern"
    counts = _read_rows(out / "topics_counts.csv")
    by_label = {r["group"]: r for r in counts}
    assert by_label["A"]["comments"] == "2"
    assert by_label["A"]["users"] == "2"
    assert "unaligned" not in by_label  # dropped by the size threshold


# -- export -----------------------------------------------------------------


def test_export_round_trips_link_multiset(fixture_dir):
    first = fixture_dir / "first"
    code = main(
        ["export", "--layer", f"retweets={fixture_dir / 'retweets.csv'}",
         "--out", str(first)]
    )
    assert code == 0

    def multiset(path):
        from polarnet.network import LayerSchema

        layer = ingest_layer(path, LayerSchema(name="retweets"))
        return sorted(
            (l.source, l.target, l.weight, l.timestamp) for l in layer.links()
        )

    assert multiset(first / "retweets.csv") == multiset(fixture_dir / "retweets.csv")
    # Same input must serialize to the same bytes.
    second = fixture_dir / "second"
    code = main(
        ["export", "--layer", f"retweets={fixture_dir / 'retweets.csv'}",
         "--out", str(second)]
    )
    assert code == 0
    assert (first / "retweets.csv").read_bytes() == (second / "retweets.csv").read_bytes()


def test_export_graphml_carries_party_labels(fixture_dir):
    out = fixture_dir / "out"
    code = main(
        ["export", *_base_args(fixture_dir), "--graphml", "--out", str(out)]
    )
    assert code == 0
    tree = ET.parse(out / "network.graphml")
    text = ET.tostring(tree.getroot(), encoding="unicode")
    assert "unaligned" in text and "A" in text
    nodes = [el for el in tree.iter() if el.tag == "node" or el.tag.endswith("}node")]
    assert len(nodes) == 10


# -- JSON output ------------------------------------------------------------


def test_format_json_emits_records(fixture_dir):
    out = fixture_dir / "out"
    code = main(
        ["polarization", *_base_args(fixture_dir), "--portfolio", "f-1",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "polarization.json").read_text(encoding="utf-8"))
    assert isinstance(payload, list) and len(payload) == 4
    assert payload[0]["layer"] == "retweets"
    assert payload[0]["variant"] == "incl_unaligned"
    network, partition, _ = _library_view(fixture_dir)
    expected = q_modularity(network.layer("retweets"), partition)
    assert payload[0]["q_party"] == float(format(expected, ".12g"))


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone took most of the CLI's import time; nothing here needs it.
    env = {**os.environ, "PYTHONPATH": str(Path(polarnet.__file__).resolve().parents[1])}
    code = "import sys, polarnet.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
