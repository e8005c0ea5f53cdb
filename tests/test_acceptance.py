"""Release gate: eleven numbered criteria, one test and one verdict line each.

Every criterion checks the library end to end against independent oracles,
analytic fixed points, or wall-clock budgets; the conftest hook prints a
``criterion N (...): PASS/FAIL`` line per test at the end of the run.
"""
from __future__ import annotations

import csv
import math
import time
from collections import Counter
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    generate_planted_partition,
    ids,
    layer_of,
    partition_of,
    random_codes,
    random_dated_links,
    random_digraph,
)
from oracles import (
    best_partition_oracle,
    chi2_sf_oracle,
    demodularity_oracle,
    g_statistic_oracle,
    kcore_oracle,
    permutation_pvalue_oracle,
    q_modularity_oracle,
    window_filter_oracle,
)
from polarnet.cli import main as cli_main
from polarnet.communities import DEFAULT_PORTFOLIO, run_portfolio
from polarnet.errors import UndefinedMetricError
from polarnet.ideology import pearson, pearson_pvalue
from polarnet.infometrics import (
    entropy_ml,
    entropy_mm,
    jackknife,
    nmi,
    partial_jaccard,
    partition_nmi,
)
from polarnet.modularity import demodularity, q_modularity
from polarnet.network import (
    LayerSchema,
    MultiplexNetwork,
    Partition,
    ingest_layer,
)
from polarnet.structure import (
    average_path_length,
    group_subnetwork,
    in_degree_centralization,
    kcore_decomposition,
)
from polarnet.timeseries import WindowSpec, event_annotation, sweep
from polarnet.topics import pmi, significance, tokenize


def _nonempty_digraph(rng, n, p, *, weighted=False):
    links = random_digraph(rng, n, p, weighted=weighted)
    while not links:
        links = random_digraph(rng, n, p, weighted=weighted)
    return links


def _whole(n):
    return partition_of(n, [0] * n)


# -- criterion 1 ------------------------------------------------------------


def test_criterion_01_q_modularity_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        weighted = bool(rng.integers(2))
        links = _nonempty_digraph(rng, n, 0.15, weighted=weighted)
        layer = layer_of(n, links, weighted=weighted)
        assert abs(q_modularity(layer, _whole(n))) <= 1e-12
    for _ in range(50):
        n = int(rng.integers(2, 31))
        links = _nonempty_digraph(rng, n, 0.3, weighted=True)
        layer = layer_of(n, links, weighted=True)
        codes = random_codes(rng, n, int(rng.integers(2, 5)))
        expected = q_modularity_oracle(n, links, codes)
        assert abs(q_modularity(layer, partition_of(n, codes)) - expected) <= 1e-12
    assert time.perf_counter() - started < 5.0


# -- criterion 2 ------------------------------------------------------------


def test_criterion_02_demodularity_oracle():
    rng = np.random.default_rng(202)
    normalizations = ("out_weight", "link_count", "total_m")
    for trial in range(50):
        n = int(rng.integers(4, 31))
        links = _nonempty_digraph(rng, n, 0.25, weighted=True)
        layer = layer_of(n, links, weighted=True)
        groups = int(rng.integers(2, 5))
        codes = random_codes(rng, n, groups)
        while len(set(codes)) < 2:
            codes = random_codes(rng, n, groups)
        partition = partition_of(n, codes)
        norm = normalizations[trial % 3]
        for f in sorted(set(codes)):
            for t in sorted(set(codes)):
                if f == t:
                    continue
                try:
                    expected = demodularity_oracle(n, links, codes, f, t, norm)
                except ZeroDivisionError:
                    with pytest.raises(UndefinedMetricError):
                        demodularity(layer, partition, f"g{f}", f"g{t}", normalization=norm)
                    continue
                value = demodularity(layer, partition, f"g{f}", f"g{t}", normalization=norm)
                assert abs(value - expected) <= 1e-12

    # Hand instance: a->c, b->d, c->b with F = {a, b}, T = {c, d}; m = 3.
    # A-part: a->c + b->d = 2.  Null part: K_out_F * K_in_T / m = 2 * 2 / 3.
    # Out-weight m_f = 2, so Q̄_FT = (2 - 4/3) / 2 = 1/3.
    layer = layer_of(4, [(0, 2, 1.0), (1, 3, 1.0), (2, 1, 1.0)])
    partition = Partition.from_assignment(
        {"n0": "F", "n1": "F", "n2": "T", "n3": "T"}, ("F", "T")
    )
    value = demodularity(layer, partition, "F", "T", normalization="out_weight")
    assert abs(value - 1.0 / 3.0) <= 1e-12


# -- criterion 3 ------------------------------------------------------------


def test_criterion_03_detection_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    for i in range(50):
        n = int(rng.integers(5, 10))
        weighted = bool(rng.integers(2))
        links = _nonempty_digraph(rng, n, 0.35, weighted=weighted)
        layer = layer_of(n, links, weighted=weighted)
        q_star, _ = best_partition_oracle(n, links)
        result = run_portfolio(layer, DEFAULT_PORTFOLIO, seed=i)
        assert abs(result.q - q_star) <= 1e-9
    hits = 0
    for seed in range(100):
        network, truth = generate_planted_partition(2, 20, 0.5, 0.02, seed=seed)
        result = run_portfolio(network.layer("links"), DEFAULT_PORTFOLIO, seed=seed)
        score = partition_nmi(result.partition, truth, network.node_ids, "ml")[0]
        if score >= 0.9:
            hits += 1
    assert hits >= 95
    assert time.perf_counter() - started < 60.0


# -- criterion 4 ------------------------------------------------------------


def test_criterion_04_information_metrics():
    rng = np.random.default_rng(404)
    for _ in range(50):
        counts = rng.integers(0, 20, size=int(rng.integers(2, 12)))
        if counts.sum() == 0:
            counts[0] = 3
        observed = int((counts > 0).sum())
        total = float(counts.sum())
        assert entropy_mm(counts) == entropy_ml(counts) + (observed - 1) / (2.0 * total)
    for _ in range(20):
        diag = rng.integers(1, 10, size=int(rng.integers(2, 6)))
        table = np.diag(diag).astype(float)
        assert nmi(table, "x", "ml") == 1.0
        assert nmi(table, "x", "mm") == 1.0
    for _ in range(20):
        row = rng.integers(1, 6, size=int(rng.integers(2, 5)))
        col = rng.integers(1, 6, size=int(rng.integers(2, 5)))
        assert abs(nmi(np.outer(row, col).astype(float), "x", "ml")) < 1e-6
    for _ in range(100):
        n = int(rng.integers(2, 15))
        x_links = random_digraph(rng, n, 0.3)
        y_links = random_digraph(rng, n, 0.3)
        while not y_links:
            y_links = random_digraph(rng, n, 0.3)
        x = layer_of(n, x_links, weighted=False)
        y = layer_of(n, y_links, weighted=False)
        x_set = {(s, t) for s, t, _ in x_links}
        y_set = {(s, t) for s, t, _ in y_links}
        assert partial_jaccard(x, y) == len(x_set & y_set) / len(y_set)


# -- criterion 5 ------------------------------------------------------------


def test_criterion_05_jackknife_fixed_points():
    chain = MultiplexNetwork.assemble(
        [layer_of(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])], None
    )
    constant = jackknife(lambda net: 0.25, chain)
    assert constant.two_sigma == 0.0
    assert constant.jack_mean == 0.25

    toy = MultiplexNetwork.assemble([layer_of(3, [(0, 1, 1.0), (1, 2, 1.0)])], None)
    estimate = jackknife(lambda net: float(net.layer("links").n_links), toy)
    # Dropping n0, n1, n2 leaves 1, 0 and 1 links respectively.
    assert estimate.point == 2.0
    assert estimate.jack_mean == (1.0 + 0.0 + 1.0) / 3.0
    assert estimate.samples == 3
    assert estimate.skipped == 0


# -- criterion 6 ------------------------------------------------------------


def test_criterion_06_temporal_engine():
    rng = np.random.default_rng(606)
    first_day = date(2021, 3, 1).toordinal()

    # Weighted layers keep one stored link per generated (src, dst, day) row,
    # so the raw row list stays aligned with the layer the sweep sees.
    for _ in range(5):
        n = 8
        links = random_dated_links(rng, n, 30, first_day, 40)
        layer = layer_of(n, links, weighted=True)
        partition = partition_of(n, random_codes(rng, n, 3))
        days = [row[3] for row in links]
        span = max(days) - min(days) + 1
        series = sweep(layer, partition, q_modularity, WindowSpec(span, span))
        assert len(series.records) == 1
        assert abs(series.records[0].value - q_modularity(layer, partition)) <= 1e-12

    for _ in range(20):
        n = int(rng.integers(4, 10))
        links = random_dated_links(rng, n, int(rng.integers(10, 40)), first_day, 30)
        layer = layer_of(n, links, weighted=True)
        codes = random_codes(rng, n, 2)
        partition = partition_of(n, codes)
        spec = WindowSpec(int(rng.integers(3, 11)), int(rng.integers(1, 6)))
        series = sweep(layer, partition, q_modularity, spec)
        for record in series.records:
            kept = window_filter_oracle(links, record.start.toordinal(), spec.width_days)
            assert record.links_in_window == len(kept)
            if not kept:
                assert record.value is None
            else:
                expected = q_modularity_oracle(n, [(s, t, w) for s, t, w, _ in kept], codes)
                assert abs(record.value - expected) <= 1e-12

    # Four groups, intra-group cycles before the pivot date and cross-group
    # matchings after it: polarization collapses through zero.
    rows = []
    for g in range(4):
        base = 3 * g
        for k in range(3):
            rows.append((base + k, base + (k + 1) % 3, 1.0, first_day))
    for g in range(4):
        base, nxt = 3 * g, 3 * ((g + 1) % 4)
        for k in range(3):
            rows.append((base + k, nxt + k, 1.0, first_day + 10))
    layer = layer_of(12, rows)
    partition = partition_of(12, [g for g in range(4) for _ in range(3)])
    series = sweep(layer, partition, q_modularity, WindowSpec(5, 5))
    values = [record.value for record in series.records]
    assert values[0] > 0.6
    assert values[-1] < 0.0
    pivot = date.fromordinal(first_day + 10)
    annotated = event_annotation(series, [(pivot, "flip")])
    (note,) = annotated.annotations
    assert note.in_span
    assert note.window_start == pivot


# -- criterion 7 ------------------------------------------------------------


def _single_group_sub(n, links):
    layer = layer_of(n, links)
    return group_subnetwork(layer, _whole(n), "g0")


def test_criterion_07_structure_fixed_points():
    star = _single_group_sub(6, [(i, 0, 1.0) for i in range(1, 6)])
    assert in_degree_centralization(star) == 1.0
    complete = _single_group_sub(
        5, [(i, j, 1.0) for i in range(5) for j in range(5) if i != j]
    )
    assert in_degree_centralization(complete) == 0.0
    cycle = _single_group_sub(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    assert average_path_length(cycle) == 1.5

    rng = np.random.default_rng(707)
    for trial in range(100):
        n = int(rng.integers(3, 51))
        links = _nonempty_digraph(rng, n, 0.1)
        convention = "undirected" if trial % 2 == 0 else "total_degree"
        sub = _single_group_sub(n, links)
        result = kcore_decomposition(sub, convention=convention)
        expected = kcore_oracle(n, [(s, t) for s, t, _ in links], convention=convention)
        assert [result.core_numbers[f"n{i}"] for i in range(n)] == expected

    for _ in range(20):
        n = int(rng.integers(4, 30))
        links = _nonempty_digraph(rng, n, 0.15)
        base = kcore_decomposition(_single_group_sub(n, links)).core_numbers
        perm = rng.permutation(n)
        shuffled = [(int(perm[s]), int(perm[t]), 1.0) for s, t, _ in links]
        relabeled = kcore_decomposition(_single_group_sub(n, shuffled)).core_numbers
        assert all(relabeled[f"n{perm[i]}"] == base[f"n{i}"] for i in range(n))


# -- criterion 8 ------------------------------------------------------------


def test_criterion_08_pmi_significance():
    texts = [
        "Grenzen der Solidarität neu verhandeln",
        "Solidarität und Verantwortung gehören zusammen",
        "Steuern senken Verantwortung stärken",
    ]
    counts = Counter(word for text in texts for word in tokenize(text))
    total = sum(counts.values())
    for word, count in counts.items():
        assert pmi(count, total, count, total) == 0.0

    assert abs(pmi(10, 100, 5, 1000) - math.log2(20.0)) <= 1e-9

    for a in range(1, 11):
        for b in range(1, 11):
            c, d = 3, 40
            result = significance(a, a + b, a + c, a + b + c + d)
            statistic = g_statistic_oracle(a, b, c, d)
            assert abs(result.statistic - statistic) <= 1e-9
            assert abs(result.p_value - chi2_sf_oracle(statistic)) <= 1e-9
            assert not result.degenerate


# -- criterion 9 ------------------------------------------------------------


def test_criterion_09_correlation():
    rng = np.random.default_rng(909)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        xs = [float(v) for v in rng.normal(size=n)]
        while len(set(xs)) < 2:
            xs = [float(v) for v in rng.normal(size=n)]
        slope = float(rng.choice([-2.5, -1.0, 0.5, 3.0]))
        ys = [slope * x + 1.7 for x in xs]
        r = pearson(xs, ys)
        assert abs(r - math.copysign(1.0, slope)) <= 1e-12

    # Inputs whose raw estimate overshoots ±1; the clamp lands exactly on it.
    xs = [0.2644556303293035, -0.3139228145364278, 1.4580206835369587,
          1.9602583164499647, 1.801634869866125, 1.31510376473437,
          0.357380410658956]
    ys = [2.595533672845703, 1.8593098100445935, 4.1148348877811,
          4.754138329030777, 4.552224914705853, 3.9329144739854227,
          2.7138185801266497]
    assert pearson(xs, ys) == 1.0
    assert pearson(xs, [-v for v in ys]) == -1.0

    assert abs(pearson([1.0, 2.0, 3.0], [2.0, 1.0, 3.0]) - 0.5) <= 1e-12

    for seed, n, slope in ((1, 8, 0.8), (2, 10, 0.8), (3, 12, 0.8),
                           (5, 12, -0.6), (6, 9, -0.9), (8, 11, 0.4)):
        data_rng = np.random.default_rng(seed)
        xs = [float(v) for v in data_rng.normal(size=n)]
        ys = [slope * x + float(e) for x, e in zip(xs, data_rng.normal(size=n))]
        p_t = pearson_pvalue(pearson(xs, ys), n)
        p_perm = permutation_pvalue_oracle(xs, ys, seed=0, samples=200_000)
        assert abs(p_t - p_perm) <= 0.02


# -- criterion 10 -----------------------------------------------------------

SCALE_NODES = 3500
SCALE_PARTIES = 8
SCALE_PARTY_SIZE = 400  # 3200 aligned, 300 unaligned
SCALE_FIRST_DAY = date(2013, 1, 1)
SCALE_SPAN_DAYS = 180
SCALE_LAYERS = (("supports", 30_000, False), ("likes", 30_000, True),
                ("comments_links", 15_000, False))


def _write_scale_fixture(root: Path) -> None:
    nodes = [f"p{i:04d}" for i in range(SCALE_NODES)]
    party_of = np.full(SCALE_NODES, -1)
    for p in range(SCALE_PARTIES):
        party_of[p * SCALE_PARTY_SIZE:(p + 1) * SCALE_PARTY_SIZE] = p

    for index, (name, count, weighted) in enumerate(SCALE_LAYERS):
        rng = np.random.default_rng(1000 + index)
        seen = set()
        lines = []
        while len(lines) < count:
            s = int(rng.integers(0, SCALE_NODES))
            if party_of[s] >= 0 and rng.random() < 0.75:
                t = int(party_of[s] * SCALE_PARTY_SIZE + rng.integers(0, SCALE_PARTY_SIZE))
            else:
                t = int(rng.integers(0, SCALE_NODES))
            if s == t:
                continue
            day = int(rng.integers(0, SCALE_SPAN_DAYS))
            # Layers merge repeated links, so keep keys unique up front to
            # land on the exact link budget.
            key = (s, t, day) if weighted else (s, t)
            if key in seen:
                continue
            seen.add(key)
            stamp = (SCALE_FIRST_DAY + timedelta(days=day)).isoformat()
            if weighted:
                lines.append(f"{nodes[s]},{nodes[t]},{int(rng.integers(1, 6))},{stamp}\n")
            else:
                lines.append(f"{nodes[s]},{nodes[t]},{stamp}\n")
        header = "source,target,weight,date\n" if weighted else "source,target,date\n"
        (root / f"{name}.csv").write_text(header + "".join(lines), encoding="utf-8")

    with open(root / "nodes.csv", "w", encoding="utf-8") as handle:
        handle.write("node_id,affiliation\n")
        for i, node in enumerate(nodes):
            raw = f"party{party_of[i]}" if party_of[i] >= 0 else "none"
            handle.write(f"{node},{raw}\n")
    with open(root / "merge.cfg", "w", encoding="utf-8") as handle:
        for p in range(SCALE_PARTIES):
            handle.write(f"party{p} = P{p}\n")
        handle.write("* = unaligned\n")
    with open(root / "positions.csv", "w", encoding="utf-8") as handle:
        handle.write("party,lr,cl\n")
        for p in range(SCALE_PARTIES):
            handle.write(f"P{p},{p * 1.3:.1f},{(p % 3) * 2.0:.1f}\n")
    (root / "events.csv").write_text(
        "date,label\n2013-03-01,Spring event\n2013-05-15,Late event\n",
        encoding="utf-8",
    )
    rng = np.random.default_rng(99)
    with open(root / "comments.csv", "w", encoding="utf-8") as handle:
        handle.write("author,date,text\n")
        for _ in range(3000):
            author = int(rng.integers(0, SCALE_PARTIES * SCALE_PARTY_SIZE))
            p = party_of[author]
            words = [f"theme{p}word{int(rng.integers(0, 20))}" for _ in range(4)]
            words += [f"word{int(rng.integers(0, 200))}" for _ in range(8)]
            stamp = (SCALE_FIRST_DAY + timedelta(days=int(rng.integers(0, SCALE_SPAN_DAYS)))).isoformat()
            handle.write(f"{nodes[author]},{stamp},\"{' '.join(words)}\"\n")


def test_criterion_10_scale_performance(tmp_path):
    _write_scale_fixture(tmp_path)
    stored = sum(
        ingest_layer(tmp_path / f"{name}.csv", LayerSchema(name=name)).n_links
        for name, _, _ in SCALE_LAYERS
    )
    assert stored == 75_000

    out = tmp_path / "out"
    base = []
    for name, _, _ in SCALE_LAYERS:
        base += ["--layer", f"{name}={tmp_path / f'{name}.csv'}"]
    base += ["--nodes", str(tmp_path / "nodes.csv"), "--merge", str(tmp_path / "merge.cfg")]

    commands = [
        ["layer-similarity", *base, "--no-jackknife", "--out", str(out)],
        ["polarization", *base, "--portfolio", "f-1", "--seed", "11", "--out", str(out)],
        ["group-nmi", *base, "--portfolio", "f-1", "--seed", "11", "--out", str(out)],
        ["timeseries", *base, "--window-days", "60", "--step-days", "7",
         "--events", str(tmp_path / "events.csv"), "--out", str(out)],
        ["structure", *base, "--min-group-size", "200",
         "--positions", str(tmp_path / "positions.csv"), "--out", str(out)],
        ["demodularity", *base, "--min-group-size", "200",
         "--positions", str(tmp_path / "positions.csv"), "--out", str(out)],
        ["topics", *base, "--comments", str(tmp_path / "comments.csv"),
         "--min-group-size", "200", "--alpha", "0.01", "--out", str(out)],
    ]
    started = time.perf_counter()
    for argv in commands:
        assert cli_main(argv) == 0, argv[0]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0

    for stem in ("layer_similarity", "polarization", "group_nmi", "timeseries",
                 "timeseries_events", "structure", "demodularity_supports",
                 "demodularity_likes", "demodularity_comments_links",
                 "demod_scatter", "demod_correlation", "topics", "topics_counts"):
        assert (out / f"{stem}.csv").is_file(), stem


# -- criterion 11 -----------------------------------------------------------

SMALL_RETWEETS = """source,target,weight,date
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

SMALL_NODES = """node_id,affiliation
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

SMALL_MERGE = "a1 = A\na2 = A\nb = B\n* = unaligned\n"

SMALL_COMMENTS = (
    "author,date,text\n"
    'u0,2021-03-01,"Klimapolitik Klimapolitik Klimapolitik Klimapolitik"\n'
    'u4,2021-03-02,"Steuern Steuern Steuern Steuern"\n'
)


def test_criterion_11_determinism(tmp_path):
    (tmp_path / "retweets.csv").write_text(SMALL_RETWEETS, encoding="utf-8")
    (tmp_path / "nodes.csv").write_text(SMALL_NODES, encoding="utf-8")
    (tmp_path / "merge.cfg").write_text(SMALL_MERGE, encoding="utf-8")
    (tmp_path / "comments.csv").write_text(SMALL_COMMENTS, encoding="utf-8")
    base = ["--layer", f"retweets={tmp_path / 'retweets.csv'}",
            "--nodes", str(tmp_path / "nodes.csv"),
            "--merge", str(tmp_path / "merge.cfg")]

    for run in ("run_a", "run_b"):
        out = tmp_path / run
        assert cli_main(["polarization", *base, "--seed", "17", "--out", str(out)]) == 0
        assert cli_main(["timeseries", *base, "--window-days", "5", "--step-days", "5",
                         "--out", str(out)]) == 0
        assert cli_main(["topics", *base, "--comments", str(tmp_path / "comments.csv"),
                         "--min-group-size", "2", "--alpha", "0.05",
                         "--out", str(out)]) == 0

    files_a = sorted(p.name for p in (tmp_path / "run_a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "run_b").iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (tmp_path / "run_a" / name).read_bytes() == (
            tmp_path / "run_b" / name
        ).read_bytes(), name
