"""Input generators for the benchmark workloads.

Everything here depends only on numpy and the workload seed; nothing
imports ``polarnet``.  Generated files are cached under ``.cache/`` in this
directory, keyed by workload and seed, so generation never falls inside a
timed region and a repeated seed reuses its files.
"""
from __future__ import annotations

import json
import os
import shutil
from datetime import date, timedelta
from pathlib import Path

import numpy as np

CACHE = Path(__file__).resolve().parent / ".cache"

# The criterion-10 fixture at scale 1: 3,500 nodes, 8 parties of 400 plus
# 300 unaligned, three layers with 75,000 links in all, a 180-day span.
FIXTURE_NODES = 3500
FIXTURE_PARTIES = 8
FIXTURE_PARTY_SIZE = 400
FIXTURE_FIRST_DAY = date(2013, 1, 1)
FIXTURE_SPAN_DAYS = 180
FIXTURE_LAYERS = (("supports", 30_000, False), ("likes", 30_000, True),
                  ("comments_links", 15_000, False))
FIXTURE_COMMENTS = 3000
FIXTURE_MIN_GROUP = 200
# The seeds the release-gate test draws its fixture from.
CRITERION_10_SEEDS = (1000, 1001, 1002, 99)


def fixture_seeds(seed: int) -> tuple[int, int, int, int]:
    """Three layer seeds and one comment seed derived from a workload seed."""
    return tuple(int(s) for s in np.random.SeedSequence([10, seed]).generate_state(4))


def write_fixture(root: Path, scale: float = 1.0, seeds=CRITERION_10_SEEDS) -> dict:
    """Write the criterion-10 fixture files, shrunk by ``scale``.

    Node, party, link and comment counts scale together; the day span, the
    merge config, positions and events do not.  At scale 1 with the
    criterion-10 seeds the files equal the release-gate test's fixture byte
    for byte.  Returns the fixture's make-up.
    """
    root.mkdir(parents=True, exist_ok=True)
    n_nodes = round(FIXTURE_NODES * scale)
    party_size = round(FIXTURE_PARTY_SIZE * scale)
    nodes = [f"p{i:04d}" for i in range(n_nodes)]
    party_of = np.full(n_nodes, -1)
    for p in range(FIXTURE_PARTIES):
        party_of[p * party_size:(p + 1) * party_size] = p

    layers = []
    for index, (name, full_count, weighted) in enumerate(FIXTURE_LAYERS):
        count = round(full_count * scale)
        rng = np.random.default_rng(seeds[index])
        seen = set()
        lines = []
        while len(lines) < count:
            s = int(rng.integers(0, n_nodes))
            if party_of[s] >= 0 and rng.random() < 0.75:
                t = int(party_of[s] * party_size + rng.integers(0, party_size))
            else:
                t = int(rng.integers(0, n_nodes))
            if s == t:
                continue
            day = int(rng.integers(0, FIXTURE_SPAN_DAYS))
            key = (s, t, day) if weighted else (s, t)
            if key in seen:
                continue
            seen.add(key)
            stamp = (FIXTURE_FIRST_DAY + timedelta(days=day)).isoformat()
            if weighted:
                lines.append(f"{nodes[s]},{nodes[t]},{int(rng.integers(1, 6))},{stamp}\n")
            else:
                lines.append(f"{nodes[s]},{nodes[t]},{stamp}\n")
        header = "source,target,weight,date\n" if weighted else "source,target,date\n"
        (root / f"{name}.csv").write_text(header + "".join(lines), encoding="utf-8")
        layers.append({"name": name, "links": count, "weighted": weighted, "dated": True})

    with open(root / "nodes.csv", "w", encoding="utf-8") as handle:
        handle.write("node_id,affiliation\n")
        for i, node in enumerate(nodes):
            raw = f"party{party_of[i]}" if party_of[i] >= 0 else "none"
            handle.write(f"{node},{raw}\n")
    with open(root / "merge.cfg", "w", encoding="utf-8") as handle:
        for p in range(FIXTURE_PARTIES):
            handle.write(f"party{p} = P{p}\n")
        handle.write("* = unaligned\n")
    with open(root / "positions.csv", "w", encoding="utf-8") as handle:
        handle.write("party,lr,cl\n")
        for p in range(FIXTURE_PARTIES):
            handle.write(f"P{p},{p * 1.3:.1f},{(p % 3) * 2.0:.1f}\n")
    (root / "events.csv").write_text(
        "date,label\n2013-03-01,Spring event\n2013-05-15,Late event\n",
        encoding="utf-8",
    )
    rng = np.random.default_rng(seeds[3])
    n_comments = round(FIXTURE_COMMENTS * scale)
    with open(root / "comments.csv", "w", encoding="utf-8") as handle:
        handle.write("author,date,text\n")
        for _ in range(n_comments):
            author = int(rng.integers(0, FIXTURE_PARTIES * party_size))
            p = party_of[author]
            words = [f"theme{p}word{int(rng.integers(0, 20))}" for _ in range(4)]
            words += [f"word{int(rng.integers(0, 200))}" for _ in range(8)]
            stamp = (FIXTURE_FIRST_DAY + timedelta(days=int(rng.integers(0, FIXTURE_SPAN_DAYS)))).isoformat()
            handle.write(f"{nodes[author]},{stamp},\"{' '.join(words)}\"\n")
    return {
        "scale": scale,
        "nodes": n_nodes,
        "parties": FIXTURE_PARTIES,
        "party_size": party_size,
        "min_group_size": round(FIXTURE_MIN_GROUP * scale),
        "layers": layers,
        "comments": n_comments,
    }


def planted_layer(rng: np.random.Generator, groups: int, size: int, k_in: int, k_out: int):
    """Directed planted partition in which every node has the same out-degree.

    Each node links to ``k_in`` distinct members of its own group and to
    ``k_out`` distinct nodes outside it, drawn uniformly; no self-links.
    Fixing the out-degrees keeps the size and degree profile of the layer
    the same for every seed, so the detection work varies less between
    seeds than on a graph with binomial degrees.  Returns (src, dst, truth)
    as int arrays over nodes 0..groups*size-1.
    """
    n = groups * size
    truth = np.repeat(np.arange(groups), size)
    nodes = np.arange(n)
    start = (truth * size)[:, None]
    inside = rng.random((n, size - 1)).argsort(axis=1)[:, :k_in]
    inside = inside + (inside >= (nodes % size)[:, None])  # skip the node itself
    outside = rng.random((n, n - size)).argsort(axis=1)[:, :k_out]
    outside = outside + size * (outside >= start)  # skip the node's own group
    dst = np.concatenate([start + inside, outside], axis=1).ravel()
    return np.repeat(nodes, k_in + k_out), dst, truth


def small_digraph(rng: np.random.Generator, n: int, p: float, weighted: bool):
    """Random digraph on n nodes with at least one link; weights 1..4 if weighted."""
    while True:
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        if mask.any():
            break
    src, dst = np.nonzero(mask)
    weight = rng.integers(1, 5, size=len(src)) if weighted else np.ones(len(src), dtype=np.int64)
    return src.astype(np.int64), dst.astype(np.int64), weight.astype(np.int64)


# Portfolio workload: planted layers (groups, group size, links per node
# inside and outside its group) and a batch of small graphs for the
# exhaustive check.  The first layer is above the 512-node dense limit.
PLANTED = ((8, 65, 5, 1), (4, 40, 5, 1))
SMALL_GRAPHS = 8
SMALL_NODES = (7, 9)


def _write_layer_csv(path: Path, src, dst, weight=None) -> None:
    lines = ["source,target,weight\n" if weight is not None else "source,target\n"]
    for i in range(len(src)):
        if weight is None:
            lines.append(f"n{src[i]},n{dst[i]}\n")
        else:
            lines.append(f"n{src[i]},n{dst[i]},{weight[i]}\n")
    path.write_text("".join(lines), encoding="utf-8")


def _detection_seed(*path: int) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def write_portfolio(root: Path, seed: int) -> dict:
    """Planted-partition layers and small graphs, with a manifest.

    The planted layers and their detection seeds follow ``seed``.  The
    small graphs and their detection seeds are the same for every seed: on
    random small graphs the default portfolio sometimes misses the
    exhaustive optimum (see CHANGES.md), and an operation that fails on
    some seeds only would make the failed share differ from run to run.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([20, seed]))
    graphs = []
    for index, (groups, size, k_in, k_out) in enumerate(PLANTED):
        src, dst, truth = planted_layer(rng, groups, size, k_in, k_out)
        name = f"planted{index}"
        _write_layer_csv(root / f"{name}.csv", src, dst)
        graphs.append({"name": name, "kind": "planted", "nodes": groups * size,
                       "links": len(src), "groups": groups, "truth": truth.tolist(),
                       "seed": _detection_seed(seed, index)})
    rng = np.random.default_rng(np.random.SeedSequence([30]))
    for index in range(SMALL_GRAPHS):
        n = int(rng.integers(SMALL_NODES[0], SMALL_NODES[1] + 1))
        weighted = bool(index % 2)
        src, dst, weight = small_digraph(rng, n, 0.35, weighted)
        name = f"small{index}"
        _write_layer_csv(root / f"{name}.csv", src, dst, weight if weighted else None)
        graphs.append({"name": name, "kind": "small", "nodes": n, "links": len(src),
                       "weighted": weighted, "seed": _detection_seed(30, index)})
    return {"graphs": graphs}


FIXTURE_SCALE = 0.25
SIMILARITY_SCALE = 0.1


def inputs_for(workload: str, seed: int) -> tuple[Path, dict]:
    """Generate (or reuse) the inputs of one workload and seed."""
    root = CACHE / f"{workload}-{seed}"
    manifest_path = root / "manifest.json"
    if manifest_path.is_file():
        return root, json.loads(manifest_path.read_text(encoding="utf-8"))
    staging = CACHE / f".{workload}-{seed}.{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    if workload == "portfolio":
        manifest = write_portfolio(staging, seed)
    else:
        scale = FIXTURE_SCALE if workload == "fixture" else SIMILARITY_SCALE
        manifest = write_fixture(staging, scale, fixture_seeds(seed))
    (staging / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    try:
        staging.rename(root)
    except OSError:  # another run cached the same seed first
        shutil.rmtree(staging, ignore_errors=True)
    return root, manifest


def reference_fixture() -> Path:
    """The scale-1 fixture at the criterion-10 seeds, generated once per checkout."""
    root = CACHE / "fixture-criterion10"
    if not (root / "done").is_file():
        shutil.rmtree(root, ignore_errors=True)
        write_fixture(root)
        (root / "done").write_text("", encoding="utf-8")
    return root
