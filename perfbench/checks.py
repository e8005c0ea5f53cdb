"""Output checks computed apart from ``polarnet``, from the input files alone.

Each ``check_*`` function returns, per operation name, a list of problems;
an empty list means the operation's output is correct.  Only numpy, scipy
and the standard library are used.
"""
from __future__ import annotations

import csv
import math
from datetime import date
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

REL = 1e-9  # reports carry 12 significant digits


def close(reported, expected, rel: float = REL, absolute: float = 1e-12) -> bool:
    if reported is None or expected is None:
        return reported is None and expected is None
    return abs(reported - expected) <= rel * max(1.0, abs(expected)) + absolute


def read_table(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def num(cell: str):
    return None if cell == "" else float(cell)


# -- inputs, read the way the documented file formats define them ----------


class Fixture:
    """Registry, party codes and merged layers of one fixture directory."""

    def __init__(self, root: Path, manifest: dict):
        self.root = root
        self.manifest = manifest
        self.nodes = [row["node_id"] for row in read_table(root / "nodes.csv")]
        raw = [row["affiliation"] for row in read_table(root / "nodes.csv")]
        mapping = {}
        for line in (root / "merge.cfg").read_text(encoding="utf-8").splitlines():
            key, value = (part.strip() for part in line.split("=", 1))
            mapping[key] = value
        unaligned = mapping.pop("*")
        self.labels = list(dict.fromkeys(mapping.values())) + [unaligned]
        code_of = {label: i for i, label in enumerate(self.labels)}
        self.unaligned = code_of[unaligned]
        self.codes = np.array([code_of[mapping.get(r, unaligned)] for r in raw])
        self.index = {node: i for i, node in enumerate(self.nodes)}
        self.layer_names = [layer["name"] for layer in manifest["layers"]]
        self.layers = {name: self._read_layer(root / f"{name}.csv") for name in self.layer_names}
        self.positions = {row["party"]: (float(row["lr"]), float(row["cl"]))
                          for row in read_table(root / "positions.csv")}

    def _read_layer(self, path: Path):
        """(src, dst, weight, day) with duplicate links merged, self-links dropped.

        A weighted layer merges rows by (source, target, day) adding weights;
        an unweighted one keeps one link per (source, target) with its
        earliest day.
        """
        rows = read_table(path)
        src = np.array([self.index[r["source"]] for r in rows])
        dst = np.array([self.index[r["target"]] for r in rows])
        day = np.array([date.fromisoformat(r["date"]).toordinal() for r in rows])
        weighted = "weight" in rows[0]
        weight = np.array([float(r["weight"]) for r in rows]) if weighted else np.ones(len(rows))
        keep = src != dst
        src, dst, day, weight = src[keep], dst[keep], day[keep], weight[keep]
        n = len(self.nodes)
        if weighted:
            key = (src * n + dst) * 10**7 + day
            uniq, inverse = np.unique(key, return_inverse=True)
            weight = np.bincount(inverse, weights=weight)
            src, rest = np.divmod(uniq, n * 10**7)
            dst, day = np.divmod(rest, 10**7)
        else:
            order = np.lexsort((day, dst, src))
            src, dst, day = src[order], dst[order], day[order]
            first = np.ones(len(src), dtype=bool)
            first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst, day = src[first], dst[first], day[first]
            weight = np.ones(len(src))
        return src, dst, weight, day


def directed_q(src, dst, w, codes) -> float:
    """Directed modularity (1/m) sum_ij [A_ij - kout_i kin_j / m] [c_i = c_j]."""
    m = w.sum()
    groups = int(codes.max()) + 1
    k_out = np.bincount(codes[src], weights=w, minlength=groups)
    k_in = np.bincount(codes[dst], weights=w, minlength=groups)
    return float((w[codes[src] == codes[dst]].sum() - k_out @ k_in / m) / m)


def leave_one_out_q(src, dst, w, codes, nodes) -> np.ndarray:
    """Q with each node of ``nodes`` removed in turn, from per-node group sums."""
    n = len(codes)
    groups = int(codes.max()) + 1
    m = w.sum()
    s_out = np.bincount(src, weights=w, minlength=n)
    s_in = np.bincount(dst, weights=w, minlength=n)
    to_group = np.zeros((n, groups))    # w(v -> group g)
    from_group = np.zeros((n, groups))  # w(group g -> v)
    np.add.at(to_group, (src, codes[dst]), w)
    np.add.at(from_group, (dst, codes[src]), w)
    inside = w[codes[src] == codes[dst]].sum()
    k_out = np.bincount(codes[src], weights=w, minlength=groups)
    k_in = np.bincount(codes[dst], weights=w, minlength=groups)
    v = np.asarray(nodes)
    own = np.eye(groups)[codes[v]]
    m_v = m - s_out[v] - s_in[v]
    inside_v = inside - to_group[v, codes[v]] - from_group[v, codes[v]]
    k_out_v = k_out - from_group[v] - own * s_out[v, None]
    k_in_v = k_in - to_group[v] - own * s_in[v, None]
    return inside_v / m_v - (k_out_v * k_in_v).sum(axis=1) / m_v**2


def entropy_bits(counts: np.ndarray, miller_madow: bool) -> np.ndarray:
    """Shannon entropy in bits along the last axis, optionally Miller-Madow corrected."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum(axis=-1, keepdims=True)
    p = np.where(counts > 0, counts / total, 1.0)
    h = -(np.where(counts > 0, p * np.log2(p), 0.0)).sum(axis=-1)
    if miller_madow:
        h = h + ((counts > 0).sum(axis=-1) - 1) / (2.0 * total[..., 0])
    return h


def indicator_nmi(n11, n10, n01, n00, miller_madow: bool = True) -> np.ndarray:
    """NMI(X|Y) over the 2x2 pair-indicator table, normalised by H(X)."""
    table = np.stack(np.broadcast_arrays(n11, n10, n01, n00), axis=-1).astype(np.float64)
    rows = np.stack([table[..., 0] + table[..., 1], table[..., 2] + table[..., 3]], axis=-1)
    cols = np.stack([table[..., 0] + table[..., 2], table[..., 1] + table[..., 3]], axis=-1)
    h_x = entropy_bits(rows, miller_madow)
    mi = h_x + entropy_bits(cols, miller_madow) - entropy_bits(table, miller_madow)
    mi = np.where((table > 0).sum(axis=-1) <= 1, 0.0, mi)
    return mi / h_x


class PairCounts:
    """Link-set sizes of two layers and per-node counts of incident links."""

    def __init__(self, x, y, n: int):
        self.n = n
        kx = set(zip(x[0].tolist(), x[1].tolist()))
        ky = set(zip(y[0].tolist(), y[1].tolist()))
        both = kx & ky
        self.x, self.y, self.xy = len(kx), len(ky), len(both)
        self.dx, self.dy, self.dxy = (self._incident(links) for links in (kx, ky, both))

    def _incident(self, links) -> np.ndarray:
        if not links:
            return np.zeros(self.n)
        arr = np.array(sorted(links))
        return np.bincount(arr[:, 0], minlength=self.n) + np.bincount(arr[:, 1], minlength=self.n)

    def overlap(self) -> tuple[float, np.ndarray]:
        point = self.xy / self.y
        return point, (self.xy - self.dxy) / (self.y - self.dy)

    def nmi(self) -> tuple[float, np.ndarray]:
        def at(n, x, y, xy):
            return indicator_nmi(xy, x - xy, y - xy, n * (n - 1) - x - y + xy)
        point = float(at(self.n, self.x, self.y, self.xy))
        return point, at(self.n - 1, self.x - self.dx, self.y - self.dy, self.xy - self.dxy)


def check_similarity_table(fx: Fixture, path: Path, jackknife: bool) -> list[str]:
    rows = read_table(path)
    problems = []
    names = fx.layer_names
    expected_keys = [(metric, a, b) for a in names for b in names if a != b for metric in ("overlap", "nmi")]
    if [(r["metric"], r["layer_x"], r["layer_y"]) for r in rows] != expected_keys:
        return [f"{path.name}: rows are not the ordered layer pairs"]
    n = len(fx.nodes)
    for row in rows:
        x, y = fx.layers[row["layer_x"]], fx.layers[row["layer_y"]]
        point, replicates = getattr(PairCounts(x, y, n), row["metric"])()
        where = f"{path.name} {row['metric']} {row['layer_x']}->{row['layer_y']}"
        if not close(num(row["point"]), point):
            problems.append(f"{where}: point {row['point']} != {point!r}")
        if jackknife:
            mean, two_sigma = float(replicates.mean()), float(2.0 * replicates.std())
            if not close(num(row["jack_mean"]), mean):
                problems.append(f"{where}: jack_mean {row['jack_mean']} != {mean!r}")
            if not close(num(row["two_sigma"]), two_sigma, rel=1e-8):
                problems.append(f"{where}: two_sigma {row['two_sigma']} != {two_sigma!r}")
            if row["unreliable"] != "false":
                problems.append(f"{where}: flagged unreliable")
        elif (row["jack_mean"], row["two_sigma"], row["unreliable"]) != ("", "", ""):
            problems.append(f"{where}: jackknife columns filled under --no-jackknife")
    return problems


# -- fixture commands -------------------------------------------------------


def _variant(fx: Fixture, name: str, exclude: bool):
    src, dst, w, _ = fx.layers[name]
    if not exclude:
        return src, dst, w, fx.codes, np.arange(len(fx.codes))
    keep = (fx.codes[src] != fx.unaligned) & (fx.codes[dst] != fx.unaligned)
    return src[keep], dst[keep], w[keep], fx.codes, np.flatnonzero(fx.codes != fx.unaligned)


def check_polarization(fx: Fixture, out: Path) -> list[str]:
    rows = read_table(out / "polarization.csv")
    problems = []
    expected = [(name, v) for name in fx.layer_names for v in ("incl_unaligned", "excl_unaligned")]
    if [(r["layer"], r["variant"]) for r in rows] != expected:
        return ["polarization.csv: rows are not layer x variant"]
    for row in rows:
        where = f"polarization {row['layer']} {row['variant']}"
        src, dst, w, codes, nodes = _variant(fx, row["layer"], row["variant"] == "excl_unaligned")
        q = directed_q(src, dst, w, codes)
        if not close(num(row["q_party"]), q):
            problems.append(f"{where}: q_party {row['q_party']} != {q!r}")
        if row["q_party_class"] != ("polarized" if q >= 0.3 else "not_polarized"):
            problems.append(f"{where}: class {row['q_party_class']} for Q {q!r}")
        loo = leave_one_out_q(src, dst, w, codes, nodes)
        mean, two_sigma = float(loo.mean()), float(2.0 * loo.std())
        if not close(num(row["jack_mean"]), mean):
            problems.append(f"{where}: jack_mean {row['jack_mean']} != {mean!r}")
        if not close(num(row["two_sigma"]), two_sigma, rel=1e-8):
            problems.append(f"{where}: two_sigma {row['two_sigma']} != {two_sigma!r}")
        q_comp = num(row["q_comp"])
        if q_comp is None or not 0.0 < q_comp <= 1.0:
            problems.append(f"{where}: q_comp {row['q_comp']} outside (0, 1]")
        if row["comp_script"] != "f-1" or int(row["comp_groups"]) < 1:
            problems.append(f"{where}: comp_script/comp_groups {row['comp_script']}/{row['comp_groups']}")
    return problems


def check_group_nmi(fx: Fixture, out: Path) -> list[str]:
    rows = read_table(out / "group_nmi.csv")
    names = ["parties"] + [f"communities:{name}" for name in fx.layer_names]
    if [(r["x"], r["y"]) for r in rows] != [(a, b) for a in names for b in names if a != b]:
        return ["group_nmi.csv: rows are not the ordered partition pairs"]
    return [f"group-nmi {r['x']}->{r['y']}: value {r['nmi']!r} not finite"
            for r in rows if r["nmi"] == "" or not math.isfinite(float(r["nmi"]))]


def check_timeseries(fx: Fixture, out: Path, width: int = 60, step: int = 7) -> list[str]:
    rows = read_table(out / "timeseries.csv")
    events = [(date.fromisoformat(r["date"]).toordinal(), r["label"])
              for r in read_table(fx.root / "events.csv")]
    problems = []
    expected_rows = []
    expected_events = []
    for name in fx.layer_names:
        src, dst, w, day = fx.layers[name]
        first, last = int(day.min()), int(day.max())
        notes: dict[int, list[str]] = {}
        for ordinal, label in events:
            in_span = first <= ordinal <= last + step - 1
            start = first + (ordinal - first) // step * step if in_span else None
            if in_span:
                notes.setdefault(start, []).append(label)
            expected_events.append([name, date.fromordinal(ordinal).isoformat(), label,
                                    "true" if in_span else "false",
                                    date.fromordinal(start).isoformat() if in_span else ""])
        for start in range(first, last + 1, step):
            inside = (day >= start) & (day < start + width)
            value = directed_q(src[inside], dst[inside], w[inside], fx.codes) if inside.any() else None
            expected_rows.append((name, date.fromordinal(start).isoformat(), value,
                                  int(inside.sum()), "; ".join(notes.get(start, []))))
    if len(rows) != len(expected_rows):
        return [f"timeseries.csv: {len(rows)} windows, expected {len(expected_rows)}"]
    for row, (name, start, value, count, note) in zip(rows, expected_rows):
        where = f"timeseries {name} {start}"
        if (row["layer"], row["window_start"], row["annotations"]) != (name, start, note):
            problems.append(f"{where}: row reads {row['layer']} {row['window_start']} {row['annotations']!r}")
        if int(row["links_in_window"]) != count:
            problems.append(f"{where}: {row['links_in_window']} links, expected {count}")
        if not close(num(row["value"]), value):
            problems.append(f"{where}: value {row['value']} != {value!r}")
    got_events = [[r[k] for k in ("layer", "date", "label", "in_span", "window_start")]
                  for r in read_table(out / "timeseries_events.csv")]
    if got_events != expected_events:
        problems.append("timeseries_events.csv does not match the event grid")
    return problems


def max_kcore(n: int, src, dst) -> int:
    """Largest k with a non-empty k-core of the undirected collapse."""
    adj = coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n)).tocsr()
    adj = ((adj + adj.T) > 0).astype(np.int64)
    alive = np.ones(n, dtype=bool)
    k = 0
    while True:
        while True:
            degree = adj @ alive.astype(np.int64)
            drop = alive & (degree < k + 1)
            if not drop.any():
                break
            alive &= ~drop
        if not alive.any():
            return k
        k += 1


def check_structure(fx: Fixture, out: Path) -> list[str]:
    rows = read_table(out / "structure.csv")
    min_size = fx.manifest["min_group_size"]
    sizes = np.bincount(fx.codes, minlength=len(fx.labels))
    expected = []
    for name in fx.layer_names:
        src, dst, _, _ = fx.layers[name]
        for g, label in enumerate(fx.labels):
            if sizes[g] < min_size:
                continue
            members = np.flatnonzero(fx.codes == g)
            local = np.full(len(fx.codes), -1)
            local[members] = np.arange(len(members))
            keep = (local[src] >= 0) & (local[dst] >= 0)
            pairs = np.unique(np.stack([local[src[keep]], local[dst[keep]]], axis=1), axis=0)
            s, t, n = pairs[:, 0], pairs[:, 1], len(members)
            k_in = np.bincount(t, minlength=n)
            centralization = float((k_in.max() - k_in).sum() / (n - 1) ** 2)
            dist = shortest_path(coo_matrix((np.ones(len(s)), (s, t)), shape=(n, n)).tocsr(),
                                 directed=True, unweighted=True)
            reach = np.isfinite(dist) & (dist > 0)
            apl = float(dist[reach].sum() / reach.sum()) if reach.any() else None
            position = fx.positions.get(label)
            expected.append((name, label, n, len(pairs), centralization, apl,
                             max_kcore(n, s, t), position))
    if [(r["layer"], r["group"]) for r in rows] != [(e[0], e[1]) for e in expected]:
        return ["structure.csv: rows are not layer x large group"]
    problems = []
    for row, (name, label, n, links, centralization, apl, core, position) in zip(rows, expected):
        where = f"structure {name} {label}"
        if (int(row["n"]), int(row["links"]), int(row["max_kcore"])) != (n, links, core):
            problems.append(f"{where}: n/links/max_kcore {row['n']}/{row['links']}/{row['max_kcore']}"
                            f" != {n}/{links}/{core}")
        if not close(num(row["in_degree_centralization"]), centralization):
            problems.append(f"{where}: centralization {row['in_degree_centralization']} != {centralization!r}")
        if not close(num(row["average_path_length"]), apl):
            problems.append(f"{where}: path length {row['average_path_length']} != {apl!r}")
        if (num(row["lr"]), num(row["cl"])) != (position or (None, None)):
            problems.append(f"{where}: position {row['lr']},{row['cl']}")
    return problems


def check_demodularity(fx: Fixture, out: Path) -> list[str]:
    problems = []
    sizes = np.bincount(fx.codes, minlength=len(fx.labels))
    kept = [g for g in range(len(fx.labels)) if sizes[g] >= fx.manifest["min_group_size"]]
    labels = [fx.labels[g] for g in kept]
    remap = np.full(len(fx.labels), -1)
    remap[kept] = np.arange(len(kept))
    codes = remap[fx.codes]
    scatter = []
    correlations = []
    for name in fx.layer_names:
        src, dst, w, _ = fx.layers[name]
        keep = (codes[src] >= 0) & (codes[dst] >= 0)
        cs, cd, w = codes[src[keep]], codes[dst[keep]], w[keep]
        groups = len(labels)
        m = w.sum()
        cross = np.zeros((groups, groups))
        np.add.at(cross, (cs, cd), w)
        k_out, k_in = cross.sum(axis=1), cross.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            matrix = (cross - np.outer(k_out, k_in) / m) / k_out[:, None]
        rows = read_table(out / f"demodularity_{name}.csv")
        if [r["from_group"] for r in rows] != labels:
            problems.append(f"demodularity_{name}.csv: rows are not the large groups")
            continue
        for f, row in enumerate(rows):
            for t, label in enumerate(labels):
                expected = None if f == t or k_out[f] <= 0 else float(matrix[f, t])
                if not close(num(row[label]), expected):
                    problems.append(f"demodularity {name} {labels[f]}->{label}: {row[label]} != {expected!r}")
        usable = [g for g, label in enumerate(labels) if label in fx.positions]
        pairs = []
        for f in usable:
            for t in usable:
                if f != t and k_out[f] > 0:
                    a, b = fx.positions[labels[f]], fx.positions[labels[t]]
                    pairs.append((name, labels[f], labels[t], math.hypot(a[0] - b[0], a[1] - b[1]),
                                  float(matrix[f, t])))
        scatter += pairs
        r = float(np.corrcoef([p[3] for p in pairs], [p[4] for p in pairs])[0, 1])
        t_stat = r * math.sqrt((len(pairs) - 2) / (1.0 - r * r))
        correlations.append((name, r, float(2.0 * stats.t.sf(abs(t_stat), len(pairs) - 2)), len(pairs)))
    got = read_table(out / "demod_scatter.csv")
    if [(r["layer"], r["from_group"], r["to_group"]) for r in got] != [p[:3] for p in scatter]:
        problems.append("demod_scatter.csv: rows are not the ordered positioned pairs")
    else:
        for row, p in zip(got, scatter):
            if not (close(num(row["distance"]), p[3]) and close(num(row["demod"]), p[4])):
                problems.append(f"demod_scatter {p[0]} {p[1]}->{p[2]}: {row['distance']},{row['demod']}")
    got = read_table(out / "demod_correlation.csv")
    if [r["layer"] for r in got] != [c[0] for c in correlations]:
        problems.append("demod_correlation.csv: rows are not the layers")
    else:
        for row, (name, r, p_value, count) in zip(got, correlations):
            if not (close(num(row["r"]), r, rel=1e-8) and close(num(row["p_value"]), p_value, rel=1e-6)
                    and int(row["n_pairs"]) == count):
                problems.append(f"demod_correlation {name}: r {row['r']} p {row['p_value']} n {row['n_pairs']}"
                                f" != {r!r} {p_value!r} {count}")
    return problems


FIXTURE_REPORTS = {
    "layer-similarity": ("layer_similarity",),
    "polarization": ("polarization",),
    "group-nmi": ("group_nmi",),
    "timeseries": ("timeseries", "timeseries_events"),
    "structure": ("structure",),
    "demodularity": ("demodularity_*", "demod_scatter", "demod_correlation"),
    "topics": ("topics", "topics_counts"),
}


def report_files(out: Path, command: str) -> list[Path]:
    files = []
    for stem in FIXTURE_REPORTS[command]:
        files += sorted(out.glob(f"{stem}.csv"))
    return files


def check_fixture(fx: Fixture, out: Path, jackknife_similarity: bool) -> dict[str, list[str]]:
    """Problems per command, for the reports one round wrote to ``out``."""
    def guarded(fn, *args):
        try:
            return fn(*args)
        except (OSError, KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
            return [f"{type(exc).__name__}: {exc}"]

    problems = {"layer-similarity": guarded(check_similarity_table, fx, out / "layer_similarity.csv",
                                            jackknife_similarity)}
    if jackknife_similarity:
        return problems
    problems["polarization"] = guarded(check_polarization, fx, out)
    problems["group-nmi"] = guarded(check_group_nmi, fx, out)
    problems["timeseries"] = guarded(check_timeseries, fx, out)
    problems["structure"] = guarded(check_structure, fx, out)
    problems["demodularity"] = guarded(check_demodularity, fx, out)
    problems["topics"] = [] if report_files(out, "topics") else ["topics reports missing"]
    return problems


def same_bytes(first: Path, other: Path, command: str) -> list[str]:
    """Criterion 11's property: a rerun writes byte-identical reports."""
    problems = []
    for path in report_files(first, command):
        twin = other / path.name
        if not twin.is_file() or twin.read_bytes() != path.read_bytes():
            problems.append(f"{path.name} differs between {first.name} and {other.name}")
    return problems


# -- detection portfolio -----------------------------------------------------


def read_graph(path: Path):
    rows = read_table(path)
    ids = {}
    for r in rows:
        ids.setdefault(r["source"], len(ids))
        ids.setdefault(r["target"], len(ids))
    src = np.array([ids[r["source"]] for r in rows])
    dst = np.array([ids[r["target"]] for r in rows])
    w = np.array([float(r.get("weight") or 1.0) for r in rows])
    return ids, src, dst, w


_GROWTH: dict[int, np.ndarray] = {}


def set_partitions(n: int) -> np.ndarray:
    """Every partition of n nodes as a restricted growth string, one per row."""
    if n not in _GROWTH:
        out = [[0]]
        for _ in range(n - 1):
            out = [p + [c] for p in out for c in range(max(p) + 2)]
        _GROWTH[n] = np.array(out)
    return _GROWTH[n]


def exhaustive_best_q(n: int, src, dst, w) -> float:
    m = w.sum()
    adj = np.zeros((n, n))
    np.add.at(adj, (src, dst), w)
    b = adj - np.outer(adj.sum(axis=1), adj.sum(axis=0)) / m
    parts = set_partitions(n)
    same = parts[:, :, None] == parts[:, None, :]
    return float((same * b).sum(axis=(1, 2)).max() / m)


def nmi_ml(a, b) -> float:
    """ML mutual information of two labelings over H(a), as criterion 3 scores it."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)
    h_a = float(entropy_bits(table.sum(axis=1), False))
    if h_a == 0.0:  # one group carries no information about the other labeling
        return 0.0
    mi = h_a + float(entropy_bits(table.sum(axis=0), False)) - float(entropy_bits(table.ravel(), False))
    return mi / h_a


def check_portfolio(root: Path, manifest: dict, records: list[dict]) -> dict[str, list[str]]:
    problems = {}
    for graph, record in zip(manifest["graphs"], records):
        name = graph["name"]
        if not record["ok"]:
            problems[name] = [record["error"]]
            continue
        ids, src, dst, w = read_graph(root / f"{name}.csv")
        order = [ids[node] for node in record["node_ids"]]
        codes = np.empty(len(ids), dtype=np.int64)
        _, labels = np.unique(record["labels"], return_inverse=True)
        codes[order] = labels
        q = directed_q(src, dst, w, codes)
        found = []
        if not close(record["q"], q):
            found.append(f"reported Q {record['q']!r} != {q!r} of the returned partition")
        if graph["kind"] == "small":
            best = exhaustive_best_q(len(ids), src, dst, w)
            if abs(record["q"] - best) > 1e-9:
                found.append(f"Q {record['q']!r} misses the exhaustive optimum {best!r}")
        else:
            truth = np.asarray(graph["truth"])
            node_number = np.array([int(node[1:]) for node in ids])
            truth_codes = truth[node_number]
            q_truth = directed_q(src, dst, w, truth_codes)
            if record["q"] < q_truth - 1e-9:
                found.append(f"Q {record['q']!r} below the planted partition's {q_truth!r}")
            score = nmi_ml(codes, truth_codes)
            if score < 0.9:
                found.append(f"NMI {score:.4f} against the planted partition is below 0.9")
        problems[name] = found
    return problems
