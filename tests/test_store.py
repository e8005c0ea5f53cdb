"""The output directory's store: reusing an entry gives the reports that
recomputing gives, and an entry that is changed, damaged or written by other
code is never trusted."""
from __future__ import annotations

import contextlib
import io
import os
import sys
import threading
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
import scipy

from polarnet import cli, store
from polarnet.communities import ComboScript, DetectionResult
from polarnet.network import Partition, ingest_layer

LAYERS = (("supports", 240, False), ("likes", 240, True), ("comments_links", 120, False))
PARTIES, PARTY_SIZE, NODES = 3, 12, 40


def _write_fixture(root: Path) -> None:
    """A small criterion-10-like fixture: three dated layers, positions,
    events and comments over 3 parties of 12 nodes plus 4 unaligned."""
    rng = np.random.default_rng(3)
    nodes = [f"p{i:02d}" for i in range(NODES)]
    party = [i // PARTY_SIZE if i < PARTIES * PARTY_SIZE else -1 for i in range(NODES)]
    for name, count, weighted in LAYERS:
        lines = ["source,target,weight,date\n" if weighted else "source,target,date\n"]
        while len(lines) <= count:
            s = int(rng.integers(NODES))
            if party[s] >= 0 and rng.random() < 0.8:
                t = party[s] * PARTY_SIZE + int(rng.integers(PARTY_SIZE))
            else:
                t = int(rng.integers(NODES))
            day = date(2013, 1, 1) + timedelta(days=int(rng.integers(90)))
            weight = f",{int(rng.integers(1, 4))}" if weighted else ""
            if s != t:
                lines.append(f"{nodes[s]},{nodes[t]}{weight},{day}\n")
        (root / f"{name}.csv").write_text("".join(lines), encoding="utf-8")
    (root / "nodes.csv").write_text("node_id,affiliation\n" + "".join(
        f"{node},{f'party{party[i]}' if party[i] >= 0 else 'none'}\n"
        for i, node in enumerate(nodes)), encoding="utf-8")
    (root / "merge.cfg").write_text(
        "".join(f"party{p} = P{p}\n" for p in range(PARTIES)) + "* = unaligned\n", encoding="utf-8")
    (root / "positions.csv").write_text(
        "party,lr,cl\n" + "".join(f"P{p},{p * 1.5},{p % 2 * 2.0}\n" for p in range(PARTIES)),
        encoding="utf-8")
    (root / "events.csv").write_text("date,label\n2013-02-01,Event\n", encoding="utf-8")
    comments = ["author,date,text\n"]
    for _ in range(60):
        author = int(rng.integers(NODES))
        words = [f"theme{max(party[author], 0)}w{int(rng.integers(5))}" for _ in range(4)]
        words += [f"word{int(rng.integers(30))}" for _ in range(4)]
        comments.append(f"{nodes[author]},2013-01-{1 + int(rng.integers(28)):02d},\"{' '.join(words)}\"\n")
    (root / "comments.csv").write_text("".join(comments), encoding="utf-8")


def _commands(root: Path) -> list[list[str]]:
    """Criterion 10's command list, with --min-group-size scaled to the fixture."""
    base = []
    for name, _, _ in LAYERS:
        base += ["--layer", f"{name}={root / f'{name}.csv'}"]
    base += ["--nodes", str(root / "nodes.csv"), "--merge", str(root / "merge.cfg")]
    groups = ["--min-group-size", "5"]
    positions = ["--positions", str(root / "positions.csv")]
    return [
        ["layer-similarity", *base, "--no-jackknife"],
        ["polarization", *base, "--portfolio", "f-1", "--seed", "11"],
        ["group-nmi", *base, "--portfolio", "f-1", "--seed", "11"],
        ["timeseries", *base, "--window-days", "30", "--step-days", "7",
         "--events", str(root / "events.csv")],
        ["structure", *base, *groups, *positions],
        ["demodularity", *base, *groups, *positions],
        ["topics", *base, "--comments", str(root / "comments.csv"), *groups, "--alpha", "0.05"],
    ]


@pytest.fixture()
def fixture_root(tmp_path: Path) -> Path:
    root = tmp_path / "inputs"
    root.mkdir()
    _write_fixture(root)
    return root


@pytest.fixture()
def calls(monkeypatch) -> dict[str, list]:
    """The first argument of every call through ``cli.ingest_layer`` and ``cli.run_portfolio``."""
    log: dict[str, list] = {"ingest_layer": [], "run_portfolio": []}
    for name, seen in log.items():
        def wrapper(*args, _original=getattr(cli, name), _seen=seen, **kwargs):
            _seen.append(args[0])
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)
    return log


def _run(argv: list[str], out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", str(out)]) == 0, argv[0]


def _reports(out: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out.glob("*.csv")}


def _entries(out: Path, kind: str = "*") -> list[Path]:
    return sorted(out.glob(f".polarnet-{kind}-*.npz"))


def test_shared_out_reports_equal_separate_runs(fixture_root, tmp_path, calls):
    separate: dict[str, bytes] = {}
    for k, argv in enumerate(_commands(fixture_root)):
        _run(argv, tmp_path / f"alone{k}")
        separate.update(_reports(tmp_path / f"alone{k}"))
    assert len(calls["ingest_layer"]) == 3 * 7
    assert len(calls["run_portfolio"]) == 6 + 3

    shared = tmp_path / "shared"
    per_command = []
    for argv in _commands(fixture_root):
        before = {name: len(seen) for name, seen in calls.items()}
        _run(argv, shared)
        per_command.append({name: len(seen) - before[name] for name, seen in calls.items()})
    assert _reports(shared) == separate and len(separate) == 13
    assert [c["ingest_layer"] for c in per_command] == [3, 0, 0, 0, 0, 0, 0]
    assert [c["run_portfolio"] for c in per_command[1:3]] == [6, 0]
    assert len(_entries(shared, "layer")) == 3 and len(_entries(shared, "detection")) == 6


def test_changed_layer_byte_reparses_that_layer_only(fixture_root, tmp_path, calls):
    polarization = _commands(fixture_root)[1]
    out = tmp_path / "out"
    _run(polarization, out)
    likes = fixture_root / "likes.csv"
    header, first, rest = likes.read_text(encoding="utf-8").split("\n", 2)
    source, target, weight, day = first.split(",")
    likes.write_text("\n".join([header, f"{source},{target},{int(weight) % 3 + 1},{day}", rest]),
                     encoding="utf-8")
    calls["ingest_layer"].clear()
    calls["run_portfolio"].clear()
    _run(polarization, out)
    assert calls["ingest_layer"] == [str(likes)]
    assert [layer.name for layer in calls["run_portfolio"]] == ["likes", "likes"]
    _run(polarization, tmp_path / "fresh")
    assert _reports(out) == _reports(tmp_path / "fresh")


def _feed(fd: int, data: bytes) -> None:
    with open(fd, "wb") as handle:
        handle.write(data)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_layer_from_a_pipe_is_read_once(fixture_root, tmp_path, calls):
    """A layer given as a pipe, as by ``--layer likes=<(zcat likes.csv.gz)``,
    can be read only once: the run must parse the bytes it hashed."""
    polarization = _commands(fixture_root)[1]
    _run(polarization, tmp_path / "files")
    likes = fixture_root / "likes.csv"
    read, write = os.pipe()
    feeder = threading.Thread(target=_feed, args=(write, likes.read_bytes()))
    feeder.start()
    try:
        _run([f"likes=/dev/fd/{read}" if arg == f"likes={likes}" else arg for arg in polarization],
             tmp_path / "piped")
    finally:
        feeder.join()
        os.close(read)
    assert _reports(tmp_path / "piped") == _reports(tmp_path / "files")
    for path in _entries(tmp_path / "piped", "layer"):
        with np.load(path) as entry:
            assert len(entry["src"]) > 0
    # The piped layer was kept under its real bytes, so the regular file hits it.
    calls["ingest_layer"].clear()
    calls["run_portfolio"].clear()
    _run(polarization, tmp_path / "piped")
    assert calls == {"ingest_layer": [], "run_portfolio": []}
    assert _reports(tmp_path / "piped") == _reports(tmp_path / "files")


@pytest.mark.parametrize("module, attr", [(np, "__version__"), (scipy, "__version__"),
                                          (sys, "version")])
def test_source_digest_covers_python_numpy_and_scipy(monkeypatch, module, attr):
    digest = store.source_digest()
    monkeypatch.setattr(module, attr, "0.0")
    store.source_digest.cache_clear()
    try:
        assert store.source_digest() != digest
    finally:
        store.source_digest.cache_clear()


def _truncate(path: Path) -> None:
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _garble(path: Path) -> None:
    data = bytearray(path.read_bytes())
    middle = len(data) // 2
    data[middle:middle + 8] = bytes(255 - b for b in data[middle:middle + 8])
    path.write_bytes(bytes(data))


def _rewritten(change):
    """Damage that saves an entry's arrays again after ``change`` edits them."""
    def damage(path: Path) -> None:
        with np.load(path) as entry:
            arrays = {name: entry[name] for name in entry.files}
        with open(path, "wb") as handle:
            np.savez(handle, **change(arrays, "src" if "src" in arrays else "codes"))
    return damage


_retype = _rewritten(lambda arrays, key: {**arrays, key: arrays[key].astype(np.int32)})
_shorten = _rewritten(lambda arrays, key: {**arrays, key: arrays[key][:-1]})
_rename = _rewritten(lambda arrays, key: {f"x{name}": value for name, value in arrays.items()})


@pytest.mark.parametrize("damage", [_truncate, _garble, _retype, _shorten, _rename])
def test_bad_entry_is_a_miss_and_rewritten(fixture_root, tmp_path, calls, damage):
    polarization = _commands(fixture_root)[1]
    out = tmp_path / "out"
    _run(polarization, out)
    reports = _reports(out)
    entries = {path: path.read_bytes() for path in _entries(out)}
    for path in entries:
        damage(path)
    calls["ingest_layer"].clear()
    calls["run_portfolio"].clear()
    _run(polarization, out)
    assert len(calls["ingest_layer"]) == 3 and len(calls["run_portfolio"]) == 6
    assert _reports(out) == reports
    assert {path: path.read_bytes() for path in _entries(out)} == entries


def test_entry_of_other_sources_is_not_read(fixture_root, tmp_path, calls, monkeypatch):
    polarization = _commands(fixture_root)[1]
    out = tmp_path / "out"
    _run(polarization, out)
    reports = _reports(out)
    monkeypatch.setattr(store, "source_digest", lambda: b"other sources")
    calls["ingest_layer"].clear()
    calls["run_portfolio"].clear()
    _run(polarization, out)
    assert len(calls["ingest_layer"]) == 3 and len(calls["run_portfolio"]) == 6
    assert _reports(out) == reports
    assert len(_entries(out)) == 2 * 9


def test_node_ids_survive_a_hit(tmp_path, calls):
    ids = ["ünïcødé", "日本", "ab\x00", "a,b", "x"]
    path = tmp_path / "odd.csv"
    path.write_text("source,target\n" + "".join(
        f'"{ids[i]}","{ids[j]}"\n' for i in range(5) for j in range(5) if i != j), encoding="utf-8")
    args = cli.build_parser().parse_args(["export", "--layer", f"odd={path}", "--out", str(tmp_path)])
    scripts = (ComboScript.parse("f-1"),)
    runs = []
    for _ in range(2):
        layer = cli._load_run(args, need_partition=False).network.layer("odd")
        runs.append((layer, cli._detect(args.out, layer, scripts, 7, 0, 0)))
    assert len(calls["ingest_layer"]) == 1 and len(calls["run_portfolio"]) == 1
    (first, found), (second, reused) = runs
    assert sorted(second.node_ids) == sorted(ids) and second.node_ids == first.node_ids
    for name in ("src", "dst", "weight"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    assert (second.days, second.weighted) == (first.days, first.weighted)
    assert reused == found


def test_detection_round_trips_seed_and_flags(tmp_path):
    path = tmp_path / "links.csv"
    path.write_text("a,b\nb,c\nc,a\nc,d\n", encoding="utf-8")
    layer = ingest_layer(path)
    kept = DetectionResult(Partition.from_assignment({"a": "c0", "b": "c0", "c": "c1", "d": "c1"},
                                                     ("c0", "c1")),
                           0.1 + 0.2, "esrfr-30", None, 2, ("arpack did not converge",))

    def fail() -> DetectionResult:
        raise AssertionError("a hit must not detect")

    assert store.detection(tmp_path, layer, ("esrfr-30",), 5, lambda: kept) == kept
    assert store.detection(tmp_path, layer, ("esrfr-30",), 5, fail) == kept
    assert store.detection(tmp_path, layer, ("esrfr-30",), 6, lambda: kept) == kept
    assert len(_entries(tmp_path, "detection")) == 2
