"""Content-keyed store of what a command computed, kept in its output directory.

A later command writing to the same ``--out`` directory reuses an entry
instead of computing it again.  Two kinds are kept:

- ``layer``: a parsed layer, keyed by the bytes of its CSV file, which is
  read once and parsed from those same bytes, so a pipe works and a file
  that changes meanwhile is never kept under the wrong key, and by the ids
  its registry starts with;
- ``detection``: a portfolio's result on one layer, keyed by the layer's
  registry and its ``src``, ``dst`` and ``weight`` arrays, the script texts
  and the derived seed.

Every key also covers a digest of this package's source files and of the
Python, numpy and scipy versions, taken once per process, so an entry
written by other code is never read.  An entry is one flat hidden file,
``<out>/.polarnet-<kind>-<key>.npz``, whose bytes depend only on its
content.  An entry that cannot be read or fails its checks is a miss: the
value is computed again and the entry rewritten.  The store never makes a
command fail and never changes a report, so deleting its files is always
safe.
"""
from __future__ import annotations

import functools
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
import scipy

from .communities import ComboScript, DetectionResult
from .network import Layer
from .reports import write_bytes_atomic


@functools.cache
def source_digest() -> bytes:
    """sha256 over the names and bytes of the package's ``.py`` files and
    the versions of Python, numpy and scipy, whose eigensolver, random
    streams and sorts the detections depend on."""
    digest = hashlib.sha256()
    _update(digest, sys.version.encode(), np.__version__.encode(), scipy.__version__.encode())
    for path in sorted(Path(__file__).parent.glob("*.py")):
        _update(digest, path.name.encode(), path.read_bytes())
    return digest.digest()


def _update(digest, *parts: bytes) -> None:
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)


def _ids(node_ids: Sequence[str]) -> bytes:
    # JSON, not a numpy string array, which would drop trailing NULs.
    return json.dumps(list(node_ids)).encode()


def _cached(out: str | Path, kind: str, parts: Sequence[bytes],
            decode: Callable[[Any], Any], compute: Callable[[], Any],
            encode: Callable[[Any], dict[str, np.ndarray]]) -> Any:
    """The stored value under (kind, parts) in ``out``, else ``compute()``, stored."""
    digest = hashlib.sha256(source_digest())
    _update(digest, kind.encode(), *parts)
    path = Path(out) / f".polarnet-{kind}-{digest.hexdigest()}.npz"
    try:
        with np.load(path, allow_pickle=False) as entry:
            return decode(entry)
    except Exception:  # absent, unreadable or failing a check: a miss
        pass
    value = compute()
    try:
        entry = io.BytesIO()
        np.savez(entry, **encode(value))
        write_bytes_atomic(path, entry.getvalue())
    except OSError:
        pass  # an entry that cannot be written is a miss next time
    return value


def _arrays(entry, names: set[str], optional: frozenset[str] = frozenset()) -> dict[str, np.ndarray]:
    if not names <= set(entry.files) <= names | optional:
        raise ValueError(f"entry holds {sorted(entry.files)}")
    return {name: entry[name] for name in entry.files}


def _check(array: np.ndarray, dtype, shape: tuple[int, ...]) -> np.ndarray:
    if array.dtype != dtype or array.shape != shape:
        raise ValueError(f"{array.dtype}{array.shape} where {np.dtype(dtype)}{shape} belongs")
    return array


def _json(array: np.ndarray) -> Any:
    return json.loads(_check(array, np.uint8, (array.size,)).tobytes().decode())


def _bytes(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8)


def layer(out: str | Path, path: str | Path, name: str,
          parse: Callable[[bytes | None], Layer], prefix: Sequence[str] = ()) -> Layer:
    """The layer that ``parse(data)`` reads from ``data``, the bytes of
    ``path``, onto a registry that starts with ``prefix``, kept under those
    bytes and ids."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return parse(None)  # parse opens the path and names the problem as it always has

    def decode(entry) -> Layer:
        a = _arrays(entry, {"registry", "src", "dst", "weight", "weighted"}, frozenset({"days"}))
        node_ids = tuple(_json(a["registry"]))
        if not all(isinstance(node, str) for node in node_ids):
            raise ValueError("node ids must be strings")
        links = (len(a["src"]),)
        days = _check(a["days"], np.int64, links) if "days" in a else None
        return Layer(name, node_ids, _check(a["src"], np.int64, links),
                     _check(a["dst"], np.int64, links), _check(a["weight"], np.float64, links),
                     days, bool(_check(a["weighted"], np.bool_, ())))

    def encode(found: Layer) -> dict[str, np.ndarray]:
        arrays = {"registry": _bytes(_ids(found.node_ids)), "src": found.src,
                  "dst": found.dst, "weight": found.weight, "weighted": np.bool_(found.weighted)}
        if found.days is not None:
            arrays["days"] = found.days
        return arrays

    return _cached(out, "layer", [data, _ids(prefix)], decode, lambda: parse(data), encode)


def detection(out: str | Path, layer: Layer, scripts: Sequence[ComboScript], seed: int,
              detect: Callable[[], DetectionResult]) -> DetectionResult:
    """The result of ``detect()``, the portfolio ``scripts`` at ``seed`` on ``layer``."""
    texts = json.dumps([str(script) for script in scripts]).encode()
    parts = [_ids(layer.node_ids), layer.src.tobytes(), layer.dst.tobytes(),
             layer.weight.tobytes(), texts, str(seed).encode()]

    def decode(entry) -> DetectionResult:
        a = _arrays(entry, {"codes", "q", "meta"})
        meta = _json(a["meta"])
        codes = _check(a["codes"], np.int64, (len(layer.node_ids),))
        q = float(_check(a["q"], np.float64, ()))
        script, sub_seed, flags = meta["script"], meta["seed"], meta["flags"]
        if not (isinstance(script, str) and (sub_seed is None or isinstance(sub_seed, int))
                and isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
            raise ValueError(f"bad meta {meta!r}")
        return DetectionResult.from_codes(layer.node_ids, script, sub_seed, codes, q, tuple(flags))

    def encode(found: DetectionResult) -> dict[str, np.ndarray]:
        meta = {"script": found.script, "seed": found.seed, "flags": list(found.flags)}
        return {"codes": found.partition.codes_on(layer.node_ids), "q": np.float64(found.q),
                "meta": _bytes(json.dumps(meta).encode())}

    return _cached(out, "detection", parts, decode, detect, encode)
