"""Deterministic report files: CSV/JSON serialization with atomic writes.

Every writer produces the same bytes for the same inputs: floats are
formatted with 12 significant digits, rows arrive in caller-fixed order,
and files are written to a temporary sibling then renamed into place so a
crash never leaves a half-written report.
"""
from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Sequence

from .errors import ValidationError
from .modularity import DemodularityMatrix

FORMATS = ("csv", "json")


def format_value(value: Any) -> str:
    """Render one CSV cell: None -> empty, floats with 12 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0  # collapse -0.0
        return format(value, ".12g")
    return str(value)


def _umask() -> int:
    # os has no getter: set the umask, then put it back.
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_bytes_atomic(path: str | Path, data: bytes) -> None:
    """Write bytes to path via a temporary file and rename.

    The file gets the mode a plain ``open`` would give it, 0o666 less the
    umask, not the temporary file's 0o600.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "wb", dir=path.parent, prefix=f".{path.name}.", suffix=".tmp", delete=False
    )
    try:
        with handle:
            handle.write(data)
        os.chmod(handle.name, 0o666 & ~_umask())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8, unchanged newlines, via a temporary file and rename."""
    write_bytes_atomic(path, text.encode("utf-8"))


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write a CSV report with a header row; cells go through format_value."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([format_value(cell) for cell in row])
    write_text_atomic(path, buffer.getvalue())


def _jsonable(value: Any) -> Any:
    if isinstance(value, float):
        if value == 0.0:
            return 0.0
        return float(format(value, ".12g"))
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def write_json(path: str | Path, payload: Any) -> None:
    """Write a JSON report; floats are rounded to 12 significant digits."""
    text = json.dumps(_jsonable(payload), indent=2, ensure_ascii=False) + "\n"
    write_text_atomic(path, text)


def table_payload(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> list[dict[str, Any]]:
    """Shape tabular data as a list of records for the JSON format."""
    out = []
    for row in rows:
        cells = list(row)
        if len(cells) != len(header):
            raise ValidationError("row width does not match header")
        out.append(dict(zip(header, cells)))
    return out


def demod_matrix_table(matrix: DemodularityMatrix) -> tuple[list[str], list[list[Any]]]:
    """Square demodularity layout: rows are from-groups, columns to-groups.

    The diagonal is blank by construction; rows whose normalizer is zero are
    blank as well.
    """
    header = ["from_group", *matrix.labels]
    rows: list[list[Any]] = []
    for f in matrix.labels:
        row: list[Any] = [f]
        for t in matrix.labels:
            row.append(None if f == t else matrix.value(f, t))
        rows.append(row)
    return header, rows
