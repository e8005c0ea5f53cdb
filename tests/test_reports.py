"""Report serialization: cell formatting, atomic writes, table layouts."""
from __future__ import annotations

import json
import os
import stat

import pytest

from helpers import layer_of, partition_of
from polarnet import store
from polarnet.errors import ValidationError
from polarnet.modularity import demodularity_matrix
from polarnet.network import LayerSchema, ingest_layer
from polarnet.reports import (
    demod_matrix_table,
    format_value,
    table_payload,
    write_csv,
    write_json,
    write_text_atomic,
)


def test_format_value_rules():
    assert format_value(None) == ""
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(-0.0) == "0"
    assert format_value(0.3351111111111234567) == "0.335111111111"
    assert format_value(1.0) == "1"
    assert format_value(-2.5e-11) == "-2.5e-11"
    assert format_value(3) == "3"
    assert format_value("text") == "text"


def test_write_csv_layout_and_bytes(tmp_path):
    path = tmp_path / "out" / "report.csv"
    write_csv(path, ["a", "b"], [[1, None], [0.5, True]])
    assert path.read_bytes() == b"a,b\n1,\n0.5,true\n"


def test_writers_are_deterministic(tmp_path):
    one = tmp_path / "one.csv"
    two = tmp_path / "two.csv"
    rows = [[1.2345678901234567, "x"], [-0.0, None]]
    write_csv(one, ["v", "s"], rows)
    write_csv(two, ["v", "s"], rows)
    assert one.read_bytes() == two.read_bytes()


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "data.txt"
    write_text_atomic(path, "first")
    write_text_atomic(path, "second")
    assert path.read_text() == "second"
    assert [p.name for p in tmp_path.iterdir()] == ["data.txt"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_reports_and_store_entries_take_the_umask(tmp_path, umask, mode):
    source = tmp_path / "links.csv"
    source.write_text("source,target\na,b\n", encoding="utf-8")
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        write_csv(out / "report.csv", ["a"], [[1]])
        store.layer(out, source, "links",
                    lambda data: ingest_layer(source, LayerSchema(name="links"), data=data))
    finally:
        os.umask(old)
    written = sorted(path.name for path in out.iterdir())
    assert len(written) == 2 and written[0].startswith(".polarnet-layer-") and written[1] == "report.csv"
    assert {stat.S_IMODE((out / name).stat().st_mode) for name in written} == {mode}


def test_write_json_rounds_floats(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"q": 0.1234567890123456789, "neg": -0.0, "nested": [1.0, None]})
    loaded = json.loads(path.read_text())
    assert loaded == {"q": 0.123456789012, "neg": 0.0, "nested": [1.0, None]}
    assert path.read_text().endswith("\n")


def test_table_payload_shapes_records():
    payload = table_payload(["x", "y"], [[1, 2], [3, None]])
    assert payload == [{"x": 1, "y": 2}, {"x": 3, "y": None}]
    with pytest.raises(ValidationError):
        table_payload(["x", "y"], [[1, 2, 3]])


def test_demod_matrix_table_blanks_diagonal_and_undefined_rows():
    # g1 = {n2, n3} has no outgoing links, so its row is undefined
    layer = layer_of(4, [(0, 2), (1, 3), (0, 1)])
    part = partition_of(4, [0, 0, 1, 1])
    header, rows = demod_matrix_table(demodularity_matrix(layer, part))
    assert header == ["from_group", "g0", "g1"]
    assert rows[0][0] == "g0" and rows[0][1] is None  # diagonal blank
    assert isinstance(rows[0][2], float)
    assert rows[1] == ["g1", None, None]
