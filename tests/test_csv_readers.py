"""The five CSV readers share one row reader: encoding, line endings, headers,
widths and the line numbers their errors name."""
from __future__ import annotations

from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarnet.cli import _read_events
from polarnet.errors import ParseError
from polarnet.ideology import read_positions
from polarnet.network import (
    Layer,
    LayerLink,
    LayerSchema,
    export_layer_csv,
    ingest_layer,
    read_merge_config,
    read_node_table,
)
from polarnet.topics import load_stopwords, read_comments

# reader, header, two good rows, and a good row whose first quoted cell spans
# three physical lines.
READERS = {
    "layer": (ingest_layer, "source,target", ["a,b", "b,c"], '"x\ny\nz",a'),
    "nodes": (read_node_table, "node_id,affiliation", ["a,Left", "b,Right"], '"x\ny\nz",Left'),
    "events": (_read_events, "date,label", ["2021-03-05,Debate", "2021-04-01,Vote"],
               '2021-05-01,"long\nevent\nname"'),
    "positions": (read_positions, "party,lr,cl", ["A,1,2", "B,3,4"], '"x\ny\nz",5,6'),
    "comments": (read_comments, "author,date,text", ["u1,2021-03-01,hello", "u2,,world"],
                 'u3,2021-03-02,"one\ntwo\nthree"'),
}
FIXED_WIDTH = ("nodes", "events", "positions", "comments")


def _comparable(result):
    if isinstance(result, Layer):
        return (result.node_ids, result.src.tolist(), result.dst.tolist(),
                result.weight.tolist(), result.weighted,
                None if result.days is None else result.days.tolist())
    return result


def _read(kind: str, path):
    return _comparable(READERS[kind][0](path))


def _write(path, text: str, *, bom: bool = False, newline: str = "\n") -> None:
    data = ("\ufeff" if bom else "") + text.replace("\n", newline)
    path.write_bytes(data.encode("utf-8"))


@pytest.mark.parametrize("kind", sorted(READERS))
def test_byte_order_mark_before_header_is_dropped(tmp_path, kind):
    _, header, rows, _ = READERS[kind]
    text = "\n".join([header, *rows]) + "\n"
    _write(tmp_path / "plain.csv", text)
    _write(tmp_path / "bom.csv", text, bom=True)
    plain = _read(kind, tmp_path / "plain.csv")
    assert _read(kind, tmp_path / "bom.csv") == plain


@pytest.mark.parametrize("kind", sorted(READERS))
def test_crlf_line_endings_read_like_lf(tmp_path, kind):
    _, header, rows, _ = READERS[kind]
    text = "\n".join([header, *rows]) + "\n"
    _write(tmp_path / "lf.csv", text)
    _write(tmp_path / "crlf.csv", text, newline="\r\n")
    assert _read(kind, tmp_path / "crlf.csv") == _read(kind, tmp_path / "lf.csv")


@pytest.mark.parametrize("kind", sorted(READERS))
def test_error_after_multiline_cell_names_physical_line(tmp_path, kind):
    reader, header, rows, spanning = READERS[kind]
    path = tmp_path / "input.csv"
    # header on line 1, the spanning row on lines 2-4, a one-cell row on line 5
    _write(path, "\n".join([header, spanning, "oops", rows[0]]) + "\n")
    with pytest.raises(ParseError) as err:
        reader(path)
    assert err.value.line == 5
    assert f"{path}:5:" in str(err.value)
    assert "found 1" in str(err.value)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_latin1_row_fails_at_its_line(tmp_path, kind):
    reader, header, rows, _ = READERS[kind]
    path = tmp_path / "input.csv"
    latin = "M\xfcller," + rows[1].split(",", 1)[1]
    path.write_bytes("\n".join([header, rows[0], latin]).encode("latin-1"))
    with pytest.raises(ParseError) as err:
        reader(path)
    assert err.value.line == 3
    assert f"{path}:3: not UTF-8 text" in str(err.value)


def test_latin1_merge_config_fails_at_its_line(tmp_path):
    path = tmp_path / "merge.cfg"
    path.write_bytes("# parties\nLeft=L\nM\xfcller=R\n".encode("latin-1"))
    with pytest.raises(ParseError) as err:
        read_merge_config(path)
    assert f"{path}:3: not UTF-8 text" in str(err.value)


def test_latin1_stopword_list_fails_at_its_line(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_bytes("und\nM\xfcller\n".encode("latin-1"))
    with pytest.raises(ParseError) as err:
        load_stopwords(path)
    assert f"{path}:2: not UTF-8 text" in str(err.value)


@pytest.mark.parametrize("kind", FIXED_WIDTH)
def test_header_with_an_extra_column_fails_at_line_one(tmp_path, kind):
    reader, header, rows, _ = READERS[kind]
    path = tmp_path / "input.csv"
    _write(path, "\n".join([header + ",age", *rows]) + "\n")
    with pytest.raises(ParseError) as err:
        reader(path)
    assert err.value.line == 1
    width = len(header.split(","))
    assert f"expected {width} columns ({header}), found {width + 1}" in str(err.value)


# header, a good row, and a row holding the date under test
DATED = {
    "layer": ("source,target,weight,date", "a,c,1,2013-01-04", "a,b,1,{day}"),
    "events": ("date,label", "2013-01-04,Debate", "{day},Vote"),
    "comments": ("author,date,text", "u0,2013-01-04,hi", "u1,{day},hello"),
}


# Other ISO 8601 forms, which ``date.fromisoformat`` reads from Python 3.11 on.
@pytest.mark.parametrize("day", ["20130105", "2013-W01-1"])
@pytest.mark.parametrize("kind", sorted(DATED))
def test_dates_other_than_yyyy_mm_dd_fail_at_their_line(tmp_path, kind, day):
    header, good, row = DATED[kind]
    path = tmp_path / f"{kind}.csv"
    _write(path, "\n".join([header, good, row.format(day=day)]) + "\n")
    with pytest.raises(ParseError) as err:
        READERS[kind][0](path)
    assert f"{path}:3: bad date {day!r} (expected YYYY-MM-DD)" in str(err.value)


def test_header_is_recognized_on_line_one_only(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("\nnode_id,affiliation\na,Left\n")
    assert read_node_table(path) == {"node_id": "affiliation", "a": "Left"}


_NODE = st.text(alphabet='ab,"é ', min_size=1, max_size=4).filter(
    lambda s: s == s.strip() and s
)
_LINK = st.tuples(
    _NODE,
    _NODE,
    st.one_of(st.integers(1, 40).map(lambda k: k / 4), st.sampled_from([0.1, 0.2, 0.3, 0.7])),
    st.one_of(st.none(), st.dates(date(2000, 1, 1), date(2030, 12, 31))),
)


@settings(max_examples=60, deadline=None)
@given(links=st.lists(_LINK, min_size=1, max_size=12), weighted=st.booleans(),
       dated=st.booleans())
@example(links=[("a", "b", 0.1, None), ("a", "b", 0.2, None)], weighted=True, dated=False)
def test_exported_layer_reingests_equal_with_bom_and_crlf(tmp_path_factory, links, weighted,
                                                           dated):
    records = [LayerLink(s, t, w if weighted else 1.0, d if dated else None)
               for s, t, w, d in links]
    original = Layer.from_links("l", records, weighted=weighted)
    root = tmp_path_factory.mktemp("roundtrip")
    export_layer_csv(original, root / "plain.csv")
    text = (root / "plain.csv").read_text(encoding="utf-8")
    _write(root / "windows.csv", text, bom=True, newline="\r\n")
    schema = LayerSchema(name="l")
    plain = ingest_layer(root / "plain.csv", schema)
    again = ingest_layer(root / "windows.csv", schema)
    assert _comparable(again) == _comparable(plain)
    assert sorted(again.links(), key=repr) == sorted(original.links(), key=repr)
    assert again.weighted == original.weighted
