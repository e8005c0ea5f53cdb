"""The five CSV readers agree on encoding, line endings, headers, widths and
the line numbers their errors name.  Four of them share one row reader,
``csv_rows``.  The layer reader splits its text into whole columns, with
``str.split`` when the text is a table of one width with no quote, NUL,
lone carriage return, blank line or over-long cell, and with one
``csv.reader`` pass otherwise, and checks each column at once; only a row it
reports is read again by ``csv_rows``, for its line.  A hypothesis test
holds it to the row loop it replaced, ``oracles.ingest_layer_reference``."""
from __future__ import annotations

import csv
import io
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import columns, links_of
from oracles import ingest_layer_reference
from polarnet.cli import _read_events
from polarnet.errors import ParseError, PolarnetError
from polarnet.ideology import read_positions
from polarnet.network import (
    LAYER_COLUMNS,
    Layer,
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


@pytest.mark.parametrize("quoted", [False, True], ids=["unquoted", "quoted"])
@pytest.mark.parametrize("kind", sorted(READERS))
def test_cell_past_the_field_size_limit_fails_at_its_line(tmp_path, kind, quoted):
    reader, header, rows, spanning = READERS[kind]
    cell = "x" * (csv.field_size_limit() + 10)
    long_row = (f'"{cell}"' if quoted else cell) + "," + rows[1].split(",", 1)[1]
    path = tmp_path / "input.csv"
    # header on line 1, the spanning row on lines 2-4, the long cell on line 5
    _write(path, "\n".join([header, spanning, long_row, rows[0]]) + "\n")
    with pytest.raises(ParseError) as err:
        reader(path)
    assert err.value.line == 5
    assert f"{path}:5: field larger than field limit ({csv.field_size_limit()})" in str(err.value)


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


# Other ISO 8601 forms, which ``date.fromisoformat`` reads from Python 3.11 on; year
# 0 and a date with an hour, which numpy's datetime64 reads; a day past the month's
# end; and full-width digits, which ``\d`` would match.
@pytest.mark.parametrize(
    "day", ["20130105", "2013-W01-1", "0000-01-01", "2013-01-05T00", "2013-02-30", "２０１３-01-05"]
)
@pytest.mark.parametrize("kind", sorted(DATED))
def test_dates_other_than_yyyy_mm_dd_fail_at_their_line(tmp_path, kind, day):
    header, good, row = DATED[kind]
    path = tmp_path / f"{kind}.csv"
    _write(path, "\n".join([header, good, row.format(day=day)]) + "\n")
    with pytest.raises(ParseError) as err:
        READERS[kind][0](path)
    assert f"{path}:3: bad date {day!r} (expected YYYY-MM-DD)" in str(err.value)


def test_layer_row_errors_name_the_first_bad_line(tmp_path):
    """Rows are checked in order, so a bad date on line 2 is reported before a
    bad weight on line 3."""
    path = tmp_path / "layer.csv"
    _write(path, "source,target,weight,date\na,b,1,2013-13-01\nb,c,heavy,2013-01-05\n")
    with pytest.raises(ParseError) as err:
        ingest_layer(path)
    assert f"{path}:2: bad date '2013-13-01' (expected YYYY-MM-DD)" in str(err.value)


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
    rows = [(s, t, w if weighted else 1.0, d.toordinal() if dated and d is not None else None)
            for s, t, w, d in links]
    original = Layer.from_columns("l", *columns(rows), weighted=weighted)
    root = tmp_path_factory.mktemp("roundtrip")
    export_layer_csv(original, root / "plain.csv")
    text = (root / "plain.csv").read_text(encoding="utf-8")
    _write(root / "windows.csv", text, bom=True, newline="\r\n")
    schema = LayerSchema(name="l")
    plain = ingest_layer(root / "plain.csv", schema)
    again = ingest_layer(root / "windows.csv", schema)
    assert _comparable(again) == _comparable(plain)
    assert sorted(links_of(again), key=repr) == sorted(links_of(original), key=repr)
    assert again.weighted == original.weighted


# Cells of a layer row.  Node ids and weights may be padded, and quoted node
# ids may hold commas, quotes and line breaks.
_ID = st.sampled_from(["a", "b", "c", "n1", "é", " a ", "b\t"])
_QUOTED_ID = st.one_of(_ID, st.text(alphabet='ab,"é\n\r ', min_size=1, max_size=4)
                       .filter(str.strip))
_WEIGHT = st.one_of(st.integers(1, 5).map(str),
                    st.sampled_from(["0.1", "2.5", "1e3", " 3 ", "1_0", "+2", "1e308"]))
_DAY = st.one_of(st.dates(date(1990, 1, 1), date(2030, 12, 31)).map(date.isoformat),
                 st.sampled_from(["", "  ", " 2013-01-05 ", "2012-02-29"]))
_CELLS = {"source": _ID, "target": _ID, "weight": _WEIGHT, "date": _DAY}
# One bad cell of each kind: (column it replaces, or None for the row width; cell)
_BAD = [
    (None, "wide"), (None, "narrow"), ("source", ""), ("target", "  "),
    ("weight", ""), ("weight", "heavy"), ("weight", "inf"), ("weight", "-inf"),
    ("weight", "nan"), ("weight", "0"), ("weight", "-2"), ("weight", "1.7e308"),
    *[("date", day) for day in ["20130105", "2013-W01-1", "0000-01-01", "2013-01-05T00",
                                "2013-02-30", "２０１３-01-05", "2013-13-01", "2013-1-05"]],
]


@st.composite
def _layer_texts(draw) -> bytes:
    """A layer CSV in either form, with up to four bad cells at random rows.
    About half of the texts hold no quote and no lone carriage return."""
    quoted = draw(st.booleans())
    cells = {**_CELLS, "source": _QUOTED_ID, "target": _QUOTED_ID} if quoted else _CELLS
    header = draw(st.booleans())
    if header:
        extra = draw(st.lists(st.sampled_from(["weight", "date"]), unique=True, max_size=2))
        names = ["source", "target", *extra]
    else:
        names = list(LAYER_COLUMNS[: draw(st.integers(2, 4))])
    rows = draw(st.lists(st.tuples(*(cells[name] for name in names)).map(list),
                         min_size=1, max_size=8))
    spoilt = draw(st.lists(st.tuples(st.integers(0, 7), st.sampled_from(_BAD)), max_size=3))
    if spoilt and draw(st.booleans()):
        # the same kind of bad cell again, in another row
        spoilt.append((spoilt[0][0] + draw(st.integers(1, 7)), spoilt[0][1]))
    for at, (column, cell) in spoilt:
        row = rows[at % len(rows)]
        if column is None:
            row[:] = row + ["x"] if cell == "wide" else row[:-1]
        elif column in names and len(row) == len(names):
            row[names.index(column)] = cell
    if header:
        title = [draw(st.sampled_from([name, name.title(), name.upper()])) for name in names]
        rows.insert(0, title)
    handle = io.StringIO()
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL] if quoted
                                   else [csv.QUOTE_MINIMAL]))
    csv.writer(handle, lineterminator="\n", quoting=quoting).writerows(rows)
    lines = handle.getvalue().split("\n")
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"] if quoted else ["\n", "\r\n"]))
    text = ("\ufeff" if draw(st.booleans()) else "") + newline.join(lines)
    return text.encode("utf-8")


def _outcome(read, data: bytes):
    try:
        return _comparable(read("layer.csv", data=data))
    except (PolarnetError, csv.Error) as err:
        return f"{type(err).__name__}: {err}"


@settings(max_examples=400, deadline=None)
@given(data=_layer_texts())
@example(data=b"source,target,weight,date\na,b,1,2013-13-01\nb,c,heavy,2013-01-05\n")
@example(data="\ufeffa,b, 1e308 \r\n\r\nb,a,1.7e308\r\n".encode())
@example(data=b"a,b\n" + b"c" * (csv.field_size_limit() + 1) + b",d\n")
@example(data=b"a,b\nc\x00,d\n")
@example(data=b"a,b,heavy\nc,d,1\n" + b"e" * (csv.field_size_limit() + 1) + b",f,1\n")
@example(data=b"a,b,1\nc,d\n\"e\nf\",\"" + b"g" * (csv.field_size_limit() + 1) + b"\"\n")
def test_ingest_equals_the_row_loop_reference(data):
    """Whole-column reading gives the row loop's layer, or its first error."""
    assert _outcome(ingest_layer, data) == _outcome(ingest_layer_reference, data)
