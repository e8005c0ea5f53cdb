"""Tokenization, PMI, rate-difference significance and topic ranking."""
from __future__ import annotations

import math

import pytest

from helpers import partition_of
from oracles import chi2_sf_oracle, g_statistic_oracle
from polarnet.errors import ParseError, UndefinedMetricError, ValidationError
from polarnet.network import Partition
from polarnet.topics import (
    CommentRecord,
    WordGroupStat,
    corpus_for_groups,
    load_stopwords,
    pmi,
    read_comments,
    significance,
    tokenize,
    topic_report,
)


# -- tokenization -----------------------------------------------------------


def test_tokenize_drops_stopwords_case_insensitively():
    stops = {"die", "der"}
    assert tokenize("Die Bahnpolizei kommt", stops) == ["Bahnpolizei", "kommt"]
    assert tokenize("DIE der Bahn", stops) == ["Bahn"]


def test_tokenize_empty_and_punctuation():
    assert tokenize("") == []
    assert tokenize("?! ... --") == []
    assert tokenize("PK, PK!") == ["PK", "PK"]  # duplicates and case kept


def test_tokenize_drops_single_characters():
    assert tokenize("A b c de") == ["de"]


def test_tokenize_is_unicode_aware():
    assert tokenize("Bürger zäune 2021") == ["Bürger", "zäune", "2021"]


def test_load_bundled_stopwords():
    stops = load_stopwords()
    assert {"die", "der", "und", "nicht"} <= stops
    assert all(word == word.casefold() for word in stops)
    assert not any(word.startswith("#") for word in stops)


def test_load_stopwords_from_file(tmp_path):
    listing = tmp_path / "stops.txt"
    listing.write_text("# comment line\nFoo\n\n  bar  \n", encoding="utf-8")
    assert load_stopwords(listing) == frozenset({"foo", "bar"})


def test_load_stopwords_drops_byte_order_mark(tmp_path):
    listing = tmp_path / "stop.txt"
    listing.write_bytes("\ufeffFoo\nbar\n".encode("utf-8"))
    assert load_stopwords(listing) == frozenset({"foo", "bar"})


# -- PMI --------------------------------------------------------------------


def test_pmi_fixed_points():
    assert pmi(10, 100, 5, 1000) == pytest.approx(math.log2(20.0), abs=1e-12)
    assert pmi(5, 50, 100, 1000) == 0.0  # identical rates
    assert pmi(1, 100, 100, 1000) == pytest.approx(math.log2(0.1), abs=1e-12)


def test_pmi_errors():
    with pytest.raises(UndefinedMetricError):
        pmi(0, 100, 5, 1000)
    with pytest.raises(ValidationError):
        pmi(1, 0, 5, 1000)
    with pytest.raises(ValidationError):
        pmi(1, 100, 0, 1000)
    with pytest.raises(ValidationError):
        pmi(1, 100, 5, 0)
    with pytest.raises(ValidationError):
        pmi(-1, 100, 5, 1000)


# -- significance -----------------------------------------------------------


def _call(a: int, b: int, c: int, d: int, method: str = "g"):
    """Invoke significance() from the four 2x2 cells directly."""
    return significance(a, a + b, a + c, a + b + c + d, method=method)


def test_g_statistic_matches_oracle():
    for cells in [(30, 0, 0, 30), (12, 8, 25, 55), (3, 17, 40, 140), (1, 9, 9, 81)]:
        result = _call(*cells)
        assert not result.degenerate
        assert result.statistic == pytest.approx(g_statistic_oracle(*map(float, cells)), abs=1e-9)
        assert result.p_value == pytest.approx(chi2_sf_oracle(result.statistic), rel=1e-10)


def test_pearson_statistic_matches_closed_form():
    for a, b, c, d in [(12, 8, 25, 55), (3, 17, 40, 140)]:
        result = _call(a, b, c, d, method="pearson")
        n = a + b + c + d
        expected = n * (a * d - b * c) ** 2 / ((a + b) * (c + d) * (a + c) * (b + d))
        assert result.statistic == pytest.approx(expected, rel=1e-12)
        assert result.p_value == pytest.approx(chi2_sf_oracle(result.statistic), rel=1e-10)


def test_methods_disagree_on_skewed_tables():
    g = _call(12, 8, 25, 55, "g")
    pearson = _call(12, 8, 25, 55, "pearson")
    assert g.statistic != pearson.statistic


def test_independent_table_has_p_one():
    # observed equals expected exactly: (1,9),(9,81)
    result = _call(1, 9, 9, 81)
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert not result.degenerate


def test_p_value_decreases_with_overrepresentation():
    # group of 10 tokens out of 100, word has 10 corpus occurrences
    results = [significance(a, 10, 10, 100) for a in (2, 4, 6)]
    assert results[0].statistic < results[1].statistic < results[2].statistic
    assert results[0].p_value > results[1].p_value > results[2].p_value


def test_degenerate_zero_margins():
    whole_corpus_group = significance(5, 5, 5, 5)
    assert whole_corpus_group == (1.0, 0.0, True)
    word_everywhere = significance(5, 5, 10, 10)
    assert word_everywhere.degenerate and word_everywhere.p_value == 1.0
    absent_word = significance(0, 5, 0, 10)
    assert absent_word.degenerate


def test_significance_validations():
    with pytest.raises(ValidationError):
        significance(1, 10, 5, 100, method="fisher")
    with pytest.raises(ValidationError):
        significance(1, 0, 5, 100)
    with pytest.raises(ValidationError):
        significance(1, 200, 5, 100)  # group larger than corpus
    with pytest.raises(ValidationError):
        significance(11, 10, 50, 100)  # word count above group total
    with pytest.raises(ValidationError):
        significance(5, 10, 3, 100)  # corpus count below group count
    with pytest.raises(ValidationError):
        significance(5, 10, 101, 100)  # corpus count above corpus total
    with pytest.raises(ValidationError):
        significance(3, 50, 60, 100)  # complement would need 57 of 50 tokens


def test_word_stat_rejects_inconsistent_counts():
    with pytest.raises(ValidationError):
        WordGroupStat("wort", "g0", count_in_group=5, count_total=3, pmi=0.0, p_value=0.5)


# -- report assembly --------------------------------------------------------


def _comment(author: str, text: str) -> CommentRecord:
    return CommentRecord(author=author, timestamp=None, text=text)


def test_disjoint_vocabularies_rank_cleanly():
    part = partition_of(2, [0, 1])
    comments = [_comment("n0", "alpha " * 30), _comment("n1", "beta " * 30)]
    report = topic_report(comments, part, alpha=0.01)
    assert [g.label for g in report.groups] == ["g0", "g1"]
    (first,) = report.groups[0].words
    assert (first.word, first.count_in_group, first.count_total) == ("alpha", 30, 30)
    assert first.pmi == pytest.approx(1.0, abs=1e-12)
    assert first.p_value < 0.01
    (second,) = report.groups[1].words
    assert second.word == "beta"
    footer = report.groups[0]
    assert (footer.word_count, footer.comment_count, footer.user_count) == (30, 1, 1)


def test_single_group_has_no_significant_words():
    part = partition_of(2, [0, 0])
    report = topic_report([_comment("n0", "alpha beta alpha")], part)
    (group,) = report.groups
    assert group.words == ()  # group == corpus, every test is degenerate
    assert group.word_count == 3
    assert report.omitted == ()


def test_groups_without_comments_are_omitted():
    part = partition_of(3, [0, 1, 2])
    comments = [_comment("n0", "alpha " * 20), _comment("n1", "beta " * 20)]
    report = topic_report(comments, part, alpha=0.05)
    assert [g.label for g in report.groups] == ["g0", "g1"]
    assert report.omitted == ("g2",)


def test_tie_break_is_casefolded_alphabetical():
    part = partition_of(2, [0, 1])
    comments = [
        _comment("n0", ("Zeta " * 15) + ("alpha " * 15)),
        _comment("n1", "gamma " * 30),
    ]
    report = topic_report(comments, part, alpha=0.01)
    words = [s.word for s in report.groups[0].words]
    assert words == ["alpha", "Zeta"]  # equal PMI, 'alpha' < 'zeta' after folding
    pmis = [s.pmi for s in report.groups[0].words]
    assert pmis[0] == pmis[1]


def test_top_k_truncates_after_ranking():
    part = partition_of(2, [0, 1])
    comments = [
        _comment("n0", ("Zeta " * 15) + ("alpha " * 15)),
        _comment("n1", "gamma " * 30),
    ]
    report = topic_report(comments, part, alpha=0.01, top_k=1)
    assert [s.word for s in report.groups[0].words] == ["alpha"]
    assert report.top_k == 1


def test_surface_form_is_most_frequent_spelling():
    part = partition_of(2, [0, 1])
    comments = [
        _comment("n0", "NATO NATO nato " * 10),
        _comment("n1", "beta " * 30),
    ]
    report = topic_report(comments, part, alpha=0.01)
    (stat,) = report.groups[0].words
    assert stat.word == "NATO"
    assert stat.count_in_group == 30  # counting is case-folded


def test_surface_form_tie_prefers_lexicographic_min():
    part = partition_of(2, [0, 1])
    comments = [
        _comment("n0", "nato Nato " * 15),
        _comment("n1", "beta " * 30),
    ]
    report = topic_report(comments, part, alpha=0.01)
    assert report.groups[0].words[0].word == "Nato"


def test_stopwords_are_excluded_from_all_counts():
    part = partition_of(2, [0, 1])
    comments = [
        _comment("n0", "alpha und alpha " * 10),
        _comment("n1", "beta " * 20),
    ]
    report = topic_report(comments, part, stopwords={"und"}, alpha=0.05)
    assert report.groups[0].word_count == 20
    assert all(s.word != "und" for s in report.groups[0].words)


def test_report_method_switch_runs_pearson():
    part = partition_of(2, [0, 1])
    comments = [_comment("n0", "alpha " * 30), _comment("n1", "beta " * 30)]
    report = topic_report(comments, part, alpha=0.01, method="pearson")
    assert report.groups[0].words[0].word == "alpha"


def test_report_validations():
    part = partition_of(2, [0, 1])
    comments = [_comment("n0", "alpha"), _comment("n1", "beta")]
    with pytest.raises(ValidationError):
        topic_report([], part)
    with pytest.raises(ValidationError):
        topic_report(comments, part, top_k=0)
    with pytest.raises(ValidationError):
        topic_report(comments, part, alpha=0.0)
    with pytest.raises(ValidationError):
        topic_report(comments, part, alpha=1.5)
    with pytest.raises(ValidationError):
        topic_report([_comment("stranger", "hi there")], part)


# -- comment ingestion ------------------------------------------------------


def test_read_comments_roundtrip(tmp_path):
    path = tmp_path / "comments.csv"
    path.write_text(
        'author,date,text\n'
        'u1,2021-03-01,"Hello, wie geht\'s?"\n'
        'u2,,"multi\nline"\n'
        '\n'
        'u3,2021-03-02,plain\n',
        encoding="utf-8",
    )
    records = read_comments(path)
    assert [r.author for r in records] == ["u1", "u2", "u3"]
    assert records[0].timestamp.isoformat() == "2021-03-01"
    assert records[0].text == "Hello, wie geht's?"
    assert records[1].timestamp is None
    assert records[1].text == "multi\nline"


def test_read_comments_header_only_skipped_on_first_line(tmp_path):
    path = tmp_path / "comments.csv"
    path.write_text("u1,,hi\nauthor,date,text\n", encoding="utf-8")
    # line 2 is data, not a header: its literal "date" cell fails ISO parsing
    with pytest.raises(ParseError) as err:
        read_comments(path)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "body,line",
    [
        ("u1,2021-03-01\n", 1),  # two columns
        ("u1,03/01/2021,hi\n", 1),  # bad date format
        ("u1,2021-03-01,ok\n,2021-03-01,hi\n", 2),  # empty author
    ],
)
def test_read_comments_parse_errors(tmp_path, body, line):
    path = tmp_path / "comments.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_comments(path)
    assert err.value.path == str(path)
    assert err.value.line == line
    assert f"{path}:{line}: " in str(err.value)


def test_read_comments_empty_file(tmp_path):
    path = tmp_path / "comments.csv"
    path.write_text("author,date,text\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_comments(path)


def test_corpus_for_groups_drops_unlabeled_authors():
    part = Partition.from_assignment({"a": "g0", "b": "g1"})
    comments = [_comment("a", "x"), _comment("zz", "y"), _comment("b", "z")]
    kept = corpus_for_groups(comments, part)
    assert [r.author for r in kept] == ["a", "b"]
