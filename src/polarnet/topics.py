"""PMI topic characterization of comment groups.

Each group's vocabulary is compared against the whole corpus: a word with a
higher in-group rate than corpus rate gets positive pointwise mutual
information.  Words whose rate difference is not significant under a
one-degree-of-freedom likelihood-ratio test (G-test; Pearson's chi-square
available as a switch) are filtered out before ranking.

Counting is case-folded; the reported surface form is the most frequent
spelling.  Probabilities are token frequencies, not document frequencies.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date
from importlib import resources
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import ParseError, UndefinedMetricError, ValidationError
from .network import Partition, parse_date, read_table, read_text

SIGNIFICANCE_METHODS = ("g", "pearson")

_WORD_RE = re.compile(r"\w+", re.UNICODE)

_BUNDLED_STOPWORDS = "german_stopwords.txt"


@dataclass(frozen=True)
class CommentRecord:
    """One comment: who wrote it, when, and the raw text."""

    author: str
    timestamp: date | None
    text: str


class SignificanceResult(NamedTuple):
    """Two-sided p-value with the test statistic behind it.

    ``degenerate`` marks tables with a zero margin (for instance a group
    that is the whole corpus), where the test carries no information and
    p is 1 by convention.
    """

    p_value: float
    statistic: float
    degenerate: bool


@dataclass(frozen=True)
class WordGroupStat:
    """Per-word, per-group association statistics."""

    word: str
    group: str
    count_in_group: int
    count_total: int
    pmi: float
    p_value: float

    def __post_init__(self) -> None:
        if self.count_in_group > self.count_total:
            raise ValidationError(
                f"word {self.word!r}: in-group count {self.count_in_group} exceeds "
                f"corpus count {self.count_total}"
            )


@dataclass(frozen=True)
class GroupTopics:
    """Ranked significant words plus corpus-size footer counts for one group."""

    label: str
    words: tuple[WordGroupStat, ...]
    word_count: int
    comment_count: int
    user_count: int


@dataclass(frozen=True)
class TopicReport:
    """Topic words per group, in partition label order.

    Groups without any comments are omitted from ``groups`` and listed in
    ``omitted`` instead.
    """

    groups: tuple[GroupTopics, ...]
    omitted: tuple[str, ...]
    alpha: float
    top_k: int


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Read a stopword list, one word per line, case-folded.

    Without a path the bundled German list is used.  Blank lines and lines
    starting with ``#`` are skipped.
    """
    if path is None:
        text = (resources.files("polarnet") / "data" / _BUNDLED_STOPWORDS).read_text("utf-8")
    else:
        text = read_text(path)
    words = set()
    for raw in text.splitlines():
        word = raw.strip()
        if word and not word.startswith("#"):
            words.add(word.casefold())
    return frozenset(words)


def tokenize(text: str, stopwords: frozenset[str] | set[str] = frozenset()) -> list[str]:
    """Split text into word tokens, dropping stopwords and one-character tokens.

    Splitting is Unicode-aware (``\\w+`` runs).  The returned tokens keep
    their original case; stopword membership is checked on the case-folded
    form.  Duplicates are kept -- tokens form a multiset.
    """
    out = []
    for token in _WORD_RE.findall(text):
        if len(token) < 2:
            continue
        if token.casefold() in stopwords:
            continue
        out.append(token)
    return out


def pmi(
    count_in_group: int,
    group_total: int,
    count_global: int,
    global_total: int,
) -> float:
    """log2 of the in-group rate over the corpus rate.

    Zero when the rates match; positive when the word is overrepresented in
    the group.  Undefined for a word the group never uses.  The counts are
    taken at face value as two rates; consistency between them (group as a
    subset of the corpus) is the caller's business.
    """
    if group_total <= 0 or global_total <= 0 or count_global <= 0:
        raise ValidationError("token totals must be positive")
    if count_in_group < 0:
        raise ValidationError("counts must be nonnegative")
    if count_in_group == 0:
        raise UndefinedMetricError("PMI undefined for a word absent from the group")
    return math.log2((count_in_group / group_total) / (count_global / global_total))


def significance(
    count_in_group: int,
    group_total: int,
    count_global: int,
    global_total: int,
    *,
    method: str = "g",
) -> SignificanceResult:
    """Two-sided test of the in-group word rate against the rest of the corpus.

    The 2x2 table pits (word, other words) against (group, complement).  The
    default statistic is the likelihood-ratio G; ``method="pearson"``
    switches to Pearson's chi-square.  Both use the chi-square reference with
    one degree of freedom.  A zero margin (empty complement, word everywhere,
    ...) makes the test vacuous: p = 1 with the degenerate flag set.
    """
    if method not in SIGNIFICANCE_METHODS:
        raise ValidationError(f"unknown significance method {method!r}")
    if group_total <= 0 or global_total <= 0:
        raise ValidationError("token totals must be positive")
    if group_total > global_total:
        raise ValidationError("group total exceeds corpus total")
    if not 0 <= count_in_group <= group_total:
        raise ValidationError("in-group count outside [0, group_total]")
    if not count_in_group <= count_global <= global_total:
        raise ValidationError("corpus count outside [count_in_group, global_total]")
    if count_global - count_in_group > global_total - group_total:
        raise ValidationError("complement word count exceeds complement total")
    observed = (
        float(count_in_group),
        float(group_total - count_in_group),
        float(count_global - count_in_group),
        float(global_total - group_total - (count_global - count_in_group)),
    )
    row = (observed[0] + observed[1], observed[2] + observed[3])
    col = (observed[0] + observed[2], observed[1] + observed[3])
    if min(row) == 0.0 or min(col) == 0.0:
        return SignificanceResult(1.0, 0.0, True)
    total = float(global_total)
    stat = 0.0
    for cell, r, c in zip(observed, (0, 0, 1, 1), (0, 1, 0, 1)):
        expected = row[r] * col[c] / total
        if method == "g":
            if cell > 0.0:
                stat += 2.0 * cell * math.log(cell / expected)
        else:
            stat += (cell - expected) ** 2 / expected
    # Loaded on first call, so that starting the CLI loads no scipy submodule.
    from scipy.special import chdtrc

    stat = max(stat, 0.0)
    return SignificanceResult(float(chdtrc(1, stat)), stat, False)


def topic_report(
    comments: Sequence[CommentRecord],
    partition: Partition,
    *,
    stopwords: frozenset[str] | set[str] = frozenset(),
    top_k: int = 20,
    alpha: float = 0.01,
    method: str = "g",
) -> TopicReport:
    """Rank each group's significantly overrepresented words by PMI.

    Every comment is tokenized and attributed to its author's group.  Words
    the group uses at a rate significantly above the corpus rate (p < alpha)
    are ranked by descending PMI, ties broken by the case-folded word, and
    truncated to ``top_k``.  Groups with no comments are omitted and listed
    separately.  Authors must carry a group label.
    """
    if not comments:
        raise ValidationError("comment corpus is empty")
    if top_k < 1:
        raise ValidationError("top_k must be at least 1")
    if not 0.0 < alpha <= 1.0:
        raise ValidationError("alpha must be in (0, 1]")
    group_counts: dict[str, dict[str, int]] = {label: {} for label in partition.labels}
    global_counts: dict[str, int] = {}
    surface: dict[str, dict[str, int]] = {}
    comment_count: dict[str, int] = {label: 0 for label in partition.labels}
    users: dict[str, set[str]] = {label: set() for label in partition.labels}
    index, codes = partition.index, partition.codes.tolist()
    for record in comments:
        if record.author not in index:
            raise ValidationError(f"comment author {record.author!r} has no group label")
        label = partition.labels[codes[index[record.author]]]
        comment_count[label] += 1
        users[label].add(record.author)
        counts = group_counts[label]
        for token in tokenize(record.text, stopwords):
            key = token.casefold()
            counts[key] = counts.get(key, 0) + 1
            global_counts[key] = global_counts.get(key, 0) + 1
            forms = surface.setdefault(key, {})
            forms[token] = forms.get(token, 0) + 1
    global_total = sum(global_counts.values())
    display = {
        key: min(forms, key=lambda form: (-forms[form], form))
        for key, forms in surface.items()
    }
    groups = []
    omitted = []
    for label in partition.labels:
        if comment_count[label] == 0:
            omitted.append(label)
            continue
        counts = group_counts[label]
        group_total = sum(counts.values())
        stats = []
        if group_total > 0:
            for key in counts:
                score = pmi(counts[key], group_total, global_counts[key], global_total)
                test = significance(
                    counts[key], group_total, global_counts[key], global_total, method=method
                )
                if test.p_value < alpha:
                    stats.append(
                        WordGroupStat(
                            word=display[key],
                            group=label,
                            count_in_group=counts[key],
                            count_total=global_counts[key],
                            pmi=score,
                            p_value=test.p_value,
                        )
                    )
        stats.sort(key=lambda s: (-s.pmi, s.word.casefold()))
        groups.append(
            GroupTopics(
                label=label,
                words=tuple(stats[:top_k]),
                word_count=group_total,
                comment_count=comment_count[label],
                user_count=len(users[label]),
            )
        )
    return TopicReport(tuple(groups), tuple(omitted), alpha, top_k)


def read_comments(path: str | Path) -> list[CommentRecord]:
    """Read a comments CSV with columns author, date, text.

    A header row spelling exactly those names is skipped.  The date column
    may be empty; otherwise it must be ISO formatted.  Text cells may be
    quoted and contain commas or newlines.
    """
    records = []
    for line, (author, datecell, text) in read_table(path, ("author", "date", "text")):
        author, datecell = author.strip(), datecell.strip()
        if not author:
            raise ParseError("empty author", path=str(path), line=line)
        when = parse_date(datecell, path, line) if datecell else None
        records.append(CommentRecord(author=author, timestamp=when, text=text))
    if not records:
        raise ParseError("no comments found", path=str(path), line=1)
    return records


def corpus_for_groups(
    comments: Iterable[CommentRecord], partition: Partition
) -> list[CommentRecord]:
    """Keep only comments whose author has a label in the partition."""
    return [record for record in comments if record.author in partition.index]
