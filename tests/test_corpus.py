import importlib.util
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdetect import corpus
from offdetect.corpus import (
    default_stopwords,
    load_label_csv,
    load_olid_tsv,
    normalize_social,
    tokenize_clean,
)
from offdetect.errors import DataError

THREE_ROW_TSV = (
    "id\ttweet\tsubtask_a\n"
    "t1\tyou are the worst\tOFF\n"
    "t2\tlovely weather today\tNOT\n"
    "t3\tget lost already\tOFF\n"
)


def make_tsv(rows):
    lines = ["id\ttweet\tsubtask_a"]
    lines += [f"{i}\t{text}\t{label}" for i, (text, label) in enumerate(rows)]
    return "\n".join(lines) + "\n"


class TestLoadOlidTsv:
    def test_three_row_fixture_counts(self):
        corpus = load_olid_tsv(THREE_ROW_TSV)
        assert corpus.label_counts() == {"OFF": 2, "NOT": 1}
        assert corpus.ids() == ["t1", "t2", "t3"]

    def test_header_only_gives_empty_corpus(self):
        corpus = load_olid_tsv("id\ttweet\tsubtask_a\n")
        assert len(corpus) == 0

    def test_full_scale_train_distribution(self):
        # 13,240 rows split 8,840 NOT / 4,400 OFF
        rows = [("some tweet", "NOT")] * 8840 + [("other tweet", "OFF")] * 4400
        corpus = load_olid_tsv(make_tsv(rows))
        assert len(corpus) == 13240
        assert corpus.label_counts() == {"NOT": 8840, "OFF": 4400}

    def test_byte_stream_input(self):
        corpus = load_olid_tsv(io.BytesIO(THREE_ROW_TSV.encode("utf-8")))
        assert len(corpus) == 3

    def test_malformed_row_names_line_number(self):
        bad = "id\ttweet\tsubtask_a\nt1\tok\tNOT\nt2\tmissing-label-column\n"
        with pytest.raises(DataError, match="line 3"):
            load_olid_tsv(bad)

    def test_unknown_label_rejected(self):
        with pytest.raises(DataError, match="MAYBE"):
            load_olid_tsv("id\ttweet\tsubtask_a\nt1\thm\tMAYBE\n")

    def test_duplicate_id_rejected(self):
        dup = "id\ttweet\tsubtask_a\nt1\ta\tNOT\nt1\tb\tOFF\n"
        with pytest.raises(DataError, match="duplicate id"):
            load_olid_tsv(dup)

    def test_missing_label_column_loads_unlabeled(self):
        corpus = load_olid_tsv("id\ttweet\nt1\thello there\n", split="test")
        assert corpus.records[0].label is None
        assert corpus.split == "test"

    def test_extra_subtask_columns_accepted(self):
        tsv = (
            "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
            '86426\t@USER She should ask a few native Americans what their take is.\tOFF\tUNT\tNULL\n'
            "90194\t@USER go home you're drunk!!!\tOFF\tTIN\tIND\n"
        )
        corpus = load_olid_tsv(tsv)
        assert corpus.label_counts() == {"OFF": 2, "NOT": 0}
        assert corpus.records[0].id == "86426"

    def test_label_csv_fills_and_overrides(self):
        tsv = "id\ttweet\tsubtask_a\nt1\ta\tNOT\nt2\tb\tNOT\n"
        corpus = load_olid_tsv(tsv, "t1,OFF\n")
        assert [rec.label for rec in corpus.records] == ["OFF", "NOT"]

    def test_label_csv_unknown_id_rejected(self):
        with pytest.raises(DataError, match="not present"):
            load_olid_tsv("id\ttweet\nt1\ta\n", "t9,OFF\n")

    def test_label_csv_parsing_errors(self):
        with pytest.raises(DataError, match="line 1"):
            load_label_csv("justonefield\n")
        with pytest.raises(DataError, match="duplicate"):
            load_label_csv("t1,OFF\nt1,NOT\n")
        with pytest.raises(DataError, match="unknown label"):
            load_label_csv("t1,BAD\n")

    @given(
        st.lists(
            st.tuples(st.text(alphabet="abc xyz", max_size=12), st.sampled_from(["OFF", "NOT"])),
            max_size=30,
        )
    )
    def test_order_and_count_preserved(self, rows):
        corpus = load_olid_tsv(make_tsv(rows))
        assert len(corpus) == len(rows)
        assert [rec.label for rec in corpus.records] == [label for _, label in rows]


class TestNormalizeSocial:
    def test_collapses_runs_and_urls(self):
        assert normalize_social("@a @b go #x #y www.z.com") == "@MENTION go #TAG URLS"

    def test_plain_text_unchanged(self):
        assert normalize_social("hello world") == "hello world"

    def test_url_schemes(self):
        assert normalize_social("see http://a.io/x") == "see URLS"
        assert normalize_social("see https://a.io/x?q=1") == "see URLS"
        assert normalize_social("see WWW.A.IO/x") == "see URLS"

    def test_separated_runs_stay_separate(self):
        assert normalize_social("#a and #b") == "#TAG and #TAG"

    def test_idempotent_on_random_tweets(self):
        tweets = _random_tweets(1000)
        for tweet in tweets:
            once = normalize_social(tweet)
            assert normalize_social(once) == once

    @settings(max_examples=300)
    @given(st.text(max_size=80))
    def test_idempotent_on_arbitrary_text(self, text):
        once = normalize_social(text)
        assert normalize_social(once) == once


def _random_tweets(count):
    # seeded mix of words, hashtags, mentions, urls, punctuation
    import random

    rng = random.Random(1234)
    pieces = [
        "hello", "world", "so", "fun", "#tag1", "#b", "@user", "@x9",
        "www.site.org/a", "http://t.co/q", "https://x.yz", "!!", "123", "?",
        "#TAG", "@MENTION", "URLS",
    ]
    tweets = []
    for _ in range(count):
        tweets.append(" ".join(rng.choice(pieces) for _ in range(rng.randint(0, 10))))
    return tweets


class TestTokenizeClean:
    def test_spec_sentence(self, stopwords):
        assert tokenize_clean("Check http://t.co/x NOW!! 123 #lol", stopwords) == ["check"]

    def test_empty_input(self, stopwords):
        assert tokenize_clean("", stopwords) == []

    def test_all_stopwords(self, stopwords):
        assert tokenize_clean("The the THE", stopwords) == []

    def test_mentions_hashtags_numbers_stripped(self, stopwords):
        got = tokenize_clean("@you totally #rocked 99 problems, friend-o!", stopwords)
        assert got == ["totally", "problems", "friend"]

    def test_internal_apostrophes_kept(self, stopwords):
        assert tokenize_clean("y'all can't stop winners", stopwords) == ["y'all", "can't", "stop", "winners"]

    def test_order_preserved(self, stopwords):
        assert tokenize_clean("zebra apple zebra", stopwords) == ["zebra", "apple", "zebra"]

    @settings(max_examples=300)
    @given(st.text(max_size=80))
    def test_charset_invariant(self, text):
        stopwords = default_stopwords()
        for token in tokenize_clean(text, stopwords):
            assert token not in stopwords
            assert token == token.lower()
            assert all(ch == "'" or (ch.isalpha() and not ch.isupper()) for ch in token)

    @settings(max_examples=500)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    ["a", "Z", "'", "''", "don't", "9", "_", "\u00b2", "\u00bd", "\u216b",
                     "\U0001d400", "\u0301", "\U0001f600", "\u0130", "\u01c5", "\u00e9",
                     " ", "-", "@u", "#t", "http://x.y"]
                ),
                st.characters(),
            ),
            max_size=40,
        ).map("".join)
    )
    def test_matches_per_character_reference(self, text):
        # the reference: per-character letter runs over the whole lowercased
        # text, then the stopword filter
        stopwords = default_stopwords()
        cleaned = text
        for pattern in (corpus._URL_RE, corpus._MENTION_STRIP_RE, corpus._HASHTAG_STRIP_RE):
            cleaned = pattern.sub(" ", cleaned)
        expected = [tok for tok in corpus._letter_runs(cleaned.lower()) if tok not in stopwords]
        assert tokenize_clean(text, stopwords) == expected


def test_shipped_stopword_list_has_179_entries():
    words = default_stopwords()
    assert len(words) == 179
    assert "now" in words and "the" in words and "off" in words


def test_mini_corpus_regenerates_byte_for_byte(tmp_path, mini_dir):
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_mini_corpus.py"
    spec = importlib.util.spec_from_file_location("make_mini_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.write_corpus(tmp_path)
    names = sorted(path.name for path in mini_dir.iterdir())
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    assert len(names) == 5
    for name in names:
        assert (tmp_path / name).read_bytes() == (mini_dir / name).read_bytes(), name
