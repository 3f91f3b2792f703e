import gc
import importlib.util
import io
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdetect import corpus
from offdetect.corpus import (
    LABELS,
    LabeledCorpus,
    default_stopwords,
    load_label_csv,
    load_olid_tsv,
    load_stopwords,
    text_lines,
    tokenize_clean,
)
from offdetect.embed import VectorTable, load_precomputed, load_vec_table
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


def label_counts(corpus):
    return {label: sum(rec.label == label for rec in corpus.records) for label in LABELS}


class TestLoadOlidTsv:
    def test_three_row_fixture_counts(self):
        corpus = load_olid_tsv(THREE_ROW_TSV)
        assert label_counts(corpus) == {"OFF": 2, "NOT": 1}
        assert corpus.ids() == ["t1", "t2", "t3"]

    def test_header_only_gives_empty_corpus(self):
        corpus = load_olid_tsv("id\ttweet\tsubtask_a\n")
        assert len(corpus) == 0

    def test_full_scale_train_distribution(self):
        # 13,240 rows split 8,840 NOT / 4,400 OFF
        rows = [("some tweet", "NOT")] * 8840 + [("other tweet", "OFF")] * 4400
        corpus = load_olid_tsv(make_tsv(rows))
        assert len(corpus) == 13240
        assert label_counts(corpus) == {"NOT": 8840, "OFF": 4400}

    def test_byte_stream_input(self):
        corpus = load_olid_tsv(io.BytesIO(THREE_ROW_TSV.encode("utf-8")))
        assert len(corpus) == 3

    def test_bytes_read_as_their_byte_stream(self):
        # CRLF and a lone CR end lines as they do in a file the CLI opens,
        # in a str too
        text = "id\ttweet\tsubtask_a\r\nt1\ta\tNOT\rt2\tb\tOFF\n"
        data = text.encode("utf-8")
        for source in (text, data, io.BytesIO(data)):
            corpus = load_olid_tsv(source, b"t2,NOT\r\n")
            assert [(rec.id, rec.label) for rec in corpus.records] == [("t1", "NOT"), ("t2", "NOT")]

    def test_errors_name_the_split(self):
        dup = "id\ttweet\nt1\ta\nt1\tb\n"
        with pytest.raises(DataError, match="^test tweet tsv line 3: duplicate id 't1'$"):
            load_olid_tsv(dup, split="test")
        with pytest.raises(DataError, match="^train tweet tsv header: missing column 'tweet'$"):
            load_olid_tsv("id\ttext\n")
        with pytest.raises(DataError, match="^train tweet tsv line 2: not UTF-8 text$"):
            load_olid_tsv(b"id\ttweet\n\xff\ta\n")

    def test_tweet_longer_than_the_csv_field_limit_loads(self):
        text = "a" * 200_000
        assert load_olid_tsv(f"id\ttweet\nt1\t{text}\n").records[0].text == text

    def test_byte_streams_stay_open_and_leave_no_wrapper(self, mini_dir):
        # reading neither closes the caller's files nor leaves a wrapper
        # over them unclosed for the collector
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with open(mini_dir / "test.tsv", "rb") as fh, open(
                mini_dir / "test_labels.csv", "rb"
            ) as label_fh:
                corpus = load_olid_tsv(fh, label_fh, split="test")
                assert not fh.closed and not label_fh.closed
            with open(mini_dir / "train.tsv", "rb") as fh:
                load_olid_tsv(fh)
            gc.collect()
        assert len(corpus) == 60
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

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
        assert label_counts(corpus) == {"OFF": 2, "NOT": 0}
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


# Lines for the reader's property test: rows of every input format, blank
# ones, and characters that str.splitlines (but not the one rule) breaks at.
_LINES = [
    "id\ttweet\tsubtask_a",
    "t1\tyou are\vthe worst\tOFF",
    "t2\tlovely\x85day\tNOT",
    "t3\tget\u2028lost\tOFF",
    "t1,OFF",
    "t3,NOT",
    "2 2",
    "you 0.5 -1",
    "the\x1cend 1e3 2",
    "t1 0.25 4",
    "t2\f 1 2",
    "",
    " \f ",
    "lovely",
]

# the same text as a str, bytes, text streams and a byte stream
_KINDS = {
    "str": lambda text: text,
    "bytes": lambda text: text.encode("utf-8"),
    "text stream": io.StringIO,
    "decoding text stream": lambda text: io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8"),
    "byte stream": lambda text: io.BytesIO(text.encode("utf-8")),
}


def _outcome(load, source):
    try:
        result = load(source)
    except DataError as exc:
        return str(exc)
    if isinstance(result, VectorTable):
        return result.index, result.matrix.shape, result.matrix.tobytes()
    if isinstance(result, LabeledCorpus):
        return result.records
    return result


class TestTextLines:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(_LINES), st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
        st.booleans(),
    )
    def test_every_kind_reads_alike(self, lines, last_break):
        text = "".join(line + end for line, end in lines)
        if lines and not last_break:
            text = text[: -len(lines[-1][1])]
        # the one rule is the one bytes.splitlines keeps
        expected = [(i, raw.decode("utf-8")) for i, raw in enumerate(text.encode("utf-8").splitlines(), 1)]
        loaders = [
            lambda source: list(text_lines(source, "text")),
            load_vec_table,
            load_precomputed,
            load_olid_tsv,
            load_label_csv,
            load_stopwords,
        ]
        for load in loaders:
            outcomes = {kind: _outcome(load, make(text)) for kind, make in _KINDS.items()}
            assert list(outcomes.values()) == [outcomes["bytes"]] * len(_KINDS), outcomes
        assert _outcome(loaders[0], text) == expected

    @pytest.mark.parametrize(
        "load, data, what",
        [
            (load_vec_table, b"1 1\nw 0.5\n\xff 1\n", "vec file"),
            (load_olid_tsv, b"id\ttweet\nt1\ta\n\xff\tb\n", "train tweet tsv"),
        ],
    )
    def test_bad_byte_in_a_text_stream_or_str_names_the_input(self, load, data, what):
        # a text stream decodes a block at a time, and a str (here holding the
        # byte as a lone surrogate) is encoded whole: the error names no line
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        for source in (stream, data.decode("utf-8", "surrogateescape")):
            with pytest.raises(DataError, match=f"^{what}: not UTF-8 text$"):
                load(source)
        with pytest.raises(DataError, match=f"^{what} line 3: not UTF-8 text$"):
            load(io.BytesIO(data))


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
