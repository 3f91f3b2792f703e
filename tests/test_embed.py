import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdetect import embed
from offdetect.corpus import LabeledCorpus, TweetRecord
from offdetect.embed import (
    VectorTable,
    average_embedding,
    load_precomputed,
    load_vec_table,
    token_matrix,
)
from offdetect.errors import DataError
from offdetect.experiment import FeaturePipeline

MINI_VEC = "2 3\na 1 2 3\nb 4 5 6\n"


def small_table():
    return VectorTable(
        matrix=np.array([
            [1.0, 2.0, 3.0],
            [3.0, 2.0, 1.0],
            [-1.0, 0.0, 5.0],
            [2.5, -2.0, 0.5],
            [0.0, 7.0, -3.0],
        ]),
        index={"a": 0, "b": 1, "c": 2, "d": 3, "e": 4},
    )


def vector(table, token):
    return table.matrix[table.index[token]]


def precomputed_features(table, ids):
    """The precomputed-feature rows of tweets with these ids."""
    corpus = LabeledCorpus(records=[TweetRecord(id=i, text="x", label=None) for i in ids])
    return FeaturePipeline(kind="precomputed", table=table).featurize(corpus)


class TestLoadVecTable:
    def test_minimal_file(self):
        table = load_vec_table(MINI_VEC)
        assert table.dim == 3
        assert len(table) == 2
        np.testing.assert_array_equal(vector(table, "a"), [1.0, 2.0, 3.0])

    def test_vocab_filter(self):
        table = load_vec_table(MINI_VEC, vocab_filter={"a"})
        assert len(table) == 1 and "a" in table

    def test_short_row_names_line(self):
        bad = "3 3\na 1 2 3\nb 4 5 6\nc 1 2\n"
        with pytest.raises(DataError, match="line 4"):
            load_vec_table(bad)

    def test_non_numeric_value(self):
        with pytest.raises(DataError, match="non-numeric"):
            load_vec_table("1 2\na 1 oops\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_names_line(self, value):
        with pytest.raises(DataError, match="line 3: non-finite"):
            load_vec_table(f"2 2\na 1 2\nb 1 {value}\n")

    def test_non_finite_value_in_filtered_row_is_not_read(self):
        table = load_vec_table("2 2\na 1 2\nb 1 nan\n", vocab_filter={"a"})
        assert len(table) == 1

    def test_duplicate_token_keeps_last_row(self):
        table = load_vec_table("2 2\na 1 2\na 3 4\n")
        assert len(table) == 1
        np.testing.assert_array_equal(vector(table, "a"), [3.0, 4.0])

    def test_rows_are_an_intp_array_of_the_in_vocabulary_tokens(self):
        table = small_table()
        for tokens, expected in [(["e", "nope", "a", "e"], [4, 0, 4]), (["nope"], []), ([], [])]:
            rows = table.rows(tokens)
            assert rows.dtype == np.intp and rows.shape == (len(expected),)
            assert rows.tolist() == expected

    def test_bad_header(self):
        with pytest.raises(DataError, match="line 1"):
            load_vec_table("not a header at all\n")

    def test_reads_byte_stream(self):
        table = load_vec_table(io.BytesIO(MINI_VEC.encode("utf-8")))
        assert len(table) == 2

    @pytest.mark.parametrize("dim", [embed._MAX_VEC_DIM + 1, 1 << 40, 1 << 63])
    def test_header_dim_past_one_row_item_is_data_error(self, dim):
        # numpy's one-row item would be larger than a C int holds
        expected = f"^vec file line 1: dimension must be at most {embed._MAX_VEC_DIM}, got {dim}$"
        with pytest.raises(DataError, match=expected):
            load_vec_table(f"1 {dim}\na 1\n")

    def test_widest_header_dim_is_checked_against_its_rows(self):
        with pytest.raises(DataError, match=f"^vec file line 2: expected {embed._MAX_VEC_DIM} values"):
            load_vec_table(f"1 {embed._MAX_VEC_DIM}\na 1\n")

    @pytest.mark.parametrize("text", ["1 100000000", "1 3\n", "2 3\n\n \n"])
    def test_header_promising_vectors_with_no_vector_line_is_data_error(self, text):
        expected = "^vec file line 1: header declares .* vector\\(s\\), but no vector line follows$"
        with pytest.raises(DataError, match=expected):
            load_vec_table(text)


def block(table, *tweets):
    """The (G, L) row block of tweets (token lists) of equal in-vocabulary
    length, as featurize builds it."""
    return np.array([table.rows(tokens) for tokens in tweets], dtype=np.intp)


class TestAverageEmbedding:
    def test_two_point_mean(self):
        table = small_table()
        got = average_embedding(block(table, ["a", "b"]), table)
        np.testing.assert_allclose(got, [[2.0, 2.0, 2.0]])

    def test_all_oov_gives_zero_vector(self):
        table = small_table()
        got = average_embedding(block(table, ["nope", "nada"], []), table)
        np.testing.assert_array_equal(got, np.zeros((2, 3)))

    def test_against_bruteforce_column_mean(self):
        table = small_table()
        tokens = ["a", "b", "c", "d", "e"]
        # independent scalar-loop mean
        expected = [0.0, 0.0, 0.0]
        for tok in tokens:
            for j in range(3):
                expected[j] += float(vector(table, tok)[j])
        expected = [v / len(tokens) for v in expected]
        got = average_embedding(block(table, tokens), table)
        np.testing.assert_allclose(got, [expected], atol=1e-12)

    def test_oov_tokens_skipped_in_mean(self):
        table = small_table()
        with_oov = average_embedding(block(table, ["a", "zzz", "b"]), table)
        without = average_embedding(block(table, ["a", "b"]), table)
        np.testing.assert_allclose(with_oov, without)

    @given(st.permutations(["a", "b", "c", "d", "e"]))
    def test_permutation_invariance(self, tokens):
        table = small_table()
        base = average_embedding(block(table, ["a", "b", "c", "d", "e"]), table)
        got = average_embedding(block(table, list(tokens)), table)
        np.testing.assert_allclose(got, base, atol=1e-12)

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "oov"]), max_size=12))
    def test_inf_norm_bounded_by_used_columns(self, tokens):
        table = small_table()
        used = [vector(table, t) for t in tokens if t in table]
        got = average_embedding(block(table, tokens), table)
        if not used:
            assert np.all(got == 0.0)
        else:
            bound = max(np.max(np.abs(v)) for v in used)
            assert np.max(np.abs(got)) <= bound + 1e-12

    @settings(max_examples=50)
    @given(
        st.integers(1, 6),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    )
    def test_each_row_has_the_bits_of_its_own_mean(self, tweets, length, seed):
        rng = np.random.default_rng(seed)
        table = VectorTable(matrix=rng.normal(size=(7, 5)), index={})
        rows = rng.integers(0, 7, size=(tweets, length))
        got = average_embedding(rows, table)
        expected = np.array([table.matrix[r].mean(axis=0) for r in rows])
        assert np.array_equal(got, expected)


class TestTokenMatrix:
    def test_lookup_in_order_with_repeats(self):
        table = small_table()
        seq = token_matrix(block(table, ["a", "b", "a"], ["c", "a", "c"]), table)
        assert seq.shape == (2, 3, 3) and seq.flags.c_contiguous
        np.testing.assert_array_equal(seq[0][:, 0], vector(table, "a"))
        np.testing.assert_array_equal(seq[0][:, 1], vector(table, "b"))
        np.testing.assert_array_equal(seq[0][:, 2], vector(table, "a"))
        np.testing.assert_array_equal(seq[1][:, 0], vector(table, "c"))
        np.testing.assert_array_equal(seq[1][:, 1], vector(table, "a"))

    def test_empty_tokens_give_zero_columns(self):
        table = small_table()
        seq = token_matrix(block(table, []), table)
        assert seq.shape == (1, 3, 0)

    def test_oov_skipped(self):
        table = small_table()
        seq = token_matrix(block(table, ["a", "nothere", "b"]), table)
        assert seq.shape[2] == 2
        np.testing.assert_array_equal(seq[0][:, 1], vector(table, "b"))

    @given(st.lists(st.sampled_from(["a", "b", "c", "oov1", "oov2"]), max_size=15))
    def test_column_count_equals_in_vocab_tokens(self, tokens):
        table = small_table()
        seq = token_matrix(block(table, tokens), table)
        assert seq.shape[2] == sum(1 for t in tokens if t in table)


class TestLoadPrecomputed:
    def test_512_dim_rows(self):
        rng = np.random.default_rng(0)
        lines = []
        for tweet_id in ("101", "102"):
            values = rng.normal(size=512)
            lines.append(tweet_id + " " + " ".join(repr(float(v)) for v in values))
        table = load_precomputed("\n".join(lines) + "\n")
        assert table.dim == 512
        assert len(table) == 2

    def test_empty_file_then_query_errors(self):
        table = load_precomputed("")
        assert len(table) == 0 and table.matrix.shape == (0, 0)
        with pytest.raises(DataError, match="no vector"):
            precomputed_features(table, ["t1"])

    def test_inconsistent_dim_names_line(self):
        lines = ["a " + " ".join(["0.5"] * 512), "b " + " ".join(["0.5"] * 511)]
        with pytest.raises(DataError, match="line 2"):
            load_precomputed("\n".join(lines))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_names_line(self, value):
        with pytest.raises(DataError, match="line 2: non-finite"):
            load_precomputed(f"a 1 2\nb {value} 2\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            load_precomputed("a 1 2\na 3 4\n")

    def test_missing_id_lookup_names_id(self):
        table = load_precomputed("a 1 2\n")
        with pytest.raises(DataError, match="'b'"):
            precomputed_features(table, ["a", "b", "c"])


# --- block parsing against the line-by-line parse -------------------------
#
# The references below are the loaders as they were before rows were parsed
# in blocks: one float() per value, every check in file order.


def _reference_lines(source):
    # every kind by one rule: a line ends at "\n", "\r\n" or a lone "\r"
    if not isinstance(source, (str, bytes)):
        source = source.read()
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _reference_row(fields, where):
    try:
        vec = np.array([float(value) for value in fields], dtype=np.float64)
    except ValueError:
        raise DataError(f"{where}: non-numeric value") from None
    if not np.isfinite(vec).all():
        raise DataError(f"{where}: non-finite value")
    return vec


def _reference_vec_table(source, vocab_filter=None):
    lines = iter(_reference_lines(source))
    dim = int(next(lines).split()[1])
    tokens, rows = [], []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split(" ")
        if fields and fields[-1] == "":
            fields = fields[:-1]
        if len(fields) - 1 != dim:
            raise DataError(f"vec file line {lineno}: expected {dim} values, got {len(fields) - 1}")
        if vocab_filter is not None and fields[0] not in vocab_filter:
            continue
        rows.append(_reference_row(fields[1:], f"vec file line {lineno}"))
        tokens.append(fields[0])
    return {tok: i for i, tok in enumerate(tokens)}, np.array(rows).reshape(len(rows), dim)


def _reference_precomputed(source):
    vectors, dim = {}, None
    for lineno, line in enumerate(_reference_lines(source), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 2:
            raise DataError(f"precomputed file line {lineno}: expected 'id v1 ... v_dim'")
        if fields[0] in vectors:
            raise DataError(f"precomputed file line {lineno}: duplicate id {fields[0]!r}")
        if dim is None:
            dim = len(fields) - 1
        elif len(fields) - 1 != dim:
            raise DataError(
                f"precomputed file line {lineno}: expected {dim} values, got {len(fields) - 1}"
            )
        vectors[fields[0]] = _reference_row(fields[1:], f"precomputed file line {lineno}")
    return vectors, dim


def _vec_outcome(load, source, vocab_filter):
    try:
        result = load(source, vocab_filter)
    except DataError as exc:
        return str(exc)
    if isinstance(result, VectorTable):
        return result.index, result.matrix.shape, result.matrix.tobytes()
    index, matrix = result
    return index, matrix.shape, matrix.tobytes()


def _precomputed_outcome(load, source):
    try:
        result = load(source)
    except DataError as exc:
        return str(exc)
    if isinstance(result, VectorTable):
        dim = result.dim if len(result) else None
        return dim, list(result.index), [result.matrix[i].tobytes() for i in result.index.values()]
    vectors, dim = result
    return dim, list(vectors), [vec.tobytes() for vec in vectors.values()]


# values float() refuses, non-finite ones, and ones that float() accepts but
# numpy's C parser refuses (marked *), which send their block to the fallback
_VALUE_EDITS = [
    "x",  # non-numeric
    "",  # empty field
    "0x1",  # non-numeric
    "nan",
    "-inf",
    "1e400",  # overflows to inf
    "1_0",  # *
    "١٢",  # * Arabic-Indic digits
    "+.5",
    "2\t",
    "1\t2",  # one field to str.split(" "), two to a whitespace split
    "\r",  # a lone CR: a line break in every kind of source
]
_ROW_EDITS = ["short", "long", "dup", "blank", "crlf", "trailing space", "tab", "double space"]


def _random_table(data, kind):
    """Lines of a random table with a few random edits: bad or unusual values
    and row-level damage, placed anywhere, so across block boundaries too."""
    block = embed._BLOCK_ROWS
    n_rows = data.draw(st.integers(0, 2 * block + 8), label="rows")
    dim = data.draw(st.integers(1, 3), label="dim")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    rows = [[repr(float(v)) for v in rng.normal(size=dim)] for _ in range(n_rows)]
    ids = [f"w{i}" for i in range(n_rows)]
    ends = ["\n"] * n_rows
    prefix = [""] * n_rows
    seps = [" "] * n_rows
    if n_rows:
        where = st.integers(0, n_rows - 1)
        for _ in range(data.draw(st.integers(0, 3), label="value edits")):
            i = data.draw(where)
            rows[i][data.draw(st.integers(0, dim - 1))] = data.draw(st.sampled_from(_VALUE_EDITS))
        for _ in range(data.draw(st.integers(0, 3), label="row edits")):
            i, edit = data.draw(where), data.draw(st.sampled_from(_ROW_EDITS))
            if edit == "short":
                rows[i] = rows[i][:-1]
            elif edit == "long":
                rows[i] = rows[i] + ["1.0"]
            elif edit == "dup":
                ids[i] = ids[data.draw(st.integers(0, i))]
            elif edit == "blank":
                prefix[i] = " \n"
            elif edit == "crlf":
                ends[i] = "\r\n"
            elif edit == "trailing space":
                ends[i] = " " + ends[i]
            else:
                seps[i] = "\t" if edit == "tab" else "  "
    lines = [prefix[i] + seps[i].join([ids[i], *rows[i]]) + ends[i] for i in range(n_rows)]
    header = [f"{n_rows} {dim}\n"] if kind == "vec" else []
    return "".join(header + lines), ids


# the text itself, its bytes, a text stream and a byte stream
_SOURCES = [
    lambda text: text,
    lambda text: text.encode("utf-8"),
    io.StringIO,
    lambda text: io.BytesIO(text.encode("utf-8")),
]


class TestBlockParsing:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_vec_table_matches_line_by_line_parse(self, data):
        text, ids = _random_table(data, "vec")
        keep = data.draw(st.none() | st.sets(st.sampled_from(ids))) if ids else None
        for source in _SOURCES:
            got = _vec_outcome(load_vec_table, source(text), keep)
            assert got == _vec_outcome(_reference_vec_table, source(text), keep)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_precomputed_matches_line_by_line_parse(self, data):
        text, _ = _random_table(data, "precomputed")
        for source in _SOURCES:
            got = _precomputed_outcome(load_precomputed, source(text))
            assert got == _precomputed_outcome(_reference_precomputed, source(text))

    @pytest.mark.parametrize("value", _VALUE_EDITS)
    def test_one_row_table_matches_line_by_line_parse(self, value):
        # a block of one row: nothing else in it makes the C parser refuse
        for row in ([value], ["0.5", value, "-1"], [value, "", "3"]):
            line = " ".join(["w", *row]) + "\n"
            vec = f"1 {len(row)}\n" + line
            for source in _SOURCES:
                got = _vec_outcome(load_vec_table, source(vec), None)
                assert got == _vec_outcome(_reference_vec_table, source(vec), None)
                got = _precomputed_outcome(load_precomputed, source(line))
                assert got == _precomputed_outcome(_reference_precomputed, source(line))

    def test_width_change_at_block_start_names_line(self):
        # every row of the second block is one value wider than the first row
        block = embed._BLOCK_ROWS
        body = "".join(f"w{i} 1 2\n" for i in range(block)) + "x 1 2 3\ny 1 2 3\n"
        expected = f"precomputed file line {block + 1}: expected 2 values, got 3"
        assert _precomputed_outcome(load_precomputed, body) == expected
        assert _precomputed_outcome(_reference_precomputed, body) == expected

    @pytest.mark.parametrize("bad_value", ["x", "inf"])
    @pytest.mark.parametrize("later", ["width", "duplicate"])
    @pytest.mark.parametrize(
        "bad_row, later_row",
        [
            (3, 9),
            (embed._BLOCK_ROWS - 1, embed._BLOCK_ROWS),
            (embed._BLOCK_ROWS + 2, embed._BLOCK_ROWS + 40),
        ],
        ids=["first block", "block boundary", "second block"],
    )
    def test_bad_value_reported_before_later_error(self, bad_value, later, bad_row, later_row):
        rows = [[f"w{i}", "1.5", "2.5"] for i in range(later_row + 3)]
        rows[bad_row][2] = bad_value
        if later == "width":
            rows[later_row] = rows[later_row][:-1]
        else:
            rows[later_row][0] = rows[0][0]
        body = "".join(" ".join(row) + "\n" for row in rows)
        kind = "non-numeric" if bad_value == "x" else "non-finite"
        expected = f"precomputed file line {bad_row + 1}: {kind} value"
        assert _precomputed_outcome(load_precomputed, body) == expected
        assert _precomputed_outcome(_reference_precomputed, body) == expected
        if later == "width":  # a repeated token is no error in a .vec file
            vec = f"{len(rows)} 2\n" + body
            expected = f"vec file line {bad_row + 2}: {kind} value"
            assert _vec_outcome(load_vec_table, vec, None) == expected
            assert _vec_outcome(_reference_vec_table, vec, None) == expected
