import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdetect.embed import (
    WordVectorTable,
    average_embedding,
    load_precomputed,
    load_vec_table,
    token_matrix,
)
from offdetect.errors import DataError

MINI_VEC = "2 3\na 1 2 3\nb 4 5 6\n"


def small_table():
    return WordVectorTable(
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

    def test_bad_header(self):
        with pytest.raises(DataError, match="line 1"):
            load_vec_table("not a header at all\n")

    def test_reads_byte_stream(self):
        table = load_vec_table(io.BytesIO(MINI_VEC.encode("utf-8")))
        assert len(table) == 2


class TestAverageEmbedding:
    def test_two_point_mean(self):
        got = average_embedding(["a", "b"], small_table())
        np.testing.assert_allclose(got, [2.0, 2.0, 2.0])

    def test_all_oov_gives_zero_vector(self):
        got = average_embedding(["nope", "nada"], small_table())
        np.testing.assert_array_equal(got, np.zeros(3))

    def test_against_bruteforce_column_mean(self):
        table = small_table()
        tokens = ["a", "b", "c", "d", "e"]
        # independent scalar-loop mean
        expected = [0.0, 0.0, 0.0]
        for tok in tokens:
            for j in range(3):
                expected[j] += float(vector(table, tok)[j])
        expected = [v / len(tokens) for v in expected]
        got = average_embedding(tokens, table)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_oov_tokens_skipped_in_mean(self):
        table = small_table()
        with_oov = average_embedding(["a", "zzz", "b"], table)
        without = average_embedding(["a", "b"], table)
        np.testing.assert_allclose(with_oov, without)

    @given(st.permutations(["a", "b", "c", "d", "e"]))
    def test_permutation_invariance(self, tokens):
        base = average_embedding(["a", "b", "c", "d", "e"], small_table())
        got = average_embedding(list(tokens), small_table())
        np.testing.assert_allclose(got, base, atol=1e-12)

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(["a", "b", "c", "d", "e", "oov"]), max_size=12))
    def test_inf_norm_bounded_by_used_columns(self, tokens):
        table = small_table()
        used = [vector(table, t) for t in tokens if t in table]
        got = average_embedding(tokens, table)
        if not used:
            assert np.all(got == 0.0)
        else:
            bound = max(np.max(np.abs(v)) for v in used)
            assert np.max(np.abs(got)) <= bound + 1e-12


class TestTokenMatrix:
    def test_lookup_in_order_with_repeats(self):
        table = small_table()
        seq = token_matrix(["a", "b", "a"], table)
        assert seq.values.shape == (3, 3)
        np.testing.assert_array_equal(seq.values[:, 0], vector(table, "a"))
        np.testing.assert_array_equal(seq.values[:, 1], vector(table, "b"))
        np.testing.assert_array_equal(seq.values[:, 2], vector(table, "a"))

    def test_empty_tokens_give_zero_columns(self):
        seq = token_matrix([], small_table())
        assert seq.values.shape == (3, 0)
        assert seq.length == 0

    def test_oov_skipped(self):
        seq = token_matrix(["a", "nothere", "b"], small_table())
        assert seq.length == 2
        np.testing.assert_array_equal(seq.values[:, 1], vector(small_table(), "b"))

    @given(st.lists(st.sampled_from(["a", "b", "c", "oov1", "oov2"]), max_size=15))
    def test_column_count_equals_in_vocab_tokens(self, tokens):
        table = small_table()
        seq = token_matrix(tokens, table)
        assert seq.length == sum(1 for t in tokens if t in table)


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
        assert len(table) == 0 and table.dim is None
        with pytest.raises(DataError, match="no vector"):
            table.lookup("t1")

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
            table.lookup("b")
