from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdetect.dmd import MAX_DELAY_ORDER, HodmdConfig, sentence_feature
from offdetect.errors import NumericError


@dataclass
class SnapshotPair:
    """Time-lagged matrices: Xp's columns are X's shifted one step forward."""

    X: np.ndarray
    Xp: np.ndarray


def build_snapshots(seq, d=1):
    """Delay-embed an (n, L) sequence at order d and split it into lagged
    pairs: columns y_k = [x_k; ...; x_{k+d-1}] (length n*d) give
    X = [y_1 .. y_{L-d}] and Xp = [y_2 .. y_{L-d+1}].  Requires L >= d + 1."""
    L = seq.shape[1]
    if L < d + 1:
        raise NumericError(f"sequence of {L} columns is too short for delay order {d}")
    stacked = np.vstack([seq[:, i : L - d + 1 + i] for i in range(d)])
    return SnapshotPair(X=stacked[:, :-1], Xp=stacked[:, 1:])


def linear_trajectory(A, x1, n_steps):
    """Columns x_1, A x_1, ..., A^{n_steps-1} x_1."""
    cols = [np.asarray(x1, dtype=float)]
    for _ in range(n_steps - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def _reference_sentence_feature(seq, cfg=HodmdConfig()):
    """The per-tweet definition sentence_feature must reproduce: pad a short
    sequence, delay-embed it, take the SVD of X in the full n*d-row space,
    keep the rank the singular-value rule allows, apply the operator
    A_r = X' V_r S_r^-1 U_r^T to the last stacked snapshot and keep the last
    n rows, the estimate of x_{L+1}."""
    values = seq
    n, L = values.shape
    if L == 0:
        return np.zeros(n)
    if L < cfg.d + 1:
        values = np.concatenate([values, np.repeat(values[:, -1:], cfg.d + 1 - L, axis=1)], axis=1)
    snap = build_snapshots(values, cfg.d)
    if not np.any(snap.X):
        return np.zeros(n)
    U, s, Vh = np.linalg.svd(snap.X, full_matrices=False)
    r = min(cfg.r_max, int(np.sum(s > cfg.sv_rel_tol * s[0])))
    A_r = snap.Xp @ Vh[:r].T @ np.diag(1.0 / s[:r]) @ U[:, :r].T
    return (A_r @ snap.Xp[:, -1])[-n:]


def test_delay_order_is_capped():
    assert HodmdConfig(d=MAX_DELAY_ORDER).d == 140
    with pytest.raises(ValueError, match="delay order must be in \\[1, 140\\], got 141"):
        HodmdConfig(d=MAX_DELAY_ORDER + 1)


class TestBuildSnapshots:
    def test_order_one_shapes(self):
        seq = np.arange(8.0).reshape(2, 4)
        snap = build_snapshots(seq, 1)
        assert snap.X.shape == (2, 3)
        assert snap.Xp.shape == (2, 3)

    def test_order_two_stacks_columns(self):
        seq = np.arange(8.0).reshape(2, 4)
        snap = build_snapshots(seq, 2)
        assert snap.X.shape == (4, 2)
        np.testing.assert_array_equal(snap.X[:, 0], [0.0, 4.0, 1.0, 5.0])

    def test_shift_structure_on_random_fixture(self):
        rng = np.random.default_rng(3)
        seq = rng.normal(size=(3, 9))
        for d in (1, 2, 3):
            snap = build_snapshots(seq, d)
            np.testing.assert_array_equal(snap.Xp[:, :-1], snap.X[:, 1:])

    def test_too_short_sequence_raises(self):
        seq = np.ones((2, 2))
        with pytest.raises(NumericError, match="too short"):
            build_snapshots(seq, 2)


class TestSentenceFeature:
    def test_two_word_repeating_signal_extrapolates_truth(self):
        v1 = np.array([1.0, 0.5, -0.3])
        v2 = np.array([-0.2, 1.1, 0.8])
        cols = [v1, v2, v1, v2, v1]
        seq = np.column_stack(cols)
        feat = sentence_feature(seq, HodmdConfig(d=1))
        np.testing.assert_allclose(feat, v2, atol=1e-8)  # next state after ...v2, v1

    def test_rotated_decaying_system_extrapolates_one_step(self):
        # c04's system: a 5x5 rotated diagonal map with decaying spectrum,
        # 12 snapshots; plain DMD through the compressed path gives A x_L
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        A = Q @ np.diag([0.9, 0.7, 0.5, 0.3, 0.1]) @ Q.T
        seq = linear_trajectory(A, rng.normal(size=5) + 2.0, 12)
        want = A @ seq[:, -1]
        got = sentence_feature(seq, HodmdConfig(d=1))
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rotated_decaying_system_gives_next_state_for_every_order(self, d):
        # c04's system again: every delay order extrapolates to x_{L+1}
        rng = np.random.default_rng(4)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        A = Q @ np.diag([0.9, 0.7, 0.5, 0.3, 0.1]) @ Q.T
        seq = linear_trajectory(A, rng.normal(size=5) + 2.0, 12)
        want = A @ seq[:, -1]
        got = sentence_feature(seq, HodmdConfig(d=d))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_empty_sequence_gives_zero_vector(self):
        seq = np.zeros((7, 0))
        np.testing.assert_array_equal(sentence_feature(seq), np.zeros(7))

    def test_zero_signal_gives_zero_vector(self):
        seq = np.zeros((4, 5))
        np.testing.assert_array_equal(sentence_feature(seq), np.zeros(4))

    def test_single_token_padding_returns_that_vector(self):
        v = np.array([0.4, -1.2, 2.0])
        seq = v[:, None]
        for d in (1, 2, 3):
            np.testing.assert_allclose(sentence_feature(seq, HodmdConfig(d=d)), v, atol=1e-8)

    def test_token_order_changes_feature(self):
        table = {
            "a": np.array([1.0, 0.0, 0.2]),
            "b": np.array([0.0, 1.0, -0.4]),
            "c": np.array([0.5, 0.5, 1.0]),
        }
        fwd = np.column_stack([table["a"], table["b"], table["c"]])
        rev = np.column_stack([table["c"], table["b"], table["a"]])
        f_fwd = sentence_feature(fwd)
        f_rev = sentence_feature(rev)
        assert not np.allclose(f_fwd, f_rev)

    @pytest.mark.parametrize("d", [1, 2])
    def test_rank_cap_past_the_int64_range_caps_nothing(self, d):
        # a rank is at most the count of singular values, whatever r_max says
        seq = np.random.default_rng(10).normal(size=(6, 9))
        expected = sentence_feature(seq, HodmdConfig(d=d, r_max=10**6))
        assert np.array_equal(sentence_feature(seq, HodmdConfig(d=d, r_max=2**70)), expected)

    def test_output_length_is_channel_count_for_higher_order(self):
        rng = np.random.default_rng(9)
        seq = rng.normal(size=(5, 8))
        for d in (1, 2, 3):
            assert sentence_feature(seq, HodmdConfig(d=d)).shape == (5,)


class TestStackedSentenceFeature:
    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 3),
        length=st.integers(0, 14),
        extra_channels=st.integers(0, 24),
        r_max=st.integers(1, 12),
        kinds=st.lists(st.sampled_from(["gaussian", "zero", "repeated"]), min_size=1, max_size=5),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_tweet_reference(self, d, length, extra_channels, r_max, kinds, data_seed):
        # At least as many channels as tokens, as for word vectors and
        # tweets; repeated-word rows repeat one word throughout (a rank-one
        # signal), and lengths up to d are padded.  The step is linear in
        # the last snapshot and divides only by singular values the rank
        # rule keeps, so the compressed and the full-space SVD give the same
        # feature up to rounding; repeated words inside a varied signal are
        # covered by the signed-permutation test below.
        rng = np.random.default_rng(data_seed)
        n = max(length, 1) + extra_channels
        stack = rng.normal(size=(len(kinds), n, length))
        for g, kind in enumerate(kinds):
            if kind == "zero":
                stack[g] = 0.0
            elif kind == "repeated":  # a rank-one signal
                stack[g] = stack[g][:, :1]
        cfg = HodmdConfig(d=d, r_max=r_max)
        got = sentence_feature(stack, cfg)
        assert got.shape == (len(kinds), n)
        for g in range(len(kinds)):
            ref = _reference_sentence_feature(stack[g], cfg)
            assert np.linalg.norm(got[g] - ref) <= 1e-9 * np.linalg.norm(ref)

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 3),
        length=st.integers(1, 14),
        extra_channels=st.integers(0, 24),
        vocabulary=st.integers(1, 6),
        tweets=st.integers(1, 4),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_signed_channel_permutation_commutes(self, d, length, extra_channels, vocabulary, tweets, data_seed):
        # tweets drawn from a few words, so most repeat some: a signed
        # permutation P of the word-vector coordinates is exact, so the
        # feature must follow it, f(P V) = P f(V), up to rounding
        rng = np.random.default_rng(data_seed)
        n = length + extra_channels
        words = rng.normal(size=(n, vocabulary))
        stack = words[:, rng.integers(0, vocabulary, size=(tweets, length))].transpose(1, 0, 2)
        perm = rng.permutation(n)
        signs = rng.choice([-1.0, 1.0], size=n)
        cfg = HodmdConfig(d=d)
        want = signs * sentence_feature(stack, cfg)[:, perm]
        got = sentence_feature(signs[:, None] * stack[:, perm], cfg)
        for g in range(tweets):
            assert np.linalg.norm(got[g] - want[g]) <= 1e-9 * np.linalg.norm(want[g])

    def test_single_sequence_equals_its_row_of_a_stack(self):
        rng = np.random.default_rng(21)
        stack = rng.normal(size=(3, 12, 7))
        cfg = HodmdConfig(d=2)
        rows = sentence_feature(stack, cfg)
        for g in range(3):
            np.testing.assert_array_equal(
                sentence_feature(stack[g], cfg), rows[g]
            )


class TestDelayEmbeddingNecessity:
    def test_period_two_oscillation_needs_order_two(self):
        # one channel alternating between two levels: no scalar map fits it,
        # but the order-2 stacked system is exactly linear, so only its
        # one-step feature continues the signal (the next value is 1)
        signal = np.array([[1.0, 2.0] * 6])
        err1, err2 = (
            abs(sentence_feature(signal, HodmdConfig(d=d))[0] - 1.0) / signal.max() for d in (1, 2)
        )
        assert err1 >= 0.1
        assert err2 <= 1e-6

    def test_period_two_oscillation_continues_under_order_two(self):
        # after ..., 1, 2 the next value is 1
        signal = np.array([[1.0, 2.0] * 6])
        got = sentence_feature(signal, HodmdConfig(d=2))
        np.testing.assert_allclose(got, [1.0], rtol=1e-12)
