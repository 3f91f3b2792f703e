import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdetect.dmd import (
    HodmdConfig,
    build_snapshots,
    compute_dmd,
    predict_state,
    reconstruction_error,
    sentence_feature,
)
from offdetect.errors import NumericError


def linear_trajectory(A, x1, n_steps):
    """Columns x_1, A x_1, ..., A^{n_steps-1} x_1."""
    cols = [np.asarray(x1, dtype=float)]
    for _ in range(n_steps - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def _reference_sentence_feature(seq, cfg=HodmdConfig()):
    """The per-tweet algorithm sentence_feature must reproduce: pad a short
    sequence, delay-embed it, run exact DMD on all n*d rows and keep the
    real part of the first n components of the one-step extrapolation."""
    values = seq
    n, L = values.shape
    if L == 0:
        return np.zeros(n)
    if L < cfg.d + 1:
        values = np.concatenate([values, np.repeat(values[:, -1:], cfg.d + 1 - L, axis=1)], axis=1)
    snap = build_snapshots(values, cfg.d)
    if not np.any(snap.X):
        return np.zeros(n)
    dec = compute_dmd(snap, cfg)
    return np.real(predict_state(dec, snap.n_snapshots)[:n])


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


class TestComputeDmd:
    def test_recovers_diagonal_spectrum(self):
        A = np.diag([0.9, 0.5])
        seq = linear_trajectory(A, [1.3, -0.7], 6)
        dec = compute_dmd(build_snapshots(seq, 1))
        eigs = np.sort_complex(dec.eigenvalues)
        np.testing.assert_allclose(eigs, [0.5, 0.9], atol=1e-8)

    def test_constant_sequence_is_a_fixed_point(self):
        x = np.array([2.0, -1.0, 0.5])
        seq = np.tile(x[:, None], 5)
        dec = compute_dmd(build_snapshots(seq, 1))
        assert dec.rank == 1
        np.testing.assert_allclose(dec.eigenvalues, [1.0], atol=1e-10)

    def test_geometric_sequence_single_eigenvalue(self):
        v = np.array([1.0, 2.0, -1.0])
        cols = [v * 0.7**k for k in range(6)]
        seq = np.column_stack(cols)
        dec = compute_dmd(build_snapshots(seq, 1))
        assert dec.rank == 1
        np.testing.assert_allclose(dec.eigenvalues, [0.7], atol=1e-10)

    def test_rank_respects_r_max(self):
        A = np.diag([0.9, 0.5, 0.3])
        seq = linear_trajectory(A, [1.0, 1.0, 1.0], 8)
        dec = compute_dmd(build_snapshots(seq, 1), HodmdConfig(r_max=1))
        assert dec.rank == 1

    def test_rank_matches_singular_value_policy(self):
        A = np.diag([0.9, 0.5])
        seq = linear_trajectory(A, [1.0, 1.0], 7)
        cfg = HodmdConfig(r_max=10, sv_rel_tol=1e-10)
        snap = build_snapshots(seq, 1)
        dec = compute_dmd(snap, cfg)
        s = np.linalg.svd(snap.X, compute_uv=False)
        expected = min(cfg.r_max, int(np.sum(s > cfg.sv_rel_tol * s[0])))
        assert dec.rank == expected
        assert dec.rank <= min(snap.X.shape)

    def test_conjugate_pair_eigenvalues_on_real_data(self):
        rng = np.random.default_rng(11)
        seq = rng.normal(size=(4, 10))
        dec = compute_dmd(build_snapshots(seq, 1))
        eigs = np.sort_complex(dec.eigenvalues)
        conj = np.sort_complex(np.conj(dec.eigenvalues))
        np.testing.assert_allclose(eigs, conj, atol=1e-10)

    def test_all_zero_signal_rejected(self):
        from offdetect.dmd import SnapshotPair

        snap = SnapshotPair(X=np.zeros((3, 4)), Xp=np.zeros((3, 4)))
        with pytest.raises(NumericError, match="degenerate"):
            compute_dmd(snap)


class TestPredictState:
    def test_step_zero_reconstructs_first_snapshot(self):
        A = np.diag([0.8, 0.6])
        seq = linear_trajectory(A, [1.0, -2.0], 6)
        snap = build_snapshots(seq, 1)
        dec = compute_dmd(snap)
        np.testing.assert_allclose(np.real(predict_state(dec, 0)), snap.X[:, 0], atol=1e-10)
        assert np.max(np.abs(np.imag(predict_state(dec, 0)))) < 1e-10

    def test_reconstructs_every_observed_state(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        A = Q @ np.diag([0.95, 0.8, 0.6, 0.4]) @ Q.T
        seq = linear_trajectory(A, rng.normal(size=4) + 1.0, 10)
        dec = compute_dmd(build_snapshots(seq, 1))
        for k in range(seq.shape[1]):
            np.testing.assert_allclose(
                np.real(predict_state(dec, k)), seq[:, k], atol=1e-8
            )

    def test_one_step_extrapolation_matches_explicit_map(self):
        rng = np.random.default_rng(6)
        A = np.diag([0.9, 0.7]) + 0.05 * rng.normal(size=(2, 2))
        seq = linear_trajectory(A, [1.0, 1.0], 7)
        snap = build_snapshots(seq, 1)
        dec = compute_dmd(snap)
        m = snap.X.shape[1]
        x_m = snap.X[:, -1]
        np.testing.assert_allclose(np.real(predict_state(dec, m)), A @ x_m, atol=1e-8)


class TestSentenceFeature:
    def test_two_word_repeating_signal_extrapolates_truth(self):
        v1 = np.array([1.0, 0.5, -0.3])
        v2 = np.array([-0.2, 1.1, 0.8])
        cols = [v1, v2, v1, v2, v1]
        seq = np.column_stack(cols)
        feat = sentence_feature(seq, HodmdConfig(d=1))
        np.testing.assert_allclose(feat, v2, atol=1e-8)  # next state after ...v2, v1

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

    def test_output_length_is_channel_count_for_higher_order(self):
        rng = np.random.default_rng(9)
        seq = rng.normal(size=(5, 8))
        for d in (1, 2, 3):
            assert sentence_feature(seq, HodmdConfig(d=d)).shape == (5,)

    def test_imaginary_part_cancels_on_real_data(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            seq = rng.normal(size=(4, 9))
            snap = build_snapshots(seq, 1)
            dec = compute_dmd(snap)
            extrapolated = predict_state(dec, snap.n_snapshots)
            re_scale = np.max(np.abs(np.real(extrapolated)))
            assert np.max(np.abs(np.imag(extrapolated))) <= 1e-8 * max(re_scale, 1e-30)


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
        # At least as many channels as tokens, as for word vectors and tweets:
        # with fewer, the snapshot matrix can be square and the extrapolation
        # so ill-conditioned that an exact rotation of the input moves the
        # per-tweet result by 3e-3.  A repeated word inside an otherwise
        # varied signal can make the reduced operator nearly defective, with
        # the same effect, so repeated-word rows repeat one word throughout.
        # Lengths up to d are padded.
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
        # but the order-2 stacked system is exactly linear
        signal = np.array([[1.0, 2.0] * 6])
        seq = signal
        snap1 = build_snapshots(seq, 1)
        err1 = reconstruction_error(compute_dmd(snap1, HodmdConfig(d=1)), snap1)
        snap2 = build_snapshots(seq, 2)
        err2 = reconstruction_error(compute_dmd(snap2, HodmdConfig(d=2)), snap2)
        assert err1 >= 0.1
        assert err2 <= 1e-6
