import io
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offdetect.errors import ModelFormatError
from offdetect.learn import GnbModel, LinearModel, predict, train_gnb, train_rlsc
from offdetect.model_io import MAGIC, load_model, save_model
from offdetect.rks import MAX_MAP_ENTRIES, MAX_SEED, PCG64_ROWS_ID, PRNG_ID, RksMap, sample_map

TESTS = Path(__file__).resolve().parent
ROW_DRAW_MODEL = TESTS / "fixtures" / "pcg64_rows_model"


def roundtrip(model):
    buf = io.BytesIO()
    save_model(model, buf)
    buf.seek(0)
    loaded = load_model(buf)
    return buf.getvalue(), loaded


def sample_linear(with_rks=False):
    rng = np.random.default_rng(0)
    model = LinearModel(
        kind="rlsc",
        w=rng.normal(size=6),
        bias=-0.125,
        hyper={"lam": 1e-3},
    )
    if with_rks:
        model = LinearModel(
            kind="svm_linear",
            w=rng.normal(size=10),
            bias=0.5,
            hyper={"C": 1000.0, "epochs": 200, "seed": 4},
            rks=sample_map(3, 10, sigma=1.7, seed=9),
        )
    return model


class TestRoundTrip:
    def test_linear_weights_bit_exact(self):
        model = sample_linear()
        _, loaded = roundtrip(model)
        np.testing.assert_array_equal(loaded.w, model.w)
        assert loaded.bias == model.bias
        assert loaded.kind == model.kind
        assert loaded.hyper == model.hyper
        assert loaded.rks is None

    def test_embedded_map_reproduces_omega_bit_exact(self):
        model = sample_linear(with_rks=True)
        _, loaded = roundtrip(model)
        np.testing.assert_array_equal(loaded.rks.omega, model.rks.omega)
        assert loaded.rks.sigma == model.rks.sigma
        assert loaded.rks.seed == model.rks.seed

    def test_largest_seed_round_trips(self):
        model = sample_linear(with_rks=True)
        model.rks = sample_map(3, 10, sigma=1.7, seed=MAX_SEED)
        _, loaded = roundtrip(model)
        np.testing.assert_array_equal(loaded.rks.omega, model.rks.omega)
        assert (loaded.rks.sigma, loaded.rks.seed) == (1.7, MAX_SEED)

    def test_gnb_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(12, 4))
        y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        model = train_gnb(X, y, var_floor=1e-7)
        _, loaded = roundtrip(model)
        assert isinstance(loaded, GnbModel)
        np.testing.assert_array_equal(loaded.means, model.means)
        np.testing.assert_array_equal(loaded.variances, model.variances)
        np.testing.assert_array_equal(loaded.priors, model.priors)
        assert loaded.var_floor == model.var_floor

    def test_predictions_identical_after_round_trip(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(25, 3))
        y = np.where(rng.random(25) < 0.5, 1.0, -1.0)
        model = train_rlsc(X, y, lam=1e-2)
        _, loaded = roundtrip(model)
        queries = rng.normal(size=(10, 3))
        assert predict(loaded, queries) == predict(model, queries)

    def test_save_twice_is_byte_identical(self):
        model = sample_linear(with_rks=True)
        a, b = io.BytesIO(), io.BytesIO()
        save_model(model, a)
        save_model(model, b)
        assert a.getvalue() == b.getvalue()


class TestMalformedFiles:
    def test_corrupt_header_bytes_rejected(self):
        payload, _ = roundtrip(sample_linear())
        for pos in range(len(MAGIC) + 1):
            corrupted = bytearray(payload)
            corrupted[pos] ^= 0xFF
            with pytest.raises(ModelFormatError):
                load_model(io.BytesIO(bytes(corrupted)))

    def test_truncation_at_every_prefix_rejected(self):
        payload, _ = roundtrip(sample_linear(with_rks=True))
        for cut in range(len(payload)):
            with pytest.raises(ModelFormatError):
                load_model(io.BytesIO(payload[:cut]))

    def test_trailing_bytes_rejected(self):
        payload, _ = roundtrip(sample_linear())
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(io.BytesIO(payload + b"\x00"))

    def test_unknown_version_rejected(self):
        payload, _ = roundtrip(sample_linear())
        corrupted = bytearray(payload)
        corrupted[len(MAGIC)] = 99
        with pytest.raises(ModelFormatError, match="version"):
            load_model(io.BytesIO(bytes(corrupted)))

    def test_unknown_kind_rejected(self):
        payload, _ = roundtrip(sample_linear())
        corrupted = bytearray(payload)
        corrupted[len(MAGIC) + 1] = 42
        with pytest.raises(ModelFormatError, match="kind"):
            load_model(io.BytesIO(bytes(corrupted)))

    def test_unknown_prng_identifier_rejected(self):
        payload, _ = roundtrip(sample_linear(with_rks=True))
        idx = payload.find(b"numpy-pcg64")
        corrupted = bytearray(payload)
        corrupted[idx] = ord("x")
        with pytest.raises(ModelFormatError, match="generator"):
            load_model(io.BytesIO(bytes(corrupted)))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("sigma", -1.7, "bandwidth"),
            ("sigma", 0.0, "bandwidth"),
            ("sigma", float("nan"), "bandwidth"),
            ("sigma", float("inf"), "bandwidth"),
            ("dim_out", 9, "output dimension"),
            ("dim_out", 0, "output dimension"),
            ("d_in", 0, "input dimension"),
            ("d_in", MAX_MAP_ENTRIES, "limit"),
            ("seed", -4, "seed"),
        ],
    )
    def test_bad_map_recipe_rejected(self, field, value, match):
        payload, _ = roundtrip(sample_linear(with_rks=True))
        offset = len(MAGIC) + 3
        recipe = dict(zip(("d_in", "dim_out", "seed", "sigma"),
                          struct.unpack_from("<IIqd", payload, offset)))
        recipe[field] = value
        corrupted = bytearray(payload)
        struct.pack_into("<IIqd", corrupted, offset, *recipe.values())
        with pytest.raises(ModelFormatError, match=match):
            load_model(io.BytesIO(bytes(corrupted)))

    def test_empty_map_rejected(self):
        # Zero weights match the zero-width map, so sample_map's own check
        # is the one that refuses it.
        model = LinearModel(kind="svm_linear", w=np.zeros(0), bias=0.0, hyper={},
                            rks=RksMap(omega=np.zeros((3, 0)), sigma=1.0, seed=0))
        buf = io.BytesIO()
        save_model(model, buf)
        buf.seek(0)
        with pytest.raises(ModelFormatError, match="bad map recipe.*even"):
            load_model(buf)

    def test_weight_count_must_match_map_output(self):
        model = sample_linear(with_rks=True)
        model.w = model.w[:8]
        buf = io.BytesIO()
        save_model(model, buf)
        buf.seek(0)
        with pytest.raises(ModelFormatError, match="output dimension"):
            load_model(buf)

    def test_non_object_hyperparameters_rejected(self):
        payload, _ = roundtrip(sample_linear())
        hyper = b'{"lam":0.001}'
        assert payload.endswith(hyper)
        corrupted = payload[: -len(hyper)] + b"[1,2,3,4,5,6]"
        with pytest.raises(ModelFormatError, match="not a JSON object"):
            load_model(io.BytesIO(corrupted))


class TestModelFileOfTheRowByRowDraw:
    """``fixtures/pcg64_rows_model`` holds the ``model.offd`` and
    ``report.tsv`` that ``python -m offdetect run --config
    configs/hodmd2_rks_rlsc.cfg`` wrote at commit 9a284d2, the last one
    that drew every map row by row.  Its map block names ``numpy-pcg64``
    (rks.PCG64_ROWS_ID); loading it must draw that map again."""

    def load(self):
        with open(ROW_DRAW_MODEL / "model.offd", "rb") as fh:
            return load_model(fh)

    def test_reproduces_its_report_byte_for_byte(self):
        from offdetect.evaluation import ConfusionMatrix, macro_metrics, render_report
        from offdetect.experiment import build_pipeline, load_corpora, parse_config

        cfg = parse_config(TESTS.parent / "configs" / "hodmd2_rks_rlsc.cfg")
        _, test = load_corpora(cfg)
        features = build_pipeline(cfg, [test]).featurize(test)
        model = self.load()
        assert model.rks.prng == PCG64_ROWS_ID
        expected = np.random.default_rng(model.rks.seed).standard_normal((8, 100)) / model.rks.sigma
        assert np.array_equal(model.rks.omega, expected)
        predicted = [label for label, _ in predict(model, features)]
        report = macro_metrics(ConfusionMatrix.from_pairs([rec.label for rec in test.records], predicted))
        tsv, _ = render_report([(cfg.name, report)])
        assert tsv == (ROW_DRAW_MODEL / "report.tsv").read_text(encoding="utf-8")

    def test_saves_back_to_the_same_bytes(self):
        sink = io.BytesIO()
        save_model(self.load(), sink)
        assert sink.getvalue() == (ROW_DRAW_MODEL / "model.offd").read_bytes()

    def test_inspect_model_names_each_generator(self, tmp_path, capsys):
        from offdetect.cli import main

        assert main(["inspect-model", str(ROW_DRAW_MODEL / "model.offd")]) == 0
        assert "(sigma=1.8423170440669892, seed=0, prng=numpy-pcg64)\n" in capsys.readouterr().out
        model = self.load()
        model.rks = sample_map(8, 200, sigma=model.rks.sigma, seed=0)
        with open(tmp_path / "model.offd", "wb") as fh:
            save_model(model, fh)
        assert main(["inspect-model", str(tmp_path / "model.offd")]) == 0
        assert f"seed=0, prng={PRNG_ID})\n" in capsys.readouterr().out


_FUZZ_PAYLOADS = [
    roundtrip(sample_linear())[0],
    roundtrip(sample_linear(with_rks=True))[0],
    roundtrip(train_gnb(np.array([[0.0, 1.0], [1.0, 0.5], [2.0, 2.0]]), np.array([1, -1, 1])))[0],
]


@settings(max_examples=300, deadline=None)
@given(
    which=st.integers(0, len(_FUZZ_PAYLOADS) - 1),
    flips=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 7)), max_size=4),
    cut=st.none() | st.integers(0, 10_000),
)
def test_fuzzed_files_load_or_raise_model_format_error(which, flips, cut):
    corrupted = bytearray(_FUZZ_PAYLOADS[which])
    for pos, bit in flips:
        corrupted[pos % len(corrupted)] ^= 1 << bit
    if cut is not None:
        corrupted = corrupted[: cut % (len(corrupted) + 1)]
    try:
        load_model(io.BytesIO(bytes(corrupted)))
    except ModelFormatError:
        pass
