import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eeglstm.data import (
    BONN_CODES,
    PairDataset,
    RecordingSet,
    SynthSpec,
    export_bonn_format,
    gen_synthetic,
    kfold_split,
    load_bonn_set,
    make_pair_dataset,
    standardize_dataset,
)
from eeglstm.errors import IngestionError


def write_set(root, name, n_files=100, seq_len=16, start=0):
    d = root / name
    d.mkdir(parents=True)
    for i in range(n_files):
        values = [start + i * seq_len + j for j in range(seq_len)]
        (d / f"{name}{i + 1:03d}.txt").write_text("\n".join(str(v) for v in values) + "\n")
    return d


@pytest.fixture
def corpus(tmp_path):
    write_set(tmp_path, "A", seq_len=16)
    write_set(tmp_path, "S", seq_len=16, start=100_000)  # Bonn code for set E
    return tmp_path


class TestLoader:
    def test_loads_100_sequences_in_filename_order(self, corpus):
        rec = load_bonn_set(corpus, "A", expected_len=16)
        assert rec.set_id == "A"
        assert len(rec.sequences) == 100
        assert all(seq.shape == (16,) for seq in rec.sequences)
        # filename order: file i starts at i*16
        assert rec.sequences[3][0] == 48.0

    def test_values_equal_file_values_exactly(self, tmp_path):
        d = write_set(tmp_path, "A", seq_len=3)
        (d / "A001.txt").write_text("12\n-7\n0\n")
        rec = load_bonn_set(tmp_path, "A", expected_len=3)
        assert np.array_equal(rec.sequences[0], [12.0, -7.0, 0.0])

    @pytest.mark.parametrize(
        "content,expected",
        [
            (b"\x1f7\x1f\n12\n-3\n", [7.0, 12.0, -3.0]),
            (b"\t7\t\n 12 \n-3\t\n", [7.0, 12.0, -3.0]),
            (b"7\r\n12\r\n-3\r\n", [7.0, 12.0, -3.0]),
            (b"007\n0012\n-03\n", [7.0, 12.0, -3.0]),
            (b"-0\n0\n-00\n", [0.0, 0.0, 0.0]),
            (b"\x0c7\x0c\n12\n-3\n", [7.0, 12.0, -3.0]),
        ],
        ids=["unit-separator-padding", "tab-padding", "crlf", "leading-zeros", "negative-zero", "form-feed-padding"],
    )
    def test_accepted_line_forms(self, tmp_path, content, expected):
        d = write_set(tmp_path, "A", seq_len=3)
        (d / "A001.txt").write_bytes(content)
        values = load_bonn_set(tmp_path, "A", expected_len=3).sequences[0]
        # tobytes tells -0.0 from +0.0
        assert values.tobytes() == np.array(expected).tobytes()

    def test_resolves_bonn_code_directory(self, corpus):
        rec = load_bonn_set(corpus, "E", expected_len=16)
        assert rec.set_id == "E"
        assert rec.sequences[0][0] == 100_000.0

    def test_missing_set_directory(self, corpus):
        with pytest.raises(IngestionError, match="set B"):
            load_bonn_set(corpus, "B", expected_len=16)

    def test_wrong_file_count(self, tmp_path):
        write_set(tmp_path, "A", n_files=99, seq_len=8)
        with pytest.raises(IngestionError, match="expected 100 .txt files, found 99"):
            load_bonn_set(tmp_path, "A", expected_len=8)

    @pytest.mark.parametrize(
        "content,match",
        [
            (b"1\nx7\n3\n", r"A001\.txt:2.*'x7'"),
            (b"1\n\xe97\n3\n", r"A001\.txt: not ASCII.*0xe9"),
            (b"1\n" + b"9" * 400 + b"\n3\n", r"A001\.txt:2: integer beyond float64 range"),
            (b"1\n1_000\n3\n", r"A001\.txt:2.*'1_000'"),
            (b"1\n-2\r\n +5 \n", r"A001\.txt:3.*'\+5'"),
            (b"1\n+5\n3\n4\n5\n6\n7\n8\nx7\n", r"A001\.txt:2.*'\+5'"),
            (b"\x1f7\n+5\n3\n", r"A001\.txt:2.*'\+5'"),
            (b"1\x0c2\x0b3\x1c4", r"A001\.txt:1: not an integer"),
        ],
        ids=[
            "non-integer",
            "non-ascii",
            "overflow",
            "digit-separator",
            "plus-sign",
            "plus-then-letter",
            "unit-separator-then-plus",
            "separators-inside-a-line",
        ],
    )
    def test_non_integer_line_names_file_and_line(self, tmp_path, content, match):
        d = write_set(tmp_path, "A", seq_len=3)
        (d / "A001.txt").write_bytes(content)
        with pytest.raises(IngestionError, match=match):
            load_bonn_set(tmp_path, "A", expected_len=3)

    def test_wrong_sample_count_in_file(self, tmp_path):
        d = write_set(tmp_path, "A", seq_len=3)
        (d / "A001.txt").write_text("1\n2\n")
        with pytest.raises(IngestionError, match="expected 3 samples, found 2"):
            load_bonn_set(tmp_path, "A", expected_len=3)

    def test_unknown_set_id(self, corpus):
        with pytest.raises(ValueError):
            load_bonn_set(corpus, "Q")

    def test_code_mapping_is_the_published_layout(self):
        assert BONN_CODES == {"A": "Z", "B": "O", "C": "N", "D": "F", "E": "S"}

    def test_canonical_dimensions_by_default(self, tmp_path):
        # a full-size set: 100 files x 4097 integer lines
        d = tmp_path / "Z"
        d.mkdir()
        body = "\n".join(str((7 * j) % 2000 - 1000) for j in range(4097)) + "\n"
        for i in range(100):
            (d / f"Z{i + 1:03d}.txt").write_text(body)
        rec = load_bonn_set(tmp_path, "A")  # defaults: 4097 samples, 100 files
        assert len(rec.sequences) == 100
        assert all(seq.shape == (4097,) for seq in rec.sequences)

    def test_default_length_rejects_4096_line_files(self, tmp_path):
        d = write_set(tmp_path, "A", seq_len=4097)
        (d / "A001.txt").write_text("\n".join("1" for _ in range(4096)) + "\n")
        with pytest.raises(IngestionError, match="expected 4097 samples, found 4096"):
            load_bonn_set(tmp_path, "A")


class TestPairDataset:
    def make_sets(self, n=10, seq_len=8):
        rng = np.random.default_rng(0)
        a = RecordingSet("A", rng.standard_normal((n, seq_len)))
        e = RecordingSet("E", rng.standard_normal((n, seq_len)))
        return a, e

    def test_labels_and_order(self):
        a, e = self.make_sets()
        ds = make_pair_dataset(a, e)
        assert ds.pair == ("A", "E")
        labels = ds.labels()
        assert labels[:10].sum() == 0 and labels[10:].sum() == 10
        assert np.array_equal(ds.samples, np.concatenate([a.sequences, e.sequences]))

    def test_label_counts_by_construction(self):
        a, e = self.make_sets(n=25)
        ds = make_pair_dataset(a, e)
        assert int(ds.labels().sum()) == 25
        assert len(ds.samples) == 50

    def test_pairing_set_with_itself_is_valid(self):
        a, _ = self.make_sets()
        ds = make_pair_dataset(a, a)
        assert len(ds.samples) == 20
        assert ds.pair == ("A", "A")

    def test_length_mismatch_rejected(self):
        a, _ = self.make_sets(seq_len=8)
        bad = RecordingSet("E", np.zeros((10, 9)))
        with pytest.raises(ValueError, match=r"mixed sequence lengths: \[8, 9\]"):
            make_pair_dataset(a, bad)

    def test_size_mismatch_rejected(self):
        a, _ = self.make_sets()
        small = RecordingSet("E", np.zeros((9, 8)))
        with pytest.raises(ValueError, match="differ in size: 10 vs 9"):
            make_pair_dataset(a, small)


class TestKfoldSplit:
    def test_canonical_split_sizes(self):
        folds = kfold_split(100, 10, seed=7)
        assert len(folds) == 10
        for fold in folds:
            assert fold.train.size == 140
            assert fold.val.size == 40
            assert fold.test.size == 20

    def test_per_class_stratification(self):
        for fold in kfold_split(100, 5, seed=3):
            for part, per_class in ((fold.train, 70), (fold.val, 20), (fold.test, 10)):
                assert int(np.sum(part < 100)) == per_class
                assert int(np.sum(part >= 100)) == per_class

    def test_partition_property(self):
        for fold in kfold_split(50, 4, seed=1):
            merged = np.concatenate([fold.train, fold.val, fold.test])
            assert np.array_equal(np.sort(merged), np.arange(100))

    def test_determinism(self):
        a = kfold_split(100, 3, seed=11)
        b = kfold_split(100, 3, seed=11)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.train, fb.train)
            assert np.array_equal(fa.val, fb.val)
            assert np.array_equal(fa.test, fb.test)

    def test_folds_differ(self):
        folds = kfold_split(100, 2, seed=0)
        assert not np.array_equal(folds[0].train, folds[1].train)

    def test_indivisible_n_rejected(self):
        with pytest.raises(ValueError):
            kfold_split(101, 3, seed=0)

    @given(st.sampled_from([10, 20, 50, 100]), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_partition_holds_for_any_seed(self, n, k, seed):
        for fold in kfold_split(n, k, seed):
            merged = np.concatenate([fold.train, fold.val, fold.test])
            assert np.array_equal(np.sort(merged), np.arange(2 * n))
            assert fold.train.size == 2 * (n * 7 // 10)


class TestSynthetic:
    def test_noiseless_exact_sinusoid(self):
        spec = SynthSpec(f0=2.0, f1=2.0, amp=3.0, noise=0.0, rate=64.0, n=2)
        ds = gen_synthetic(spec, seq_len=64, seed=0)
        t = np.arange(64) / 64.0
        expected = 3.0 * np.sin(2 * np.pi * 2.0 * t)
        assert ds.samples.shape == (4, 64)
        assert np.array_equal(ds.samples[0], expected)
        assert np.abs(ds.samples[0]).max() == pytest.approx(3.0, abs=1e-9)
        # identical specs: the two classes carry the same signal, so nothing
        # beyond chance is learnable
        assert np.array_equal(ds.samples[0], ds.samples[2])

    def test_deterministic_given_seed(self):
        spec = SynthSpec(2.0, 10.0, 1.0, 0.1, 64.0, 5)
        a = gen_synthetic(spec, 32, seed=9)
        b = gen_synthetic(spec, 32, seed=9)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_labels_and_counts(self):
        ds = gen_synthetic(SynthSpec(2, 10, 1, 0.1, 64.0, 7), 32, seed=0)
        labels = ds.labels()
        assert labels.sum() == 7 and len(labels) == 14 == len(ds.samples)
        assert labels[:7].sum() == 0

    def test_invalid_specs_rejected(self):
        good = SynthSpec(2, 2, 1, 0.1, 64.0, 5)
        with pytest.raises(ValueError):
            gen_synthetic(good, 1, seed=0)  # seq_len < 2
        with pytest.raises(ValueError):
            SynthSpec(2, 2, 1, 0.1, 0.0, 5)  # rate
        with pytest.raises(ValueError):
            SynthSpec(f0=-1.0, amp=1.0, noise=0.1)
        with pytest.raises(ValueError):
            SynthSpec(f0=1.0, amp=1.0, noise=-0.1)
        with pytest.raises(ValueError, match="not finite"):
            gen_synthetic(SynthSpec(2, 2, 1e308, 1e308, 64.0, 5), 32, seed=0)  # overflows float64

    def test_a_spec_that_could_overflow_is_rejected(self):
        for amp, noise in ((1e308, 1e308), (1e308, 1e306), (-1.7e308, 1e306), (0.0, 1.8e306)):
            with pytest.raises(ValueError, match=r"^amp and noise could overflow float64: \|amp\| \+ 100\*noise"):
                SynthSpec(amp=amp, noise=noise)
        for amp, noise in ((1.7e308, 0.0), (-1e308, 7e305), (0.0, 1.7e306)):
            SynthSpec(amp=amp, noise=noise)  # |amp| + 100*noise is finite

    def test_generated_values_are_checked_as_a_backstop(self, monkeypatch):
        monkeypatch.setattr(SynthSpec, "__post_init__", lambda self: None)
        with pytest.raises(ValueError, match="syn0-000: generated values are not finite"):
            gen_synthetic(SynthSpec(2, 2, 1e308, 1e308, 64.0, 5), 32, seed=0)

    @pytest.mark.parametrize(
        "key,value", [("f0", -1.0), ("f1", np.nan), ("amp", np.inf), ("noise", -0.1), ("rate", 0.0), ("n", 0)]
    )
    def test_bad_value_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            SynthSpec(**{key: value})


class TestStandardize:
    def test_zero_mean_unit_std_per_sequence(self):
        ds = gen_synthetic(SynthSpec(2, 10, 5, 0.5, 64.0, 3), 64, seed=2)
        out = standardize_dataset(ds)
        assert out.standardized
        for row in out.samples:
            assert row.mean() == pytest.approx(0.0, abs=1e-12)
            assert row.std() == pytest.approx(1.0, abs=1e-12)

    def test_rowwise_equals_per_sequence_bitwise(self):
        # the one-expression form must round exactly as a per-row loop does
        for seq_len in (7, 64, 1000, 4097):
            ds = gen_synthetic(SynthSpec(2, 10, 300, 40, 173.61, 3), seq_len, seed=5)
            per_row = [(row - row.mean()) / max(float(row.std()), 1e-12) for row in ds.samples]
            assert standardize_dataset(ds).samples.tobytes() == np.stack(per_row).tobytes(), seq_len

    def test_constant_sequence_maps_to_zeros(self):
        ds = PairDataset(("x", "y"), np.stack([np.full(8, 3.0), np.zeros(8)]))
        out = standardize_dataset(ds)
        assert np.all(out.samples[0] == 0.0)


class TestExportRoundTrip:
    def test_loader_round_trip_is_exact(self, tmp_path):
        # integral amplitudes -> rounding on export is lossless
        ds = gen_synthetic(SynthSpec(2, 10, 1000, 0, 64.0, 100), 12, seed=0)
        rounded = np.array([[round(float(v)) for v in row] for row in ds.samples])
        export_bonn_format(ds, tmp_path, set_names=("A", "E"))
        a = load_bonn_set(tmp_path, "A", expected_len=12)
        e = load_bonn_set(tmp_path, "E", expected_len=12)
        reread = np.concatenate([a.sequences, e.sequences])
        assert np.array_equal(reread, rounded)
