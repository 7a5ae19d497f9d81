"""Dataset files: CSV round trips with JSON sidecars."""

from __future__ import annotations

import bz2
import gzip
import lzma
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karmic import Dataset, EmptyDataError, GaussianModel, sample_gaussian
from karmic.dataio import (
    _CSV_BLOCK_ROWS,
    _format_g17,
    load_dataset_csv,
    read_sidecar,
    save_dataset_csv,
    sidecar_path,
    write_sidecar,
)


@pytest.fixture
def data() -> Dataset:
    return sample_gaussian(GaussianModel(np.array([2.0, -0.5]), 0.4), 120, seed=6)


class TestSidecar:
    def test_path_convention(self) -> None:
        assert sidecar_path("runs/d.csv") == "runs/d.csv.meta.json"

    def test_roundtrip(self, tmp_path) -> None:
        target = str(tmp_path / "d.csv")
        write_sidecar(target, {"n": 5, "seed": 1})
        assert read_sidecar(target) == {"n": 5, "seed": 1}

    def test_missing_sidecar_is_none(self, tmp_path) -> None:
        assert read_sidecar(str(tmp_path / "absent.csv")) is None


class TestCsv:
    def test_exact_roundtrip(self, data, tmp_path) -> None:
        path = str(tmp_path / "d.csv")
        save_dataset_csv(data, path, meta={"seed": 6})
        loaded, meta = load_dataset_csv(path)
        np.testing.assert_array_equal(loaded.features, data.features)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        assert meta == {"seed": 6}

    def test_header_names_columns(self, data, tmp_path) -> None:
        path = tmp_path / "d.csv"
        save_dataset_csv(data, str(path))
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "x_1,x_2,y"

    def test_no_sidecar_when_meta_omitted(self, data, tmp_path) -> None:
        path = str(tmp_path / "d.csv")
        save_dataset_csv(data, path)
        assert read_sidecar(path) is None

    def test_single_feature_file(self, tmp_path) -> None:
        one = Dataset(np.array([0.25, -1.5]), np.array([1, -1]))
        path = str(tmp_path / "one.csv")
        save_dataset_csv(one, path)
        loaded, _ = load_dataset_csv(path)
        assert loaded.dim == 1
        np.testing.assert_array_equal(loaded.features, one.features)

    def test_single_row_file(self, tmp_path) -> None:
        one = Dataset(np.array([[0.5, 1.0]]), np.array([-1]))
        path = str(tmp_path / "row.csv")
        save_dataset_csv(one, path)
        loaded, _ = load_dataset_csv(path)
        assert loaded.n == 1
        assert loaded.labels.tolist() == [-1]

    def test_empty_dataset_refused(self, tmp_path) -> None:
        empty = Dataset(np.zeros((0, 1)), np.array([], dtype=int))
        with pytest.raises(EmptyDataError):
            save_dataset_csv(empty, str(tmp_path / "e.csv"))

    def test_empty_file_refused(self, tmp_path) -> None:
        path = tmp_path / "header-only.csv"
        path.write_text("x_1,y\n", encoding="utf-8")
        with pytest.raises(EmptyDataError):
            load_dataset_csv(str(path))

    def test_label_only_file_rejected(self, tmp_path) -> None:
        path = tmp_path / "labels.csv"
        path.write_text("y\n1\n-1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_dataset_csv(str(path))

    def test_non_integral_labels_rejected(self, tmp_path) -> None:
        path = tmp_path / "frac.csv"
        path.write_text("x_1,y\n0.5,1.7\n0.25,-1.2\n1.0,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="frac.csv: data row 1 has label 1.7"):
            load_dataset_csv(str(path))

    @pytest.mark.parametrize("label", ["0", "2", "-1.0000001", "nan"])
    def test_labels_other_than_plus_minus_one_rejected(self, tmp_path, label) -> None:
        path = tmp_path / "bad.csv"
        path.write_text(f"x_1,y\n0.5,1\n0.25,{label}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="data row 2"):
            load_dataset_csv(str(path))

    @pytest.mark.parametrize(("body", "message"), [
        ("0.5,1\nabc,-1\n", "data row 2: column 1 is 'abc', not a number"),
        ("0.5,1\n\n# note\n0.25,1_0\n", "data row 2: column 2 is '1_0', not a number"),
    ], ids=["letters", "digit-separator-after-skipped-lines"])
    def test_unparsable_cell_names_file_row_and_column(self, tmp_path, body, message) -> None:
        path = tmp_path / "bad.csv"
        path.write_text("x_1,y\n" + body, encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_dataset_csv(str(path))
        assert str(caught.value) == f"{path}: {message}"

    def test_non_ascii_digits_name_their_row(self, tmp_path) -> None:
        # float() reads Arabic-Indic digits, np.loadtxt does not
        path = tmp_path / "bad.csv"
        path.write_text("x_1,y\n0.5,1\n\u0661.5,1\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_dataset_csv(str(path))
        assert str(caught.value) == f"{path}: data row 2: column 1 is '\u0661.5', not a number"

    @pytest.mark.parametrize("body", ["0.5,1\n0.25,1,3\n", "0.5,1\n0.25\n"],
                             ids=["extra", "missing"])
    def test_changed_column_count_names_file_and_row(self, tmp_path, body) -> None:
        path = tmp_path / "bad.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("x_1,y\n" + body)
        width = body.splitlines()[1].count(",") + 1
        with pytest.raises(ValueError) as caught:
            load_dataset_csv(str(path))
        assert str(caught.value) == f"{path}: data row 2: {width} columns, but data row 1 has 2"

    def test_loaded_sample_holds_its_arrays_only(self, tmp_path) -> None:
        # the features are the parsed block shrunk in place, not a view that
        # keeps the float label column alive next to the int labels
        path = str(tmp_path / "d.csv")
        save_dataset_csv(sample_gaussian(GaussianModel([2.0, 0.0], 0.5), 10_000, seed=1), path)
        load_dataset_csv(path)
        tracemalloc.start()
        try:
            loaded, _ = load_dataset_csv(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= loaded.features.nbytes + loaded.labels.nbytes + 64 * 1024
        assert loaded.features.flags.c_contiguous

    def test_traced_peak_is_the_parsed_block_and_the_labels(self, tmp_path) -> None:
        # the (n, d + 1) block and the int labels are 1.33x what is returned;
        # a second copy of the features would make it 2x
        path = str(tmp_path / "d.csv")
        save_dataset_csv(sample_gaussian(GaussianModel([2.0, 0.0], 0.5), 100_000, seed=1), path)
        load_dataset_csv(path)
        tracemalloc.start()
        try:
            loaded, _ = load_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (loaded.features.nbytes + loaded.labels.nbytes)

    @pytest.mark.parametrize(("name", "n", "dim"), [
        ("d.csv", 3 * _CSV_BLOCK_ROWS - 5, 2), ("d.csv.gz", _CSV_BLOCK_ROWS + 1, 3),
        ("one-row.csv", 1, 2), ("one-feature.csv", 2 * _CSV_BLOCK_ROWS, 1),
    ], ids=["plain", "gz", "one-row", "one-feature"])
    def test_features_are_packed_into_the_parsed_block(self, tmp_path, monkeypatch, name, n,
                                                       dim) -> None:
        data = sample_gaussian(GaussianModel(np.linspace(2.0, -1.0, dim), 0.4), n, seed=5)
        path = str(tmp_path / name)
        save_dataset_csv(data, path)
        parsed = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            parsed.append(loadtxt(*args, **kwargs))
            return parsed[-1]

        monkeypatch.setattr(np, "loadtxt", spy)
        loaded, _ = load_dataset_csv(path)
        # resize works on a block that owns its memory, and no copy is made
        assert loaded.features is parsed[0]
        assert loaded.features.flags.owndata and loaded.features.flags.c_contiguous
        assert loaded.features.shape == (n, dim)
        assert loaded.features.tobytes() == data.features.tobytes()
        assert loaded.labels.tobytes() == data.labels.tobytes()

    @pytest.mark.parametrize(("suffix", "opener"),
                             [(".gz", gzip.open), (".bz2", bz2.open), (".xz", lzma.open)])
    def test_compressed_by_suffix(self, data, tmp_path, suffix, opener) -> None:
        plain = tmp_path / "d.csv"
        packed = tmp_path / f"d.csv{suffix}"
        save_dataset_csv(data, str(plain))
        save_dataset_csv(data, str(packed))
        with opener(packed, "rb") as fh:
            assert fh.read() == plain.read_bytes()
        loaded, _ = load_dataset_csv(str(packed))
        np.testing.assert_array_equal(loaded.features, data.features)
        np.testing.assert_array_equal(loaded.labels, data.labels)

    def test_npz_path_is_refused_naming_the_csv_form(self, data, tmp_path) -> None:
        # neither written as CSV under that name nor read as CSV from it
        path = tmp_path / "d.npz"
        message = f"^{re.escape(str(path))}: datasets are CSV files .*\\.csv\\.gz"
        with pytest.raises(ValueError, match=message):
            save_dataset_csv(data, str(path), meta={"seed": 6})
        assert list(tmp_path.iterdir()) == []
        path.write_text("x_1,y\n0.5,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_dataset_csv(str(path))


def savetxt_reference(data: Dataset, path) -> None:
    """The writer ``save_dataset_csv`` replaced, kept as its oracle."""
    header = ",".join(f"x_{j + 1}" for j in range(data.dim)) + ",y"
    np.savetxt(path, np.column_stack([data.features, data.labels.astype(float)]),
               fmt=["%.17g"] * data.dim + ["%d"], delimiter=",", header=header, comments="")


class TestCsvMatchesSavetxt:
    B = _CSV_BLOCK_ROWS
    EXTREMES = [-0.0, 5e-324, 1e-310, 1.7976931348623157e308, -1e300]

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
    # "unit" is the scale of a generated Gaussian sample, where nearly every
    # value takes the fast path of the writer
    @pytest.mark.parametrize("exponents", [300, 0], ids=["wide", "unit"])
    def test_same_bytes(self, tmp_path, dim, n, exponents) -> None:
        rng = np.random.default_rng(1000 * dim + n)
        features = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-exponents, exponents + 1,
                                                                     size=(n, dim))
        head = min(n * dim, len(self.EXTREMES))
        features.flat[:head] = self.EXTREMES[:head]
        features.flat[-head:] = self.EXTREMES[:head]
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        labels[0], labels[-1] = -1, 1
        one = Dataset(features, labels)
        save_dataset_csv(one, str(tmp_path / "new.csv"))
        savetxt_reference(one, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def assert_g17(values) -> None:
    """``_format_g17`` writes each value as ``"%.17g" % v`` does."""
    values = np.asarray(values, dtype=float)
    got = [row.tobytes().translate(None, b"\0").decode() for row in _format_g17(values)]
    want = ["%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {values.size} differ, first (value, got, want): {bad[0]}"


class TestG17Exact:
    """The vectorized ``%.17g`` of the CSV writer against Python's own."""

    def test_random_bit_patterns(self) -> None:
        rng = np.random.default_rng(17)
        low, high = np.array([1e-7, 1e18]).view(np.int64)
        values = rng.integers(low, high, size=100_000, endpoint=True).view(np.float64)
        assert_g17(values * rng.choice([-1.0, 1.0], size=values.size))

    def test_powers_of_ten_and_their_neighbours(self) -> None:
        values = []
        for k in range(-5, 17):
            power = float(f"1e{k}")
            below = above = power
            values.append(power)
            for _ in range(3):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                values += [below, above]
        assert_g17(values)
        assert_g17(-np.array(values))

    def test_half_way_ties_round_to_even(self) -> None:
        # x = m / 2**j with m odd and j = 17 - X, X its decimal exponent:
        # x has 18 significant digits and the last is a 5, a tie at the 17th
        rng = np.random.default_rng(5)
        values = []
        for exponent in range(-4, 15):
            j = 17 - exponent
            low = math.ceil(Fraction(10) ** exponent * 2**j)
            high = math.floor(Fraction(10) ** (exponent + 1) * 2**j) - 1
            for m in rng.integers(low, high, size=20, endpoint=True).tolist():
                x = math.ldexp(m | 1, -j)
                scaled = Fraction(x) * Fraction(10) ** (16 - exponent)
                assert scaled.denominator == 2  # a tie, as constructed
                values.append(x)
        assert_g17(values)
        assert_g17(-np.array(values))

    def test_values_just_below_a_decade(self) -> None:
        # np.log10 may round these up to the next decade, which the exact
        # check takes back (999999999999999.88 is also a tie)
        assert_g17([0.99999999999999994, 0.00099999999999999980, 0.099999999999999992,
                    99.999999999999986, 9999999999999.998, 999999999999999.88])

    def test_fallback_values(self) -> None:
        assert_g17([0.0, -0.0, 5e-324, -1e-310, 9.9999999999999991e-05, 1e15, -1e15,
                    1.7976931348623157e308, 123456789012345678.0])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(features=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                             | st.floats(1e-4, 1e15).map(lambda v: -v)
                             | st.floats(1e-4, 1e15), min_size=1, max_size=3),
           label=st.sampled_from([-1, 1]))
    def test_one_row_dataset_matches_savetxt(self, tmp_path_factory, features, label) -> None:
        folder = tmp_path_factory.getbasetemp() / "one-row"
        folder.mkdir(exist_ok=True)
        one = Dataset(np.array([features]), np.array([label]))
        save_dataset_csv(one, str(folder / "new.csv"))
        savetxt_reference(one, folder / "old.csv")
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()
