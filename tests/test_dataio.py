"""Dataset files: CSV and NPZ round trips with JSON sidecars."""

from __future__ import annotations

import bz2
import gzip
import lzma

import numpy as np
import pytest

from karmic import Dataset, EmptyDataError, GaussianModel, sample_gaussian
from karmic.dataio import (
    _CSV_BLOCK_ROWS,
    load_dataset_csv,
    load_dataset_npz,
    read_sidecar,
    save_dataset_csv,
    save_dataset_npz,
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
    def test_same_bytes(self, tmp_path, dim, n) -> None:
        rng = np.random.default_rng(1000 * dim + n)
        features = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-300, 300, size=(n, dim))
        head = min(n * dim, len(self.EXTREMES))
        features.flat[:head] = self.EXTREMES[:head]
        features.flat[-head:] = self.EXTREMES[:head]
        labels = np.where(rng.random(n) < 0.5, 1, -1)
        labels[0], labels[-1] = -1, 1
        one = Dataset(features, labels)
        save_dataset_csv(one, str(tmp_path / "new.csv"))
        savetxt_reference(one, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestNpz:
    def test_exact_roundtrip(self, data, tmp_path) -> None:
        path = str(tmp_path / "d.npz")
        save_dataset_npz(data, path, meta={"kind": "cache"})
        loaded, meta = load_dataset_npz(path)
        np.testing.assert_array_equal(loaded.features, data.features)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        assert meta == {"kind": "cache"}

    def test_empty_dataset_refused(self, tmp_path) -> None:
        empty = Dataset(np.zeros((0, 1)), np.array([], dtype=int))
        with pytest.raises(EmptyDataError):
            save_dataset_npz(empty, str(tmp_path / "e.npz"))
