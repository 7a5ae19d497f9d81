"""Dataset export/import: CSV, a compressed binary cache, JSON sidecars.

The CSV layout is ``x_1, ..., x_d, y`` with a header row; labels are -1 or
+1, and the loader refuses any other label value (``1.7`` is an error, not
a ``1``).  The binary cache is a compressed NPZ with ``features`` and
``labels`` arrays.  Either format may carry generation metadata (seed,
model parameters) in a ``<file>.meta.json`` sidecar written next to it.

Floats are written with 17 significant digits, so a save/load round trip is
exact.  The CSV writer formats blocks of ``_CSV_BLOCK_ROWS`` rows with one
``%`` operation each, instead of one per row as ``np.savetxt`` does, and
writes the same bytes that ``np.savetxt`` with ``fmt="%.17g"`` (``%d`` for
the label) writes.  As with ``np.savetxt``, a path ending in ``.gz``,
``.bz2``, ``.xz`` or ``.lzma`` is written compressed; ``np.loadtxt``, the
reader, decompresses it by the same suffix.
"""

from __future__ import annotations

import bz2
import gzip
import json
import lzma
import os
import warnings

import numpy as np

from .confusion import Dataset
from .errors import EmptyDataError

__all__ = [
    "save_dataset_csv",
    "load_dataset_csv",
    "save_dataset_npz",
    "load_dataset_npz",
    "sidecar_path",
    "write_sidecar",
    "read_sidecar",
]

#: rows formatted by one ``%`` operation in ``save_dataset_csv``; large
#: enough that the per-block Python overhead vanishes, small enough that a
#: block's text stays a few hundred kilobytes
_CSV_BLOCK_ROWS = 4096
#: the compressed formats ``np.savetxt`` and ``np.loadtxt`` pick by suffix
_CSV_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open, ".lzma": lzma.open}


def sidecar_path(path: str) -> str:
    return f"{path}.meta.json"


def write_sidecar(path: str, meta: dict) -> str:
    side = sidecar_path(path)
    with open(side, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return side


def read_sidecar(path: str) -> dict | None:
    side = sidecar_path(path)
    if not os.path.exists(side):
        return None
    with open(side, encoding="utf-8") as fh:
        return json.load(fh)


def save_dataset_csv(data: Dataset, path: str, meta: dict | None = None) -> None:
    """Write features and labels as CSV."""
    if data.n == 0:
        raise EmptyDataError("refusing to write an empty dataset")
    header = ",".join(f"x_{j + 1}" for j in range(data.dim)) + ",y\n"
    row = "%.17g," * data.dim + "%d\n"
    opener = _CSV_OPENERS.get(os.path.splitext(path)[1], open)
    with opener(path, "wt", encoding="utf-8") as fh:
        fh.write(header)
        for start in range(0, data.n, _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            # the label goes through a float column and prints with %d
            block = np.column_stack([data.features[start:stop], data.labels[start:stop]])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
    if meta is not None:
        write_sidecar(path, meta)


def load_dataset_csv(path: str) -> tuple[Dataset, dict | None]:
    """Read a dataset CSV; returns the data and its sidecar metadata."""
    with warnings.catch_warnings():
        # an empty body is reported as EmptyDataError below, not as a warning
        warnings.simplefilter("ignore", UserWarning)
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if raw.size == 0:
        raise EmptyDataError(f"{path} contains no data rows")
    if raw.shape[1] < 2:
        raise ValueError(f"{path} needs at least one feature column and a label column")
    labels = raw[:, -1]
    bad = np.flatnonzero((labels != 1) & (labels != -1))
    if bad.size:
        raise ValueError(f"{path}: data row {bad[0] + 1} has label "
                         f"{float(labels[bad[0]])!r}; labels must be -1 or +1")
    return Dataset(raw[:, :-1], labels), read_sidecar(path)


def save_dataset_npz(data: Dataset, path: str, meta: dict | None = None) -> None:
    """Write the compressed binary cache of a dataset."""
    if data.n == 0:
        raise EmptyDataError("refusing to write an empty dataset")
    np.savez_compressed(path, features=data.features, labels=data.labels)
    if meta is not None:
        target = path if path.endswith(".npz") else f"{path}.npz"
        write_sidecar(target, meta)


def load_dataset_npz(path: str) -> tuple[Dataset, dict | None]:
    with np.load(path) as payload:
        data = Dataset(payload["features"], payload["labels"])
    return data, read_sidecar(path)
