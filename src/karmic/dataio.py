"""Dataset export/import: CSV files and their JSON sidecars.

The CSV layout is ``x_1, ..., x_d, y`` with a header row; labels are -1 or
+1, and the loader refuses any other label value (``1.7`` is an error, not
a ``1``).  A file may carry generation metadata (seed, model parameters)
in a ``<file>.meta.json`` sidecar written next to it.  CSV is the one
dataset format: a path ending in ``.npz`` is refused, not read or written
as CSV under that name.

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
    "sidecar_path",
    "write_sidecar",
    "read_sidecar",
]

#: rows formatted by one ``%`` operation in ``save_dataset_csv``, and moved
#: by one assignment in ``load_dataset_csv``; large enough that the
#: per-block Python overhead vanishes, small enough that a block's text
#: (or the buffer of an overlapping move) stays a few hundred kilobytes
_CSV_BLOCK_ROWS = 4096
#: the compressed formats ``np.savetxt`` and ``np.loadtxt`` pick by suffix
_CSV_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open, ".lzma": lzma.open}


def _opener(path: str):
    """The opener for a dataset CSV, picked by suffix as ``np.savetxt`` and
    ``np.loadtxt`` pick it; an ``.npz`` path is refused."""
    if path.endswith(".npz"):
        raise ValueError(f"{path}: datasets are CSV files (x_1,...,x_d,y with a header "
                         "row), plain or compressed as .csv.gz; NPZ is not supported")
    return _CSV_OPENERS.get(os.path.splitext(path)[1], open)


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
    opener = _opener(path)
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
    """Read a dataset CSV; returns the data and its sidecar metadata.

    The features are returned in the memory of the block ``np.loadtxt``
    parsed (see ``_pack_features``), so the load holds that block and the
    int labels at its peak, never a second copy of the features.
    """
    _opener(path)  # refuses a path that names another format
    with warnings.catch_warnings():
        # an empty body is reported as EmptyDataError below, not as a warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {_first_bad_row(path) or exc}") from None
    if raw.size == 0:
        raise EmptyDataError(f"{path} contains no data rows")
    if raw.shape[1] < 2:
        raise ValueError(f"{path} needs at least one feature column and a label column")
    column = raw[:, -1]
    bad = np.flatnonzero((column != 1) & (column != -1))
    if bad.size:
        raise ValueError(f"{path}: data row {bad[0] + 1} has label "
                         f"{float(column[bad[0]])!r}; labels must be -1 or +1")
    labels = column.astype(int)
    del column
    return Dataset(_pack_features(raw), labels), read_sidecar(path)


def _pack_features(block: np.ndarray) -> np.ndarray:
    """The ``(n, d)`` features of an ``(n, d + 1)`` block, in the block's own
    memory: the feature columns move to its front ``_CSV_BLOCK_ROWS`` rows
    at a time, then the block shrinks in place to ``n * d`` floats.

    Row i moves to flat offset i*d from i*(d+1), so no row is overwritten
    before it is read, and numpy buffers the overlap within a chunk.  The
    block must own its data and have no view alive: ``resize`` does not
    check, and a view would be left pointing at freed memory.
    """
    n, d = block.shape[0], block.shape[1] - 1
    flat = block.reshape(-1)
    for start in range(0, n, _CSV_BLOCK_ROWS):
        stop = min(start + _CSV_BLOCK_ROWS, n)
        flat[start * d:stop * d].reshape(stop - start, d)[...] = block[start:stop, :d]
    del flat
    block.resize((n, d), refcheck=False)
    return block


def _first_bad_row(path: str) -> str | None:
    """The first data row (from 1, skipping blank and ``#`` lines) with a cell
    that is not a float or a column count other than data row 1's."""
    with _opener(path)(path, "rt", encoding="utf-8", errors="replace") as fh:
        next(fh, None)  # the header
        width, row = None, 0
        for line in fh:
            body = line.split("#", 1)[0]
            if not body.strip():
                continue
            row += 1
            cells = body.split(",")
            width = width or len(cells)
            if len(cells) != width:
                return f"data row {row}: {len(cells)} columns, but data row 1 has {width}"
            for column, cell in enumerate(cells, 1):
                try:
                    # np.loadtxt, unlike float(), refuses digit separators and
                    # non-ASCII digits (it strips any Unicode space, as strip() does)
                    if not cell.strip().isascii():
                        raise ValueError(cell)
                    float(cell.replace("_", " "))
                except ValueError:
                    return f"data row {row}: column {column} is {cell.strip()!r}, not a number"
    return None

