"""Dataset export/import: CSV files and their JSON sidecars.

The CSV layout is ``x_1, ..., x_d, y`` with a header row; labels are -1 or
+1, and the loader refuses any other label value (``1.7`` is an error, not
a ``1``).  A file may carry generation metadata (seed, model parameters)
in a ``<file>.meta.json`` sidecar written next to it.  CSV is the one
dataset format: a path ending in ``.npz`` is refused, not read or written
as CSV under that name.

Floats are written with 17 significant digits, so a save/load round trip is
exact.  The CSV writer writes the same bytes that ``np.savetxt`` with
``fmt="%.17g"`` (``%d`` for the label) writes, ``_CSV_BLOCK_ROWS`` rows at
a time, with numpy array operations instead of one ``%`` per value.  A
value with ``1e-4 <= |v| < 1e15``, where ``%.17g`` writes fixed notation,
gets its digits from exact IEEE arithmetic, so they do not depend on the
CPU or its math library (see ``_format_g17``); every other value, zero
included, is formatted by ``%`` itself.  As with ``np.savetxt``, a path
ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` is written compressed;
``np.loadtxt``, the reader, decompresses it by the same suffix.
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

#: rows laid out at once by ``save_dataset_csv``, and moved by one
#: assignment in ``load_dataset_csv``; large enough that the
#: per-block Python overhead vanishes, small enough that a block's text
#: (or the buffer of an overlapping move) stays a few hundred kilobytes
_CSV_BLOCK_ROWS = 4096
#: bytes of a value's text as ``_format_g17`` lays it out: a sign, ``0.``
#: and up to three zeros, and 17 digits each followed by a byte for the
#: point; ``%.17g`` itself writes at most 24 (``-2.2250738585072014e-308``)
_TEXT = 40
#: bytes per value in a block of ``save_dataset_csv``: its text and a separator
_CELL = _TEXT + 1
#: 10**s as a double, exact for s <= 22 since 5**22 < 2**53
_POW10 = np.array([float(10**s) for s in range(23)])
#: ``b"0000"`` to ``b"9999"``, one 4-byte word each
_QUADS = (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()
#: what comes before the digits of a value with decimal exponent -4 .. -1
_LEADS = np.frombuffer(b"0.000" b"0.00\0" b"0.0\0\0" b"0.\0\0\0", np.uint8).reshape(4, 5)
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
    cells = bytearray(min(data.n, _CSV_BLOCK_ROWS) * (data.dim + 1) * _CELL)
    opener = _opener(path)
    with opener(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, data.n, _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            _lay_out_rows(data.features[start:stop], data.labels[start:stop], cells)
            fh.write(cells.translate(None, b"\0"))
    if meta is not None:
        write_sidecar(path, meta)


def _lay_out_rows(features: np.ndarray, labels: np.ndarray, cells: bytearray) -> None:
    """Lay out CSV rows in ``cells``, ``_CELL`` NUL-padded bytes per value:
    deleting the NULs leaves the text ``np.savetxt`` writes for the rows
    (``%.17g`` features, ``%d`` labels, comma separated)."""
    m, d = features.shape
    flat = np.frombuffer(cells, np.uint8)
    flat[:] = 0  # a last, shorter block leaves only NULs after its rows
    rows = flat[:m * (d + 1) * _CELL].reshape(m, d + 1, _CELL)
    rows[:, :, _TEXT] = ord(",")
    rows[:, d, _TEXT] = ord("\n")
    negative = labels < 0
    rows[:, d, 0] = np.where(negative, ord("-"), ord("1"))
    rows[:, d, 1] = np.where(negative, ord("1"), 0)
    rows[:, :d, :_TEXT] = _format_g17(features.reshape(-1)).reshape(m, d, _TEXT)


def _format_g17(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each value, as a row of ``_TEXT`` NUL-padded bytes.

    A value with ``1e-4 <= |v| < 1e15`` takes the fast path, where ``%.17g``
    writes fixed notation.  With X the decimal exponent of v, its 17
    digits are the integer N nearest |v| * 10**(16 - X), ties to even; the
    text is N with the point after its first X + 1 digits (or behind ``0.``
    and -X - 1 zeros), less trailing zeros.  Each step that decides a digit
    is exact IEEE arithmetic: 10**s is an exact double for s <= 22,
    Dekker's product gives |v| * 10**s as p + e with no rounding, and p,
    at least 1e16 > 2**53, is an even integer, so N = p + rint(e).
    ``np.log10`` only seeds X: exact comparisons of p + e with 1e16 and 1e17
    correct it once, and a value still outside them falls back.  Every
    other value, zero included, goes through ``%`` itself.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)
    a[~fast] = 1.0
    exponent = np.floor(np.log10(a)).astype(np.intp)
    p, e = _times_pow10(a, 16 - exponent)
    fix = np.flatnonzero(_decade_error(p, e))
    if fix.size:
        exponent[fix] -= _decade_error(p[fix], e[fix])
        p[fix], e[fix] = _times_pow10(a[fix], 16 - exponent[fix])
        fast[fix[_decade_error(p[fix], e[fix]) != 0]] = False
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    # no double in the fast range lies within 1/2 of 1e17 at its scale, so
    # rounding never carries into an 18th digit; a value that did falls back
    fast &= n < 10**17
    digits = _digits17(n)
    # the last digit written: the last nonzero one, or the last before the point
    last = np.full(x.size, 16, np.intp)
    ends_in_zero = np.flatnonzero(digits[:, 16] == ord("0"))
    if ends_in_zero.size:
        tail = digits[ends_in_zero]
        last[ends_in_zero] = 16 - np.argmax(tail[:, ::-1] != ord("0"), axis=1)
        keep = np.maximum(last[ends_in_zero], exponent[ends_in_zero])
        tail[np.arange(17) > keep[:, None]] = 0
        digits[ends_in_zero] = tail
    text = np.zeros((x.size, _TEXT), np.uint8)
    text[:, 0] = np.where(x < 0, ord("-"), 0)
    text[:, 6::2] = digits  # each digit is followed by a byte for the point
    below_one = np.flatnonzero(fast & (exponent < 0))
    text[below_one, 1:6] = _LEADS[exponent[below_one] + 4]
    point = np.flatnonzero(fast & (exponent >= 0) & (last > exponent))
    text.reshape(-1)[point * _TEXT + 7 + 2 * exponent[point]] = ord(".")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = np.array(["%.17g" % v for v in x[slow].tolist()],
                              dtype=f"S{_TEXT}").view(np.uint8).reshape(slow.size, -1)
    return text


def _times_pow10(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, e)`` with p = fl(a * 10**s) and p + e = a * 10**s exactly
    (Dekker's product; no term overflows or underflows in the fast range)."""
    b = _POW10[s]
    p = a * b
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = _veltkamp(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split doubles into two halves of at most 26 significant bits each."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _decade_error(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """+1 where p + e < 1e16, -1 where p + e >= 1e17, else 0."""
    return (((p < 1e16) | ((p == 1e16) & (e < 0))).astype(np.intp)
            - ((p > 1e17) | ((p == 1e17) & (e >= 0))))


def _digits17(n: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each integer in [1e16, 1e17), as bytes."""
    lead = n // 10**16
    rest = n - lead * 10**16
    high = (rest // 10**8).astype(np.int32)
    low = (rest - high.astype(np.int64) * 10**8).astype(np.int32)
    quads = np.empty((n.size, 5), np.uint32)  # 3 spare bytes, the lead, 16 digits
    for column, eight in ((1, high), (3, low)):
        top = eight // 10_000
        quads[:, column] = _QUADS[top]
        quads[:, column + 1] = _QUADS[eight - top * 10_000]
    digits = quads.view(np.uint8)[:, 3:]
    digits[:, 0] = lead + ord("0")
    return digits


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

