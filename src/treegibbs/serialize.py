"""Deterministic serialization for report artifacts.

Every float in a JSON or CSV artifact is the text ``format(x, ".17g")``:
17 significant digits, enough to round-trip a double, so identical runs
produce byte-identical files and regression diffs stay meaningful.
``fmt_float`` renders one value.  ``fmt_float_column`` renders a whole
array into byte cells without a Python call per value in [1e-4, 1), where
sampled spins live, and ``csv_rows`` joins cell columns into CSV lines.

A cell column is an (n, width) uint8 array; its NUL bytes are padding and
may sit anywhere in a row, so the text of cell i is row i without them.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

CELL_WIDTH = 24  # the longest ".17g" text of a double: "-2.2250738585072014e-308"

# Each of these doubles lies above its decimal value, so x >= 10.0**-k holds
# exactly when the real x is at least 10^-k.
_DECADES = np.array([1e-3, 1e-2, 1e-1])
_SCALES = np.array([1e20, 1e19, 1e18, 1e17])  # _SCALES[i] == 10**(20 - i), exact doubles
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """Word tables of ``_fixed_cells``, built on first use to keep import cheap.

    ``groups[g]`` holds the four ASCII digits of 0 <= g < 10**4 in one word
    and ``groups[10**4 + g]`` the same digits with the trailing zeros made
    NUL; ``heads[10 * i + d]`` is "0.", 3 - i zeros and the digit d, in two
    words.
    """
    g = np.arange(10**4)[:, None]
    full = (g // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    trailing = g % np.array([10**4, 1000, 100, 10]) == 0  # digit p and all after it are 0
    groups = np.concatenate([full, np.where(trailing, 0, full).astype(np.uint8)]).view(np.uint32).ravel()
    heads = np.array([f"0.{'0' * (3 - i)}{d}" for i in range(4) for d in range(10)], dtype="S8")
    return groups, heads.view(np.uint32).reshape(40, 2)


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value cannot be serialized: {x!r}")
    return format(x, ".17g")


def text_cells(strings) -> np.ndarray:
    """Cell column of ASCII strings, NUL-padded on the right."""
    a = np.array(strings, dtype="S")
    return a.view(np.uint8).reshape(len(a), a.itemsize)


def _split(a):
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """(p, err) with p + err == a * b exactly (Dekker's TwoProduct)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fixed_cells(x: np.ndarray) -> np.ndarray:
    """CELL_WIDTH-byte cells of ``format(v, ".17g")`` for v in [1e-4, 1):
    "0.", up to three zeros, then 17 digits without trailing zeros.

    With i decades above 1e-4, y = v * 10^(20-i) lies in [1e16, 1e17), so
    its double hi is an integer and y = hi + lo exactly; rounding y half to
    even gives the 17 digits.  It never rounds up to 1e17: a double that
    close below 10^(i-3) would be the double nearest to it, and for these
    four powers of ten that double is not below it.
    """
    i = np.searchsorted(_DECADES, x, side="right")
    hi, lo = _two_product(x, _SCALES[i])
    whole = np.floor(lo)
    frac = lo - whole
    n = hi.astype(np.int64) + whole.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & (n & 1 == 1))
    lead = n // 10**16
    rest = n - lead * 10**16
    groups = []
    for scale in (10**12, 10**8, 10**4):
        groups.append(rest // scale)
        rest -= groups[-1] * scale
    groups.append(rest)
    group_words, head_words = _digit_words()
    words = np.empty((x.size, CELL_WIDTH // 4), np.uint32)
    words[:, :2] = head_words[10 * i + lead]
    tail_zero = np.ones(x.size, bool)  # every group after group j is zero
    for j in reversed(range(4)):
        words[:, 2 + j] = group_words[groups[j] + 10**4 * tail_zero]
        tail_zero &= groups[j] == 0
    return words.view(np.uint8)


def fmt_float_column(x) -> np.ndarray:
    """Cell column with ``fmt_float(v)`` for each v of ``x`` (flattened in C
    order), CELL_WIDTH bytes wide.

    Values in [1e-4, 1) are formatted with integer arithmetic on exact
    products; every other value goes through ``fmt_float``, so non-finite
    input raises ValueError.
    """
    x = np.asarray(x, dtype=float).ravel()
    fast = (x >= 1e-4) & (x < 1.0)
    cells = _fixed_cells(np.where(fast, x, 0.5))
    slow = np.flatnonzero(~fast)
    if slow.size:
        other = text_cells([fmt_float(v) for v in x[slow].tolist()])
        cells[slow] = 0
        cells[slow, : other.shape[1]] = other
    return cells


def csv_rows(*columns: np.ndarray) -> bytes:
    """CSV lines from cell columns of equal length: the cells of row i
    joined by ',' and ended by a newline."""
    n = columns[0].shape[0]
    sep = np.full((n, 1), ord(","), np.uint8)
    parts = [part for column in columns for part in (sep, column)][1:]
    flat = np.concatenate(parts + [np.full((n, 1), ord("\n"), np.uint8)], axis=1).ravel()
    return flat.compress(flat != 0).tobytes()


def dumps(obj, indent: int = 2) -> str:
    """JSON-serialize nested dicts/lists of scalars with fixed float format."""
    return _encode(obj, indent, 0) + "\n"


def _encode(obj, indent, level):
    pad = " " * (indent * (level + 1))
    close = " " * (indent * level)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {_encode(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + close + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}{_encode(v, indent, level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + close + "]"
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")
