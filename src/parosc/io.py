"""Deterministic CSV/JSON emission: the one place that knows the output formats.

CSV contract: a header line, comma separators, UTF-8 and LF endings.  A table
is a mapping from column name to an equal-length 1-D array; integer columns are
written with ``%d`` and every other column in full-precision scientific
notation (``%.17e``), so identical configs give byte-identical files.

A column in which each distinct value appears at least twice on average (the
Q and P axes of a long-format grid) has each distinct value formatted once, and
the rows take its strings; distinct values are told apart by their bit
patterns, so 0.0 and -0.0 and two NaN payloads stay apart.  The bytes are those
of formatting every row.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from itertools import chain
from pathlib import Path

import numpy as np


def write_csv(path: Path | str, columns: Mapping[str, np.ndarray]) -> Path:
    """Write the table ``columns`` (header name -> 1-D array) as one CSV file."""
    path = Path(path)
    arrays = [np.asarray(c) for c in columns.values()]
    if not arrays or any(a.ndim != 1 or len(a) != len(arrays[0]) for a in arrays):
        raise ValueError(f"{path.name}: columns must be 1-D arrays of equal length")
    formats, cells = zip(*map(_cells, arrays))
    # the values run row by row, so each repeat of the row format formats one row
    values = tuple(chain.from_iterable(zip(*cells)))
    body = (",".join(formats) + "\n") * len(arrays[0]) % values
    path.write_text(",".join(columns) + "\n" + body, encoding="utf-8", newline="\n")
    return path


def _cells(a: np.ndarray) -> tuple[str, list]:
    """The row format of column ``a`` and the values the rows interpolate into it.

    The values are strings, each distinct value formatted once, if every one
    is used twice on average: then at most half as many values are formatted,
    and each row interpolates a string, which costs far less than a number.
    Otherwise (or if the dtype has no bit pattern to key on) they are the
    numbers themselves.
    """
    fmt = "%d" if a.dtype.kind in "iu" else "%.17e"
    if not a.size or a.dtype.kind not in "biuf" or a.dtype.itemsize not in (1, 2, 4, 8):
        return fmt, a.tolist()
    bits = a.view(f"u{a.dtype.itemsize}")
    ordered = np.sort(bits)     # np.unique would sort too, at several times the cost
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if 2 * len(distinct) > len(a):
        return fmt, a.tolist()
    strings = np.array([fmt % v for v in distinct.view(a.dtype).tolist()], dtype=object)
    return "%s", strings[np.searchsorted(distinct, bits)].tolist()


def write_json(path: Path | str, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")
    return path
