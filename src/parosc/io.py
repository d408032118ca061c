"""Deterministic CSV/JSON emission: the one place that knows the output formats.

CSV contract: a header line, comma separators, UTF-8 and LF endings.  A table
is a mapping from column name to an equal-length 1-D array; integer columns are
written with ``%d`` and every other column in full-precision scientific
notation (``%.17e``), so identical configs give byte-identical files.
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
    fmt = ",".join("%d" if a.dtype.kind in "iu" else "%.17e" for a in arrays) + "\n"
    # the values run row by row, so each repeat of fmt formats one row
    values = tuple(chain.from_iterable(zip(*(a.tolist() for a in arrays))))
    body = fmt * len(arrays[0]) % values
    path.write_text(",".join(columns) + "\n" + body, encoding="utf-8", newline="\n")
    return path


def write_json(path: Path | str, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8", newline="\n")
    return path
