"""CSV serialization helpers.

Floats are rendered in scientific notation with 17 significant digits,
which round-trips IEEE doubles exactly; integers are rendered as such.
"""

from __future__ import annotations

import csv
import numbers
import os
from pathlib import Path


def format_value(v) -> str:
    if isinstance(v, numbers.Integral) and not isinstance(v, bool):
        return str(v)
    if isinstance(v, str):
        return v
    return f"{float(v):.16e}"


def write_csv(path, header, columns) -> None:
    """Write named columns (equal length) to a CSV file."""
    lengths = [len(c) for c in columns]
    if len(header) != len(columns) or len(set(lengths)) > 1:
        raise ValueError(f"need one equal-length column per header name, got "
                         f"{len(header)} names and column lengths {lengths}")
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    rows = zip(*columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def read_csv(path) -> dict:
    """Read a CSV written by write_csv back into float column arrays."""
    import numpy as np

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = {name: [] for name in header}
        for row in reader:
            for name, v in zip(header, row):
                cols[name].append(v)
    out = {}
    for name, vals in cols.items():
        try:
            out[name] = np.array([float(v) for v in vals])
        except ValueError:
            out[name] = np.array(vals)
    return out


def default_output_dir() -> Path:
    """Output directory, overridable through EQUIFD_OUTDIR."""
    return Path(os.environ.get("EQUIFD_OUTDIR", "."))
