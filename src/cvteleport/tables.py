"""Tabular results with exact CSV/JSON round-trips.

A table's rows are one read-only float64 array of shape (n, len(columns)).
CSV: metadata travels as '#'-prefixed JSON header lines above an RFC-4180
body whose floats carry 17 significant digits, enough to reproduce every
float64 bit for bit. The body is formatted in blocks of rows with one
``%`` per block. A column whose every cell is a whole number below 2**53
in magnitude, and none of them -0.0, is written with ``%d`` from int64,
which gives the bytes ``%.17g`` gives and costs less. So the body still
matches numpy's ``savetxt`` with ``fmt="%.17g"``, ``delimiter=","`` and
``newline="\\r\\n"`` byte for byte. JSON: one
top-level object with "metadata", "columns" and "rows".
parse(serialize(table)) == table holds exactly for both formats; equality
counts NaN cells as equal, and -0.0 as equal to 0.0.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["OutputTable"]

# rows formatted per ``%``: whole-body formatting is slower and lifts peak memory
_BLOCK_ROWS = 4096


def _integral(column: np.ndarray) -> bool:
    """Whether '%d' of every cell, as an int, is the cell's '%.17g'.

    True when all cells are whole numbers below 2**53 in magnitude and none
    is -0.0, which '%.17g' writes as '-0'.
    """
    whole = np.abs(column) < 2.0**53
    whole &= column == np.trunc(column)
    return bool(whole.all()) and not np.signbit(column[column == 0.0]).any()


@dataclass
class OutputTable:
    columns: list[str]
    rows: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # the reshape gives a zero-row table its width and refuses rows of any other width
        rows = np.array(self.rows, dtype=float).reshape(len(self.rows), len(self.columns))
        rows.flags.writeable = False
        self.rows = rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutputTable):
            return NotImplemented
        return (
            self.columns == other.columns
            and self.metadata == other.metadata
            and np.array_equal(self.rows, other.rows, equal_nan=True)
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("# " + json.dumps(self.metadata, sort_keys=True) + "\r\n")
        csv.writer(buf, quoting=csv.QUOTE_MINIMAL).writerow(self.columns)
        width = self.rows.shape[1]
        integral = [_integral(column) for column in self.rows.T]
        line = ",".join(["%d" if i else "%.17g" for i in integral]) + "\r\n"
        for start in range(0, len(self.rows), _BLOCK_ROWS):
            block = self.rows[start : start + _BLOCK_ROWS]
            cells = [None] * block.size
            for j, column in enumerate(block.T):
                cells[j::width] = (column.astype(np.int64) if integral[j] else column).tolist()
            buf.write((line * len(block)) % tuple(cells))
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "OutputTable":
        meta_lines = []
        body_lines = []
        for line in text.splitlines():
            if line.startswith("#"):
                meta_lines.append(line.lstrip("#").strip())
            elif line.strip() or not body_lines or not body_lines[0]:
                # the first line is the header even when blank; only a blank
                # (zero-column) header makes blank lines zero-cell rows
                body_lines.append(line)
        metadata = json.loads("\n".join(meta_lines)) if meta_lines else {}
        if not body_lines:
            raise ValueError("CSV table has no header line")
        header, *rows = csv.reader(body_lines)
        return cls(columns=header, rows=rows, metadata=metadata)

    def to_json(self) -> str:
        payload = {"metadata": self.metadata, "columns": self.columns, "rows": self.rows.tolist()}
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "OutputTable":
        payload = json.loads(text)
        try:
            columns, rows, metadata = payload["columns"], payload["rows"], payload["metadata"]
        except KeyError as exc:
            raise ValueError(f"JSON table has no {exc} key") from None
        return cls(columns=list(columns), rows=rows, metadata=dict(metadata))

    def serialize(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}")

    @classmethod
    def parse(cls, text: str, fmt: str) -> "OutputTable":
        if fmt == "csv":
            return cls.from_csv(text)
        if fmt == "json":
            return cls.from_json(text)
        raise ValueError(f"unknown format {fmt!r}")
