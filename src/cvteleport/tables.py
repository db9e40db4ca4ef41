"""Tabular results with exact CSV/JSON round-trips.

CSV: metadata travels as '#'-prefixed JSON header lines above an RFC-4180
body whose floats carry 17 significant digits, enough to reproduce every
float64 bit for bit. JSON: one top-level object with "metadata", "columns"
and "rows". parse(serialize(table)) == table holds exactly for both formats;
equality counts NaN cells as equal, and -0.0 as equal to 0.0.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

__all__ = ["OutputTable"]


@dataclass
class OutputTable:
    columns: list[str]
    rows: list[list[float]]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")
        self.rows = [[float(v) for v in row] for row in self.rows]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutputTable):
            return NotImplemented
        return (
            self.columns == other.columns
            and self.metadata == other.metadata
            and len(self.rows) == len(other.rows)
            and all(
                x == y or (math.isnan(x) and math.isnan(y))
                for a, b in zip(self.rows, other.rows)
                for x, y in zip(a, b)
            )
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("# " + json.dumps(self.metadata, sort_keys=True) + "\r\n")
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([format(v, ".17g") for v in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "OutputTable":
        meta_lines = []
        body_lines = []
        for line in text.splitlines():
            if line.startswith("#"):
                meta_lines.append(line.lstrip("#").strip())
            elif line.strip():
                body_lines.append(line)
        metadata = json.loads("\n".join(meta_lines)) if meta_lines else {}
        reader = csv.reader(body_lines)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
        return cls(columns=header, rows=rows, metadata=metadata)

    def to_json(self) -> str:
        payload = {"metadata": self.metadata, "columns": self.columns, "rows": self.rows}
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "OutputTable":
        payload = json.loads(text)
        return cls(
            columns=list(payload["columns"]),
            rows=[list(row) for row in payload["rows"]],
            metadata=dict(payload["metadata"]),
        )

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
