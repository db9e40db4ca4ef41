"""Tabular results with exact CSV/JSON round-trips.

A table's rows are one read-only float64 array of shape (n, len(columns)).
CSV: metadata travels as '#'-prefixed JSON header lines above an RFC-4180
body whose floats carry 17 significant digits, enough to reproduce every
float64 bit for bit. The body is formatted by numpy in blocks of rows. A
cell that ``%.17g`` writes in fixed notation (decimal exponent -4..16) gets
its 17 significant digits by exact integer arithmetic, rounded half to even
as Python's float formatting rounds (Steele & White, PLDI 1990): a 128-bit
m * 5**p, shifted. Its text is NUL-padded 4-byte words from one lookup
table, and one boolean compaction per block drops the padding. The other
cells (exponent form, nan, inf) go through one ``%`` per block. So the body
matches numpy's ``savetxt`` with ``fmt="%.17g"``, ``delimiter=","`` and
``newline="\\r\\n"`` byte for byte. JSON: one
top-level object with "metadata", "columns" and "rows".
parse(serialize(table)) == table holds exactly for both formats; equality
counts NaN cells as equal, and -0.0 as equal to 0.0.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .sampler import _mulhilo

__all__ = ["OutputTable"]

# rows formatted per block: formatting the whole body at once lifts peak memory
_BLOCK_ROWS = 4096

_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)
_POW5 = np.array([5**j for j in range(22)], dtype=np.uint64)


# A cell in fixed notation is ten 4-byte words, each an entry of one table,
# with NUL bytes dropped:
#   0     the separator before it and its sign
#   1-4   its integer digits, from the first nonzero one; for |x| < 1, '0.' in word 4
#   5     a whole number's last digit; '.'; or, for |x| < 1, the zeros after
#         the point and the first significant digit
#   6-9   its fraction digits, up to the last nonzero one
_WORDS = 10
# The table's parts, in order, from index 0: the 4-digit groups as written, with
# leading zeros dropped and with trailing zeros dropped; separator and sign;
# last digits; '.', '0.' and the line end; zeros and a first digit.
_LEAD, _TRAIL, _SEP_SIGN, _LAST, _POINT, _ZERO_POINT, _CRLF, _ZEROS = np.cumsum(
    [10_000, 10_000, 10_000, 4, 10, 1, 1, 1]
)


@functools.cache
def _table() -> np.ndarray:
    """The word table, read-only uint32; built on first use, not at import."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    nonzero = digits != 0
    chars = (digits + ord("0")).astype(np.uint8)
    leading = chars * np.maximum.accumulate(nonzero, axis=1)
    trailing = chars * np.maximum.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    texts = ["", "-", ",", ",-", *"0123456789", ".", "0.", "\r\n"]
    texts += ["0" * z + d for z in range(4) for d in "0123456789"]
    short = np.array([t.encode("ascii") for t in texts], dtype="S4").view(np.uint8).reshape(-1, 4)
    table = np.concatenate([chars, leading, trailing, short]).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


def _whole(cells: np.ndarray) -> np.ndarray:
    """The cells that '%.17g' writes as all their digits: whole numbers below 1e17.

    -0.0 is one of them, written '-0'.
    """
    # a signalling NaN raises 'invalid' in trunc; it is no whole number either way
    with np.errstate(invalid="ignore"):
        return (np.abs(cells) < 1e17) & (cells == np.trunc(cells))


def _scaled(m: np.ndarray, e: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(m * 2**e * 10**(16 - k)), exactly, as uint64.

    With p = 16 - k this is m * 5**p / 2**s for s = -(e + p). For a cell
    m * 2**e that is no whole number, with 1e-4 <= |x| < 2**52 and k its
    decimal exponent give or take one, 0 <= p <= 21 and 0 <= s <= 47, so the
    product m * 5**p fits in 128 bits and the quotient in 64.
    """
    p = 16 - k
    hi, lo = _mulhilo(m, _POW5[p])
    s = (-(e + p)).astype(np.uint64)
    digits = hi << (np.uint64(63) - s) << np.uint64(1) | lo >> s
    unit = np.uint64(1) << s
    twice_rest = (lo & (unit - np.uint64(1))) << np.uint64(1)
    odd = (digits & np.uint64(1)).astype(bool)
    digits += (twice_rest > unit) | ((twice_rest == unit) & odd)
    return digits


def _significant(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'%.17g''s 17 significant digits D, 10**16 <= D < 10**17, and decimal
    exponent k of each x, 1e-4 <= x < 2**52 and no whole number."""
    bits = x.view(np.uint64)
    m = bits & np.uint64(2**52 - 1) | np.uint64(2**52)
    e = (bits >> np.uint64(52)).astype(np.int64) - 1075
    k = np.floor(np.log10(x)).astype(np.int64)
    d = _scaled(m, e, k)
    # log10 can misjudge k by one near a power of ten, and rounding can carry into one
    miss = (d >= _POW10[17]).astype(np.int64) - (d < _POW10[16])
    if miss.any():
        redo = miss != 0
        k[redo] += miss[redo]
        d[redo] = _scaled(m[redo], e[redo], k[redo])
    return d, k


def _groups(values: np.ndarray) -> list[np.ndarray]:
    """The four 4-digit groups of each value below 10**16, most significant first."""
    high = values // np.uint64(10**8)
    low = (values - high * np.uint64(10**8)).astype(np.uint32)
    high = high.astype(np.uint32)
    g0, g2 = high // 10_000, low // 10_000
    return [g0, high - g0 * 10_000, g2, low - g2 * 10_000]


def _body(block: np.ndarray, lines: np.ndarray, keep: np.ndarray) -> bytes:
    """The CSV lines of a block of rows, each cell as '%.17g' writes it.

    '%.17g' writes x in fixed notation when its decimal exponent is in
    -4..16: here the whole numbers below 1e17 and the other finite cells
    from 1e-4 up. Their digits come from integer arithmetic and their text
    from the word table. The other cells (exponent form, nan, inf) go
    through one '%' for the block. ``lines`` (at least as many rows as the
    block, each of width * _WORDS words and the line end) and ``keep`` (a
    bool per byte of ``lines``) are buffers the caller reuses for each block.
    """
    n_rows, width = block.shape
    cells = block.ravel()
    magnitude = np.abs(cells)
    whole = _whole(cells)
    fraction = (magnitude >= 1e-4) & (magnitude < 2.0**52) & ~whole
    rest = np.flatnonzero(~(whole | fraction))

    # per cell: the integer digits, the fraction digits as a 16-digit
    # integer, word 5's table index and whether |x| < 1; zero in the rest
    integer = np.zeros(cells.size, dtype=np.uint64)
    fraction_digits = np.zeros(cells.size, dtype=np.uint64)
    middle = np.zeros(cells.size, dtype=np.intp)
    below_one = np.zeros(cells.size, dtype=bool)

    number = magnitude[whole].astype(np.uint64)
    head = number // np.uint64(10)
    integer[whole] = head
    middle[whole] = _LAST + (number - head * np.uint64(10)).astype(np.intp)

    d, k = _significant(magnitude[fraction])
    small = k < 0
    shift = np.maximum(k, 0)
    point = _POW10[16 - shift]
    # the digits before the point; for |x| < 1, the first significant digit
    head = d // point
    integer[fraction] = head * ~small
    fraction_digits[fraction] = (d - head * point) * _POW10[shift]
    middle[fraction] = np.where(small, _ZEROS + 10 * (-1 - k) + head.astype(np.intp), _POINT)
    below_one[fraction] = small

    lines = lines[:n_rows]
    fields = lines[:, :-1].reshape(n_rows, width, _WORDS)
    table = _table()

    def put(j: int, word: np.ndarray) -> None:
        fields[:, :, j] = table.take(word).reshape(n_rows, width)

    separators = np.tile(_SEP_SIGN + 2 * (np.arange(width) > 0), n_rows)
    put(0, separators + (np.signbit(cells) & (whole | fraction)))
    g = _groups(integer)
    put(1, _LEAD + g[0])
    put(2, g[1] + _LEAD * (integer < _POW10[12]))
    put(3, g[2] + _LEAD * (integer < _POW10[8]))
    put(4, np.where(below_one, _ZERO_POINT, g[3] + _LEAD * (integer < _POW10[4])))
    put(5, middle)
    g = _groups(fraction_digits)
    trailing = np.ones(cells.size, dtype=bool)
    for j in (3, 2, 1, 0):
        put(6 + j, g[j] + _TRAIL * trailing)
        trailing &= g[j] == 0
    if rest.size:
        texts = ("%.17g," * rest.size % tuple(cells[rest].tolist())).split(",")[:-1]
        words = np.array(texts, dtype=f"S{4 * (_WORDS - 1)}").view(np.uint32)
        fields[rest // width, rest % width, 1:] = words.reshape(rest.size, _WORDS - 1)
    body = lines.view(np.uint8).ravel()
    keep = np.not_equal(body, 0, out=keep[: body.size])
    return body[keep].tobytes()


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
        # _body's buffers, allocated once and reused by every block
        n_words = self.rows.shape[1] * _WORDS + 1
        lines = np.empty((min(len(self.rows), _BLOCK_ROWS), n_words), dtype=np.uint32)
        lines[:, -1] = _table()[_CRLF]
        keep = np.empty(lines.nbytes, dtype=bool)
        for start in range(0, len(self.rows), _BLOCK_ROWS):
            buf.write(_body(self.rows[start : start + _BLOCK_ROWS], lines, keep).decode("ascii"))
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
