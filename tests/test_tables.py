import json
import math

import numpy as np
import pytest

from cvteleport.tables import OutputTable


def sample_table():
    return OutputTable(
        columns=["q", "value"],
        rows=[[0.1, 1.0 / 3.0], [0.5, math.pi], [0.99, 2.2250738585072014e-308]],
        metadata={"command": "demo", "seed": 7, "nested": {"a": 1}},
    )


def test_csv_round_trip_is_exact():
    table = sample_table()
    assert OutputTable.from_csv(table.to_csv()) == table


def test_json_round_trip_is_exact():
    table = sample_table()
    assert OutputTable.from_json(table.to_json()) == table


def test_round_trip_preserves_awkward_floats():
    values = [0.1 + 0.2, 1e-300, 1.7976931348623157e308, -0.0, 4503599627370497.0]
    values += [math.nan, math.inf, -math.inf]
    table = OutputTable(columns=["v"], rows=[[v] for v in values], metadata={})
    for fmt in ("csv", "json"):
        back = OutputTable.parse(table.serialize(fmt), fmt)
        assert back == table
        for (got,), (want,) in zip(back.rows, table.rows):
            assert math.copysign(1.0, got) == math.copysign(1.0, want)


def test_csv_layout():
    text = sample_table().to_csv()
    lines = text.splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "q,value"
    # metadata line is valid JSON on its own
    meta = json.loads(lines[0][1:])
    assert meta["seed"] == 7


def test_json_top_level_shape():
    payload = json.loads(sample_table().to_json())
    assert set(payload.keys()) == {"metadata", "columns", "rows"}
    assert payload["columns"] == ["q", "value"]


def test_metadata_key_order_is_irrelevant_to_equality():
    a = OutputTable(columns=["x"], rows=[[1.0]], metadata={"p": 1, "q": 2})
    b = OutputTable(columns=["x"], rows=[[1.0]], metadata={"q": 2, "p": 1})
    assert a == b


def test_ragged_rows_rejected():
    for rows in ([[1.0]], [[1.0, 2.0], [3.0]], [[1.0, 2.0, 3.0]], [1.0, 2.0]):
        with pytest.raises(ValueError):
            OutputTable(columns=["a", "b"], rows=rows)


@pytest.mark.parametrize(
    "parse, text, missing",
    [
        (OutputTable.from_csv, "", "header"),
        (OutputTable.from_csv, "# {}\r\n", "header"),
        (OutputTable.from_json, "{}", "columns"),
        (OutputTable.from_json, '{"columns": ["a"], "metadata": {}}', "rows"),
    ],
)
def test_parse_names_missing_part(parse, text, missing):
    with pytest.raises(ValueError, match=missing):
        parse(text)


@pytest.mark.parametrize("columns", [["a", "b"], ["only"]])
@pytest.mark.parametrize("n_rows", [0, 1, 3])
def test_round_trip_keeps_shape(columns, n_rows):
    rows = np.arange(n_rows * len(columns), dtype=float).reshape(n_rows, len(columns)) / 7.0
    table = OutputTable(columns=columns, rows=rows.tolist(), metadata={"n": n_rows})
    assert table.rows.shape == (n_rows, len(columns))
    for fmt in ("csv", "json"):
        back = OutputTable.parse(table.serialize(fmt), fmt)
        assert back == table
        assert back.rows.shape == (n_rows, len(columns))


def test_rows_are_one_read_only_array():
    source = np.array([[1.0, 2.0]])
    table = OutputTable(columns=["a", "b"], rows=source)
    assert table.rows.dtype == np.float64 and not table.rows.flags.writeable
    source[0, 0] = 9.0
    assert table.rows[0, 0] == 1.0
    assert table != OutputTable(columns=["a", "b"], rows=[[1.0, 2.0], [1.0, 2.0]])


def test_unknown_format_rejected():
    table = sample_table()
    with pytest.raises(ValueError):
        table.serialize("yaml")
    with pytest.raises(ValueError):
        OutputTable.parse("", "yaml")


def test_rows_are_coerced_to_float():
    table = OutputTable(columns=["n"], rows=[[np.float64(2.5)], [3]], metadata={})
    assert isinstance(table.rows[0][0], float)
    assert table.rows[1][0] == 3.0


def test_from_csv_ignores_blank_lines():
    text = sample_table().to_csv() + "\r\n\r\n"
    assert OutputTable.from_csv(text) == sample_table()
