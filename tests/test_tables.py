import decimal
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cvteleport.fock import number_state
from cvteleport.sampler import SamplerConfig, run_shots
from cvteleport.tables import _BLOCK_ROWS, OutputTable, _whole


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


def _savetxt_body(rows):
    buf = io.StringIO()
    np.savetxt(buf, rows, fmt="%.17g", delimiter=",", newline="\r\n")
    return buf.getvalue()


def _csv_body(table):
    # the two lines above the body: metadata and the column header
    return table.to_csv().split("\r\n", 2)[2]


_AWKWARD = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 2.0**53, 1 / 3]
_INTEGRAL = [0.0, -1.0, 2.0, 2.0**53 - 1, -(2.0**53 - 1), 1e15]
_PAST_2_53 = [0.0, 1.0, 2.0**53, 3.0, 4.0, 5.0]
_NEGATIVE_ZERO = [0.0, -0.0, 3.0]
_INTEGRAL_NAN = [0.0, 1.0, math.nan, 3.0, 4.0, 5.0]


def _column(values):
    return np.array(values).reshape(-1, 1)


def _random_bits(n):
    """n float64 cells of uniformly random bit patterns: every sign, exponent
    and mantissa, subnormals, signalling and quiet NaNs included."""
    bits = np.random.default_rng(20261020).integers(0, 2**64, size=n, dtype=np.uint64)
    return bits.view(np.float64).reshape(-1, 4)


def _neighbours():
    """Each 10**k, k = -6..18, and 2**53, with their neighbours up to 3 ulps
    away, both signs: where the decimal exponent and fixed notation begin and end."""
    centres = np.array([10.0**k for k in range(-6, 19)] + [2.0**53])
    cells = [centres]
    for direction in (np.inf, 0.0):
        near = centres
        for _ in range(3):
            near = np.nextafter(near, direction)
            cells.append(near)
    cells = np.concatenate(cells)
    return np.concatenate([cells, -cells]).reshape(-1, 2)


def _ties():
    """Cells halfway between two 17-digit decimals, so '%.17g' rounds half to
    even: odd a / 2**(17 - k) in [10**k, 10**(k + 1)) has exactly 18
    significant digits, the last a 5."""
    rng = np.random.default_rng(5)
    cells = []
    for k in range(-4, 16):
        scale = 2.0 ** (17 - k)
        # a < 2**53, so that a / scale is exact
        low, high = math.ceil(10.0**k * scale), min(math.floor(10.0 ** (k + 1) * scale), 2**53)
        a = rng.integers(low // 2, high // 2, size=40) * 2 + 1
        cells.append(a / scale)
    return np.concatenate(cells).reshape(-1, 4)


_SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324]
_SPECIAL += [2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310, -1e-320]


@pytest.mark.parametrize(
    "rows",
    [
        np.array([_AWKWARD, _AWKWARD[::-1]]),
        _column(_AWKWARD),
        _column(_INTEGRAL),
        _column(_PAST_2_53),
        _column(_NEGATIVE_ZERO),
        _column(_INTEGRAL_NAN),
        np.column_stack([_INTEGRAL, _PAST_2_53, _INTEGRAL_NAN, _AWKWARD[:6]]),
        np.empty((0, 3)),
        np.empty((4, 0)),
        np.empty((0, 0)),
        _random_bits(100_000),
        _neighbours(),
        _ties(),
        _column(_SPECIAL),
    ],
    ids=[
        "awkward",
        "one-column",
        "integral",
        "past-2**53",
        "negative-zero",
        "integral-nan",
        "mixed",
        "zero-rows",
        "zero-columns",
        "empty",
        "random-bits",
        "powers-of-ten-neighbours",
        "ties",
        "special",
    ],
)
def test_csv_body_matches_savetxt(rows):
    table = OutputTable(columns=[f"c{j}" for j in range(rows.shape[1])], rows=rows)
    assert _csv_body(table) == _savetxt_body(rows)
    assert OutputTable.from_csv(table.to_csv()) == table


@pytest.mark.parametrize("n_rows", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
def test_csv_body_matches_savetxt_across_blocks(n_rows):
    # distinct rows, so a row lost or repeated at a block border shows
    rows = np.arange(n_rows * 3, dtype=float).reshape(n_rows, 3) / 7.0
    rows[:, 2] = np.resize(_AWKWARD, n_rows)
    table = OutputTable(columns=["a", "b", "c"], rows=rows)
    assert _csv_body(table) == _savetxt_body(rows)
    assert OutputTable.from_csv(table.to_csv()) == table


def test_ties_are_halfway_between_17_digit_decimals():
    for x in _ties().ravel():
        digits = decimal.Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5


@pytest.mark.parametrize("q", [0.0, 0.9])
def test_sampled_table_body_matches_savetxt(q):
    # the columns of `cvteleport sample`; each run has a few beta parts below 1e-4
    config = SamplerConfig(master_seed=3, shots=20_000, q=q, input_state=number_state(1, 32))
    result = run_shots(config)
    betas, counts = result.betas, result.photon_counts
    rows = np.column_stack(
        (np.arange(20_000), betas.real, betas.imag, counts, result.category_codes)
    )
    table = OutputTable(columns=["shot", "x", "y", "n", "category"], rows=rows)
    assert _csv_body(table) == _savetxt_body(rows)


def test_whole_cells_are_the_whole_numbers_below_1e17():
    whole = _INTEGRAL + [-0.0, 2.0**53, 1e16 + 2.0, 1e17 - 16.0, -(1e17 - 16.0)]
    other = [0.5, -1e-300, 1e17, 2.0**60, math.nan, math.inf, -math.inf]
    assert _whole(np.array(whole)).all()
    assert not _whole(np.array(other)).any()


_WHOLE = st.one_of(
    st.integers(-(2**53) - 2, 2**53 + 2).map(float),
    st.sampled_from([0.0, -0.0, 1e15, -1e16, 2.0**53 - 1, 2.0**53, -(2.0**53)]),
)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _mixed_rows(draw):
    n_rows = draw(st.integers(0, 12))
    whole = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    columns = [
        draw(st.lists(_WHOLE if w else _FLOATS, min_size=n_rows, max_size=n_rows)) for w in whole
    ]
    return np.array(columns, dtype=float).T.reshape(n_rows, len(whole))


@settings(max_examples=200, deadline=None)
@seed(20260815)
@given(rows=_mixed_rows())
def test_csv_body_of_mixed_columns_matches_savetxt(rows):
    table = OutputTable(columns=[f"c{j}" for j in range(rows.shape[1])], rows=rows)
    assert _csv_body(table) == _savetxt_body(rows)
