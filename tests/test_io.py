"""The byte format of the result writers.

write_json is json.dump(indent=2) plus a newline, and TestWriteJson pins
that text for payloads of plain Python values, the only kind its callers
pass.  write_csv must give the row writer that formatted every cell with
"{:.17g}" byte for byte, whatever mix of signed zeros, NaNs, infinities,
booleans, integers, shapes and empty containers the payload holds.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gravent.io import write_csv, write_json

INFO = {"label": "unit", "config_hash": "0123abcd",
        "tolerances": {"fock_tail": 1e-8, "en_convergence": 1e-4}}

# values that repeat, so most arrays hold duplicates, -0.0 beside 0.0
# and NaN, inf and -inf among finite numbers
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, 0.1, -2.5e-300]
DTYPES = [np.float64, np.float32, np.bool_, np.int64, np.uint8]
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


def elements(dtype):
    if np.dtype(dtype).kind != "f":
        return None
    width = np.dtype(dtype).itemsize * 8
    return st.one_of(st.sampled_from(SPECIAL).map(dtype),
                     st.floats(width=width))


@st.composite
def numeric_arrays(draw, shape=shapes):
    dtype = draw(st.sampled_from(DTYPES))
    return draw(hnp.arrays(dtype, shape, elements=elements(dtype)))


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats() | st.sampled_from(SPECIAL), st.text(max_size=5))
keys = st.one_of(st.text(max_size=5), st.integers(), st.floats(),
                 st.booleans(), st.none())
payloads = st.dictionaries(st.text(max_size=5), st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=12), max_size=5)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("io")


def stdlib_json(info, payload) -> str:
    return json.dumps({"provenance": info, **payload}, indent=2) + "\n"


def row_writer_csv(info, names, columns) -> str:
    lines = []
    for key, val in info.items():
        if isinstance(val, dict):
            val = ", ".join(f"{k}={v:.17g}" for k, v in val.items())
        lines.append(f"# {key}: {val}\n")
    row = ",".join(["{:.17g}"] * len(names)) + "\n"
    columns = [np.ravel(c).tolist() for c in columns]
    return "".join(lines) + ",".join(names) + "\n" + "".join(
        row.format(*cells) for cells in zip(*columns))


class TestWriteJson:
    @given(payloads)
    @settings(max_examples=300, deadline=None)
    def test_matches_stdlib_indent_2(self, out_dir, payload):
        path = out_dir / "out.json"
        write_json(path, INFO, payload)
        assert path.read_text() == stdlib_json(INFO, payload)

    def test_signed_zeros_and_non_finite_keep_their_spelling(self,
                                                             tmp_path):
        values = [[0.0, -0.0, math.nan], [math.inf, -math.inf, -0.0]]
        write_json(tmp_path / "out.json", INFO, {"v": values})
        text = (tmp_path / "out.json").read_text()
        assert text == stdlib_json(INFO, {"v": values})
        assert text.count("-0.0") == 2 and "NaN" in text \
            and "-Infinity" in text


class TestWriteCsv:
    @given(st.data(), shapes, st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_row_writer(self, out_dir, data, shape, count):
        columns = [data.draw(numeric_arrays(st.just(shape)))
                   for _ in range(count)]
        names = [f"c{k}" for k in range(count)]
        path = out_dir / "out.csv"
        write_csv(path, INFO, names, columns)
        assert path.read_text() == row_writer_csv(INFO, names, columns)

    def test_signed_zeros_and_non_finite_keep_their_spelling(self,
                                                             tmp_path):
        columns = [np.array([0.0, -0.0, math.nan, math.inf, -math.inf]),
                   np.array([True, False, True, True, False])]
        write_csv(tmp_path / "out.csv", INFO, ["x", "ok"], columns)
        rows = (tmp_path / "out.csv").read_text().splitlines()[-5:]
        assert rows == ["0,1", "-0,0", "nan,1", "inf,1", "-inf,0"]
