import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtea.fileio import _atomic_write_text, read_columns_csv, write_columns_csv

from oracles import csv_rowwise

# signed zeros, subnormals, the largest doubles and values whose repr
# switches between positional and exponent notation
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 1e308, -1e308,
               1.7976931348623157e308, 1e-7, 1e16, 0.1]


def column_values(dtype):
    if dtype is np.int64:
        return st.integers(-(2**53), 2**53)
    if dtype is np.float32:
        return st.floats(allow_nan=False, width=32)
    return st.one_of(
        st.floats(allow_nan=False),
        st.integers(-(2**53), 2**53).map(float),
        st.sampled_from(EDGE_FLOATS),
    )


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    columns = {}
    for i in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from([np.int64, np.float64, np.float32]))
        values = draw(st.lists(column_values(dtype), min_size=n, max_size=n))
        columns[f"c{i}"] = np.array(values, dtype=dtype)
    return columns


class TestColumnWriter:
    @settings(max_examples=200, deadline=None)
    @given(columns=tables())
    def test_bytes_equal_rowwise_oracle(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_columns_csv(str(path), columns)
        with open(path, "rb") as fh:
            assert fh.read() == csv_rowwise(columns).encode()

    @settings(max_examples=200, deadline=None)
    @given(columns=tables())
    def test_read_back_bit_for_bit(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        write_columns_csv(str(path), columns)
        back = read_columns_csv(str(path))
        assert list(back) == list(columns)
        for name, a in columns.items():
            want = a.astype(float)
            assert back[name].dtype == np.float64
            np.testing.assert_array_equal(back[name].view(np.uint64), want.view(np.uint64))

    def test_unequal_lengths_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=r"^columns have unequal lengths: \[2, 3\]$"):
            write_columns_csv(str(path), {"a": np.zeros(3), "b": np.zeros(2)})
        assert not path.exists()


def test_failed_write_leaves_no_file(tmp_path):
    # a lone surrogate cannot be encoded, so the write fails after the temp
    # file is made; neither it nor the target is left behind
    path = tmp_path / "t.csv"
    with pytest.raises(UnicodeEncodeError):
        _atomic_write_text(str(path), "y\n\ud800\n")
    assert os.listdir(tmp_path) == []
