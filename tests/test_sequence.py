import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from memlen import (
    EMPTY_WORD,
    EstimatorParams,
    OutOfRangeError,
    Sample,
    Word,
    read_sample,
    suffix,
    write_sample,
)


class TestSuffix:
    def test_basic(self):
        s = Sample.backward([3, 1, 2])
        assert suffix(s, 2) == Word((1, 2))

    def test_empty(self):
        s = Sample.backward([3, 1, 2])
        assert suffix(s, 0) == EMPTY_WORD

    def test_longer(self):
        s = Sample.forward([0, 0, 1, 0])
        assert suffix(s, 3) == Word((0, 1, 0))

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            suffix(Sample.backward([1, 2]), 3)


class TestShiftView:
    """A forward sample X_0..X_n read as a backward sample ending at time 0."""

    def test_reindexes(self):
        s = Sample.forward([1, 0, 1])
        b = Sample.backward(s.symbols)
        assert b.orientation == "backward"
        assert b.origin == -2
        assert list(b.symbols) == [1, 0, 1]

    def test_identity_on_singleton(self):
        b = Sample.backward(Sample.forward([5]).symbols)
        assert b.origin == 0 and list(b.symbols) == [5]

    def test_last_element_lands_at_zero(self):
        b = Sample.backward(Sample.forward([1, 2, 3, 4]).symbols)
        assert b.last_index == 0
        assert b.symbols[-1] == 4

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30), st.data())
    def test_suffix_commutes(self, syms, data):
        s = Sample.forward(syms)
        k = data.draw(st.integers(0, len(syms)))
        assert suffix(Sample.backward(s.symbols), k) == suffix(s, k)


class TestSampleInvariants:
    def test_backward_ends_at_zero(self):
        s = Sample.backward([1, 2, 3])
        assert s.origin == -2 and s.last_index == 0

    def test_forward_starts_at_zero(self):
        s = Sample.forward([1, 2, 3])
        assert s.origin == 0 and s.last_index == 2

    def test_rejects_negative_symbols(self):
        with pytest.raises(ValueError):
            Sample.forward([-1, 0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Sample.forward([])

    def test_immutable(self):
        s = Sample.forward([1, 2])
        with pytest.raises(ValueError):
            s.symbols[0] = 9


class TestEstimatorParams:
    def test_defaults_valid(self):
        p = EstimatorParams()
        assert 2 * p.beta + p.gamma < 1

    @pytest.mark.parametrize(
        "kw",
        [
            {"gamma": 0.0},
            {"gamma": 1.0},
            {"beta": 0.0},
            {"gamma": 0.5, "beta": 0.25},  # 2b+g = 1
            {"epsilon": 0.0},
            {"epsilon": 1.0},
        ],
    )
    def test_rejects_bad(self, kw):
        with pytest.raises(ValueError):
            EstimatorParams(**kw)

    def test_thresholds(self):
        p = EstimatorParams(gamma=0.5, beta=0.24)
        assert p.frequency_cutoff(16) == pytest.approx(4.0)
        assert p.test_threshold(100) == pytest.approx(100 ** -0.24)


class TestFileFormats:
    def test_txt_roundtrip(self, tmp_path):
        s = Sample.forward([0, 7, 123456, 2])
        path = tmp_path / "s.txt"
        write_sample(path, s, fmt="txt")
        assert path.read_bytes() == b"0\n7\n123456\n2\n"
        back = read_sample(path, fmt="txt", orientation="forward")
        assert np.array_equal(back.symbols, s.symbols)

    def test_bin_roundtrip(self, tmp_path):
        s = Sample.forward(list(range(10)))
        path = tmp_path / "s.bin"
        write_sample(path, s, fmt="bin")
        assert path.stat().st_size == 4 * 10
        back = read_sample(path, fmt="bin", orientation="backward")
        assert np.array_equal(back.symbols, s.symbols)
        assert back.orientation == "backward"

    def test_bin_little_endian(self, tmp_path):
        path = tmp_path / "s.bin"
        write_sample(path, Sample.forward([1, 258]), fmt="bin")
        assert path.read_bytes() == b"\x01\x00\x00\x00\x02\x01\x00\x00"
