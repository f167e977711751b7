import numpy as np
import pytest

from repro.data import TensorDataset


def make_ds(n=10, d=3, offset=0):
    X = np.arange(n * d, dtype=np.float32).reshape(n, d) + offset
    y = np.arange(n) + offset
    return TensorDataset(X, y)


class TestTensorDataset:
    def test_len_and_getitem(self):
        ds = make_ds(5)
        assert len(ds) == 5
        x, y = ds[2]
        assert y == 2
        assert x.shape == (3,)

    def test_negative_index(self):
        ds = make_ds(5)
        x, y = ds[-1]
        assert y == 4

    def test_out_of_range(self):
        ds = make_ds(5)
        with pytest.raises(IndexError):
            ds[5]
        with pytest.raises(IndexError):
            ds[-6]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TensorDataset(np.zeros((4, 2)), np.zeros(3))
