"""Message envelope / payload helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpi.message import ANY_SOURCE, ANY_TAG, Message, payload_nbytes


class TestMessageMatching:
    def test_exact_match(self):
        m = Message(source=2, dest=0, tag=7, payload=None)
        assert m.matches(2, 7)
        assert not m.matches(1, 7)
        assert not m.matches(2, 8)

    def test_wildcards(self):
        m = Message(source=3, dest=0, tag=9, payload=None)
        assert m.matches(ANY_SOURCE, 9)
        assert m.matches(3, ANY_TAG)
        assert m.matches(ANY_SOURCE, ANY_TAG)

    def test_seq_monotonic(self):
        a = Message(0, 1, 0, None)
        b = Message(0, 1, 0, None)
        assert b.seq > a.seq


class TestPayloadNbytes:
    def test_ndarray(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes_and_str(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("abcd") == 4

    def test_containers_sum(self):
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 40

    def test_scalars(self):
        assert payload_nbytes(5) == 8

    def test_dict(self):
        assert payload_nbytes({"k": np.zeros(1)}) == 8 + 1  # 8 for array, 1 for key


@given(st.integers(0, 100), st.integers(0, 100))
def test_matching_is_conjunction_property(source, tag):
    m = Message(source=source, dest=0, tag=tag, payload=None)
    assert m.matches(source, tag)
    assert m.matches(ANY_SOURCE, tag)
    assert m.matches(source, ANY_TAG)
    if source != 0:
        assert not m.matches(0 if source != 0 else 1, tag)
