import pytest

from repro.utils import ascii_chart


class TestAsciiChart:
    def test_shape(self):
        out = ascii_chart({"a": [0, 1, 2]}, height=5)
        lines = out.splitlines()
        assert len(lines) == 7  # 5 rows + axis + legend
        assert "o=a" in lines[-1]

    def test_extremes_marked(self):
        out = ascii_chart({"a": [0.0, 1.0]}, height=4)
        lines = out.splitlines()
        assert "o" in lines[0]  # max on top row
        assert "o" in lines[3]  # min on bottom row

    def test_two_series_markers(self):
        out = ascii_chart({"a": [0, 1], "b": [1, 0]}, height=4)
        assert "o=a" in out and "x=b" in out
        assert "o" in out and "x" in out

    def test_y_axis_labels(self):
        out = ascii_chart({"a": [0.0, 10.0]}, height=3)
        assert "10.00" in out and "0.00" in out

    def test_downsampling(self):
        out = ascii_chart({"a": list(range(100))}, height=4, width=10)
        body = out.splitlines()[0]
        assert len(body) <= 8 + 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_chart({})
        with pytest.raises(ValueError):
            ascii_chart({"a": [1], "b": [1, 2]})
        with pytest.raises(ValueError):
            ascii_chart({"a": []})
        with pytest.raises(ValueError):
            ascii_chart({"a": [1]}, height=1)
        with pytest.raises(ValueError):
            ascii_chart({str(i): [1, 2] for i in range(9)})

    def test_flat_everything(self):
        out = ascii_chart({"a": [2.0, 2.0]}, height=3)
        assert "o" in out
