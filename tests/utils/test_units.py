from repro.utils import TIB, format_size
from repro.utils.units import GB, TB


class TestFormatSize:
    def test_bytes(self):
        assert format_size(512) == "512 B"

    def test_binary_rollover(self):
        assert format_size(1024) == "1.00 KiB"
        assert format_size(1536) == "1.50 KiB"

    def test_decimal_mode(self):
        assert format_size(140 * GB, binary=False) == "140.00 GB"

    def test_precision(self):
        assert format_size(1536, precision=1) == "1.5 KiB"

    def test_large(self):
        assert format_size(3 * TIB) == "3.00 TiB"

    def test_negative(self):
        assert format_size(-1024) == "-1.00 KiB"

