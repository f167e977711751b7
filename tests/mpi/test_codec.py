"""Zero-copy batch codec: roundtrip fidelity, views, corruption detection."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.mpi import BufferPool, PackedBatch, SampleBlock, pack_samples, unpack_samples
from repro.mpi.codec import ALIGN
from repro.mpi.message import Checksummed, payload_crc32, payload_nbytes


def block(entries):
    """The columns of ``(sample, label, gid)`` triples."""
    entries = list(entries)
    return SampleBlock(
        [np.asarray(sample) for sample, _label, _gid in entries],
        np.array([label for _s, label, _g in entries], dtype=np.int64),
        np.array([-1 if gid is None else gid for _s, _l, gid in entries], dtype=np.int64),
    )


def pack(columns):
    """``pack_samples`` into a fresh heap pool."""
    return pack_samples(columns, pool=BufferPool(name="t"))


def roundtrip(entries):
    batch = pack(block(entries))
    return batch, unpack_samples(batch)


def assert_entries_equal(out, entries):
    assert len(out) == len(entries)
    for (arr, label, gid), (exp, exp_label, exp_gid) in zip(out, entries):
        exp = np.asarray(exp)
        assert arr.dtype == exp.dtype
        assert arr.shape == exp.shape
        np.testing.assert_array_equal(arr, exp)
        assert label == int(exp_label)
        assert gid == exp_gid


class TestRoundtrip:
    def test_empty_batch(self):
        batch, out = roundtrip([])
        assert list(out) == []
        assert batch.count == 0
        assert batch.payload.nbytes == 0

    def test_large_payload_over_1mib(self):
        big = np.arange(300_000, dtype=np.float64)  # 2.4 MB
        batch, out = roundtrip([(big, 2, 5)])
        assert batch.payload.nbytes > (1 << 20)
        np.testing.assert_array_equal(out[0][0], big)

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.uint8, np.int16, np.int64, np.float32, np.float64]),
            shape=hnp.array_shapes(min_dims=2, max_dims=4, max_side=8),
        ),
        st.data(),
    )
    def test_property_roundtrip(self, rows, data):
        n = len(rows)
        labels = data.draw(st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n))
        gids = data.draw(
            st.lists(st.one_of(st.none(), st.integers(0, 2**40)), min_size=n, max_size=n)
        )
        entries = list(zip(rows, labels, gids))
        _batch, out = roundtrip(entries)
        assert_entries_equal(out, entries)

    def test_views_are_zero_copy_and_readonly(self):
        src = np.arange(64, dtype=np.float32)
        batch, out = roundtrip([(src, 0, None)])
        arr = out[0][0]
        assert not arr.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            arr[0] = 1.0
        # The view aliases the payload, not a private copy.
        base = arr.base
        while getattr(base, "base", None) is not None and not isinstance(
            base, memoryview
        ):
            base = base.base
        assert isinstance(base, memoryview)

    def test_alignment(self):
        entries = [(np.zeros(3, dtype=np.uint8), 0, None) for _ in range(4)]
        batch = pack(block(entries))
        for _arr, _label, _gid in unpack_samples(batch):
            pass
        # Every sample extent starts on an ALIGN boundary by construction.
        assert batch.payload.nbytes == 3 * ALIGN + 3

    def test_noncontiguous_and_object_dtype(self):
        strided = np.arange(16, dtype=np.int32).reshape(4, 4)[:, ::2]
        _batch, out = roundtrip([(strided, 0, None)])
        np.testing.assert_array_equal(out[0][0], strided)
        with pytest.raises(ValueError, match="object-dtype"):
            pack(block([(np.array([object()]), 0, None)]))


class TestIntegrity:
    def test_crc_fast_path_matches_zlib(self):
        batch = pack(block([(np.arange(9, dtype=np.int32), 4, 1)]))
        assert payload_crc32(batch) == zlib.crc32(batch.payload, zlib.crc32(batch.header))
        assert payload_nbytes(batch) == batch.nbytes

    def test_checksummed_wrap_detects_payload_flip(self):
        batch = pack(block([(np.arange(32, dtype=np.uint8), 0, None)]))
        env = Checksummed.wrap(batch, meta=(0, 0, 0))
        assert env.ok()
        raw = bytearray(batch.payload)
        raw[5] ^= 0xFF
        damaged = PackedBatch(
            header=batch.header, payload=memoryview(raw).toreadonly(), buf=raw
        )
        assert not Checksummed(meta=env.meta, payload=damaged, crc=env.crc).ok()

    def test_corrupt_header_bounds_checked(self):
        batch = pack(block([(np.arange(8, dtype=np.float64), 0, None)]))
        # A header whose record extent points past the payload end must fail
        # loudly, not read out of bounds.  Truncating the payload view puts
        # every record extent outside it.
        bad = PackedBatch(
            header=batch.header, payload=batch.payload[:10], buf=batch.buf
        )
        with pytest.raises(ValueError, match="corrupt header"):
            unpack_samples(bad)

    def test_bad_magic_rejected(self):
        batch = pack(block([]))
        bad = PackedBatch(header=b"XXXX" + batch.header[4:], payload=batch.payload)
        with pytest.raises(ValueError, match="magic"):
            bad.count


class TestWireSemantics:
    def test_pooled_ownership(self):
        pool = BufferPool(name="t")
        batch = pack_samples(block([(np.arange(64, dtype=np.float32), 0, None)]), pool=pool)
        assert pool.in_use() == 1
        batch.try_adopt()
        assert pool.in_use() == 0
        assert pool.stats()["adopts"] == 1
        # try_adopt after adopt is a no-op, not a crash.
        assert batch.try_adopt() is False

    def test_release_returns_buffer_for_reuse(self):
        pool = BufferPool(name="t")
        b1 = pack_samples(block([(np.arange(64, dtype=np.float32), 0, None)]), pool=pool)
        raw = b1.buf.raw
        b1.release()
        b2 = pack_samples(block([(np.ones(64, dtype=np.float32), 0, None)]), pool=pool)
        assert b2.buf.raw is raw  # same size class, recycled bytes
        assert pool.stats()["hits"] == 1
        b2.release()
        pool.assert_balanced()


class TestColumns:
    """A frame is one class of samples, written and read as columns."""

    @staticmethod
    def _triples(samples, gids):
        return [(s, 10 + i, g) for i, (s, g) in enumerate(zip(samples, gids))]

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.uint8, np.int16, np.float32, np.float64]),
            shape=hnp.array_shapes(min_dims=2, max_dims=4, max_side=6),
        ),
        st.data(),
    )
    def test_rows_and_one_array_pack_to_the_same_bytes(self, rows, data):
        """A list of rows packs to the bytes of the same rows as one array."""
        n = len(rows)
        gids = data.draw(
            st.lists(
                st.one_of(st.none(), st.integers(0, 2**40)), min_size=n, max_size=n
            )
        )
        triples = self._triples(list(rows), gids)
        columns = block(triples)
        as_rows = pack(columns)
        as_block = pack(
            SampleBlock(np.ascontiguousarray(rows), columns.labels, columns.gids)
        )
        assert as_block.header == as_rows.header
        assert bytes(as_block.payload) == bytes(as_rows.payload)
        out = unpack_samples(as_rows)
        assert isinstance(out.samples, np.ndarray)  # one class: one block
        assert out.samples.shape == rows.shape and out.samples.dtype == rows.dtype
        assert_entries_equal(out, triples)

    def test_padded_extents_decode_as_a_strided_block(self):
        # 3-byte samples sit 64 bytes apart: the block is a strided view.
        triples = self._triples(
            [np.full(3, i, dtype=np.uint8) for i in range(5)], [7, None, 9, None, 11]
        )
        out = unpack_samples(pack(block(triples)))
        assert isinstance(out.samples, np.ndarray)
        assert out.samples.strides == (ALIGN, 1)
        assert not out.samples.flags.writeable
        assert_entries_equal(out, triples)

    def test_noncontiguous_rows_are_gathered(self):
        base = np.arange(64, dtype=np.int32).reshape(4, 16)
        triples = self._triples([base[i, ::2] for i in range(4)], [0, 1, 2, 3])
        packed = pack(block(triples))
        contiguous = [(np.ascontiguousarray(s), label, gid) for s, label, gid in triples]
        assert packed.header == pack(block(contiguous)).header
        assert_entries_equal(unpack_samples(packed), triples)

    @pytest.mark.parametrize(
        "samples",
        [
            [np.zeros(4, np.float32), np.zeros(4, np.int32)],   # same record size
            [np.zeros((2, 3), np.uint8), np.zeros((3, 2), np.uint8)],
            [np.zeros(4, np.float32), np.zeros(5, np.float32)],
            [np.array(1, np.int64), np.array(2, np.int64)],      # 0-d samples
        ],
    )
    def test_mixed_classes_are_refused(self, samples):
        """A frame is one class: mixed dtypes or shapes, and 0-d samples,
        are refused before any byte is written."""
        pool = BufferPool(name="t")
        with pytest.raises(ValueError, match="one class"):
            pack_samples(block(self._triples(samples, [1, None])), pool=pool)
        assert pool.stats()["acquires"] == 0

    def test_nbytes_is_the_wire_size_model(self):
        # Tracked and untracked gids both weigh 8 bytes, like the label.
        triples = self._triples(
            [np.zeros(6, np.float32), np.ones(6, np.float32), np.ones(6, np.float32)],
            [None, 5, 2**33],
        )
        rows = block(triples)
        decoded = unpack_samples(pack(rows))
        assert rows.nbytes == decoded.nbytes == payload_nbytes(triples)
        assert payload_nbytes(triples) == 3 * (24 + 8 + 8)

    def test_reordering_and_concatenation_keep_columns_aligned(self):
        triples = self._triples([np.full(2, i, np.int16) for i in range(4)], [3, None, 1, 0])
        decoded = unpack_samples(pack(block(triples)))
        picked = decoded[np.array([2, 0])]
        assert_entries_equal(picked, [triples[2], triples[0]])
        both = SampleBlock.concat([picked, block(triples[1:2])])
        assert_entries_equal(both, [triples[2], triples[0], triples[1]])
        assert decoded[1][2] is None and decoded[0][2] == 3

    def test_truncated_payload_under_a_block_header_is_rejected(self):
        batch = pack(block(self._triples([np.arange(16.0), np.arange(16.0)], [0, 1])))
        bad = PackedBatch(header=batch.header, payload=batch.payload[:200])
        with pytest.raises(ValueError, match="corrupt header"):
            unpack_samples(bad)
