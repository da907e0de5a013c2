"""Gensort-layout records and the paper's 16-byte packing (§VI-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.records import gensort
from repro.records.keyhash import hash_value_to_index


class TestGensortRecords:
    def test_record_layout(self):
        records = gensort.generate_gensort(10, seed=1)
        assert len(records) == 10
        for record in records:
            assert len(record.key) == 10
            assert len(record.value) == 90
            assert len(record.to_bytes()) == 100

    def test_deterministic(self):
        a = gensort.generate_gensort(50, seed=9)
        b = gensort.generate_gensort(50, seed=9)
        assert [r.to_bytes() for r in a] == [r.to_bytes() for r in b]

    def test_value_encodes_ordinal(self):
        records = gensort.generate_gensort(5, seed=1)
        assert records[3].value.startswith(b"00000000000000000003")

    def test_roundtrip_bytes(self):
        record = gensort.generate_gensort(1, seed=1)[0]
        assert gensort.GensortRecord.from_bytes(record.to_bytes()) == record

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(WorkloadError):
            gensort.GensortRecord.from_bytes(b"short")

    def test_rejects_bad_key_length(self):
        with pytest.raises(WorkloadError):
            gensort.GensortRecord(key=b"abc", value=b"x" * 90)

    def test_rejects_negative_count(self):
        with pytest.raises(WorkloadError):
            gensort.generate_gensort(-1)


class TestPacking:
    def test_pack_shapes(self):
        records = gensort.generate_gensort(64, seed=2)
        keys, low, table = gensort.pack_records(records)
        assert keys.shape == (64,)
        assert low.shape == (64,)
        assert keys.dtype == np.uint64

    def test_sort_by_packed_prefix_matches_memcmp_order(self):
        records = gensort.generate_gensort(256, seed=3)
        keys, low, _ = gensort.pack_records(records)
        # Full memcmp order on the raw 10-byte keys.
        expected = sorted(range(256), key=lambda i: records[i].key)
        # Sort by (prefix, low 2 key bytes) — stable and equivalent.
        low_key = (low >> np.uint64(48)).astype(np.uint64)
        got = sorted(range(256), key=lambda i: (int(keys[i]), int(low_key[i])))
        assert got == expected

    def test_index_table_recovers_payloads(self):
        records = gensort.generate_gensort(128, seed=4)
        _, low, table = gensort.pack_records(records)
        mask = np.uint64((1 << 48) - 1)
        for ordinal, packed in enumerate(low):
            index = int(packed & mask)
            assert ordinal in table[index]

    def test_unpack_sorted_applies_permutation(self):
        records = gensort.generate_gensort(16, seed=5)
        order = np.argsort([r.key for r in records])
        unpacked = gensort.unpack_sorted(order, records)
        assert [r.key for r in unpacked] == sorted(r.key for r in records)

    def test_packed_sort_key_is_big_endian(self):
        record = gensort.GensortRecord(key=bytes([1] + [0] * 9), value=b"v" * 90)
        assert gensort.packed_sort_key(record) == 1 << 72


def _pack_records_reference(records):
    """Per-record packer: the 16-byte format defined one record at a time."""
    sort_keys = np.empty(len(records), dtype=np.uint64)
    packed_low = np.empty(len(records), dtype=np.uint64)
    index_table: dict[int, list[int]] = {}
    for ordinal, record in enumerate(records):
        key_int = gensort.packed_sort_key(record)
        sort_keys[ordinal] = key_int >> 16
        value_index = hash_value_to_index(record.value, gensort.INDEX_BYTES)
        packed_low[ordinal] = ((key_int & 0xFFFF) << 48) | value_index
        index_table.setdefault(value_index, []).append(ordinal)
    return sort_keys, packed_low, index_table


class TestVectorizedCodec:
    """The batched packer must be bit-identical to the per-record oracle."""

    @staticmethod
    def _assert_identical(records):
        expected = _pack_records_reference(records)
        packed = gensort.pack_records(records)
        assert np.array_equal(expected[0], packed[0])
        assert packed[0].dtype == packed[1].dtype == np.uint64
        assert np.array_equal(expected[1], packed[1])
        assert expected[2] == packed[2]

    @pytest.mark.parametrize("n_records", (0, 1, 2, 7, 64, 511, 513))
    def test_bit_identical_across_batch_shapes(self, n_records):
        self._assert_identical(gensort.generate_gensort(n_records, seed=6))

    @pytest.mark.parametrize("seed", range(32))
    def test_bit_identical_across_seeds(self, seed):
        self._assert_identical(gensort.generate_gensort(33, seed=seed))

    def test_extreme_key_bytes(self):
        # All-0x00 and all-0xFF keys exercise both ends of the uint64
        # reinterpretation; identical values collide in the index table.
        records = [
            gensort.GensortRecord(key=b"\x00" * 10, value=b"a" * 90),
            gensort.GensortRecord(key=b"\xff" * 10, value=b"b" * 90),
            gensort.GensortRecord(key=b"\xff" * 10, value=b"a" * 90),
        ]
        self._assert_identical(records)
