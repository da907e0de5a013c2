"""Value-to-index hashing (§VI-A)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.records.keyhash import fnv1a_hash, fnv1a_hash_batch, hash_value_to_index


class TestFnv1a:
    def test_known_vectors(self):
        # Standard FNV-1a 64-bit test vectors.
        assert fnv1a_hash(b"") == 0xCBF29CE484222325
        assert fnv1a_hash(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_hash(b"foobar") == 0x85944171F73967E8

    @given(st.binary(max_size=64))
    def test_fits_64_bits(self, data):
        assert 0 <= fnv1a_hash(data) < 2**64

    @given(st.binary(min_size=1, max_size=32))
    def test_deterministic(self, data):
        assert fnv1a_hash(data) == fnv1a_hash(data)


class TestIndexHash:
    def test_paper_width_is_six_bytes(self):
        index = hash_value_to_index(b"x" * 90)
        assert 0 <= index < 2**48

    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_width_bound(self, width):
        index = hash_value_to_index(b"payload", index_bytes=width)
        assert index < 2 ** (8 * width)

    def test_rejects_bad_width(self):
        with pytest.raises(ConfigurationError):
            hash_value_to_index(b"x", index_bytes=0)
        with pytest.raises(ConfigurationError):
            hash_value_to_index(b"x", index_bytes=9)

    def test_vector_form_matches_scalar(self):
        # The gensort codec derives indices from the batched hash.
        values = [b"aa", b"bb", b"cc"]
        rows = np.frombuffer(b"".join(values), dtype=np.uint8).reshape(3, 2)
        vector = fnv1a_hash_batch(rows) >> np.uint64(16)
        assert vector.tolist() == [hash_value_to_index(v) for v in values]

    def test_collision_rate_low_at_six_bytes(self):
        values = [f"value-{i}".encode() for i in range(20_000)]
        indices = {hash_value_to_index(v) for v in values}
        assert len(indices) == len(values)  # 48-bit space: no collisions here


class TestFnv1aBatch:
    """The column-parallel hash must equal the scalar loop per row."""

    @given(st.lists(st.binary(min_size=8, max_size=8), min_size=1, max_size=40))
    def test_matches_scalar_per_row(self, payloads):
        rows = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(
            len(payloads), 8
        )
        batched = fnv1a_hash_batch(rows)
        assert batched.dtype == np.uint64
        assert batched.tolist() == [fnv1a_hash(p) for p in payloads]

    def test_empty_width(self):
        rows = np.zeros((3, 0), dtype=np.uint8)
        assert fnv1a_hash_batch(rows).tolist() == [fnv1a_hash(b"")] * 3
