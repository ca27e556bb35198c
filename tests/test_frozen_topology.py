"""Frozen sparse topology: read-only structure arrays, a fingerprint hashed
once per matrix, and the O(nnz) distinct-column count every cost model
shares (DESIGN.md §8)."""

import copy
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ops
from repro.core.repair import column_histogram, touched_columns
from repro.gpu import V100
from repro.gpu.memory import flip_bit, write_through
from repro.ops import ExecutionContext, matrix_fingerprint
from repro.reliability import InvalidTopologyError
from repro.sparse import CSRMatrix
from repro.sparse.csc import csr_to_csc
from tests.conftest import random_sparse, threshold_mask


def distinct_columns(a: CSRMatrix) -> int:
    return touched_columns(column_histogram(a))


@st.composite
def topologies(draw, max_rows=40, max_cols=40):
    """Masks with empty rows and repeated columns, fp32/int32 or fp16/int16."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    density = draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    dtype = draw(st.sampled_from([np.float32, np.float16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    mask = rng.random((rows, cols)) < density
    mask[rng.random(rows) < 0.3] = False  # whole empty rows
    return CSRMatrix.from_mask(mask, dtype=dtype)


class TestDistinctColumnCount:
    @settings(deadline=None, max_examples=60)
    @given(topologies())
    def test_histogram_count_matches_unique(self, a):
        assert distinct_columns(a) == len(np.unique(a.column_indices))

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_threshold_mask(self, rng, dtype):
        a = threshold_mask(rng, 600, 200, dtype)
        assert a.column_indices.dtype == (
            np.int16 if dtype is np.float16 else np.int32
        )
        assert distinct_columns(a) == len(np.unique(a.column_indices))

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("column, expected", [(4, 1), (None, 0)])
    def test_single_column_and_all_empty(self, dtype, column, expected):
        mask = np.zeros((9, 7), dtype=bool)
        if column is not None:
            mask[::2, column] = True
        a = CSRMatrix.from_mask(mask, dtype=dtype)
        assert distinct_columns(a) == len(np.unique(a.column_indices))
        assert distinct_columns(a) == expected


class TestFrozenStructure:
    def test_csr_structure_read_only_values_writeable(self, rng):
        a = random_sparse(rng, 16, 12, 0.4)
        with pytest.raises(ValueError, match="read-only"):
            a.row_offsets[1] = 0
        with pytest.raises(ValueError, match="read-only"):
            a.column_indices[0] = 0
        a.values[0] = 7.0
        assert a.values[0] == 7.0

    def test_csc_structure_read_only_values_writeable(self, rng):
        c = csr_to_csc(random_sparse(rng, 16, 12, 0.4))
        with pytest.raises(ValueError, match="read-only"):
            c.col_offsets[1] = 0
        with pytest.raises(ValueError, match="read-only"):
            c.row_indices[0] = 0
        c.values[0] = 7.0
        assert c.values[0] == 7.0

    def test_views_of_writeable_memory_are_copied(self, rng):
        a = random_sparse(rng, 16, 12, 0.4)
        offsets = np.zeros(a.n_rows + 8, dtype=np.int64)
        offsets[: a.n_rows + 1] = a.row_offsets
        cols = np.zeros(a.nnz + 8, dtype=np.int32)
        cols[: a.nnz] = a.column_indices
        b = CSRMatrix(
            a.shape, offsets[: a.n_rows + 1], cols[: a.nnz], a.values.copy()
        )
        fp = matrix_fingerprint(b)
        assert fp == matrix_fingerprint(a)
        cols[0] = (cols[0] + 1) % a.shape[1]  # the caller's base stays writeable
        offsets[1] += 1
        assert np.array_equal(b.column_indices, a.column_indices)
        assert np.array_equal(b.row_offsets, a.row_offsets)
        assert matrix_fingerprint(b) == b.structure_checksum() == fp
        b.validate_deep()

    def test_owned_and_read_only_arrays_are_not_copied(self, rng):
        a = random_sparse(rng, 16, 12, 0.4)
        offsets = a.row_offsets.copy()
        b = CSRMatrix(a.shape, offsets, a.column_indices, a.values)
        assert b.row_offsets is offsets and not offsets.flags.writeable
        assert b.column_indices is a.column_indices
        row = CSRMatrix(
            (1, a.shape[1]),
            a.row_offsets[1:3] - a.row_offsets[1],
            a.column_indices[a.row_offsets[1] : a.row_offsets[2]],
            a.values[a.row_offsets[1] : a.row_offsets[2]],
        )
        assert row.column_indices.base is a.column_indices

    def test_copies_come_back_frozen(self, rng):
        a = random_sparse(rng, 16, 12, 0.4)
        matrix_fingerprint(a)  # memoized before the copy
        for clone in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert not clone.row_offsets.flags.writeable
            assert not clone.column_indices.flags.writeable
            assert clone.values.flags.writeable
        c = copy.deepcopy(csr_to_csc(a))
        assert not (c.col_offsets.flags.writeable or c.row_indices.flags.writeable)

    def test_with_values_inherits_identity(self, rng):
        a = random_sparse(rng, 16, 12, 0.4)
        fp = matrix_fingerprint(a)
        child = a.with_values(a.values * 2)
        assert child.column_indices is a.column_indices
        assert child.row_offsets is a.row_offsets
        assert child._structure_fp == fp == a.structure_checksum()
        assert np.array_equal(child.values, a.values * 2)
        child.validate_deep()

    def test_with_values_child_still_catches_a_flip(self, rng):
        a = random_sparse(rng, 32, 32, 0.5)
        child = a.with_values(a.values + 1)
        flip_bit(child.column_indices, 3, 0)
        with pytest.raises(InvalidTopologyError, match="checksum"):
            child.validate_deep()


class TestFingerprintHashedOnce:
    def test_cold_plans_reuse_the_construction_hash(self, rng, monkeypatch):
        hashes = []
        real = hashlib.sha256

        def counting(*args, **kwargs):
            hashes.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", counting)
        a = random_sparse(rng, 128, 96, 0.1)
        ctx = ExecutionContext(V100)
        ops.spmm_cost(a, 64, context=ctx)
        ops.sddmm_cost(a, 32, context=ctx)
        monkeypatch.undo()
        assert len(hashes) == 1
        assert matrix_fingerprint(a) == a.structure_checksum()

    def test_warm_cost_calls_never_hash(self, rng, monkeypatch):
        a = random_sparse(rng, 128, 96, 0.1)
        ctx = ExecutionContext(V100)
        warm = ops.spmm_cost(a, 64, context=ctx)
        hashes = []
        real = hashlib.sha256

        def counting(*args, **kwargs):
            hashes.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", counting)
        child = a.with_values(a.values * 3)
        for matrix in (a, child):
            for _ in range(100):
                result = ops.spmm_cost(matrix, 64, context=ctx)
                assert result.runtime_s == warm.runtime_s
        monkeypatch.undo()
        assert hashes == []
        assert ctx.telemetry.stats[("spmm", "sputnik")].cache_misses == 1

    def test_writeable_duck_type_is_rehashed(self, rng):
        a = random_sparse(rng, 16, 12, 0.4)

        class Loose:
            shape = a.shape
            row_offsets = a.row_offsets.copy()
            column_indices = a.column_indices.copy()
            values = a.values

        loose = Loose()
        fp = matrix_fingerprint(loose)
        assert fp == matrix_fingerprint(a)
        loose.column_indices[0] = (loose.column_indices[0] + 1) % a.shape[1]
        assert matrix_fingerprint(loose) != fp


class TestFlipBitOnFrozen:
    def test_flip_and_restore_keep_array_read_only(self, rng):
        a = random_sparse(rng, 16, 16, 0.5)
        indices = a.column_indices
        before = indices.copy()
        original = flip_bit(indices, 2, 1)
        assert original == before[2]
        assert indices[2] == before[2] ^ 2
        assert not indices.flags.writeable
        flip_bit(indices, 2, 1)
        assert np.array_equal(indices, before)
        assert not indices.flags.writeable
        a.validate_deep()

    def test_write_through_restores_flag_on_error(self):
        arr = np.arange(4, dtype=np.int32)
        arr.flags.writeable = False
        with pytest.raises(RuntimeError):
            with write_through(arr):
                arr[0] = 9
                raise RuntimeError
        assert arr[0] == 9 and not arr.flags.writeable
