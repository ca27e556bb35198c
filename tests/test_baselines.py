"""Tests for the baseline kernel models (cuSPARSE, MergeSpmm, ASpT, cuBLAS)."""

import numpy as np
import pytest

from repro.baselines import (
    aspt_sddmm,
    aspt_spmm,
    cusparse_sddmm,
    cusparse_spmm,
    heavy_light_split,
    matmul,
    memory_overhead_bytes,
    merge_spmm,
    preprocessing_execution,
)
from repro.baselines.cublas import gemm_execution, transpose_execution
from repro.baselines.cusparse import spmm_launch
from repro.bench import cusparse_spmm_time, sputnik_spmm_time
from repro.core import spmm
from repro.sparse import sddmm_reference, spmm_reference
from tests.conftest import random_sparse


class TestCusparseSpmm:
    def test_numerics_match_reference(self, rng, device):
        a = random_sparse(rng, 64, 48, 0.3)
        b = rng.standard_normal((48, 32)).astype(np.float32)
        out = cusparse_spmm(a, b, device).output
        assert np.allclose(out, spmm_reference(a, b), atol=1e-4)

    def test_slower_than_sputnik_on_dl_problems(self, rng, device):
        a = random_sparse(rng, 1024, 1024, 0.25)
        b = rng.standard_normal((1024, 128)).astype(np.float32)
        ours = spmm(a, b, device)
        theirs = cusparse_spmm(a, b, device)
        assert theirs.runtime_s > ours.runtime_s

    def test_mixed_precision_fallback_pathology(self, rng, device):
        """Shapes missing the fp16 wide-tile requirement fall off a cliff
        (the paper's 297.5x outliers)."""
        a = random_sparse(rng, 512, 512, 0.3, dtype=np.float16)
        aligned = cusparse_spmm_time(a, 128, device)
        fallback = cusparse_spmm_time(a, 36, device)
        per_col_aligned = aligned.runtime_s / 128
        per_col_fallback = fallback.runtime_s / 36
        assert per_col_fallback > 5 * per_col_aligned

    def test_shape_mismatch_rejected(self, rng, device):
        a = random_sparse(rng, 8, 8, 0.5)
        with pytest.raises(ValueError):
            cusparse_spmm(a, np.ones((9, 4), np.float32), device)

    def test_unknown_precision_rejected(self, rng, device):
        a = random_sparse(rng, 8, 8, 0.5)
        with pytest.raises(ValueError):
            spmm_launch(a, 8, device, precision="fp64")


class TestCusparseSddmm:
    def test_numerics(self, rng, device):
        mask = random_sparse(rng, 48, 40, 0.4)
        lhs = rng.standard_normal((48, 16)).astype(np.float32)
        rhs = rng.standard_normal((40, 16)).astype(np.float32)
        out = cusparse_sddmm(lhs, rhs, mask, device).output
        assert np.allclose(
            out.values, sddmm_reference(lhs, rhs, mask).values, atol=1e-4
        )

    def test_includes_explicit_transpose(self, rng, device):
        """The transpose launch is a separately-timed child, as the paper
        benchmarks it (Section VII-A1)."""
        mask = random_sparse(rng, 48, 40, 0.4)
        lhs = rng.standard_normal((48, 16)).astype(np.float32)
        rhs = rng.standard_normal((40, 16)).astype(np.float32)
        result = cusparse_sddmm(lhs, rhs, mask, device)
        names = [c.name for c in result.execution.children]
        assert "cublas_geam_transpose" in names


class TestMergeSpmm:
    def test_numerics(self, rng, device):
        a = random_sparse(rng, 64, 48, 0.3)
        b = rng.standard_normal((48, 32)).astype(np.float32)
        out = merge_spmm(a, b, device).output
        assert np.allclose(out, spmm_reference(a, b), atol=1e-4)

    def test_batch_constraint(self, rng, device):
        """Yang et al.'s kernel only supports N divisible by 32."""
        a = random_sparse(rng, 64, 48, 0.3)
        with pytest.raises(ValueError, match="divisible by 32"):
            merge_spmm(a, np.ones((48, 20), np.float32), device)


class TestAspt:
    def test_spmm_numerics(self, rng, device):
        a = random_sparse(rng, 256, 128, 0.3)
        b = rng.standard_normal((128, 32)).astype(np.float32)
        out = aspt_spmm(a, b, device).output
        assert np.allclose(out, spmm_reference(a, b), atol=1e-4)

    def test_sddmm_numerics(self, rng, device):
        mask = random_sparse(rng, 256, 64, 0.4)
        lhs = rng.standard_normal((256, 16)).astype(np.float32)
        rhs = rng.standard_normal((64, 16)).astype(np.float32)
        out = aspt_sddmm(lhs, rhs, mask, device).output
        assert np.allclose(
            out.values, sddmm_reference(lhs, rhs, mask).values, atol=1e-4
        )

    def test_row_count_constraint(self, rng, device):
        """Hong et al.'s kernels require rows divisible by 256."""
        a = random_sparse(rng, 100, 64, 0.3)
        with pytest.raises(ValueError, match="divisible by 256"):
            aspt_spmm(a, np.ones((64, 32), np.float32), device)

    def test_heavy_light_split_conserves_nnz(self, rng):
        a = random_sparse(rng, 256, 128, 0.3)
        heavy, light, heavy_cols = heavy_light_split(a)
        assert heavy.sum() + light.sum() == a.nnz
        assert np.all(heavy_cols >= 0)

    def test_dense_columns_classified_heavy(self, rng):
        dense = np.zeros((256, 64), np.float32)
        dense[:, 5] = 1.0  # one fully dense column
        dense[3, 7] = 1.0  # one singleton
        from repro.sparse import CSRMatrix

        a = CSRMatrix.from_dense(dense)
        heavy, light, heavy_cols = heavy_light_split(a)
        assert heavy.sum() == 256 and light.sum() == 1
        assert heavy_cols.sum() == 2  # column 5 heavy in both panels

    def test_memory_overhead_is_3x(self, rng):
        a = random_sparse(rng, 256, 128, 0.3)
        assert memory_overhead_bytes(a) == pytest.approx(
            3.0 * a.memory_bytes(), rel=0.01
        )

    def test_preprocessing_has_cost(self, rng, device):
        a = random_sparse(rng, 256, 128, 0.3)
        assert preprocessing_execution(a, device).runtime_s > 0


class TestCublas:
    def test_matmul_numerics(self, rng, device):
        a = rng.standard_normal((64, 48)).astype(np.float32)
        b = rng.standard_normal((48, 32)).astype(np.float32)
        out = matmul(a, b, device)
        assert np.allclose(out.output, a @ b, atol=1e-4)

    def test_shapes_validated(self, rng, device):
        with pytest.raises(ValueError):
            matmul(np.ones((4, 5), np.float32), np.ones((6, 7), np.float32), device)

    def test_large_gemm_near_peak(self, device):
        res = gemm_execution(4096, 4096, 4096, device)
        assert res.peak_fraction(device) > 0.6

    def test_small_gemm_far_from_peak(self, device):
        res = gemm_execution(64, 64, 64, device)
        assert res.peak_fraction(device) < 0.2

    def test_skinny_gemm_uses_split_k_or_small_tiles(self, device):
        """A 1024x1024x49 MobileNet-style GEMM must not collapse to the
        8-block 128x128 grid."""
        res = gemm_execution(1024, 49, 1024, device)
        assert res.n_blocks > 16

    def test_runtime_monotone_in_k(self, device):
        small = gemm_execution(512, 512, 256, device)
        large = gemm_execution(512, 512, 4096, device)
        assert large.runtime_s > small.runtime_s

    def test_dimension_validation(self, device):
        with pytest.raises(ValueError):
            gemm_execution(0, 4, 4, device)

    def test_transpose_is_bandwidth_bound(self, device):
        small = transpose_execution(512, 512, device)
        big = transpose_execution(4096, 4096, device)
        assert big.runtime_s > small.runtime_s
        assert big.dram_bytes == pytest.approx(2 * 4096 * 4096 * 4)
