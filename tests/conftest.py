"""Shared fixtures: deterministic RNG, small matrices, devices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import V100
from repro.sparse import CSRMatrix
from repro.sparse.ops import SDDMM_DENSE_SAMPLE_DENSITY


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def device():
    return V100


def random_sparse(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    density: float,
    dtype=np.float32,
) -> CSRMatrix:
    """Bernoulli-sparsity helper shared across test modules."""
    dense = (rng.random((rows, cols)) < density) * rng.standard_normal(
        (rows, cols)
    )
    return CSRMatrix.from_dense(dense.astype(np.float64), dtype=dtype)


def threshold_mask(
    rng: np.random.Generator, rows: int, cols: int, dtype=np.float32
) -> CSRMatrix:
    """Rows on both sides of the SDDMM reference's dense-row threshold:
    empty rows, short rows, rows one below, exactly at and one above it,
    and long and full rows, cycling down the matrix."""
    at = SDDMM_DENSE_SAMPLE_DENSITY * cols
    assert at == int(at) >= 2, "pick cols so the threshold is a whole row"
    at = int(at)
    lengths = np.resize([0, 1, at - 1, at, at + 1, cols // 4, cols], rows)
    dense = np.zeros((rows, cols))
    for row, length in enumerate(lengths):
        picked = rng.choice(cols, size=length, replace=False)
        dense[row, picked] = rng.uniform(0.5, 2.0, length) * rng.choice(
            [-1.0, 1.0], length
        )
    return CSRMatrix.from_dense(dense, dtype=dtype)


@pytest.fixture
def small_sparse(rng) -> CSRMatrix:
    """64x48 matrix at ~30% density with at least one empty row."""
    dense = (rng.random((64, 48)) < 0.3) * rng.standard_normal((64, 48))
    dense[7] = 0.0
    return CSRMatrix.from_dense(dense)
