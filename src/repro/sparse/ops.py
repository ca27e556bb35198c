"""Reference sparse operations (ground truth for every kernel).

These implement, in plain vectorized numpy/scipy, the three operations the
paper's kernels compute (Section IV):

- SpMM: ``A B => C`` with ``A`` sparse CSR, ``B``/``C`` dense row-major.
- SDDMM: ``A B^T ∘ I[C] => D`` — the deep-learning variant with a
  *transposed* right-hand operand and *indicator* (unscaled) sampling, plus
  the textbook scaled variant for completeness.
- Sparse softmax: row-wise softmax over the nonzero values of a CSR matrix
  (used by the sparse Transformer's attention).

Every kernel in ``repro.core`` and ``repro.baselines`` produces output that
tests compare against these functions.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from .csr import CSRMatrix

#: SDDMM numerics, shared by both references (DESIGN.md §12). A row's path
#: depends only on its length, ``cols`` and ``H``, so a row shard never
#: flips it. Rows with at least ``SDDMM_DENSE_SAMPLE_DENSITY * cols``
#: nonzeros are packed in order into zero-padded ``(H, R, k)`` blocks, each
#: one GEMM against ``rhs^T`` sampled at the block's coordinates. ``R`` is
#: the most rows, up to ``SDDMM_BLOCK_ROWS``, whose ``H * R * cols`` product
#: fits in ``SDDMM_DENSE_SAMPLE_ELEMS`` fp32 values (4 MB, which also caps
#: the padding); as it depends on ``H`` and ``cols`` only, every GEMM of a
#: problem and of its row shards has one shape, hence one BLAS kernel and
#: summation order, and sharded SDDMM stays bit-identical. If ``R`` falls
#: below ``SDDMM_MIN_BLOCK_ROWS`` a block no longer amortizes streaming
#: ``rhs`` and every row takes gathered dot products over
#: ``SDDMM_CHUNK_NNZ``-nonzero chunks (chunking never changes the bits).
SDDMM_DENSE_SAMPLE_DENSITY = 0.02
SDDMM_BLOCK_ROWS = 256
SDDMM_MIN_BLOCK_ROWS = 16
SDDMM_DENSE_SAMPLE_ELEMS = 1 << 20
SDDMM_CHUNK_NNZ = 1 << 12


def spmm_reference(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """``A @ B`` with fp32 accumulation; output in ``A``'s value dtype.

    Mixed-precision inputs (fp16 values) are converted to fp32, multiplied
    with fp32 fused accumulation, and converted back on store — the exact
    numeric contract of the paper's mixed-precision kernels (Section V-D3).
    """
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != a.n_cols:
        raise ValueError(f"B shape {b.shape} incompatible with A {a.shape}")
    # fp32 values and the native indices, not a widened to_scipy() copy.
    vals = a.values.astype(np.float32, copy=False)
    lhs = sp.csr_matrix((vals, a.column_indices, a.row_offsets), shape=a.shape)
    out = lhs @ b.astype(np.float32, copy=False)
    return np.asarray(out, dtype=a.values.dtype)


def sddmm_reference(
    lhs: np.ndarray,
    rhs: np.ndarray,
    mask: CSRMatrix,
    *,
    scale_by_values: bool = False,
) -> CSRMatrix:
    """Sampled dense–dense matmul: ``(lhs @ rhs.T)`` at ``mask`` nonzeros.

    Computes only the dot products for the nonzero positions of ``mask``
    (the whole point of SDDMM). With ``scale_by_values`` the textbook
    element-wise scaling ``A B^T ∘ C`` is applied; the default matches the
    paper's deep-learning variant ``A B^T ∘ I[C]``. This is the ``H = 1``
    case of :func:`sddmm_batched_reference`, bit for bit.
    """
    lhs = np.asarray(lhs, dtype=np.float32)
    rhs = np.asarray(rhs, dtype=np.float32)
    values = _sddmm_stack(lhs[None], rhs[None], mask, scale_by_values)
    return mask.with_values(values[0])


def sparse_softmax_reference(a: CSRMatrix, scale: float = 1.0) -> CSRMatrix:
    """Row-wise softmax over the nonzero values of ``a``.

    Rows with no nonzeros stay empty. Numerically stabilized with the
    per-row max, like any production softmax.
    """
    vals = a.values.astype(np.float32) * np.float32(scale)
    lengths = a.row_lengths
    row_ids = np.repeat(np.arange(a.n_rows), lengths)
    row_max = np.full(a.n_rows, -np.inf, dtype=np.float32)
    np.maximum.at(row_max, row_ids, vals)
    shifted = np.exp(vals - row_max[row_ids])
    row_sum = np.zeros(a.n_rows, dtype=np.float32)
    np.add.at(row_sum, row_ids, shifted)
    out = shifted / row_sum[row_ids]
    return a.with_values(out.astype(a.values.dtype))


def spmm_batched_reference(
    a: CSRMatrix, b_stack: np.ndarray, values: np.ndarray | None = None
) -> np.ndarray:
    """Shared-topology batched SpMM: ``C[h] = A_h @ B[h]`` in one call.

    ``b_stack`` is ``(H, k, n)``. With ``values=None`` every head shares
    ``a``'s values, so the whole stack folds into a single sparse x dense
    product against the column-stacked ``(k, H*n)`` operand. With a
    ``(H, nnz)`` ``values`` matrix (e.g. softmaxed attention scores per
    head), the heads form one block-diagonal CSR sharing ``a``'s structure
    and the product is still a single scipy call — never a per-head loop.
    """
    b_stack = np.asarray(b_stack)
    if b_stack.ndim != 3 or b_stack.shape[1] != a.n_cols:
        raise ValueError(
            f"B stack shape {b_stack.shape} incompatible with A {a.shape}; "
            "expected (H, k, n)"
        )
    h, k, n = b_stack.shape
    if values is None:
        # One topology, one value set: C = A @ [B_1 | ... | B_H].
        wide = b_stack.transpose(1, 0, 2).reshape(k, h * n)
        out = spmm_reference(a, np.ascontiguousarray(wide))
        return np.ascontiguousarray(
            out.reshape(a.n_rows, h, n).transpose(1, 0, 2)
        )
    values = np.asarray(values)
    if values.shape != (h, a.nnz):
        raise ValueError(
            f"per-head values shape {values.shape} != ({h}, {a.nnz})"
        )
    # Block-diagonal stacking: H copies of the structure with per-head
    # values — still exactly one sparse matmul.
    offsets = np.concatenate(
        [[0]]
        + [a.row_offsets[1:].astype(np.int64) + i * a.nnz for i in range(h)]
    )
    indices = np.concatenate(
        [a.column_indices.astype(np.int64) + i * k for i in range(h)]
    )
    block = sp.csr_matrix(
        (values.astype(np.float32).ravel(), indices, offsets),
        shape=(h * a.n_rows, h * k),
    )
    out = block @ b_stack.reshape(h * k, n).astype(np.float32)
    return np.asarray(out, dtype=values.dtype).reshape(h, a.n_rows, n)


def sddmm_batched_reference(
    lhs_stack: np.ndarray,
    rhs_stack: np.ndarray,
    mask: CSRMatrix,
    *,
    scale_by_values: bool = False,
) -> np.ndarray:
    """Shared-topology batched SDDMM: ``(lhs[h] @ rhs[h].T)`` at nonzeros.

    ``lhs_stack`` is ``(H, rows, k)`` and ``rhs_stack`` ``(H, cols, k)``;
    returns the column-stacked ``(nnz, H)`` value matrix (one column per
    head, all sharing ``mask``'s topology).
    """
    lhs_stack = np.asarray(lhs_stack, dtype=np.float32)
    rhs_stack = np.asarray(rhs_stack, dtype=np.float32)
    values = _sddmm_stack(lhs_stack, rhs_stack, mask, scale_by_values)
    return values.T.astype(mask.values.dtype, order="C")


def _sddmm_stack(
    lhs: np.ndarray, rhs: np.ndarray, mask: CSRMatrix, scale_by_values: bool
) -> np.ndarray:
    """``(H, nnz)`` fp32 SDDMM values of fp32 ``(H, rows, k)`` and
    ``(H, cols, k)`` stacks."""
    rows, cols = mask.shape
    if lhs.ndim != 3 or rhs.ndim != 3 or lhs.shape[0] != rhs.shape[0]:
        raise ValueError(f"stacks {lhs.shape}, {rhs.shape} are not (H, n, k)")
    if lhs.shape[1] != rows or rhs.shape[1] != cols:
        raise ValueError(
            f"operands {lhs.shape} x {rhs.shape}^T incompatible with "
            f"mask {mask.shape}"
        )
    if lhs.shape[2] != rhs.shape[2]:
        raise ValueError("lhs and rhs must share the inner dimension")
    h, _, k = lhs.shape
    lengths = mask.row_lengths
    r = min(SDDMM_BLOCK_ROWS, SDDMM_DENSE_SAMPLE_ELEMS // max(1, h * cols))
    threshold = max(1.0, SDDMM_DENSE_SAMPLE_DENSITY * cols)
    dense = (r >= SDDMM_MIN_BLOCK_ROWS) & (lengths >= threshold)
    on_dense = np.repeat(dense, lengths)
    out = np.empty((h, mask.nnz), dtype=np.float32)

    dense_rows = np.flatnonzero(dense)
    if dense_rows.size:
        # Each dense nonzero's offset in its block's (R, cols) product. The
        # other nonzeros read element 0 and are overwritten by the gathers.
        flat = np.zeros(mask.nnz, dtype=np.int64)
        flat[on_dense] = mask.column_indices[on_dense] + np.repeat(
            np.arange(dense_rows.size) % r * cols, lengths[dense_rows]
        )
        prod = np.empty((h, r, cols), dtype=np.float32)
        for start in range(0, dense_rows.size, r):
            sub = dense_rows[start:start + r]
            block = np.zeros((h, r, k), dtype=np.float32)
            block[:, :sub.size] = lhs[:, sub]
            np.matmul(block, rhs.transpose(0, 2, 1), out=prod)
            nz = slice(mask.row_offsets[sub[0]], mask.row_offsets[sub[-1] + 1])
            out[:, nz] = prod.reshape(h, -1)[:, flat[nz]]

    sparse_nz = np.flatnonzero(~on_dense)
    chunk = max(1, SDDMM_CHUNK_NNZ // max(1, h))
    for start in range(0, sparse_nz.size, chunk):
        nz = sparse_nz[start:start + chunk]
        row_ids = np.searchsorted(mask.row_offsets, nz, side="right") - 1
        out[:, nz] = np.einsum(
            "hnk,hnk->hn", lhs[:, row_ids], rhs[:, mask.column_indices[nz]],
            dtype=np.float32,
        )
    if scale_by_values:
        out *= mask.values.astype(np.float32)
    return out


def sparse_softmax_batched_reference(
    a: CSRMatrix, values: np.ndarray, scale: float = 1.0
) -> np.ndarray:
    """Row-wise softmax over a ``(nnz, H)`` value matrix sharing ``a``'s
    topology — one vectorized pass over all heads."""
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[0] != a.nnz:
        raise ValueError(
            f"value matrix shape {values.shape} != ({a.nnz}, H)"
        )
    vals = values.astype(np.float32) * np.float32(scale)
    h = vals.shape[1]
    lengths = a.row_lengths
    row_ids = np.repeat(np.arange(a.n_rows), lengths)
    row_max = np.full((a.n_rows, h), -np.inf, dtype=np.float32)
    np.maximum.at(row_max, row_ids, vals)
    shifted = np.exp(vals - row_max[row_ids])
    row_sum = np.zeros((a.n_rows, h), dtype=np.float32)
    np.add.at(row_sum, row_ids, shifted)
    out = shifted / row_sum[row_ids]
    return out.astype(values.dtype)


def spmm_flops(a: CSRMatrix, n: int) -> float:
    """Useful FLOPs of ``A @ B`` (2 per nonzero per output column)."""
    return 2.0 * a.nnz * n


def sddmm_flops(mask: CSRMatrix, k: int) -> float:
    """Useful FLOPs of a sampled dense–dense product (2 per nnz per k)."""
    return 2.0 * mask.nnz * k
