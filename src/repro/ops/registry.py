"""Kernel registry: (op, backend) -> implementation.

Every sparse operator backend — the paper's Sputnik kernels and the
baselines it compares against — registers here under a string name, so any
call site can swap backends without changing imports::

    ops.spmm(a, b, V100)                      # sputnik (default)
    ops.spmm(a, b, V100, backend="cusparse")  # same call, cuSPARSE model

An implementation exposes up to two callables:

- ``run(context, ...)`` — exact numerics plus simulated cost
  (:class:`~repro.core.types.KernelResult`);
- ``cost(context, ...)`` — simulated cost only
  (:class:`~repro.gpu.executor.ExecutionResult`), the path benchmarks use
  to sweep thousands of problems without paying for numpy matmuls.

Both receive the :class:`~repro.ops.context.ExecutionContext` first, so
plan-capable backends (Sputnik) reuse cached plans and cost-only baselines
cache their launch costing per topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..baselines import aspt, cublas, cusparse
from ..baselines.merge_spmm import merge_spmm
from ..baselines.merge_spmm import spmm_launch as merge_spmm_launch
from ..core.csc_spmm import execute_spmm_csc
from ..core.sddmm import execute_sddmm, execute_sddmm_batched
from ..core.sparse_softmax import (
    execute_sparse_softmax,
    execute_sparse_softmax_batched,
)
from ..core.spmm import execute_spmm, execute_spmm_batched
from ..core.types import KernelResult
from ..gpu.executor import ExecutionResult, execute
from .plans import matrix_fingerprint


@dataclass(frozen=True)
class KernelImpl:
    """One registered backend for one operator."""

    op: str
    backend: str
    description: str
    run: Callable[..., KernelResult] | None = None
    cost: Callable[..., ExecutionResult] | None = None
    #: Whether this backend's numerics are bitwise-exact w.r.t. the op's
    #: reference computation. Exact backends are interchangeable inside a
    #: fallback chain with no numeric drift; inexact ones (e.g. the dense
    #: densified-GEMM fallback) complete the op but may differ in low bits.
    exact: bool = True


_REGISTRY: dict[tuple[str, str], KernelImpl] = {}


def register(impl: KernelImpl) -> KernelImpl:
    """Add (or replace) a backend implementation."""
    _REGISTRY[(impl.op, impl.backend)] = impl
    return impl


def get_impl(op: str, backend: str) -> KernelImpl:
    impl = _REGISTRY.get((op, backend))
    if impl is None:
        backends = available(op)
        if not backends:
            raise KeyError(f"unknown operator {op!r}")
        raise KeyError(
            f"operator {op!r} has no backend {backend!r}; "
            f"available: {sorted(backends)}"
        )
    return impl


def available(op: str | None = None) -> dict[str, str]:
    """Backends for one op (or ``op/backend`` for all ops) -> description."""
    if op is not None:
        return {
            b: impl.description
            for (o, b), impl in sorted(_REGISTRY.items())
            if o == op
        }
    return {
        f"{o}/{b}": impl.description for (o, b), impl in sorted(_REGISTRY.items())
    }


def exact_backends(op: str) -> set[str]:
    """Backends of ``op`` whose numerics are mutually bitwise-exact."""
    return {b for (o, b), impl in _REGISTRY.items() if o == op and impl.exact}


def _reject_config(backend: str, config: Any) -> None:
    if config is not None:
        raise ValueError(
            f"backend {backend!r} does not take a Sputnik kernel config"
        )


def _batch_columns(b: np.ndarray) -> int:
    b = np.asarray(b)
    if b.ndim != 2:
        raise ValueError(f"dense operand must be 2-D, got shape {b.shape}")
    return b.shape[1]


# ----------------------------------------------------------------------
# SpMM backends
# ----------------------------------------------------------------------
def _sputnik_spmm_run(ctx, a, b, config, selector):
    plan = ctx.spmm_plan(a, _batch_columns(b), config, selector)
    return execute_spmm(plan, a, b)


def _sputnik_spmm_cost(ctx, a, n, config, selector):
    return ctx.spmm_plan(a, n, config, selector).execution


def _cusparse_spmm_run(ctx, a, b, config, selector):
    _reject_config("cusparse", config)
    precision = "mixed" if a.values.dtype == np.float16 else "fp32"
    result = cusparse.cusparse_spmm(a, b, ctx.device, precision)
    ctx.telemetry.record_cache("spmm", "cusparse", False)
    return result


def _cusparse_spmm_cost(ctx, a, n, config, selector):
    _reject_config("cusparse", config)
    precision = "mixed" if a.values.dtype == np.float16 else "fp32"
    key = ("spmm", "cusparse", matrix_fingerprint(a), n, precision)
    return ctx.cost(
        key,
        lambda: execute(
            cusparse.spmm_launch(a, n, ctx.device, precision), ctx.device
        ),
    )


def _merge_spmm_run(ctx, a, b, config, selector):
    _reject_config("merge", config)
    result = merge_spmm(a, b, ctx.device)
    ctx.telemetry.record_cache("spmm", "merge", False)
    return result


def _merge_spmm_cost(ctx, a, n, config, selector):
    _reject_config("merge", config)
    key = ("spmm", "merge", matrix_fingerprint(a), n)
    return ctx.cost(
        key, lambda: execute(merge_spmm_launch(a, n, ctx.device), ctx.device)
    )


def _aspt_spmm_run(ctx, a, b, config, selector):
    _reject_config("aspt", config)
    result = aspt.aspt_spmm(a, b, ctx.device)
    ctx.telemetry.record_cache("spmm", "aspt", False)
    return result


def _aspt_spmm_cost(ctx, a, n, config, selector):
    _reject_config("aspt", config)
    key = ("spmm", "aspt", matrix_fingerprint(a), n)
    return ctx.cost(
        key,
        lambda: execute(
            aspt._panel_launch(a, n, ctx.device, "aspt_spmm", 2.0 * a.nnz * n),
            ctx.device,
        ),
    )


def _dense_spmm_run(ctx, a, b, config, selector):
    """The dense-GEMM equivalent: cuBLAS on the densified operand."""
    _reject_config("dense", config)
    b = np.asarray(b)
    n = _batch_columns(b)
    if b.shape[0] != a.n_cols:
        raise ValueError(f"B shape {b.shape} incompatible with A {a.shape}")
    execution = ctx.gemm_execution(
        a.n_rows, n, a.n_cols, a.value_bytes, op="spmm", backend="dense"
    )
    out = (a.to_dense().astype(np.float32) @ b.astype(np.float32)).astype(
        a.values.dtype
    )
    return KernelResult(output=out, execution=execution)


def _dense_spmm_cost(ctx, a, n, config, selector):
    _reject_config("dense", config)
    return ctx.gemm_execution(
        a.n_rows, n, a.n_cols, a.value_bytes, op="spmm", backend="dense"
    )


# ----------------------------------------------------------------------
# Batched backends: one shared topology, stacked operands, one launch
# ----------------------------------------------------------------------
def _batched_stack(b_stack: np.ndarray) -> np.ndarray:
    b_stack = np.asarray(b_stack)
    if b_stack.ndim != 3:
        raise ValueError(
            f"batched dense operand must be 3-D (H, ...), got {b_stack.shape}"
        )
    return b_stack


def _sputnik_spmm_batched_run(ctx, a, b_stack, config, selector, values=None):
    b_stack = _batched_stack(b_stack)
    plan = ctx.spmm_batched_plan(
        a, b_stack.shape[2], b_stack.shape[0], config, selector
    )
    return execute_spmm_batched(plan, a, b_stack, values)


def _sputnik_spmm_batched_cost(ctx, a, n, h, config, selector):
    return ctx.spmm_batched_plan(a, n, h, config, selector).execution


def _dense_spmm_batched_run(ctx, a, b_stack, config, selector, values=None):
    """Densified batched GEMM fallback: one strided-batched cuBLAS call."""
    _reject_config("dense", config)
    b_stack = _batched_stack(b_stack)
    h, k, n = b_stack.shape
    if k != a.n_cols:
        raise ValueError(
            f"B stack shape {b_stack.shape} incompatible with A {a.shape}"
        )
    execution = ctx.gemm_execution(
        h * a.n_rows, n, a.n_cols, a.value_bytes,
        op="spmm_batched", backend="dense",
    )
    if values is None:
        dense = a.to_dense().astype(np.float32)
        out = np.einsum(
            "mk,hkn->hmn", dense, b_stack.astype(np.float32)
        ).astype(a.values.dtype)
    else:
        values = np.asarray(values)
        row_ids = np.repeat(np.arange(a.n_rows), a.row_lengths)
        dense_stack = np.zeros((h, a.n_rows, a.n_cols), dtype=np.float32)
        dense_stack[:, row_ids, a.column_indices] = values.astype(np.float32)
        out = np.einsum(
            "hmk,hkn->hmn", dense_stack, b_stack.astype(np.float32)
        ).astype(values.dtype)
    return KernelResult(output=out, execution=execution)


def _dense_spmm_batched_cost(ctx, a, n, h, config, selector):
    _reject_config("dense", config)
    return ctx.gemm_execution(
        h * a.n_rows, n, a.n_cols, a.value_bytes,
        op="spmm_batched", backend="dense",
    )


def _sputnik_sddmm_batched_run(ctx, lhs_stack, rhs_stack, mask, config, selector):
    lhs_stack = _batched_stack(lhs_stack)
    plan = ctx.sddmm_batched_plan(
        mask, lhs_stack.shape[2], lhs_stack.shape[0], config, selector
    )
    return execute_sddmm_batched(plan, lhs_stack, rhs_stack, mask)


def _sputnik_sddmm_batched_cost(ctx, mask, k, h, config, selector):
    return ctx.sddmm_batched_plan(mask, k, h, config, selector).execution


def _sputnik_softmax_batched_run(ctx, a, values, scale):
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(
            f"batched softmax values must be (nnz, H), got {values.shape}"
        )
    plan = ctx.sparse_softmax_batched_plan(a, values.shape[1])
    return execute_sparse_softmax_batched(plan, a, values, scale=scale)


def _sputnik_softmax_batched_cost(ctx, a, h):
    return ctx.sparse_softmax_batched_plan(a, h).execution


# ----------------------------------------------------------------------
# SDDMM backends
# ----------------------------------------------------------------------
def _sputnik_sddmm_run(ctx, lhs, rhs, mask, config, selector):
    k = np.asarray(lhs).shape[1]
    plan = ctx.sddmm_plan(mask, k, config, selector)
    return execute_sddmm(plan, lhs, rhs, mask)


def _sputnik_sddmm_cost(ctx, mask, k, config, selector):
    return ctx.sddmm_plan(mask, k, config, selector).execution


def _cusparse_sddmm_run(ctx, lhs, rhs, mask, config, selector):
    _reject_config("cusparse", config)
    result = cusparse.cusparse_sddmm(lhs, rhs, mask, ctx.device)
    ctx.telemetry.record_cache("sddmm", "cusparse", False)
    return result


def _cusparse_sddmm_cost(ctx, mask, k, config, selector):
    _reject_config("cusparse", config)
    key = ("sddmm", "cusparse", matrix_fingerprint(mask), k)
    return ctx.cost(
        key, lambda: cusparse.sddmm_execution(mask, k, ctx.device)
    )


def _aspt_sddmm_run(ctx, lhs, rhs, mask, config, selector):
    _reject_config("aspt", config)
    result = aspt.aspt_sddmm(lhs, rhs, mask, ctx.device)
    ctx.telemetry.record_cache("sddmm", "aspt", False)
    return result


def _aspt_sddmm_cost(ctx, mask, k, config, selector):
    _reject_config("aspt", config)
    key = ("sddmm", "aspt", matrix_fingerprint(mask), k)
    return ctx.cost(
        key,
        lambda: execute(
            aspt._panel_launch(
                mask, k, ctx.device, "aspt_sddmm", 2.0 * mask.nnz * k,
                mode="sddmm",
            ),
            ctx.device,
        ),
    )


# ----------------------------------------------------------------------
# Sparse softmax / CSC SpMM / dense matmul
# ----------------------------------------------------------------------
def _sputnik_softmax_run(ctx, a, scale):
    plan = ctx.sparse_softmax_plan(a)
    return execute_sparse_softmax(plan, a, scale=scale)


def _sputnik_softmax_cost(ctx, a):
    return ctx.sparse_softmax_plan(a).execution


def _sputnik_csc_spmm_run(ctx, b, a, config):
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[1] != a.shape[0]:
        raise ValueError(
            f"B shape {b.shape} incompatible with A {a.shape} for B @ A"
        )
    plan = ctx.csc_spmm_plan(a, b.shape[0], config)
    return execute_spmm_csc(plan, b, a)


def _sputnik_csc_spmm_cost(ctx, a, n, config):
    return ctx.csc_spmm_plan(a, n, config).execution


def _cublas_matmul_run(ctx, a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible GEMM shapes {a.shape} @ {b.shape}")
    execution = ctx.gemm_execution(
        a.shape[0], b.shape[1], a.shape[1], a.dtype.itemsize
    )
    out = cublas.gemm_reference(a, b)
    return KernelResult(output=out, execution=execution)


def _cublas_matmul_cost(ctx, m, n, k, element_bytes):
    return ctx.gemm_execution(m, n, k, element_bytes)


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
register(KernelImpl(
    "spmm", "sputnik", "The paper's 1-D tiled SpMM (Section V)",
    run=_sputnik_spmm_run, cost=_sputnik_spmm_cost,
))
register(KernelImpl(
    "spmm", "cusparse", "cusparseSpMM model (generic CSR kernel)",
    run=_cusparse_spmm_run, cost=_cusparse_spmm_cost,
))
register(KernelImpl(
    "spmm", "merge", "MergeSpmm row-splitting model (Yang et al. 2018)",
    run=_merge_spmm_run, cost=_merge_spmm_cost,
))
register(KernelImpl(
    "spmm", "aspt", "ASpT adaptive-tiling model (Hong et al. 2019)",
    run=_aspt_spmm_run, cost=_aspt_spmm_cost,
))
register(KernelImpl(
    "spmm", "dense", "cuBLAS dense GEMM on the densified operand",
    run=_dense_spmm_run, cost=_dense_spmm_cost, exact=False,
))
register(KernelImpl(
    "spmm_batched", "sputnik",
    "Batched shared-topology SpMM: one plan, one z-scaled launch",
    run=_sputnik_spmm_batched_run, cost=_sputnik_spmm_batched_cost,
))
register(KernelImpl(
    "spmm_batched", "dense",
    "Strided-batched cuBLAS GEMM on the densified operand stack",
    run=_dense_spmm_batched_run, cost=_dense_spmm_batched_cost, exact=False,
))
register(KernelImpl(
    "sddmm", "sputnik", "The paper's strip-mined SDDMM (Section VI)",
    run=_sputnik_sddmm_run, cost=_sputnik_sddmm_cost,
))
register(KernelImpl(
    "sddmm", "cusparse", "cusparseConstrainedGeMM + explicit transpose",
    run=_cusparse_sddmm_run, cost=_cusparse_sddmm_cost,
))
register(KernelImpl(
    "sddmm", "aspt", "ASpT adaptive-tiling SDDMM model",
    run=_aspt_sddmm_run, cost=_aspt_sddmm_cost,
))
register(KernelImpl(
    "sddmm_batched", "sputnik",
    "Batched shared-mask SDDMM: one plan, one z-scaled launch",
    run=_sputnik_sddmm_batched_run, cost=_sputnik_sddmm_batched_cost,
))
register(KernelImpl(
    "sparse_softmax", "sputnik", "Row softmax over CSR values (Section VII-C)",
    run=_sputnik_softmax_run, cost=_sputnik_softmax_cost,
))
register(KernelImpl(
    "sparse_softmax_batched", "sputnik",
    "Batched row softmax over a (nnz, H) value matrix, one launch",
    run=_sputnik_softmax_batched_run, cost=_sputnik_softmax_batched_cost,
))
register(KernelImpl(
    "csc_spmm", "sputnik", "B @ A with CSC A via the transposed CSR problem",
    run=_sputnik_csc_spmm_run, cost=_sputnik_csc_spmm_cost,
))
register(KernelImpl(
    "matmul", "cublas", "Dense GEMM (tile/split-K dispatch model)",
    run=_cublas_matmul_run, cost=_cublas_matmul_cost,
))
