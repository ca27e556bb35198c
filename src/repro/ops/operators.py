"""Operator wrappers: the single entry point for every sparse kernel.

Each wrapper resolves (context, backend, config) and dispatches through the
:mod:`~repro.ops.registry`:

- ``device``/``context``: pass an explicit :class:`ExecutionContext` to
  manage caching yourself, or just a :class:`DeviceSpec` to share the
  module-level :func:`~repro.ops.context.default_context` for that device
  (passing neither means the default V100 context);
- ``backend``: a registry string — ``"sputnik"`` (default), ``"cusparse"``,
  ``"merge"``, ``"aspt"``, ``"dense"`` — **or** a fallback chain (a list of
  backend strings, or a :class:`~repro.reliability.policy.FallbackPolicy`)
  dispatched with retry/backoff and the reliability error taxonomy;
- ``config``: an explicit kernel config, or ``None`` to resolve one via
  the :mod:`repro.tune` selector protocol — ``selector`` names a policy:
  ``"heuristic"`` (the paper's rules), ``"oracle"`` (costs every
  candidate, Section VII-B), or ``"tuned"`` (hill-climbing autotuner) —
  with the choice cached per topology and selector;
- ``validate``: run the numerical guardrails on the output (NaN/Inf scan;
  fp16 overflow triggers an automatic fp32 degraded-mode re-run).

``*_cost`` variants return the simulated :class:`ExecutionResult` only —
the benchmark path, also plan-cached.

Every wrapper checks its inputs and hands one ``invoke(impl, config)``
callable (plus, for fp16 operands, an ``fp32(impl)`` upcast) to
:func:`_dispatch`, the one dispatch function. It has one fork: a plain
string backend with no guardrails and no fault injector runs once, so a
``DeviceOOMError`` or ``PlanCorruptionError`` reaches the caller raw;
anything else goes through
:func:`repro.reliability.policy.run_with_policy`, whose
:class:`~repro.reliability.policy.DispatchReport` rides on
``result.reliability`` (and ``context.last_dispatch_report``). Both
branches charge each attempt to a per-backend memory scope, pass an
explicit config only to the primary or ``sputnik`` backend, and record
the same launch telemetry.

When the context carries a :class:`~repro.obs.tracing.Tracer`, every
dispatch opens an ``op``-category span annotated with the backend chosen,
plan-cache outcome (hit/miss + memory/store/built tier, set by the plan
cache), simulated seconds, and any reliability events (retry / fallback /
degraded, set by the policy loop). With no tracer attached, the only cost
is one attribute check and the shared no-op span.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..core.config import SddmmConfig, SpmmConfig
from ..core.types import KernelResult
from ..gpu.device import DeviceSpec
from ..gpu.executor import ExecutionResult
from ..obs.tracing import NO_SPAN
from ..reliability.policy import as_policy, run_with_policy
from ..sparse.csc import CSCMatrix
from ..sparse.csr import CSRMatrix
from .context import ExecutionContext, default_context
from .registry import available, exact_backends, get_impl


def resolve_context(
    context: ExecutionContext | None, device: DeviceSpec | None
) -> ExecutionContext:
    """Pick the context to run in; `device` must agree with an explicit one."""
    if context is not None:
        if device is not None and device != context.device:
            raise ValueError(
                f"device {device.name!r} conflicts with the context's "
                f"{context.device.name!r}"
            )
        return context
    return default_context(device) if device is not None else default_context()


def _fast_path(ctx: ExecutionContext, backend, validate: bool) -> bool:
    """Plain string backend, no guardrails, no injector: run it once."""
    return isinstance(backend, str) and not validate and ctx.injector is None


# ----------------------------------------------------------------------
# Transient workspace footprints (charged against the device allocator
# for the duration of one dispatch; operand residency persists).
# ----------------------------------------------------------------------
def _spmm_workspace(a, n: int, h: int = 1) -> int:
    vb = a.values.dtype.itemsize
    return (a.shape[0] * n + a.shape[1] * n) * vb * h


def _sddmm_workspace(mask, k: int, h: int = 1) -> int:
    vb = mask.values.dtype.itemsize
    return (mask.nnz + (mask.shape[0] + mask.shape[1]) * k) * vb * h


def _softmax_workspace(a, h: int = 1) -> int:
    return a.nnz * a.values.dtype.itemsize * h


def _gemm_workspace(m: int, n: int, k: int, element_bytes: int = 4) -> int:
    return (m * k + k * n + m * n) * element_bytes


def _op_span(ctx: ExecutionContext, op: str, backend):
    """A dispatch span when the context is traced, else the no-op span."""
    tracer = ctx.tracer
    if tracer is None:
        return NO_SPAN
    requested = (
        backend
        if isinstance(backend, str)
        else "/".join(as_policy(backend).backends)
    )
    attrs = {"backend": requested, "device": ctx.device.name}
    if ctx.device_id is not None:
        attrs["device_id"] = ctx.device_id
    return tracer.span(op, category="op", **attrs)


def _dispatch(
    ctx: ExecutionContext,
    op: str,
    backend,
    validate: bool,
    invoke,
    *,
    config=None,
    operands=(),
    workspace: int = 0,
    fp32=None,
    batch: int | None = None,
    cost: bool = False,
):
    """Run one op call as ``invoke(impl, config)`` on the chosen backend.

    On the fast path the one backend runs once; anything else goes
    through the reliability policy loop, with ``fp32(impl)`` as the
    degraded-mode upcast when the operands are fp16. Every attempt is
    charged to its own per-backend memory scope, so falling back from aspt
    to sputnik really does shrink the charged footprint, which is stage 3
    of the OOM degradation ladder. ``cost`` marks ``invoke`` as returning an
    :class:`ExecutionResult` rather than a :class:`KernelResult`.
    """
    with _op_span(ctx, op, backend) as span:
        if batch is not None:
            span.set(batch=batch)
        fast = _fast_path(ctx, backend, validate)
        policy = None if fast else as_policy(
            backend, validate=True if validate else None
        )
        primary = backend if fast else policy.backends[0]

        def attempt(be: str, upcast: bool = False):
            impl = get_impl(op, be)
            with ctx.memory_scope(op, be, operands, workspace):
                if upcast:
                    return fp32(impl)
                # An explicit Sputnik config does not transfer to other
                # backends.
                cfg = config if be in (primary, "sputnik") else None
                return invoke(impl, cfg)

        if fast:
            result = attempt(backend)
            used = backend
        else:
            upcast = None if fp32 is None else partial(attempt, upcast=True)
            result = run_with_policy(
                ctx,
                op,
                policy,
                attempt,
                operands=operands,
                fp32_attempt=upcast,
                registered=set(available(op)),
                exact_backends=exact_backends(op),
            )
            report = ctx.last_dispatch_report
            used = report.backend_used
            span.set(backend_used=used)
            if not report.clean:
                span.set(
                    retries=report.retries,
                    fallbacks=report.fallbacks,
                    degraded=report.degraded,
                )
        execution = result if cost else result.execution
        ctx.telemetry.record_launch(op, used, execution)
        span.add_sim(execution.runtime_s)
        return result


def _shard_route(shard, context, device, config):
    """Validate the ``shard=`` kwarg (a :class:`repro.dist.DeviceGroup`).

    Sharded dispatch runs through the group's own per-device contexts, so
    an explicit ``context``/``device``/``config`` would be silently
    ignored — reject the combination instead.
    """
    if shard is None:
        return False
    if context is not None or device is not None or config is not None:
        raise ValueError(
            "shard= routes dispatch through the DeviceGroup's own "
            "contexts; do not also pass context/device/config"
        )
    return True




def spmm(
    a: CSRMatrix,
    b: np.ndarray,
    device: DeviceSpec | None = None,
    config: SpmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
    shard=None,
    shard_strategy: str = "row",
) -> KernelResult:
    """``C = A @ B`` with sparse ``A``: exact numerics + simulated cost.

    ``shard=`` (a :class:`repro.dist.DeviceGroup`) dispatches row- or
    2-D-sharded (``shard_strategy``) across the group's K devices with
    interconnect-priced collectives; the returned result's ``execution``
    is the group summary and ``result.sharded`` the full breakdown.
    """
    if _shard_route(shard, context, device, config):
        from ..dist import sharded_spmm

        return sharded_spmm(
            a, b, shard, strategy=shard_strategy,
            backend=backend, selector=selector,
        )
    ctx = resolve_context(context, device)
    fp32 = None
    if a.values.dtype == np.float16:

        def fp32(impl):
            a32 = a.astype(np.float32)
            b32 = np.asarray(b, dtype=np.float32)
            return impl.run(ctx, a32, b32, None, selector)

    return _dispatch(
        ctx, "spmm", backend, validate,
        lambda impl, cfg: impl.run(ctx, a, b, cfg, selector),
        config=config, operands=(a,), fp32=fp32,
        workspace=_spmm_workspace(a, b.shape[1]),
    )


def spmm_cost(
    a: CSRMatrix,
    n: int,
    device: DeviceSpec | None = None,
    config: SpmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
    shard=None,
    shard_strategy: str = "row",
) -> ExecutionResult:
    """Simulated SpMM cost only (``n`` = dense batch columns).

    With ``shard=`` (a :class:`repro.dist.DeviceGroup`) returns the
    :class:`repro.dist.ShardedExecution` for the group instead.
    """
    if _shard_route(shard, context, device, config):
        from ..dist import sharded_spmm_cost

        return sharded_spmm_cost(
            a, n, shard, strategy=shard_strategy,
            backend=backend, selector=selector,
        )
    ctx = resolve_context(context, device)
    return _dispatch(
        ctx, "spmm", backend, validate,
        lambda impl, cfg: impl.cost(ctx, a, n, cfg, selector),
        config=config, operands=(a,), cost=True,
        workspace=_spmm_workspace(a, n),
    )


def sddmm(
    lhs: np.ndarray,
    rhs: np.ndarray,
    mask: CSRMatrix,
    device: DeviceSpec | None = None,
    config: SddmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
    shard=None,
) -> KernelResult:
    """``(lhs @ rhs^T) ∘ I[mask]``: exact numerics + simulated cost.

    ``shard=`` (a :class:`repro.dist.DeviceGroup`) row-shards the mask
    across the group's K devices (see :func:`repro.dist.sharded_sddmm`).
    """
    if _shard_route(shard, context, device, config):
        from ..dist import sharded_sddmm

        return sharded_sddmm(
            lhs, rhs, mask, shard, backend=backend, selector=selector
        )
    ctx = resolve_context(context, device)
    fp32 = None
    if mask.values.dtype == np.float16:

        def fp32(impl):
            mask32 = mask.astype(np.float32)
            return impl.run(ctx, lhs, rhs, mask32, None, selector)

    return _dispatch(
        ctx, "sddmm", backend, validate,
        lambda impl, cfg: impl.run(ctx, lhs, rhs, mask, cfg, selector),
        config=config, operands=(mask,), fp32=fp32,
        workspace=_sddmm_workspace(mask, lhs.shape[1]),
    )


def sddmm_cost(
    mask: CSRMatrix,
    k: int,
    device: DeviceSpec | None = None,
    config: SddmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
    shard=None,
    shard_strategy: str = "row",
) -> ExecutionResult:
    """Simulated SDDMM cost only (``k`` = dot-product inner dimension).

    With ``shard=`` (a :class:`repro.dist.DeviceGroup`) returns the
    :class:`repro.dist.ShardedExecution` for the group instead.
    """
    if _shard_route(shard, context, device, config):
        from ..dist import sharded_sddmm_cost

        return sharded_sddmm_cost(
            mask, k, shard, strategy=shard_strategy,
            backend=backend, selector=selector,
        )
    ctx = resolve_context(context, device)
    return _dispatch(
        ctx, "sddmm", backend, validate,
        lambda impl, cfg: impl.cost(ctx, mask, k, cfg, selector),
        config=config, operands=(mask,), cost=True,
        workspace=_sddmm_workspace(mask, k),
    )


def sparse_softmax(
    a: CSRMatrix,
    device: DeviceSpec | None = None,
    scale: float = 1.0,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    validate: bool = False,
) -> KernelResult:
    """Row-wise softmax over CSR nonzeros (Section VII-C)."""
    ctx = resolve_context(context, device)
    fp32 = None
    if a.values.dtype == np.float16:

        def fp32(impl):
            return impl.run(ctx, a.astype(np.float32), scale)

    return _dispatch(
        ctx, "sparse_softmax", backend, validate,
        lambda impl, cfg: impl.run(ctx, a, scale),
        operands=(a,), fp32=fp32, workspace=_softmax_workspace(a),
    )


def sparse_softmax_cost(
    a: CSRMatrix,
    device: DeviceSpec | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    validate: bool = False,
) -> ExecutionResult:
    """Simulated sparse-softmax cost only."""
    ctx = resolve_context(context, device)
    return _dispatch(
        ctx, "sparse_softmax", backend, validate,
        lambda impl, cfg: impl.cost(ctx, a),
        operands=(a,), cost=True, workspace=_softmax_workspace(a),
    )


def spmm_batched(
    a: CSRMatrix,
    b_stack: np.ndarray,
    device: DeviceSpec | None = None,
    config: SpmmConfig | None = None,
    *,
    values: np.ndarray | None = None,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
) -> KernelResult:
    """``C[h] = A_h @ B[h]`` for ``h`` products sharing ``A``'s topology.

    ``b_stack`` is ``(H, k, n)``; ``values`` optionally supplies a
    ``(H, nnz)`` per-item value matrix over the shared structure (per-head
    attention probabilities). ONE plan is resolved and ONE z-scaled launch
    is costed for the whole stack, amortizing ``H - 1`` launch overheads;
    a policy-dispatched call produces ONE DispatchReport covering the
    batch, and guardrail validation scans the whole output stack.
    """
    ctx = resolve_context(context, device)
    b_stack = np.asarray(b_stack)
    if b_stack.ndim != 3:
        raise ValueError(f"B stack must be (H, k, n), got {b_stack.shape}")
    h = b_stack.shape[0]
    fp32 = None
    if a.values.dtype == np.float16:

        def fp32(impl):
            a32 = a.astype(np.float32)
            b32 = np.asarray(b_stack, dtype=np.float32)
            v32 = None if values is None else np.asarray(values, np.float32)
            return impl.run(ctx, a32, b32, None, selector, v32)

    return _dispatch(
        ctx, "spmm_batched", backend, validate,
        lambda impl, cfg: impl.run(ctx, a, b_stack, cfg, selector, values),
        config=config, operands=(a,), fp32=fp32, batch=h,
        workspace=_spmm_workspace(a, b_stack.shape[2], h),
    )


def spmm_batched_cost(
    a: CSRMatrix,
    n: int,
    h: int,
    device: DeviceSpec | None = None,
    config: SpmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
) -> ExecutionResult:
    """Simulated batched-SpMM cost only (``h`` stacked products)."""
    ctx = resolve_context(context, device)
    return _dispatch(
        ctx, "spmm_batched", backend, validate,
        lambda impl, cfg: impl.cost(ctx, a, n, h, cfg, selector),
        config=config, operands=(a,), batch=h, cost=True,
        workspace=_spmm_workspace(a, n, h),
    )


def sddmm_batched(
    lhs_stack: np.ndarray,
    rhs_stack: np.ndarray,
    mask: CSRMatrix,
    device: DeviceSpec | None = None,
    config: SddmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
) -> KernelResult:
    """``(lhs[h] @ rhs[h]^T) ∘ I[mask]`` for ``h`` stacked head pairs.

    The output is the column-stacked ``(nnz, H)`` value matrix over the
    shared mask topology — exactly what :func:`sparse_softmax_batched`
    and the ``values`` form of :func:`spmm_batched` consume.
    """
    ctx = resolve_context(context, device)
    lhs_stack = np.asarray(lhs_stack)
    if lhs_stack.ndim != 3:
        raise ValueError(
            f"lhs stack must be (H, rows, k), got {lhs_stack.shape}"
        )
    h = lhs_stack.shape[0]
    return _dispatch(
        ctx, "sddmm_batched", backend, validate,
        lambda impl, cfg: impl.run(
            ctx, lhs_stack, rhs_stack, mask, cfg, selector
        ),
        config=config, operands=(mask,), batch=h,
        workspace=_sddmm_workspace(mask, lhs_stack.shape[2], h),
    )


def sddmm_batched_cost(
    mask: CSRMatrix,
    k: int,
    h: int,
    device: DeviceSpec | None = None,
    config: SddmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    selector: str = "heuristic",
    validate: bool = False,
) -> ExecutionResult:
    """Simulated batched-SDDMM cost only (``h`` stacked products)."""
    ctx = resolve_context(context, device)
    return _dispatch(
        ctx, "sddmm_batched", backend, validate,
        lambda impl, cfg: impl.cost(ctx, mask, k, h, cfg, selector),
        config=config, operands=(mask,), batch=h, cost=True,
        workspace=_sddmm_workspace(mask, k, h),
    )


def sparse_softmax_batched(
    a: CSRMatrix,
    values: np.ndarray,
    device: DeviceSpec | None = None,
    scale: float = 1.0,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    validate: bool = False,
) -> KernelResult:
    """Row softmax over a ``(nnz, H)`` value matrix sharing ``a``'s
    topology — all ``H`` columns in one launch."""
    ctx = resolve_context(context, device)
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"value matrix must be (nnz, H), got {values.shape}")
    h = values.shape[1]
    fp32 = None
    if values.dtype == np.float16:

        def fp32(impl):
            return impl.run(ctx, a, np.asarray(values, np.float32), scale)

    return _dispatch(
        ctx, "sparse_softmax_batched", backend, validate,
        lambda impl, cfg: impl.run(ctx, a, values, scale),
        operands=(a,), fp32=fp32, batch=h,
        workspace=_softmax_workspace(a, h),
    )


def sparse_softmax_batched_cost(
    a: CSRMatrix,
    h: int,
    device: DeviceSpec | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    validate: bool = False,
) -> ExecutionResult:
    """Simulated batched sparse-softmax cost only (``h`` value columns)."""
    ctx = resolve_context(context, device)
    return _dispatch(
        ctx, "sparse_softmax_batched", backend, validate,
        lambda impl, cfg: impl.cost(ctx, a, h),
        operands=(a,), batch=h, cost=True,
        workspace=_softmax_workspace(a, h),
    )


def csc_spmm(
    b: np.ndarray,
    a: CSCMatrix,
    device: DeviceSpec | None = None,
    config: SpmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    validate: bool = False,
) -> KernelResult:
    """``C = B @ A`` with CSC ``A`` and column-major ``B``/``C``."""
    ctx = resolve_context(context, device)
    return _dispatch(
        ctx, "csc_spmm", backend, validate,
        lambda impl, cfg: impl.run(ctx, b, a, cfg),
        config=config, operands=(a,),
        workspace=_spmm_workspace(a, b.shape[0]),
    )


def csc_spmm_cost(
    a: CSCMatrix,
    n: int,
    device: DeviceSpec | None = None,
    config: SpmmConfig | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="sputnik",
    validate: bool = False,
) -> ExecutionResult:
    """Simulated CSC-SpMM cost only (``n`` = rows of the dense left operand)."""
    ctx = resolve_context(context, device)
    return _dispatch(
        ctx, "csc_spmm", backend, validate,
        lambda impl, cfg: impl.cost(ctx, a, n, cfg),
        config=config, operands=(a,), cost=True,
        workspace=_spmm_workspace(a, n),
    )


def matmul(
    a: np.ndarray,
    b: np.ndarray,
    device: DeviceSpec | None = None,
    *,
    context: ExecutionContext | None = None,
    backend="cublas",
    validate: bool = False,
) -> KernelResult:
    """Dense ``A @ B`` (the models' dense projections and baselines)."""
    ctx = resolve_context(context, device)
    a = np.asarray(a)
    b = np.asarray(b)
    return _dispatch(
        ctx, "matmul", backend, validate,
        lambda impl, cfg: impl.run(ctx, a, b),
        workspace=_gemm_workspace(
            a.shape[0], b.shape[1], a.shape[1], a.dtype.itemsize
        ),
    )


def matmul_cost(
    m: int,
    n: int,
    k: int,
    device: DeviceSpec | None = None,
    element_bytes: int = 4,
    *,
    context: ExecutionContext | None = None,
    backend="cublas",
    validate: bool = False,
) -> ExecutionResult:
    """Simulated dense-GEMM cost only."""
    ctx = resolve_context(context, device)
    return _dispatch(
        ctx, "matmul", backend, validate,
        lambda impl, cfg: impl.cost(ctx, m, n, k, element_bytes),
        cost=True, workspace=_gemm_workspace(m, n, k, element_bytes),
    )
