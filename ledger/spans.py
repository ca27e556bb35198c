"""Layer spans for the ledger's traced run, recorded from outside ``src/``.

The traced run wraps the public functions of each software layer of
``repro`` (and the model layers built on them) at every name a caller can
reach them by, records one span per call, and turns the spans into
per-step self times. Nothing inside ``src/`` is changed: :class:`Tracing`
swaps module attributes and class methods, and swaps the originals back.

Spans live on two independent axes, each with its own stack:

- ``module``: the ``src/repro`` software layers (fingerprint, plan lookup,
  config selection, plan build, cost model, dispatch, memory accounting,
  flight recorder, reference numerics, dense GEMM, dynamic sparsity, model
  code). Their self times, plus ``bench.unattributed_ms``, add up to the
  step wall.
- ``model``: the model layers of a forward or a training step (QKV,
  SDDMM, softmax, SpMM, ...). Each carries the simulated time of the
  public ops dispatched inside it.

A span's self time is its duration minus the durations of its direct
children on the same axis.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

MODULE = "module"
MODEL = "model"

#: Software layers, in report order, with the ``src/repro`` functions each
#: one wraps (documented here; the wiring is in :class:`Tracing`).
MODULE_LAYERS = {
    "ops.fingerprint": "repro.ops.plans.matrix_fingerprint",
    "ops.plan": "ExecutionContext.*_plan, gemm_execution, cost",
    "tune.select": "ExecutionContext.spmm_config / sddmm_config",
    "core.plan_build": "repro.core plan_* / repair_*_plan",
    "gpu.cost": "repro.gpu.executor.execute",
    "ops.dispatch": "public repro.ops op functions",
    "ops.memory": "ExecutionContext.memory_scope (enter + exit)",
    "obs.flight": "FlightRecorder.record / record_launch",
    "sparse.numerics": "repro.sparse.ops *_reference kernels",
    "baselines.cublas": "the dense GEMM run behind ops.matmul",
    "nn.dynamic": "repro.nn.dynamic, topology_delta, update_topology",
    "nn.model": "TransformerLayer.forward, sparse attention, SparseLinear",
}

#: Model layers of the two model workloads.
ATTENTION_LAYERS = (
    "nn.qkv", "nn.sddmm", "nn.softmax", "nn.spmm",
    "nn.out_proj", "nn.ffn", "nn.layer_norm", "nn.glue",
)
TRAINING_LAYERS = (
    "nn.fwd_spmm", "nn.grad_sddmm", "nn.grad_spmm",
    "nn.dense_grad", "nn.update_topology",
)
MODEL_LAYERS = ATTENTION_LAYERS + TRAINING_LAYERS
#: Model layers that dispatch no simulated op (host-only code).
NO_SIM_LAYERS = ("nn.layer_norm", "nn.glue")

#: Public ops that open a model-layer span, keyed by the model span they
#: are called from: attention's three kernels inside the layer forward
#: (whose own self time is ``nn.glue``), and the two gradient kernels
#: inside ``SparseLinear.backward`` (the step names that span ``nn.glue``
#: too: its self time is operand conversion and the transposed weight).
OP_MODEL_SPANS = {
    "sddmm_batched": {"nn.glue": "nn.sddmm"},
    "sparse_softmax_batched": {"nn.glue": "nn.softmax"},
    "spmm_batched": {"nn.glue": "nn.spmm"},
    "sddmm": {"nn.glue": "nn.grad_sddmm"},
    "spmm": {"nn.glue": "nn.grad_spmm"},
}

PUBLIC_OPS = (
    "spmm", "spmm_cost", "sddmm", "sddmm_cost",
    "sparse_softmax", "sparse_softmax_cost",
    "spmm_batched", "spmm_batched_cost",
    "sddmm_batched", "sddmm_batched_cost",
    "sparse_softmax_batched", "sparse_softmax_batched_cost",
    "csc_spmm", "csc_spmm_cost", "matmul", "matmul_cost",
)

PLAN_METHODS = (
    "spmm_plan", "sddmm_plan", "sparse_softmax_plan",
    "spmm_batched_plan", "sddmm_batched_plan",
    "sparse_softmax_batched_plan", "csc_spmm_plan",
    "gemm_execution", "cost",
)

PLAN_BUILD_FNS = {
    "repro.core.spmm": ("plan_spmm", "plan_spmm_batched", "repair_spmm_plan"),
    "repro.core.sddmm": (
        "plan_sddmm", "plan_sddmm_batched", "repair_sddmm_plan",
    ),
    "repro.core.sparse_softmax": (
        "plan_sparse_softmax", "plan_sparse_softmax_batched",
    ),
    "repro.core.csc_spmm": ("plan_spmm_csc",),
}

REFERENCE_KERNELS = (
    "spmm_reference", "sddmm_reference", "sparse_softmax_reference",
    "spmm_batched_reference", "sddmm_batched_reference",
    "sparse_softmax_batched_reference",
)


class _Span:
    __slots__ = ("rec", "axis", "name", "count")

    def __init__(self, rec, axis, name, count=True):
        self.rec = rec
        self.axis = axis
        self.name = name
        self.count = count

    def __enter__(self):
        self.rec.stacks[self.axis].append([self.name, time.perf_counter(), 0.0])
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        stack = self.rec.stacks[self.axis]
        name, start, child = stack.pop()
        dur = end - start
        stat = self.rec.stats[name]
        stat[0] += self.count
        stat[1] += dur - child
        if stack:
            stack[-1][2] += dur
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class Recorder:
    """Span stacks and per-layer totals for one traced run."""

    def __init__(self) -> None:
        self.stacks = {MODULE: [], MODEL: []}
        #: name -> [calls, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0])
        #: model layer -> simulated seconds of the ops dispatched in it
        self.model_sim = defaultdict(float)
        #: plain counters (cache hits/misses, repairs, launches, bytes)
        self.counters = defaultdict(float)
        self.op_depth = 0

    def model(self, name: str):
        """A model-layer span, opened by a workload's own step code."""
        return _Span(self, MODEL, name)

    def model_top(self) -> str | None:
        stack = self.stacks[MODEL]
        return stack[-1][0] if stack else None


class NullRecorder:
    """Stands in for :class:`Recorder` when tracing is off."""

    def model(self, name: str):
        return NULL_SPAN


def _execution_of(result):
    """The simulated ExecutionResult of a public op's return value."""
    return getattr(result, "execution", result)


def _nbytes(obj) -> int:
    """Bytes of a dense array or a sparse matrix; 0 for anything else."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    memory_bytes = getattr(obj, "memory_bytes", None)
    return memory_bytes() if callable(memory_bytes) else 0


def _timed(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _Span(rec, MODULE, name):
            return fn(*args, **kwargs)

    return wrapper


def _numerics(rec, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _Span(rec, MODULE, "sparse.numerics"):
            out = fn(*args, **kwargs)
        moved = sum(_nbytes(a) for a in args) + sum(
            _nbytes(v) for v in kwargs.values()
        )
        rec.counters["sparse.numerics.bytes"] += moved + _nbytes(out)
        return out

    return wrapper


def _dispatch(rec, op, fn):
    """A public op: an ``ops.dispatch`` span, the op's model span when it
    is called from a mapped model layer, and its simulated time charged to
    the innermost model layer (outermost op call only)."""
    model_map = OP_MODEL_SPANS.get(op, {})

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        model_name = model_map.get(rec.model_top())
        model_span = _Span(rec, MODEL, model_name) if model_name else NULL_SPAN
        rec.op_depth += 1
        try:
            with model_span, _Span(rec, MODULE, "ops.dispatch"):
                out = fn(*args, **kwargs)
                if rec.op_depth == 1:
                    top = rec.model_top()
                    if top is not None:
                        rec.model_sim[top] += _execution_of(out).runtime_s
            return out
        finally:
            rec.op_depth -= 1

    return wrapper


def _project(rec, fn):
    """``TransformerLayer._project``: a model span named by its weight."""

    @functools.wraps(fn)
    def wrapper(self, w, *args, **kwargs):
        if w is self.w_q or w is self.w_k or w is self.w_v:
            name = "nn.qkv"
        elif w is self.w_o:
            name = "nn.out_proj"
        else:
            name = "nn.ffn"
        with _Span(rec, MODEL, name):
            return fn(self, w, *args, **kwargs)

    return wrapper


def _model_and_module(rec, model_name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _Span(rec, MODEL, model_name), _Span(rec, MODULE, "nn.model"):
            return fn(*args, **kwargs)

    return wrapper


def _model_only(rec, model_name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _Span(rec, MODEL, model_name):
            return fn(*args, **kwargs)

    return wrapper


class _TimedScope:
    """Proxy for a memory scope: times its enter and exit as ops.memory."""

    __slots__ = ("rec", "scope")

    def __init__(self, rec, scope):
        self.rec = rec
        self.scope = scope

    def __enter__(self):
        with _Span(self.rec, MODULE, "ops.memory", count=False):
            return self.scope.__enter__()

    def __exit__(self, *exc):
        with _Span(self.rec, MODULE, "ops.memory", count=False):
            return self.scope.__exit__(*exc)


def _memory_scope(rec, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _Span(rec, MODULE, "ops.memory"):
            return _TimedScope(rec, fn(*args, **kwargs))

    return wrapper


def _counting(rec, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        count(*args, **kwargs)
        return fn(*args, **kwargs)

    return wrapper


def _repro_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracing:
    """Every layer-boundary wrapper for one :class:`Recorder`.

    :meth:`apply` swaps the wrappers in and :meth:`revert` puts the
    originals back; both are plain attribute swaps, cheap enough to do
    around every traced step. A function is replaced at *every* module
    attribute bound to it, so a caller that imported it by name (``from
    .plans import matrix_fingerprint``) is traced as well as one that goes
    through the defining module.
    """

    def __init__(self, rec: Recorder) -> None:
        import repro.gpu.executor as executor
        import repro.nn.attention as attention
        import repro.nn.dynamic as dynamic
        import repro.nn.transformer_layer as transformer_layer
        import repro.ops as ops
        import repro.ops.plans as plans
        import repro.sparse.ops as sparse_ops
        from repro.nn.layers import SparseLinear
        from repro.obs.flight import FlightRecorder
        from repro.ops.context import ExecutionContext, Telemetry
        from repro.ops.registry import get_impl, register

        build_fns = {
            importlib.import_module(name): fns
            for name, fns in PLAN_BUILD_FNS.items()
        }
        self.rec = rec
        #: (owner, attribute, original, wrapper)
        swaps = self._swaps = []
        modules = _repro_modules()

        def everywhere(original, wrapper):
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        swaps.append((mod, key, original, wrapper))

        def method(cls, name, make):
            original = cls.__dict__[name]
            swaps.append((cls, name, original, make(original)))

        everywhere(plans.matrix_fingerprint,
                   _timed(rec, "ops.fingerprint", plans.matrix_fingerprint))
        for name in PLAN_METHODS:
            method(ExecutionContext, name, lambda f: _timed(rec, "ops.plan", f))
        for name in ("spmm_config", "sddmm_config"):
            method(ExecutionContext, name,
                   lambda f: _timed(rec, "tune.select", f))
        for module, names in build_fns.items():
            for name in names:
                fn = getattr(module, name)
                everywhere(fn, _timed(rec, "core.plan_build", fn))
        everywhere(executor.execute, _timed(rec, "gpu.cost", executor.execute))
        for op in PUBLIC_OPS:
            fn = getattr(ops, op)
            everywhere(fn, _dispatch(rec, op, fn))
        method(ExecutionContext, "memory_scope",
               lambda f: _memory_scope(rec, f))
        for name in ("record", "record_launch"):
            method(FlightRecorder, name, lambda f: _timed(rec, "obs.flight", f))
        for name in REFERENCE_KERNELS:
            fn = getattr(sparse_ops, name)
            everywhere(fn, _numerics(rec, fn))

        for name in ("drop_grow_step", "drop_grow_update", "select_rows"):
            fn = getattr(dynamic, name)
            everywhere(fn, _timed(rec, "nn.dynamic", fn))
        everywhere(plans.topology_delta,
                   _timed(rec, "nn.dynamic", plans.topology_delta))
        method(SparseLinear, "update_topology",
               lambda f: _timed(rec, "nn.dynamic", f))

        method(transformer_layer.TransformerLayer, "forward",
               lambda f: _model_and_module(rec, "nn.glue", f))
        method(transformer_layer.TransformerLayer, "_project",
               lambda f: _project(rec, f))
        everywhere(
            transformer_layer.layer_norm,
            _model_only(rec, "nn.layer_norm", transformer_layer.layer_norm),
        )
        everywhere(attention.sparse_attention_batched,
                   _timed(rec, "nn.model", attention.sparse_attention_batched))
        for name in ("forward", "backward"):
            method(SparseLinear, name, lambda f: _timed(rec, "nn.model", f))

        def count_cache(_telemetry, _op, _backend, hit):
            rec.counters["ops.plan.hits" if hit else "ops.plan.misses"] += 1

        def count_repair(_telemetry, _op, _backend, _rows):
            rec.counters["ops.plan.repairs"] += 1

        method(Telemetry, "record_cache",
               lambda f: _counting(rec, f, count_cache))
        method(Telemetry, "record_plan_repair",
               lambda f: _counting(rec, f, count_repair))

        def count_launch(_launch, _device):
            rec.counters["gpu.launches"] += 1

        cublas = get_impl("matmul", "cublas")
        traced_cublas = type(cublas)(
            cublas.op, cublas.backend, cublas.description,
            run=_timed(rec, "baselines.cublas", cublas.run),
            cost=cublas.cost, exact=cublas.exact,
        )
        self._register = register
        self._impls = (cublas, traced_cublas)
        self._executor = executor
        self._count_launch = count_launch

    def apply(self) -> None:
        for owner, key, _, wrapper in self._swaps:
            setattr(owner, key, wrapper)
        self._register(self._impls[1])
        self._executor.register_launch_observer(self._count_launch)

    def revert(self) -> None:
        self._executor.unregister_launch_observer(self._count_launch)
        self._register(self._impls[0])
        for owner, key, original, _ in reversed(self._swaps):
            setattr(owner, key, original)
