"""Tests for the repro.ops dispatch layer: plan-cache invariants, the
kernel registry, telemetry, and bitwise equivalence with the direct core
kernel entry points."""

import numpy as np
import pytest

from repro import core, ops
from repro.baselines import cusparse_spmm
from repro.core import SddmmConfig, SpmmConfig
from repro.gpu import GTX1080, V100
from repro.ops import ExecutionContext, PlanCache, matrix_fingerprint
from repro.sparse import CSRMatrix
from repro.sparse.csc import csr_to_csc
from tests.conftest import random_sparse


@pytest.fixture
def ctx():
    return ExecutionContext(V100)


def dense_batch(rng, rows, cols):
    return rng.standard_normal((rows, cols)).astype(np.float32)


def op_calls(rng, dtype):
    """op -> (run, cost), each ``f(context, backend)`` over one problem.

    The two calls of a pair describe the same problem (a 256x48 20% mask,
    inner dimension 16, 32 dense columns, two heads), so a run's
    ``execution`` must equal its cost call.
    """
    a = random_sparse(rng, 256, 48, 0.2, dtype=dtype)
    csc = csr_to_csc(a)
    h, k, n = 2, 16, 32

    def dense(*shape):
        return rng.standard_normal(shape).astype(dtype)

    b, b_stack, g = dense(48, n), dense(h, 48, n), dense(256, 48)
    lhs, rhs, left = dense(h, 256, k), dense(h, 48, k), dense(n, 256)
    values = dense(a.nnz, h)
    width = np.dtype(dtype).itemsize
    return {
        "spmm": (
            lambda c, be: ops.spmm(a, b, context=c, backend=be),
            lambda c, be: ops.spmm_cost(a, n, context=c, backend=be),
        ),
        "sddmm": (
            lambda c, be: ops.sddmm(lhs[0], rhs[0], a, context=c, backend=be),
            lambda c, be: ops.sddmm_cost(a, k, context=c, backend=be),
        ),
        "sparse_softmax": (
            lambda c, be: ops.sparse_softmax(a, context=c, backend=be),
            lambda c, be: ops.sparse_softmax_cost(a, context=c, backend=be),
        ),
        "spmm_batched": (
            lambda c, be: ops.spmm_batched(a, b_stack, context=c, backend=be),
            lambda c, be: ops.spmm_batched_cost(
                a, n, h, context=c, backend=be
            ),
        ),
        "sddmm_batched": (
            lambda c, be: ops.sddmm_batched(
                lhs, rhs, a, context=c, backend=be
            ),
            lambda c, be: ops.sddmm_batched_cost(
                a, k, h, context=c, backend=be
            ),
        ),
        "sparse_softmax_batched": (
            lambda c, be: ops.sparse_softmax_batched(
                a, values, context=c, backend=be
            ),
            lambda c, be: ops.sparse_softmax_batched_cost(
                a, h, context=c, backend=be
            ),
        ),
        "csc_spmm": (
            lambda c, be: ops.csc_spmm(left, csc, context=c, backend=be),
            lambda c, be: ops.csc_spmm_cost(csc, n, context=c, backend=be),
        ),
        "matmul": (
            lambda c, be: ops.matmul(g, b, context=c, backend=be),
            lambda c, be: ops.matmul_cost(
                256, n, 48, element_bytes=width, context=c, backend=be
            ),
        ),
    }


def execution_summary(e):
    """The scalar fields of an ExecutionResult (its schedule holds arrays)."""
    return (
        e.name, e.runtime_s, e.flops, e.dram_bytes, e.l2_bytes, e.l1_bytes,
        e.smem_bytes, e.n_blocks, e.phases,
    )


class TestPlanCacheInvariants:
    def test_repeat_call_hits_and_is_bitwise_identical(self, rng, ctx):
        a = random_sparse(rng, 96, 64, 0.3)
        b = dense_batch(rng, 64, 32)
        first = ops.spmm(a, b, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 0 and stats.cache_misses == 1

        second = ops.spmm(a, b, context=ctx)
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert (second.output == first.output).all()
        assert second.execution.runtime_s == first.execution.runtime_s

    def test_cached_result_matches_uncached_core_call(self, rng, ctx):
        """The dispatch layer must not perturb numerics or simulated cost."""
        a = random_sparse(rng, 96, 64, 0.3)
        b = dense_batch(rng, 64, 32)
        direct = core.spmm(a, b, V100)
        for _ in range(2):  # miss, then hit
            routed = ops.spmm(a, b, context=ctx)
            assert (routed.output == direct.output).all()
            assert routed.execution.runtime_s == direct.execution.runtime_s

    def test_equal_topology_rebuilt_matrix_still_hits(self, rng, ctx):
        """Identity is structural (content hash), not Python object id."""
        dense = (rng.random((64, 48)) < 0.3) * rng.standard_normal((64, 48))
        a1 = CSRMatrix.from_dense(dense.astype(np.float32))
        a2 = CSRMatrix.from_dense(dense.astype(np.float32))
        b = dense_batch(rng, 48, 16)
        ops.spmm(a1, b, context=ctx)
        ops.spmm(a2, b, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 1

    def test_value_update_keeps_plan(self, rng, ctx):
        """Plans depend on structure only: new values on the same topology
        reuse the plan but produce the new numerics."""
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        ops.spmm(a, b, context=ctx)
        a2 = a.with_values(a.values * 2.0)
        result = ops.spmm(a2, b, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 1
        assert np.allclose(result.output, core.spmm(a2, b, V100).output)

    def test_topology_mutation_invalidates(self, rng, ctx):
        a = CSRMatrix.from_dense(np.eye(32, dtype=np.float32))
        b = dense_batch(rng, 32, 16)
        ops.spmm(a, b, context=ctx)
        fp_before = matrix_fingerprint(a)
        # An in-place edit of a cached topology fails loudly...
        with pytest.raises(ValueError, match="read-only"):
            a.column_indices[0] = 1
        assert matrix_fingerprint(a) == fp_before
        # ...and the same edit as a new matrix (row 0's nonzero moved from
        # column 0 to column 1) misses the plan cache.
        cols = a.column_indices.copy()
        cols[0] = 1
        moved = CSRMatrix(a.shape, a.row_offsets, cols, a.values)
        assert matrix_fingerprint(moved) != fp_before
        result = ops.spmm(moved, b, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 0 and stats.cache_misses == 2
        assert np.allclose(result.output, moved.to_dense() @ b)

    def test_different_batch_width_is_a_different_plan(self, rng, ctx):
        a = random_sparse(rng, 64, 48, 0.3)
        ops.spmm(a, dense_batch(rng, 48, 16), context=ctx)
        ops.spmm(a, dense_batch(rng, 48, 32), context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 0 and stats.cache_misses == 2

    def test_explicit_config_keys_the_plan(self, rng, ctx):
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        ops.spmm(a, b, config=SpmmConfig(vector_width=1, block_items_x=32), context=ctx)
        ops.spmm(a, b, config=SpmmConfig(vector_width=2, block_items_x=16), context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_misses == 2

    def test_devices_do_not_share_plans(self, rng):
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        v100 = ExecutionContext(V100)
        gtx = ExecutionContext(GTX1080)
        r1 = ops.spmm(a, b, context=v100)
        r2 = ops.spmm(a, b, context=gtx)
        assert gtx.telemetry.stats[("spmm", "sputnik")].cache_misses == 1
        assert r1.execution.runtime_s != r2.execution.runtime_s

    def test_sddmm_softmax_csc_and_matmul_plans_cache(self, rng, ctx):
        mask = random_sparse(rng, 64, 64, 0.25)
        lhs = dense_batch(rng, 64, 32)
        rhs = dense_batch(rng, 64, 32)
        for _ in range(2):
            ops.sddmm(lhs, rhs, mask, context=ctx)
            ops.sparse_softmax(mask, context=ctx)
            ops.csc_spmm(dense_batch(rng, 8, 64), csr_to_csc(mask), context=ctx)
            ops.matmul(lhs, rhs.T, context=ctx)
        for op, backend in [
            ("sddmm", "sputnik"),
            ("sparse_softmax", "sputnik"),
            ("csc_spmm", "sputnik"),
            ("matmul", "cublas"),
        ]:
            stats = ctx.telemetry.stats[(op, backend)]
            assert stats.cache_hits >= 1, (op, backend)

    def test_lru_eviction_bounds_the_cache(self, rng):
        ctx = ExecutionContext(V100, max_plans=2)
        a = random_sparse(rng, 64, 48, 0.3)
        for n in (8, 16, 24, 32):
            ops.spmm_cost(a, n, context=ctx)
        assert len(ctx.plans) <= 2
        # The oldest entry was evicted: calling it again misses.
        ops.spmm_cost(a, 8, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 0


class TestOperatorEquivalence:
    """ops.* must reproduce the direct kernel entry points bit for bit."""

    def test_sddmm_matches_core(self, rng, ctx):
        mask = random_sparse(rng, 64, 48, 0.25)
        lhs = dense_batch(rng, 64, 16)
        rhs = dense_batch(rng, 48, 16)
        direct = core.sddmm(lhs, rhs, mask, V100)
        routed = ops.sddmm(lhs, rhs, mask, context=ctx)
        assert (routed.output.values == direct.output.values).all()
        assert routed.execution.runtime_s == direct.execution.runtime_s

    def test_sparse_softmax_matches_core(self, rng, ctx):
        a = random_sparse(rng, 48, 48, 0.3)
        direct = core.sparse_softmax(a, V100, scale=0.5)
        routed = ops.sparse_softmax(a, scale=0.5, context=ctx)
        assert (routed.output.values == direct.output.values).all()
        assert routed.execution.runtime_s == direct.execution.runtime_s

    def test_csc_spmm_matches_core(self, rng, ctx):
        a = csr_to_csc(random_sparse(rng, 48, 64, 0.3))
        b = dense_batch(rng, 16, 48)
        direct = core.spmm_csc(b, a, V100)
        routed = ops.csc_spmm(b, a, context=ctx)
        assert (routed.output == direct.output).all()
        assert routed.execution.runtime_s == direct.execution.runtime_s

    def test_cusparse_backend_matches_baseline(self, rng, ctx):
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        direct = cusparse_spmm(a, b, V100)
        routed = ops.spmm(a, b, backend="cusparse", context=ctx)
        assert (routed.output == direct.output).all()
        assert routed.execution.runtime_s == direct.execution.runtime_s

    @pytest.mark.parametrize(
        "op, backend, dtype",
        [
            (*key.split("/"), dtype)
            for key in sorted(ops.available())
            for dtype in (np.float32, np.float16)
            # The paper's SDDMM kernels are fp32 only: their run path
            # rejects an fp16 mask.
            if not (key.startswith("sddmm") and key.endswith("/sputnik")
                    and dtype == np.float16)
        ],
        ids=lambda v: np.dtype(v).name if isinstance(v, type) else v,
    )
    def test_cost_paths_match_run_paths(self, rng, ctx, op, backend, dtype):
        """A run's ``execution`` equals its ``cost`` call, for every
        registered backend and both value precisions."""
        run, cost = op_calls(rng, dtype)[op]
        assert (
            run(ctx, backend).execution.runtime_s
            == cost(ctx, backend).runtime_s
        )

    def test_oracle_selector_matches_oracle_config(self, rng, ctx):
        from repro.tune import oracle_spmm_config

        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 20)
        config = oracle_spmm_config(a, 20, V100)
        direct = core.spmm(a, b, V100, config)
        routed = ops.spmm(a, b, selector="oracle", context=ctx)
        assert routed.execution.runtime_s == direct.execution.runtime_s


class TestDispatchBranches:
    """A plain backend string (the fast path) and the one-element chain
    (the policy loop) run the same work for every public op."""

    @pytest.mark.parametrize("kind", ["run", "cost"])
    @pytest.mark.parametrize(
        "op", sorted({key.split("/")[0] for key in ops.available()})
    )
    def test_fast_path_matches_policy_path(self, rng, op, kind):
        call = op_calls(rng, np.float32)[op][kind == "cost"]
        backend = "cublas" if op == "matmul" else "sputnik"
        results, rows = [], []
        for chain in (backend, [backend]):
            c = ExecutionContext(V100)
            results.append(call(c, chain))
            rows.append(c.telemetry_snapshot()[f"{op}/{backend}"])
        fast, policy = results
        if kind == "run":
            out_fast, out_policy = (
                getattr(r.output, "values", r.output) for r in results
            )
            assert out_fast.dtype == out_policy.dtype
            assert out_fast.tobytes() == out_policy.tobytes()
            fast, policy = fast.execution, policy.execution
        assert execution_summary(fast) == execution_summary(policy)
        for key in ("launches", "simulated_seconds"):
            assert rows[0][key] == rows[1][key]


class TestRegistry:
    def test_available_lists_builtins(self):
        spmm_backends = ops.available("spmm")
        assert {"sputnik", "cusparse", "merge", "aspt", "dense"} <= set(
            spmm_backends
        )
        assert "matmul/cublas" in ops.available()

    def test_unknown_backend_is_a_helpful_error(self):
        with pytest.raises(KeyError, match="available"):
            ops.get_impl("spmm", "nope")
        with pytest.raises(KeyError, match="unknown operator"):
            ops.get_impl("conv2d", "sputnik")

    def test_baseline_backends_reject_sputnik_configs(self, rng, ctx):
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        with pytest.raises(ValueError, match="config"):
            ops.spmm(a, b, config=SpmmConfig(), backend="cusparse", context=ctx)
        with pytest.raises(ValueError, match="config"):
            ops.sddmm_cost(a, 16, config=SddmmConfig(), backend="aspt", context=ctx)

    def test_custom_backend_registration(self, rng, ctx):
        calls = []

        def fake_run(c, a, b, config, selector):
            calls.append(a)
            return core.spmm(a, b, c.device)

        from repro.ops import registry

        ops.register(
            ops.KernelImpl("spmm", "test_fake", "test backend", run=fake_run)
        )
        try:
            a = random_sparse(rng, 32, 32, 0.3)
            ops.spmm(a, dense_batch(rng, 32, 8), backend="test_fake", context=ctx)
            assert calls == [a]
        finally:
            registry._REGISTRY.pop(("spmm", "test_fake"), None)


class TestContextsAndTelemetry:
    def test_default_context_is_shared_per_device(self):
        ops.reset_default_contexts()
        try:
            assert ops.default_context(V100) is ops.default_context(V100)
            assert ops.default_context(V100) is not ops.default_context(GTX1080)
        finally:
            ops.reset_default_contexts()

    def test_device_and_context_must_agree(self, rng, ctx):
        a = random_sparse(rng, 32, 32, 0.3)
        with pytest.raises(ValueError, match="conflicts"):
            ops.spmm(a, dense_batch(rng, 32, 8), GTX1080, context=ctx)

    def test_telemetry_accumulates_simulated_time(self, rng, ctx):
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        r1 = ops.spmm(a, b, context=ctx)
        r2 = ops.spmm(a, b, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.launches == 2
        assert stats.simulated_seconds == pytest.approx(
            r1.execution.runtime_s + r2.execution.runtime_s
        )
        assert "spmm/sputnik" in ctx.telemetry.summary()
        assert ctx.telemetry.launches == 2

    def test_invalid_selector_rejected(self, rng, ctx):
        a = random_sparse(rng, 32, 32, 0.3)
        with pytest.raises(ValueError, match="selector"):
            ops.spmm(a, dense_batch(rng, 32, 8), selector="magic", context=ctx)


class TestFingerprintAndCacheUnits:
    def test_fingerprint_ignores_values(self, rng):
        a = random_sparse(rng, 32, 32, 0.3)
        assert matrix_fingerprint(a) == matrix_fingerprint(
            a.with_values(a.values * 3.0)
        )

    def test_fingerprint_distinguishes_dtype(self, rng):
        a = random_sparse(rng, 32, 32, 0.3)
        assert matrix_fingerprint(a) != matrix_fingerprint(a.astype(np.float16))

    def test_fingerprint_distinguishes_csr_from_csc(self, rng):
        a = random_sparse(rng, 32, 32, 0.3)
        assert matrix_fingerprint(a) != matrix_fingerprint(csr_to_csc(a))

    def test_fingerprint_rejects_dense(self):
        with pytest.raises(TypeError):
            matrix_fingerprint(np.eye(4))

    def test_plan_cache_lru_order(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_plan_cache_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)
