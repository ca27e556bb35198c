"""The ledger's four fixed workloads.

Each workload is a closed loop with one caller. It builds its inputs from
the seed in :meth:`setup`, computes what its checks compare against in
:meth:`prepare` (untimed), and then runs :meth:`step` repeatedly; the
harness times only ``step``. :meth:`check` and :meth:`finish` return
``(attempted, failed)`` operation counts that feed ``ok_frac``.

``step`` returns the simulated :class:`~repro.gpu.executor.ExecutionResult`
of every public call it made, which gives ``sim_ms``, the ``sim.*`` phases
and ``sim_digest``.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro import ops
from repro.datasets import banded_random_mask, dnn_corpus, materialize_rows
from repro.gpu import V100
from repro.nn.dynamic import DropGrowSchedule, drop_grow_step
from repro.nn.layers import SparseLinear
from repro.nn.profile import Profile
from repro.nn.transformer_layer import TransformerLayer
from repro.sparse.csr import CSRMatrix
from repro.sparse.transpose import transpose
from spans import NullRecorder

#: fp32 tolerance for comparing against a NumPy reference that sums in a
#: different order (set from the dtype, before measuring).
RTOL = 1e-4
ATOL = 1e-4


def execution_stats(result) -> tuple:
    """Every simulated statistic of one ExecutionResult, children included."""
    phases = result.phases.as_dict() if result.phases is not None else {}
    return (
        result.name,
        result.runtime_s,
        result.flops,
        result.dram_bytes,
        result.l2_bytes,
        result.l1_bytes,
        result.smem_bytes,
        result.n_blocks,
        tuple(sorted(phases.items())),
        tuple(execution_stats(c) for c in result.children),
    )


def digest(records) -> str:
    """Hash of the simulated statistics of a sequence of results."""
    h = hashlib.blake2b(digest_size=12)

    def feed(stats):
        for item in stats:
            if isinstance(item, tuple):
                feed(item)
            elif isinstance(item, float):
                h.update(struct.pack("<d", item))
            else:
                h.update(repr(item).encode())

    for r in records:
        feed(execution_stats(r))
    return h.hexdigest()


class Workload:
    """The interface the harness drives; see the module docstring."""

    name: str
    why: str
    #: Layers whose absolute time the traced run reports as findings.
    findings: tuple[str, ...]
    #: Operations one step attempts (a raised step fails all of them).
    ops_per_step = 1

    def before(self) -> None:
        """Untimed work before each step (references for its checks)."""

    def finish(self) -> tuple[int, int]:
        """Checks made once, after the last step."""
        return 0, 0


class AttentionForward(Workload):
    name = "attention-fwd"
    why = (
        "Host time goes to reference numerics and the plan layer does only "
        "a few warm lookups per step, so a numerics or fused-attention "
        "change shows here, and a plan-layer change should not."
    )
    findings = ("baselines.cublas", "nn.softmax")

    seq = 1024
    d_model = 512
    heads = 8
    d_ffn = 2048
    band = 128

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.mask = banded_random_mask(self.seq, band=self.band, seed=seed)
        self.context = ops.ExecutionContext(V100)
        ops.set_default_context(self.context)
        self.layer = TransformerLayer(
            self.d_model, self.heads, self.d_ffn, self.mask, seed=seed
        )
        self.x = rng.standard_normal((self.seq, self.d_model)).astype(
            np.float32
        )
        # Warm-up: the first forward builds the plans.
        _, self.warm_records = self._forward()

    def _forward(self):
        profile = Profile()
        out = self.layer.forward(self.x, V100, profile)
        return out, profile.records

    def prepare(self) -> None:
        self.expected = dense_attention_layer(self.layer, self.x, self.mask)
        self.expected_digest = digest(self.warm_records)

    def step(self, rec):
        self.out, records = self._forward()
        return records

    def check(self, records) -> tuple[int, int]:
        ok = digest(records) == self.expected_digest and np.allclose(
            self.out, self.expected, rtol=RTOL, atol=ATOL
        )
        return 1, 0 if ok else 1


def dense_attention_layer(layer, x, mask) -> np.ndarray:
    """The same pre-norm masked layer, computed densely in NumPy."""

    def norm(t):
        t = t.astype(np.float64)
        return (t - t.mean(axis=1, keepdims=True)) / np.sqrt(
            t.var(axis=1, keepdims=True) + 1e-5
        )

    x = x.astype(np.float64)
    hd = layer.head_dim
    allowed = mask.to_dense() != 0
    h = norm(x)
    q, k, v = (
        h @ w.T.astype(np.float64) for w in (layer.w_q, layer.w_k, layer.w_v)
    )
    heads = []
    for i in range(layer.n_heads):
        cols = slice(i * hd, (i + 1) * hd)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(hd)
        scores = np.where(allowed, scores, -np.inf)
        scores -= scores.max(axis=1, keepdims=True)
        p = np.exp(scores)
        p /= p.sum(axis=1, keepdims=True)
        heads.append(p @ v[:, cols])
    x = x + np.concatenate(heads, axis=1) @ layer.w_o.T.astype(np.float64)
    hidden = np.maximum(norm(x) @ layer.w_ffn_in.T.astype(np.float64), 0)
    x = x + hidden @ layer.w_ffn_out.T.astype(np.float64)
    return x.astype(np.float32)


class _Corpus(Workload):
    """A 20-matrix corpus slice costed with spmm_cost + sddmm_cost at each
    spec's batch columns."""

    slice_size = 20

    def setup(self, seed: int) -> None:
        self.calls = []
        for spec in dnn_corpus.sample_corpus(self.slice_size, seed=seed):
            matrix = spec.materialize()
            self.calls.extend((matrix, n) for n in spec.batch_columns)
        self.ops_per_step = 2 * len(self.calls)

    def _sweep(self, context):
        records = []
        for m, n in self.calls:
            records.append(ops.spmm_cost(m, n, context=context))
            records.append(ops.sddmm_cost(m, n, context=context))
        return records

    def prepare(self) -> None:
        # Cold then warm in one reference context: the per-call results
        # every step must reproduce, and they must agree with each other.
        context = ops.ExecutionContext(V100)
        cold = [digest([r]) for r in self._sweep(context)]
        warm = [digest([r]) for r in self._sweep(context)]
        self.expected = cold
        self.reference_failures = sum(c != w for c, w in zip(cold, warm))

    def check(self, records) -> tuple[int, int]:
        failed = sum(
            digest([r]) != e for r, e in zip(records, self.expected)
        ) + abs(len(records) - len(self.expected))
        return len(self.expected), failed

    def finish(self) -> tuple[int, int]:
        return len(self.expected), self.reference_failures


class CorpusCold(_Corpus):
    name = "corpus-cold"
    why = (
        "Every lookup misses, so plan build, config selection and the cost "
        "model do all the work, with no numerics. This is the paper-figure "
        "sweep path, where a plan-build change shows."
    )
    findings = ("core.plan_build", "gpu.cost")

    def step(self, rec):
        return self._sweep(ops.ExecutionContext(V100))


class CorpusWarm(_Corpus):
    name = "corpus-warm"
    why = (
        "Every lookup hits, so this uses the plan layer differently from "
        "corpus-cold: a change that moves work from lookup into build, or "
        "into matrix construction, shows as a corpus-cold or setup_s loss."
    )
    findings = ("ops.fingerprint",)

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.context = ops.ExecutionContext(V100)
        self._sweep(self.context)

    def before(self) -> None:
        self._misses = self.context.telemetry.cache_misses

    def step(self, rec):
        return self._sweep(self.context)

    def check(self, records) -> tuple[int, int]:
        attempted, failed = super().check(records)
        if self.context.telemetry.cache_misses != self._misses:
            failed += 1
        return attempted, failed


class RigLTrain(Workload):
    name = "rigl-train"
    why = (
        "This is the only workload that runs repro.nn.dynamic, the "
        "plan-repair tier and non-batched SDDMM numerics."
    )
    findings = ("nn.grad_sddmm",)

    size = 2048
    density = 0.1
    batch = 256
    row_fraction = 0.05

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        per_row = round(self.density * self.size)
        weight = materialize_rows(
            np.full(self.size, per_row, dtype=np.int64), self.size, rng
        )
        self.x = rng.standard_normal((self.size, self.batch)).astype(np.float32)
        self.gy = rng.standard_normal((self.size, self.batch)).astype(
            np.float32
        )
        self.x_t = np.ascontiguousarray(self.x.T)
        self.context = ops.ExecutionContext(V100)
        ops.set_default_context(self.context)
        self.layer = SparseLinear(weight)
        self.schedule = DropGrowSchedule(
            frequency=1, row_fraction=self.row_fraction, seed=seed
        )
        self.step_index = 0
        # Warm-up: one step builds every plan the repair chain starts from.
        self.step(None)

    def prepare(self) -> None:
        self.dense_grad = self.gy.astype(np.float64) @ self.x.T.astype(
            np.float64
        )

    def before(self) -> None:
        self.parent = self.layer.weight
        self.expected_y = self.layer.reference_forward(self.x)

    def step(self, rec):
        rec = rec or NullRecorder()
        self.step_index += 1
        layer = self.layer
        profile = Profile()
        with rec.model("nn.fwd_spmm"):
            self.y = layer.forward(self.x, V100, profile)
        with rec.model("nn.glue"):
            self.dw, _ = layer.backward(self.x, self.gy, V100, profile)
        with rec.model("nn.dense_grad"):
            grad = ops.matmul(self.gy, self.x_t, V100)
        with rec.model("nn.update_topology"):
            drop_grow_step(
                layer, grad.output, self.schedule, self.step_index,
                context=self.context,
            )
        return profile.records + [grad.execution]

    def check(self, records) -> tuple[int, int]:
        parent = self.parent
        rows = np.repeat(np.arange(parent.n_rows), parent.row_lengths)
        cols = parent.column_indices.astype(np.int64)
        ok = (
            np.allclose(self.y, self.expected_y, rtol=RTOL, atol=ATOL)
            and np.array_equal(self.dw.column_indices, parent.column_indices)
            and np.allclose(
                self.dw.values, self.dense_grad[rows, cols],
                rtol=RTOL, atol=ATOL,
            )
            and self.layer.weight is not parent
            and np.array_equal(
                self.layer.weight.row_offsets, parent.row_offsets
            )
        )
        return 1, 0 if ok else 1

    def finish(self) -> tuple[int, int]:
        """The repaired plans of the last mutation (forward SpMM, δW SDDMM,
        and δX SpMM over the transposed weight) cost exactly what a cold
        build costs in a fresh context."""
        w = self.layer.weight
        cold = ops.ExecutionContext(V100)
        checks = (
            (ops.spmm_cost, w), (ops.sddmm_cost, w), (ops.spmm_cost, transpose(w))
        )
        failed = 0
        for cost, matrix in checks:
            fresh = CSRMatrix(
                matrix.shape, matrix.row_offsets.copy(),
                matrix.column_indices.copy(), matrix.values.copy(),
            )
            repaired = cost(matrix, self.batch, context=self.context)
            built = cost(fresh, self.batch, context=cold)
            failed += digest([repaired]) != digest([built])
        return len(checks), failed


WORKLOADS = {
    w.name: w for w in (AttentionForward, CorpusCold, CorpusWarm, RigLTrain)
}
