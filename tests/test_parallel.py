"""Unit tests for the shared parallel-execution layer."""

import contextlib

import numpy as np
import pytest

from repro.parallel import (
    BACKENDS,
    ExecutionContext,
    resolve_context,
    spawn_seed_sequences,
)
from repro.telemetry import trace
from repro.telemetry.logs import bind_context, current_context


def _square(task, shared):
    return task * task


def _offset(task, shared):
    return task + shared["offset"]


def _bound_ids(task, shared):
    return current_context()


class TestExecutionContext:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionContext("gpu")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="max_workers"):
            ExecutionContext("thread", max_workers=0)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ExecutionContext("thread", chunk_size=0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_preserves_task_order(self, backend):
        context = ExecutionContext(backend, max_workers=3)
        tasks = list(range(23))
        assert context.map_tasks(_square, tasks) == [t * t for t in tasks]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shared_payload_broadcast(self, backend):
        context = ExecutionContext(backend, max_workers=2)
        result = context.map_tasks(_offset, [1, 2, 3], shared={"offset": 10})
        assert result == [11, 12, 13]

    def test_empty_task_list(self):
        assert ExecutionContext("process", max_workers=2).map_tasks(_square, []) == []

    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 100])
    def test_chunking_never_changes_results(self, chunk_size):
        context = ExecutionContext("thread", max_workers=4, chunk_size=chunk_size)
        tasks = list(range(17))
        assert context.map_tasks(_square, tasks) == [t * t for t in tasks]

    def test_single_worker_pool_degrades_to_serial(self):
        context = ExecutionContext("process", max_workers=1)
        assert context.is_serial
        assert context.map_tasks(_square, [1, 2]) == [1, 4]


class TestPooledChunks:
    """One chunk runner serves every pooled backend, traced or not."""

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_tasks_see_the_callers_correlation_ids(self, backend, traced):
        context = ExecutionContext(backend, max_workers=2, chunk_size=2)
        ids = {"request_id": "req-7", "job_id": "job-3"}
        root = trace.trace_root("run") if traced else contextlib.nullcontext()
        with root, bind_context(**ids):
            seen = context.map_tasks(_bound_ids, list(range(6)))
        assert seen == [ids] * 6

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_traced_chunks_read_the_shared_payload(self, backend):
        context = ExecutionContext(backend, max_workers=2, chunk_size=2)
        with trace.trace_root("run") as root:
            result = context.map_tasks(_offset, [1, 2, 3], shared={"offset": 10})
        assert result == [11, 12, 13]
        (map_span,) = root.children
        assert [c.name for c in map_span.children] == ["parallel.chunk"] * 2


class TestResolveContext:
    def test_default_is_serial(self):
        assert resolve_context(None).backend == "serial"

    def test_explicit_context_passes_through(self):
        explicit = ExecutionContext("thread", max_workers=2)
        assert resolve_context(explicit) is explicit

    def test_explicit_context_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("DPCOPULA_PARALLEL", "thread:3")
        explicit = ExecutionContext("serial")
        assert resolve_context(explicit) is explicit

    def test_none_is_serial_whatever_the_env(self, monkeypatch):
        # DPCOPULA_PARALLEL once turned context=None into a pool; nothing
        # reads it any more, so None stays serial with it set.
        monkeypatch.setenv("DPCOPULA_PARALLEL", "thread:3")
        context = resolve_context(None)
        assert context.backend == "serial"
        assert context.is_serial


class TestSeedSpawning:
    def test_deterministic_for_fixed_seed(self):
        first = spawn_seed_sequences(123, 5)
        second = spawn_seed_sequences(123, 5)
        for a, b in zip(first, second):
            assert np.random.default_rng(a).integers(1 << 30) == (
                np.random.default_rng(b).integers(1 << 30)
            )

    def test_children_are_independent(self):
        gens = [np.random.default_rng(seq) for seq in spawn_seed_sequences(0, 3)]
        draws = [g.integers(0, 1 << 62) for g in gens]
        assert len(set(draws)) == 3

    def test_advances_parent_uniformly(self):
        # The parent generator must advance by the same amount no matter
        # how many children are spawned, so downstream draws align.
        a = np.random.default_rng(9)
        b = np.random.default_rng(9)
        spawn_seed_sequences(a, 1)
        spawn_seed_sequences(b, 100)
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_seed_sequences(0, -1)
