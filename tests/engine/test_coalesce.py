"""Request coalescing: determinism under batching, overflow, deadlines."""

import threading

import numpy as np
import pytest

from repro.engine import EngineOverloadedError, RequestCoalescer
from repro.resilience.deadlines import Deadline, DeadlineExceeded, deadline_scope


class _BlockingPlan:
    """A stub plan whose batch execution parks until released."""

    model_id = "m-blocking"

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.batches = []

    def sample_batch(self, requests):
        self.started.set()
        assert self.release.wait(timeout=30), "test forgot to release the plan"
        self.batches.append([n for n, _ in requests])
        return [f"result-{n}" for n, _ in requests]


class TestDeterminism:
    def test_concurrent_requests_bitwise_equal_serial(self, plan):
        """Same seed, same records — coalesced or not (the tentpole gate)."""
        coalescer = RequestCoalescer(window_seconds=0.02)
        seeds = list(range(12))
        expected = {
            seed: plan.sample(80, np.random.default_rng(seed)).values
            for seed in seeds
        }
        results = {}
        errors = []

        def worker(seed):
            try:
                results[seed] = coalescer.sample(
                    plan, 80, np.random.default_rng(seed)
                )
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert set(results) == set(seeds)
        for seed in seeds:
            np.testing.assert_array_equal(results[seed].values, expected[seed])

    def test_single_request_no_window(self, plan):
        """window=0: a lone request is served immediately, no batching wait."""
        coalescer = RequestCoalescer(window_seconds=0.0)
        result = coalescer.sample(plan, 50, np.random.default_rng(9))
        serial = plan.sample(50, np.random.default_rng(9))
        np.testing.assert_array_equal(result.values, serial.values)
        assert coalescer.pending() == 0


class TestBatching:
    def test_requests_coalesce_while_leader_blocked(self):
        """Arrivals during execution form the next batch (stub plan)."""
        stub = _BlockingPlan()
        coalescer = RequestCoalescer(window_seconds=0.0)
        rng = np.random.default_rng(0)

        leader = threading.Thread(
            target=lambda: coalescer.sample(stub, 1, rng)
        )
        leader.start()
        assert stub.started.wait(timeout=10)

        followers = [
            threading.Thread(target=lambda i=i: coalescer.sample(stub, 2 + i, rng))
            for i in range(3)
        ]
        for thread in followers:
            thread.start()
        # Wait until all three are parked behind the executing batch.
        for _ in range(1000):
            if coalescer.pending() == 3:
                break
            threading.Event().wait(0.005)
        assert coalescer.pending() == 3

        stub.release.set()
        leader.join(timeout=10)
        for thread in followers:
            thread.join(timeout=10)
        assert coalescer.pending() == 0
        # First batch was the lone leader; the parked followers formed
        # one coalesced batch after the hand-off.
        assert stub.batches[0] == [1]
        assert sorted(n for batch in stub.batches[1:] for n in batch) == [2, 3, 4]
        assert len(stub.batches) == 2

    def test_max_batch_records_splits_drain(self):
        stub = _BlockingPlan()
        stub.release.set()  # never block
        coalescer = RequestCoalescer(window_seconds=0.05, max_batch_records=100)
        rng = np.random.default_rng(0)
        threads = [
            threading.Thread(target=lambda: coalescer.sample(stub, 60, rng))
            for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(n for batch in stub.batches for n in batch) == [60, 60, 60]
        assert all(sum(batch) <= 100 for batch in stub.batches)


class TestOverflow:
    def test_queue_overflow_rejected_with_retry_hint(self):
        stub = _BlockingPlan()
        coalescer = RequestCoalescer(window_seconds=0.0, max_pending_requests=2)
        rng = np.random.default_rng(0)

        leader = threading.Thread(target=lambda: coalescer.sample(stub, 1, rng))
        leader.start()
        assert stub.started.wait(timeout=10)

        parked = [
            threading.Thread(target=lambda: coalescer.sample(stub, 1, rng))
            for _ in range(2)
        ]
        for thread in parked:
            thread.start()
        for _ in range(1000):
            if coalescer.pending() == 2:
                break
            threading.Event().wait(0.005)
        assert coalescer.pending() == 2

        with pytest.raises(EngineOverloadedError, match="overloaded") as excinfo:
            coalescer.sample(stub, 1, rng)
        assert excinfo.value.retry_after > 0

        stub.release.set()
        leader.join(timeout=10)
        for thread in parked:
            thread.join(timeout=10)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            RequestCoalescer(window_seconds=-1)
        with pytest.raises(ValueError):
            RequestCoalescer(max_batch_records=0)
        with pytest.raises(ValueError):
            RequestCoalescer(max_pending_requests=0)


class TestDeadlines:
    def test_parked_follower_honors_deadline(self):
        """A follower whose budget lapses raises instead of waiting forever."""
        stub = _BlockingPlan()
        coalescer = RequestCoalescer(window_seconds=0.0)
        rng = np.random.default_rng(0)

        leader = threading.Thread(target=lambda: coalescer.sample(stub, 1, rng))
        leader.start()
        assert stub.started.wait(timeout=10)

        with pytest.raises(DeadlineExceeded):
            with deadline_scope(Deadline(0.05)):
                coalescer.sample(stub, 1, rng)
        # The abandoned follower withdrew from the queue.
        assert coalescer.pending() == 0

        stub.release.set()
        leader.join(timeout=10)


class TestFailureIsolation:
    def test_batch_failure_poisons_only_its_requests(self, plan):
        """A failing draw propagates to its requests; the key recovers."""

        class _FailingPlan:
            model_id = "m-fail"

            def sample_batch(self, requests):
                raise RuntimeError("boom")

        coalescer = RequestCoalescer(window_seconds=0.0)
        with pytest.raises(RuntimeError, match="boom"):
            coalescer.sample(_FailingPlan(), 5, np.random.default_rng(0))
        # The coalescer is still serviceable for healthy plans.
        result = coalescer.sample(plan, 10, np.random.default_rng(3))
        np.testing.assert_array_equal(
            result.values, plan.sample(10, np.random.default_rng(3)).values
        )
        assert coalescer.pending() == 0
