"""Request coalescing: determinism under batching, overflow, failures."""

import threading

import numpy as np
import pytest

from repro.engine import EngineOverloadedError, RequestCoalescer, coalesce


class _BlockingPlan:
    """A stub plan whose batch execution parks until released.

    With ``inner`` it draws ``inner``'s real records once released;
    without, it returns a placeholder per request.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.model_id = "m-blocking" if inner is None else inner.model_id
        self.started = threading.Event()
        self.release = threading.Event()
        self.batches = []

    def sample_batch(self, requests):
        self.started.set()
        assert self.release.wait(timeout=30), "test forgot to release the plan"
        self.batches.append([n for n, _ in requests])
        if self.inner is not None:
            return self.inner.sample_batch(requests)
        return [f"result-{n}" for n, _ in requests]


def _wait_pending(coalescer, count):
    """Wait until ``count`` requests are parked behind the executing batch."""
    for _ in range(1000):
        if coalescer.pending() == count:
            break
        threading.Event().wait(0.005)
    assert coalescer.pending() == count


class TestDeterminism:
    def test_concurrent_requests_bitwise_equal_serial(self, plan):
        """Same seed, same records — coalesced or not (the tentpole gate)."""
        stub = _BlockingPlan(plan)
        coalescer = RequestCoalescer()
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
                    stub, 80, np.random.default_rng(seed)
                )
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        # Hold the leader's batch so every other request parks behind it.
        threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
        threads[0].start()
        assert stub.started.wait(timeout=10)
        for thread in threads[1:]:
            thread.start()
        _wait_pending(coalescer, len(seeds) - 1)
        stub.release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert stub.batches == [[80], [80] * (len(seeds) - 1)]
        assert set(results) == set(seeds)
        for seed in seeds:
            np.testing.assert_array_equal(results[seed].values, expected[seed])

    def test_single_request_served_alone(self, plan):
        """A lone request is served at once, by itself."""
        coalescer = RequestCoalescer()
        result = coalescer.sample(plan, 50, np.random.default_rng(9))
        serial = plan.sample(50, np.random.default_rng(9))
        np.testing.assert_array_equal(result.values, serial.values)
        assert coalescer.pending() == 0


class TestBatching:
    def test_requests_coalesce_while_leader_blocked(self):
        """Arrivals during execution form the next batch (stub plan)."""
        stub = _BlockingPlan()
        coalescer = RequestCoalescer()
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
        _wait_pending(coalescer, 3)

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

    def test_max_batch_records_splits_drain(self, monkeypatch):
        monkeypatch.setattr(coalesce, "MAX_BATCH_RECORDS", 100)
        stub = _BlockingPlan()
        coalescer = RequestCoalescer()
        rng = np.random.default_rng(0)

        threads = [threading.Thread(target=lambda: coalescer.sample(stub, 60, rng))]
        threads[0].start()
        assert stub.started.wait(timeout=10)
        # Park the followers one at a time, so the queue order is fixed.
        for parked, n in enumerate([60, 40, 30], start=1):
            thread = threading.Thread(target=lambda n=n: coalescer.sample(stub, n, rng))
            thread.start()
            threads.append(thread)
            _wait_pending(coalescer, parked)

        stub.release.set()
        for thread in threads:
            thread.join(timeout=10)
        # 60 + 40 fills the 100-record budget; 30 more would exceed it.
        assert stub.batches == [[60], [60, 40], [30]]

    def test_batch_budget_is_262144_records(self):
        assert coalesce.MAX_BATCH_RECORDS == 262_144
        stub = _BlockingPlan()
        coalescer = RequestCoalescer()
        rng = np.random.default_rng(0)

        threads = [threading.Thread(target=lambda: coalescer.sample(stub, 1, rng))]
        threads[0].start()
        assert stub.started.wait(timeout=10)
        for parked, n in enumerate([131_072, 131_072, 1], start=1):
            thread = threading.Thread(target=lambda n=n: coalescer.sample(stub, n, rng))
            thread.start()
            threads.append(thread)
            _wait_pending(coalescer, parked)

        stub.release.set()
        for thread in threads:
            thread.join(timeout=10)
        # A batch may reach the budget exactly, but not pass it.
        assert stub.batches == [[1], [131_072, 131_072], [1]]

    def test_oversized_request_is_served_in_a_batch_of_its_own(
        self, plan, monkeypatch
    ):
        """A request above the budget still runs, alone and bitwise."""
        monkeypatch.setattr(coalesce, "MAX_BATCH_RECORDS", 100)
        stub = _BlockingPlan(plan)
        coalescer = RequestCoalescer()
        sizes = {1: 30, 2: 150, 3: 20}
        expected = {
            seed: plan.sample(n, np.random.default_rng(seed)).values
            for seed, n in sizes.items()
        }
        results = {}

        def worker(seed):
            results[seed] = coalescer.sample(
                stub, sizes[seed], np.random.default_rng(seed)
            )

        threads = [threading.Thread(target=worker, args=(1,))]
        threads[0].start()
        assert stub.started.wait(timeout=10)
        for parked, seed in enumerate([2, 3], start=1):
            thread = threading.Thread(target=worker, args=(seed,))
            thread.start()
            threads.append(thread)
            _wait_pending(coalescer, parked)

        stub.release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert stub.batches == [[30], [150], [20]]
        for seed in sizes:
            np.testing.assert_array_equal(results[seed].values, expected[seed])


class TestOverflow:
    def test_queue_overflow_rejected_with_retry_hint(self):
        stub = _BlockingPlan()
        coalescer = RequestCoalescer(max_pending_requests=2)
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
        _wait_pending(coalescer, 2)

        with pytest.raises(EngineOverloadedError, match="overloaded") as excinfo:
            coalescer.sample(stub, 1, rng)
        assert excinfo.value.retry_after > 0

        stub.release.set()
        leader.join(timeout=10)
        for thread in parked:
            thread.join(timeout=10)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            RequestCoalescer(max_pending_requests=0)


class TestFailureIsolation:
    def test_batch_failure_poisons_only_its_requests(self, plan):
        """A failing draw propagates to its requests; the key recovers."""

        class _FailingPlan:
            model_id = "m-fail"

            def sample_batch(self, requests):
                raise RuntimeError("boom")

        coalescer = RequestCoalescer()
        with pytest.raises(RuntimeError, match="boom"):
            coalescer.sample(_FailingPlan(), 5, np.random.default_rng(0))
        # The coalescer is still serviceable for healthy plans.
        result = coalescer.sample(plan, 10, np.random.default_rng(3))
        np.testing.assert_array_equal(
            result.values, plan.sample(10, np.random.default_rng(3)).values
        )
        assert coalescer.pending() == 0
