"""Tests for the uploaded-dataset store."""

import multiprocessing

from repro.service.datasets import DatasetStore
from repro.utils import interprocess_lock

CSV = "a[3],b[2]\n0,1\n2,0\n1,1\n"


def _put_when_told(directory, go):
    go.wait(timeout=60)
    DatasetStore(directory).put("d1", CSV)


class TestAcrossProcesses:
    def test_put_waits_for_the_directory_lock(self, tmp_path):
        """Fleet workers share one staging path per id, so puts serialize.

        A put in another process must not check the id, stage or commit
        anything while someone else holds ``<datasets>/.lock``.  The
        child forks before the lock is taken: a child forked while it is
        held would inherit the lock's descriptor and keep it held.
        """
        store = DatasetStore(tmp_path / "datasets")
        context = multiprocessing.get_context("fork")
        go = context.Event()
        child = context.Process(
            target=_put_when_told, args=(store.directory, go), daemon=True
        )
        child.start()
        with interprocess_lock(tmp_path / "datasets" / ".lock"):
            go.set()
            child.join(timeout=1.0)
            assert child.is_alive(), "put finished without the lock"
            assert "d1" not in store
        child.join(timeout=60)
        assert child.exitcode == 0
        assert store.get("d1").n_records == 3
