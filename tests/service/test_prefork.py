"""Pre-fork fleet tests: SO_REUSEPORT serving, supervision, observatory.

Every fleet here runs real forked worker processes against real
sockets, so each test wraps its supervisor in the ``fleet_factory``
fixture's teardown (workers are non-daemon processes — an unjoined one
would hang the interpreter at exit).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.dpcopula import DPCopulaKendall
from repro.io import ReleasedModel
from repro.service import (
    ModelRegistry,
    PreforkServer,
    ServiceConfig,
    SynthesisService,
    build_server,
    resolve_worker_count,
)
from repro.service.errors import QueueFullError
from repro.service.prefork import WORKERS_ENV_VAR

from tests.service.conftest import ServiceClient
from tests.telemetry.test_aggregate import assert_buckets_ascend


def _fit_release(dataset) -> ReleasedModel:
    synthesizer = DPCopulaKendall(epsilon=1.0, rng=0)
    synthesizer.fit(dataset)
    return ReleasedModel.from_synthesizer(synthesizer)


def _request(port, method, path, body=None, timeout=30):
    """One HTTP round trip; returns (status, parsed body, headers dict)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _sample(port, model_id, n, seed):
    status, body, headers = _request(
        port, "POST", f"/models/{model_id}/sample", {"n": n, "seed": seed}
    )
    return status, body, headers


def _proc_stat(pid):
    """``(state, ppid)`` of ``pid`` from ``/proc``, or ``None`` once reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def _children(pid):
    """Pids whose parent is ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == pid:
                children.append(int(entry))
    return children


def _running(pid):
    """Whether ``pid`` still runs (an unreaped zombie has exited)."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.fixture
def fleet_factory(tmp_path):
    """Start fleets that are always stopped (joined) at test exit."""
    started = []

    def _start(workers, model=None, force_inherited_socket=False, **config_kw):
        config = ServiceConfig(
            data_dir=tmp_path / "data",
            epsilon_cap=10.0,
            workers=workers,
            **config_kw,
        )
        config.ensure_layout()
        model_id = None
        if model is not None:
            registry = ModelRegistry(config.models_dir)
            model_id = registry.put(model, dataset_id="d1", method="kendall").model_id
        supervisor = PreforkServer(
            config, port=0, quiet=True, force_inherited_socket=force_inherited_socket
        )
        started.append(supervisor)
        supervisor.start(timeout=90)
        return supervisor, model_id

    yield _start
    for supervisor in started:
        supervisor.stop()


class TestResolveWorkerCount:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)

    def test_defaults_to_single_process(self):
        assert resolve_worker_count() == 1
        assert resolve_worker_count(None) == 1

    def test_explicit_value_beats_environment(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_worker_count(1) == 1

    def test_environment_override(self, monkeypatch):
        cores = os.cpu_count() or 1
        monkeypatch.setenv(WORKERS_ENV_VAR, str(cores))
        assert resolve_worker_count() == cores

    def test_environment_must_be_integer(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(ValueError, match="must be an integer"):
            resolve_worker_count()

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_rejects_counts_below_one(self, bad):
        with pytest.raises(ValueError, match="must be >= 1"):
            resolve_worker_count(bad)

    def test_rejects_sub_one_environment_value(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(ValueError, match="DPCOPULA_WORKERS must be >= 1"):
            resolve_worker_count()

    def test_warns_when_workers_exceed_cores(self):
        over = (os.cpu_count() or 1) + 1
        with pytest.warns(RuntimeWarning, match="exceeds"):
            assert resolve_worker_count(over) == over


class TestBuildServerSocketModes:
    def test_reuse_port_and_inherited_socket_are_exclusive(self, service):
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            with pytest.raises(ValueError, match="not both"):
                build_server(service, reuse_port=True, listen_socket=placeholder)
        finally:
            placeholder.close()

    def test_inherited_socket_never_blocks_in_accept(self, service):
        # A worker that lost the race for a connection on the shared
        # socket finds none waiting: accept must fail at once, or the
        # worker sits in accept() where a SIGTERM drain cannot reach it.
        listener = socket.create_server(("127.0.0.1", 0))
        outcome = []

        def accept_nothing():
            try:
                server.get_request()
            except BlockingIOError:
                outcome.append("would block")

        try:
            server = build_server(service, listen_socket=listener)
            thread = threading.Thread(target=accept_nothing, daemon=True)
            thread.start()
            thread.join(timeout=5.0)
            assert outcome == ["would block"]
        finally:
            listener.close()

    def test_worker_label_header(self, service):
        server = build_server(service, worker_label="7")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            _, _, headers = _request(server.server_address[1], "GET", "/health")
            assert headers["X-DPCopula-Worker"] == "7"
        finally:
            server.shutdown()
            server.server_close()


class TestFleetServing:
    def test_bitwise_sampling_metrics_and_health(
        self, fleet_factory, small_dataset
    ):
        model = _fit_release(small_dataset)
        supervisor, model_id = fleet_factory(2, model=model)
        serial = model.sample(50, rng=np.random.default_rng(42)).values

        workers_seen = set()
        for _ in range(40):
            status, body, headers = _sample(supervisor.port, model_id, 50, 42)
            assert status == 200
            np.testing.assert_array_equal(
                np.asarray(body["records"], dtype=np.int64), serial
            )
            workers_seen.add(headers["X-DPCopula-Worker"])
        # SO_REUSEPORT hashes each new connection; 40 fresh connections
        # land on both of 2 workers with overwhelming probability.
        assert workers_seen == {"0", "1"}

        status, body, _ = _request(supervisor.port, "GET", "/healthz")
        assert status == 200 and body["healthy"]

        # Let both workers' metric flushers write post-traffic snapshots,
        # then check the aggregated view labels series per worker.
        time.sleep(1.5)
        request = urllib.request.Request(
            f"http://127.0.0.1:{supervisor.port}/metrics",
            headers={"Accept": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            snapshot = json.loads(response.read())
        labels = {
            series["labels"].get("worker")
            for metric in snapshot.values()
            for series in metric.get("series", [])
        }
        assert {"0", "1"} <= labels

        with urllib.request.urlopen(
            f"http://127.0.0.1:{supervisor.port}/metrics", timeout=30
        ) as response:
            text = response.read().decode()
        assert 'worker="0"' in text and 'worker="1"' in text
        assert_buckets_ascend(text)

    def test_fit_submitted_to_any_worker_completes(
        self, fleet_factory, csv_text, small_dataset
    ):
        model = _fit_release(small_dataset)
        supervisor, model_id = fleet_factory(2, model=model)
        status, body, _ = _request(
            supervisor.port, "POST", "/datasets", {"dataset_id": "up1", "csv": csv_text}
        )
        assert status == 201, body
        # Two submissions: with kernel connection balancing at least one
        # will typically land on the follower and ride the journal-as-
        # queue path; both must complete regardless of landing worker.
        job_ids = []
        for seed in (11, 12):
            status, body, _ = _request(
                supervisor.port,
                "POST",
                "/fits",
                {"dataset_id": "up1", "epsilon": 0.5, "seed": seed},
            )
            assert status == 202, body
            job_ids.append(body["job_id"])
        deadline = time.monotonic() + 120
        states = {}
        while time.monotonic() < deadline:
            states = {
                job_id: _request(supervisor.port, "GET", f"/fits/{job_id}")[1]
                for job_id in job_ids
            }
            if all(v["status"] in {"done", "failed", "cancelled"} for v in states.values()):
                break
            time.sleep(0.2)
        assert all(v["status"] == "done" for v in states.values()), states
        for view in states.values():
            status, info, _ = _request(
                supervisor.port, "GET", f"/models/{view['model_id']}"
            )
            assert status == 200 and info["model_id"] == view["model_id"]

    def test_inherited_listener_fallback_serves_bitwise(
        self, fleet_factory, small_dataset
    ):
        model = _fit_release(small_dataset)
        supervisor, model_id = fleet_factory(
            2, model=model, force_inherited_socket=True
        )
        assert supervisor.reuse_port is False
        serial = model.sample(30, rng=np.random.default_rng(5)).values
        for _ in range(10):
            status, body, headers = _sample(supervisor.port, model_id, 30, 5)
            assert status == 200
            np.testing.assert_array_equal(
                np.asarray(body["records"], dtype=np.int64), serial
            )
            assert headers["X-DPCopula-Worker"] in {"0", "1"}


class TestSupervision:
    def test_sigterm_drain_exits_cleanly(self, fleet_factory, small_dataset):
        model = _fit_release(small_dataset)
        supervisor, model_id = fleet_factory(2, model=model)
        status, _, _ = _sample(supervisor.port, model_id, 10, 1)
        assert status == 200
        processes = list(supervisor._processes.values())
        supervisor.stop()
        assert [process.exitcode for process in processes] == [0, 0]

    def test_sigkill_respawned_worker_serves_bitwise_records(
        self, fleet_factory, small_dataset
    ):
        model = _fit_release(small_dataset)
        supervisor, model_id = fleet_factory(2, model=model)
        serial = model.sample(25, rng=np.random.default_rng(9)).values

        # Warm both workers so each holds a compiled plan.
        for _ in range(8):
            assert _sample(supervisor.port, model_id, 25, 9)[0] == 200

        victim = supervisor.alive_workers()[1]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if supervisor.reap_and_respawn():
                break
            time.sleep(0.05)
        supervisor.wait_ready(timeout=30)
        assert supervisor.restarts.get(1) == 1
        assert supervisor.alive_workers()[1] != victim

        # The respawned worker compiles its plan from the same durable
        # model, so samples stay bitwise identical.
        for _ in range(10):
            status, body, _ = _sample(supervisor.port, model_id, 25, 9)
            assert status == 200
            np.testing.assert_array_equal(
                np.asarray(body["records"], dtype=np.int64), serial
            )


    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="finds worker pids under /proc"
    )
    def test_workers_exit_when_the_supervisor_is_sigkilled(self, tmp_path):
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("DPCOPULA_")
        }
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        command = [
            sys.executable, "-u", "-m", "repro", "serve", "--workers", "2",
            "--port", "0", "--data-dir", str(tmp_path / "data"),
        ]
        supervisor = subprocess.Popen(
            command,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        workers = []
        try:
            # Printed once every worker is serving.
            line = supervisor.stdout.readline()
            assert "listening on" in line, line
            workers = _children(supervisor.pid)
            assert len(workers) >= 2
            supervisor.kill()
            supervisor.wait(10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and any(map(_running, workers)):
                time.sleep(0.05)
            assert [pid for pid in workers if _running(pid)] == []
        finally:
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            supervisor.kill()
            supervisor.wait(10)
            supervisor.stdout.close()


class TestFollowerService:
    """Follower-worker semantics, exercised in-process (no forks)."""

    def _configs(self, tmp_path, **kw):
        owner = ServiceConfig(
            data_dir=tmp_path / "data",
            epsilon_cap=10.0,
            workers=2,
            worker_index=0,
            **kw,
        )
        return owner, replace(owner, worker_index=1)

    def test_follower_journals_submission_owner_adopts(
        self, tmp_path, csv_text
    ):
        owner_cfg, follower_cfg = self._configs(tmp_path)
        follower = SynthesisService(follower_cfg)
        try:
            assert follower.worker is None
            follower.upload_dataset("d1", csv_text)
            view = follower.submit_fit(
                {"dataset_id": "d1", "epsilon": 0.5, "seed": 3}
            )
            assert view["status"] == "queued"
            # Any worker answers for any job via the durable journal.
            assert follower.job_status(view["job_id"])["status"] == "queued"
            assert any(
                v["job_id"] == view["job_id"] for v in follower.list_jobs()
            )
            owner = SynthesisService(owner_cfg)
            try:
                deadline = time.monotonic() + 120
                state = "queued"
                while time.monotonic() < deadline:
                    state = owner.job_status(view["job_id"])["status"]
                    if state in {"done", "failed", "cancelled"}:
                        break
                    time.sleep(0.1)
                assert state == "done"
                document = owner.job_status(view["job_id"])
                # Every worker serves the same document, timestamps included.
                assert follower.job_status(view["job_id"]) == document
                assert None not in (document["started_at"], document["finished_at"])
                assert document["started_at"] <= document["finished_at"]
                model_id = document["model_id"]
                # The follower serves the owner-fitted model.
                out = follower.sample(model_id, n=20, seed=4)
                assert out["n_records"] == 20
            finally:
                owner.close()
        finally:
            follower.close()

    def test_owner_poller_leaves_a_half_submitted_fit_to_submit_fit(
        self, tmp_path, csv_text, monkeypatch
    ):
        # An adoption pass runs between the owner's own journal write and
        # its queueing of the job.  Adopting the record there would make
        # submit_fit's queueing fail: a 500, a deleted record, and a
        # queued job id that no record points to.
        owner_cfg, _ = self._configs(tmp_path)
        owner = SynthesisService(owner_cfg)
        server = build_server(owner)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        adopters = []
        create = owner.journal.create

        def create_then_adopt(record):
            create(record)
            adopter = threading.Thread(target=owner._adopt_follower_submissions)
            adopter.start()
            adopter.join(0.5)  # returns at once unless the pass must wait
            adopters.append(adopter)
            return record

        try:
            owner.upload_dataset("d1", csv_text)
            monkeypatch.setattr(owner.journal, "create", create_then_adopt)
            client = ServiceClient(server.server_address[1])
            status, job = client.post(
                "/fits", {"dataset_id": "d1", "epsilon": 0.5, "seed": 3}
            )
            assert status == 202, job
            adopters[0].join(10.0)
            assert not adopters[0].is_alive()
            assert owner.worker.wait(job["job_id"]).state == "done"
            ledger = owner.config.ledger_path.read_text().splitlines()
            keys = [json.loads(line).get("key") for line in ledger]
            assert keys.count(f"fit:{job['job_id']}") == 1
        finally:
            server.shutdown()
            server.server_close()
            owner.close()

    def test_follower_enforces_queue_bound(self, tmp_path, csv_text):
        _, follower_cfg = self._configs(tmp_path, max_queued_fits=1)
        follower = SynthesisService(follower_cfg)
        try:
            follower.upload_dataset("d1", csv_text)
            follower.submit_fit({"dataset_id": "d1", "epsilon": 0.5, "seed": 1})
            with pytest.raises(QueueFullError):
                follower.submit_fit(
                    {"dataset_id": "d1", "epsilon": 0.5, "seed": 2}
                )
        finally:
            follower.close()

    def test_follower_cancels_queued_job_in_journal(self, tmp_path, csv_text):
        _, follower_cfg = self._configs(tmp_path)
        follower = SynthesisService(follower_cfg)
        try:
            follower.upload_dataset("d1", csv_text)
            view = follower.submit_fit(
                {"dataset_id": "d1", "epsilon": 0.5, "seed": 5}
            )
            cancelled = follower.cancel_job(view["job_id"])
            assert cancelled["status"] == "cancelled"
            assert follower.job_status(view["job_id"])["status"] == "cancelled"
        finally:
            follower.close()

    def test_follower_healthz_reports_healthy(self, tmp_path):
        _, follower_cfg = self._configs(tmp_path)
        follower = SynthesisService(follower_cfg)
        try:
            document = follower.healthz()
            assert document["healthy"]
            assert document["checks"]["fit_worker_alive"] is True
            assert document["queue_depth"] == 0
        finally:
            follower.close()


class TestStaleSnapshotPrune:
    def test_respawn_discards_dead_workers_snapshot(
        self, fleet_factory, small_dataset
    ):
        model = _fit_release(small_dataset)
        supervisor, model_id = fleet_factory(2, model=model)
        config = supervisor.config
        assert _sample(supervisor.port, model_id, 10, 1)[0] == 200

        victim = supervisor.alive_workers()[1]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if not _pid_alive(victim):
                break
            time.sleep(0.05)
        # The dead process's last flush is still on disk — plant a
        # recognizable stale document in its place.
        stale_path = config.metrics_dir / "worker-1.json"
        stale_path.write_text(
            json.dumps({"worker": 1, "pid": -1, "written_at": 0.0, "metrics": {}})
        )

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if supervisor.reap_and_respawn():
                break
            time.sleep(0.05)
        # The supervisor pruned the stale snapshot before forking the
        # replacement: whatever is on disk now came from the new pid.
        if stale_path.exists():
            assert json.loads(stale_path.read_text())["pid"] != -1
        supervisor.wait_ready(timeout=30)

        # Aggregated /metrics never mixes in the stale counters: the
        # worker-1 series all come from the respawned process.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if stale_path.exists():
                assert json.loads(stale_path.read_text())["pid"] != -1
                break
            time.sleep(0.05)
        else:
            pytest.fail("respawned worker never flushed a fresh snapshot")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


class TestFleetObservatory:
    def test_probe_loop_publishes_to_every_worker(
        self, fleet_factory, small_dataset
    ):
        model = _fit_release(small_dataset)
        supervisor, model_id = fleet_factory(
            2,
            model=model,
            probe_interval_seconds=0.25,
            probe_sample_size=64,
        )
        config = supervisor.config

        # The fit-owner worker's probe loop publishes its first cycle.
        probes_path = config.observatory_dir / "probes.json"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if probes_path.exists():
                break
            time.sleep(0.1)
        else:
            pytest.fail("probe loop never published probes.json")

        # Any worker serves the shared observatory files.
        status, body, _ = _request(supervisor.port, "GET", "/debug/observatory")
        assert status == 200
        assert body["budget"]["epsilon_cap"] == 10.0
        assert [m["model_id"] for m in body["probes"]["models"]] == [model_id]

        # The probe consumed zero ε: no fits ran, so the ledger that
        # backs /budget shows no spend for the pre-registered model.
        status, body, _ = _request(supervisor.port, "GET", "/budget")
        assert status == 200
        assert all(d["epsilon_spent"] == 0.0 for d in body["datasets"])
