"""CI smoke test for the fleet observatory.

Boots a real pre-fork fleet (2 SO_REUSEPORT workers) over a pre-seeded
data directory — a registered model and a privacy-ledger entry — with
the continuous utility probe enabled, then asserts the observatory's
externally visible contract:

* ``GET /budget`` replays the ledger into per-dataset burn-down
  timelines (and never blocks on the accountant's append lock);
* ``GET /debug/observatory`` answers from any worker, with probe
  results published by the fit owner;
* every response carries an ``X-Request-ID`` header;
* the durable trace-export ring has at least one trace file;
* the probe consumed zero ε — the ledger is byte-identical.

Usage::

    PYTHONPATH=src python tools/observatory_smoke.py

Exit status 0 on success; any assertion failure is fatal.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro.core.dpcopula import DPCopulaKendall
from repro.data.dataset import Attribute, Dataset, Schema
from repro.io import ReleasedModel
from repro.service import ModelRegistry, PreforkServer, ServiceConfig


def _get(port: int, path: str):
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}")
    with urllib.request.urlopen(request, timeout=30) as response:
        return (
            response.status,
            json.loads(response.read()),
            dict(response.headers),
        )


def seed_data_dir(root: Path) -> str:
    """A registered model plus one ledger charge, all offline."""
    config = ServiceConfig(data_dir=root)
    config.ensure_layout()

    rng = np.random.default_rng(7)
    values = np.column_stack(
        [rng.integers(0, 40, size=400), rng.integers(0, 30, size=400)]
    )
    dataset = Dataset(values, Schema([Attribute("a", 40), Attribute("b", 30)]))
    synthesizer = DPCopulaKendall(epsilon=1.0, rng=0)
    synthesizer.fit(dataset)
    model = ReleasedModel.from_synthesizer(synthesizer)
    registry = ModelRegistry(config.models_dir)
    model_id = registry.put(model, dataset_id="smoke", method="kendall").model_id

    entry = {
        "dataset": "smoke",
        "epsilon": 1.0,
        "kind": "charge",
        "label": f"fit:{model_id}",
        "key": f"fit:{model_id}",
        "timestamp": time.time(),
    }
    config.ledger_path.write_text(json.dumps(entry, sort_keys=True) + "\n")
    return model_id


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="observatory-smoke-") as tmp:
        root = Path(tmp)
        model_id = seed_data_dir(root)
        ledger_before = (root / "ledger.jsonl").read_bytes()

        config = ServiceConfig(
            data_dir=root,
            workers=2,
            probe_interval_seconds=0.25,
            probe_sample_size=64,
        )
        supervisor = PreforkServer(config, port=0, quiet=True)
        supervisor.start(timeout=90)
        try:
            port = supervisor.port

            status, budget, headers = _get(port, "/budget")
            assert status == 200, f"/budget returned {status}"
            assert headers.get("X-Request-ID"), "missing X-Request-ID header"
            by_id = {d["dataset_id"]: d for d in budget["datasets"]}
            assert by_id["smoke"]["epsilon_spent"] == 1.0, budget
            assert by_id["smoke"]["events"][0]["label"] == f"fit:{model_id}"

            # The fit owner's probe loop publishes within a few cycles.
            deadline = time.monotonic() + 60
            observatory = None
            while time.monotonic() < deadline:
                status, observatory, _ = _get(port, "/debug/observatory")
                assert status == 200, f"/debug/observatory returned {status}"
                if observatory.get("probes"):
                    break
                time.sleep(0.2)
            assert observatory and observatory.get("probes"), (
                "probe results never appeared in /debug/observatory"
            )
            probed = {m["model_id"] for m in observatory["probes"]["models"]}
            assert probed == {model_id}, observatory["probes"]

            # Request traffic lands in the durable per-worker ring.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                traces = list(config.traces_dir.glob("trace-*.jsonl*"))
                if traces:
                    break
                time.sleep(0.2)
            assert traces, "no trace-export file appeared"

            assert (root / "ledger.jsonl").read_bytes() == ledger_before, (
                "probing must not write to the privacy ledger"
            )
        finally:
            supervisor.stop()

    print("observatory smoke: OK")
    print(f"  model probed:   {model_id}")
    print(f"  trace files:    {[p.name for p in traces]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
