"""Tests for the durable cross-restart privacy accountant."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp.budget import BudgetExhaustedError
from repro.service.accountant import PrivacyAccountant, replay_ledger
from repro.telemetry.observatory import budget_timelines


@pytest.fixture
def ledger_path(tmp_path):
    return tmp_path / "ledger.jsonl"


class TestCharging:
    def test_charges_accumulate(self, ledger_path):
        accountant = PrivacyAccountant(ledger_path, epsilon_cap=2.0)
        accountant.charge("adult", 0.5, label="fit:kendall:j1")
        accountant.charge("adult", 0.75, label="fit:mle:j2")
        assert accountant.spent("adult") == pytest.approx(1.25)
        assert accountant.remaining("adult") == pytest.approx(0.75)

    def test_datasets_are_isolated(self, ledger_path):
        accountant = PrivacyAccountant(ledger_path, epsilon_cap=1.0)
        accountant.charge("a", 1.0)
        assert accountant.remaining("a") == pytest.approx(0.0)
        assert accountant.remaining("b") == pytest.approx(1.0)
        accountant.charge("b", 0.5)

    def test_overdraw_rejected_and_not_journaled(self, ledger_path):
        accountant = PrivacyAccountant(ledger_path, epsilon_cap=2.0)
        accountant.charge("adult", 1.5)
        with pytest.raises(BudgetExhaustedError):
            accountant.charge("adult", 1.0)
        # The refused charge must leave no trace in memory or on disk.
        assert accountant.spent("adult") == pytest.approx(1.5)
        lines = ledger_path.read_text().splitlines()
        assert len(lines) == 1

    def test_rejects_nonpositive_epsilon(self, ledger_path):
        accountant = PrivacyAccountant(ledger_path, epsilon_cap=1.0)
        with pytest.raises(ValueError):
            accountant.charge("adult", 0.0)
        with pytest.raises(ValueError):
            accountant.charge("adult", -0.5)


class TestRestartSurvival:
    def test_two_fits_exceeding_cap_across_restart(self, ledger_path):
        """The ISSUE's satellite scenario: cap enforced over the ledger file."""
        first = PrivacyAccountant(ledger_path, epsilon_cap=2.0)
        first.charge("adult", 1.5, label="fit:kendall:j1")

        # Simulated restart: a brand-new accountant over the same ledger.
        rebooted = PrivacyAccountant(ledger_path, epsilon_cap=2.0)
        assert rebooted.spent("adult") == pytest.approx(1.5)
        with pytest.raises(BudgetExhaustedError):
            rebooted.charge("adult", 1.0, label="fit:kendall:j2")
        rebooted.charge("adult", 0.5, label="fit:kendall:j3")
        assert rebooted.remaining("adult") == pytest.approx(0.0)

    def test_entries_round_trip(self, ledger_path):
        first = PrivacyAccountant(ledger_path, epsilon_cap=5.0)
        first.charge("a", 1.0, label="fit:kendall:j1")
        first.charge("b", 2.0, label="fit:mle:j2")
        rebooted = PrivacyAccountant(ledger_path, epsilon_cap=5.0)
        entries = rebooted.entries()
        assert [(e["dataset"], e["epsilon"]) for e in entries] == [
            ("a", 1.0),
            ("b", 2.0),
        ]
        assert rebooted.entries("a")[0]["label"] == "fit:kendall:j1"

    def test_lowered_cap_blocks_everything(self, ledger_path):
        generous = PrivacyAccountant(ledger_path, epsilon_cap=10.0)
        generous.charge("adult", 4.0)
        # An operator tightening the cap below the historic spend must
        # not crash the service — it just refuses all further fits.
        strict = PrivacyAccountant(ledger_path, epsilon_cap=2.0)
        assert strict.spent("adult") == pytest.approx(4.0)
        assert strict.remaining("adult") == 0.0
        with pytest.raises(BudgetExhaustedError):
            strict.charge("adult", 0.1)

    def test_corrupt_ledger_refuses_to_start(self, ledger_path):
        ledger_path.write_text('{"dataset": "a", "epsilon": 1.0}\nnot json\n')
        with pytest.raises(ValueError, match="corrupt at line 2"):
            PrivacyAccountant(ledger_path, epsilon_cap=1.0)

    def test_replay_deduplicates_entries_by_key(self, ledger_path):
        # A retried append whose first attempt did reach disk (fsync
        # error after a successful write) journals the same key twice;
        # replay must apply the same dedup rule as charge().
        entry = '{"dataset": "adult", "epsilon": 0.5, "key": "fit:j1"}\n'
        ledger_path.write_text(entry + entry)
        accountant = PrivacyAccountant(ledger_path, epsilon_cap=2.0)
        assert accountant.spent("adult") == pytest.approx(0.5)
        assert len(accountant.entries("adult")) == 1
        # Unkeyed entries are never deduplicated: they carry no retry
        # provenance, so identical lines are distinct historic spends.
        plain = '{"dataset": "b", "epsilon": 0.25}\n'
        ledger_path.write_text(plain + plain)
        accountant = PrivacyAccountant(ledger_path, epsilon_cap=2.0)
        assert accountant.spent("b") == pytest.approx(0.5)


class TestTornTail:
    def test_torn_tail_dropped_and_survives_append_plus_restart(
        self, ledger_path
    ):
        # A crash mid-append leaves a truncated fragment with no
        # trailing newline.  Replay must drop it AND repair the file,
        # so the next append starts on a fresh line — otherwise the
        # second restart finds one merged unparseable line and the
        # service can never start again.
        complete = '{"dataset": "adult", "epsilon": 0.5, "key": "fit:j1"}\n'
        ledger_path.write_text(complete + '{"dataset": "adult", "eps')
        recovered = PrivacyAccountant(ledger_path, epsilon_cap=2.0)
        assert recovered.spent("adult") == pytest.approx(0.5)
        text = ledger_path.read_text()
        assert text == complete  # fragment truncated away on disk
        recovered.charge("adult", 0.25, label="fit:kendall:j2", key="fit:j2")
        # The second restart — the one the unrepaired file would break.
        rebooted = PrivacyAccountant(ledger_path, epsilon_cap=2.0)
        assert rebooted.spent("adult") == pytest.approx(0.75)

    def test_parseable_torn_tail_is_counted_and_newline_terminated(
        self, ledger_path
    ):
        # The append can die between writing the JSON and its newline:
        # the tail parses as a complete entry and must count, but the
        # file still needs the newline before further appends.
        ledger_path.write_text(
            '{"dataset": "adult", "epsilon": 0.5, "key": "fit:j1"}'
        )
        recovered = PrivacyAccountant(ledger_path, epsilon_cap=2.0)
        assert recovered.spent("adult") == pytest.approx(0.5)
        assert ledger_path.read_text().endswith("}\n")
        recovered.charge("adult", 0.25, key="fit:j2")
        rebooted = PrivacyAccountant(ledger_path, epsilon_cap=2.0)
        assert rebooted.spent("adult") == pytest.approx(0.75)
        assert len(rebooted.entries("adult")) == 2

    @pytest.mark.parametrize(
        "tail, spent",
        [
            ('{"dataset": "adult", "epsilon": 2.0, "key": "fit:j2"}', 3.0),
            ('{"dataset": "adult", "eps', 1.0),
        ],
        ids=["parseable", "torn"],
    )
    def test_offline_replay_agrees_with_the_accountant(
        self, ledger_path, tail, spent
    ):
        # replay_ledger backs GET /budget and `dpcopula budget`: a last
        # line without its newline counts exactly when the accountant
        # counts it.  Read it first: the accountant repairs the file.
        ledger_path.write_text(
            '{"dataset": "adult", "epsilon": 1.0, "key": "fit:j1"}\n' + tail
        )
        offline = sum(entry.epsilon for entry in replay_ledger(ledger_path))
        accountant = PrivacyAccountant(ledger_path, epsilon_cap=10.0)
        assert offline == accountant.spent("adult") == pytest.approx(spent)

    def test_summary_shape(self, ledger_path):
        accountant = PrivacyAccountant(ledger_path, epsilon_cap=3.0)
        accountant.charge("adult", 1.0, label="fit:kendall:j1")
        summary = accountant.summary("adult")
        assert summary["epsilon_cap"] == 3.0
        assert summary["epsilon_spent"] == pytest.approx(1.0)
        assert summary["epsilon_remaining"] == pytest.approx(2.0)
        assert summary["charges"][0]["label"] == "fit:kendall:j1"
        # The summary must be JSON-serializable as-is (it feeds the API).
        json.dumps(summary)


# -- one reading of the ledger ----------------------------------------------

_CAP = 3.0
_DATASETS = ("d0", "d1", "d2")

#: Hand-written ledger text each row starts from.  The key rows hold
#: lines every reader must fold by one key rule: ``""`` is a key, and
#: ``7`` and ``"7"`` are the same key.
_LEDGER_PREFIXES = {
    "empty": "",
    "empty-string-key": '{"dataset": "d0", "epsilon": 1.0, "key": ""}\n' * 2,
    "int-and-str-key": (
        '{"dataset": "d0", "epsilon": 1.0, "key": 7}\n'
        '{"dataset": "d0", "epsilon": 1.0, "key": "7"}\n'
    ),
    "unterminated-last-line": (
        '{"dataset": "d0", "epsilon": 1.0, "key": "fit:j1"}\n'
        '{"dataset": "d1", "epsilon": 2.0, "key": "fit:j2"}'
    ),
    "torn-last-line": (
        '{"dataset": "d0", "epsilon": 1.0, "key": "fit:j1"}\n'
        '{"dataset": "d1", "eps'
    ),
}

_LEDGER_OPS = st.integers(min_value=1, max_value=3).flatmap(
    lambda datasets: st.lists(
        st.tuples(
            st.sampled_from(("charge", "refund")),
            st.sampled_from(_DATASETS[:datasets]),
            st.floats(min_value=0.01, max_value=2.0),
            st.sampled_from((None, "", "7", 7, "a", "b")),
        ),
        max_size=8,
    )
)


def _accountant_views(accountant, dataset):
    """``(spent, remaining, entries)`` from the accessors and from summary()."""
    entries = [
        (r.get("kind", "charge"), r["epsilon"], r.get("label", ""), r.get("timestamp"))
        for r in accountant.entries(dataset)
    ]
    summary = accountant.summary(dataset)
    charges = [
        (c["kind"], c["epsilon"], c["label"], c["timestamp"])
        for c in summary["charges"]
    ]
    return (
        (accountant.spent(dataset), accountant.remaining(dataset), entries),
        (summary["epsilon_spent"], summary["epsilon_remaining"], charges),
    )


def _offline_views(ledger_path):
    """Per dataset ``(spent, remaining, entries)`` of the lock-free replay."""
    document = budget_timelines(
        replay_ledger(ledger_path), _CAP, datasets=_DATASETS
    )
    return {
        timeline["dataset_id"]: (
            timeline["epsilon_spent"],
            timeline["epsilon_remaining"],
            [
                (e["kind"], e["epsilon"], e["label"], e["timestamp"])
                for e in timeline["events"]
            ],
        )
        for timeline in document["datasets"]
    }


def _assert_readers_agree(offline, *accountants):
    for dataset in _DATASETS:
        views = {"offline": offline[dataset]}
        for name, accountant in zip(("live", "restarted"), accountants):
            views[name], views[f"{name} summary()"] = _accountant_views(
                accountant, dataset
            )
        for name, view in views.items():
            assert view == views["offline"], (dataset, name, views)


class TestOneReadingOfTheLedger:
    """Every reader of ``ledger.jsonl`` folds it to the same spends."""

    @pytest.mark.parametrize("prefix", list(_LEDGER_PREFIXES))
    @given(ops=_LEDGER_OPS)
    @settings(max_examples=25, deadline=None)
    def test_every_reader_agrees(self, prefix, ops):
        with tempfile.TemporaryDirectory() as directory:
            ledger_path = Path(directory) / "ledger.jsonl"
            ledger_path.write_text(_LEDGER_PREFIXES[prefix])
            # Read the hand-written file first: the accountant repairs
            # a torn or unterminated tail when it starts.
            offline = _offline_views(ledger_path)
            live = PrivacyAccountant(ledger_path, epsilon_cap=_CAP)
            _assert_readers_agree(offline, live)
            for kind, dataset, epsilon, key in ops:
                journal = live.charge if kind == "charge" else live.refund
                try:
                    journal(dataset, epsilon, label=f"{kind}:{dataset}", key=key)
                except BudgetExhaustedError:
                    pass
            restarted = PrivacyAccountant(ledger_path, epsilon_cap=_CAP)
            _assert_readers_agree(_offline_views(ledger_path), live, restarted)


# -- inter-process charging ------------------------------------------------

def _charge_storm(ledger_path, epsilon_cap, worker, attempts, out_queue):
    from repro.dp.budget import BudgetExhaustedError
    from repro.service.accountant import PrivacyAccountant

    accountant = PrivacyAccountant(ledger_path, epsilon_cap=epsilon_cap)
    granted = 0
    for attempt in range(attempts):
        try:
            accountant.charge(
                "ds", 1.0, label=f"w{worker}", key=f"w{worker}-{attempt}"
            )
            granted += 1
        except BudgetExhaustedError:
            pass
    out_queue.put(granted)


class TestInterProcessCharging:
    def test_two_processes_cannot_jointly_overdraw(self, ledger_path):
        """Concurrent chargers in separate processes respect the cap.

        Two processes race 30 unit charges each against a cap of 40:
        the flocked append + catch-up replay must grant *exactly* 40
        across both, never 41 — and the journal a fresh accountant
        replays afterwards must agree entry-for-entry.
        """
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        out_queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_charge_storm, args=(ledger_path, 40.0, w, 30, out_queue)
            )
            for w in range(2)
        ]
        for process in workers:
            process.start()
        granted = [out_queue.get(timeout=120) for _ in workers]
        for process in workers:
            process.join(timeout=120)
            assert process.exitcode == 0

        assert sum(granted) == 40
        # Both processes got work in: neither starved behind the lock.
        assert all(count > 0 for count in granted)

        replayed = PrivacyAccountant(ledger_path, epsilon_cap=40.0)
        assert replayed.spent("ds") == pytest.approx(40.0)
        assert len(replayed.entries("ds")) == 40
        assert replayed.remaining("ds") == pytest.approx(0.0)
        # Every journaled line parses cleanly: no torn interleaved writes.
        lines = ledger_path.read_text().splitlines()
        assert len(lines) == 40
        for line in lines:
            json.loads(line)
