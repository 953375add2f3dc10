"""Background allocation worker: overlap, spill and priorities."""

import random

import pytest

from repro.core.background import BackgroundWorker


class TestSubmitAndRun:
    def test_submit_accumulates(self):
        worker = BackgroundWorker()
        worker.submit(0.002)
        worker.submit(0.003)
        assert worker.pending_seconds == pytest.approx(0.005)

    def test_run_consumes_up_to_window(self):
        worker = BackgroundWorker()
        worker.submit(0.005)
        done = worker.run_for(0.002)
        assert done == pytest.approx(0.002)
        assert worker.pending_seconds == pytest.approx(0.003)

    def test_run_with_surplus_window(self):
        worker = BackgroundWorker()
        worker.submit(0.001)
        assert worker.run_for(1.0) == pytest.approx(0.001)
        assert worker.pending_seconds == 0.0

    def test_rejects_negative(self):
        worker = BackgroundWorker()
        with pytest.raises(ValueError):
            worker.submit(-1)
        with pytest.raises(ValueError):
            worker.run_for(-1)


class TestPriorities:
    def test_critical_runs_first(self):
        worker = BackgroundWorker()
        worker.submit(0.004, critical=False)
        worker.submit(0.002, critical=True)
        worker.run_for(0.002)
        assert worker.critical_pending == 0.0
        assert worker.opportunistic_pending == pytest.approx(0.004)

    def test_flush_only_touches_critical(self):
        worker = BackgroundWorker()
        worker.submit(0.002, critical=True)
        worker.submit(0.004, critical=False)
        spilled = worker.flush_critical()
        assert spilled == pytest.approx(0.002)
        assert worker.opportunistic_pending == pytest.approx(0.004)

    def test_opportunistic_fills_leftover_window(self):
        worker = BackgroundWorker()
        worker.submit(0.001, critical=True)
        worker.submit(0.002, critical=False)
        done = worker.run_for(0.002)
        assert done == pytest.approx(0.002)
        assert worker.opportunistic_pending == pytest.approx(0.001)


class TestAccounting:
    def test_hidden_fraction_all_overlapped(self):
        worker = BackgroundWorker()
        worker.submit(0.002)
        worker.run_for(0.01)
        assert worker.hidden_fraction == pytest.approx(1.0)

    def test_hidden_fraction_all_spilled(self):
        worker = BackgroundWorker()
        worker.submit(0.002)
        worker.flush_critical()
        assert worker.hidden_fraction == 0.0
        assert worker.spilled_seconds == pytest.approx(0.002)

    def test_empty_worker_fully_hidden(self):
        assert BackgroundWorker().hidden_fraction == 1.0

    def test_lifetime_counters(self):
        worker = BackgroundWorker()
        worker.submit(0.004)
        worker.run_for(0.003)
        worker.flush_critical()
        assert worker.overlapped_seconds == pytest.approx(0.003)
        assert worker.spilled_seconds == pytest.approx(0.001)
        assert worker.submitted_seconds == pytest.approx(0.004)


def _floats(worker):
    return (
        worker.critical_pending,
        worker.opportunistic_pending,
        worker.overlapped_seconds,
        worker.spilled_seconds,
        worker.submitted_seconds,
    )


def _by_calls(worker, submissions, windows):
    """The reference: ``submit`` each pair, then ``run_for``, per window,
    stopping after a window that leaves critical work pending."""
    consumed = 0
    for window in windows:
        for seconds, critical in submissions:
            worker.submit(seconds, critical=critical)
        worker.run_for(window)
        consumed += 1
        if worker.critical_pending > 0.0:
            break
    return consumed


def _pair(start_opportunistic=0.0):
    workers = (BackgroundWorker(), BackgroundWorker())
    for worker in workers:
        worker.submit(start_opportunistic, critical=False)
    return workers


class TestReplay:
    """``replay`` is bit-exact against repeated ``submit`` + ``run_for``."""

    # Irregular amounts whose float sums depend on association.
    SUBMISSIONS = [(0.0031 / 3, False), (0.0027 / 7, False)]

    def _windows(self, scale, count=500):
        rng = random.Random(17)
        return [scale * (0.5 + rng.random()) for _ in range(count)]

    def test_windows_above_work_drain_backlog(self):
        reference, replayed = _pair(0.01)
        windows = self._windows(0.004)
        assert _by_calls(reference, self.SUBMISSIONS, windows) == 500
        assert replayed.replay(self.SUBMISSIONS, windows) == 500
        assert _floats(replayed) == _floats(reference)
        assert replayed.opportunistic_pending == 0.0

    def test_windows_below_work_grow_backlog(self):
        reference, replayed = _pair()
        windows = self._windows(0.0004)
        _by_calls(reference, self.SUBMISSIONS, windows)
        assert replayed.replay(self.SUBMISSIONS, windows) == 500
        assert _floats(replayed) == _floats(reference)
        assert replayed.opportunistic_pending > 0.1

    def test_no_submissions_only_consume_windows(self):
        reference, replayed = _pair(0.05)
        windows = self._windows(0.001, count=30)
        _by_calls(reference, [], windows)
        replayed.replay([], windows)
        assert _floats(replayed) == _floats(reference)

    def test_stops_after_critical_spill(self):
        submissions = [(0.002, True), (0.0013, False)]
        windows = [0.01, 0.005, 0.0019, 0.01, 0.01]
        reference, replayed = _pair()
        consumed = _by_calls(reference, submissions, windows)
        assert consumed == 3
        assert replayed.replay(submissions, windows) == consumed
        assert _floats(replayed) == _floats(reference)
        assert replayed.critical_pending > 0.0

    def test_negative_values_rejected_before_any_change(self):
        worker = BackgroundWorker()
        worker.submit(0.003, critical=False)
        before = _floats(worker)
        with pytest.raises(ValueError):
            worker.replay([(0.001, False), (-0.001, False)], [0.1])
        with pytest.raises(ValueError):
            worker.replay([(0.001, False)], [0.1, -0.1])
        assert _floats(worker) == before

    def test_journal_records_submissions_while_set(self):
        worker = BackgroundWorker()
        worker.submit(0.001)
        worker.journal = journal = []
        worker.submit(0.002, critical=False)
        worker.submit(0.003)
        worker.journal = None
        worker.submit(0.004)
        assert journal == [(0.002, False), (0.003, True)]
