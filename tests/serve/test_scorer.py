"""Scorer: micro-batching, backpressure, deadlines, fault smoke."""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.mpc.faults import FaultInjector, FaultSpec
from repro.serve import scorer as scorer_module
from repro.serve import (
    QueueSaturated,
    RequestTimeout,
    Scorer,
    ScorerClosed,
    ScorerConfig,
    ServeError,
)


class TestScorerConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_wait_ms": -1.0},
            {"queue_items": 0},
            {"n_workers": 0},
            {"submit_timeout_s": 0.0},
            {"default_timeout_s": -3.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        # max_batch / queue_items are the two knobs: a bad value is a
        # ValueError.  The timings and the worker count are not fields,
        # so naming one is a TypeError, never a silently ignored setting.
        [name] = kwargs
        fields = {f.name for f in dataclasses.fields(ScorerConfig)}
        with pytest.raises(ValueError if name in fields else TypeError):
            ScorerConfig(**kwargs)

    def test_fixed_timings_keep_their_values(self):
        assert scorer_module.MAX_WAIT_MS == 2.0
        assert scorer_module.SUBMIT_TIMEOUT_S == 5.0
        assert scorer_module.DEFAULT_TIMEOUT_S == 30.0


class TestScoring:
    def test_results_match_direct_scoring(self, model, train_db):
        expect = model.predict(train_db)
        with Scorer(model, ScorerConfig(max_batch=32)) as scorer:
            pending = [
                scorer.submit(train_db.take(slice(i, i + 25)))
                for i in range(0, 400, 25)
            ]
            got = np.concatenate([p.result().labels for p in pending])
        assert np.array_equal(got, expect)

    def test_blocking_wrappers(self, model, train_db):
        block = train_db.take(slice(0, 40))
        with Scorer(model) as scorer:
            assert np.array_equal(scorer.predict(block), model.predict(block))
            assert np.allclose(
                scorer.predict_proba(block), model.predict_proba(block)
            )
            assert np.array_equal(
                scorer.predict_logproba(block), model.predict_logproba(block)
            )
            assert np.array_equal(
                scorer.score_samples(block), model.score_samples(block)
            )

    def test_prefilled_queue_coalesces_into_batches(self, model, train_db):
        scorer = Scorer(model, ScorerConfig(max_batch=16), start=False)
        pending = [
            scorer.submit(train_db.take(slice(i, i + 1))) for i in range(48)
        ]
        scorer.start()
        for p in pending:
            p.result()
        scorer.close()
        # A pre-filled queue of 48 single-item requests drains as three
        # full batches of max_batch: one kernel pass per 16 requests.
        assert scorer.metrics.n_batches == 3
        assert scorer.metrics.mean_batch_items == 16.0
        assert scorer.metrics.n_completed == 48

    def test_request_larger_than_max_batch_still_runs(self, model, train_db):
        with Scorer(model, ScorerConfig(max_batch=16)) as scorer:
            labels = scorer.predict(train_db.take(slice(0, 100)))
        assert labels.shape == (100,)

    def test_empty_request_rejected(self, model, train_db):
        with Scorer(model) as scorer:
            with pytest.raises(ValueError, match="empty"):
                scorer.submit(train_db.take(slice(0, 0)))

    def test_schema_mismatch_rejected_eagerly(self, model, mixed_db):
        with Scorer(model) as scorer:
            with pytest.raises(ValueError, match="schema mismatch"):
                scorer.submit(mixed_db.take(slice(0, 5)))


@pytest.fixture
def short_submit_wait(monkeypatch):
    monkeypatch.setattr(scorer_module, "SUBMIT_TIMEOUT_S", 0.05)


@pytest.mark.usefixtures("short_submit_wait")
class TestBackpressure:
    def test_full_queue_saturates_after_wait(self, model, train_db):
        config = ScorerConfig(queue_items=4)
        scorer = Scorer(model, config, start=False)
        scorer.submit(train_db.take(slice(0, 4)))  # fills the queue
        t0 = time.perf_counter()
        with pytest.raises(QueueSaturated):
            scorer.submit(train_db.take(slice(4, 6)))
        assert time.perf_counter() - t0 >= 0.04
        assert scorer.metrics.n_rejected == 1
        scorer.close(drain=False)

    def test_oversized_request_admitted_when_queue_empty(self, model, train_db):
        # A single request bigger than the whole queue bound must not
        # deadlock — it is admitted alone.
        config = ScorerConfig(queue_items=4)
        with Scorer(model, config) as scorer:
            labels = scorer.predict(train_db.take(slice(0, 32)))
        assert labels.shape == (32,)


class TestDeadlines:
    def test_result_timeout_cancels_queued_request(self, model, train_db):
        scorer = Scorer(model, start=False)  # nothing will score it
        pending = scorer.submit(train_db.take(slice(0, 2)))
        with pytest.raises(RequestTimeout, match="cancelled while queued"):
            pending.result(timeout=0.05)
        assert scorer.metrics.n_timeouts == 1
        assert scorer.metrics.n_cancelled == 1
        assert scorer.metrics.queue_depth == 0
        # The handle is settled: later waits fail fast, they do not
        # re-arm a deadline on a request that can never run.
        assert pending.done
        with pytest.raises(RequestTimeout, match="cancelled after"):
            pending.result(timeout=5.0)
        # Workers never see the cancelled request: a fresh request
        # completes while the batch counter shows exactly one pass.
        scorer.start()
        assert scorer.predict(train_db.take(slice(0, 3))).shape == (3,)
        scorer.close()
        assert scorer.metrics.n_batches == 1

    def test_inflight_request_is_not_cancelled(self, model, train_db):
        # A worker takes the request before the deadline expires; the
        # timeout must report in-flight and leave the batch untouched,
        # and the handle can still collect the late result.
        faults = FaultInjector(
            [FaultSpec(rank=0, action="delay", site="batch", at_cycle=0,
                       seconds=0.3)]
        )
        with Scorer(model, faults=faults) as scorer:
            pending = scorer.submit(train_db.take(slice(0, 2)))
            deadline = time.perf_counter() + 5.0
            while (
                scorer.metrics.n_batches == 0
                and time.perf_counter() < deadline
            ):
                time.sleep(0.005)  # until a worker has taken the batch
            with pytest.raises(RequestTimeout, match="already in flight"):
                pending.result(timeout=0.05)
            assert scorer.metrics.n_cancelled == 0
            assert pending.result(timeout=5.0).n_items == 2

    def test_retries_exhaust_then_raise(self, model, train_db):
        scorer = Scorer(model, start=False)
        with pytest.raises(RequestTimeout):
            scorer.predict(
                train_db.take(slice(0, 1)), timeout=0.02, retries=2
            )
        assert scorer.metrics.n_timeouts == 3  # 1 try + 2 retries
        assert scorer.metrics.n_cancelled == 3  # each attempt cleaned up
        scorer.close(drain=False)


class TestLifecycle:
    def test_submit_after_close_raises(self, model, train_db):
        scorer = Scorer(model)
        scorer.close()
        with pytest.raises(ScorerClosed):
            scorer.submit(train_db.take(slice(0, 2)))

    def test_start_after_close_raises(self, model):
        scorer = Scorer(model, start=False)
        scorer.close()
        with pytest.raises(ScorerClosed):
            scorer.start()

    def test_close_without_drain_fails_queued_requests(self, model, train_db):
        scorer = Scorer(model, start=False)
        pending = scorer.submit(train_db.take(slice(0, 2)))
        scorer.close(drain=False)
        with pytest.raises(ScorerClosed):
            pending.result(timeout=1.0)
        assert scorer.metrics.queue_depth == 0

    def test_context_manager_drains_backlog(self, model, train_db):
        with Scorer(model) as scorer:
            pending = [
                scorer.submit(train_db.take(slice(i, i + 10)))
                for i in range(0, 100, 10)
            ]
        assert all(p.done for p in pending)
        assert scorer.metrics.n_completed == 10

    def test_close_is_idempotent(self, model):
        scorer = Scorer(model)
        scorer.close()
        scorer.close()


class TestFaultInjection:
    def test_injected_delay_slows_but_does_not_fail(self, model, train_db):
        faults = FaultInjector(
            FaultSpec(rank=0, action="delay", site="batch",
                      at_try=0, at_cycle=0, seconds=0.1)
        )
        with Scorer(model, faults=faults) as scorer:
            t0 = time.perf_counter()
            labels = scorer.predict(train_db.take(slice(0, 8)))
            elapsed = time.perf_counter() - t0
        assert labels.shape == (8,)
        assert elapsed >= 0.09
        assert scorer.metrics.n_errors == 0

    def test_injected_kill_fails_batch_not_service(self, model, train_db):
        faults = FaultInjector(
            FaultSpec(rank=0, action="kill", site="batch",
                      at_try=0, at_cycle=0)
        )
        with Scorer(model, faults=faults) as scorer:
            with pytest.raises(ServeError, match="batch 0 failed"):
                scorer.predict(train_db.take(slice(0, 8)))
            assert scorer.metrics.n_errors == 1
            # once=True: the next batch scores cleanly on the same worker.
            labels = scorer.predict(train_db.take(slice(0, 8)))
        assert np.array_equal(labels, model.predict(train_db.take(slice(0, 8))))


class TestMetrics:
    def test_snapshot_and_render(self, model, train_db):
        with Scorer(model) as scorer:
            scorer.predict(train_db.take(slice(0, 10)))
        snap = scorer.metrics.snapshot()
        assert snap["n_submitted"] == 1
        assert snap["n_completed"] == 1
        assert snap["n_batches"] == 1
        assert snap["n_items"] == 10
        assert snap["queue_depth"] == 0
        text = scorer.metrics.render()
        assert "throughput" in text
        assert "batch-size histogram" in text
