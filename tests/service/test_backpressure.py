"""Admission backpressure, cancellation, deadlines, and lifecycle.

Most scenarios construct the service *unstarted*: submissions queue
deterministically with no worker racing the assertions, which is what
lets the deadline test run entirely on a ManualClock with zero
wall-clock sleeps.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import obs
from repro.obs.clock import ManualClock
from repro.service import (
    JobStatus,
    QueueFullRejection,
    ServiceClosedRejection,
    ServiceConfig,
    SolveRequest,
    SolveService,
    TenantBusyRejection,
    TenantPolicy,
)

pytestmark = pytest.mark.service


def request(model, tenant="t0", fraction=0.5, job_id=None, deadline=None):
    return SolveRequest(
        tenant=tenant,
        kind="max-utility",
        model=model,
        budget_fraction=fraction,
        job_id=job_id,
        deadline=deadline,
    )


def run(coro_fn, *args):
    return asyncio.run(coro_fn(*args))


class TestQueueBounds:
    def test_overflow_is_a_typed_rejection(self, toy_model):
        async def scenario():
            service = SolveService(ServiceConfig(workers=1, queue_limit=2))
            service.submit(request(toy_model, fraction=0.1))
            service.submit(request(toy_model, fraction=0.2))
            before = obs.counter("service.jobs.rejected.queue_full").value
            with pytest.raises(QueueFullRejection) as excinfo:
                service.submit(request(toy_model, fraction=0.3))
            assert excinfo.value.retry_after > 0
            assert obs.counter("service.jobs.rejected.queue_full").value == before + 1
            assert service.stats()["pending"] == 2
            await service.aclose()

        run(scenario)

    def test_tenant_pending_bound_is_per_tenant(self, toy_model):
        async def scenario():
            config = ServiceConfig(
                workers=1,
                queue_limit=16,
                default_policy=TenantPolicy(max_running=1, max_pending=1),
            )
            service = SolveService(config)
            service.submit(request(toy_model, tenant="a", fraction=0.1))
            with pytest.raises(TenantBusyRejection):
                service.submit(request(toy_model, tenant="a", fraction=0.2))
            # Another tenant still has room.
            service.submit(request(toy_model, tenant="b", fraction=0.2))
            await service.aclose()

        run(scenario)

    def test_dedup_join_bypasses_queue_bounds(self, toy_model):
        # An identical in-flight request shares the primary's slot, so
        # joining it is never a capacity question.
        async def scenario():
            service = SolveService(ServiceConfig(workers=1, queue_limit=1))
            primary = service.submit(request(toy_model, fraction=0.1, job_id="p"))
            follower = service.submit(request(toy_model, fraction=0.1, job_id="f"))
            assert service.stats()["pending"] == 1
            await service.start()
            p, f = await primary, await follower
            assert p.ok and f.ok
            assert f.deduped and not p.deduped
            assert f.value is p.value
            assert f.job_id == "f"
            await service.aclose()

        run(scenario)


class TestCancellation:
    def test_cancelling_pending_releases_the_queue_slot(self, toy_model):
        async def scenario():
            service = SolveService(ServiceConfig(workers=1, queue_limit=2))
            first = service.submit(request(toy_model, fraction=0.1))
            service.submit(request(toy_model, fraction=0.2))
            with pytest.raises(QueueFullRejection):
                service.submit(request(toy_model, fraction=0.3))
            assert first.cancel() is True
            result = await first
            assert result.status is JobStatus.CANCELLED
            # The slot freed synchronously: the same submit now fits.
            service.submit(request(toy_model, fraction=0.3))
            await service.aclose()

        run(scenario)

    def test_cancel_after_completion_is_a_noop(self, toy_model):
        async def scenario():
            async with SolveService(ServiceConfig(workers=1)) as service:
                handle = service.submit(request(toy_model))
                result = await handle
                assert result.ok
                assert handle.cancel() is False
                assert (await handle).ok

        run(scenario)

    def test_close_without_drain_cancels_pending(self, toy_model):
        async def scenario():
            service = SolveService(ServiceConfig(workers=1))
            handles = [
                service.submit(request(toy_model, fraction=f)) for f in (0.1, 0.2, 0.3)
            ]
            await service.aclose(drain=False)
            for handle in handles:
                assert (await handle).status is JobStatus.CANCELLED

        run(scenario)


class TestDeadlines:
    def test_expiry_is_driven_by_the_injected_clock(self, toy_model):
        # No wall-clock sleeps anywhere: the queue wait is *manufactured*
        # by advancing a ManualClock while the service is not started.
        async def scenario():
            clock = ManualClock()
            service = SolveService(ServiceConfig(workers=1, clock=clock))
            late = service.submit(
                request(toy_model, fraction=0.1, job_id="late", deadline=5.0)
            )
            alive = service.submit(
                request(toy_model, fraction=0.2, job_id="alive", deadline=500.0)
            )
            clock.advance(10.0)
            expired_before = obs.counter("service.jobs.expired").value
            await service.start()
            late_result, alive_result = await late, await alive
            assert late_result.status is JobStatus.EXPIRED
            assert late_result.failure is not None
            assert late_result.failure.stage == "deadline"
            assert late_result.failure.error_type == "DeadlineExpired"
            assert late_result.failure.attempts == 0
            assert late_result.queue_seconds == 10.0
            assert obs.counter("service.jobs.expired").value == expired_before + 1
            # The surviving job saw its remaining budget, not the full one.
            assert alive_result.ok
            assert alive_result.deadline_remaining == 490.0
            await service.aclose()

        run(scenario)


def hold_job(service, job_id):
    """Make ``job_id`` block in its worker thread until released.

    Returns ``(entered, release)`` events: ``entered`` is set once the
    held job is executing (with its cache entry locked).
    """
    entered, release = threading.Event(), threading.Event()
    dispatch = service._dispatch

    def held(entry, req, policy):
        if req.job_id == job_id:
            entered.set()
            release.wait(30)
        return dispatch(entry, req, policy)

    service._dispatch = held
    return entered, release


class TestBatchScheduling:
    def test_finished_job_resolves_while_a_later_batched_job_runs(self, toy_model):
        async def scenario():
            service = SolveService(ServiceConfig(workers=1))
            _entered, release = hold_job(service, "held")
            # Queued before the worker starts, so both ride one batch.
            first = service.submit(request(toy_model, fraction=0.2, job_id="first"))
            held = service.submit(request(toy_model, fraction=0.4, job_id="held"))
            await service.start()
            try:
                result = await asyncio.wait_for(asyncio.shield(first.future), 10)
                assert result.ok
                assert not held.done
            finally:
                release.set()
            assert (await held).ok
            await service.aclose()

        run(scenario)

    def test_other_tenant_runs_while_an_entry_is_held(self, toy_model):
        async def scenario():
            service = SolveService(ServiceConfig(workers=2))
            entered, release = hold_job(service, "a-held")
            await service.start()
            try:
                a_held = service.submit(
                    request(toy_model, tenant="a", fraction=0.2, job_id="a-held")
                )
                assert await asyncio.to_thread(entered.wait, 10)
                # Same tenant and cache entry as the held job, under the
                # tenant's running bound: it must wait for the entry
                # rather than take the second worker and block on it.
                a_next = service.submit(
                    request(toy_model, tenant="a", fraction=0.4, job_id="a-next")
                )
                await asyncio.sleep(0.05)
                b = service.submit(request(toy_model, tenant="b", fraction=0.4, job_id="b"))
                result = await asyncio.wait_for(asyncio.shield(b.future), 10)
                assert result.ok
                assert not a_held.done and not a_next.done
            finally:
                release.set()
            assert (await a_held).ok and (await a_next).ok
            await service.aclose()

        run(scenario)


class TestLifecycle:
    def test_closed_service_rejects_typed(self, toy_model):
        async def scenario():
            service = SolveService(ServiceConfig(workers=1))
            await service.start()
            await service.aclose()
            with pytest.raises(ServiceClosedRejection):
                service.submit(request(toy_model))

        run(scenario)

    def test_stats_shape(self, toy_model):
        async def scenario():
            async with SolveService(ServiceConfig(workers=3)) as service:
                handle = service.submit(request(toy_model))
                await handle
                stats = service.stats()
                assert stats["workers"] == 3
                assert stats["closed"] is False
                assert stats["results"] == 1
                assert stats["sessions"]["entries"] == 1

        run(scenario)
