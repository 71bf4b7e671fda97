"""The determinism contract, differentially: service == direct solves.

A 50-job mixed-tenant workload (the load generator's seeded traffic:
sweeps, max-utility, min-cost, frontier) runs against the service at
every worker count and under shuffled admission orders; every per-job
payload must be byte-identical to a direct, cold, serial solve of the
same request.  Nothing the service does — batching, family reuse, warm
sessions, result caching, in-flight dedup — may be visible in results.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.optimize.family import MAX_UTILITY, MIN_COST
from repro.service import JobStatus, ServiceConfig, SolveService
from repro.service.loadgen import self_submitting, traffic
from tests.conftest import build_toy_builder
from tests.service.conftest import canon, oracle_value, run_jobs

pytestmark = pytest.mark.service

JOBS = 50
TENANTS = 3
TRAFFIC_SEED = 7


@pytest.fixture(scope="module")
def model():
    return build_toy_builder().build()


@pytest.fixture(scope="module")
def workload(model):
    """The 50 mixed requests plus each one's canonical oracle payload."""
    requests = traffic(JOBS, tenants=TENANTS, seed=TRAFFIC_SEED, model=model)
    kinds = {r.kind.value for r in requests}
    assert kinds == {"sweep", "max-utility", "min-cost", "frontier"}
    oracles = {r.job_id: canon(oracle_value(model, r)) for r in requests}
    return requests, oracles


def assert_bit_identical(results, oracles):
    assert len(results) == JOBS
    for result in results:
        assert result.status is JobStatus.SUCCEEDED, result.failure
        assert canon(result.value) == oracles[result.job_id]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_every_worker_count_matches_the_oracles(workload, workers):
    requests, oracles = workload
    results = run_jobs(requests, ServiceConfig(workers=workers))
    assert_bit_identical(results, oracles)


@pytest.mark.parametrize("order_seed", [11, 23, 47])
def test_any_admission_interleaving_matches_the_oracles(workload, order_seed):
    requests, oracles = workload
    shuffled = list(requests)
    random.Random(order_seed).shuffle(shuffled)
    results = run_jobs(shuffled, ServiceConfig(workers=2))
    assert_bit_identical(results, oracles)


def test_tight_queue_backpressure_does_not_change_results(workload):
    # Forcing constant reject/resubmit cycles exercises a very
    # different admission interleaving; results must not move.
    requests, oracles = workload
    results = run_jobs(requests, ServiceConfig(workers=2, queue_limit=4))
    assert_bit_identical(results, oracles)


def test_warm_answers_are_the_primary_objects(workload):
    requests, oracles = workload
    results = run_jobs(requests, ServiceConfig(workers=2))
    assert_bit_identical(results, oracles)
    by_key: dict[tuple, list] = {}
    for result in results:
        by_key.setdefault((result.tenant, result.digest), []).append(result)
    duplicates = [group for group in by_key.values() if len(group) > 1]
    assert duplicates, "seeded traffic should repeat some requests per tenant"
    warm = sum(r.cached or r.deduped for r in results)
    assert warm == sum(len(g) - 1 for g in duplicates)
    for group in duplicates:
        # One execution per (tenant, digest): every duplicate shares
        # the primary's payload object, not merely an equal value.
        values = {id(r.value) for r in group}
        assert len(values) == 1


def test_mixed_kinds_leave_two_cores_per_entry(workload):
    # Min-cost jobs and frontier steps extend the max-utility and
    # min-cost cores that every other kind uses, so however the kinds
    # mix, a warm entry never holds more than those two.
    requests, oracles = workload

    async def scenario():
        async with SolveService(ServiceConfig(workers=2)) as service:
            handles = [await self_submitting(service, r) for r in requests]
            results = [await h for h in handles]
            return results, list(service.sessions._entries.values())

    results, entries = asyncio.run(scenario())
    assert_bit_identical(results, oracles)
    assert {entry.tenant for entry in entries} == {r.tenant for r in requests}
    for entry in entries:
        assert sorted(entry.family._cores) == [MAX_UTILITY, MIN_COST], entry.tenant
