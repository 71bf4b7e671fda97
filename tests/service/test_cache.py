"""Cache semantics: identity hits, LRU/TTL eviction, counter reconciliation.

Two invariants matter here.  First, warmth is invisible in results: a
cache hit answers with the *originally computed object*, so hit-vs-cold
bit-identity holds by construction — pinned below over 50 seeded
synthetic models.  Second, the ``service.cache.*`` /
``service.results.*`` counters (the ones ``registry_snapshot.json``
serializes) reconcile exactly with the insert/evict sequence a test
scripts: live entries always equal insertions minus evictions.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.casestudy.scaling import synthetic_model
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.obs.clock import ManualClock
from repro.optimize.problem import MaxUtilityProblem
from repro.service import ServiceConfig, SolveRequest, SolveService, model_digest
from repro.service.cache import _EMPTY_ENTRY_BYTES, ResultCache, SessionCache
from tests.conftest import plateau_fraction
from tests.service.conftest import canon, oracle_value

pytestmark = pytest.mark.service

SESSION_COUNTERS = (
    "service.cache.hits",
    "service.cache.misses",
    "service.cache.evictions.lru",
    "service.cache.evictions.ttl",
)
RESULT_COUNTERS = (
    "service.results.hits",
    "service.results.misses",
    "service.results.insertions",
    "service.results.evictions",
)


def counter_values(names):
    return {name: obs.counter(name).value for name in names}


def counter_deltas(names, baseline):
    return {name: obs.counter(name).value - baseline[name] for name in names}


class TestSessionCache:
    def test_hit_returns_the_same_entry_object(self, toy_model):
        cache = SessionCache()
        baseline = counter_values(SESSION_COUNTERS)
        digest = model_digest(toy_model)
        first = cache.checkout("t0", toy_model, digest, None, "scipy")
        second = cache.checkout("t0", toy_model, digest, None, "scipy")
        assert second is first
        assert second.family is first.family
        assert second.session is first.session
        assert second.uses == 2
        deltas = counter_deltas(SESSION_COUNTERS, baseline)
        assert deltas["service.cache.misses"] == 1
        assert deltas["service.cache.hits"] == 1

    def test_key_partitions_tenant_weights_backend(self, toy_model):
        cache = SessionCache()
        digest = model_digest(toy_model)
        sharp = UtilityWeights(coverage=1.0, redundancy=0.0, richness=0.0)
        entries = {
            cache.checkout("t0", toy_model, digest, None, "scipy").key,
            cache.checkout("t1", toy_model, digest, None, "scipy").key,
            cache.checkout("t0", toy_model, digest, sharp, "scipy").key,
            cache.checkout("t0", toy_model, digest, None, "branch-and-bound").key,
        }
        assert len(entries) == 4
        assert len(cache) == 4

    def test_lru_eviction_reconciles_with_scripted_sequence(self, toy_model):
        # Entries start at the 4 KiB floor estimate, so a 9000-byte
        # budget holds exactly two: every third insert evicts the LRU.
        cache = SessionCache(max_bytes=2 * _EMPTY_ENTRY_BYTES + 100)
        baseline = counter_values(SESSION_COUNTERS)
        digest = model_digest(toy_model)

        def checkout(tenant, backend="scipy"):
            return cache.checkout(tenant, toy_model, digest, None, backend)

        checkout("a")            # miss: {a}
        checkout("b")            # miss: {a, b}
        checkout("a")            # hit:  {b, a}
        checkout("c")            # miss: evicts b -> {a, c}
        checkout("b")            # miss again (was evicted): evicts a -> {c, b}
        checkout("c")            # hit
        deltas = counter_deltas(SESSION_COUNTERS, baseline)
        assert deltas["service.cache.misses"] == 4
        assert deltas["service.cache.hits"] == 2
        assert deltas["service.cache.evictions.lru"] == 2
        assert deltas["service.cache.evictions.ttl"] == 0
        # Reconciliation: live entries == insertions - evictions.
        assert len(cache) == deltas["service.cache.misses"] - (
            deltas["service.cache.evictions.lru"] + deltas["service.cache.evictions.ttl"]
        )

    def test_the_touched_entry_is_never_evicted(self, toy_model):
        cache = SessionCache(max_bytes=1)  # everything is over budget
        digest = model_digest(toy_model)
        first = cache.checkout("a", toy_model, digest, None, "scipy")
        assert len(cache) == 1  # sole entry survives an impossible budget
        second = cache.checkout("b", toy_model, digest, None, "scipy")
        assert len(cache) == 1  # the just-touched entry displaced the old one
        assert cache.checkout("b", toy_model, digest, None, "scipy") is second
        assert cache.checkout("a", toy_model, digest, None, "scipy") is not first

    def test_idle_ttl_sweeps_on_a_manual_clock(self, toy_model):
        clock = ManualClock()
        cache = SessionCache(idle_ttl=10.0, clock=clock)
        baseline = counter_values(SESSION_COUNTERS)
        digest = model_digest(toy_model)
        cache.checkout("a", toy_model, digest, None, "scipy")
        clock.advance(6.0)
        cache.checkout("b", toy_model, digest, None, "scipy")
        clock.advance(6.0)  # a idle 12s (> ttl), b idle 6s
        cache.checkout("c", toy_model, digest, None, "scipy")
        deltas = counter_deltas(SESSION_COUNTERS, baseline)
        assert deltas["service.cache.evictions.ttl"] == 1
        assert len(cache) == 2
        # b is still warm; a went cold and must rebuild.
        assert counter_deltas(SESSION_COUNTERS, baseline)["service.cache.misses"] == 3
        cache.checkout("b", toy_model, digest, None, "scipy")
        assert counter_deltas(SESSION_COUNTERS, baseline)["service.cache.hits"] == 1

    def test_sparse_cores_sized_by_csr_payload_and_evict_in_lru_order(self):
        # Regression: the byte estimate once charged each memoized row
        # its dense ``vars x 8`` footprint.  A sparse core must be sized
        # by its CSR payload (data/indices/indptr), or one warm
        # catalog-scale entry busts any sane budget and the cache
        # thrashes.  Pin both the sizing and the eviction order it buys.
        big = synthetic_model(monitors=300, attacks=60, seed=11)
        digest = model_digest(big)
        # Budgets on the utility-ceiling plateau (fraction >= ~0.30 here)
        # are certified without building a core, so warm below it.
        fraction = 0.8 * plateau_fraction(big)
        full = MaxUtilityProblem(big, Budget.fraction_of_total(big, 1.0)).solve()
        assert full.method == "ceiling"

        def warm(cache, tenant):
            entry = cache.checkout(tenant, big, digest, None, "scipy")
            problem = MaxUtilityProblem(
                big,
                Budget.fraction_of_total(big, fraction),
                UtilityWeights(),
                family=entry.family,
            )
            with entry.lock:
                assert problem.solve("scipy", session=entry.session).method != "ceiling"
            cache.note_bytes(entry)
            return entry

        probe = warm(SessionCache(), "probe")
        dense_equiv = obs.gauge("solver.matrix.dense_nbytes").value
        sparse_bytes = obs.gauge("solver.matrix.nbytes").value
        assert sparse_bytes < dense_equiv / 10  # the matrix really is sparse
        # The warm entry is charged its CSR-proportional footprint, a
        # small fraction of what dense rows x vars accounting implied.
        assert probe.nbytes < dense_equiv / 4

        # A budget that holds two warm sparse cores — but not even ONE
        # entry under the old dense sizing.
        budget = int(probe.nbytes * 2.5)
        assert budget < dense_equiv
        cache = SessionCache(max_bytes=budget)
        baseline = counter_values(SESSION_COUNTERS)
        a = warm(cache, "a")
        warm(cache, "b")
        deltas = counter_deltas(SESSION_COUNTERS, baseline)
        assert deltas["service.cache.evictions.lru"] == 0  # both fit
        # Touch a so b becomes LRU; inserting c must evict b, not a.
        assert cache.checkout("a", big, digest, None, "scipy") is a
        c = warm(cache, "c")
        deltas = counter_deltas(SESSION_COUNTERS, baseline)
        assert deltas["service.cache.evictions.lru"] == 1
        assert cache.checkout("a", big, digest, None, "scipy") is a  # survived
        assert cache.checkout("c", big, digest, None, "scipy") is c  # survived
        hits_before_b = counter_values(SESSION_COUNTERS)
        cache.checkout("b", big, digest, None, "scipy")  # was the LRU victim
        assert counter_deltas(SESSION_COUNTERS, hits_before_b)[
            "service.cache.misses"
        ] == 1

    def test_note_bytes_tracks_real_solver_state(self, toy_model):
        cache = SessionCache()
        digest = model_digest(toy_model)
        entry = cache.checkout("t0", toy_model, digest, None, "scipy")
        assert entry.nbytes == _EMPTY_ENTRY_BYTES
        problem = MaxUtilityProblem(
            toy_model,
            Budget.fraction_of_total(toy_model, 0.5),
            UtilityWeights(),
            family=entry.family,
        )
        with entry.lock:
            problem.solve("scipy", session=entry.session)
        cache.note_bytes(entry)
        assert entry.nbytes > _EMPTY_ENTRY_BYTES
        snapshot = cache.snapshot()
        assert snapshot["entries"] == 1
        assert snapshot["total_bytes"] == entry.nbytes
        assert snapshot["tenants"] == ["t0"]


class TestResultCache:
    def test_hit_returns_the_original_object(self):
        cache = ResultCache()
        baseline = counter_values(RESULT_COUNTERS)
        payload = {"answer": 42}
        assert cache.get("t0", "d1") is None
        cache.put("t0", "d1", payload)
        assert cache.get("t0", "d1") is payload
        deltas = counter_deltas(RESULT_COUNTERS, baseline)
        assert deltas["service.results.misses"] == 1
        assert deltas["service.results.hits"] == 1
        assert deltas["service.results.insertions"] == 1

    def test_tenants_are_partitioned(self):
        cache = ResultCache()
        cache.put("t0", "d1", "mine")
        assert cache.get("t1", "d1") is None

    def test_eviction_counters_reconcile(self):
        cache = ResultCache(max_entries=2)
        baseline = counter_values(RESULT_COUNTERS)
        cache.put("t0", "d1", 1)
        cache.put("t0", "d2", 2)
        cache.get("t0", "d1")  # refresh d1: d2 is now LRU
        cache.put("t0", "d3", 3)  # evicts d2
        deltas = counter_deltas(RESULT_COUNTERS, baseline)
        assert deltas["service.results.insertions"] == 3
        assert deltas["service.results.evictions"] == 1
        assert len(cache) == deltas["service.results.insertions"] - deltas[
            "service.results.evictions"
        ]
        assert cache.get("t0", "d2") is None
        assert cache.get("t0", "d1") == 1


class TestHitVersusColdBitIdentity:
    """The satellite contract: warmth never changes an answer."""

    def test_fifty_seeded_models_hit_vs_cold(self):
        models = [
            synthetic_model(
                assets=6,
                data_types=5,
                monitor_types=4,
                monitors=8,
                attacks=4,
                seed=seed,
            )
            for seed in range(50)
        ]
        requests = [
            SolveRequest(
                tenant=f"tenant-{seed % 3}",
                kind="max-utility",
                model=models[seed],
                budget_fraction=0.4,
                job_id=f"seed-{seed}",
            )
            for seed in range(50)
        ]

        async def scenario():
            pairs = []
            async with SolveService(ServiceConfig(workers=2)) as service:
                for request in requests:
                    cold = await service.submit(request)
                    warm = await service.submit(request)
                    pairs.append((cold, warm))
            return pairs

        pairs = asyncio.run(scenario())
        for request, (cold, warm) in zip(requests, pairs):
            assert cold.ok and warm.ok
            assert not cold.cached
            assert warm.cached or warm.deduped
            # The warm answer is the very object the cold solve computed...
            assert warm.value is cold.value
            # ...and both are bit-identical to a direct, service-free solve.
            assert canon(cold.value) == canon(oracle_value(request.model, request))
