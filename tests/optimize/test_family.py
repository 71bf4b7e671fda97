"""Tests for shared formulation cores (:mod:`repro.optimize.family`).

The contract under test is exactness: a family-built instance must
compile to the *bit-identical* standard form of a cold build, so the
solver's answer — down to tie-breaking — cannot depend on whether the
core was fresh or reused.
"""

import numpy as np
import pytest

from repro import obs
from repro.errors import OptimizationError
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize.family import MAX_UTILITY, MIN_COST, ProblemFamily, shared_core
from repro.optimize.frontier import exact_frontier
from repro.optimize.pareto import budget_sweep
from repro.optimize.problem import MaxUtilityProblem, MinCostProblem
from repro.solver import SolveSession
from repro.solver.sparse import matrices_equal

FRACTIONS = [0.25, 0.5, 0.75, 1.0]


def assert_forms_identical(left, right):
    for field in ("c", "b_ub", "b_eq", "lower", "upper", "integrality"):
        assert np.array_equal(getattr(left, field), getattr(right, field)), field
    for field in ("A_ub", "A_eq"):
        assert matrices_equal(getattr(left, field), getattr(right, field)), field
    assert left.objective_constant == right.objective_constant
    assert left.maximize == right.maximize


class TestFamilyCores:
    def test_reused_core_compiles_bit_identical(self, toy_model):
        family = ProblemFamily(toy_model)
        for fraction in FRACTIONS:
            budget = Budget.fraction_of_total(toy_model, fraction)
            warm_milp, _ = MaxUtilityProblem(toy_model, budget, family=family).build()
            cold_milp, _ = MaxUtilityProblem(toy_model, budget).build()
            assert_forms_identical(warm_milp.compile(), cold_milp.compile())

    def test_core_built_once_then_reused(self, toy_model):
        family = ProblemFamily(toy_model)
        with obs.capture() as cap:
            for fraction in FRACTIONS:
                budget = Budget.fraction_of_total(toy_model, fraction)
                MaxUtilityProblem(toy_model, budget, family=family).build()
        counters = cap.registry.snapshot()["counters"]
        assert counters["optimize.family.builds"] == 1
        assert counters["optimize.family.reuses"] == len(FRACTIONS) - 1

    def test_distinct_keys_get_distinct_cores(self, toy_model):
        family = ProblemFamily(toy_model)
        built = []

        def factory(tag):
            def build():
                milp, builder = shared_core(MAX_UTILITY, toy_model, UtilityWeights())
                built.append(tag)
                return milp, builder

            return build

        a1, _ = family.core("a", factory("a"))
        b1, _ = family.core("b", factory("b"))
        a2, _ = family.core("a", factory("a"))
        assert built == ["a", "b"]
        assert a1 is a2 and a1 is not b1

    def test_session_keys_stable_and_distinct(self, toy_model):
        family = ProblemFamily(toy_model)
        other = ProblemFamily(toy_model)
        assert family.session_key("a") == family.session_key("a")
        assert family.session_key("a") != family.session_key("b")
        assert family.session_key("a") != other.session_key("a")

    def test_rejects_foreign_model(self, toy_model, web_model):
        family = ProblemFamily(web_model)
        budget = Budget.fraction_of_total(toy_model, 0.5)
        with pytest.raises(OptimizationError, match="different model"):
            MaxUtilityProblem(toy_model, budget, family=family)

    def test_rejects_mismatched_weights(self, toy_model):
        family = ProblemFamily(toy_model, UtilityWeights())
        budget = Budget.fraction_of_total(toy_model, 0.5)
        with pytest.raises(OptimizationError, match="different utility weights"):
            MaxUtilityProblem(
                toy_model, budget, UtilityWeights.coverage_only(), family=family
            )


class TestWarmEqualsCold:
    def test_budget_sweep_identical_to_cold(self, toy_model):
        cold = budget_sweep(toy_model, FRACTIONS, workers=1)
        warm = budget_sweep(toy_model, FRACTIONS, workers=1, presolve=True)
        for c, w in zip(cold, warm):
            assert w.result.deployment.monitor_ids == c.result.deployment.monitor_ids
            assert w.result.objective == c.result.objective

    def test_budget_sweep_identical_on_case_study(self, web_model):
        # Presolve genuinely reduces the case-study model, so the warm
        # objective is the *lifted* re-evaluation of the same optimal
        # vertex — equal up to summation order, not bit-for-bit (the
        # untransformed-model case above is strict).  Deployments, the
        # integer answer, must still match exactly.
        fractions = [0.2, 0.4, 0.6]
        cold = budget_sweep(web_model, fractions, workers=1)
        warm = budget_sweep(web_model, fractions, workers=1, presolve=True)
        for c, w in zip(cold, warm):
            assert w.result.deployment.monitor_ids == c.result.deployment.monitor_ids
            assert w.result.objective == pytest.approx(c.result.objective, rel=1e-12)

    def test_exact_frontier_identical_to_cold(self, toy_model):
        cold = exact_frontier(toy_model)
        warm = exact_frontier(toy_model, presolve=True)
        assert len(cold) == len(warm)
        for c, w in zip(cold, warm):
            assert w.deployment.monitor_ids == c.deployment.monitor_ids
            assert w.scalar_cost == c.scalar_cost
            assert w.utility == c.utility


FLOORS = [0.2, 0.5, 0.35, 0.8]


class TestSharedCoresAcrossKinds:
    """Min-cost problems and frontier steps extend the same two cores."""

    def test_min_cost_family_compiles_bit_identical(self, toy_model):
        family = ProblemFamily(toy_model)
        ceiling = utility(toy_model, toy_model.monitors)
        for fraction, floor in zip(FRACTIONS, FLOORS):
            # Interleave kinds, as service traffic does.
            budget = Budget.fraction_of_total(toy_model, fraction)
            MaxUtilityProblem(toy_model, budget, family=family).build()[0].compile()
            warm, _ = MinCostProblem(
                toy_model, min_utility=floor * ceiling, family=family
            ).build()
            cold, _ = MinCostProblem(toy_model, min_utility=floor * ceiling).build()
            assert_forms_identical(warm.compile(), cold.compile())
        assert sorted(family._cores) == [MAX_UTILITY, MIN_COST]

    def test_min_cost_family_answers_match_cold(self, web_model):
        family = ProblemFamily(web_model)
        session = SolveSession("scipy", presolve=False)
        ceiling = utility(web_model, web_model.monitors)
        for floor in FLOORS:
            warm = MinCostProblem(
                web_model, min_utility=floor * ceiling, family=family
            ).solve(session=session)
            cold = MinCostProblem(web_model, min_utility=floor * ceiling).solve()
            assert warm.deployment.monitor_ids == cold.deployment.monitor_ids
            assert warm.objective == cold.objective
            assert warm.utility == cold.utility
            assert warm.stats == cold.stats
        assert session.family_count == 1  # keyed by the core, not hashed

    def test_other_min_cost_requests_build_cold(self, toy_model):
        family = ProblemFamily(toy_model)
        attack_id = sorted(toy_model.attacks)[0]
        requests = [
            dict(min_utility=0.1, fully_cover=[attack_id]),
            dict(min_utility=0.1, cost_dimension_weights={"cpu": 2.0}),
            dict(fully_cover=[attack_id]),
        ]
        for kwargs in requests:
            warm, _ = MinCostProblem(toy_model, family=family, **kwargs).build()
            cold, _ = MinCostProblem(toy_model, **kwargs).build()
            assert_forms_identical(warm.compile(), cold.compile())
        assert family.core_count == 0

    def test_frontier_with_family_matches_cold(self, toy_model):
        family = ProblemFamily(toy_model)
        cold = exact_frontier(toy_model)
        for _ in range(2):  # the second call reuses both cores
            warm = exact_frontier(toy_model, family=family)
            assert len(warm) == len(cold)
            for c, w in zip(cold, warm):
                assert w.deployment.monitor_ids == c.deployment.monitor_ids
                assert w.scalar_cost == c.scalar_cost
                assert w.utility == c.utility
        assert sorted(family._cores) == [MAX_UTILITY, MIN_COST]

    def test_min_cost_and_frontier_reject_a_foreign_family(self, toy_model, web_model):
        with pytest.raises(OptimizationError, match="different model"):
            MinCostProblem(toy_model, min_utility=0.1, family=ProblemFamily(web_model))
        with pytest.raises(OptimizationError, match="different model"):
            exact_frontier(toy_model, family=ProblemFamily(web_model))

    def test_min_cost_and_frontier_reject_mismatched_weights(self, toy_model):
        family = ProblemFamily(toy_model, UtilityWeights())
        with pytest.raises(OptimizationError, match="different utility weights"):
            MinCostProblem(
                toy_model,
                min_utility=0.1,
                weights=UtilityWeights.coverage_only(),
                family=family,
            )
        with pytest.raises(OptimizationError, match="different utility weights"):
            exact_frontier(toy_model, UtilityWeights.coverage_only(), family=family)
