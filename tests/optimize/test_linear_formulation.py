"""The one-pass formulation paths against the quadratic ``+`` chains they
replaced.

The utility objective, the per-attack floor expressions and the robust
scenario rows are built with one accumulator
(:meth:`LinearExpression.weighted_sum`).  The reference below keeps the
old chain ``expr = expr + level * weight`` verbatim; on seeded random
models both must give the same terms in the same order and the same
compiled standard form, bit for bit.  A construction counter guards the
linear cost without timing anything.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.casestudy.scaling import ScalingConfig, synthetic_model
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.formulation import FormulationBuilder, event_weights
from repro.optimize.problem import MaxUtilityProblem
from repro.optimize.robust import (
    ImportanceScenario,
    RobustMaxUtilityProblem,
    _scenario_event_weights,
)
from repro.solver.expressions import LinearExpression
from repro.solver.model import MilpModel, ObjectiveSense
from repro.solver.sparse import matrices_equal

CONFIGS = {
    "flat": lambda seed: ScalingConfig(monitors=40, attacks=30, seed=seed),
    "multizone": lambda seed: ScalingConfig(
        assets=40,
        monitor_types=8,
        topology="multizone",
        zones=3,
        monitors=60,
        attacks=30,
        seed=seed,
    ),
}
WEIGHTS = {
    "default": UtilityWeights(),
    "coverage-only": UtilityWeights.coverage_only(),
    "tradeoff": UtilityWeights.tradeoff(0.4, redundancy_cap=3),
}


def chain_utility(builder, event_weights, weights):
    """The quadratic reference: one ``+`` per per-event level."""
    expr = LinearExpression()
    for event_id, base in event_weights.items():
        if weights.coverage > 0:
            expr = expr + builder.coverage_level(event_id) * (weights.coverage * base)
        if weights.redundancy > 0:
            expr = expr + builder.redundancy_level(event_id, weights.redundancy_cap) * (
                weights.redundancy * base
            )
        if weights.richness > 0:
            expr = expr + builder.richness_level(event_id) * (weights.richness * base)
    return expr


def chain_attack(builder, attack, level):
    expr = LinearExpression()
    for step in attack.steps:
        expr = expr + level(step.event_id) * (step.weight / attack.total_step_weight)
    return expr


def indexed_terms(expr):
    # Variable == Variable builds a constraint, so compare column indices.
    return [(var.index, coef) for var, coef in expr.terms.items()]


def assert_same_terms(actual, expected):
    assert indexed_terms(actual) == indexed_terms(expected)
    assert actual.constant == expected.constant


def assert_same_form(actual: MilpModel, expected: MilpModel):
    a, b = actual.compile(), expected.compile()
    assert np.array_equal(a.c, b.c)
    assert np.array_equal(a.b_ub, b.b_ub)
    assert np.array_equal(a.b_eq, b.b_eq)
    assert matrices_equal(a.A_ub, b.A_ub)
    assert matrices_equal(a.A_eq, b.A_eq)
    assert np.array_equal(a.lower, b.lower)
    assert np.array_equal(a.upper, b.upper)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("weights_name", sorted(WEIGHTS))
@pytest.mark.parametrize("topology", sorted(CONFIGS))
def test_max_utility_build_matches_the_quadratic_chain(topology, weights_name, seed):
    model = synthetic_model(CONFIGS[topology](seed))
    weights = WEIGHTS[weights_name]
    budget = Budget.fraction_of_total(model, 0.3)
    milp, builder = MaxUtilityProblem(model, budget, weights).build()

    reference = MilpModel(milp.name, ObjectiveSense.MAXIMIZE)
    ref_builder = FormulationBuilder(reference, model)
    ref_objective = chain_utility(ref_builder, event_weights(model), weights)
    reference.set_objective(ref_objective)
    ref_builder.add_budget_constraints(budget)

    assert_same_terms(builder.utility_expression(weights), ref_objective)
    assert_same_form(milp, reference)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("topology", sorted(CONFIGS))
def test_attack_floor_expressions_match_the_quadratic_chain(topology, seed):
    model = synthetic_model(CONFIGS[topology](seed))
    builder = FormulationBuilder(MilpModel("floors", ObjectiveSense.MAXIMIZE), model)
    for attack in sorted(model.attacks.values(), key=lambda a: a.attack_id)[:10]:
        assert_same_terms(
            builder.attack_coverage_expression(attack),
            chain_attack(builder, attack, builder.coverage_level),
        )
        assert_same_terms(
            builder.attack_richness_expression(attack),
            chain_attack(builder, attack, builder.richness_level),
        )


@pytest.mark.parametrize("weights_name", ["default", "tradeoff"])
@pytest.mark.parametrize("topology", sorted(CONFIGS))
def test_robust_scenarios_match_the_quadratic_chain(topology, weights_name):
    model = synthetic_model(CONFIGS[topology](2))
    weights = WEIGHTS[weights_name]
    attack_ids = sorted(model.attacks)
    scenarios = [
        ImportanceScenario("shifted", {a: 0.1 for a in attack_ids[::2]}),
        ImportanceScenario("retired", {attack_ids[0]: 0.0, attack_ids[-1]: 1.0}),
    ]
    budget = Budget.fraction_of_total(model, 0.25)
    problem = RobustMaxUtilityProblem(model, budget, scenarios, weights)
    milp, _ = problem.build()

    reference = MilpModel(milp.name, ObjectiveSense.MAXIMIZE)
    ref_builder = FormulationBuilder(reference, model)
    t = reference.continuous("worst_case_utility", 0.0, 1.0)
    for scenario in problem.scenarios:
        expr = chain_utility(ref_builder, _scenario_event_weights(model, scenario), weights)
        reference.add_constraint(t <= expr, name=f"scenario[{scenario.name}]")
    ref_builder.add_budget_constraints(budget)
    reference.set_objective(t + 0.0)

    assert_same_form(milp, reference)


def test_build_constructs_a_linear_number_of_expressions(monkeypatch):
    """Constructions and coefficients handed to ``LinearExpression``
    stay within a constant of the model's rows and nonzeros; the old
    ``+`` chain copied the whole objective once per level (about 2.7M
    coefficients on this model against 13k nonzeros)."""
    model = synthetic_model(ScalingConfig(monitors=100, attacks=400, seed=0))
    problem = MaxUtilityProblem(model, Budget.fraction_of_total(model, 0.3))
    counts = {"constructions": 0, "coefficients": 0}
    original = LinearExpression.__init__

    def counting_init(self, terms=None, constant=0.0):
        counts["constructions"] += 1
        counts["coefficients"] += len(terms or ())
        original(self, terms, constant)

    monkeypatch.setattr(LinearExpression, "__init__", counting_init)
    milp, _ = problem.build()
    monkeypatch.undo()

    form = milp.compile()
    nnz = form.A_ub.nnz + form.A_eq.nnz + int(np.count_nonzero(form.c))
    assert counts["constructions"] <= 5 * (milp.num_constraints + len(model.events))
    assert counts["coefficients"] <= 4 * nnz
