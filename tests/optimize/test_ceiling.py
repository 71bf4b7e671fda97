"""Tests for the utility-ceiling certificate (:mod:`repro.optimize.ceiling`).

The contract: a budget that affords the ceiling deployment is answered
without a solver by a deployment whose utility is bit-equal to the
all-monitors utility (the bound of every budget's optimum); every other
budget takes the ILP path and answers exactly as it did without the
certificate.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.casestudy.scaling import ScalingConfig, synthetic_model
from repro.core import AttackStep
from repro.errors import OptimizationError, SolverError
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize import problem as problem_module
from repro.optimize.ceiling import ceiling_deployment
from repro.optimize.pareto import budget_sweep
from repro.optimize.problem import MaxUtilityProblem
from repro.solver import SolveSession, solve
from tests.conftest import build_toy_builder, plateau_fraction

SRC = str(Path(__file__).resolve().parents[2] / "src")

WEIGHTS = {
    "default": UtilityWeights(),
    "coverage-only": UtilityWeights.coverage_only(),
    "tradeoff": UtilityWeights.tradeoff(0.5, redundancy_cap=3),
}


def _unobservable_attack_model():
    """The toy model plus a low-importance attack no monitor can see and
    a monitor that only evidences an event no attack uses."""
    builder = build_toy_builder()
    builder.data_type("dx", fields=["f9"])
    builder.monitor_type("mx", data_types=["dx"], cost={"cpu": 1})
    builder.monitor("mx", "h2")
    builder.event("e9", asset="h1")
    builder.event("e8", asset="h2")
    builder.evidence("dx", "e8", 1.0)
    builder.attack("C", steps=[AttackStep("e9", weight=1.0)], importance=0.01)
    return builder.build()


MODELS = {
    "flat-1": lambda: synthetic_model(ScalingConfig(monitors=30, attacks=15, seed=1)),
    "flat-2": lambda: synthetic_model(ScalingConfig(monitors=40, attacks=20, seed=2)),
    "multizone": lambda: synthetic_model(
        ScalingConfig(monitors=40, attacks=20, seed=3, topology="multizone")
    ),
    "unobservable": _unobservable_attack_model,
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


@pytest.fixture(params=sorted(WEIGHTS))
def weights(request):
    return WEIGHTS[request.param]


def _fields(result):
    """Every field of a result except its wall time."""
    return (
        result.deployment.monitor_ids,
        result.objective.hex(),
        result.utility.hex(),
        result.method,
        result.optimal,
        result.stats,
        result.selection_order,
    )


def _above(model, weights):
    """Budget fractions on the plateau: just past its start, and the full cost."""
    return [min(1.0, plateau_fraction(model, weights) * 1.02), 1.0]


class TestCertificate:
    def test_utility_is_bit_equal_to_all_monitors(self, model, weights):
        ceiling = ceiling_deployment(model, weights)
        assert ceiling is not None
        ceiling_utility = utility(model, model.monitors, weights)
        assert ceiling.utility.hex() == ceiling_utility.hex()
        assert utility(model, ceiling.monitor_ids, weights).hex() == ceiling_utility.hex()
        assert ceiling.cost.as_dict() == model.deployment_cost(ceiling.monitor_ids).as_dict()

    def test_is_inclusion_minimal(self, model, weights):
        ceiling = ceiling_deployment(model, weights)
        for monitor_id in sorted(ceiling.monitor_ids):
            assert utility(model, ceiling.monitor_ids - {monitor_id}, weights) < ceiling.utility

    def test_unused_and_unobservable_events_keep_no_monitor(self):
        model = _unobservable_attack_model()
        # Redundancy (cap 2) needs both providers of e1 and of e2.
        assert ceiling_deployment(model).monitor_ids == {
            "mlog@h1", "mlog@h2", "mnet@n1", "mdb@h2"
        }
        # Coverage alone needs only each event's best provider.
        assert ceiling_deployment(model, UtilityWeights.coverage_only()).monitor_ids == {
            "mlog@h1", "mlog@h2", "mdb@h2"
        }

    def test_is_memoized_per_model_and_weights(self, model):
        first = ceiling_deployment(model, UtilityWeights())
        assert ceiling_deployment(model, UtilityWeights()) is first
        other = ceiling_deployment(model, UtilityWeights.coverage_only())
        assert other is not first

    def test_same_in_every_hash_seed(self):
        script = (
            "from repro.casestudy.scaling import ScalingConfig, synthetic_model\n"
            "from repro.metrics.utility import UtilityWeights\n"
            "from repro.optimize.ceiling import ceiling_deployment\n"
            "for topology in ('flat', 'multizone'):\n"
            "    model = synthetic_model(ScalingConfig(monitors=60, attacks=25, seed=4,"
            " topology=topology))\n"
            "    for weights in (UtilityWeights(), UtilityWeights.tradeoff(0.5)):\n"
            "        c = ceiling_deployment(model, weights)\n"
            "        print(sorted(c.monitor_ids), c.utility.hex(),"
            " sorted((d, v.hex()) for d, v in c.cost.as_dict().items()))\n"
        )
        outputs = set()
        for seed in ("1", "5"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr
            outputs.add(run.stdout)
        assert len(outputs) == 1, outputs


class TestMaxUtilityOnThePlateau:
    def test_certified_answer_fits_and_no_solver_beats_it(self, model, weights):
        ceiling = ceiling_deployment(model, weights)
        for fraction in _above(model, weights):
            budget = Budget.fraction_of_total(model, fraction)
            problem = MaxUtilityProblem(model, budget, weights)
            result = problem.solve()
            assert result.method == "ceiling"
            assert result.optimal
            assert result.monitor_ids == ceiling.monitor_ids
            assert budget.allows(result.deployment.cost())
            assert result.utility.hex() == result.objective.hex() == ceiling.utility.hex()
            milp, _ = problem.build()
            exact = solve(milp, "scipy", gap=0.0)
            assert exact.objective <= result.utility + 1e-9

    def test_below_the_plateau_every_field_matches_the_ilp_path(
        self, model, weights, monkeypatch
    ):
        start = plateau_fraction(model, weights)
        fractions = [0.5 * start, 0.95 * start]
        certified = [
            MaxUtilityProblem(model, Budget.fraction_of_total(model, f), weights).solve()
            for f in fractions
        ]
        monkeypatch.setattr(problem_module, "ceiling_deployment", lambda *args: None)
        ilp = [
            MaxUtilityProblem(model, Budget.fraction_of_total(model, f), weights).solve()
            for f in fractions
        ]
        for got, want in zip(certified, ilp):
            assert got.method != "ceiling"
            assert _fields(got) == _fields(want)

    def test_solve_with_fallback_agrees_with_solve(self, model):
        start = plateau_fraction(model)
        for fraction in (0.6 * start, 1.0):
            problem = MaxUtilityProblem(model, Budget.fraction_of_total(model, fraction))
            plain = problem.solve()
            chained = problem.solve_with_fallback()
            assert chained.monitor_ids == plain.monitor_ids
            assert chained.utility.hex() == plain.utility.hex()
            assert (chained.method == "ceiling") == (plain.method == "ceiling")

    def test_spans_and_counters_separate_certified_from_solved(self, model):
        start = plateau_fraction(model)
        with obs.capture() as cap:
            for fraction in (0.6 * start, 1.0, 1.0):
                MaxUtilityProblem(model, Budget.fraction_of_total(model, fraction)).solve()
        counters = cap.registry.snapshot()["counters"]
        assert counters["optimize.ceiling.certified"] == 2.0
        assert counters["solver.solves"] == 1.0
        spans = [s for s in cap.tracer.roots if s.name == "optimize.ceiling"]
        assert [s.args["certified"] for s in spans] == [False, True, True]


class TestRequestShape:
    @pytest.fixture()
    def flat(self):
        return MODELS["flat-2"]()

    def test_forced_monitors_join_the_certified_set(self, flat):
        ceiling = ceiling_deployment(flat)
        extra = sorted(set(flat.monitors) - ceiling.monitor_ids)[:2]
        result = MaxUtilityProblem(
            flat, Budget.fraction_of_total(flat, 1.0), forced_monitors=extra
        ).solve()
        assert result.method == "ceiling"
        assert result.monitor_ids == ceiling.monitor_ids | set(extra)
        assert result.utility.hex() == utility(flat, result.monitor_ids).hex()
        assert result.utility.hex() == ceiling.utility.hex()

    def test_forced_monitors_that_bust_the_budget_go_to_the_solver(self, flat):
        ceiling = ceiling_deployment(flat)
        budget = Budget.fraction_of_total(flat, plateau_fraction(flat) * 1.02)
        outside = sorted(
            set(flat.monitors) - ceiling.monitor_ids,
            key=lambda m: -flat.monitor_cost(m).scalarize(),
        )
        forced = outside[:3]
        assert not budget.allows(flat.deployment_cost(ceiling.monitor_ids | set(forced)))
        result = MaxUtilityProblem(flat, budget, forced_monitors=forced).solve()
        assert result.method != "ceiling"
        assert set(forced) <= result.monitor_ids

    def test_unknown_forced_monitors_are_still_rejected(self, flat):
        problem = MaxUtilityProblem(
            flat, Budget.fraction_of_total(flat, 1.0), forced_monitors=["nope"]
        )
        with pytest.raises(OptimizationError, match="unknown monitors"):
            problem.solve()

    def test_max_monitors_is_honoured(self, flat):
        ceiling = ceiling_deployment(flat)
        budget = Budget.fraction_of_total(flat, 1.0)
        size = len(ceiling.monitor_ids)
        at_cap = MaxUtilityProblem(flat, budget, max_monitors=size).solve()
        assert at_cap.method == "ceiling"
        below_cap = MaxUtilityProblem(flat, budget, max_monitors=size - 1).solve()
        assert below_cap.method != "ceiling"
        assert len(below_cap.monitor_ids) <= size - 1

    def test_a_budget_that_limits_nothing_is_still_rejected(self, flat):
        problem = MaxUtilityProblem(flat, Budget())
        with pytest.raises(OptimizationError, match="constrains no dimension"):
            problem.solve()
        with pytest.raises(OptimizationError, match="constrains no dimension"):
            problem.solve_with_fallback()

    def test_an_unknown_backend_is_still_rejected(self, flat):
        problem = MaxUtilityProblem(flat, Budget.fraction_of_total(flat, 1.0))
        with pytest.raises(SolverError, match="unknown backend"):
            problem.solve("no-such-backend")
        assert problem.solve(session=SolveSession()).method == "ceiling"


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_sweep_matches_per_fraction_problems(workers):
    model = MODELS["flat-1"]()
    start = plateau_fraction(model)
    fractions = [0.5 * start, 0.9 * start, min(1.0, 1.05 * start), 1.0]
    points = budget_sweep(model, fractions, workers=workers)
    assert [p.fraction for p in points] == fractions
    methods = []
    for point, fraction in zip(points, fractions):
        direct = MaxUtilityProblem(model, Budget.fraction_of_total(model, fraction)).solve()
        assert _fields(point.result) == _fields(direct)
        methods.append(point.result.method == "ceiling")
    assert methods == [False, False, True, True]
