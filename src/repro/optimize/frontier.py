"""Exact cost–utility Pareto frontier by the ε-constraint method.

A budget sweep samples the frontier at arbitrary budget levels; the
ε-constraint method enumerates it **exactly**: solve max-utility under
the current budget, record the optimum, then tighten the budget to just
below the optimum's own spend and repeat.  Each iteration yields one
non-dominated (cost, utility) point, and the iteration count equals the
number of distinct frontier points — typically far fewer than the
number of deployments.

The frontier is computed over the *scalarized* cost (the classic
bi-objective picture).  Multi-dimensional budgets stay available through
:func:`repro.optimize.pareto.budget_sweep`; this module answers the
complementary question "what does the *entire* trade-off curve look
like", with proof of completeness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.model import SystemModel
from repro.errors import OptimizationError
from repro.metrics.utility import UtilityWeights
from repro.optimize.deployment import Deployment
from repro.optimize.family import MAX_UTILITY, MIN_COST, ProblemFamily, shared_core
from repro.runtime.cache import cached_utility
from repro.solver import SolveSession, solve
from repro.solver.model import MilpModel, SolutionStatus

__all__ = ["FrontierPoint", "exact_frontier"]


@dataclass(frozen=True)
class FrontierPoint:
    """One exact Pareto-optimal trade-off between spend and utility."""

    scalar_cost: float
    utility: float
    deployment: Deployment
    solve_seconds: float


def _dispatch(
    milp: MilpModel,
    backend: str,
    time_limit: float | None,
    session: SolveSession | None,
    max_nodes: int | None = None,
    gap: float | None = None,
    family_key: str | None = None,
    bb_workers: int | None = None,
):
    if session is not None:
        # The session carries its own bb_workers (set at construction).
        return session.solve(
            milp, time_limit=time_limit, max_nodes=max_nodes, gap=gap, family_key=family_key
        )
    return solve(
        milp, backend, time_limit=time_limit, max_nodes=max_nodes, gap=gap, bb_workers=bb_workers
    )


def _solve_at_cost_cap(
    model: SystemModel,
    weights: UtilityWeights,
    cost_cap: float | None,
    backend: str,
    time_limit: float | None,
    session: SolveSession | None = None,
    max_nodes: int | None = None,
    gap: float | None = None,
    family: ProblemFamily | None = None,
    bb_workers: int | None = None,
) -> tuple[frozenset[str], float] | None:
    """Max-utility deployment with scalar cost <= cap; None if infeasible."""
    milp, builder = shared_core(MAX_UTILITY, model, weights, family)
    family_key = family.session_key(MAX_UTILITY) if family is not None else None
    if cost_cap is not None:
        milp.add_constraint(builder.cost_expression() <= cost_cap, name="cost_cap")
    solution = _dispatch(milp, backend, time_limit, session, max_nodes, gap, family_key, bb_workers)
    if solution.status is SolutionStatus.INFEASIBLE:
        return None
    selected = builder.selected_ids(solution.values)
    return selected, solution.objective


def _cheapest_at_utility(
    model: SystemModel,
    weights: UtilityWeights,
    utility_floor: float,
    backend: str,
    time_limit: float | None,
    session: SolveSession | None = None,
    max_nodes: int | None = None,
    gap: float | None = None,
    family: ProblemFamily | None = None,
    bb_workers: int | None = None,
) -> frozenset[str]:
    """Cheapest deployment achieving at least ``utility_floor``.

    The ε-constraint step needs this second solve: the max-utility
    optimum under a cost cap may carry slack cost, which would place a
    dominated point on the frontier.
    """
    milp, builder = shared_core(MIN_COST, model, weights, family)
    family_key = family.session_key(MIN_COST) if family is not None else None
    milp.add_constraint(
        builder.utility_expression(weights) >= utility_floor, name="utility_floor"
    )
    solution = _dispatch(milp, backend, time_limit, session, max_nodes, gap, family_key, bb_workers)
    if solution.status is SolutionStatus.INFEASIBLE:
        raise OptimizationError(
            f"internal inconsistency: utility floor {utility_floor} became infeasible"
        )
    return builder.selected_ids(solution.values)


def exact_frontier(
    model: SystemModel,
    weights: UtilityWeights | None = None,
    *,
    backend: str = "scipy",
    epsilon: float = 1e-4,
    max_points: int = 1000,
    time_limit: float | None = None,
    presolve: bool = False,
    max_nodes: int | None = None,
    gap: float | None = None,
    bb_workers: int | None = None,
    family: ProblemFamily | None = None,
) -> list[FrontierPoint]:
    """The complete cost–utility Pareto frontier, cheapest point first.

    Parameters
    ----------
    epsilon:
        Cost decrement between iterations.  Must exceed the backend's
        MIP feasibility tolerance (HiGHS defaults to 1e-6, hence the
        1e-4 default) and stay below the smallest meaningful cost
        difference between deployments.
    max_points:
        Safety cap on frontier size.
    time_limit:
        Wall-clock limit in seconds applied to *each* of the frontier's
        MILP solves (two per point), not to the whole enumeration.
    presolve:
        Run every solve through one warm
        :class:`~repro.solver.session.SolveSession`: instances are
        presolved, and because each iteration only *tightens* the cost
        cap, the previous point's proven optimum is reused as a dual
        bound by the branch-and-bound backend.
    bb_workers:
        Fan each branch-and-bound solve's subtree search out across
        this many workers (see :mod:`repro.solver.parallel_bb`).
        A throughput knob only: the frontier is bit-identical at any
        worker count.
    family:
        A :class:`~repro.optimize.family.ProblemFamily` over this exact
        ``model`` instance and ``weights``, as on
        :func:`~repro.optimize.pareto.budget_sweep`: the iterations
        extend its ``"max-utility"`` and ``"min-cost"`` cores, across
        calls too.  With ``presolve`` and no family, they share a fresh one.

    Each returned point is Pareto-optimal; consecutive points strictly
    increase in both cost and utility.  The last point attains the
    model's maximum utility; iteration stops at zero cost, at zero
    utility, or when numerical tolerances prevent further progress.
    """
    weights = weights or UtilityWeights()
    if epsilon <= 0:
        raise OptimizationError(f"epsilon must be > 0, got {epsilon!r}")

    session = (
        SolveSession(
            backend,
            presolve=True,
            time_limit=time_limit,
            max_nodes=max_nodes,
            gap=gap,
            bb_workers=bb_workers,
        )
        if presolve
        else None
    )
    # The warm path also shares one formulation core per problem shape:
    # only the cost-cap / utility-floor rows are rebuilt per iteration.
    if family is not None:
        family.check_compatible(model, weights)
    elif session is not None:
        family = ProblemFamily(model, weights)
    points: list[FrontierPoint] = []
    cost_cap: float | None = None  # start unconstrained: the max-utility end

    with obs.span("optimize.exact_frontier", backend=backend) as frontier_span:
        for index in range(max_points):
            with obs.span("frontier.point", i=index) as sp:
                outcome = _solve_at_cost_cap(
                    model,
                    weights,
                    cost_cap,
                    backend,
                    time_limit,
                    session,
                    max_nodes,
                    gap,
                    family,
                    bb_workers,
                )
                if outcome is None:
                    break  # cap below zero spend with forced cost: nothing feasible
                _, achieved = outcome
                if points and achieved >= points[-1].utility - 1e-9:
                    # No strict utility decrease despite the tighter cap:
                    # the remaining cost steps are inside solver
                    # tolerance.  Stop rather than record a duplicate/
                    # dominated point.
                    break
                # Trim slack spend: cheapest deployment at this utility level.
                trimmed = _cheapest_at_utility(
                    model,
                    weights,
                    achieved - 1e-9,
                    backend,
                    time_limit,
                    session,
                    max_nodes,
                    gap,
                    family,
                    bb_workers,
                )
                trimmed_cost = model.deployment_cost(trimmed).scalarize()
            points.append(
                FrontierPoint(
                    scalar_cost=trimmed_cost,
                    utility=cached_utility(model, trimmed, weights),
                    deployment=Deployment.of(model, trimmed),
                    solve_seconds=sp.stop(),
                )
            )
            if trimmed_cost <= 0.0 or achieved <= 0.0:
                break
            cost_cap = trimmed_cost - epsilon
        frontier_span.set(points=len(points))

    points.reverse()  # cheapest first
    return points
