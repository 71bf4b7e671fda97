"""The two deployment optimization problems from the paper.

* :class:`MaxUtilityProblem` — given a budget, select the monitor set of
  maximum utility whose cost fits every budget dimension (the paper's
  headline "cost-optimal, maximum-utility placement").
* :class:`MinCostProblem` — given utility/coverage requirements, select
  the cheapest monitor set that meets them (the planning dual: "what
  does this security goal cost?").

Both compile to 0/1 integer programs through
:class:`~repro.optimize.formulation.FormulationBuilder` and solve with
any registered backend, returning an
:class:`~repro.optimize.deployment.OptimizationResult` whose utility is
re-evaluated with the reference metrics.  A max-utility budget that
affords the utility ceiling is answered without a solver
(:mod:`repro.optimize.ceiling`).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro import obs
from repro.core.model import SystemModel
from repro.errors import InfeasibleError, OptimizationError, SolverError
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize.ceiling import ceiling_candidate, ceiling_deployment
from repro.optimize.deployment import Deployment, OptimizationResult
from repro.optimize.family import MAX_UTILITY, MIN_COST, ProblemFamily, shared_core
from repro.optimize.formulation import FormulationBuilder, check_budget
from repro.solver import (
    DEFAULT_CHAIN,
    SolveSession,
    check_backend,
    solve,
    solve_with_fallback,
)
from repro.solver.model import MilpModel, ObjectiveSense, SolutionStatus

__all__ = ["MaxUtilityProblem", "MinCostProblem"]


class MaxUtilityProblem:
    """Maximize deployment utility subject to a multi-dimensional budget.

    Parameters
    ----------
    model:
        The system model to place monitors in.
    budget:
        Per-dimension spending limits; must constrain at least one
        dimension (an unconstrained problem would always select every
        useful monitor).
    weights:
        Utility weights; library defaults if omitted.
    forced_monitors:
        Monitors treated as already deployed — they are pinned selected
        and their cost counts against the budget.  This supports the
        incremental re-optimization workflow (extend an existing
        deployment after the attack catalog grows).
    max_monitors:
        Optional cap on the number of selected monitors, independent of
        cost (operational headcount: each monitor needs care and
        feeding regardless of its resource footprint).
    family:
        Optional :class:`~repro.optimize.family.ProblemFamily` sharing
        one formulation core across related problems (a budget sweep's
        points).  The family must be built over the same model instance
        and weights; :meth:`build` then reuses the cached core and only
        re-appends this problem's budget/forced/cardinality rows,
        producing a bit-identical ILP at a fraction of the cost.
    """

    def __init__(
        self,
        model: SystemModel,
        budget: Budget,
        weights: UtilityWeights | None = None,
        *,
        forced_monitors: Iterable[str] = (),
        max_monitors: int | None = None,
        family: ProblemFamily | None = None,
    ):
        self.model = model
        self.budget = budget
        self.weights = weights or UtilityWeights()
        self.forced_monitors = frozenset(forced_monitors)
        if max_monitors is not None and max_monitors < 0:
            raise OptimizationError(f"max_monitors must be >= 0, got {max_monitors!r}")
        self.max_monitors = max_monitors
        if family is not None:
            family.check_compatible(model, self.weights)
        self.family = family

    def build(self) -> tuple[MilpModel, FormulationBuilder]:
        """Construct the ILP without solving (exposed for inspection/tests)."""
        milp, builder = shared_core(MAX_UTILITY, self.model, self.weights, self.family)
        builder.add_budget_constraints(self.budget)
        if self.forced_monitors:
            builder.add_forced_selection(self.forced_monitors)
        if self.max_monitors is not None:
            builder.add_cardinality_constraint(self.max_monitors)
        return milp, builder

    def _certified(self, backend: str | None) -> OptimizationResult | None:
        """The proven optimum when this budget affords the utility ceiling.

        Takes :func:`~repro.optimize.ceiling.ceiling_deployment` plus the
        forced monitors; if that set fits the budget (and the cardinality
        cap) its utility is the ceiling every deployment is bounded by,
        so it is optimal with zero gap.  ``None`` otherwise: the caller
        solves the ILP.  A request the ILP path rejects — a budget that
        limits nothing, or an unknown ``backend`` (``None``: none is
        named) — raises the same error here.
        """
        check_budget(self.budget)
        if backend is not None:
            check_backend(backend)
        with obs.span("optimize.ceiling") as sp:
            found = self._ceiling_selection()
            sp.set(certified=found is not None)
        if found is None:
            return None
        selected, value = found
        obs.counter("optimize.ceiling.certified").inc()
        return OptimizationResult(
            deployment=Deployment.of(self.model, selected),
            objective=value,
            utility=value,
            solve_seconds=sp.duration,
            method="ceiling",
            optimal=True,
        )

    def _ceiling_selection(self) -> tuple[frozenset[str], float] | None:
        selected, cost = ceiling_candidate(self.model, self.weights)
        if not self.forced_monitors <= selected:
            if not self.forced_monitors <= self.model.monitors.keys():
                return None  # the ILP path reports the unknown ids
            selected = selected | self.forced_monitors
            cost = self.model.deployment_cost(selected)
        if not self.budget.allows(cost):
            return None
        if self.max_monitors is not None and len(selected) > self.max_monitors:
            return None
        ceiling = ceiling_deployment(self.model, self.weights)
        if ceiling is None:
            return None
        return selected, ceiling.utility

    def solve(
        self,
        backend: str = "scipy",
        *,
        time_limit: float | None = None,
        presolve: bool = False,
        session: SolveSession | None = None,
        max_nodes: int | None = None,
        gap: float | None = None,
        bb_workers: int | None = None,
    ) -> OptimizationResult:
        """Solve to optimality and return the chosen deployment.

        A budget that affords the utility ceiling is answered by the
        certificate of :mod:`repro.optimize.ceiling`
        (``method="ceiling"``) without formulating; every other budget
        is solved by ``backend``.

        ``presolve`` routes the ILP through the exact reduction pipeline
        first; ``session`` (which implies its own presolve setting,
        backend, and ``bb_workers``) reuses warm-start state across a
        family of related solves — pass the same session to every point
        of a sweep.  ``bb_workers`` fans branch-and-bound subtree
        exploration across workers (see
        :mod:`repro.solver.parallel_bb`); the selected deployment is
        bit-identical at any count.

        Raises
        ------
        repro.errors.InfeasibleError
            If no deployment fits the budget (only possible with forced
            monitors exceeding it — the empty deployment is otherwise
            always feasible).
        """
        certified = self._certified(backend if session is None else None)
        if certified is not None:
            return certified
        with obs.span("optimize.max_utility", backend=backend) as sp:
            with obs.span("optimize.formulate"):
                milp, builder = self.build()
            sp.set(variables=milp.num_variables, constraints=milp.num_constraints)
            if session is not None:
                solution = session.solve(
                    milp,
                    time_limit=time_limit,
                    max_nodes=max_nodes,
                    gap=gap,
                    family_key=(
                        self.family.session_key(MAX_UTILITY)
                        if self.family is not None
                        else None
                    ),
                )
            else:
                solution = solve(
                    milp,
                    backend,
                    time_limit=time_limit,
                    max_nodes=max_nodes,
                    gap=gap,
                    presolve=presolve,
                    bb_workers=bb_workers,
                )
        obs.histogram("optimize.solve_seconds").observe(sp.duration)
        if solution.status is SolutionStatus.INFEASIBLE:
            raise InfeasibleError(
                f"no deployment fits the budget {dict(self.budget.limits)!r} "
                f"(forced monitors: {sorted(self.forced_monitors)})"
            )
        selected = builder.selected_ids(solution.values)
        deployment = Deployment.of(self.model, selected)
        return OptimizationResult(
            deployment=deployment,
            objective=solution.objective,
            utility=utility(self.model, selected, self.weights),
            solve_seconds=sp.duration,
            method=f"ilp/{solution.backend}",
            optimal=solution.is_optimal,
            stats={
                "variables": float(milp.num_variables),
                "constraints": float(milp.num_constraints),
                "nodes": float(solution.nodes_explored),
            },
        )

    def solve_with_fallback(
        self,
        backends: tuple[str, ...] = DEFAULT_CHAIN,
        *,
        time_limit: float | None = None,
        greedy_last_resort: bool = True,
        presolve: bool = False,
        max_nodes: int | None = None,
        gap: float | None = None,
        bb_workers: int | None = None,
    ) -> OptimizationResult:
        """Solve through the backend fallback chain, greedy as last resort.

        A budget that affords the utility ceiling is answered by the
        certificate, as in :meth:`solve`.

        Exact backends are tried in ``backends`` order via
        :func:`repro.solver.solve_with_fallback`; the answering backend
        and the number of rescued/failed attempts land in ``stats``
        (``fallback_attempts``, ``fallback_failures``).  If *every*
        exact backend **errors** — never when one proves the model
        INFEASIBLE, which is a verdict about the budget, not a solver
        failure — and ``greedy_last_resort`` is set, the greedy
        heuristic answers instead with ``method="greedy-fallback"``.
        The greedy rescue is skipped (the chain's
        :class:`~repro.errors.SolverError` propagates) when
        ``max_monitors`` is set: greedy has no cardinality constraint,
        so its answer could silently violate the problem.

        Raises
        ------
        repro.errors.InfeasibleError
            If a backend proves no deployment fits the budget.
        repro.errors.SolverError
            If every backend errors and greedy cannot stand in.
        """
        certified = self._certified(None)
        if certified is not None:
            return certified
        with obs.span(
            "optimize.max_utility_fallback", backends=",".join(backends)
        ) as sp:
            with obs.span("optimize.formulate"):
                milp, builder = self.build()
            sp.set(variables=milp.num_variables, constraints=milp.num_constraints)
            try:
                outcome = solve_with_fallback(
                    milp,
                    backends,
                    time_limit=time_limit,
                    max_nodes=max_nodes,
                    gap=gap,
                    presolve=presolve,
                    bb_workers=bb_workers,
                )
            except SolverError:
                if not greedy_last_resort or self.max_monitors is not None:
                    raise
                from repro.optimize.greedy import solve_greedy

                obs.counter("optimize.greedy_rescues").inc()
                result = solve_greedy(
                    self.model,
                    self.budget,
                    self.weights,
                    forced_monitors=self.forced_monitors,
                )
                sp.set(answered="greedy")
                stats = dict(result.stats)
                stats["fallback_attempts"] = float(len(backends))
                stats["fallback_failures"] = float(len(backends))
                return OptimizationResult(
                    deployment=result.deployment,
                    objective=result.objective,
                    utility=result.utility,
                    solve_seconds=result.solve_seconds,
                    method="greedy-fallback",
                    optimal=False,
                    stats=stats,
                    selection_order=result.selection_order,
                )
            sp.set(answered=outcome.backend)
        solution = outcome.solution
        obs.histogram("optimize.solve_seconds").observe(sp.duration)
        if solution.status is SolutionStatus.INFEASIBLE:
            raise InfeasibleError(
                f"no deployment fits the budget {dict(self.budget.limits)!r} "
                f"(forced monitors: {sorted(self.forced_monitors)})"
            )
        selected = builder.selected_ids(solution.values)
        deployment = Deployment.of(self.model, selected)
        return OptimizationResult(
            deployment=deployment,
            objective=solution.objective,
            utility=utility(self.model, selected, self.weights),
            solve_seconds=sp.duration,
            method=f"ilp/{solution.backend}",
            optimal=solution.is_optimal,
            stats={
                "variables": float(milp.num_variables),
                "constraints": float(milp.num_constraints),
                "nodes": float(solution.nodes_explored),
                "fallback_attempts": float(len(outcome.attempts)),
                "fallback_failures": float(len(outcome.failures)),
            },
        )


class MinCostProblem:
    """Minimize deployment cost subject to security requirements.

    At least one requirement must be given:

    ``min_utility``
        Overall utility floor under ``weights``.
    ``min_attack_coverage``
        Per-attack coverage floors, ``{attack_id: floor}``.
    ``fully_cover``
        Attacks whose every *required* step must be evidenced by at
        least one selected monitor.
    ``redundant_cover``
        Defense-in-depth floors, ``{attack_id: min_sources}``: every
        required step of the attack must be evidenced by at least
        ``min_sources`` selected monitors (a single compromised or
        failed monitor then cannot blind the kill chain).
    ``min_attack_richness``
        Forensic floors, ``{attack_id: floor}``: the attack's richness
        metric (fraction of capturable data fields collected about its
        steps) must reach ``floor`` — "we must be able to *investigate*
        this attack", not merely notice it.

    The objective is the scalarized cost; ``cost_dimension_weights``
    rebalances dimensions (default: every dimension weighs 1).

    ``family`` shares the :data:`~repro.optimize.family.MIN_COST` core
    of a :class:`~repro.optimize.family.ProblemFamily` (built over this
    model instance and weights) when ``min_utility`` is the only
    requirement and the cost weights are the default: :meth:`build`
    then appends only the floor row.  Any other request builds cold.
    """

    def __init__(
        self,
        model: SystemModel,
        *,
        min_utility: float | None = None,
        min_attack_coverage: Mapping[str, float] | None = None,
        fully_cover: Iterable[str] = (),
        redundant_cover: Mapping[str, int] | None = None,
        min_attack_richness: Mapping[str, float] | None = None,
        weights: UtilityWeights | None = None,
        cost_dimension_weights: Mapping[str, float] | None = None,
        family: ProblemFamily | None = None,
    ):
        self.model = model
        self.min_utility = min_utility
        self.min_attack_coverage = dict(min_attack_coverage or {})
        self.fully_cover = tuple(fully_cover)
        self.redundant_cover = dict(redundant_cover or {})
        self.min_attack_richness = dict(min_attack_richness or {})
        self.weights = weights or UtilityWeights()
        self.cost_dimension_weights = (
            None if cost_dimension_weights is None else dict(cost_dimension_weights)
        )
        if (
            min_utility is None
            and not self.min_attack_coverage
            and not self.fully_cover
            and not self.redundant_cover
            and not self.min_attack_richness
        ):
            raise OptimizationError(
                "MinCostProblem needs at least one requirement: min_utility, "
                "min_attack_coverage, fully_cover, redundant_cover, or "
                "min_attack_richness"
            )
        for attack_id, floor in self.min_attack_richness.items():
            if attack_id not in model.attacks:
                raise OptimizationError(
                    f"richness floor references unknown attack {attack_id!r}"
                )
            if not 0.0 <= floor <= 1.0:
                raise OptimizationError(
                    f"richness floor for {attack_id!r} must lie in [0, 1], got {floor!r}"
                )
        for attack_id, min_sources in self.redundant_cover.items():
            if attack_id not in model.attacks:
                raise OptimizationError(
                    f"redundant_cover references unknown attack {attack_id!r}"
                )
            if min_sources < 1:
                raise OptimizationError(
                    f"redundant_cover for {attack_id!r} must be >= 1, got {min_sources!r}"
                )
        if min_utility is not None and not 0.0 <= min_utility <= 1.0:
            raise OptimizationError(f"min_utility must lie in [0, 1], got {min_utility!r}")
        for attack_id, floor in self.min_attack_coverage.items():
            if attack_id not in model.attacks:
                raise OptimizationError(f"coverage floor references unknown attack {attack_id!r}")
            if not 0.0 <= floor <= 1.0:
                raise OptimizationError(
                    f"coverage floor for {attack_id!r} must lie in [0, 1], got {floor!r}"
                )
        for attack_id in self.fully_cover:
            if attack_id not in model.attacks:
                raise OptimizationError(f"fully_cover references unknown attack {attack_id!r}")
        if family is not None:
            family.check_compatible(model, self.weights)
        #: Whether the request has the shared core's shape: a utility
        #: floor alone, under the default cost weights.
        self._floor_only = (
            min_utility is not None
            and self.cost_dimension_weights is None
            and not self.min_attack_coverage
            and not self.fully_cover
            and not self.redundant_cover
            and not self.min_attack_richness
        )
        self.family = family

    def build(self) -> tuple[MilpModel, FormulationBuilder]:
        """Construct the ILP without solving (exposed for inspection/tests)."""
        if self._floor_only:
            milp, builder = shared_core(MIN_COST, self.model, self.weights, self.family)
        else:
            milp = MilpModel(f"min-cost[{self.model.name}]", ObjectiveSense.MINIMIZE)
            builder = FormulationBuilder(milp, self.model)
            milp.set_objective(builder.cost_expression(self.cost_dimension_weights))
        if self.min_utility is not None:
            milp.add_constraint(
                builder.utility_expression(self.weights) >= self.min_utility,
                name="min_utility",
            )
        for attack_id, floor in sorted(self.min_attack_coverage.items()):
            milp.add_constraint(
                builder.attack_coverage_expression(attack_id) >= floor,
                name=f"min_cov[{attack_id}]",
            )
        for attack_id in self.fully_cover:
            builder.add_full_coverage_constraint(attack_id)
        for attack_id, min_sources in sorted(self.redundant_cover.items()):
            builder.add_full_coverage_constraint(attack_id, min_sources=min_sources)
        for attack_id, floor in sorted(self.min_attack_richness.items()):
            milp.add_constraint(
                builder.attack_richness_expression(attack_id) >= floor,
                name=f"min_rich[{attack_id}]",
            )
        return milp, builder

    def solve(
        self,
        backend: str = "scipy",
        *,
        time_limit: float | None = None,
        presolve: bool = False,
        session: SolveSession | None = None,
        max_nodes: int | None = None,
        gap: float | None = None,
        bb_workers: int | None = None,
    ) -> OptimizationResult:
        """Solve to optimality and return the cheapest compliant deployment.

        ``presolve``/``session``/``max_nodes``/``gap``/``bb_workers``
        behave as on :meth:`MaxUtilityProblem.solve`.

        Raises
        ------
        repro.errors.InfeasibleError
            If the requirements are unattainable with the model's
            monitors (e.g. a required step no monitor can evidence).
        """
        with obs.span("optimize.min_cost", backend=backend) as sp:
            with obs.span("optimize.formulate"):
                milp, builder = self.build()
            sp.set(variables=milp.num_variables, constraints=milp.num_constraints)
            if session is not None:
                solution = session.solve(
                    milp,
                    time_limit=time_limit,
                    max_nodes=max_nodes,
                    gap=gap,
                    family_key=(
                        self.family.session_key(MIN_COST)
                        if self.family is not None and self._floor_only
                        else None
                    ),
                )
            else:
                solution = solve(
                    milp,
                    backend,
                    time_limit=time_limit,
                    max_nodes=max_nodes,
                    gap=gap,
                    presolve=presolve,
                    bb_workers=bb_workers,
                )
        obs.histogram("optimize.solve_seconds").observe(sp.duration)
        if solution.status is SolutionStatus.INFEASIBLE:
            raise InfeasibleError(
                "security requirements are unattainable with the available monitors "
                f"(min_utility={self.min_utility!r}, "
                f"floors={self.min_attack_coverage!r}, fully_cover={self.fully_cover!r})"
            )
        selected = builder.selected_ids(solution.values)
        deployment = Deployment.of(self.model, selected)
        return OptimizationResult(
            deployment=deployment,
            objective=solution.objective,
            utility=utility(self.model, selected, self.weights),
            solve_seconds=sp.duration,
            method=f"ilp/{solution.backend}",
            optimal=solution.is_optimal,
            stats={
                "variables": float(milp.num_variables),
                "constraints": float(milp.num_constraints),
                "nodes": float(solution.nodes_explored),
            },
        )
