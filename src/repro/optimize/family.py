"""Shared formulation cores for families of related MILPs.

A budget sweep, a frontier enumeration, or a stream of service jobs
solves many instances over the *same* system model and utility
weights: the binary selection variables, the per-event metric
linearizations, and the objective are rebuilt identically at every
point, and only a handful of rows (budget limits, a cost cap, a utility
floor) change.  On large models that rebuild is a third or more of
sweep wall time.

:class:`ProblemFamily` amortizes it exactly.  Each distinct problem
*shape* builds its expensive core once; before every reuse the model is
rolled back to the core's constraint count with
:meth:`~repro.solver.model.MilpModel.truncate_constraints` and the
caller re-appends the per-instance rows in the same order a cold build
would.  Because variables, the objective, and row order are identical
to a from-scratch build, the compiled standard form — and therefore the
solver's answer, down to tie-breaking — is bit-identical to a cold
solve.  Per-instance rows must not introduce new variables; every core
factory used here materializes all auxiliary encodings up front.

Every job kind extends one of two shapes (:func:`shared_core`), so a
warm family holds two cores whatever mix of jobs it serves:

* ``"max-utility"`` — utility objective; a max-utility problem appends
  its budget/forced/cardinality rows, a frontier step its cost cap;
* ``"min-cost"`` — cost objective plus the materialized utility
  encoding; a min-cost problem whose only requirement is a utility
  floor, and a frontier trimming step, append the floor row.

Families hold live model state, so (like
:class:`~repro.solver.session.SolveSession`) they are neither
thread-safe nor able to cross process boundaries: parallel sweeps keep
building per point.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

from repro import obs
from repro.core.model import SystemModel
from repro.errors import OptimizationError
from repro.metrics.utility import UtilityWeights
from repro.optimize.formulation import FormulationBuilder
from repro.solver.model import MilpModel, ObjectiveSense
from repro.solver.sparse import matrix_nbytes

__all__ = ["MAX_UTILITY", "MIN_COST", "ProblemFamily", "shared_core"]

#: Process-wide uid so two families never share a session key.
_FAMILY_IDS = itertools.count()

#: Core key of the utility-maximizing shape.
MAX_UTILITY = "max-utility"
#: Core key of the cost-minimizing shape with a utility floor.
MIN_COST = "min-cost"


def _max_utility_core(
    model: SystemModel, weights: UtilityWeights
) -> tuple[MilpModel, FormulationBuilder]:
    milp = MilpModel(f"max-utility[{model.name}]", ObjectiveSense.MAXIMIZE)
    builder = FormulationBuilder(milp, model)
    milp.set_objective(builder.utility_expression(weights))
    return milp, builder


def _min_cost_core(
    model: SystemModel, weights: UtilityWeights
) -> tuple[MilpModel, FormulationBuilder]:
    milp = MilpModel(f"min-cost[{model.name}]", ObjectiveSense.MINIMIZE)
    builder = FormulationBuilder(milp, model)
    milp.set_objective(builder.cost_expression())
    # Materialize the utility encoding into the core: the builder
    # caches the expression, so a per-instance floor row adds no rows
    # beyond itself on reuse.
    builder.utility_expression(weights)
    return milp, builder


_CORE_FACTORIES = {MAX_UTILITY: _max_utility_core, MIN_COST: _min_cost_core}


class ProblemFamily:
    """Reusable formulation cores over one model and weight vector.

    Parameters
    ----------
    model:
        The system model every instance of the family formulates.
    weights:
        Utility weights baked into the cores' objectives and floors;
        library defaults if omitted.  Consumers call
        :meth:`check_compatible` before reusing a core.
    """

    def __init__(self, model: SystemModel, weights: UtilityWeights | None = None):
        self.model = model
        self.weights = weights or UtilityWeights()
        self._uid = next(_FAMILY_IDS)
        #: key -> (milp, builder, constraint count of the frozen core)
        self._cores: dict[str, tuple[MilpModel, FormulationBuilder, int]] = {}

    def check_compatible(self, model: SystemModel, weights: UtilityWeights) -> None:
        """Raise :class:`~repro.errors.OptimizationError` unless this
        family was built over ``model`` (the same instance) and
        ``weights``: a core built for other weights would silently
        optimize the wrong objective."""
        if self.model is not model:
            raise OptimizationError(
                "ProblemFamily was built over a different model instance"
            )
        if self.weights != weights:
            raise OptimizationError("ProblemFamily was built for different utility weights")

    def session_key(self, core_key: str) -> str:
        """Stable session family key for one of this family's cores.

        Every instance extended from the same core shares a structure
        by construction, so :class:`~repro.solver.session.SolveSession`
        can group them without hashing the model
        (:func:`~repro.solver.session.structure_signature`) on every
        solve.  The uid keeps keys distinct across family objects.
        """
        return f"family:{self._uid}:{core_key}"

    @property
    def core_count(self) -> int:
        """How many distinct cores this family has built."""
        return len(self._cores)

    def estimated_bytes(self) -> int:
        """Rough footprint of the cached cores, in bytes.

        Exact for the sparse-row memo (nnz-proportional, not the dense
        ``vars x 8`` an earlier memo charged) plus flat per-term
        estimates for the symbolic constraint store.  Consumed by the
        service's LRU-by-bytes cache (:mod:`repro.service.cache`).
        """
        total = 0
        for milp, _builder, _base_rows in self._cores.values():
            total += 96 * milp.num_variables
            memo = milp._row_memo
            total += 8 * len(memo.constraints) + matrix_nbytes(memo.matrix)
            total += memo.rhs.nbytes + memo.eq.nbytes
            total += sum(
                48 * len(constraint.expression.terms) + 120
                for constraint in milp.constraints
            )
        return total

    def core(
        self,
        key: str,
        factory: Callable[[], tuple[MilpModel, FormulationBuilder]],
    ) -> tuple[MilpModel, FormulationBuilder]:
        """The shared core for ``key``, rolled back and ready to extend.

        On first use ``factory`` builds the core — variables, auxiliary
        encodings, objective, and any rows shared by every instance —
        and its constraint count is recorded.  Later uses truncate the
        model back to that mark, so the caller appends per-instance
        rows onto a clean core each time.
        """
        entry = self._cores.get(key)
        if entry is None:
            milp, builder = factory()
            self._cores[key] = (milp, builder, milp.num_constraints)
            obs.counter("optimize.family.builds").inc()
            return milp, builder
        milp, builder, base_rows = entry
        milp.truncate_constraints(base_rows)
        obs.counter("optimize.family.reuses").inc()
        return milp, builder


def shared_core(
    key: str,
    model: SystemModel,
    weights: UtilityWeights,
    family: ProblemFamily | None = None,
) -> tuple[MilpModel, FormulationBuilder]:
    """The :data:`MAX_UTILITY` or :data:`MIN_COST` core, ready to extend.

    Taken from ``family`` (rolled back) when one is given, built cold
    otherwise; the two compile identically once the caller appends the
    same rows.
    """

    def build() -> tuple[MilpModel, FormulationBuilder]:
        return _CORE_FACTORIES[key](model, weights)

    if family is None:
        return build()
    return family.core(key, build)
