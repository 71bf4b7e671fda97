"""Utility-ceiling certificate: proven max-utility optima without a solver.

Every per-event level the utility aggregates — the best selected
evidence weight, ``min(count, cap) / cap``, and the share of capturable
fields captured — can only rise as monitors are added, and every
component weight and event weight is non-negative.  So
``U(all monitors)`` bounds the optimum of every budget, and a deployment
that fits the budget *and* attains that ceiling is a proven optimum.

:func:`ceiling_deployment` finds one such deployment that is cheap and
inclusion-minimal: start from all monitors and drop them one at a time,
most expensive first (then by id), keeping a monitor only when some
weighted event would lose its ceiling level without it.  The check is
done on per-event counters, not by re-evaluating the metrics, and the
result is accepted only if the reference :func:`~repro.metrics.utility.
utility` of the kept set equals the all-monitors utility exactly.

:class:`~repro.optimize.problem.MaxUtilityProblem` consults it before
formulating: every budget on the plateau above the ceiling's cost is
answered here, every other budget takes the ILP path unchanged.  It
reads the kept set and its cost first (:func:`ceiling_candidate`) and
pays for the exact utility check only when the budget affords them, so
a budget below the plateau costs the counter pass alone.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.model import SystemModel
from repro.core.monitors import CostVector
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize.formulation import event_weights

__all__ = ["Ceiling", "ceiling_candidate", "ceiling_deployment"]


@dataclass(frozen=True)
class Ceiling:
    """A deployment attaining the utility ceiling, with its cost."""

    monitor_ids: frozenset[str]
    cost: CostVector
    utility: float


@dataclass
class _Entry:
    """One memo slot: the kept set, its cost, and the check's verdict."""

    monitor_ids: frozenset[str]
    cost: CostVector
    checked: bool = False
    ceiling: Ceiling | None = None


#: Per-model memo of ``weights key -> _Entry``; keyed weakly so models
#: can be collected (the idiom of :mod:`repro.runtime.cache`).
_MEMO: "weakref.WeakKeyDictionary[SystemModel, dict[tuple, _Entry]]" = (
    weakref.WeakKeyDictionary()
)


def _entry(model: SystemModel, weights: UtilityWeights) -> _Entry:
    key = (weights.coverage, weights.redundancy, weights.richness, weights.redundancy_cap)
    memo = _MEMO.setdefault(model, {})
    if key not in memo:
        kept = _kept(model, weights)
        memo[key] = _Entry(monitor_ids=kept, cost=model.deployment_cost(kept))
    return memo[key]


def ceiling_candidate(
    model: SystemModel, weights: UtilityWeights | None = None
) -> tuple[frozenset[str], CostVector]:
    """The kept set and its cost, before the exact utility check.

    A budget that cannot afford this cost is below the plateau, and
    :func:`ceiling_deployment` need not be consulted for it.  Memoized
    per model instance, like :func:`ceiling_deployment`.
    """
    entry = _entry(model, weights or UtilityWeights())
    return entry.monitor_ids, entry.cost


def ceiling_deployment(
    model: SystemModel, weights: UtilityWeights | None = None
) -> Ceiling | None:
    """An inclusion-minimal deployment whose utility equals ``U(all)``.

    ``None`` when the kept set's reference utility differs from the
    all-monitors utility in any bit (callers then solve the ILP).  A
    pure function of ``model`` and ``weights``, memoized per model
    instance.
    """
    weights = weights or UtilityWeights()
    entry = _entry(model, weights)
    if not entry.checked:
        value = utility(model, entry.monitor_ids, weights)
        if value == utility(model, model.monitors, weights):
            entry.ceiling = Ceiling(monitor_ids=entry.monitor_ids, cost=entry.cost, utility=value)
        entry.checked = True
    return entry.ceiling


def _kept(model: SystemModel, weights: UtilityWeights) -> frozenset[str]:
    # Each obligation is one counter ("how many kept monitors hold this
    # event at its ceiling level") with the floor it must not drop below.
    # A monitor lists the obligations it counts towards.
    left: dict[tuple, int] = {}
    floor: dict[tuple, int] = {}
    duties: dict[str, list[tuple]] = {m: [] for m in model.monitors}

    def owe(obligation: tuple, monitors: list[str], need: int) -> None:
        left[obligation] = len(monitors)
        floor[obligation] = need
        for monitor_id in monitors:
            duties[monitor_id].append(obligation)

    for event_id, weight in event_weights(model).items():
        providers = model.monitors_for_event(event_id)
        if weight <= 0 or not providers:
            continue
        if weights.coverage > 0:
            best = max(providers.values())
            owe(("cov", event_id), [m for m, w in providers.items() if w == best], 1)
        if weights.redundancy > 0:
            owe(("red", event_id), list(providers), min(len(providers), weights.redundancy_cap))
        if weights.richness > 0:
            capturers: dict[str, list[str]] = {}
            for monitor_id in providers:
                captured: set[str] = set()
                for data_type in model.evidencing_data_types(monitor_id, event_id):
                    captured |= model.evidence_fields(data_type, event_id)
                for name in sorted(captured):
                    capturers.setdefault(name, []).append(monitor_id)
            for name, monitors in capturers.items():
                owe(("rich", event_id, name), monitors, 1)

    kept = set(duties)
    order = sorted(kept, key=lambda m: (-model.monitor_cost(m).scalarize(), m))
    for monitor_id in order:
        owed = duties[monitor_id]
        if all(left[o] > floor[o] for o in owed):
            for o in owed:
                left[o] -= 1
            kept.discard(monitor_id)
    return frozenset(kept)
