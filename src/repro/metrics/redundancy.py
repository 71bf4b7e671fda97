"""Redundancy metrics: independent corroboration of each attack step.

A single monitor can be evaded, misconfigured, or compromised; the
methodology therefore rewards deployments in which each attack step is
evidenced by *multiple independent* monitors.  Redundancy of an event is
the number of deployed evidencing monitors, capped at a diminishing-
returns threshold ``cap`` and normalized to ``[0, 1]``; attack and
overall redundancy aggregate exactly like coverage does.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.attacks import Attack
from repro.core.model import SystemModel
from repro.errors import MetricError
from repro.metrics.coverage import id_set, importance_weighted_mean, step_weighted_mean

__all__ = [
    "DEFAULT_REDUNDANCY_CAP",
    "event_evidence_count",
    "event_redundancy",
    "attack_redundancy",
    "overall_redundancy",
]

#: Evidence sources per step beyond which extra monitors add no
#: redundancy value.  Two independent sources already allow cross-
#: validation; the case study keeps the paper-style default of 2.
DEFAULT_REDUNDANCY_CAP = 2


def _check_cap(cap: int) -> None:
    if cap < 1:
        raise MetricError(f"redundancy cap must be >= 1, got {cap!r}")


def event_evidence_count(model: SystemModel, deployed: Iterable[str], event_id: str) -> int:
    """Number of deployed monitors providing evidence for ``event_id``."""
    providers = model.monitors_for_event(event_id)
    deployed_set = id_set(deployed)
    return sum(1 for m in providers if m in deployed_set)


def event_redundancy(
    model: SystemModel,
    deployed: Iterable[str],
    event_id: str,
    cap: int = DEFAULT_REDUNDANCY_CAP,
) -> float:
    """``min(evidence count, cap) / cap`` for one event, in ``[0, 1]``."""
    _check_cap(cap)
    count = event_evidence_count(model, deployed, event_id)
    return min(count, cap) / cap


def attack_redundancy(
    model: SystemModel,
    deployed: Iterable[str],
    attack: Attack | str,
    cap: int = DEFAULT_REDUNDANCY_CAP,
) -> float:
    """Step-weighted average event redundancy for one attack."""
    _check_cap(cap)
    if isinstance(attack, str):
        attack = model.attack(attack)
    deployed_set = id_set(deployed)
    return step_weighted_mean(
        attack, lambda e: event_redundancy(model, deployed_set, e, cap)
    )


def overall_redundancy(
    model: SystemModel, deployed: Iterable[str], cap: int = DEFAULT_REDUNDANCY_CAP
) -> float:
    """Importance-weighted average attack redundancy, in ``[0, 1]``."""
    _check_cap(cap)
    deployed_set = id_set(deployed)
    return importance_weighted_mean(
        model, lambda e: event_redundancy(model, deployed_set, e, cap)
    )
