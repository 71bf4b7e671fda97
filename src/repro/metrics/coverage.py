"""Coverage metrics: how much of each attack a deployment can see.

Coverage is the primary utility component in the paper's methodology.
An event is *covered* by a deployment at the strength of the best
evidence any selected monitor provides for it; an attack's coverage is
the step-weighted average of its events' coverage; overall coverage is
the importance-weighted average across attacks.  All values lie in
``[0, 1]``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Set

from repro.core.attacks import Attack
from repro.core.model import SystemModel

__all__ = [
    "id_set",
    "step_weighted_mean",
    "importance_weighted_mean",
    "event_coverage",
    "attack_coverage",
    "overall_coverage",
    "asset_weighted_coverage",
    "zone_coverage",
    "covered_events",
    "fully_covered_attacks",
    "detectable_attacks",
]


def id_set(ids: Iterable[str]) -> Set[str]:
    """``ids`` as a set, without copying one that already is."""
    return ids if isinstance(ids, (set, frozenset)) else set(ids)


def step_weighted_mean(attack: Attack, event_value: Callable[[str], float]) -> float:
    """Step-weighted average of ``event_value`` over an attack's events."""
    total = sum(step.weight * event_value(step.event_id) for step in attack.steps)
    return total / attack.total_step_weight


def importance_weighted_mean(
    model: SystemModel, event_value: Callable[[str], float]
) -> float:
    """Importance-weighted average over attacks of :func:`step_weighted_mean`.

    The aggregation shared by every ``overall_*`` metric.  Each event is
    evaluated once per call, however many attacks share it, and the
    sums run in the same order as attack-by-attack evaluation, so the
    result is the same float.  A model without attacks scores 0.
    """
    attacks = model.attacks
    if not attacks:
        return 0.0
    values: dict[str, float] = {}

    def once(event_id: str) -> float:
        value = values.get(event_id)
        if value is None:
            value = values[event_id] = event_value(event_id)
        return value

    total_importance = sum(a.importance for a in attacks.values())
    weighted = sum(a.importance * step_weighted_mean(a, once) for a in attacks.values())
    return weighted / total_importance


def event_coverage(model: SystemModel, deployed: Iterable[str], event_id: str) -> float:
    """Best evidence weight for ``event_id`` among deployed monitors.

    Returns 0 when no deployed monitor evidences the event.
    """
    providers = model.monitors_for_event(event_id)
    deployed_set = id_set(deployed)
    return max((w for m, w in providers.items() if m in deployed_set), default=0.0)


def attack_coverage(model: SystemModel, deployed: Iterable[str], attack: Attack | str) -> float:
    """Step-weighted average event coverage for one attack, in ``[0, 1]``."""
    if isinstance(attack, str):
        attack = model.attack(attack)
    deployed_set = id_set(deployed)
    return step_weighted_mean(attack, lambda e: event_coverage(model, deployed_set, e))


def overall_coverage(model: SystemModel, deployed: Iterable[str]) -> float:
    """Importance-weighted average attack coverage, in ``[0, 1]``.

    A model without attacks has vacuous coverage 0: there is nothing to
    cover, and reporting 1 would make empty models look ideal.
    """
    deployed_set = id_set(deployed)
    return importance_weighted_mean(model, lambda e: event_coverage(model, deployed_set, e))


def asset_weighted_coverage(model: SystemModel, deployed: Iterable[str]) -> float:
    """Event coverage weighted by the criticality of the event's asset.

    Complements the attack-centric :func:`overall_coverage` with an
    asset-centric view: how well are intrusion activities at the
    *important machines* observed, regardless of which attack they
    belong to?  Only events used by at least one attack participate.
    Returns 0 when the model has no such events (or all their assets
    have zero criticality).
    """
    deployed_set = set(deployed)
    weighted = 0.0
    total_weight = 0.0
    for event_id, event in model.events.items():
        if not model.attacks_using_event(event_id):
            continue
        criticality = model.topology.asset(event.asset_id).criticality
        total_weight += criticality
        weighted += criticality * event_coverage(model, deployed_set, event_id)
    if total_weight == 0:
        return 0.0
    return weighted / total_weight


def zone_coverage(model: SystemModel, deployed: Iterable[str]) -> dict[str, float]:
    """Mean event coverage per network zone.

    Groups attack-relevant events by the ``zone`` of the asset they
    occur at and averages their coverage — the view a security review
    presents ("the DMZ is well instrumented, the field network is not").
    Assets with an empty zone group under ``""``.
    """
    deployed_set = set(deployed)
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for event_id, event in model.events.items():
        if not model.attacks_using_event(event_id):
            continue
        zone = model.topology.asset(event.asset_id).zone
        sums[zone] = sums.get(zone, 0.0) + event_coverage(model, deployed_set, event_id)
        counts[zone] = counts.get(zone, 0) + 1
    return {zone: sums[zone] / counts[zone] for zone in sums}


def covered_events(
    model: SystemModel, deployed: Iterable[str], threshold: float = 0.0
) -> frozenset[str]:
    """Events whose coverage strictly exceeds ``threshold``."""
    deployed_set = set(deployed)
    return frozenset(
        e for e in model.events if event_coverage(model, deployed_set, e) > threshold
    )


def fully_covered_attacks(
    model: SystemModel, deployed: Iterable[str], threshold: float = 0.0
) -> frozenset[str]:
    """Attacks with **every required step's** event covered above ``threshold``.

    Full coverage is what intrusion *detection* needs: evidence along
    the entire required kill chain.
    """
    deployed_set = set(deployed)
    result = []
    for attack in model.attacks.values():
        if all(
            event_coverage(model, deployed_set, e) > threshold for e in attack.required_event_ids
        ):
            result.append(attack.attack_id)
    return frozenset(result)


def detectable_attacks(
    model: SystemModel, deployed: Iterable[str], threshold: float = 0.0
) -> frozenset[str]:
    """Attacks with **at least one step's** event covered above ``threshold``.

    Detectability is the weaker, forensics-oriented notion: some trace
    of the attack exists in the collected data.
    """
    deployed_set = set(deployed)
    result = []
    for attack in model.attacks.values():
        if any(
            event_coverage(model, deployed_set, step.event_id) > threshold
            for step in attack.steps
        ):
            result.append(attack.attack_id)
    return frozenset(result)
