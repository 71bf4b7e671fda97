"""Confidence metrics: probability that evidence is actually recorded.

The static coverage metrics treat monitors as ideal observers.  In
operation monitors miss events — log rotation races, packet drops under
load, sampling.  Each :class:`~repro.core.monitors.MonitorType` carries
a ``quality`` (probability of recording an observable event); treating
monitors as independent, the confidence that a covered event actually
leaves usable evidence is::

    conf(e) = 1 - prod_over_deployed_evidencing_m (1 - weight(m, e) * quality(m))

Confidence is a *reporting* metric: it is nonlinear in the selection
variables, so the ILP objective uses coverage/redundancy/richness and
confidence is evaluated on the resulting deployments (and validated
operationally by the simulation substrate).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.attacks import Attack
from repro.core.model import SystemModel
from repro.metrics.coverage import id_set, importance_weighted_mean, step_weighted_mean

__all__ = ["event_confidence", "attack_confidence", "overall_confidence"]


def event_confidence(model: SystemModel, deployed: Iterable[str], event_id: str) -> float:
    """Probability at least one deployed monitor records ``event_id``."""
    providers = model.monitors_for_event(event_id)
    deployed_set = id_set(deployed)
    miss_probability = 1.0
    for monitor_id, weight in providers.items():
        if monitor_id not in deployed_set:
            continue
        monitor = model.monitor(monitor_id)
        quality = model.monitor_type(monitor.monitor_type_id).quality
        miss_probability *= 1.0 - weight * quality
    return 1.0 - miss_probability


def attack_confidence(model: SystemModel, deployed: Iterable[str], attack: Attack | str) -> float:
    """Step-weighted average event confidence for one attack."""
    if isinstance(attack, str):
        attack = model.attack(attack)
    deployed_set = id_set(deployed)
    return step_weighted_mean(attack, lambda e: event_confidence(model, deployed_set, e))


def overall_confidence(model: SystemModel, deployed: Iterable[str]) -> float:
    """Importance-weighted average attack confidence, in ``[0, 1]``."""
    deployed_set = id_set(deployed)
    return importance_weighted_mean(model, lambda e: event_confidence(model, deployed_set, e))
