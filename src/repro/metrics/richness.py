"""Richness metrics: forensic depth of the collected data.

Where coverage asks *whether* an attack step leaves a trace, richness
asks *how informative* that trace is.  Richness of an event under a
deployment is the fraction of capturable data fields (source addresses,
URLs, query text, syscall arguments, …) the deployment actually
captures, relative to what deploying every monitor in the model would
capture.  Richer data supports deeper forensic analysis — attribution,
scoping, timeline reconstruction — which is the second use the paper's
monitors serve besides detection.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.attacks import Attack
from repro.core.model import SystemModel
from repro.metrics.coverage import id_set, importance_weighted_mean, step_weighted_mean

__all__ = [
    "event_richness",
    "attack_richness",
    "overall_richness",
    "deployment_field_census",
]


def event_richness(model: SystemModel, deployed: Iterable[str], event_id: str) -> float:
    """Fraction of capturable fields for ``event_id`` actually captured.

    Events no monitor in the model can evidence have no capturable
    fields and get richness 0.
    """
    capturable = model.max_fields_for_event(event_id)
    if not capturable:
        return 0.0
    captured = model.fields_for_event(event_id, deployed)
    return len(captured) / len(capturable)


def attack_richness(model: SystemModel, deployed: Iterable[str], attack: Attack | str) -> float:
    """Step-weighted average event richness for one attack, in ``[0, 1]``."""
    if isinstance(attack, str):
        attack = model.attack(attack)
    deployed_set = id_set(deployed)
    return step_weighted_mean(attack, lambda e: event_richness(model, deployed_set, e))


def overall_richness(model: SystemModel, deployed: Iterable[str]) -> float:
    """Importance-weighted average attack richness, in ``[0, 1]``."""
    deployed_set = id_set(deployed)
    return importance_weighted_mean(model, lambda e: event_richness(model, deployed_set, e))


def deployment_field_census(
    model: SystemModel, deployed: Iterable[str]
) -> dict[str, frozenset[str]]:
    """Per-event captured field sets, for forensic reports.

    Only events with at least one captured field appear in the result.
    """
    deployed_list = list(deployed)
    census: dict[str, frozenset[str]] = {}
    for event_id in model.events:
        fields = model.fields_for_event(event_id, deployed_list)
        if fields:
            census[event_id] = fields
    return census
