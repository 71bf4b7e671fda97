"""``utility()`` against a per-attack reference, compared bit for bit.

The ``overall_*`` metrics evaluate each event once per call and then
form the importance- and step-weighted sums.  The reference below is
the direct attack-by-attack evaluation, event values recomputed for
every step that uses them; both must produce the same float, so the
comparison is on ``float.hex``, not within a tolerance.
"""

from __future__ import annotations

import random

import pytest

from repro.casestudy.scaling import ScalingConfig, synthetic_model
from repro.metrics.confidence import overall_confidence
from repro.metrics.utility import UtilityWeights, utility


def reference_event_values(model, deployed, event_id, cap):
    providers = dict(model.monitors_for_event(event_id))
    coverage = max((w for m, w in providers.items() if m in deployed), default=0.0)
    count = sum(1 for m in providers if m in deployed)
    redundancy = min(count, cap) / cap
    capturable = model.max_fields_for_event(event_id)
    richness = (
        len(model.fields_for_event(event_id, deployed)) / len(capturable)
        if capturable
        else 0.0
    )
    miss = 1.0
    for monitor_id, weight in providers.items():
        if monitor_id in deployed:
            monitor = model.monitor(monitor_id)
            quality = model.monitor_type(monitor.monitor_type_id).quality
            miss *= 1.0 - weight * quality
    return coverage, redundancy, richness, 1.0 - miss


def reference_overall(model, deployed, component, cap):
    attacks = model.attacks
    if not attacks:
        return 0.0
    total_importance = sum(a.importance for a in attacks.values())

    def attack_value(attack):
        total = sum(
            step.weight * reference_event_values(model, deployed, step.event_id, cap)[component]
            for step in attack.steps
        )
        return total / sum(s.weight for s in attack.steps)

    weighted = sum(a.importance * attack_value(a) for a in attacks.values())
    return weighted / total_importance


def reference_utility(model, deployed, weights):
    value = 0.0
    if weights.coverage:
        value += weights.coverage * reference_overall(model, deployed, 0, weights.redundancy_cap)
    if weights.redundancy:
        value += weights.redundancy * reference_overall(
            model, deployed, 1, weights.redundancy_cap
        )
    if weights.richness:
        value += weights.richness * reference_overall(model, deployed, 2, weights.redundancy_cap)
    return value


WEIGHTS = [
    UtilityWeights(),
    UtilityWeights.coverage_only(),
    UtilityWeights.tradeoff(0.4, redundancy_cap=3),
]


@pytest.mark.parametrize("seed", range(6))
def test_utility_equals_the_per_attack_reference_bit_for_bit(seed):
    model = synthetic_model(ScalingConfig(monitors=30, attacks=25, seed=seed))
    rng = random.Random(seed)
    monitors = sorted(model.monitors)
    for size in (0, 1, len(monitors) // 3, len(monitors)):
        deployed = frozenset(rng.sample(monitors, size))
        for weights in WEIGHTS:
            got = utility(model, deployed, weights)
            assert got.hex() == reference_utility(model, deployed, weights).hex()
        # Generators and lists must give the same floats as sets.
        assert utility(model, list(deployed)).hex() == utility(model, iter(deployed)).hex()
        confidence = reference_overall(model, deployed, 3, 2)
        assert overall_confidence(model, deployed).hex() == confidence.hex()


def test_utility_on_the_case_study_equals_the_reference(web_model):
    monitors = sorted(web_model.monitors)
    for deployed in (frozenset(monitors[::2]), frozenset(monitors[1::3])):
        got = utility(web_model, deployed)
        assert got.hex() == reference_utility(web_model, deployed, UtilityWeights()).hex()
