"""Tests for SystemModel: integrity checking and derived indices."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.casestudy.scaling import ScalingConfig, synthetic_model
from repro.core import AssetKind, ModelBuilder
from repro.errors import UnknownIdError, ValidationError
from repro.metrics.utility import UtilityWeights, utility

from tests.conftest import build_toy_builder

SRC = str(Path(repro.__file__).resolve().parents[1])


class TestIntegrity:
    def test_monitor_with_unknown_type(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.monitor("ghost-type", "a")
        with pytest.raises(ValidationError, match="unknown type"):
            builder.build()

    def test_monitor_at_unknown_asset(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.data_type("d")
        builder.monitor_type("mt", data_types=["d"])
        builder.monitor("mt", "ghost")
        with pytest.raises(ValidationError, match="unknown asset"):
            builder.build()

    def test_monitor_at_incompatible_kind(self):
        builder = ModelBuilder()
        builder.asset("a", kind=AssetKind.SERVER)
        builder.data_type("d")
        builder.monitor_type("mt", data_types=["d"], deployable_kinds=[AssetKind.DATABASE])
        builder.monitor("mt", "a")
        with pytest.raises(ValidationError, match="not deployable"):
            builder.build()

    def test_monitor_type_with_unknown_data_type(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.monitor_type("mt", data_types=["ghost"])
        with pytest.raises(ValidationError, match="unknown data type"):
            builder.build()

    def test_event_at_unknown_asset(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.event("e", asset="ghost")
        with pytest.raises(ValidationError, match="unknown asset"):
            builder.build()

    def test_evidence_with_unknown_refs(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.event("e", asset="a")
        builder.evidence("ghost-dt", "e")
        with pytest.raises(ValidationError, match="unknown data type"):
            builder.build()

    def test_evidence_with_unknown_field(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.data_type("d", fields=["f1"])
        builder.event("e", asset="a")
        builder.evidence("d", "e", fields_used=["f1", "ghost"])
        with pytest.raises(ValidationError, match="absent from"):
            builder.build()

    def test_attack_with_unknown_event(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.attack("atk", steps=["ghost-event"])
        with pytest.raises(ValidationError, match="unknown event"):
            builder.build()

    def test_all_problems_reported_at_once(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.monitor("ghost-type", "a")
        builder.event("e", asset="ghost")
        with pytest.raises(ValidationError) as excinfo:
            builder.build()
        assert len(excinfo.value.problems) >= 2


class TestCoverageRelation:
    def test_monitors_for_event_host_scope(self, toy_model):
        providers = toy_model.monitors_for_event("e1")
        assert providers == {"mlog@h1": 1.0, "mnet@n1": 0.5}

    def test_network_scope_reaches_neighbors(self, toy_model):
        # mnet@n1 observes h2 through the n1--h2 link
        assert toy_model.monitors_for_event("e2") == {"mdb@h2": 0.8, "mnet@n1": 0.4}

    def test_host_monitor_does_not_reach_other_assets(self, toy_model):
        # mlog@h1 generates dlog, which evidences e3 at h2 — but cannot see h2
        assert "mlog@h1" not in toy_model.monitors_for_event("e3")
        assert toy_model.monitors_for_event("e3") == {"mlog@h2": 0.6}

    def test_monitors_for_event_is_a_read_only_view(self, toy_model):
        providers = toy_model.monitors_for_event("e1")
        with pytest.raises(TypeError):
            providers["mdb@h2"] = 1.0  # type: ignore[index]
        with pytest.raises(TypeError):
            del providers["mlog@h1"]  # type: ignore[attr-defined]
        assert toy_model.monitors_for_event("e1") == {"mlog@h1": 1.0, "mnet@n1": 0.5}

    def test_events_for_monitor_is_transpose(self, toy_model):
        for monitor_id in toy_model.monitors:
            for event_id, weight in toy_model.events_for_monitor(monitor_id).items():
                assert toy_model.monitors_for_event(event_id)[monitor_id] == weight

    def test_evidencing_data_types(self, toy_model):
        assert toy_model.evidencing_data_types("mnet@n1", "e1") == frozenset({"dnet"})
        assert toy_model.evidencing_data_types("mnet@n1", "e3") == frozenset()

    def test_unknown_ids_raise(self, toy_model):
        with pytest.raises(UnknownIdError):
            toy_model.monitors_for_event("ghost")
        with pytest.raises(UnknownIdError):
            toy_model.events_for_monitor("ghost")
        with pytest.raises(UnknownIdError):
            toy_model.evidencing_data_types("ghost", "e1")
        with pytest.raises(UnknownIdError):
            toy_model.fields_for_event("e1", ["ghost"])
        with pytest.raises(UnknownIdError):
            toy_model.fields_for_event("e1", {"mlog@h1", "ghost"})
        with pytest.raises(UnknownIdError):
            toy_model.fields_for_event("ghost", [])
        with pytest.raises(UnknownIdError):
            toy_model.max_fields_for_event("ghost")
        with pytest.raises(UnknownIdError):
            utility(toy_model, {"ghost"})


class TestAttackIndices:
    def test_attacks_using_event(self, toy_model):
        assert toy_model.attacks_using_event("e1") == frozenset({"A"})
        assert toy_model.attacks_using_event("e2") == frozenset({"A", "B"})

    def test_coverable_events(self, toy_model):
        assert toy_model.coverable_events() == frozenset({"e1", "e2", "e3"})

    def test_uncovered_event_excluded(self):
        builder = build_toy_builder()
        builder.event("orphan", asset="h1")
        model = builder.build()
        assert "orphan" not in model.coverable_events()


class TestCosts:
    def test_monitor_cost(self, toy_model):
        assert toy_model.monitor_cost("mnet@n1").as_dict() == {"cpu": 4, "network": 2}

    def test_deployment_cost_sums(self, toy_model):
        cost = toy_model.deployment_cost(["mlog@h1", "mdb@h2"])
        assert cost.as_dict() == {"cpu": 5, "storage": 1}

    def test_deployment_cost_is_hash_seed_independent(self):
        """The same monitor set costs the same bits in every process,
        whatever order the process's hash seed gives the set."""
        script = (
            "from repro.casestudy.scaling import ScalingConfig, synthetic_model\n"
            "model = synthetic_model(ScalingConfig(monitors=200, attacks=20, seed=3))\n"
            "chosen = set(sorted(model.monitors)[::4] + sorted(model.monitors)[1::4])\n"
            "cost = model.deployment_cost(chosen)\n"
            "print(repr(cost.scalarize()), sorted(cost.as_dict().items()))\n"
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

    def test_total_cost(self, toy_model):
        total = toy_model.total_cost()
        assert total.get("cpu") == 2 + 2 + 4 + 3
        assert total.get("storage") == 2
        assert total.get("network") == 2


class TestFields:
    def test_max_fields_for_event(self, toy_model):
        assert toy_model.max_fields_for_event("e1") == frozenset({"f1", "f2", "f3"})

    def test_fields_for_event_subset(self, toy_model):
        assert toy_model.fields_for_event("e1", ["mnet@n1"]) == frozenset({"f2", "f3"})
        assert toy_model.fields_for_event("e1", []) == frozenset()

    def test_evidence_fields_defaults_to_all(self, toy_model):
        assert toy_model.evidence_fields("dlog", "e1") == frozenset({"f1", "f2"})

    def test_evidence_fields_respects_restriction(self):
        builder = build_toy_builder()
        builder.event("e4", asset="h1")
        builder.evidence("dlog", "e4", fields_used=["f1"])
        model = builder.build()
        assert model.evidence_fields("dlog", "e4") == frozenset({"f1"})

    def test_no_evidence_pair_returns_empty(self, toy_model):
        assert toy_model.evidence_fields("ddb", "e1") == frozenset()


def brute_force_fields(model, event_id, monitor_ids):
    """Every deployed monitor's fields for the event, provider or not."""
    fields = set()
    for monitor_id in monitor_ids:
        for dt in model.evidencing_data_types(monitor_id, event_id):
            fields |= model.evidence_fields(dt, event_id)
    return frozenset(fields)


INPUT_SHAPES = {
    "list": list,
    "generator": lambda ids: (m for m in ids),
    "set": set,
    "frozenset": frozenset,
}


class TestProviderDrivenFields:
    @pytest.fixture(scope="class")
    def catalog(self):
        return synthetic_model(
            ScalingConfig(
                assets=40, monitor_types=8, topology="multizone", zones=3, monitors=80, attacks=30
            )
        )

    @pytest.mark.parametrize("shape", sorted(INPUT_SHAPES))
    def test_fields_for_event_matches_brute_force(self, catalog, shape):
        ids = sorted(catalog.monitors)
        rng = random.Random(11)
        for _ in range(5):
            deployed = rng.sample(ids, rng.randrange(len(ids) + 1))
            for event_id in sorted(catalog.events):
                expected = brute_force_fields(catalog, event_id, deployed)
                assert catalog.fields_for_event(event_id, INPUT_SHAPES[shape](deployed)) == expected
        for event_id in sorted(catalog.events):
            assert catalog.max_fields_for_event(event_id) == brute_force_fields(
                catalog, event_id, ids
            )

    @pytest.mark.parametrize("shape", sorted(INPUT_SHAPES))
    def test_utility_matches_brute_force_fields(self, catalog, shape, monkeypatch):
        ids = sorted(catalog.monitors)
        rng = random.Random(5)
        deployments = [rng.sample(ids, rng.randrange(len(ids) + 1)) for _ in range(4)]
        weights = UtilityWeights()
        actual = [utility(catalog, INPUT_SHAPES[shape](d), weights) for d in deployments]

        reference = synthetic_model(
            ScalingConfig(
                assets=40, monitor_types=8, topology="multizone", zones=3, monitors=80, attacks=30
            )
        )
        monkeypatch.setattr(
            reference,
            "fields_for_event",
            lambda event_id, monitor_ids: brute_force_fields(reference, event_id, monitor_ids),
        )
        monkeypatch.setattr(
            reference,
            "max_fields_for_event",
            lambda event_id: brute_force_fields(reference, event_id, ids),
        )
        assert actual == [utility(reference, d, weights) for d in deployments]


class TestStats:
    def test_stats_counts(self, toy_model):
        stats = toy_model.stats()
        assert stats == {
            "assets": 3,
            "links": 2,
            "data_types": 3,
            "monitor_types": 3,
            "monitors": 4,
            "events": 3,
            "evidence": 5,
            "attacks": 2,
        }

    def test_repr_mentions_counts(self, toy_model):
        assert "4 monitors" in repr(toy_model)
