"""Shared fixtures and model factories for the whole test suite.

Besides the hand-checkable toy model and the case study, this module
owns the small MILP factories (`knapsack_model`, `set_cover_model`,
`wide_knapsack_model`, `random_binary_model`) that used to be
copy-pasted across ``tests/solver`` and ``tests/faults`` — import them
as ``from tests.conftest import knapsack_model`` — and `plateau_fraction`,
the budget fraction at which max-utility solves start being certified.

It also gates the ``nightly`` marker: nightly-marked tests are skipped
unless ``REPRO_NIGHTLY`` is set in the environment, so the tier-1 run
stays fast while CI's scheduled jobs get the long soak coverage.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.casestudy import enterprise_web_service
from repro.core import AssetKind, ModelBuilder, MonitorScope, SystemModel
from repro.metrics.utility import UtilityWeights
from repro.optimize.ceiling import ceiling_deployment
from repro.solver import MilpModel, ObjectiveSense


def pytest_collection_modifyitems(config, items):
    if os.environ.get("REPRO_NIGHTLY"):
        return
    skip_nightly = pytest.mark.skip(reason="nightly test; set REPRO_NIGHTLY=1 to run")
    for item in items:
        if "nightly" in item.keywords:
            item.add_marker(skip_nightly)


# ----------------------------------------------------------------------
# shared MILP factories
# ----------------------------------------------------------------------


def knapsack_model(
    capacity: float = 8.0,
    values: tuple = (10, 13, 7, 8, 12),
    weights: tuple = (3, 4, 2, 3, 4),
    *,
    name: str = "knapsack",
    constraint_name: str | None = None,
) -> MilpModel:
    """A 0/1 knapsack; the defaults have known optimum 25 at capacity 8.

    The session tests treat ``capacity`` and ``values`` as family knobs
    (same structure, different rhs/objective), so both are parameters.
    """
    model = MilpModel(name, ObjectiveSense.MAXIMIZE)
    x = [model.binary(f"x{i}") for i in range(len(values))]
    model.add_constraint(
        sum(w * v for w, v in zip(weights, x)) <= capacity, name=constraint_name
    )
    model.set_objective(sum(c * v for c, v in zip(values, x)))
    return model


def wide_knapsack_model(capacity: float) -> MilpModel:
    """A 12-item knapsack family member (rich enough to decompose)."""
    return knapsack_model(
        capacity,
        values=(10, 13, 7, 8, 12, 14, 6, 17, 9, 11, 5, 15),
        weights=(3, 4, 2, 3, 4, 5, 2, 6, 3, 4, 2, 5),
        name="family",
        constraint_name="cap",
    )


def set_cover_model() -> MilpModel:
    """Min-cost cover of 4 elements; optimum cost 5 (sets A and C)."""
    model = MilpModel("cover", ObjectiveSense.MINIMIZE)
    a = model.binary("A")  # covers 1, 2 — cost 2
    b = model.binary("B")  # covers 2, 3 — cost 4
    c = model.binary("C")  # covers 3, 4 — cost 3
    model.add_constraint(a + 0.0 >= 1, "e1")
    model.add_constraint(a + b >= 1, "e2")
    model.add_constraint(b + c >= 1, "e3")
    model.add_constraint(c + 0.0 >= 1, "e4")
    model.set_objective(2 * a + 4 * b + 3 * c)
    return model


def random_binary_model(seed: int) -> MilpModel:
    """A small seeded binary program with a (almost surely) unique optimum.

    Integer constraint coefficients keep feasibility checks exact;
    normal objective coefficients make objective ties measure-zero, so
    value-level comparisons against the serial solver are meaningful.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 14))
    m = int(rng.integers(3, 8))
    sense = ObjectiveSense.MAXIMIZE if rng.random() < 0.5 else ObjectiveSense.MINIMIZE
    model = MilpModel(f"rand-{seed}", sense)
    xs = [model.binary(f"x{i}") for i in range(n)]
    for c in range(m):
        coefs = rng.integers(-4, 5, size=n)
        expr = sum(int(k) * v for k, v in zip(coefs, xs) if k)
        if isinstance(expr, int):
            continue  # all-zero row
        rhs = int(rng.integers(-3, 9))
        if rng.random() < 0.5:
            model.add_constraint(expr <= rhs, name=f"c{c}")
        else:
            model.add_constraint(expr >= rhs, name=f"c{c}")
    obj_coefs = rng.normal(size=n)
    model.set_objective(sum(float(k) * v for k, v in zip(obj_coefs, xs)))
    return model


def plateau_fraction(model: SystemModel, weights: UtilityWeights | None = None) -> float:
    """Where the budget plateau starts, as a share of the total cost.

    The largest per-dimension share of the all-monitors cost that the
    ceiling deployment spends: ``Budget.fraction_of_total`` budgets at or
    above it are answered by the certificate, budgets below it reach the
    solver.  Tests that must exercise the solver pick fractions below it.
    """
    ceiling = ceiling_deployment(model, weights)
    assert ceiling is not None, "no ceiling deployment was certified"
    total = model.total_cost()
    return max(ceiling.cost.get(dim) / total.get(dim) for dim in total.dimensions)


def build_toy_builder() -> ModelBuilder:
    """A three-asset model small enough to verify every metric by hand.

    Topology: ``n1`` (switch) linked to ``h1`` (web host) and ``h2``
    (database).  Coverage relation (monitor -> event: weight):

    * ``mlog@h1`` -> e1: 1.0
    * ``mlog@h2`` -> e3: 0.6
    * ``mnet@n1`` -> e1: 0.5, e2: 0.4   (network scope sees h1, h2)
    * ``mdb@h2``  -> e2: 0.8

    Attacks: ``A`` = (e1, e2) importance 1.0; ``B`` = (e2 weight 2,
    e3 optional) importance 0.5.
    """
    builder = ModelBuilder("toy")
    builder.asset("h1", kind=AssetKind.SERVER)
    builder.asset("h2", kind=AssetKind.DATABASE)
    builder.asset("n1", kind=AssetKind.NETWORK_DEVICE)
    builder.link("n1", "h1")
    builder.link("n1", "h2")

    builder.data_type("dlog", fields=["f1", "f2"])
    builder.data_type("dnet", fields=["f2", "f3"])
    builder.data_type("ddb", fields=["f4"])

    builder.monitor_type(
        "mlog", data_types=["dlog"], cost={"cpu": 2, "storage": 1}, quality=0.9
    )
    builder.monitor_type(
        "mnet",
        data_types=["dnet"],
        cost={"cpu": 4, "network": 2},
        scope=MonitorScope.NETWORK,
        deployable_kinds=[AssetKind.NETWORK_DEVICE],
        quality=0.8,
    )
    builder.monitor_type(
        "mdb",
        data_types=["ddb"],
        cost={"cpu": 3},
        deployable_kinds=[AssetKind.DATABASE],
        quality=1.0,
    )
    builder.monitor("mlog", "h1")
    builder.monitor("mlog", "h2")
    builder.monitor("mnet", "n1")
    builder.monitor("mdb", "h2")

    builder.event("e1", asset="h1")
    builder.event("e2", asset="h2")
    builder.event("e3", asset="h2")
    builder.evidence("dlog", "e1", 1.0)
    builder.evidence("dnet", "e1", 0.5)
    builder.evidence("ddb", "e2", 0.8)
    builder.evidence("dnet", "e2", 0.4)
    builder.evidence("dlog", "e3", 0.6)

    builder.attack("A", steps=["e1", "e2"], importance=1.0)
    from repro.core import AttackStep

    builder.attack(
        "B",
        steps=[AttackStep("e2", weight=2.0), AttackStep("e3", weight=1.0, required=False)],
        importance=0.5,
    )
    return builder


@pytest.fixture()
def toy_model() -> SystemModel:
    """Fresh toy model per test (cheap to build)."""
    return build_toy_builder().build()


@pytest.fixture(scope="session")
def web_model() -> SystemModel:
    """The enterprise Web service case study (immutable, shared)."""
    return enterprise_web_service()
