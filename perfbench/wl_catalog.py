"""Workload ``catalog``: cold one-shot max-utility solves to a proven optimum.

A cycle solves a fixed ladder of model sizes once: the flat
100-monitor/400-attack model (formulation is about half its wall time),
a 1000-monitor/250-attack multizone catalog, and the F14 headline
2000-monitor/500-attack catalog (HiGHS dominates).  Every solve is
cold -- a fresh problem, formulation and compile -- so a change to
formulation, compile or HiGHS shows here.  No time limit is set: the
metric is time to a *proven* optimum.

The instances are fixed, not drawn from the workload seed: HiGHS time
differs between seeded models of one size by up to 3x, which would
swamp any change the benchmark must detect.

The timed path is what ``MaxUtilityProblem.solve("scipy")`` does, called
layer by layer so each layer is timed from outside: ``build()``, then
``solve_scipy_milp`` (which compiles), then ``metrics.utility`` of the
selected monitors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from harness import (
    BENCH_DIR,
    LAYER_OF,
    Run,
    clock,
    counters,
    durations,
    fill_layers,
    form_counts,
    layer_table,
    median,
    peak_rss_mb,
    self_times,
    write_spans,
)

from repro import obs
from repro.casestudy.scaling import ScalingConfig, synthetic_model
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize.problem import MaxUtilityProblem
from repro.solver.model import SolutionStatus
from repro.solver.scipy_backend import solve_scipy_milp

WEIGHTS = UtilityWeights()
SETUPS = 5
_MULTIZONE = dict(assets=300, monitor_types=20, topology="multizone", zones=8)


@dataclass(frozen=True)
class Rung:
    name: str
    config: ScalingConfig
    fraction: float


#: The ladder; the last rung is the F14 headline instance (its seed 5).
LADDER = (
    Rung("flat-100m-400a", ScalingConfig(monitors=100, attacks=400, seed=0), 0.30),
    Rung(
        "multizone-1000m-250a",
        ScalingConfig(monitors=1000, attacks=250, seed=5, **_MULTIZONE),
        0.35,
    ),
    Rung(
        "multizone-2000m-500a",
        ScalingConfig(monitors=2000, attacks=500, seed=5, **_MULTIZONE),
        0.35,
    ),
)
TOY_LADDER = (
    Rung("flat-20m-30a", ScalingConfig(monitors=20, attacks=30, seed=0), 0.30),
    Rung(
        "multizone-40m-20a",
        ScalingConfig(
            assets=20, monitor_types=6, topology="multizone", zones=3, monitors=40, attacks=20
        ),
        0.35,
    ),
)

def _setup(ladder: tuple[Rung, ...]) -> list:
    instances = []
    for rung in ladder:
        with obs.span("casestudy.generate", model=rung.name):
            model = synthetic_model(rung.config)
        instances.append((rung, model, Budget.fraction_of_total(model, rung.fraction)))
    return instances


def _solve(model, budget):
    """One cold solve, timed per layer; returns the answer and times."""
    problem = MaxUtilityProblem(model, budget, WEIGHTS)
    t0 = clock()
    with obs.span("bench.formulate"):
        milp, builder = problem.build()
    t1 = clock()
    with obs.span("bench.highs"):
        solution = solve_scipy_milp(milp)
    t2 = clock()
    with obs.span("bench.utility"):
        selected = builder.selected_ids(solution.values)
        value = utility(model, selected, WEIGHTS)
    t3 = clock()
    return (milp, solution, selected, value), (t1 - t0, t2 - t1, t3 - t2)


def _measure(run: Run, instances: list, cycles: int | None = None) -> tuple[list, float]:
    """Whole cycles over ``instances``: as many as fit in ``run.seconds``
    (at least one), or exactly ``cycles``."""
    results = []
    start = clock()
    done = 0
    while True:
        for rung, model, budget in instances:
            answer, times = _solve(model, budget)
            results.append((rung, model, budget, answer, times))
        done += 1
        elapsed = clock() - start
        if cycles is not None:
            if done >= cycles:
                return results, elapsed
        elif elapsed + elapsed / done > run.seconds:
            return results, elapsed


def _pins() -> dict:
    return json.loads((BENCH_DIR / "pinned.json").read_text())["catalog"]


def _check(run: Run, results: list) -> dict[str, float]:
    pins = {} if run.toy else _pins()
    objectives: dict[str, float] = {}
    for rung, model, budget, (milp, solution, selected, value), _ in results:
        key = rung.name
        run.attempted += 1
        if solution.status is not SolutionStatus.OPTIMAL:
            run.check(False, f"{key}: status {solution.status.value}, not optimal")
            continue
        objective = run.corrupt(solution.objective)
        objectives[key] = objective
        run.check(milp.is_feasible(solution.values), f"{key}: solution infeasible")
        run.check(budget.allows(model.deployment_cost(selected)), f"{key}: over budget")
        run.check(
            abs(value - objective) <= 1e-9,
            f"{key}: utility {value!r} != objective {objective!r}",
        )
        if key in pins:
            run.check(
                abs(objective - pins[key]) <= 1e-9,
                f"{key}: objective {objective!r} != pinned {pins[key]!r}",
            )
    return objectives


def run(run: Run) -> None:
    ladder = TOY_LADDER if run.toy else LADDER
    samples = []
    for _ in range(SETUPS):
        start = clock()
        instances = _setup(ladder)
        samples.append(clock() - start)
    results, wall = _measure(run, instances)
    run.facts["catalog.objectives"] = _check(run, results)
    cycles = len(results) // len(instances)

    per_rung: dict[str, float] = {}
    for rung, _, _, _, times in results:
        per_rung[rung.name] = per_rung.get(rung.name, 0.0) + sum(times) / cycles
    setup = run.metric("setup_s", median(samples), "s", len(samples))
    solve = run.metric("catalog.solve_s", wall / cycles, "s", cycles)
    for name, seconds in per_rung.items():
        run.metric(f"catalog.{name}_s", seconds, "s", cycles)
    rate = run.metric("catalog.solves_per_s", len(results) / wall, "1/s", len(results))
    for i, layer in enumerate(("formulate", "highs", "utility")):
        run.metric(f"catalog.{layer}_s", sum(r[4][i] for r in results) / cycles, "s", cycles)
    rss = run.metric("peak_rss_mb", peak_rss_mb(), "MB", 1)

    run.gated("setup_s", setup)
    run.gated("peak_rss_mb", rss)
    run.gated("latency_s", solve)
    run.gated("rate_per_s", rate)

    if run.trace:
        _traced(run, ladder, cycles, wall)


def _traced(run: Run, ladder: tuple[Rung, ...], cycles: int, untraced_wall: float) -> None:
    with obs.capture() as cap:
        with obs.span("bench.setup") as setup_root:
            instances = _setup(ladder)
        with obs.span("bench.catalog") as root:
            results, _ = _measure(run, instances, cycles)
    _check(run, results)
    run.layer_table = layer_table(root, LAYER_OF)
    run.metric("trace.wall_s", root.duration, "s", 1)
    own = self_times(root)
    largest = max(results, key=lambda r: r[3][0].num_variables)
    values = {
        "casestudy.generate_s": sum(durations([setup_root], "casestudy.generate")),
        "optimize.formulate_s": own.get("bench.formulate", 0.0),
        "solver.compile_s": own.get("solver.compile", 0.0),
        "solver.highs_s": own.get("solver.scipy_milp", 0.0),
        "metrics.utility_s": own.get("bench.utility", 0.0),
        "trace.uncovered_s": run.layer_table["uncovered"],
        "trace.overhead_share": root.duration / untraced_wall - 1.0,
        **form_counts(largest[3][0].compile()),
        **counters(cap),
    }
    fill_layers(run, values)
    write_spans(run, cap)
