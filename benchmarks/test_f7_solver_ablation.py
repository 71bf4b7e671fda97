"""F7 — Solver ablation: exact backends and heuristics head-to-head.

The methodology needs *an* exact solver, not a specific one.  This
experiment solves identical case-study and synthetic instances with the
HiGHS backend, the from-scratch branch-and-bound, and the heuristics,
comparing solution quality and wall-clock time.

Expected shape: both exact backends return the same optimal utility
(agreement is asserted); HiGHS is markedly faster on the larger
instance; greedy is near-optimal at a fraction of the cost; random
trails everything.
"""

import time

from repro.analysis.tables import render_table
from repro.casestudy import synthetic_model
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.ceiling import ceiling_deployment
from repro.optimize.greedy import solve_greedy
from repro.optimize.pareto import budget_sweep
from repro.optimize.problem import MaxUtilityProblem
from repro.optimize.random_search import solve_random

from conftest import publish, publish_json

WEIGHTS = UtilityWeights()
BUDGET_FRACTION = 0.25


def instances(web_model):
    return [
        ("case-study", web_model),
        ("synthetic-40m", synthetic_model(assets=12, monitors=40, attacks=30, seed=5)),
    ]


def run_matrix(web_model):
    rows = []
    agreement = []
    for name, model in instances(web_model):
        budget = Budget.fraction_of_total(model, BUDGET_FRACTION)
        methods = {}

        for backend in ("scipy", "branch-and-bound"):
            started = time.perf_counter()
            result = MaxUtilityProblem(model, budget, WEIGHTS).solve(backend)
            elapsed = time.perf_counter() - started
            methods[backend] = result
            rows.append([name, f"ilp/{backend}", result.utility, result.optimal, elapsed])

        started = time.perf_counter()
        greedy = solve_greedy(model, budget, WEIGHTS)
        rows.append([name, "greedy", greedy.utility, False, time.perf_counter() - started])

        started = time.perf_counter()
        random_best = solve_random(model, budget, WEIGHTS, samples=30, seed=1)
        rows.append([name, "random", random_best.utility, False, time.perf_counter() - started])

        agreement.append(
            abs(methods["scipy"].utility - methods["branch-and-bound"].utility)
        )
        assert greedy.utility <= methods["scipy"].utility + 1e-9
        assert random_best.utility <= methods["scipy"].utility + 1e-9
    return rows, agreement


def test_f7_solver_ablation(benchmark, web_model, results_dir):
    rows, agreement = benchmark.pedantic(
        run_matrix, args=(web_model,), rounds=1, iterations=1
    )
    table = render_table(
        ["instance", "method", "utility", "proven optimal", "seconds"],
        rows,
        precision=4,
        title=f"F7 — Solver comparison at budget fraction {BUDGET_FRACTION}",
    )
    publish(results_dir, "f7_solver_ablation", table)
    assert all(gap < 1e-6 for gap in agreement), "exact backends disagree"


# F3-scale sweep for the presolve+session ablation (assets/monitors/
# attacks/seed match benchmarks/test_f3_scaling_monitors.py at its
# largest point).  The fractions sample the post-knee region where the
# per-point formulation cost — the part sessions amortize — is the
# largest share of wall time, but stay below the start of the utility
# plateau: budgets on the plateau are answered by the utility-ceiling
# certificate (repro.optimize.ceiling) without formulating or solving,
# so they would compare no session at all.  Very tight budgets
# degenerate into multi-second HiGHS solves that are identical under
# both configurations and only dilute the comparison.
SWEEP_POINTS = 20


def sweep_fractions(model):
    """``SWEEP_POINTS`` fractions from 75% to 98% of the plateau's start."""
    ceiling = ceiling_deployment(model)
    total = model.total_cost()
    start = max(ceiling.cost.get(dim) / total.get(dim) for dim in total.dimensions)
    return [
        round(start * (0.75 + 0.23 * i / (SWEEP_POINTS - 1)), 4)
        for i in range(SWEEP_POINTS)
    ]


def run_sweep_pair(model, fractions):
    started = time.perf_counter()
    cold = budget_sweep(model, fractions, workers=1)
    cold_seconds = time.perf_counter() - started
    started = time.perf_counter()
    warm = budget_sweep(model, fractions, workers=1, presolve=True)
    warm_seconds = time.perf_counter() - started
    return cold, cold_seconds, warm, warm_seconds


def test_f7_presolve_session_sweep(benchmark, results_dir):
    """Warm sessions beat cold solves ≥2x on an F3-scale sweep, bit-identically.

    ``presolve=True`` on a serial sweep upgrades to a
    :class:`~repro.solver.session.SolveSession` plus a shared
    :class:`~repro.optimize.family.ProblemFamily` core.  Both are exact
    accelerations, so every point's objective and chosen deployment
    must equal the cold solve's *bit for bit* — asserted below — while
    the sweep as a whole runs at least twice as fast.
    """
    model = synthetic_model(assets=80, monitors=400, attacks=100, seed=7)
    fractions = sweep_fractions(model)
    cold, cold_seconds, warm, warm_seconds = benchmark.pedantic(
        run_sweep_pair, args=(model, fractions), rounds=1, iterations=1
    )

    for c, w in zip(cold, warm):
        assert c.result.method == w.result.method == "ilp/scipy-milp", (
            f"fraction {c.fraction} was not solved: {c.result.method}, {w.result.method}"
        )
        assert w.result.deployment.monitor_ids == c.result.deployment.monitor_ids, (
            f"warm sweep chose a different deployment at fraction {c.fraction}"
        )
        assert w.result.objective == c.result.objective, (
            f"warm objective drifted at fraction {c.fraction}: "
            f"{w.result.objective!r} != {c.result.objective!r}"
        )

    speedup = cold_seconds / warm_seconds
    rows = [
        ["cold (per-point build + solve)", cold_seconds, 1.0],
        ["warm (session + shared family core)", warm_seconds, speedup],
    ]
    table = render_table(
        ["configuration", "sweep seconds", "speedup"],
        rows,
        precision=4,
        title=f"F7b — Presolve+session sweep, {len(fractions)} budgets, 400 monitors",
    )
    publish(results_dir, "f7_presolve_session_sweep", table)
    publish_json(
        results_dir,
        "f7_presolve_session_sweep",
        {
            "fractions": fractions,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
            "cold_point_seconds": [p.result.solve_seconds for p in cold],
            "warm_point_seconds": [p.result.solve_seconds for p in warm],
        },
    )
    assert speedup >= 2.0, (
        f"warm sweep only {speedup:.2f}x faster ({warm_seconds:.2f}s vs {cold_seconds:.2f}s)"
    )


def test_f7_session_node_guard(benchmark, results_dir):
    """Warm branch-and-bound explores no more nodes than cold solves.

    A *descending* sweep makes every point a tightening of the last, so
    the session hands branch-and-bound the previous proven optimum as a
    dual bound; with the seeded incumbent this can only prune.  The
    warm incumbent's objective is summed in a different order than the
    cold LP dot product, so objectives here match to tolerance rather
    than bit-for-bit (the scipy sweep above asserts strict equality).
    """
    model = synthetic_model(assets=12, monitors=40, attacks=30, seed=5)
    fractions = [0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2]

    def run_pair():
        cold = budget_sweep(model, fractions, workers=1, backend="branch-and-bound")
        warm = budget_sweep(
            model, fractions, workers=1, backend="branch-and-bound", presolve=True
        )
        return cold, warm

    cold, warm = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    cold_nodes = sum(p.result.stats["nodes"] for p in cold)
    warm_nodes = sum(p.result.stats["nodes"] for p in warm)
    for c, w in zip(cold, warm):
        assert w.result.deployment.monitor_ids == c.result.deployment.monitor_ids
        assert abs(w.result.objective - c.result.objective) <= 1e-9
    publish_json(
        results_dir,
        "f7_session_node_guard",
        {
            "fractions": fractions,
            "cold_nodes": [p.result.stats["nodes"] for p in cold],
            "warm_nodes": [p.result.stats["nodes"] for p in warm],
            "cold_total": cold_nodes,
            "warm_total": warm_nodes,
        },
    )
    assert warm_nodes <= cold_nodes, (
        f"warm branch-and-bound explored more nodes ({warm_nodes} > {cold_nodes})"
    )
