"""Sparse-vs-dense differential suite for the end-to-end solver core.

The non-negotiable contract of the sparse compile path: **bit-identical
objectives and deployments** against the dense path it replaced.  Over
50 seeded models this suite pins

* compile bit-identity — the CSR standard form densifies to exactly the
  matrix ``compile(dense=True)`` builds, cell for cell, and every
  vector field matches;
* LP relaxation identity — HiGHS returns the *same bits* (objective and
  solution vector) whether it is handed the CSR or the dense matrices;
* presolve lift-back exactness with the dominance rule forced onto the
  sparse bitset engine, plus dense-engine/sparse-engine agreement on
  which columns they fix;
* parallel branch & bound worker-count invariance (1/2/4) on a sparse
  catalog model, bit-identical to the serial solver;
* the dense guard rails: ``compile(dense=True)`` refuses matrices past
  :data:`~repro.solver.model.MAX_DENSE_CELLS` while the default sparse
  compile shrugs.

The multizone catalog test is the reduction this PR exists for: a
zone-structured monitor catalog full of near-duplicate placements must
collapse under the dominated-monitor rule before the solver branches.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
import scipy.sparse as sp

import repro.solver.model as model_mod

# ``repro.solver.__init__`` rebinds the attribute ``presolve`` to the
# function of the same name, so attribute-style module import would hand
# back the function; go through importlib for the module itself.
presolve_mod = importlib.import_module("repro.solver.presolve")
from repro.casestudy.scaling import synthetic_model
from repro.errors import SolverError
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.problem import MaxUtilityProblem
from repro.solver import (
    MilpModel,
    ObjectiveSense,
    PresolveStatus,
    SolutionStatus,
    presolve,
    solve,
    solve_presolved,
)
from repro.solver.branch_and_bound import solve_branch_and_bound
from repro.solver.lp import solve_lp
from repro.solver.model import MAX_DENSE_CELLS
from repro.solver.parallel_bb import solve_parallel_branch_and_bound
from repro.solver.sparse import (
    canonical_csr,
    csr_take_rows,
    dense_equivalent_nbytes,
    matrices_equal,
    matrix_nbytes,
    to_dense,
)
from tests.solver.test_presolve import random_program

SEEDS = range(50)


def force_sparse_dominance(monkeypatch):
    """Route every dominance round through the sparse bitset engine."""
    monkeypatch.setattr(presolve_mod, "DOMINANCE_WORK_LIMIT", 0)


# -- compile bit-identity --------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_and_dense_compiles_are_bit_identical(seed):
    model = random_program(seed)
    sparse_form = model.compile()
    dense_form = model.compile(dense=True)

    assert sp.issparse(sparse_form.A_ub) and sp.issparse(sparse_form.A_eq)
    assert sparse_form.is_sparse and not dense_form.is_sparse
    assert np.array_equal(to_dense(sparse_form.A_ub), dense_form.A_ub)
    assert np.array_equal(to_dense(sparse_form.A_eq), dense_form.A_eq)
    for field in ("c", "b_ub", "b_eq", "lower", "upper", "integrality"):
        assert np.array_equal(
            getattr(sparse_form, field), getattr(dense_form, field)
        ), field
    assert sparse_form.objective_constant == dense_form.objective_constant
    assert sparse_form.maximize == dense_form.maximize
    # Both flavors report the same dense-equivalent footprint (the
    # CSR payload itself can exceed it on toy matrices — indptr
    # overhead — which is fine; the win is asymptotic, not universal).
    assert dense_form.dense_matrix_nbytes == sparse_form.dense_matrix_nbytes


@pytest.mark.parametrize("seed", SEEDS)
def test_lp_relaxation_is_bit_identical_across_flavors(seed):
    model = random_program(seed)
    s = model.compile()
    d = model.compile(dense=True)
    from_sparse = solve_lp(s.c, s.A_ub, s.b_ub, s.A_eq, s.b_eq, s.lower, s.upper)
    from_dense = solve_lp(d.c, d.A_ub, d.b_ub, d.A_eq, d.b_eq, d.lower, d.upper)
    assert from_sparse.status == from_dense.status
    if from_sparse.is_optimal:
        # Same matrix bits in, same HiGHS run out — exact, not approx.
        assert from_sparse.objective == from_dense.objective
        assert np.array_equal(from_sparse.x, from_dense.x)


# -- presolve under the sparse dominance engine ----------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_liftback_is_exact_under_the_sparse_dominance_engine(seed, monkeypatch):
    force_sparse_dominance(monkeypatch)
    model = random_program(seed)
    cold = solve(model, "enumeration")
    if cold.status is SolutionStatus.INFEASIBLE:
        warm = solve_presolved(model)
        assert warm.status is SolutionStatus.INFEASIBLE
        return
    warm = solve_presolved(model)
    assert warm.status is SolutionStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
    assert model.is_feasible(warm.values, tolerance=1e-6)
    assert set(warm.values) == {v.name for v in model.variables}


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_and_sparse_dominance_engines_fix_identical_columns(seed, monkeypatch):
    model = random_program(seed)
    via_dense = presolve(model)

    force_sparse_dominance(monkeypatch)
    via_sparse = presolve(model)

    assert via_dense.status == via_sparse.status
    assert via_dense.stats.dominated_columns == via_sparse.stats.dominated_columns
    assert via_dense.stats.columns_after == via_sparse.stats.columns_after
    assert via_dense.stats.rows_after == via_sparse.stats.rows_after
    if via_dense.status is PresolveStatus.REDUCED:
        reduced_dense = via_dense.reduced.compile()
        reduced_sparse = via_sparse.reduced.compile()
        assert matrices_equal(reduced_dense.A_ub, reduced_sparse.A_ub)
        assert matrices_equal(reduced_dense.A_eq, reduced_sparse.A_eq)
        assert np.array_equal(reduced_dense.c, reduced_sparse.c)
        assert np.array_equal(reduced_dense.b_ub, reduced_sparse.b_ub)


def test_sparse_engine_prunes_a_handbuilt_dominated_column(monkeypatch):
    # x1 covers everything x2 does (rows) at lower cost: the sparse
    # engine must fix x2 to 0 and record a sparse round.
    force_sparse_dominance(monkeypatch)
    model = MilpModel("dominated", ObjectiveSense.MINIMIZE)
    x1 = model.binary("x1")
    x2 = model.binary("x2")
    x3 = model.binary("x3")
    model.add_constraint(-2.0 * x1 - 1.0 * x2 - 1.0 * x3 <= -2.0, name="cover")
    model.set_objective(1.0 * x1 + 3.0 * x2 + 2.0 * x3)
    result = presolve(model)
    assert result.stats.dominated_columns >= 1
    assert result.stats.sparse_dominance_rounds >= 1
    warm = solve_presolved(model)
    cold = solve(model, "enumeration")
    assert warm.objective == pytest.approx(cold.objective)
    assert warm.values["x2"] == 0.0


def test_multizone_catalog_collapses_under_dominated_monitor_rule():
    # The reduction that makes thousands-of-monitor catalogs tractable:
    # zone-correlated costs mean many placements are covered by a
    # no-more-expensive rival, and presolve proves them droppable.
    catalog = synthetic_model(
        assets=40,
        monitor_types=10,
        monitors=150,
        attacks=30,
        seed=7,
        topology="multizone",
        zones=4,
    )
    problem = MaxUtilityProblem(
        catalog, Budget.fraction_of_total(catalog, 0.35), UtilityWeights()
    )
    milp, _ = problem.build()
    result = presolve(milp)
    assert result.status is PresolveStatus.REDUCED
    assert result.stats.dominated_columns > 0
    assert result.stats.columns_after < result.stats.columns_before
    # And the reduction is exact: lifted solve equals the cold solve.
    cold = solve(milp, "scipy")
    warm = solve_presolved(milp, backend="scipy")
    assert warm.status is cold.status is SolutionStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-6)


# -- parallel branch & bound on a sparse catalog model ---------------------


def test_parallel_bb_worker_identity_on_a_sparse_catalog_model():
    catalog = synthetic_model(
        assets=20,
        monitor_types=6,
        monitors=40,
        attacks=12,
        seed=3,
        topology="multizone",
        zones=3,
    )
    problem = MaxUtilityProblem(
        catalog, Budget.fraction_of_total(catalog, 0.3), UtilityWeights()
    )
    milp, _ = problem.build()
    assert milp.compile().is_sparse

    serial = solve_branch_and_bound(milp)
    answers = [
        solve_parallel_branch_and_bound(milp, workers=workers)
        for workers in (1, 2, 4)
    ]
    for parallel in answers:
        assert parallel.status is serial.status
        assert parallel.objective == serial.objective
        assert parallel.values == serial.values
    # Node accounting is worker-count invariant (the frontier split is
    # deterministic and the merge commutative).
    nodes = {answer.nodes_explored for answer in answers}
    assert len(nodes) == 1


# -- dense guard rails -----------------------------------------------------


def test_dense_compile_refuses_past_the_cell_limit(monkeypatch):
    monkeypatch.setattr(model_mod, "MAX_DENSE_CELLS", 100)
    model = MilpModel("too-big", ObjectiveSense.MINIMIZE)
    xs = [model.binary(f"x{i}") for i in range(20)]
    for r in range(10):
        model.add_constraint(sum(xs[r : r + 3]) <= 2.0, name=f"c{r}")
    model.set_objective(sum(xs))
    with pytest.raises(SolverError, match="sparse compile"):
        model.compile(dense=True)
    form = model.compile()  # the default sparse path is untouched
    assert form.is_sparse


def test_real_cell_limit_matches_catalog_scale_expectations():
    # The F14 geometry: the 2000-monitor / 500-attack catalog (6926 x
    # 8408 standard form) lands past the limit — dense refuses there —
    # while the 2000-monitor / 300-attack race instance (4166 x 5853)
    # squeaks under it as the largest dense-completable size the
    # speedup is measured at.
    assert 6_926 * 8_408 > MAX_DENSE_CELLS  # 2000m/500a: dense refuses
    assert 4_166 * 5_853 < MAX_DENSE_CELLS  # 2000m/300a: dense completes


# -- csr_take_rows canonical-form unit pins --------------------------------


def _three_row_csr():
    # Rows [1.5, 0, 0, -2, 0], a genuine zero row, and [0, 4, 0, 0, 0].
    return canonical_csr(
        np.array([1.5, -2.0, 4.0]),
        np.array([0, 3, 1], dtype=np.int32),
        np.array([0, 2, 2, 3], dtype=np.int32),
        5,
    )


def test_csr_take_rows_builds_canonical_int32_csr():
    source = _three_row_csr()
    matrix = csr_take_rows(source, np.array([2, 1, 0]))
    assert matrix.shape == (3, 5)
    assert matrix.indices.dtype == np.int32
    assert matrix.indptr.dtype == np.int32
    assert matrix.has_sorted_indices and matrix.has_canonical_format
    expected = np.zeros((3, 5))
    expected[2, 0], expected[2, 3], expected[0, 1] = 1.5, -2.0, 4.0
    assert np.array_equal(to_dense(matrix), expected)
    assert matrix_nbytes(matrix) == (
        matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    )
    assert dense_equivalent_nbytes(matrix) == 3 * 5 * 8
    # A copy: writing through the result leaves the source intact.
    matrix.data[:] = 0.0
    assert np.array_equal(source.data, [1.5, -2.0, 4.0])


def test_csr_take_rows_handles_the_empty_block():
    matrix = csr_take_rows(_three_row_csr(), np.array([], dtype=np.intp))
    assert matrix.shape == (0, 5)
    assert matrix.nnz == 0
    assert matrix.indptr.dtype == np.int32
    assert matrices_equal(matrix, sp.csr_matrix((0, 5)))
