"""Differential suite for the prefix-reusing compile row memo.

A live model is driven through seeded sequences of truncations,
appended ``<=``/``>=``/``==`` rows, new variables and objective changes,
recompiling after every step (sparse, and dense when small).  Each
compile must equal the cold compile of a fresh model built from the
same recipe, array for array and dtype for dtype, down to the bytes.
Every returned form is then scribbled over, so a memo that aliased a
returned array would corrupt the next compile and fail the comparison.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
import scipy.sparse as sp

from repro.solver import MilpModel, ObjectiveSense
from repro.solver.expressions import LinearExpression

VECTOR_FIELDS = ("c", "b_ub", "b_eq", "lower", "upper", "integrality")
MATRIX_FIELDS = ("A_ub", "A_eq")


class Recipe:
    """What a model is made of, replayable onto a fresh model."""

    def __init__(self, sense: ObjectiveSense):
        self.sense = sense
        self.variables: list[tuple[str, float, float]] = []  # kind, lower, upper
        self.rows: list[tuple[list[tuple[int, float]], str, float]] = []
        self.objective: list[tuple[int, float]] = []
        self.constant = 0.0

    def build(self) -> MilpModel:
        model = MilpModel("fresh", self.sense)
        self.replay(model, variables=self.variables, rows=self.rows)
        return model

    def replay(self, model, *, variables=(), rows=(), objective=True) -> None:
        for kind, lower, upper in variables:
            name = f"v{model.num_variables}"
            if kind == "binary":
                model.binary(name)
            elif kind == "integer":
                model.integer(name, lower, upper)
            else:
                model.continuous(name, lower, upper)
        columns = model.variables
        for terms, sense, rhs in rows:
            expr = LinearExpression.sum_of((columns[i], coef) for i, coef in terms)
            if sense == "<=":
                model.add_constraint(expr <= rhs)
            elif sense == ">=":
                model.add_constraint(expr >= rhs)
            else:
                model.add_constraint(expr == rhs)
        if objective:
            model.set_objective(
                LinearExpression.sum_of(
                    ((columns[i], coef) for i, coef in self.objective), self.constant
                )
            )


def random_variable(rng: random.Random) -> tuple[str, float, float]:
    kind = rng.choice(("binary", "integer", "continuous"))
    if kind == "binary":
        return kind, 0.0, 1.0
    return kind, float(rng.randint(-2, 0)), rng.choice((1.0, 2.5, float("inf")))


def random_row(rng: random.Random, num_variables: int):
    width = rng.randint(0, min(6, num_variables))
    columns = rng.sample(range(num_variables), width)
    terms = [(i, rng.choice((1.0, -1.0, 0.5, rng.uniform(-3, 3)))) for i in columns]
    sense = rng.choice(("<=", "<=", ">=", "=="))
    rhs = rng.choice((0.0, 1.0, -1.5, rng.uniform(-5, 5)))
    return terms, sense, rhs


def assert_bytes_identical(got, want) -> None:
    for name in VECTOR_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    for name in MATRIX_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert sp.issparse(a) == sp.issparse(b), name
        assert a.shape == b.shape, name
        if sp.issparse(a):
            for part in ("indptr", "indices", "data"):
                x, y = getattr(a, part), getattr(b, part)
                assert x.dtype == y.dtype, (name, part)
                assert x.tobytes() == y.tobytes(), (name, part)
        else:
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
    assert got.objective_constant == want.objective_constant
    assert got.maximize == want.maximize


def scribble(form) -> None:
    """Overwrite every array of a returned form in place."""
    for name in VECTOR_FIELDS:
        array = getattr(form, name)
        array[...] = True if array.dtype == bool else 7.0
    for name in MATRIX_FIELDS:
        matrix = getattr(form, name)
        if sp.issparse(matrix):
            matrix.data[...] = 7.0
            matrix.indices[...] = 0
            matrix.indptr[...] = 0
        else:
            matrix[...] = 7.0


@pytest.mark.parametrize("seed", range(25))
def test_recompiles_match_a_fresh_cold_compile(seed):
    rng = random.Random(seed)
    recipe = Recipe(rng.choice((ObjectiveSense.MAXIMIZE, ObjectiveSense.MINIMIZE)))
    live = MilpModel("live", recipe.sense)
    first = [random_variable(rng) for _ in range(rng.randint(1, 6))]
    recipe.variables += first
    recipe.objective = [(i, rng.uniform(-2, 2)) for i in range(len(first))]
    recipe.replay(live, variables=first)

    for _step in range(30):
        op = rng.choice(("append", "append", "truncate", "variable", "objective"))
        if op == "append":
            rows = [random_row(rng, len(recipe.variables)) for _ in range(rng.randint(1, 4))]
            recipe.rows += rows
            recipe.replay(live, rows=rows, objective=False)
        elif op == "truncate":
            keep = rng.randint(0, len(recipe.rows))
            del recipe.rows[keep:]
            live.truncate_constraints(keep)
        elif op == "variable":
            added = [random_variable(rng)]
            recipe.variables += added
            recipe.replay(live, variables=added, objective=False)
        else:
            recipe.objective = [
                (i, rng.uniform(-2, 2))
                for i in rng.sample(
                    range(len(recipe.variables)), rng.randint(0, min(3, len(recipe.variables)))
                )
            ]
            recipe.constant = rng.choice((0.0, 1.25))
            recipe.replay(live, objective=True)

        dense = rng.random() < 0.3
        got = live.compile(dense=dense)
        assert_bytes_identical(got, recipe.build().compile(dense=dense))
        scribble(got)


def test_unchanged_recompile_returns_fresh_arrays():
    model = MilpModel("same", ObjectiveSense.MAXIMIZE)
    x, y = model.binary("x"), model.binary("y")
    model.add_constraint(x + y <= 1)
    model.add_constraint(x - y == 0)
    model.set_objective(x + 2 * y)
    first = model.compile()
    second = model.compile()
    for name in VECTOR_FIELDS:
        assert not np.shares_memory(getattr(first, name), getattr(second, name)), name
    for name in MATRIX_FIELDS:
        assert not np.shares_memory(getattr(first, name).data, getattr(second, name).data)
    memo = model._row_memo
    for name in MATRIX_FIELDS:
        assert not np.shares_memory(getattr(second, name).data, memo.matrix.data)
