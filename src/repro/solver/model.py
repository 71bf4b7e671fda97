"""The MILP model container and its standard-form compilation.

:class:`MilpModel` owns variables and constraints, and compiles itself
into the standard form consumed by every backend::

    optimize   c @ x
    subject to A_ub @ x <= b_ub
               A_eq @ x == b_eq
               lower <= x <= upper,   x[i] integral where marked

Maximization is normalized to minimization by negating ``c`` at compile
time; backends always minimize and :class:`Solution` objects report the
objective in the model's original sense.

Compilation is **sparse by default**: the constraint matrices come back
as canonical scipy CSR, cut in ``O(nnz + rows)`` from a row memo that
keeps the sign-normalized rows of the last compile.  The deployment
formulations are well under 1% dense at catalog scale, where the
historical dense ``np.zeros(n)``-per-row path cost ``O(rows x vars)``
time and memory per compile — seconds and hundreds of megabytes at
1000+ monitors.
The dense path is retained behind ``compile(dense=True)`` for
differential testing and small-model consumers; both paths read the
same row memo, so their numeric content is bit-identical (the sparse
differential suite in ``tests/solver/test_sparse_compile.py`` pins
this).  Dense compilation refuses matrices beyond
:data:`MAX_DENSE_CELLS` cells — at that size the dense form is a
mistake, not a preference.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as _sp

from repro import obs
from repro.errors import SolverError
from repro.solver.expressions import (
    Constraint,
    ConstraintSense,
    LinearExpression,
    Variable,
    VarKind,
)
from repro.solver.sparse import (
    canonical_csr,
    csr_take_rows,
    dense_equivalent_nbytes,
    matrix_nbytes,
    to_dense,
)

__all__ = [
    "ObjectiveSense",
    "MilpModel",
    "StandardForm",
    "SolutionStatus",
    "Solution",
    "MAX_DENSE_CELLS",
]

#: Hard ceiling on ``rows x vars`` for ``compile(dense=True)``.  A
#: 25M-cell float64 matrix is 200 MB before the ``np.array`` stack copy
#: and presolve's sign-split copies multiply it; above this the dense
#: path refuses with a pointer at the sparse default instead of
#: thrashing the allocator.  (At catalog scale — 2000 monitors / 500
#: attacks — the standard form is ~29.5M cells, past this limit, while
#: its CSR payload stays under a megabyte.)
MAX_DENSE_CELLS = 25_000_000


class ObjectiveSense(str, enum.Enum):
    """Whether the model maximizes or minimizes its objective."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True, slots=True)
class StandardForm:
    """Numeric form of a model (minimization convention).

    ``A_ub``/``A_eq`` are canonical CSR under the default sparse
    compile and plain ``float64`` ndarrays under ``compile(dense=True)``;
    every other field is always dense.  Emptiness of a constraint block
    must be tested via ``b_ub.size``/``b_eq.size`` (or the row count of
    the shape) — for a sparse matrix ``.size`` is the *nonzero* count,
    so a genuine all-zero row would vanish from a ``A_ub.size`` test.
    """

    c: np.ndarray
    A_ub: np.ndarray | _sp.csr_matrix
    b_ub: np.ndarray
    A_eq: np.ndarray | _sp.csr_matrix
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray  # bool mask
    objective_constant: float
    maximize: bool

    @property
    def num_variables(self) -> int:
        return self.c.shape[0]

    @property
    def is_sparse(self) -> bool:
        """Whether the constraint matrices are scipy CSR."""
        return _sp.issparse(self.A_ub) or _sp.issparse(self.A_eq)

    @property
    def matrix_nbytes(self) -> int:
        """Actual payload bytes of ``A_ub`` + ``A_eq`` as stored."""
        return matrix_nbytes(self.A_ub) + matrix_nbytes(self.A_eq)

    @property
    def dense_matrix_nbytes(self) -> int:
        """Bytes the constraint matrices would occupy densely."""
        return dense_equivalent_nbytes(self.A_ub) + dense_equivalent_nbytes(self.A_eq)

    def to_dense(self) -> StandardForm:
        """This form with the constraint matrices densified (no-op if dense)."""
        if not self.is_sparse:
            return self
        return replace(self, A_ub=to_dense(self.A_ub), A_eq=to_dense(self.A_eq))

    def objective_in_model_sense(self, minimized_value: float) -> float:
        """Convert a backend's minimized objective to the model's sense."""
        value = minimized_value + (-self.objective_constant if self.maximize else self.objective_constant)
        return -value if self.maximize else value

    def minimized_from_model_sense(self, model_value: float) -> float:
        """Inverse of :meth:`objective_in_model_sense`.

        Converts an objective reported in the model's sense (e.g. a
        previous solve's optimum reused as a dual bound) back to the
        minimization convention the backends search in.
        """
        value = -model_value if self.maximize else model_value
        return value - (-self.objective_constant if self.maximize else self.objective_constant)


class SolutionStatus(str, enum.Enum):
    """Terminal status of a solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FEASIBLE = "feasible"  # incumbent found but optimality not proven


@dataclass(frozen=True, slots=True)
class Solution:
    """A solve result: status, objective (model sense), and assignment."""

    status: SolutionStatus
    objective: float
    values: Mapping[str, float]
    backend: str
    nodes_explored: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is SolutionStatus.OPTIMAL

    def value(self, variable: Variable | str) -> float:
        """The solved value of a variable (by object or name)."""
        name = variable.name if isinstance(variable, Variable) else variable
        try:
            return self.values[name]
        except KeyError:
            raise SolverError(f"solution has no variable {name!r}") from None


class _RowMemo(NamedTuple):
    """The sign-normalized rows of a model's last compile.

    Row ``i`` stays valid while ``constraints[i]`` is that same
    (immutable) object.  Rows name columns, not a vector width, so
    they also stay valid after new variables are added.
    """

    constraints: tuple[Constraint, ...]
    matrix: _sp.csr_matrix  # canonical CSR, GE rows negated into LE
    rhs: np.ndarray  # right-hand sides, negated with their GE rows
    eq: np.ndarray  # bool mask of the EQ rows


class MilpModel:
    """A mixed-integer linear program under construction."""

    def __init__(self, name: str = "milp", sense: ObjectiveSense = ObjectiveSense.MAXIMIZE):
        self.name = name
        self.sense = sense
        self._variables: list[Variable] = []
        self._names: set[str] = set()
        self._constraints: list[Constraint] = []
        self._objective: LinearExpression = LinearExpression()
        # Rows of the last compile.  A recompile keeps the longest
        # prefix of constraints that are still the memoized objects and
        # builds only the rows after it, so a formulation family's
        # truncate/append cycle pays for its per-instance rows alone.
        self._row_memo = _RowMemo(
            (),
            canonical_csr(
                np.empty(0), np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int32), 0
            ),
            np.empty(0),
            np.empty(0, dtype=bool),
        )
        # Column vectors of the last compile, keyed by the variable count
        # (variables are append-only) and the objective object.
        self._column_memo: tuple | None = None

    # -- variable factories ------------------------------------------------

    def _new_variable(self, name: str, lower: float, upper: float, kind: VarKind) -> Variable:
        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r} in model {self.name!r}")
        variable = Variable(name, lower, upper, kind, index=len(self._variables))
        self._variables.append(variable)
        self._names.add(name)
        return variable

    def binary(self, name: str) -> Variable:
        """A 0/1 decision variable."""
        return self._new_variable(name, 0.0, 1.0, VarKind.BINARY)

    def integer(self, name: str, lower: float = 0.0, upper: float = float("inf")) -> Variable:
        """An integer variable with the given bounds."""
        return self._new_variable(name, lower, upper, VarKind.INTEGER)

    def continuous(
        self, name: str, lower: float = 0.0, upper: float = float("inf")
    ) -> Variable:
        """A continuous variable with the given bounds."""
        return self._new_variable(name, lower, upper, VarKind.CONTINUOUS)

    # -- constraints and objective -------------------------------------------

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint built from expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise SolverError(
                f"expected a Constraint (use <=, >=, == on expressions), got "
                f"{type(constraint).__name__}"
            )
        for var in constraint.expression.terms:
            self._check_owned(var)
        if name:
            constraint = constraint.named(name)
        self._constraints.append(constraint)
        return constraint

    def truncate_constraints(self, count: int) -> None:
        """Drop every constraint added after the first ``count``.

        This is the rollback primitive behind formulation reuse: a
        family of related instances builds the expensive shared core
        once, records ``num_constraints``, and between instances rolls
        back to that mark before appending the per-instance rows.
        Variables and the objective are untouched — per-instance rows
        must not introduce new variables.
        """
        if not 0 <= count <= len(self._constraints):
            raise SolverError(
                f"cannot truncate to {count} constraints: model {self.name!r} "
                f"has {len(self._constraints)}"
            )
        del self._constraints[count:]

    def set_objective(self, expression: LinearExpression | Variable) -> None:
        """Set the objective function (in the model's sense)."""
        if isinstance(expression, Variable):
            expression = expression + 0.0
        if not isinstance(expression, LinearExpression):
            raise SolverError(
                f"objective must be a linear expression, got {type(expression).__name__}"
            )
        for var in expression.terms:
            self._check_owned(var)
        self._objective = expression

    def _check_owned(self, var: Variable) -> None:
        if var.index >= len(self._variables) or self._variables[var.index] is not var:
            raise SolverError(f"variable {var.name!r} does not belong to model {self.name!r}")

    # -- accessors ----------------------------------------------------------

    @property
    def variables(self) -> list[Variable]:
        """All variables, in creation (column) order."""
        return list(self._variables)

    @property
    def constraints(self) -> list[Constraint]:
        """All constraints, in insertion order."""
        return list(self._constraints)

    @property
    def objective(self) -> LinearExpression:
        """The current objective expression."""
        return self._objective

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def num_integer_variables(self) -> int:
        return sum(1 for v in self._variables if v.is_integral)

    # -- compilation -----------------------------------------------------------

    def compile(self, *, dense: bool = False) -> StandardForm:
        """Compile to standard (minimization) form — CSR by default.

        ``GE`` rows are negated into ``LE`` rows; a maximization
        objective is negated, with the flip recorded so solutions can be
        reported in the model's original sense.

        With ``dense=True`` the constraint matrices are materialized as
        plain ndarrays from the same row memo — numerically identical
        cell for cell, kept for differential testing and small-model
        callers.  The dense path refuses matrices beyond
        :data:`MAX_DENSE_CELLS` cells with a :class:`SolverError`.
        """
        with obs.span("solver.compile", model=self.name, dense=dense):
            return self._compile(dense)

    def _compile(self, dense: bool) -> StandardForm:
        n = len(self._variables)
        if dense and len(self._constraints) * n > MAX_DENSE_CELLS:
            raise SolverError(
                f"refusing dense compile of model {self.name!r}: "
                f"{len(self._constraints)} rows x {n} vars = "
                f"{len(self._constraints) * n} cells exceeds the "
                f"{MAX_DENSE_CELLS}-cell dense limit; use the default "
                f"sparse compile"
            )
        memo = self._updated_row_memo(n)
        c, lower, upper, integrality = self._column_vectors(n)
        # Every returned array is a fresh copy: callers may mutate a
        # form, and the memo must survive that.
        ub = np.flatnonzero(~memo.eq)
        eq = np.flatnonzero(memo.eq)
        A_ub = csr_take_rows(memo.matrix, ub)
        A_eq = csr_take_rows(memo.matrix, eq)
        if dense:
            A_ub, A_eq = A_ub.toarray(), A_eq.toarray()
        maximize = self.sense is ObjectiveSense.MAXIMIZE
        form = StandardForm(
            c=-c if maximize else c.copy(),
            A_ub=A_ub,
            b_ub=memo.rhs[ub],
            A_eq=A_eq,
            b_eq=memo.rhs[eq],
            lower=lower.copy(),
            upper=upper.copy(),
            integrality=integrality.copy(),
            objective_constant=self._objective.constant,
            maximize=maximize,
        )
        obs.gauge("solver.matrix.nbytes").set(float(form.matrix_nbytes))
        obs.gauge("solver.matrix.dense_nbytes").set(float(form.dense_matrix_nbytes))
        return form

    def _updated_row_memo(self, n: int) -> _RowMemo:
        """The row memo brought up to the current constraints.

        Keeps the longest prefix whose constraints are still the
        memoized objects as one slice, builds the rows after it in one
        vectorized pass (columns sorted within each row, ``GE`` rows
        negated), and assembles the memo once.
        """
        memo = self._row_memo
        constraints = self._constraints
        kept = memo.constraints
        limit = min(len(kept), len(constraints))
        keep = 0
        while keep < limit and kept[keep] is constraints[keep]:
            keep += 1
        if keep == len(kept) == len(constraints) and memo.matrix.shape[1] == n:
            return memo

        new = constraints[keep:]
        lengths = np.fromiter(
            (len(con.expression.terms) for con in new), dtype=np.int32, count=len(new)
        )
        nnz = int(lengths.sum())
        cols = np.fromiter(
            (var.index for con in new for var in con.expression.terms),
            dtype=np.int32,
            count=nnz,
        )
        vals = np.fromiter(
            (coef for con in new for coef in con.expression.terms.values()),
            dtype=np.float64,
            count=nnz,
        )
        senses = [con.sense for con in new]
        negate = np.fromiter(
            (sense is ConstraintSense.GE for sense in senses), dtype=bool, count=len(new)
        )
        eq = np.fromiter(
            (sense is ConstraintSense.EQ for sense in senses), dtype=bool, count=len(new)
        )
        rhs = np.fromiter((con.rhs for con in new), dtype=np.float64, count=len(new))
        np.negative(rhs, out=rhs, where=negate)
        row_of = np.repeat(np.arange(len(new)), lengths)
        order = np.lexsort((cols, row_of))
        cols, vals = cols[order], vals[order]
        np.negative(vals, out=vals, where=negate[row_of])

        start = int(memo.matrix.indptr[keep])
        indptr = np.empty(len(constraints) + 1, dtype=np.int32)
        indptr[: keep + 1] = memo.matrix.indptr[: keep + 1]
        np.cumsum(lengths, out=indptr[keep + 1 :])
        indptr[keep + 1 :] += start
        matrix = canonical_csr(
            np.concatenate((memo.matrix.data[:start], vals)),
            np.concatenate((memo.matrix.indices[:start], cols)),
            indptr,
            n,
        )
        self._row_memo = memo = _RowMemo(
            tuple(constraints),
            matrix,
            np.concatenate((memo.rhs[:keep], rhs)),
            np.concatenate((memo.eq[:keep], eq)),
        )
        return memo

    def _column_vectors(
        self, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The memoized objective (model sense), bounds and integrality."""
        memo = self._column_memo
        if memo is None or memo[0] != n or memo[1] is not self._objective:
            variables = self._variables
            c = np.zeros(n)
            for var, coef in self._objective.terms.items():
                c[var.index] = coef
            memo = self._column_memo = (
                n,
                self._objective,
                c,
                np.array([v.lower for v in variables]),
                np.array([v.upper for v in variables]),
                np.array([v.is_integral for v in variables], dtype=bool),
            )
        return memo[2:]

    # -- solution checking -------------------------------------------------------

    def assignment_from_values(self, values: Mapping[str, float]) -> dict[Variable, float]:
        """Map a name-keyed solution back onto this model's variables."""
        assignment: dict[Variable, float] = {}
        for var in self._variables:
            if var.name not in values:
                raise SolverError(f"assignment is missing variable {var.name!r}")
            assignment[var] = values[var.name]
        return assignment

    def is_feasible(self, values: Mapping[str, float], tolerance: float = 1e-6) -> bool:
        """Whether a name-keyed assignment satisfies bounds, integrality, constraints."""
        assignment = self.assignment_from_values(values)
        for var, value in assignment.items():
            if value < var.lower - tolerance or value > var.upper + tolerance:
                return False
            if var.is_integral and abs(value - round(value)) > tolerance:
                return False
        return all(c.satisfied_by(assignment, tolerance) for c in self._constraints)

    def objective_value(self, values: Mapping[str, float]) -> float:
        """Evaluate the objective at a name-keyed assignment (model sense)."""
        return self._objective.evaluate(self.assignment_from_values(values))

    def __repr__(self) -> str:
        return (
            f"MilpModel({self.name!r}, {self.sense.value}, "
            f"{self.num_variables} vars ({self.num_integer_variables} int), "
            f"{self.num_constraints} constraints)"
        )
