"""Linear expressions, variables, and constraints for the MILP substrate.

This is a small algebraic layer in the style of PuLP: variables combine
with ``+ - *`` into :class:`LinearExpression` objects, and comparison
operators (``<=``, ``>=``, ``==``) against expressions or numbers yield
:class:`Constraint` objects ready to be added to a
:class:`~repro.solver.model.MilpModel`.

Expressions are immutable; every operation returns a new object, so a
chain of ``+`` copies the whole term dict (and re-checks every
coefficient) at each step and costs time quadratic in the number of
terms.  Build hot paths with a single accumulator instead:
:meth:`LinearExpression.sum_of` for ``(variable, coefficient)`` pairs,
:meth:`LinearExpression.weighted_sum` for ``(expression, factor)``
pairs.  Both fill one term dict and construct one expression at the end.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping
from numbers import Real

from repro.errors import SolverError

__all__ = ["VarKind", "Variable", "LinearExpression", "ConstraintSense", "Constraint"]


class VarKind(str, enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Variable:
    """A named decision variable with bounds and a domain kind.

    Variables are created through :class:`~repro.solver.model.MilpModel`
    factory methods, which guarantee unique names and assign each
    variable its column ``index``.  Identity (not name) defines hashing,
    so two models can safely use the same variable names.
    """

    __slots__ = ("name", "lower", "upper", "kind", "index")

    def __init__(self, name: str, lower: float, upper: float, kind: VarKind, index: int):
        if not name:
            raise SolverError("variable name must be non-empty")
        if math.isnan(lower) or math.isnan(upper):
            raise SolverError(f"variable {name!r} has NaN bounds")
        if lower > upper:
            raise SolverError(f"variable {name!r} has empty domain [{lower}, {upper}]")
        self.name = name
        self.lower = lower
        self.upper = upper
        self.kind = kind
        self.index = index

    @property
    def is_integral(self) -> bool:
        """Whether the variable must take integer values."""
        return self.kind in (VarKind.INTEGER, VarKind.BINARY)

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, [{self.lower}, {self.upper}], {self.kind.value})"

    # -- algebra (delegate to LinearExpression) --------------------------

    def _as_expression(self) -> "LinearExpression":
        return LinearExpression({self: 1.0}, 0.0)

    def __add__(self, other):
        return self._as_expression() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._as_expression() - other

    def __rsub__(self, other):
        return (-self._as_expression()) + other

    def __neg__(self):
        return -self._as_expression()

    def __mul__(self, factor):
        return self._as_expression() * factor

    __rmul__ = __mul__

    def __le__(self, other):
        return self._as_expression() <= other

    def __ge__(self, other):
        return self._as_expression() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinearExpression, Real)):
            return self._as_expression() == other
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)


class LinearExpression:
    """An immutable affine expression ``sum(coef * var) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[Variable, float] | None = None, constant: float = 0.0):
        cleaned: dict[Variable, float] = {}
        for var, coef in (terms or {}).items():
            coef = float(coef)
            if math.isnan(coef) or math.isinf(coef):
                raise SolverError(f"non-finite coefficient {coef!r} for variable {var.name!r}")
            if coef != 0.0:
                cleaned[var] = coef
        self.terms = cleaned
        self.constant = float(constant)
        if math.isnan(self.constant) or math.isinf(self.constant):
            raise SolverError(f"non-finite expression constant {constant!r}")

    # -- construction helpers ---------------------------------------------

    @classmethod
    def sum_of(
        cls, pairs: Iterable[tuple[Variable, float]], constant: float = 0.0
    ) -> "LinearExpression":
        """Build ``sum(coef * var) + constant`` in one pass, merging duplicates."""
        terms: dict[Variable, float] = {}
        for var, coef in pairs:
            terms[var] = terms.get(var, 0.0) + float(coef)
        return cls(terms, constant)

    @classmethod
    def weighted_sum(
        cls, parts: Iterable[tuple["LinearExpression", float]]
    ) -> "LinearExpression":
        """Build ``sum(expr * factor)`` in one pass, merging duplicates.

        Equal to the chain ``e = e + expr * factor`` coefficient for
        coefficient: the same products are added in the same order.
        """
        terms: dict[Variable, float] = {}
        constant = 0.0
        for expr, factor in parts:
            for var, coef in expr.terms.items():
                terms[var] = terms.get(var, 0.0) + coef * factor
            constant += expr.constant * factor
        return cls(terms, constant)

    @staticmethod
    def _coerce(value) -> "LinearExpression":
        if isinstance(value, LinearExpression):
            return value
        if isinstance(value, Variable):
            return value._as_expression()
        if isinstance(value, Real):
            return LinearExpression({}, float(value))
        raise SolverError(f"cannot use {type(value).__name__} in a linear expression")

    # -- algebra ------------------------------------------------------------

    def __add__(self, other) -> "LinearExpression":
        other = self._coerce(other)
        terms = dict(self.terms)
        for var, coef in other.terms.items():
            terms[var] = terms.get(var, 0.0) + coef
        return LinearExpression(terms, self.constant + other.constant)

    __radd__ = __add__

    def __sub__(self, other) -> "LinearExpression":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other) -> "LinearExpression":
        return self._coerce(other) + (self * -1.0)

    def __neg__(self) -> "LinearExpression":
        return self * -1.0

    def __mul__(self, factor) -> "LinearExpression":
        if not isinstance(factor, Real):
            raise SolverError("linear expressions can only be scaled by numbers")
        factor = float(factor)
        return LinearExpression(
            {var: coef * factor for var, coef in self.terms.items()}, self.constant * factor
        )

    __rmul__ = __mul__

    # -- comparisons build constraints ---------------------------------------

    def _minus(self, other) -> "LinearExpression":
        if isinstance(other, Real):
            # The floats of ``self - other`` in one construction: the
            # terms are unchanged and the constant is computed as there.
            return LinearExpression(self.terms, self.constant + float(other) * -1.0)
        return self - self._coerce(other)

    def __le__(self, other) -> "Constraint":
        return Constraint(self._minus(other), ConstraintSense.LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self._minus(other), ConstraintSense.GE)

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinearExpression, Real)):
            return Constraint(self._minus(other), ConstraintSense.EQ)
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, assignment: Mapping[Variable, float]) -> float:
        """The expression's value under a variable assignment."""
        return self.constant + sum(coef * assignment[var] for var, coef in self.terms.items())

    def __repr__(self) -> str:
        parts = [f"{coef:+g}*{var.name}" for var, coef in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


class ConstraintSense(str, enum.Enum):
    """Direction of a linear constraint, normalized as ``expr SENSE 0``."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Constraint:
    """A linear constraint ``expression (<=|>=|==) 0``.

    Comparison operators on expressions move everything to the left-hand
    side, so ``rhs`` below is the *normalized* right-hand side
    (``-expression.constant``) against the pure linear part.
    """

    __slots__ = ("expression", "sense", "name")

    def __init__(self, expression: LinearExpression, sense: ConstraintSense, name: str = ""):
        self.expression = expression
        self.sense = sense
        self.name = name

    @property
    def rhs(self) -> float:
        """Right-hand side once the constant moves across the relation."""
        return -self.expression.constant

    def named(self, name: str) -> "Constraint":
        """A copy of this constraint carrying ``name`` (for diagnostics)."""
        return Constraint(self.expression, self.sense, name)

    def satisfied_by(self, assignment: Mapping[Variable, float], tolerance: float = 1e-7) -> bool:
        """Whether the assignment satisfies the constraint within tolerance."""
        lhs = self.expression.evaluate(assignment)
        if self.sense is ConstraintSense.LE:
            return lhs <= tolerance
        if self.sense is ConstraintSense.GE:
            return lhs >= -tolerance
        return abs(lhs) <= tolerance

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        linear = LinearExpression(self.expression.terms, 0.0)
        return f"{label}{linear!r} {self.sense.value} {self.rhs:g}"
