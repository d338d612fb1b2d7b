"""Loop-nest IR nodes.

The reproduction works on a small intermediate representation of (possibly
imperfectly) nested DO loops with affine bounds and affine array subscripts —
the program model of §2 of the paper:

* :class:`Loop` — a normalized counted loop ``DO index = lower, upper`` whose
  bounds are affine expressions of outer loop indices and symbolic parameters,
  with a body of nested loops and statements.
* :class:`Statement` — a single assignment-style statement with one or more
  write references and read references to arrays, each an :class:`ArrayRef`
  with affine subscripts.
* :class:`ArrayRef` — a reference ``X[e_1, ..., e_d]`` with affine subscript
  expressions, convertible to the matrix form ``I·A + a`` used by the
  dependence equations.

Each subscript and bound is also held as an integer row (see
:func:`integer_row`), built once when the node is constructed: evaluating a
reference or a loop's bounds at an iteration point — once per statement
instance in every executor — runs on Python ints and builds no ``Fraction``.
The rows are derived data, so equality, hashing and ``str()`` ignore them.

The IR is deliberately minimal: it captures exactly the information the
dependence analysis and the partitioning algorithms consume, nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..isl.affine import AffineExpr

__all__ = ["ArrayRef", "Statement", "Loop", "Node", "IntegerRow", "integer_row"]

#: An affine expression as ``(terms, constant, denominator)``: ``terms`` are
#: ``(name, int)`` pairs and ``sum(c * env[name]) + constant`` equals
#: ``denominator`` (a positive int) times the expression's value.
IntegerRow = Tuple[Tuple[Tuple[str, int], ...], int, int]


def integer_row(expr: AffineExpr) -> IntegerRow:
    """``expr`` scaled by the lcm of its denominators, and that lcm."""
    den = lcm(expr.constant.denominator, *[c.denominator for _, c in expr.coeffs])
    return (
        tuple((n, c.numerator * (den // c.denominator)) for n, c in expr.coeffs),
        expr.constant.numerator * (den // expr.constant.denominator),
        den,
    )


def _scaled_value(row: IntegerRow, env: Mapping[str, int]) -> int:
    """``denominator`` times the row's value under ``env``."""
    terms, value, _ = row
    try:
        for name, c in terms:
            value += c * env[name]
    except KeyError:
        raise KeyError(f"no value for variable {name!r}") from None
    return value


def _ratio(value: int, den: int) -> str:
    """``value / den`` in lowest terms, as ``str(Fraction(value, den))`` reads."""
    g = gcd(value, den)
    return f"{value // g}/{den // g}"


@dataclass(frozen=True)
class ArrayRef:
    """An affine array reference ``array[sub_1, ..., sub_d]``.

    ``subscript_rows`` holds each subscript's :func:`integer_row`.
    """

    array: str
    subscripts: Tuple[AffineExpr, ...]
    subscript_rows: Tuple[IntegerRow, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "subscript_rows", tuple(integer_row(s) for s in self.subscripts)
        )

    @staticmethod
    def make(array: str, subscripts: Sequence) -> "ArrayRef":
        return ArrayRef(array, tuple(AffineExpr.from_any(s) for s in subscripts))

    @property
    def rank(self) -> int:
        """Number of array dimensions referenced."""
        return len(self.subscripts)

    def variables(self) -> Tuple[str, ...]:
        """Loop index variables occurring in the subscripts (in first-seen order)."""
        seen: List[str] = []
        for s in self.subscripts:
            for v in s.variables:
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def coefficient_matrix(
        self, index_order: Sequence[str]
    ) -> Tuple[List[List[Fraction]], List[Fraction]]:
        """Return ``(A, a)`` such that the subscript vector equals ``i·A + a``.

        ``A`` has one row per loop index in ``index_order`` and one column per
        array dimension; ``a`` is the constant offset vector.  Symbols that are
        neither loop indices nor constants (i.e. parameters) are not allowed in
        subscripts for the matrix form and raise ``ValueError``.
        """
        rows = len(index_order)
        cols = len(self.subscripts)
        A = [[Fraction(0)] * cols for _ in range(rows)]
        a = [Fraction(0)] * cols
        index_pos = {name: k for k, name in enumerate(index_order)}
        for col, sub in enumerate(self.subscripts):
            a[col] = sub.constant
            for name, coeff in sub.coeffs:
                if name not in index_pos:
                    raise ValueError(
                        f"subscript {sub} of {self.array} uses symbol {name!r} "
                        f"outside the loop index order {tuple(index_order)}"
                    )
                A[index_pos[name]][col] = coeff
        return A, a

    def integer_coefficient_matrix(
        self, index_order: Sequence[str]
    ) -> Tuple[List[List[int]], List[int]]:
        """:meth:`coefficient_matrix` in plain ints, read off
        :attr:`subscript_rows` with no rational arithmetic.

        Raises ``ValueError`` as :meth:`coefficient_matrix` does for a
        symbol outside ``index_order``, and for a non-integer coefficient or
        offset (which the IR validator rejects).
        """
        index_pos = {name: k for k, name in enumerate(index_order)}
        A = [[0] * len(self.subscripts) for _ in index_order]
        a = [0] * len(self.subscripts)
        for col, (sub, (terms, offset, den)) in enumerate(
            zip(self.subscripts, self.subscript_rows)
        ):
            for name, coeff in terms:
                if name not in index_pos:
                    raise ValueError(
                        f"subscript {sub} of {self.array} uses symbol {name!r} "
                        f"outside the loop index order {tuple(index_order)}"
                    )
                A[index_pos[name]][col] = coeff
            if den != 1:
                part = "coefficients" if any(c.denominator != 1 for _, c in sub.coeffs) else "offsets"
                raise ValueError(f"non-integer subscript {part} in {self}")
            a[col] = offset
        return A, a

    def evaluate(self, env: Mapping[str, int]) -> Tuple[int, ...]:
        """Concrete subscript values under an integer iteration-point
        environment; ``ValueError`` when one is not an integer.

        The hottest call of every executor, so :func:`_scaled_value` is
        inlined here.
        """
        out = []
        try:
            for terms, value, den in self.subscript_rows:
                for name, c in terms:
                    value += c * env[name]
                if den != 1:
                    value, rem = divmod(value, den)
                    if rem:
                        raise ValueError(
                            f"non-integer subscript value "
                            f"{_ratio(value * den + rem, den)} for {self}"
                        )
                out.append(value)
        except KeyError:
            raise KeyError(f"no value for variable {name!r}") from None
        return tuple(out)

    def __str__(self) -> str:
        return f"{self.array}({', '.join(str(s) for s in self.subscripts)})"


# Statement semantics: a callable (arrays, env, read_values) -> value written.
SemanticsFn = Callable[[Mapping[str, "object"], Mapping[str, int], Sequence[float]], float]


@dataclass(frozen=True)
class Statement:
    """An assignment statement with affine array references.

    ``writes`` and ``reads`` list the array references; ``label`` identifies the
    statement (used for statement-level partitioning and reporting).  The
    optional ``semantics`` callable defines the executable meaning of the
    statement for the runtime validators: it receives the array store, the
    iteration environment and the list of values read (in ``reads`` order) and
    returns the value to store through each write reference.  When omitted, an
    order-sensitive default is used (see :mod:`repro.ir.semantics`).
    """

    label: str
    writes: Tuple[ArrayRef, ...]
    reads: Tuple[ArrayRef, ...] = ()
    semantics: Optional[SemanticsFn] = field(default=None, compare=False)

    @staticmethod
    def assign(
        label: str,
        write: ArrayRef,
        reads: Sequence[ArrayRef] = (),
        semantics: Optional[SemanticsFn] = None,
    ) -> "Statement":
        return Statement(label, (write,), tuple(reads), semantics)

    def references(self) -> Tuple[ArrayRef, ...]:
        return self.writes + self.reads

    def arrays(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for r in self.references():
            if r.array not in seen:
                seen.append(r.array)
        return tuple(seen)

    def __str__(self) -> str:
        w = ", ".join(str(r) for r in self.writes)
        r = ", ".join(str(r) for r in self.reads)
        return f"{self.label}: {w} = f({r})"


@dataclass(frozen=True)
class Loop:
    """A counted loop with affine bounds and a nested body.

    ``lower`` and ``upper`` are non-empty tuples of affine expressions: the
    loop runs from the *maximum* of the lower bounds to the *minimum* of the
    upper bounds, which models Fortran bounds like ``DO I = MAX(-M, -J), -1``
    and ``DO JJ = 1, MIN(M, N-K)`` exactly (both occur in the Cholesky
    kernel of Example 4 and in the paper's generated listings).

    ``lower_rows`` and ``upper_rows`` hold each bound's :func:`integer_row`.
    """

    index: str
    lower: Tuple[AffineExpr, ...]
    upper: Tuple[AffineExpr, ...]
    body: Tuple["Node", ...] = ()
    stride: int = 1
    lower_rows: Tuple[IntegerRow, ...] = field(init=False, repr=False, compare=False)
    upper_rows: Tuple[IntegerRow, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lower_rows", tuple(integer_row(b) for b in self.lower))
        object.__setattr__(self, "upper_rows", tuple(integer_row(b) for b in self.upper))

    @staticmethod
    def make(index: str, lower, upper, body: Sequence["Node"] = (), stride: int = 1) -> "Loop":
        return Loop(
            index,
            _bound_tuple(lower),
            _bound_tuple(upper),
            tuple(body),
            stride,
        )

    def evaluate_bounds(self, env: Mapping[str, int]) -> Tuple[int, int]:
        """Concrete ``(lo, hi)`` bounds under an integer environment (MAX/MIN
        applied); ``ValueError`` when a bound value is not an integer."""
        lows = [self._bound_value(row, env) for row in self.lower_rows]
        highs = [self._bound_value(row, env) for row in self.upper_rows]
        return max(lows), min(highs)

    def _bound_value(self, row: IntegerRow, env: Mapping[str, int]) -> int:
        value, rem = divmod(_scaled_value(row, env), row[2])
        if rem:
            raise ValueError(f"non-integer bound value for loop {self.index}")
        return value

    def statements(self) -> List[Statement]:
        out: List[Statement] = []
        for node in self.body:
            if isinstance(node, Statement):
                out.append(node)
            else:
                out.extend(node.statements())
        return out

    def inner_loops(self) -> List["Loop"]:
        out: List[Loop] = []
        for node in self.body:
            if isinstance(node, Loop):
                out.append(node)
                out.extend(node.inner_loops())
        return out

    def __str__(self) -> str:
        lo = str(self.lower[0]) if len(self.lower) == 1 else "MAX(" + ", ".join(map(str, self.lower)) + ")"
        hi = str(self.upper[0]) if len(self.upper) == 1 else "MIN(" + ", ".join(map(str, self.upper)) + ")"
        head = f"DO {self.index} = {lo}, {hi}"
        if self.stride != 1:
            head += f", {self.stride}"
        return head


def _bound_tuple(value) -> Tuple[AffineExpr, ...]:
    """Coerce a bound specification into a non-empty tuple of affine expressions."""
    if isinstance(value, (list, tuple)):
        items = tuple(AffineExpr.from_any(v) for v in value)
    else:
        items = (AffineExpr.from_any(value),)
    if not items:
        raise ValueError("a loop bound needs at least one expression")
    return items


Node = Union[Loop, Statement]
