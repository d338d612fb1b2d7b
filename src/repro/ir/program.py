"""The :class:`LoopProgram` container and its static analysis helpers.

A :class:`LoopProgram` is a sequence of top-level IR nodes (loops and
statements) plus the symbolic parameters appearing in bounds (``N``, ``N1``,
``M``, ...) and the shapes of the arrays it touches.  It provides the
queries the partitioning algorithms need:

* the enclosing-loop chain and iteration domain of every statement,
* the iteration space Φ of a perfect nest (eq. 1),
* reference pairs (the inputs of the dependence equation, eq. 2),
* sequential execution order of statement instances (used as the ground truth
  by the runtime validators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from ..isl.affine import AffineExpr
from ..isl.convex import Constraint, ConvexSet
from .nodes import ArrayRef, Loop, Node, Statement

__all__ = ["LoopProgram", "StatementContext"]


@dataclass(frozen=True)
class StatementContext:
    """A statement together with its enclosing loops and syntactic position.

    ``position`` is the sequence of child indices from the program root down to
    the statement (used by the statement-level index mapping of §3.3) and
    ``loops`` is the chain of enclosing :class:`Loop` nodes, outermost first.
    """

    statement: Statement
    loops: Tuple[Loop, ...]
    position: Tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def index_names(self) -> Tuple[str, ...]:
        return tuple(l.index for l in self.loops)

    def domain(self, parameters: Sequence[str] = ()) -> ConvexSet:
        """The iteration domain of this statement as a convex set."""
        cons: List[Constraint] = []
        for loop in self.loops:
            for lo in loop.lower:
                cons.append(Constraint.ge(AffineExpr.variable(loop.index), lo))
            for hi in loop.upper:
                cons.append(Constraint.le(AffineExpr.variable(loop.index), hi))
        return ConvexSet.from_constraints(self.index_names, cons, parameters)


@dataclass(frozen=True)
class LoopProgram:
    """A whole loop program: top-level nodes, parameters, and array shapes."""

    name: str
    body: Tuple[Node, ...]
    parameters: Tuple[str, ...] = ()
    array_shapes: Mapping[str, Tuple[int, ...]] = field(default_factory=dict)

    # -- traversal -------------------------------------------------------------

    def statements(self) -> List[Statement]:
        return [ctx.statement for ctx in self.statement_contexts()]

    def statement_contexts(self) -> List[StatementContext]:
        """All statements with their enclosing loops, in syntactic order."""
        out: List[StatementContext] = []

        def walk(nodes: Sequence[Node], loops: Tuple[Loop, ...], pos: Tuple[int, ...]):
            for k, node in enumerate(nodes):
                if isinstance(node, Statement):
                    out.append(StatementContext(node, loops, pos + (k,)))
                else:
                    walk(node.body, loops + (node,), pos + (k,))

        walk(self.body, (), ())
        return out

    def loops(self) -> List[Loop]:
        """All loops in the program, outermost first, syntactic order."""
        out: List[Loop] = []

        def walk(nodes: Sequence[Node]):
            for node in nodes:
                if isinstance(node, Loop):
                    out.append(node)
                    walk(node.body)

        walk(self.body)
        return out

    def context_of(self, label: str) -> StatementContext:
        for ctx in self.statement_contexts():
            if ctx.statement.label == label:
                return ctx
        raise KeyError(f"no statement labelled {label!r}")

    def arrays(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for s in self.statements():
            for a in s.arrays():
                if a not in seen:
                    seen.append(a)
        return tuple(seen)

    # -- shape / structure queries ----------------------------------------------

    def is_perfect_nest(self) -> bool:
        """True when the program is one perfectly nested loop with statements
        only at the innermost level."""
        if len(self.body) != 1 or not isinstance(self.body[0], Loop):
            return False
        node = self.body[0]
        while True:
            inner_loops = [n for n in node.body if isinstance(n, Loop)]
            stmts = [n for n in node.body if isinstance(n, Statement)]
            if len(inner_loops) == 0:
                return len(stmts) >= 1
            if len(inner_loops) == 1 and not stmts:
                node = inner_loops[0]
                continue
            return False

    def perfect_nest_loops(self) -> List[Loop]:
        """The loop chain of a perfect nest (raises if the nest is imperfect)."""
        if not self.is_perfect_nest():
            raise ValueError(f"program {self.name!r} is not a perfect loop nest")
        chain: List[Loop] = []
        node = self.body[0]
        while isinstance(node, Loop):
            chain.append(node)
            inner = [n for n in node.body if isinstance(n, Loop)]
            if not inner:
                break
            node = inner[0]
        return chain

    def index_names(self) -> Tuple[str, ...]:
        """Loop index names of a perfect nest, outermost first."""
        return tuple(l.index for l in self.perfect_nest_loops())

    # -- iteration space ---------------------------------------------------------

    def iteration_space(self) -> ConvexSet:
        """The iteration space Φ of a perfect nest (eq. 1) as a convex set."""
        loops = self.perfect_nest_loops()
        cons: List[Constraint] = []
        names = tuple(l.index for l in loops)
        for loop in loops:
            if not loop.is_normalized():
                raise ValueError(
                    f"loop {loop.index} has stride {loop.stride}; normalize first"
                )
            for lo in loop.lower:
                cons.append(Constraint.ge(AffineExpr.variable(loop.index), lo))
            for hi in loop.upper:
                cons.append(Constraint.le(AffineExpr.variable(loop.index), hi))
        return ConvexSet.from_constraints(names, cons, self.parameters)

    def iteration_space_bound(self, params: Mapping[str, int]) -> ConvexSet:
        """Iteration space with parameters substituted by concrete values."""
        return self.iteration_space().bind_parameters(params)

    # -- reference pairs -----------------------------------------------------------

    def reference_pairs(self) -> List[Tuple[StatementContext, ArrayRef, StatementContext, ArrayRef]]:
        """All ordered pairs of references to the same array where at least one
        is a write (the candidate dependence equations of eq. 2)."""
        pairs = []
        contexts = self.statement_contexts()
        for ctx1 in contexts:
            for ctx2 in contexts:
                for w in ctx1.statement.writes:
                    for other in ctx2.statement.writes + ctx2.statement.reads:
                        if w.array != other.array:
                            continue
                        # The pair of a write reference with itself is kept:
                        # different iterations instantiating the same write can
                        # still touch the same element (output dependences);
                        # the exact analyser excludes the identical-iteration
                        # solutions.
                        pairs.append((ctx1, w, ctx2, other))
        return pairs

    # -- sequential order -----------------------------------------------------------

    def sequential_iterations(self, params: Mapping[str, int]) -> List[Tuple[str, Tuple[int, ...]]]:
        """The full sequential execution order of statement instances.

        Returns ``(statement label, iteration vector)`` pairs in program order —
        the ground truth used by executors and validators.  Loop bounds are
        evaluated with the given parameter values; non-rectangular (triangular)
        bounds are handled because bounds may reference outer indices.
        """
        schedule: List[Tuple[str, Tuple[int, ...]]] = []

        def run(nodes: Sequence[Node], env: Dict[str, int], ivec: Tuple[int, ...]):
            for node in nodes:
                if isinstance(node, Statement):
                    schedule.append((node.label, ivec))
                else:
                    lo, hi = node.evaluate_bounds({**params, **env})
                    step = node.stride
                    values = range(lo, hi + (1 if step > 0 else -1), step)
                    for value in values:
                        env2 = dict(env)
                        env2[node.index] = value
                        run(node.body, env2, ivec + (value,))

        run(self.body, {}, ())
        return schedule

    def __str__(self) -> str:
        lines = [f"program {self.name}"]

        def emit(nodes: Sequence[Node], indent: int):
            for node in nodes:
                if isinstance(node, Statement):
                    lines.append("  " * indent + str(node))
                else:
                    lines.append("  " * indent + str(node))
                    emit(node.body, indent + 1)
                    lines.append("  " * indent + "ENDDO")

        emit(self.body, 1)
        return "\n".join(lines)
