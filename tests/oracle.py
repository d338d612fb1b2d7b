"""A brute-force, tuple-based oracle for the differential suites.

The planner runs on arrays only (codec keys, the sort/merge join, the CSR
Kahn peel).  These per-point implementations of the same definitions — the
exact dependences by a dict join on address tuples, eq. 5 by set algebra,
the literal while-loop of Algorithm 1's dataflow branch, the per-instance
§3.3 mapping — are what its results are compared against.  They are meant
to be obviously correct, not fast: keep inputs small (≲10⁴ points).  The
last section keeps the rational ``Fraction`` constraint code that the
integer rows of ``repro.isl`` replaced, as the reference for those.

``tests/conftest.py`` puts this directory on ``sys.path``; the benchmarks
import it the same way (``benchmarks/conftest.py``).
"""

from fractions import Fraction
from math import ceil, floor, gcd
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.core.schedule import ExecutionUnit, ParallelPhase, Schedule
from repro.core.statement import UnifiedIndexMap
from repro.dependence.analysis import DependenceAnalysis
from repro.dependence.exact import enumerate_domain, reference_addresses
from repro.isl.affine import AffineExpr
from repro.isl.convex import EQ, GE
from repro.isl.lexorder import lex_lt
from repro.isl.relations import FiniteRelation

Point = Tuple[int, ...]
Instance = Tuple[str, Point]


def pair_dependences(pair, params, parameters=(), include_self=False) -> FiniteRelation:
    """Exact dependences of one reference pair: a dict join on address tuples."""
    src_points = enumerate_domain(pair.source_ctx, params, parameters)
    dst_points = enumerate_domain(pair.target_ctx, params, parameters)
    table: Dict[Point, List[Point]] = {}
    if len(src_points):
        src_addr = reference_addresses(pair.source_ref, pair.source_indices, src_points)
        for point, addr in zip(src_points.tolist(), src_addr.tolist()):
            table.setdefault(tuple(addr), []).append(tuple(point))
    same_statement = pair.source_ctx.statement.label == pair.target_ctx.statement.label
    pairs = set()
    if len(dst_points):
        dst_addr = reference_addresses(pair.target_ref, pair.target_indices, dst_points)
        for point, addr in zip(dst_points.tolist(), dst_addr.tolist()):
            for src in table.get(tuple(addr), ()):
                if include_self or not same_statement or src != tuple(point):
                    pairs.add((src, tuple(point)))
    return FiniteRelation(frozenset(pairs), src_points.shape[1], dst_points.shape[1])


def orient_forward(pairs) -> FrozenSet[Tuple[Point, Point]]:
    """Each pair with the lexicographically earlier point first; self-pairs dropped."""
    return frozenset((a, b) if lex_lt(a, b) else (b, a) for a, b in pairs if a != b)


def iteration_dependences(program, params=None) -> FiniteRelation:
    """The combined iteration-level Rd of a perfect nest (eq. 4)."""
    params = dict(params or {})
    analysis = DependenceAnalysis(program, params)
    pairs = set()
    for pair in analysis.reference_pairs:
        pairs |= pair_dependences(pair, params, program.parameters).pairs
    depth = len(program.statement_contexts()[0].index_names)
    return FiniteRelation(orient_forward(pairs), depth, depth)


def space_points(program, params=None) -> List[Point]:
    """The iteration points of a single-statement perfect nest, in order."""
    return [it for _, it in program.sequential_iterations(dict(params or {}))]


class ThreeSets(NamedTuple):
    space: FrozenSet[Point]
    rd: FiniteRelation
    p1: FrozenSet[Point]
    p2: FrozenSet[Point]
    p3: FrozenSet[Point]
    w: FrozenSet[Point]


def three_sets(space, rd: FiniteRelation) -> ThreeSets:
    """Eq. 5 by set algebra over point tuples."""
    phi = frozenset(tuple(p) for p in space)
    relation = frozenset((a, b) for a, b in rd.pairs if a in phi and b in phi)
    dom = {a for a, _ in relation}
    ran = {b for _, b in relation}
    p1 = frozenset(p for p in phi if p not in ran)
    p2 = frozenset(ran & dom)
    p3 = frozenset(ran - dom)
    w = frozenset(b for a, b in relation if a in p1 and b in p2)
    restricted = FiniteRelation(relation, rd.dim_in, rd.dim_out)
    return ThreeSets(phi, restricted, p1, p2, p3, w)


def wavefronts(space, rd: FiniteRelation, max_steps: Optional[int] = None):
    """The literal while-loop: peel ``P1 = Φ \\ ran Rd`` until Φ is empty."""
    remaining = {tuple(p) for p in space}
    relation = {(a, b) for a, b in rd.pairs if a in remaining and b in remaining}
    waves: List[FrozenSet[Point]] = []
    while remaining:
        if max_steps is not None and len(waves) >= max_steps:
            raise RuntimeError("dataflow partitioning did not terminate")
        ran = {b for _, b in relation}
        front = frozenset(p for p in remaining if p not in ran)
        if not front:
            raise RuntimeError("dataflow partitioning stalled")
        waves.append(front)
        remaining -= front
        relation = {(a, b) for a, b in relation if a in remaining and b in remaining}
    return tuple(waves)


class StatementSpace(NamedTuple):
    instances: Tuple[Instance, ...]
    unified: Tuple[Point, ...]
    stmt_ids: Tuple[int, ...]
    rd: FiniteRelation


def statement_space(program, params=None) -> StatementSpace:
    """The §3.3 unified space, one statement instance at a time."""
    params = dict(params or {})
    index_map = UnifiedIndexMap.from_program(program)
    labels = [ctx.statement.label for ctx in program.statement_contexts()]
    instances = tuple(
        (label, tuple(it)) for label, it in program.sequential_iterations(params)
    )
    unified = tuple(index_map.unify(label, it) for label, it in instances)
    pairs = set()
    for pair in DependenceAnalysis(program, params).reference_pairs:
        rel = pair_dependences(pair, params, program.parameters)
        src_label = pair.source_ctx.statement.label
        dst_label = pair.target_ctx.statement.label
        for a, b in rel.pairs:
            pairs.add((index_map.unify(src_label, a), index_map.unify(dst_label, b)))
    rd = FiniteRelation(orient_forward(pairs), index_map.width, index_map.width)
    stmt_ids = tuple(labels.index(label) for label, _ in instances)
    return StatementSpace(instances, unified, stmt_ids, rd)


def dataflow_phases(program, params=None) -> List[Tuple[str, List[Instance]]]:
    """``(phase name, instances)`` of the dataflow branch's schedule.

    A single-statement nest is peeled on iteration vectors, anything else on
    the unified statement space; instances run in lexicographic order inside
    each wavefront.
    """
    params = dict(params or {})
    contexts = program.statement_contexts()
    if len(contexts) == 1:
        label = contexts[0].statement.label
        waves = wavefronts(space_points(program, params), iteration_dependences(program, params))
        return [
            (f"wavefront-{k}", [(label, p) for p in sorted(wave)])
            for k, wave in enumerate(waves)
        ]
    space = statement_space(program, params)
    instance_of = dict(zip(space.unified, space.instances))
    waves = wavefronts(space.unified, space.rd)
    return [
        (f"wavefront-{k}", [instance_of[p] for p in sorted(wave)])
        for k, wave in enumerate(waves)
    ]


def unit_schedule(program, params=None) -> Schedule:
    """:func:`dataflow_phases` as a schedule of one tuple block unit per
    instance — the unit-phase shape the executors run next to array phases."""
    phases = [
        ParallelPhase(name, tuple(ExecutionUnit.block([inst]) for inst in instances))
        for name, instances in dataflow_phases(program, params)
    ]
    return Schedule.from_phases(f"{program.name}-oracle", phases, scheme="dataflow")


def schedule_phases(schedule) -> List[Tuple[str, List[Instance]]]:
    """A planned schedule in the shape :func:`dataflow_phases` returns."""
    return [(phase.name, phase.instances()) for phase in schedule.phases]


def is_uniform(relation: FiniteRelation, points) -> bool:
    """§2's definition, point by point: every placement of every distance is a pair."""
    points = {tuple(p) for p in points}
    pair_set = set(relation.pairs)
    for d in relation.distances():
        for p in points:
            q = tuple(x + y for x, y in zip(p, d))
            if q in points and (p, q) not in pair_set:
                return False
    return True


def chains_by_dict_walk(partition) -> List[Tuple[Point, ...]]:
    """The P2 chain walk of ``chains_from_relation`` on dict successor maps."""
    p2 = set(partition.p2)
    succ: Dict[Point, List[Point]] = {}
    has_pred = set()
    for a, b in partition.rd.pairs:
        if a in p2 and b in p2:
            succ.setdefault(a, []).append(b)
            has_pred.add(b)
    for targets in succ.values():
        targets.sort()
    chains: List[Tuple[Point, ...]] = []
    covered = set()

    def walk(start, skip_covered):
        chain, on_chain, current = [start], {start}, start
        covered.add(start)
        while True:
            nxt = next(
                (
                    q for q in succ.get(current, ())
                    if q not in on_chain and not (skip_covered and q in covered)
                ),
                None,
            )
            if nxt is None:
                return tuple(chain)
            chain.append(nxt)
            on_chain.add(nxt)
            covered.add(nxt)
            current = nxt

    for head in sorted(p for p in p2 if p not in has_pred):
        chains.append(walk(head, skip_covered=False))
    for p in sorted(p2 - covered):
        chains.append(walk(p, skip_covered=True))
    return chains


# ---------------------------------------------------------------------------
# the rational constraint reference
# ---------------------------------------------------------------------------
#
# ``repro.isl`` holds every constraint as a canonical integer row.  What
# follows is the rational code it replaced, over ``(AffineExpr, kind)`` rows:
# ``normalized`` rebuilds a row through ``Fraction``s, and elimination
# substitutes equalities over the rationals.  The differential in
# ``tests/isl/test_fourier_motzkin.py`` compares the two.


class RationalRow(NamedTuple):
    """``expr == 0`` or ``expr >= 0`` with rational coefficients."""

    expr: AffineExpr
    kind: str


def scaled_to_integer(expr: AffineExpr) -> AffineExpr:
    """Multiply by the LCM of the denominators so all coefficients are ints."""
    denominators = [expr.constant.denominator] + [c.denominator for _, c in expr.coeffs]
    lcm = 1
    for d in denominators:
        lcm = lcm // gcd(lcm, d) * d
    return expr * lcm


def normalized(row: RationalRow) -> RationalRow:
    """An equivalent row with coprime integer coefficients.

    For ``>=`` rows the constant term is additionally tightened to
    ``floor(c / g)`` (valid over the integers).
    """
    expr = scaled_to_integer(row.expr)
    coeff_ints = [int(c) for _, c in expr.coeffs]
    g = 0
    for c in coeff_ints:
        g = gcd(g, abs(c))
    if g == 0:
        return RationalRow(expr, row.kind)
    const = expr.constant
    new_coeffs = {n: Fraction(int(c), g) for n, c in expr.coeffs}
    if row.kind == GE:
        new_const = Fraction(floor(Fraction(const, g)))
    else:
        if const % g != 0:
            # Equality with non-divisible constant: unsatisfiable; keep as-is.
            return RationalRow(expr, row.kind)
        new_const = Fraction(const, g)
    return RationalRow(AffineExpr.build(new_coeffs, new_const), row.kind)


def is_tautology(row: RationalRow) -> bool:
    if row.expr.is_constant():
        v = row.expr.constant
        return v == 0 if row.kind == EQ else v >= 0
    return False


def is_contradiction(row: RationalRow) -> bool:
    if row.expr.is_constant():
        v = row.expr.constant
        return v != 0 if row.kind == EQ else v < 0
    if row.kind == EQ:
        expr = scaled_to_integer(row.expr)
        g = 0
        for _, c in expr.coeffs:
            g = gcd(g, abs(int(c)))
        if g > 1 and int(expr.constant) % g != 0:
            return True
    return False


def substitute_equality(rows: List[RationalRow], name: str) -> Optional[List[RationalRow]]:
    """If an equality pins ``name``, substitute it and return the other rows.

    Returns ``None`` when no usable equality exists.
    """
    for idx, c in enumerate(rows):
        if c.kind != EQ:
            continue
        coeff = c.expr.coeff(name)
        if coeff == 0:
            continue
        # name = -(rest)/coeff
        rest = c.expr.drop([name])
        replacement = rest * (-1 / coeff)
        out = []
        for j, other in enumerate(rows):
            if j == idx:
                continue
            out.append(RationalRow(other.expr.substitute({name: replacement}), other.kind))
        return out
    return None


def eliminate_variable(rows: List[RationalRow], name: str) -> List[RationalRow]:
    """Eliminate one variable from a conjunction of rational rows."""
    cons = list(rows)
    substituted = substitute_equality(cons, name)
    if substituted is not None:
        return substituted

    lowers: List[RationalRow] = []   # coeff > 0  : name >= -rest/coeff
    uppers: List[RationalRow] = []   # coeff < 0  : name <= -rest/coeff
    others: List[RationalRow] = []
    for c in cons:
        coeff = c.expr.coeff(name)
        if coeff == 0:
            others.append(c)
        elif c.kind == EQ:
            for ge in (RationalRow(c.expr, GE), RationalRow(-c.expr, GE)):
                if ge.expr.coeff(name) > 0:
                    lowers.append(ge)
                else:
                    uppers.append(ge)
        elif coeff > 0:
            lowers.append(c)
        else:
            uppers.append(c)

    result = list(others)
    for lo in lowers:
        a = lo.expr.coeff(name)
        lo_rest = lo.expr.drop([name])
        for up in uppers:
            b = -up.expr.coeff(name)
            up_rest = up.expr.drop([name])
            # combined: b*lo_rest + a*up_rest >= 0
            result.append(RationalRow(lo_rest * b + up_rest * a, GE))
    return [normalized(c) for c in result]


#: What a contradiction collapses to.
FALSE_ROW = RationalRow(AffineExpr.constant_expr(-1), GE)


def prune(rows: List[RationalRow]) -> List[RationalRow]:
    """Normalize, then drop tautologies and duplicates."""
    seen = set()
    out = []
    for c in rows:
        n = normalized(c)
        if is_tautology(n):
            continue
        key = (n.kind, n.expr.coeffs, n.expr.constant)
        if key not in seen:
            seen.add(key)
            out.append(n)
    return out


def simplified(rows: List[RationalRow]) -> List[RationalRow]:
    """``ConvexSet.simplified``: a contradiction collapses the set to ``-1 >= 0``."""
    out = prune(rows)
    return [FALSE_ROW] if any(is_contradiction(c) for c in out) else out


def eliminate_variables(rows: List[RationalRow], names) -> List[RationalRow]:
    """Eliminate several variables in order, pruning after each step."""
    cons = list(rows)
    for name in names:
        cons = eliminate_variable(cons, name)
        if any(is_contradiction(c) for c in cons):
            return [FALSE_ROW]
        cons = prune(cons)
    return cons


def rational_variable_bounds(rows: List[RationalRow], variables, name: str):
    """Conservative integer bounds of ``name``: the rational projection onto
    it, rounded inwards (``None`` where unbounded)."""
    projected = simplified(
        eliminate_variables(simplified(rows), [v for v in variables if v != name])
    )
    lower = upper = None
    for c in projected:
        coeff = c.expr.coeff(name)
        rest = c.expr.drop([name])
        if coeff == 0 or not rest.is_constant():
            continue
        val = -rest.constant / coeff
        if c.kind == EQ or coeff > 0:
            lower = val if lower is None else max(lower, val)
        if c.kind == EQ or coeff < 0:
            upper = val if upper is None else min(upper, val)
    return (None if lower is None else ceil(lower), None if upper is None else floor(upper))
