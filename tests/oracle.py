"""A brute-force, tuple-based oracle for the differential suites.

The planner runs on arrays only (codec keys, the sort/merge join, the CSR
Kahn peel).  These per-point implementations of the same definitions — the
exact dependences by a dict join on address tuples, eq. 5 by set algebra,
the literal while-loop of Algorithm 1's dataflow branch, the per-instance
§3.3 mapping, the Lemma 1 chains by the affine recurrence and by a greedy
graph walk — are what its results are compared against.  They are meant
to be obviously correct, not fast: keep inputs small (≲10⁴ points).  The
last section keeps the rational ``Fraction`` constraint code that the
integer rows of ``repro.isl`` replaced, as the reference for those, and the
``Fraction`` evaluator of subscripts and loop bounds that the IR's integer
rows replaced.

The oracle is also the one place that reads the planner's arrays as Python
tuples: :func:`pairs`, :func:`points`, :func:`sets`, :func:`wavefront_sets`,
:func:`instances` and :func:`space_view` box relations, partitions,
schedules and spaces for set comparisons, and :func:`violations` is the
per-instance walk that ``Schedule.violations`` does on codec keys.

``tests/conftest.py`` puts this directory on ``sys.path``; the benchmarks
import it the same way (``benchmarks/conftest.py``).
"""

from fractions import Fraction
from math import ceil, floor, gcd
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.schedule import Phase, Schedule, statement_table
from repro.core.statement import UnifiedIndexMap
from repro.dependence.analysis import DependenceAnalysis
from repro.dependence.exact import enumerate_domain, reference_addresses
from repro.isl.affine import AffineExpr
from repro.isl.convex import EQ, GE
from repro.isl.lexorder import is_lex_positive, lex_lt
from repro.isl.linalg import hermite_normal_form
from repro.isl.relations import FiniteRelation

Point = Tuple[int, ...]
Instance = Tuple[str, Point]


# ---------------------------------------------------------------------------
# tuple views of the planner's arrays
# ---------------------------------------------------------------------------


def points(rows) -> FrozenSet[Point]:
    """The rows of an ``(n, dim)`` array as a set of point tuples."""
    return frozenset(map(tuple, np.asarray(rows).tolist()))


def pairs(relation: FiniteRelation) -> FrozenSet[Tuple[Point, Point]]:
    """A relation's pairs as a set of ``(src, dst)`` point tuples."""
    src, dst = relation.as_arrays()
    return frozenset(zip(map(tuple, src.tolist()), map(tuple, dst.tolist())))


def relation(
    pair_set, dim_in: Optional[int] = None, dim_out: Optional[int] = None
) -> FiniteRelation:
    """A relation from ``(src, dst)`` point tuples; the dimensions default
    to the first pair's (an empty relation needs them given)."""
    pair_list = [(tuple(a), tuple(b)) for a, b in pair_set]
    if pair_list:
        dim_in, dim_out = len(pair_list[0][0]), len(pair_list[0][1])
    src = np.array([a for a, _ in pair_list], dtype=np.int64).reshape(len(pair_list), dim_in)
    dst = np.array([b for _, b in pair_list], dtype=np.int64).reshape(len(pair_list), dim_out)
    return FiniteRelation.from_arrays(src, dst)


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
    found = set()
    if len(dst_points):
        dst_addr = reference_addresses(pair.target_ref, pair.target_indices, dst_points)
        for point, addr in zip(dst_points.tolist(), dst_addr.tolist()):
            for src in table.get(tuple(addr), ()):
                if include_self or not same_statement or src != tuple(point):
                    found.add((src, tuple(point)))
    return relation(found, src_points.shape[1], dst_points.shape[1])


def orient_forward(pair_set) -> FrozenSet[Tuple[Point, Point]]:
    """Each pair with the lexicographically earlier point first; self-pairs dropped."""
    return frozenset((a, b) if lex_lt(a, b) else (b, a) for a, b in pair_set if a != b)


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
    kept = frozenset((a, b) for a, b in pairs(rd) if a in phi and b in phi)
    dom = {a for a, _ in kept}
    ran = {b for _, b in kept}
    p1 = frozenset(p for p in phi if p not in ran)
    p2 = frozenset(ran & dom)
    p3 = frozenset(ran - dom)
    w = frozenset(b for a, b in kept if a in p1 and b in p2)
    return ThreeSets(phi, relation(kept, rd.dim_in, rd.dim_out), p1, p2, p3, w)


def sets(partition) -> ThreeSets:
    """A :class:`~repro.core.partition.ThreeSetPartition`'s rows as the
    point sets :func:`three_sets` returns (a :class:`ThreeSets` passes
    through)."""
    if isinstance(partition, ThreeSets):
        return partition
    return ThreeSets(
        points(partition.space_array()),
        partition.rd,
        points(partition.p1_array()),
        points(partition.p2_array()),
        points(partition.p3_array()),
        points(partition.w_array()),
    )


def is_complete(partition) -> bool:
    """P1 ⊎ P2 ⊎ P3 == Φ with pairwise-disjoint parts."""
    parts = sets(partition)
    union = parts.p1 | parts.p2 | parts.p3
    disjoint = len(parts.p1) + len(parts.p2) + len(parts.p3) == len(union)
    return disjoint and union == parts.space


def respects_phase_order(partition) -> bool:
    """No dependence of a three-set partition goes against the P1 → P2 → P3
    order, and none is internal to P1 or to P3."""
    partition = sets(partition)
    rank = {p: 0 for p in partition.p1}
    rank.update((p, 1) for p in partition.p2)
    rank.update((p, 2) for p in partition.p3)
    for src, dst in pairs(partition.rd):
        rs, rd_ = rank.get(src), rank.get(dst)
        if rs is None or rd_ is None or rs > rd_ or (rs == rd_ and rs != 1):
            return False
    return True


def wavefronts(space, rd: FiniteRelation, max_steps: Optional[int] = None):
    """The literal while-loop: peel ``P1 = Φ \\ ran Rd`` until Φ is empty."""
    remaining = {tuple(p) for p in space}
    live = {(a, b) for a, b in pairs(rd) if a in remaining and b in remaining}
    waves: List[FrozenSet[Point]] = []
    while remaining:
        if max_steps is not None and len(waves) >= max_steps:
            raise RuntimeError("dataflow partitioning did not terminate")
        ran = {b for _, b in live}
        front = frozenset(p for p in remaining if p not in ran)
        if not front:
            raise RuntimeError("dataflow partitioning stalled")
        waves.append(front)
        remaining -= front
        live = {(a, b) for a, b in live if a in remaining and b in remaining}
    return tuple(waves)


def wavefront_sets(partition) -> Tuple[FrozenSet[Point], ...]:
    """A :class:`~repro.core.dataflow.DataflowPartition`'s levels as the
    point sets :func:`wavefronts` returns."""
    offsets, rows = partition.level_arrays()
    bounds = offsets.tolist()
    return tuple(points(rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def wavefronts_complete(partition, space) -> bool:
    """Every point of ``space`` lies in exactly one wavefront of a dataflow
    partition, and no other point does."""
    waves = wavefront_sets(partition)
    union = frozenset().union(*waves)
    return sum(map(len, waves)) == len(union) and union == points(space)


def wavefronts_respect(partition) -> bool:
    """Every pair of a dataflow partition's Rd goes from an earlier
    wavefront to a strictly later one."""
    level = {p: k for k, wave in enumerate(wavefront_sets(partition)) for p in wave}
    return all(
        a in level and b in level and level[a] < level[b] for a, b in pairs(partition.rd)
    )


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
    found = set()
    for pair in DependenceAnalysis(program, params).reference_pairs:
        rel = pair_dependences(pair, params, program.parameters)
        src_label = pair.source_ctx.statement.label
        dst_label = pair.target_ctx.statement.label
        for a, b in pairs(rel):
            found.add((index_map.unify(src_label, a), index_map.unify(dst_label, b)))
    rd = relation(orient_forward(found), index_map.width, index_map.width)
    stmt_ids = tuple(labels.index(label) for label, _ in instances)
    return StatementSpace(instances, unified, stmt_ids, rd)


def accessed_cell_rd(program, params=None) -> FiniteRelation:
    """Rd without reference pairs: every instance of the interpreter's walk
    (``program.sequential_iterations``) records the cells its references
    touch (subscripts by the ``Fraction`` evaluator), and every two accesses
    of one cell by different instances, at least one a write, give a pair,
    oriented forward over the unified vectors of §3.3."""
    params = dict(params or {})
    index_map = UnifiedIndexMap.from_program(program)
    contexts = {ctx.statement.label: ctx for ctx in program.statement_contexts()}
    cells: Dict[Tuple[str, Point], List[Tuple[Point, bool]]] = {}
    for label, it in program.sequential_iterations(params):
        ctx = contexts[label]
        env = {**params, **dict(zip(ctx.index_names, it))}
        point = index_map.unify(label, tuple(it))
        for refs, writes in ((ctx.statement.writes, True), (ctx.statement.reads, False)):
            for ref in refs:
                cell = (ref.array, rational_subscripts(ref, env))
                cells.setdefault(cell, []).append((point, writes))
    found = {
        (a, b)
        for accesses in cells.values()
        for a, a_writes in accesses
        for b, b_writes in accesses
        if a != b and (a_writes or b_writes)
    }
    return relation(orient_forward(found), index_map.width, index_map.width)


def sequential_order_is_lexicographic(program, params=None) -> bool:
    """The §3.3 invariant: the unified vectors of the program's instances,
    in sequential order, rise strictly lexicographically."""
    index_map = UnifiedIndexMap.from_program(program)
    seq = [
        index_map.unify(label, it)
        for label, it in program.sequential_iterations(dict(params or {}))
    ]
    return all(lex_lt(a, b) for a, b in zip(seq, seq[1:]))


def dataflow_phases(program, params=None) -> List[Tuple[str, List[Instance]]]:
    """``(phase name, instances)`` of the dataflow branch's schedule: the
    unified statement space peeled, instances in lexicographic order inside
    each wavefront."""
    space = statement_space(program, params)
    instance_of = dict(zip(space.unified, space.instances))
    waves = wavefronts(space.unified, space.rd)
    return [
        (f"wavefront-{k}", [instance_of[p] for p in sorted(wave)])
        for k, wave in enumerate(waves)
    ]


def unit_schedule(program, params=None) -> Schedule:
    """:func:`dataflow_phases` as a schedule of one unit per instance, its
    phases filled row by row from the instance lists (never from a planner's
    arrays)."""
    labels, depths = statement_table(program)
    sid = {label: k for k, label in enumerate(labels)}
    width = max(depths, default=0)
    phases = []
    for name, instances in dataflow_phases(program, params):
        ids = [sid[label] for label, _ in instances]
        rows = [list(it) + [0] * (width - len(it)) for _, it in instances]
        phases.append(Phase(name, ids, np.array(rows, dtype=np.int64).reshape(len(rows), width)))
    return Schedule.from_phases(
        f"{program.name}-oracle", phases, labels, depths, scheme="dataflow"
    )


def schedule_phases(schedule) -> List[Tuple[str, List[Instance]]]:
    """A planned schedule in the shape :func:`dataflow_phases` returns."""
    return [(phase.name, phase_instances(schedule, phase)) for phase in schedule.phases]


def phase_instances(schedule, phase) -> List[Instance]:
    """One phase's instances as ``(label, iteration)``, in unit order."""
    lowered = phase.lower()
    labels, depths = schedule.labels, schedule.depths
    return [
        (labels[sid], tuple(row[: depths[sid]]))
        for sid, row in zip(lowered.stmt_ids.tolist(), lowered.iters.tolist())
    ]


def instances(schedule) -> List[Instance]:
    """Every scheduled instance, phase by phase."""
    return [inst for phase in schedule.phases for inst in phase_instances(schedule, phase)]


def covers(schedule, expected) -> bool:
    """The schedule executes exactly the ``expected`` instances, once each."""
    mine = instances(schedule)
    return len(mine) == len(set(mine)) and set(mine) == set(expected)


def execution_index(schedule) -> Dict[Instance, Tuple[int, int, int]]:
    """Map instance -> (phase number, unit number, position inside unit)."""
    out: Dict[Instance, Tuple[int, int, int]] = {}
    for pi, phase in enumerate(schedule.phases):
        lens = phase.lower().unit_lengths()
        unit = np.repeat(np.arange(len(lens)), lens)
        starts = np.repeat(np.cumsum(lens) - lens, lens)
        position = np.arange(len(unit)) - starts
        for inst, u, k in zip(
            phase_instances(schedule, phase), unit.tolist(), position.tolist()
        ):
            out[inst] = (pi, u, k)
    return out


def violations(schedule, dependences) -> List[Tuple[Instance, Instance]]:
    """The dependence pairs a schedule breaks, instance by instance: a pair
    is honoured when its source runs in an earlier phase, or earlier in the
    same unit.  ``dependences`` is a statement-level space or, for a
    one-statement schedule, a bare relation over iteration vectors."""
    if isinstance(dependences, FiniteRelation):
        if len(schedule.labels) > 1:
            raise ValueError("a bare relation needs a one-statement schedule")
        rd, key = dependences, lambda label, it: it
    else:
        rd, key = dependences.rd, dependences.index_map.unify
    index = execution_index(schedule)
    by_point: Dict[Point, List[Instance]] = {}
    for inst in index:
        by_point.setdefault(key(*inst), []).append(inst)
    out = []
    for src, dst in pairs(rd):
        for si in by_point.get(tuple(src), ()):
            ps, us, ks = index[si]
            for di in by_point.get(tuple(dst), ()):
                pd, ud, kd = index[di]
                if ps < pd or (ps == pd and us == ud and ks < kd):
                    continue
                out.append((si, di))
    return out


def space_view(space) -> StatementSpace:
    """An array :class:`~repro.core.statement.StatementLevelSpace` as the
    tuples :func:`statement_space` returns."""
    labels, depths = space.stmt_labels, space.stmt_depths
    iters = space.index_map.iteration_columns(space.unified_array)
    ids = tuple(space.stmt_ids.tolist())
    return StatementSpace(
        tuple((labels[sid], tuple(row[: depths[sid]])) for sid, row in zip(ids, iters.tolist())),
        tuple(map(tuple, space.unified_array.tolist())),
        ids,
        space.rd,
    )


def is_uniform(relation: FiniteRelation, points) -> bool:
    """§2's definition, point by point: every placement of every distance is a pair."""
    points = {tuple(p) for p in points}
    pair_set = pairs(relation)
    for d in relation.distances():
        for p in points:
            q = tuple(x + y for x, y in zip(p, d))
            if q in points and (p, q) not in pair_set:
                return False
    return True


def uniform_shift_pairs(analysis):
    """``DependenceAnalysis.uniform_shift_pairs`` derived from each pair's
    Lemma 1 recurrence ``j = i·T + u``: every pair must be square, full rank
    and uniform (``T = I``); non-integral and zero shifts are dropped, the
    rest oriented lex-positive, and exactly one distinct shift may remain."""
    if len(analysis.program.statement_contexts()) != 1:
        return None
    shifts = set()
    active = 0
    for pair in analysis.reference_pairs:
        try:
            if not pair.is_square_full_rank() or not pair.is_uniform():
                return None
            rec = pair.recurrence()
        except ValueError:
            return None
        if rec is None:
            return None
        T, u = rec
        assert T.tolist() == [[int(r == c) for c in range(len(u))] for r in range(len(u))]
        if any(Fraction(c).denominator != 1 for c in u):
            continue
        u = tuple(int(c) for c in u)
        if not any(u):
            continue
        if next(c for c in u if c) < 0:
            u = tuple(-c for c in u)
        shifts.add(u)
        active += 1
    return (shifts.pop(), active) if len(shifts) == 1 else None


def inverse_recurrence(recurrence):
    """The predecessor map ``prev(j) = (j − u)·T⁻¹`` of an
    :class:`~repro.core.recurrence.AffineRecurrence`, as one."""
    from repro.core.recurrence import AffineRecurrence

    T_inv = recurrence.T.inverse()
    return AffineRecurrence(T_inv, tuple(T_inv.row_apply([-x for x in recurrence.u])))


def next_integer(recurrence, point) -> Optional[Point]:
    """``point·T + u`` of an :class:`~repro.core.recurrence.AffineRecurrence`
    when it is an integer point, else ``None`` (no successor through this
    map, whatever the loop bounds)."""
    image = [
        Fraction(x) + du for x, du in zip(recurrence.T.row_apply(list(point)), recurrence.u)
    ]
    if any(x.denominator != 1 for x in image):
        return None
    return tuple(int(x) for x in image)


def recurrence_chains(partition, recurrence) -> List[Tuple[Point, ...]]:
    """Lemma 1 by the recurrence: the WHILE loop of Algorithm 1, point by point.

    From each W start, in lexicographic order, step by whichever of the map
    ``i·T + u`` and its inverse lands lexicographically later inside P2 (the
    dependence equation relates the two iterations symmetrically, so the
    forward direction may instantiate either reference).  Both qualifying
    would break Lemma 1's precondition, and raises :class:`ValueError`.
    """
    partition = sets(partition)
    p2 = set(partition.p2)
    directions = (recurrence, inverse_recurrence(recurrence))

    def forward_step(point):
        candidates = {
            nxt
            for nxt in (next_integer(d, point) for d in directions)
            if nxt is not None and nxt in p2 and lex_lt(point, nxt)
        }
        if len(candidates) > 1:
            raise ValueError(f"iteration {point} has {len(candidates)} forward successors in P2")
        return candidates.pop() if candidates else None

    chains = []
    for start in sorted(partition.w):
        chain = [start]
        nxt = forward_step(start)
        while nxt is not None and nxt not in chain:
            chain.append(nxt)
            nxt = forward_step(nxt)
        chains.append(tuple(chain))
    return chains


def chain_units(phase) -> List[Tuple[Point, ...]]:
    """The units of a planned P2 phase as tuples of points."""
    rows = [tuple(r) for r in phase.iters.tolist()]
    bounds = [0, *np.cumsum(phase.unit_lengths()).tolist()]
    return [tuple(rows[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def chains_by_dict_walk(partition) -> List[Tuple[Point, ...]]:
    """The greedy P2 chain walk over dict successor maps: from every head
    (no predecessor inside P2), then from every point no walk reached."""
    partition = sets(partition)
    p2 = set(partition.p2)
    succ: Dict[Point, List[Point]] = {}
    has_pred = set()
    for a, b in pairs(partition.rd):
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
    it, rounded inwards (``None`` where unbounded, ``(1, 0)`` where the
    projection is a contradiction)."""
    projected = simplified(
        eliminate_variables(simplified(rows), [v for v in variables if v != name])
    )
    if projected == [FALSE_ROW]:
        return 1, 0
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


# ---------------------------------------------------------------------------
# the rational evaluator reference
# ---------------------------------------------------------------------------
#
# ``ArrayRef.evaluate`` and ``Loop.evaluate_bounds`` run on integer rows.
# These are the ``Fraction`` evaluators they replaced, logic unchanged; the
# differential in ``tests/ir/test_integer_rows.py`` compares the two.


def rational_subscripts(ref, env) -> Tuple[int, ...]:
    """Concrete subscript values of ``ref``, evaluated over the rationals."""
    out = []
    for s in ref.subscripts:
        v = s.evaluate(env)
        if v.denominator != 1:
            raise ValueError(f"non-integer subscript value {v} for {ref}")
        out.append(int(v))
    return tuple(out)


def rational_bounds(loop, env) -> Tuple[int, int]:
    """Concrete ``(lo, hi)`` bounds of ``loop``, evaluated over the rationals."""
    lows = [b.evaluate(env) for b in loop.lower]
    highs = [b.evaluate(env) for b in loop.upper]
    for v in lows + highs:
        if v.denominator != 1:
            raise ValueError(f"non-integer bound value for loop {loop.index}")
    return int(max(lows)), int(min(highs))


def pseudo_distance_matrix(distances, dim) -> List[Point]:
    """The PDM as one Hermite normal form over every non-zero distance at
    once (an m × m ``U`` for m distances), each row made lex-positive."""
    rows = [list(d) for d in distances if any(x != 0 for x in d)]
    if not rows:
        return []
    H, _U = hermite_normal_form(rows)
    pdm = []
    for row in H:
        vec = tuple(int(x) for x in row)
        if any(vec):
            pdm.append(vec if is_lex_positive(vec) else tuple(-x for x in vec))
    return pdm
