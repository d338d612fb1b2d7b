"""A brute-force, tuple-based oracle for the differential suites.

The planner runs on arrays only (codec keys, the sort/merge join, the CSR
Kahn peel).  These per-point implementations of the same definitions — the
exact dependences by a dict join on address tuples, eq. 5 by set algebra,
the literal while-loop of Algorithm 1's dataflow branch, the per-instance
§3.3 mapping — are what its results are compared against.  They are meant
to be obviously correct, not fast: keep inputs small (≲10⁴ points).

``tests/conftest.py`` puts this directory on ``sys.path``; the benchmarks
import it the same way (``benchmarks/conftest.py``).
"""

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.core.schedule import ExecutionUnit, ParallelPhase, Schedule
from repro.core.statement import UnifiedIndexMap
from repro.dependence.analysis import DependenceAnalysis
from repro.dependence.exact import enumerate_domain, reference_addresses
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
