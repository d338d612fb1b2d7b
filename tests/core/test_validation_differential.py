"""Differential tests for the schedule checks that run on codec keys.

``Schedule.covers`` / ``respects`` / ``violations`` (and so
``Plan.validate()``) locate every scheduled instance by the
:class:`~repro.isl.relations.PointCodec` key of its unified row;
``tests/oracle.py`` keeps the per-instance tuple walk they replaced.  On
Hypothesis-generated programs, for every strategy that accepts the program,
both must agree on the plan's schedule and on broken copies of it: phases
reversed, one instance dropped, one instance duplicated, and a
multi-instance unit split across two phases.  Run with
``--hypothesis-profile=ci`` for the derandomized fixed-budget profile CI
uses.
"""

import numpy as np
from hypothesis import given

import oracle
from repro.core import PlanConfig, plan
from repro.core.partitioner import PartitioningNotApplicable
from repro.core.schedule import Phase, Schedule
from repro.core.strategy import strategy_names
from strategies import lemma1_programs, loop_programs


def units_of(phase):
    """A phase's units as ``(stmt_ids, iters)`` array pairs, in order."""
    low = phase.lower()
    bounds = [0, *np.cumsum(low.unit_lengths()).tolist()]
    ids = np.asarray(low.stmt_ids)
    return [(ids[a:b], low.iters[a:b]) for a, b in zip(bounds, bounds[1:])]


def phase_of(name, units):
    return Phase(
        name,
        np.concatenate([ids for ids, _ in units]),
        np.concatenate([iters for _, iters in units]),
        np.cumsum([0] + [len(ids) for ids, _ in units]),
    )


def with_phases(schedule, phases):
    return Schedule.from_phases(schedule.name, phases, schedule.labels, schedule.depths)


def mutations(schedule):
    """Broken copies of a non-empty schedule, by name."""
    phases = [p.lower() for p in schedule.phases]
    out = {"reversed": with_phases(schedule, phases[::-1])}
    last = units_of(phases[-1])
    ids, iters = last[-1]
    shrunk = last[:-1] + ([(ids[:-1], iters[:-1])] if len(ids) > 1 else [])
    out["dropped"] = with_phases(
        schedule, phases[:-1] + ([phase_of(phases[-1].name, shrunk)] if shrunk else [])
    )
    first_ids, first_iters = units_of(phases[0])[0]
    extra = phase_of("extra", [(first_ids[:1], first_iters[:1])])
    out["duplicated"] = with_phases(schedule, phases + [extra])
    for k, phase in enumerate(phases):
        units = units_of(phase)
        long = [u for u, (ids, _) in enumerate(units) if len(ids) > 1]
        if long:
            u = long[0]
            ids, iters = units[u]
            head = units[:u] + [(ids[:1], iters[:1])] + units[u + 1:]
            tail = phase_of("tail", [(ids[1:], iters[1:])])
            # The tail runs a phase before its head: the chain is cut.
            split = phases[:k] + [tail, phase_of(phase.name, head)] + phases[k + 1:]
            out["split"] = with_phases(schedule, split)
            break
    return out


def assert_checks_match_oracle(prog, schedule, space, where):
    expected = [(label, tuple(it)) for label, it in prog.sequential_iterations({})]
    assert schedule.covers(space) == oracle.covers(schedule, expected), where
    relations = [space] + ([space.rd] if len(schedule.labels) == 1 else [])
    for deps in relations:
        want = oracle.violations(schedule, deps)
        assert sorted(schedule.violations(deps)) == sorted(want), where
        assert schedule.respects(deps) == (not want), where


def check_every_strategy(prog):
    for strategy in strategy_names():
        try:
            p = plan(prog, config=PlanConfig(strategies=(strategy,)), cache=False)
        except PartitioningNotApplicable:
            continue
        space = p.analysis.space
        assert p.schedule.covers(space), strategy
        assert p.schedule.respects(space), strategy
        assert_checks_match_oracle(prog, p.schedule, space, strategy)
        if not p.schedule.phases:
            continue
        for name, broken in mutations(p.schedule).items():
            assert_checks_match_oracle(prog, broken, space, (strategy, name))


@given(prog=loop_programs())
def test_checks_match_the_oracle_on_loop_trees(prog):
    check_every_strategy(prog)


@given(prog=lemma1_programs())
def test_checks_match_the_oracle_on_lemma1_nests(prog):
    check_every_strategy(prog)


@given(prog=lemma1_programs())
def test_mutations_break_what_they_claim(prog):
    """The dropped and duplicated copies always fail coverage, and the
    split copy of a chain fails the dependence check."""
    p = plan(prog, config=PlanConfig(strategies=("recurrence-chains", "dataflow")), cache=False)
    if not p.schedule.phases:
        return
    space = p.analysis.space
    broken = mutations(p.schedule)
    assert not broken["dropped"].covers(space)
    assert not broken["duplicated"].covers(space)
    if "split" in broken:
        assert broken["split"].covers(space)
        assert not broken["split"].respects(space)
