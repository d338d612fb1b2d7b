"""Differential tests for the closed-form lowering of symbolic plans.

The ``symbolic`` strategy plans without materialising the iteration space,
and the ``compiled`` backend lowers its phases straight from their boxes and
cosets (:func:`repro.runtime.lockstep.lower_schedule`): a DOALL box phase is
one block whose indices are outer sums of per-axis ``arange``s, and a coset
phase has one block per chain step, the still-active chains' ``flat(start) +
t·flat(u)``.  Pinned here over a Hypothesis stream of symbolic-eligible
programs (1-D to 3-D nests, negative and zero step components, empty P2):

* the closed-form blocks equal those of the generic lowering of the same
  schedule with every phase materialised, step by step, as sets of
  ``(read, write, term)`` instances;
* ``compiled`` is bit-identical to ``execute_sequential``;
* subscripts that NumPy counts from the end lower in closed form when they
  are negative on a whole box and through the generic path when only on
  part of it;
* a corrupted coset phase still raises the tiling error.

The backend contract rides along: ``compiled`` falls back to ``serial``
only for a program its kernel cannot run, with the reason in
``RunResult.meta``, and a content-equal program hits the cached lowering
without re-checking the program.
"""

import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from repro.codegen import python_source
from repro.codegen.python_source import kernel_cache_stats, kernel_reason
from repro.core.schedule import Phase, Schedule
from repro.core.strategy import PlanConfig, plan
from repro.core.symbolic import CosetChainPhase, SymbolicDoallPhase
from repro.ir.builder import aref, assign, loop, program
from repro.ir.nodes import ArrayRef
from repro.isl.affine import AffineExpr
from repro.runtime import execute, execute_sequential, make_store
from repro.runtime.lockstep import lower_schedule
from repro.workloads.examples import figure1_loop
from repro.workloads.synthetic import large_uniform_loop
from strategies import symbolic_programs

SYMBOLIC = PlanConfig(strategies=("symbolic",))


def _copy(store):
    return {k: v.copy() for k, v in store.items()}


def _shapes(prog):
    return {name: tuple(shape) for name, shape in prog.array_shapes.items()}


def _materialised(schedule):
    """The oracle: the same schedule with every phase lowered to arrays."""
    return Schedule.from_phases(
        schedule.name, [ph.lower() for ph in schedule.phases], schedule.labels, schedule.depths
    )


def _instances(block):
    """A block as its semantics, its array slots and its instances, one
    ``(reads..., writes..., term)`` row each, sorted."""
    twin, reads, writes, term = block
    slots = tuple(k for k, rows in reads for _ in rows) + tuple(k for k, _ in writes)
    table = np.stack(
        [row for _, rows in reads for row in rows] + [idx for _, idx in writes] + [term], axis=1
    )
    return twin, slots, table[np.lexsort(table.T[::-1])]


def _assert_same_lowering(closed, oracle):
    assert closed.arrays == oracle.arrays
    assert len(closed.phases) == len(oracle.phases)
    for (name, work, body), (o_name, o_work, o_body) in zip(closed.phases, oracle.phases):
        assert (name, work) == (o_name, o_work)
        if isinstance(o_body, Phase):
            assert body == o_body, name
            continue
        assert len(body) == len(o_body), name
        for step, (block, o_block) in enumerate(zip(body, o_body)):
            twin, slots, table = _instances(block)
            o_twin, o_slots, o_table = _instances(o_block)
            assert twin is o_twin and slots == o_slots, (name, step)
            assert np.array_equal(table, o_table), (name, step)


def _symbolic_nest(bounds, shift, offsets=None, lowers=None, shape=None):
    """``x(I + off) = f(x(I + off - shift))`` over ``[lower, bound]`` per axis."""
    names = ("I1", "I2", "I3")[: len(bounds)]
    offsets = offsets or [2] * len(bounds)
    lowers = lowers or [1] * len(bounds)

    def sub(name, delta):
        return f"{name}+{delta}" if delta > 0 else f"{name}{delta}" if delta else name

    body = assign(
        "s",
        aref("x", *(sub(n, a) for n, a in zip(names, offsets))),
        [aref("x", *(sub(n, a - d) for n, a, d in zip(names, offsets, shift)))],
    )
    for name, lower, bound in reversed(list(zip(names, lowers, bounds))):
        body = loop(name, lower, bound, body)
    return program(
        "symbolic-nest", body, array_shapes={"x": shape or tuple(b + 7 for b in bounds)}
    )


#: Deterministic shapes the Hypothesis stream covers only by chance.
CASES = {
    "1-d": _symbolic_nest([6], [1]),
    "empty-p2": _symbolic_nest([3], [2]),
    "3-d-negative-and-zero-step": _symbolic_nest([4, 5, 4], [1, 0, -2]),
    "2-d-zero-leading": _symbolic_nest([5, 6], [0, 2]),
    "large-uniform": large_uniform_loop(9, 7),
}


class TestClosedForm:
    @given(prog=symbolic_programs())
    def test_blocks_match_the_materialised_lowering(self, prog):
        schedule = plan(prog, config=SYMBOLIC, cache=False).schedule
        _assert_same_lowering(
            lower_schedule(prog, schedule, _shapes(prog)),
            lower_schedule(prog, _materialised(schedule), _shapes(prog)),
        )

    @given(prog=symbolic_programs(), fill_seed=st.integers(0, 2**16))
    def test_compiled_bit_identical_to_sequential(self, prog, fill_seed):
        p = plan(prog, config=SYMBOLIC, cache=False)
        assert p.strategy == "symbolic"
        init = make_store(prog, fill="random", seed=fill_seed)
        ref = execute_sequential(prog, {}, store=_copy(init))
        result = execute(prog, p.schedule, {}, store=_copy(init), backend="compiled")
        assert result.meta == {"kernel": True, "kernel_cache": "miss"}
        assert all(np.array_equal(ref[k], result.store[k]) for k in ref)
        assert result.instances_executed == p.schedule.total_work
        assert result.phases_executed == p.schedule.num_phases

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_deterministic_cases(self, case):
        prog = CASES[case]
        schedule = plan(prog, config=SYMBOLIC, cache=False).schedule
        _assert_same_lowering(
            lower_schedule(prog, schedule, _shapes(prog)),
            lower_schedule(prog, _materialised(schedule), _shapes(prog)),
        )
        result = execute(prog, schedule, {}, backend="compiled")
        ref = execute_sequential(prog, {})
        assert all(np.array_equal(ref[k], result.store[k]) for k in ref)
        if case == "empty-p2":
            assert not any(isinstance(ph, CosetChainPhase) for ph in schedule.phases)

    def test_no_phase_is_materialised(self, monkeypatch):
        """Neither symbolic phase class is enumerated: lowering calls no
        ``lower()`` when every phase takes the closed form."""
        prog = large_uniform_loop(40, 30)
        schedule = plan(prog, config=SYMBOLIC, cache=False).schedule
        oracle = lower_schedule(prog, _materialised(schedule), _shapes(prog))

        def refuse(self):
            raise AssertionError(f"{self.name} was materialised")

        monkeypatch.setattr(SymbolicDoallPhase, "lower", refuse)
        monkeypatch.setattr(CosetChainPhase, "lower", refuse)
        _assert_same_lowering(lower_schedule(prog, schedule, _shapes(prog)), oracle)

    @pytest.mark.parametrize("lower, upper, closed_form", [(-12, -4, True), (-6, 6, False)])
    def test_negative_subscripts_count_from_the_end(
        self, lower, upper, closed_form, monkeypatch
    ):
        """``x(I1+2, I2+2)`` with ``I1`` in ``[lower, upper]`` and an axis of
        30: negative all along the chains, which lower in closed form, or on
        part of them only, which takes the generic path; either way the
        result is NumPy's."""
        prog = _symbolic_nest([upper, 5], [1, 0], lowers=[lower, 1], shape=(30, 9))
        schedule = plan(prog, config=SYMBOLIC, cache=False).schedule
        oracle = lower_schedule(prog, _materialised(schedule), _shapes(prog))
        materialised = []
        coset_lower = CosetChainPhase.lower

        def counted(self):
            materialised.append(self.name)
            return coset_lower(self)

        monkeypatch.setattr(CosetChainPhase, "lower", counted)
        closed = lower_schedule(prog, schedule, _shapes(prog))
        assert materialised == ([] if closed_form else ["P2-chains"])
        _assert_same_lowering(closed, oracle)
        init = make_store(prog, fill="random", seed=5)
        ref = execute_sequential(prog, {}, store=_copy(init))
        store = _copy(init)
        closed(store)
        assert np.array_equal(ref["x"], store["x"])

    def test_out_of_bounds_subscripts_raise(self):
        prog = _symbolic_nest([6, 5], [1, 1], shape=(7, 7))
        schedule = plan(prog, config=SYMBOLIC, cache=False).schedule
        with pytest.raises(IndexError, match="out of bounds"):
            lower_schedule(prog, schedule, _shapes(prog))

    def test_corrupted_coset_phase_raises_the_tiling_error(self):
        prog = large_uniform_loop(6, 5)
        schedule = plan(prog, config=SYMBOLIC, cache=False).schedule
        phases = [
            CosetChainPhase(ph.name, ph.start_boxes * 2, ph.step, ph.box)
            if isinstance(ph, CosetChainPhase) else ph
            for ph in schedule.phases
        ]
        corrupted = Schedule.for_program("corrupted", prog, phases)
        with pytest.raises(RuntimeError, match="do not tile P2"):
            lower_schedule(prog, corrupted, _shapes(prog))


def _xor_semantics(arrays, env, read_values):
    """A custom (non-vectorizable) semantics: the kernel must decline it."""
    acc = 1
    for v in read_values:
        acc ^= int(v)
    return acc


def _custom_semantics_program():
    body = assign(
        "s", aref("x", "I1+1", "I2+1"), [aref("x", "I1", "I2")],
        semantics=_xor_semantics,
    )
    return program(
        "custom-sem",
        loop("I1", 1, 6, loop("I2", 1, 5, body)),
        array_shapes={"x": (8, 7)},
    )


class TestBackendContract:
    @pytest.mark.parametrize("strategy", ["symbolic", "dataflow"])
    def test_custom_semantics_fall_back_to_serial(self, strategy):
        """Eligibility is syntactic, so the plan succeeds — but the kernel
        cannot vectorise the semantics, and the backend runs the schedule
        through the interpreter instead."""
        prog = _custom_semantics_program()
        p = plan(prog, config=PlanConfig(strategies=(strategy,)), cache=False)
        assert p.strategy == strategy
        for _ in range(2):  # a refusal is not cached
            result = execute(prog, p.schedule, {}, backend="compiled")
            assert result.meta["fallback"] == "serial"
            assert "semantics" in result.meta["reason"]
        assert not p.schedule.lowered
        ref = execute_sequential(prog, {})
        assert all(np.array_equal(ref[k], result.store[k]) for k in ref)

    def test_non_integer_subscripts_fall_back_to_serial(self):
        """``x((I1 + I2) / 2)`` is an integer only because ``I2 = I1``: a
        subscript row with denominator 2, which only the interpreter
        evaluates."""
        half = AffineExpr.build({"I1": Fraction(1, 2), "I2": Fraction(1, 2)}, 0)
        body = assign("s", ArrayRef.make("x", [half]), [ArrayRef.make("x", [half - 1])])
        prog = program(
            "halves", loop("I1", 1, 6, loop("I2", "I1", "I1", body)),
            array_shapes={"x": (7,)},
        )
        assert "non-integer" in kernel_reason(prog)
        iters = [it for _, it in prog.sequential_iterations({})]
        sequential = Schedule.for_program(
            "one-unit", prog, [Phase("all", 0, iters, unit_offsets=[0, len(iters)])]
        )
        result = execute(prog, sequential, {}, backend="compiled")
        assert result.meta["fallback"] == "serial"
        assert "non-integer" in result.meta["reason"]
        ref = execute_sequential(prog, {})
        assert all(np.array_equal(ref[k], result.store[k]) for k in ref)

    @pytest.mark.parametrize("strategy", ["symbolic", "dataflow"])
    def test_decoded_twin_hits_without_rechecking_the_program(self, strategy, monkeypatch):
        """A plan server decodes a fresh program per request: its lowering
        key hits, and ``kernel_reason`` runs only on the miss that built the
        lowered form."""
        prog = large_uniform_loop(7, 6)
        p = plan(prog, config=PlanConfig(strategies=(strategy,)), cache=False)
        calls = []

        def counted(program):
            calls.append(program)
            return kernel_reason(program)

        monkeypatch.setattr(python_source, "kernel_reason", counted)
        first = execute(prog, p.schedule, {}, backend="compiled")
        twin = copy.deepcopy(prog)
        assert twin is not prog
        before = kernel_cache_stats()
        again = execute(twin, p.schedule, {}, backend="compiled")
        assert (first.meta["kernel_cache"], again.meta["kernel_cache"]) == ("miss", "hit")
        assert calls == [prog]
        assert kernel_cache_stats()["hits"] == before["hits"] + 1
        ref = execute_sequential(prog, {})
        assert all(np.array_equal(ref[k], again.store[k]) for k in ref)

    def test_every_schedule_runs_one_kernel(self):
        for prog, config in (
            (large_uniform_loop(6, 5), SYMBOLIC),
            (figure1_loop(8, 8), PlanConfig()),
        ):
            p = plan(prog, config=config, cache=False)
            first = execute(prog, p.schedule, {}, backend="compiled")
            again = execute(prog, p.schedule, {}, backend="compiled")
            assert first.meta == {"kernel": True, "kernel_cache": "miss"}
            assert again.meta == {"kernel": True, "kernel_cache": "hit"}
            assert len(p.schedule.lowered) == 1
