"""Differential tests for the lockstep executor (:mod:`repro.runtime.lockstep`).

The ``compiled`` backend runs every schedule by lowering it once into
``(step, statement)`` blocks of flat indices and running each block as
gather → vectorised semantics → scatter.  The lowered form is pinned
**bit-identical to ``execute_sequential``** over Hypothesis streams of:

* every strategy's schedule and the oracle's one-unit-per-instance
  wavefronts (DOALL phases) on loop trees of several statements with sibling
  nests (``loop_programs()``), Lemma 1 nests (``lemma1_programs()``, whose
  recurrence-chain plans hold CSR chains) and symbolic nests, whose phases
  lower in closed form (``tests/runtime/test_symbolic_lowering.py`` pins
  that lowering against the materialised one);
* the oracle's wavefronts with each level's instances shuffled and cut into
  units of random lengths — CSR chains of mixed statements whose steps
  hold ragged sets of units (any grouping is valid, since the instances of
  one level are independent).

The stores vary (seeded random contents, Fortran order, strided views,
int32), and the kernel must fill the caller's arrays in place.  The cache
contract is pinned as well: one lowering per schedule, a hit for a
content-equal program, a rebuild for new shapes, and a dropped plan frees
its lowered arrays.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

import oracle
from repro.codegen.python_source import ensure_symbolic_kernel, kernel_cache_stats
from repro.core.partitioner import PartitioningNotApplicable
from repro.core.schedule import Phase, Schedule
from repro.core.strategy import PlanConfig, plan, strategy_names
from repro.runtime import execute, execute_sequential, make_store
from repro.runtime.lockstep import lower_schedule
from repro.workloads.examples import figure1_loop
from repro.workloads.synthetic import large_uniform_loop
from strategies import lemma1_programs, loop_programs, symbolic_programs

programs = st.one_of(
    loop_programs(min_statements=2), loop_programs(), lemma1_programs(), symbolic_programs()
)


def _copy(store):
    return {k: v.copy() for k, v in store.items()}


def _shapes(prog):
    return {name: tuple(shape) for name, shape in prog.array_shapes.items()}


def _schedules(prog):
    out = {"units": oracle.unit_schedule(prog)}
    for name in strategy_names():
        try:
            out[name] = plan(prog, config=PlanConfig(strategies=(name,)), cache=False).schedule
        except PartitioningNotApplicable:
            continue
    return out


def _regrouped(schedule, rng):
    """Each phase's instances shuffled and cut into units of random length."""
    phases = []
    for phase in schedule.phases:
        lowered = phase.lower()
        perm = rng.permutation(lowered.work)
        cuts = np.flatnonzero(rng.random(lowered.work - 1) < 0.4) + 1
        offsets = np.concatenate(([0], cuts, [lowered.work]))
        phases.append(Phase(phase.name, lowered.stmt_ids[perm], lowered.iters[perm], offsets))
    return Schedule.from_phases(
        f"{schedule.name}-regrouped", phases, schedule.labels, schedule.depths
    )


def _assert_same(ref, out, what):
    for name in ref:
        assert np.array_equal(ref[name], out[name]), f"{what} diverged on {name!r}"


class TestDifferential:
    @given(prog=programs, fill_seed=st.integers(0, 2**16))
    def test_every_schedule_lowers_bit_identical(self, prog, fill_seed):
        init = make_store(prog, fill="random", seed=fill_seed)
        ref = execute_sequential(prog, {}, store=_copy(init))
        for kind, schedule in _schedules(prog).items():
            store = _copy(init)
            stats = lower_schedule(prog, schedule, _shapes(prog))(store)
            _assert_same(ref, store, kind)
            assert [row[:2] for row in stats] == [
                (phase.name, phase.work) for phase in schedule.phases
            ]

    def test_phases_of_long_chains_run_through_the_interpreter(self):
        prog = large_uniform_loop(6, 5)
        for schedule, interpreted in ((_one_unit(prog), True), (_planned(prog, "dataflow"), False)):
            lowered = lower_schedule(prog, schedule, _shapes(prog))
            assert all(isinstance(body, Phase) == interpreted for _, _, body in lowered.phases)
            store = make_store(prog)
            lowered(store)
            _assert_same(execute_sequential(prog, {}), store, schedule.name)

    @given(prog=programs, fill_seed=st.integers(0, 2**16), cut_seed=st.integers(0, 2**16))
    def test_ragged_chains_bit_identical(self, prog, fill_seed, cut_seed):
        schedule = _regrouped(oracle.unit_schedule(prog), np.random.default_rng(cut_seed))
        init = make_store(prog, fill="random", seed=fill_seed)
        ref = execute_sequential(prog, {}, store=_copy(init))
        for backend in ("serial", "compiled"):
            result = execute(prog, schedule, {}, store=_copy(init), backend=backend)
            _assert_same(ref, result.store, backend)
        assert result.meta["kernel"] is True
        assert result.instances_executed == schedule.total_work


def _fortran(array):
    return np.asfortranarray(array)


def _strided(array):
    """A view of every other row and every third column of a larger array."""
    big = np.full(tuple(2 * n for n in array.shape[:-1]) + (3 * array.shape[-1],), -7)
    view = big[(slice(None, None, 2),) * (array.ndim - 1) + (slice(None, None, 3),)]
    view[...] = array
    return view


def _int32(array):
    return array.astype(np.int32)


def _one_unit(prog):
    """The program's instances as one unit, in sequential order."""
    iters = [it for _, it in prog.sequential_iterations({})]
    return Schedule.for_program(
        "one-unit", prog, [Phase("all", 0, iters, unit_offsets=[0, len(iters)])]
    )


def _planned(prog, strategy):
    return plan(prog, config=PlanConfig(strategies=(strategy,)), cache=False).schedule


#: One schedule per way ``compiled`` lowers a phase: a symbolic plan's
#: boxes and cosets in closed form, a dataflow plan's materialised phases as
#: lockstep blocks, and one long unit for the interpreter on the lowered
#: arrays.
KERNELS = {
    "symbolic": lambda prog: _planned(prog, "symbolic"),
    "lockstep": lambda prog: _planned(prog, "dataflow"),
    "interpreted": _one_unit,
}


class TestStoreLayouts:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("layout", [_fortran, _strided, _int32])
    def test_kernels_fill_the_callers_arrays_in_place(self, kernel, layout):
        prog = large_uniform_loop(7, 6)
        schedule = KERNELS[kernel](prog)
        init = make_store(prog, fill="random", seed=3)
        ref = execute_sequential(prog, {}, store=_copy(init))
        store = {name: layout(array) for name, array in init.items()}
        arrays = dict(store)
        result = execute(prog, schedule, {}, store=store, backend="compiled")
        assert result.meta["kernel"] is True
        for name in ref:
            assert result.store[name] is arrays[name]
            assert np.array_equal(arrays[name], ref[name]), name
        if layout is _strided:
            for array in arrays.values():
                base = array.base
                untouched = np.ones(base.shape, dtype=bool)
                untouched[(slice(None, None, 2),) * (base.ndim - 1) + (slice(None, None, 3),)] = False
                assert (base[untouched] == -7).all()


class TestLoweringCache:
    def test_one_lowering_per_schedule(self):
        prog = figure1_loop(6, 6)
        p = plan(prog, cache=False)
        before = kernel_cache_stats()
        first = execute(prog, p.schedule, {}, backend="compiled")
        again = execute(prog, p.schedule, {}, backend="compiled")
        after = kernel_cache_stats()
        assert (first.meta["kernel_cache"], again.meta["kernel_cache"]) == ("miss", "hit")
        assert after["misses"] - before["misses"] == 1
        assert after["hits"] - before["hits"] == 1

    def test_content_equal_program_hits(self):
        """A plan server decodes a fresh program per request and finds the
        cached plan: the lowered form is keyed on content, not identity."""
        p = plan(figure1_loop(6, 6), cache=False)
        execute(p.program, p.schedule, {}, backend="compiled")
        twin = figure1_loop(6, 6)
        assert twin is not p.program
        result = execute(twin, p.schedule, {}, backend="compiled")
        assert result.meta["kernel_cache"] == "hit"

    def test_new_shapes_relower(self):
        prog = figure1_loop(6, 6)
        p = plan(prog, cache=False)
        execute(prog, p.schedule, {}, backend="compiled")
        init = make_store(prog)
        wider = {name: np.zeros((n + 3, m + 2), dtype=np.int64) for name, (n, m) in
                 ((k, v.shape) for k, v in init.items())}
        for name, array in init.items():
            wider[name][: array.shape[0], : array.shape[1]] = array
        result = execute(prog, p.schedule, {}, store=_copy(wider), backend="compiled")
        assert result.meta["kernel_cache"] == "miss"
        ref = execute_sequential(prog, {}, store=_copy(wider))
        _assert_same(ref, result.store, "re-lowered")
        assert len(p.schedule.lowered) == 1

    def test_lowering_is_idempotent(self):
        prog = figure1_loop(6, 6)
        p = plan(prog, cache=False)
        store = make_store(prog)
        lowered, status = ensure_symbolic_kernel(prog, p.schedule, store)
        again, status_again = ensure_symbolic_kernel(prog, p.schedule, store)
        assert (status, status_again) == ("miss", "hit") and lowered is again

    def test_dropped_plan_frees_its_lowered_arrays(self):
        prog = figure1_loop(8, 8)
        p = plan(prog, cache=False)
        execute(prog, p.schedule, {}, backend="compiled")
        (lowered,) = p.schedule.lowered.values()
        blocks = next(body for _, _, body in lowered.phases if isinstance(body, tuple))
        index = blocks[0][3]  # one block's iteration term
        refs = [weakref.ref(lowered), weakref.ref(index.base if index.base is not None else index)]
        del lowered, blocks, index, p
        gc.collect()
        assert all(r() is None for r in refs)
