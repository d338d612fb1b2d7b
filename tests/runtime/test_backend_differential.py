"""Property-based differential tests for the execution-backend registry.

The planning side pins its array engine bit-identical to a brute-force
oracle on Hypothesis-generated programs
(``tests/core/test_statement_differential.py``); this module does the same
for the runtime side: **every executing backend of
the registry — serial, process, compiled — must produce a final store
bit-identical to ``execute_sequential``** on the same generated program
stream, over *varied* initial stores (``make_store(fill="random", seed=...)``
— a schedule bug that only corrupts some initial contents still has to be
caught).

The schedules are the oracle's one-unit-per-instance wavefronts
(``tests/oracle.py::unit_schedule``, built from instance lists, never from
the planner) and **every registered strategy's schedule on a draw it
applies to** — so each builder (dataflow, recurrence chains, PDM, PL,
unique sets, DOACROSS, tiling, inner-parallel, symbolic boxes and coset
chains) is pinned bit-identical to the sequential run on every backend.
Every accepting strategy's plan must also pass ``Plan.validate()``, also
on loop trees with symbolic upper bounds (``parametric_programs()``).
Draws come from ``loop_programs()`` (loop trees: sibling loops at any
level, several top-level nests), ``symbolic_programs()`` (where
``symbolic`` and ``recurrence-chains`` apply) or ``lemma1_programs()`` (the
non-uniform single-pair nests where ``recurrence-chains`` builds chains by
Lemma 1).  The
process-backend property starts one 2-worker pool per example and runs
every schedule through it, on a reduced example budget.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import oracle
from repro.core.partitioner import PartitioningNotApplicable, dataflow_branch
from repro.core.strategy import PlanConfig, plan, strategy_names
from repro.runtime import execute, execute_sequential, make_store
from repro.runtime.process import ProcessPool, process_unavailable_reason
from strategies import lemma1_programs, loop_programs, parametric_programs, symbolic_programs

#: Every schedule source: the oracle's units, then each registered strategy.
KINDS = ("units",) + strategy_names()


def _schedules(prog):
    """``{kind: schedule}`` for every kind that applies to ``prog``."""
    out = {"units": oracle.unit_schedule(prog)}
    for name in KINDS[1:]:
        try:
            out[name] = plan(
                prog, config=PlanConfig(strategies=(name,)), cache=False
            ).schedule
        except PartitioningNotApplicable:
            continue
    return out


programs = st.one_of(loop_programs(), symbolic_programs(), lemma1_programs())


def _execute(prog, schedule, init, backend, **overrides):
    store = {k: v.copy() for k, v in init.items()}
    return execute(prog, schedule, {}, store=store, backend=backend, **overrides)


def _run(prog, schedule, init, backend, **overrides):
    return _execute(prog, schedule, init, backend, **overrides).store


def _assert_every_schedule_matches(prog, fill_seed, backend, **overrides):
    init = make_store(prog, fill="random", seed=fill_seed)
    ref = execute_sequential(prog, {}, store={k: v.copy() for k, v in init.items()})
    for kind, schedule in _schedules(prog).items():
        result = _execute(prog, schedule, init, backend, seed=fill_seed, **overrides)
        if backend == "compiled":
            assert result.meta.get("kernel") is True, (kind, result.meta)
        out = result.store
        for name in ref:
            assert np.array_equal(ref[name], out[name]), (
                f"{backend} diverged from sequential on {name!r} "
                f"running the {kind} schedule"
            )


class TestBackendDifferential:
    @given(prog=loop_programs(min_statements=2))
    def test_every_accepting_strategy_validates(self, prog):
        """Coverage, the dependence check against the analysis' one space,
        and the sequential result, for every strategy that accepts a loop
        tree of several statements — where sibling nests that reuse an
        index name occur."""
        for name in strategy_names():
            try:
                p = plan(prog, config=PlanConfig(strategies=(name,)), cache=False)
            except PartitioningNotApplicable:
                continue
            report = p.validate(seeds=(0,))
            assert report.ok, f"{name}: {report}"

    @given(drawn=parametric_programs())
    def test_every_accepting_strategy_validates_parametric(self, drawn):
        """The same, for loop trees with symbolic upper bounds, planned and
        validated at a drawn value of the parameter."""
        prog, params = drawn
        for name in strategy_names():
            try:
                p = plan(prog, params, config=PlanConfig(strategies=(name,)), cache=False)
            except PartitioningNotApplicable:
                continue
            report = p.validate(seeds=(0,))
            assert report.ok, f"{name}: {report}"

    @given(prog=programs, fill_seed=st.integers(0, 2**16))
    def test_serial_backend_bit_identical(self, prog, fill_seed):
        _assert_every_schedule_matches(prog, fill_seed, "serial")

    @given(prog=programs, fill_seed=st.integers(0, 2**16))
    def test_compiled_backend_bit_identical(self, prog, fill_seed):
        """Every schedule runs a kernel, never the serial fallback: the
        generated programs use the built-in semantics and integer
        subscripts.  Every schedule runs on the lockstep executor, symbolic
        plans lowered in closed form from their boxes and cosets."""
        _assert_every_schedule_matches(prog, fill_seed, "compiled")

    @pytest.mark.skipif(
        process_unavailable_reason() is not None,
        reason=f"process backend unavailable: {process_unavailable_reason()}",
    )
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=programs, fill_seed=st.integers(0, 2**16))
    def test_process_backend_bit_identical(self, prog, fill_seed):
        with ProcessPool(prog, workers=2) as pool:
            _assert_every_schedule_matches(prog, fill_seed, "process", pool=pool)

    @given(prog=loop_programs(min_statements=2), fill_seed=st.integers(0, 2**16))
    def test_backends_agree_across_engines(self, prog, fill_seed):
        """The oracle's units and the planned dataflow arrays of the same
        program execute to the same store through the registry."""
        init = make_store(prog, fill="random", seed=fill_seed)
        outs = [
            _run(prog, schedule, init, "serial")
            for schedule in (oracle.unit_schedule(prog), dataflow_branch(prog, {}).schedule)
        ]
        for name in outs[0]:
            assert np.array_equal(outs[0][name], outs[1][name])
