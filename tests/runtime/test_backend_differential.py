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

The schedules come in three kinds: the always-applicable dataflow strategy
as planned (array phases) or as the oracle's tuple block units, whose
validity on generated programs is already pinned by the statement-level
differential suite, and the ``symbolic`` strategy on symbolic-eligible
programs (``SymbolicDoallPhase`` boxes and ``CosetChainPhase`` chains).  The
property under test is the *executor*, not the partitioner.  The
process-backend property forks a 2-worker pool per example, so it runs a
reduced example budget.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import oracle
from repro.core.partitioner import dataflow_branch
from repro.core.strategy import PlanConfig, plan
from repro.core.symbolic import CosetChainPhase, SymbolicDoallPhase
from repro.runtime import execute, execute_sequential, make_store
from repro.runtime.process import process_unavailable_reason
from strategies import loop_programs, symbolic_programs

#: The phase shapes an executor must run: tuple units, arrays, and the
#: symbolic strategy's boxes and coset chains.
KINDS = ("units", "arrays", "symbolic")

SYMBOLIC = PlanConfig(strategies=("symbolic",))


@st.composite
def cases(draw):
    """A ``(program, kind)`` pair: symbolic-eligible programs for the
    ``symbolic`` kind, general generated nests otherwise."""
    kind = draw(st.sampled_from(KINDS))
    prog = draw(symbolic_programs() if kind == "symbolic" else loop_programs())
    return prog, kind


def _schedule(prog, kind):
    if kind == "units":
        return oracle.unit_schedule(prog)
    if kind == "symbolic":
        schedule = plan(prog, config=SYMBOLIC, cache=False).schedule
        assert all(
            isinstance(ph, (SymbolicDoallPhase, CosetChainPhase))
            for ph in schedule.phases
        )
        return schedule
    return dataflow_branch(prog, {}).schedule


def _reference_and_schedule(case, fill_seed):
    prog, kind = case
    schedule = _schedule(prog, kind)
    init = make_store(prog, fill="random", seed=fill_seed)
    ref = execute_sequential(
        prog, {}, store={k: v.copy() for k, v in init.items()}
    )
    return prog, schedule, init, ref


def _assert_backend_matches(prog, schedule, init, ref, backend, **overrides):
    store = {k: v.copy() for k, v in init.items()}
    result = execute(prog, schedule, {}, store=store, backend=backend, **overrides)
    for name in ref:
        assert np.array_equal(ref[name], result.store[name]), (
            f"{backend} diverged from sequential on {name!r}"
        )


class TestBackendDifferential:
    @given(case=cases(), fill_seed=st.integers(0, 2**16))
    def test_serial_backend_bit_identical(self, case, fill_seed):
        prog, schedule, init, ref = _reference_and_schedule(case, fill_seed)
        _assert_backend_matches(prog, schedule, init, ref, "serial", seed=fill_seed)

    @given(case=cases(), fill_seed=st.integers(0, 2**16))
    def test_compiled_backend_bit_identical(self, case, fill_seed):
        """Symbolic schedules run their generated kernel; the others take the
        serial fallback."""
        prog, schedule, init, ref = _reference_and_schedule(case, fill_seed)
        _assert_backend_matches(prog, schedule, init, ref, "compiled", seed=fill_seed)

    @pytest.mark.skipif(
        process_unavailable_reason() is not None,
        reason=f"process backend unavailable: {process_unavailable_reason()}",
    )
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=cases(), fill_seed=st.integers(0, 2**16))
    def test_process_backend_bit_identical(self, case, fill_seed):
        prog, schedule, init, ref = _reference_and_schedule(case, fill_seed)
        _assert_backend_matches(
            prog, schedule, init, ref, "process", workers=2, seed=fill_seed
        )

    @given(prog=loop_programs(min_statements=2), fill_seed=st.integers(0, 2**16))
    def test_backends_agree_across_engines(self, prog, fill_seed):
        """Tuple-unit and array schedules of the same program execute to the
        same store through the registry (phase kind must not matter)."""
        set_schedule = _schedule(prog, "units")
        vec_schedule = _schedule(prog, "arrays")
        init = make_store(prog, fill="random", seed=fill_seed)
        outs = []
        for schedule in (set_schedule, vec_schedule):
            store = {k: v.copy() for k, v in init.items()}
            outs.append(
                execute(prog, schedule, {}, store=store, backend="serial").store
            )
        for name in outs[0]:
            assert np.array_equal(outs[0][name], outs[1][name])
