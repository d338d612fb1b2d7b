"""Property-based differential tests for the execution-backend registry.

The planning side pins its array engine bit-identical to a brute-force
oracle on Hypothesis-generated programs
(``tests/core/test_statement_differential.py``); this module does the same
for the runtime side: **every executing backend of
the registry — serial, threaded, process — must produce a final store
bit-identical to ``execute_sequential``** on the same generated program
stream, over *varied* initial stores (``make_store(fill="random", seed=...)``
— a schedule bug that only corrupts some initial contents still has to be
caught).

The schedules come from the always-applicable dataflow strategy — as planned
(array phases) or as the oracle's tuple block units — whose validity on
generated programs is already pinned by the statement-level differential
suite; here the property under test is the *executor*, not the partitioner.  The process-backend property forks a 2-worker pool per example,
so it runs a reduced example budget.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import oracle
from repro.core.partitioner import dataflow_branch
from repro.runtime import execute, execute_sequential, make_store
from repro.runtime.process import process_unavailable_reason
from strategies import loop_programs

#: The two phase shapes an executor must run: tuple units and arrays.
KINDS = st.sampled_from(["units", "arrays"])


def _schedule(prog, kind):
    if kind == "units":
        return oracle.unit_schedule(prog)
    return dataflow_branch(prog, {}).schedule


def _reference_and_schedule(prog, kind, fill_seed):
    schedule = _schedule(prog, kind)
    init = make_store(prog, fill="random", seed=fill_seed)
    ref = execute_sequential(
        prog, {}, store={k: v.copy() for k, v in init.items()}
    )
    return schedule, init, ref

def _assert_backend_matches(prog, schedule, init, ref, backend, **overrides):
    store = {k: v.copy() for k, v in init.items()}
    result = execute(prog, schedule, {}, store=store, backend=backend, **overrides)
    for name in ref:
        assert np.array_equal(ref[name], result.store[name]), (
            f"{backend} diverged from sequential on {name!r}"
        )


class TestBackendDifferential:
    @given(prog=loop_programs(), kind=KINDS, fill_seed=st.integers(0, 2**16))
    def test_serial_backend_bit_identical(self, prog, kind, fill_seed):
        schedule, init, ref = _reference_and_schedule(prog, kind, fill_seed)
        _assert_backend_matches(prog, schedule, init, ref, "serial", seed=fill_seed)

    @given(prog=loop_programs(), kind=KINDS, fill_seed=st.integers(0, 2**16))
    def test_threaded_backend_bit_identical(self, prog, kind, fill_seed):
        schedule, init, ref = _reference_and_schedule(prog, kind, fill_seed)
        _assert_backend_matches(
            prog, schedule, init, ref, "threaded", workers=2, seed=fill_seed
        )

    @pytest.mark.skipif(
        process_unavailable_reason() is not None,
        reason=f"process backend unavailable: {process_unavailable_reason()}",
    )
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=loop_programs(), kind=KINDS, fill_seed=st.integers(0, 2**16))
    def test_process_backend_bit_identical(self, prog, kind, fill_seed):
        schedule, init, ref = _reference_and_schedule(prog, kind, fill_seed)
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
