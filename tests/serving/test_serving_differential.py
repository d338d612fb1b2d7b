"""Differential tests pinning daemon-served results to direct execution.

The serving layer must be a pure transport: for every backend the registry
exposes (``serial`` / ``threaded`` / ``process`` / ``compiled``), a result
served by :class:`~repro.serving.PlanServer` is **bit-identical** to the
one-shot ``plan()`` + ``execute()`` path and to ``execute_sequential`` —
over Hypothesis-generated programs, not just the curated examples.  The
warm paths (plan-cache hits, reused pools) must not change a single bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from repro.core.strategy import PlanConfig, plan
from repro.runtime import execute, execute_sequential, make_store
from repro.runtime.backends import ExecConfig
from repro.runtime.process import process_unavailable_reason
from repro.serving import PlanServer
from repro.workloads.corpus import selection_corpus
from strategies import loop_programs

needs_process = pytest.mark.skipif(
    process_unavailable_reason() is not None,
    reason=f"process backend unavailable: {process_unavailable_reason()}",
)

#: The always-applicable strategy whose schedules are pinned valid on
#: generated programs by the statement-level differential suite — the same
#: footing ``tests/runtime/test_backend_differential.py`` stands on, so the
#: property under test here is the *serving transport*, not the planner.
DATAFLOW = PlanConfig(strategies=("dataflow",))


def _served_matches_direct(srv, prog, backend, workers=2, params=None):
    """Serve (prog, backend) twice — cold then warm — and pin both against
    execute_sequential and the direct plan()+execute() one-shot path.

    The direct run uses the same ``ExecConfig`` (hence the same shuffle
    seed), so "bit-identical" really means identical, not just equivalent.
    """
    params = dict(params or {})
    cfg = ExecConfig(backend=backend, workers=workers)
    ref = execute_sequential(prog, params)

    p = plan(prog, params=params, config=DATAFLOW, cache=False)
    direct = execute(prog, p.schedule, params, config=cfg)

    for _ in range(2):  # second pass rides the warm plan cache (and pool)
        resp = srv.request(
            prog, params=params, config=DATAFLOW, exec_config=cfg, timeout=120
        )
        for name in ref:
            assert np.array_equal(ref[name], resp.result.store[name]), (
                f"served {backend} diverged from sequential on {name!r}"
            )
            assert np.array_equal(direct.store[name], resp.result.store[name]), (
                f"served {backend} diverged from direct execute on {name!r}"
            )


class TestServedBitIdentical:
    @given(prog=loop_programs())
    def test_serial_served(self, prog):
        with PlanServer() as srv:
            _served_matches_direct(srv, prog, "serial")

    @given(prog=loop_programs())
    def test_threaded_served(self, prog):
        with PlanServer() as srv:
            _served_matches_direct(srv, prog, "threaded")

    @given(prog=loop_programs())
    def test_compiled_served(self, prog):
        """The compiled backend (kernel or its documented serial fallback)
        serves bit-identical results through the daemon."""
        with PlanServer() as srv:
            _served_matches_direct(srv, prog, "compiled")

    @needs_process
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(prog=loop_programs())
    def test_process_served(self, prog):
        with PlanServer() as srv:
            _served_matches_direct(srv, prog, "process")


@needs_process
def test_one_server_all_backends_on_corpus_workload():
    """One long-lived server answers for every backend on a calibrated
    corpus workload; all answers match the sequential reference and the
    warm second pass hits both the plan cache and the persistent pool."""
    entry = selection_corpus(size="small")[0]
    prog, params = entry.program, entry.params
    ref = execute_sequential(prog, dict(params))
    with PlanServer() as srv:
        for backend in ("serial", "threaded", "compiled", "process"):
            cfg = ExecConfig(backend=backend, workers=2)
            cold = srv.request(prog, params=params, exec_config=cfg, timeout=120)
            warm = srv.request(prog, params=params, exec_config=cfg, timeout=120)
            assert warm.plan_cache_hit
            if backend == "process":
                assert warm.pool_reused
                assert warm.result.meta.get("pool") == "injected"
            for name in ref:
                assert np.array_equal(ref[name], cold.result.store[name])
                assert np.array_equal(ref[name], warm.result.store[name])


@given(prog=loop_programs())
def test_default_plan_served_identical_to_direct(prog):
    """With the *default* planning chain (whatever strategy wins), the
    daemon is a pure transport: served result ≡ direct plan()+execute()
    under the same ExecConfig, bit for bit."""
    p = plan(prog, cache=False)
    direct = execute(prog, p.schedule, {}, config=ExecConfig())
    with PlanServer() as srv:
        resp = srv.request(prog, timeout=120)
    assert resp.strategy == p.strategy
    for name in direct.store:
        assert np.array_equal(direct.store[name], resp.result.store[name])


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(prog=loop_programs(), fill_seed=st.integers(0, 2**16))
def test_varied_initial_stores_served(prog, fill_seed):
    """Client-supplied random initial stores round-trip through the daemon
    bit-identically to the sequential run on the same contents."""
    init = make_store(prog, fill="random", seed=fill_seed)
    ref = execute_sequential(
        prog, {}, store={k: v.copy() for k, v in init.items()}
    )
    with PlanServer() as srv:
        resp = srv.request(
            prog, config=DATAFLOW, store={k: v.copy() for k, v in init.items()}
        )
    for name in ref:
        assert np.array_equal(ref[name], resp.result.store[name])
