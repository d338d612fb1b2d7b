"""Differential tests for the symbolic-plan compiled kernel.

The ``symbolic`` strategy plans without materialising the iteration space and
the ``compiled`` backend executes through a generated NumPy module, so the
correctness story cannot lean on the enumerated reference sets the other
schemes share.  Instead the kernel is pinned **bit-identical to
``execute_sequential``** over a Hypothesis stream of symbolic-eligible
programs (every dimensionality, distance, offset and semantics shape the
generator covers), and the source → ``compile_function`` → run round trip is
exercised on every generated kernel.

The routing contract is pinned too: a schedule the kernel generator does not
serve (another scheme, several statements) runs through the lockstep
executor (:mod:`repro.runtime.lockstep`), and only a program neither kernel
can run (custom semantics) executes through the serial interpreter, with
the reason recorded in ``RunResult.meta`` — the ``compiled`` backend never
fails where ``serial`` would have succeeded.  Both kernels fill the caller's
arrays in place whatever their memory layout.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from repro.codegen.python_source import (
    clear_kernel_cache,
    compile_function,
    ensure_symbolic_kernel,
    generate_symbolic_kernel_source,
    kernel_cache_stats,
    kernel_reason,
    symbolic_kernel_reason,
)
from repro.core.schedule import Phase, Schedule
from repro.core.strategy import PlanConfig, plan
from repro.ir.builder import aref, assign, loop, program
from repro.ir.nodes import ArrayRef
from repro.isl.affine import AffineExpr
from repro.runtime import execute, execute_sequential, make_store
from repro.workloads.examples import figure1_loop
from repro.workloads.synthetic import large_uniform_loop
from strategies import symbolic_programs

SYMBOLIC = PlanConfig(strategies=("symbolic",))


def _xor_semantics(arrays, env, read_values):
    """A custom (non-vectorizable) semantics: the kernel must decline it."""
    acc = 1
    for v in read_values:
        acc ^= int(v)
    return acc


class TestDifferential:
    @given(prog=symbolic_programs())
    def test_compiled_bit_identical_to_sequential(self, prog):
        p = plan(prog, config=SYMBOLIC, cache=False)
        assert p.strategy == "symbolic"
        ref = execute_sequential(prog, {})
        result = execute(prog, p.schedule, {}, backend="compiled")
        assert result.meta.get("kernel") is True, result.meta  # no fallback
        assert set(ref) == set(result.store)
        assert all(np.array_equal(ref[k], result.store[k]) for k in ref)
        assert result.instances_executed == p.schedule.total_work
        assert result.phases_executed == p.schedule.num_phases

    @given(prog=symbolic_programs())
    def test_kernel_source_round_trips_through_compile_function(self, prog):
        """source -> compile_function -> run reproduces the sequential store
        on every generated kernel shape (phase mix, dimensionality,
        semantics)."""
        p = plan(prog, config=SYMBOLIC, cache=False)
        source = generate_symbolic_kernel_source(prog, p.schedule)
        fn = compile_function(source, "run_kernel")
        store = make_store(prog)
        stats = fn(store)
        ref = execute_sequential(prog, {})
        assert all(np.array_equal(ref[k], store[k]) for k in ref)
        # one stats row per phase: (name, instances, elapsed)
        assert [row[0] for row in stats] == [ph.name for ph in p.schedule.phases]
        assert [row[1] for row in stats] == [ph.work for ph in p.schedule.phases]
        assert all(row[2] >= 0.0 for row in stats)


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


class TestFallback:
    def test_non_symbolic_schedule_runs_the_lockstep_kernel(self):
        prog = figure1_loop(8, 8)
        p = plan(prog, cache=False)
        assert p.strategy != "symbolic"
        before = kernel_cache_stats()["size"]
        result = execute(prog, p.schedule, {}, backend="compiled")
        assert result.backend == "compiled"
        assert result.meta == {"kernel": True, "kernel_cache": "miss"}
        assert kernel_cache_stats()["size"] == before  # no generated module
        assert len(p.schedule.lowered) == 1
        ref = execute_sequential(prog, {})
        assert all(np.array_equal(ref[k], result.store[k]) for k in ref)
        again = execute(prog, p.schedule, {}, backend="compiled")
        assert again.meta == {"kernel": True, "kernel_cache": "hit"}

    @pytest.mark.parametrize("strategy", ["symbolic", "dataflow"])
    def test_custom_semantics_fall_back_to_serial(self, strategy):
        """Eligibility is syntactic, so the plan succeeds — but neither
        kernel can vectorise the semantics, and the backend runs the
        schedule through the interpreter instead."""
        prog = _custom_semantics_program()
        p = plan(prog, config=PlanConfig(strategies=(strategy,)), cache=False)
        assert p.strategy == strategy
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

    def test_kernel_reason_names_the_scheme(self):
        prog = figure1_loop(6, 6)
        p = plan(prog, cache=False)
        reason = symbolic_kernel_reason(prog, p.schedule)
        assert reason is not None and p.schedule.meta.get("scheme", "") in reason

    def test_missing_kernel_key_raises(self):
        prog = large_uniform_loop(6, 5)
        p = plan(prog, config=SYMBOLIC, cache=False)
        stripped = dict(p.schedule.meta)
        stripped.pop("kernel_key", None)
        object.__setattr__(p.schedule, "meta", stripped)
        try:
            with pytest.raises(ValueError, match="kernel_key"):
                ensure_symbolic_kernel(prog, p.schedule)
        finally:
            object.__setattr__(
                p.schedule, "meta", {**stripped, "kernel_key": "restored"}
            )


class TestKernelCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_kernel_cache()
        yield
        clear_kernel_cache()

    def test_miss_then_hit_on_same_plan(self):
        prog = large_uniform_loop(6, 5)
        p = plan(prog, config=SYMBOLIC, cache=False)
        fn1, status1 = ensure_symbolic_kernel(prog, p.schedule)
        fn2, status2 = ensure_symbolic_kernel(prog, p.schedule)
        assert (status1, status2) == ("miss", "hit")
        assert fn1 is fn2
        assert kernel_cache_stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_distinct_programs_get_distinct_kernels(self):
        a = large_uniform_loop(6, 5)
        b = large_uniform_loop(7, 4)
        pa = plan(a, config=SYMBOLIC, cache=False)
        pb = plan(b, config=SYMBOLIC, cache=False)
        fa, _ = ensure_symbolic_kernel(a, pa.schedule)
        fb, _ = ensure_symbolic_kernel(b, pb.schedule)
        assert fa is not fb
        assert kernel_cache_stats()["size"] == 2

    def test_backend_reports_cache_status(self):
        prog = large_uniform_loop(6, 5)
        p = plan(prog, config=SYMBOLIC, cache=False)
        first = execute(prog, p.schedule, {}, backend="compiled")
        again = execute(prog, p.schedule, {}, backend="compiled")
        assert first.meta["kernel_cache"] == "miss"
        assert again.meta["kernel_cache"] == "hit"

    def test_cache_is_lru_bounded(self, monkeypatch):
        """Regression: the kernel cache used to grow without limit — a
        memory leak in a long-lived server.  It is now an LRU with a cap."""
        from repro.codegen import python_source

        monkeypatch.setattr(python_source, "_KERNEL_CACHE_MAXSIZE", 2)
        progs = [large_uniform_loop(6 + i, 5) for i in range(3)]
        plans = [plan(p, config=SYMBOLIC, cache=False) for p in progs]
        kernels = [ensure_symbolic_kernel(p, pl.schedule)[0] for p, pl in zip(progs, plans)]
        assert kernel_cache_stats()["size"] == 2
        # oldest entry (progs[0]) was evicted: re-ensuring recompiles
        fn, status = ensure_symbolic_kernel(progs[0], plans[0].schedule)
        assert status == "miss"
        # newest entry is still warm
        fn2, status2 = ensure_symbolic_kernel(progs[2], plans[2].schedule)
        assert status2 == "hit" and fn2 is kernels[2]

    def test_cache_safe_under_concurrent_ensure(self):
        """Many threads compiling/hitting at once never corrupt the LRU."""
        import threading

        prog = large_uniform_loop(6, 5)
        p = plan(prog, config=SYMBOLIC, cache=False)
        fns, errors = [], []

        def worker():
            try:
                for _ in range(20):
                    fn, _ = ensure_symbolic_kernel(prog, p.schedule)
                    fns.append(fn)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert kernel_cache_stats()["size"] == 1
        # at most the initial compile race produces extra objects (last put
        # wins); once warm, everyone must be handed the one cached kernel
        assert len(set(map(id, fns))) <= len(threads)
        warm, status = ensure_symbolic_kernel(prog, p.schedule)
        assert status == "hit"
