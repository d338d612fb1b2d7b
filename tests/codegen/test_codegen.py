"""Tests for repro.codegen: bounds, listings and executable generated code."""

import numpy as np
import pytest

import oracle
from repro.codegen import (
    chain_subroutine,
    compile_function,
    doall_nest_listing,
    generate_chain_function,
    generate_schedule_runner,
    nest_bounds,
    rec_partition_listing,
    render_affine,
)
from repro.core import AffineRecurrence, PlanConfig, plan, symbolic_three_set_partition
from repro.core.chains import CHAIN_PHASE
from repro.dependence import DependenceAnalysis, symbolic_dependence_relation
from repro.ir.semantics import DEFAULT_SEMANTICS
from repro.isl.affine import var
from repro.isl.convex import Constraint, ConvexSet
from repro.isl.enumerate_points import enumerate_convex
from repro.runtime import execute_sequential, make_store
from repro.workloads.examples import figure1_loop, figure2_loop


#: Algorithm 1: the recurrence-chain branch where Lemma 1 applies, else dataflow.
ALGORITHM1 = PlanConfig(strategies=("recurrence-chains", "dataflow"))


class TestBounds:
    def test_render_affine(self):
        assert render_affine(var("i") * 2 + 1) == "2*i+1"
        assert render_affine(var("i") - var("j")) in ("i-j", "-j+i")

    def test_box_bounds(self):
        cs = ConvexSet.from_box(["i", "j"], [(1, 10), (2, 8)])
        nb = nest_bounds(cs)
        assert nb.is_bounded()
        assert nb.levels[0].render_lower() == "1"
        assert nb.levels[0].render_upper() == "10"
        assert nb.levels[1].render_lower() == "2"

    def test_triangular_bounds(self):
        cs = ConvexSet.from_constraints(
            ["i", "j"],
            [
                Constraint.ge("i", 1),
                Constraint.le("i", 6),
                Constraint.ge("j", "i"),
                Constraint.le("j", 6),
            ],
        )
        nb = nest_bounds(cs)
        assert "i" in nb.levels[1].render_lower()

    def test_bounds_evaluate_to_exact_enumeration(self):
        cs = ConvexSet.from_constraints(
            ["i", "j"],
            [
                Constraint.ge("i", 0),
                Constraint.le(var("i") * 2, 9),
                Constraint.ge("j", "i"),
                Constraint.le("j", 5),
            ],
        )
        nb = nest_bounds(cs)
        generated = []
        lo0 = max(b.evaluate({}) for b in nb.levels[0].lowers)
        hi0 = min(b.evaluate({}) for b in nb.levels[0].uppers)
        for i in range(lo0, hi0 + 1):
            lo1 = max(b.evaluate({"i": i}) for b in nb.levels[1].lowers)
            hi1 = min(b.evaluate({"i": i}) for b in nb.levels[1].uppers)
            for j in range(lo1, hi1 + 1):
                if all(g.satisfied_by({"i": i, "j": j}) for g in nb.guards):
                    generated.append((i, j))
        assert generated == enumerate_convex(cs)


class TestListings:
    def test_doall_nest_listing(self):
        cs = ConvexSet.from_box(["i", "j"], [(1, 4), (1, 5)])
        lines = doall_nest_listing(cs, "s(i,j)")
        text = "\n".join(lines)
        assert sum(1 for l in lines if l.strip().startswith("DOALL")) == 2
        assert text.count("ENDDOALL") == 2
        assert "s(i,j)" in text

    def test_rec_partition_listing_structure(self):
        prog = figure1_loop(10, 10)
        sym = symbolic_dependence_relation(prog)
        partition = symbolic_three_set_partition(prog.iteration_space(), sym)
        rec = AffineRecurrence.from_pair(
            DependenceAnalysis(prog, {}).single_coupled_pair()
        )
        listing = rec_partition_listing(partition, rec, "s(I1,I2)", order=["I1", "I2"])
        assert "initial partition" in listing
        assert "final partition" in listing
        assert "SUBROUTINE chain" in listing
        assert "DO WHILE" in listing
        assert listing.count("DOALL") >= 2

    def test_chain_subroutine_contains_recurrence_update(self):
        prog = figure1_loop(10, 10)
        rec = AffineRecurrence.from_pair(DependenceAnalysis(prog, {}).single_coupled_pair())
        lines = chain_subroutine(rec, prog.iteration_space().bind_parameters({}), "s(i1,i2)")
        text = "\n".join(lines)
        assert "DO WHILE" in text
        assert "3*i1" in text  # the i1' = 3*i1 - 2 update


class TestGeneratedPython:
    def test_chain_function_matches_library(self):
        result = plan(figure1_loop(30, 40), config=ALGORITHM1, cache=False)
        source = generate_chain_function(result.recurrence, 2)
        fn = compile_function(source, "follow_chain")
        p2 = set(result.partition.p2)
        (phase,) = [p for p in result.schedule.phases if p.name == CHAIN_PHASE]
        chains = oracle.chain_units(phase)
        assert chains
        for chain in chains:
            walked = fn(chain[0], lambda p: p in p2)
            assert tuple(tuple(p) for p in walked) == chain

    def test_chain_function_1d(self):
        result = plan(figure2_loop(20), config=ALGORITHM1, cache=False)
        source = generate_chain_function(result.recurrence, 1)
        fn = compile_function(source, "follow_chain")
        # empty intermediate set: every walk stops immediately
        assert fn((6,), lambda p: False) == [(6,)]

    def test_compile_function_missing_name(self):
        with pytest.raises(ValueError):
            compile_function("x = 1\n", "nope")

    def test_schedule_runner_reproduces_sequential_result(self):
        prog = figure1_loop(8, 9)
        result = plan(prog, config=ALGORITHM1, cache=False)
        source = generate_schedule_runner(prog, result.schedule)
        runner = compile_function(source, "run_schedule")
        store = make_store(prog)
        semantics = {s.label: (s.semantics or DEFAULT_SEMANTICS) for s in prog.statements()}
        runner(store, semantics)
        reference = execute_sequential(prog, {})
        assert np.array_equal(reference["a"], store["a"])

    def test_schedule_runner_mentions_barriers(self):
        prog = figure2_loop(10)
        result = plan(prog, config=ALGORITHM1, cache=False)
        source = generate_schedule_runner(prog, result.schedule)
        assert source.count("barrier") == result.schedule.num_phases
