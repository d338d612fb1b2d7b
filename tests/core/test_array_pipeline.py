"""End-to-end equivalence of the array-native pipeline with the oracle.

``test_bulk_equivalence`` pins the partitioners; this module pins the whole
pipeline: program → exact Rd (sort/merge join) → three-set / dataflow
partition → array :class:`~repro.core.schedule.Phase` schedule → execution.  For every example
workload the planned pipeline must produce the same Rd, P1/P2/P3/W sets,
wavefronts, per-phase instances and :func:`validate_schedule` results as the
brute-force tuple oracle of ``tests/oracle.py``.
"""

import numpy as np
import pytest

import oracle
from repro.core.dataflow import DataflowPartition, dataflow_partition, dataflow_schedule
from repro.core.partition import three_set_partition
from repro.core.partitioner import recurrence_branch
from repro.core.schedule import Phase, Schedule
from repro.core.strategy import PlanConfig, plan
from repro.dependence.analysis import DependenceAnalysis
from repro.isl.relations import FiniteRelation
from repro.runtime import execute
from repro.runtime.executor import execute_sequential, validate_schedule
from repro.workloads.examples import example2_loop, figure1_loop, figure2_loop
from repro.workloads.synthetic import large_triangular_loop, large_uniform_loop

PROGRAMS = [
    figure1_loop(12, 12),
    figure2_loop(20),
    example2_loop(12),
    large_uniform_loop(15, 11),
    large_triangular_loop(14),
]
PROGRAM_IDS = [p.name for p in PROGRAMS]

DATAFLOW = PlanConfig(strategies=("dataflow",))


def run_pipeline(prog):
    """The planned dataflow pipeline plus the eq. 5 partition of its Rd."""
    p = plan(prog, config=DATAFLOW, cache=False)
    rd = p.analysis.space.rd
    return p, rd, three_set_partition(p.analysis.space.unified_array, rd)


class TestPipelineEquivalence:
    @pytest.mark.parametrize("prog", PROGRAMS, ids=PROGRAM_IDS)
    def test_pipelines_bit_identical(self, prog):
        p, rd, partition = run_pipeline(prog)
        assert rd == oracle.statement_space(prog).rd
        expected = oracle.three_sets(oracle.space_points(prog), rd)
        assert oracle.sets(partition) == expected
        assert oracle.is_complete(partition)
        assert oracle.respects_phase_order(partition)
        assert oracle.schedule_phases(p.schedule) == oracle.dataflow_phases(prog)

    @pytest.mark.parametrize("prog", PROGRAMS, ids=PROGRAM_IDS)
    def test_wavefronts_identical(self, prog):
        analysis = DependenceAnalysis(prog, {})
        rd = analysis.space.rd
        waves = dataflow_partition(analysis.space.unified_array, rd)
        assert oracle.wavefront_sets(waves) == oracle.wavefronts(oracle.space_points(prog), rd)

    @pytest.mark.parametrize("prog", PROGRAMS, ids=PROGRAM_IDS)
    def test_validation_results_identical(self, prog):
        p, rd, _ = run_pipeline(prog)
        rep_s = validate_schedule(prog, oracle.unit_schedule(prog), {}, dependences=rd)
        rep_a = validate_schedule(prog, p.schedule, {}, dependences=rd)
        assert rep_a.ok and rep_s.ok
        assert (
            rep_a.covers_all_instances,
            rep_a.respects_dependences,
            rep_a.arrays_match,
            rep_a.mismatched_arrays,
        ) == (
            rep_s.covers_all_instances,
            rep_s.respects_dependences,
            rep_s.arrays_match,
            rep_s.mismatched_arrays,
        )

    @pytest.mark.parametrize("prog", PROGRAMS, ids=PROGRAM_IDS)
    def test_process_execution_matches_sequential(self, prog):
        sched_a = run_pipeline(prog)[0].schedule
        assert all(isinstance(p, Phase) for p in sched_a.phases)
        run = execute(prog, sched_a, backend="process", workers=2)
        reference = execute_sequential(prog, {})
        for name in reference:
            assert np.array_equal(reference[name], run.store[name])
        assert run.instances_executed == sum(p.work for p in sched_a.phases)


class TestArrayBackedPartitionViews:
    def test_level_arrays_round_trip(self):
        prog = large_triangular_loop(12)
        analysis = DependenceAnalysis(prog, {})
        rd = analysis.space.rd
        part = dataflow_partition(analysis.space.unified_array, rd)
        offsets, rows = part.level_arrays()
        expected = oracle.wavefronts(oracle.space_points(prog), rd)
        assert np.diff(offsets).tolist() == [len(w) for w in expected]
        for k, wave in enumerate(expected):
            level = rows[offsets[k] : offsets[k + 1]].tolist()
            assert [tuple(r) for r in level] == sorted(wave)  # lex inside a level
        rebuilt = DataflowPartition(offsets, rows, rd)
        assert oracle.wavefront_sets(rebuilt) == expected
        assert rebuilt == part

    def test_level_arrays_with_empty_leading_wavefront(self):
        # CSR offsets may describe empty levels; the partition keeps them.
        rd = FiniteRelation.empty(2, 2)
        part = DataflowPartition(
            np.array([0, 0, 1]), np.array([[1, 2]], dtype=np.int64), rd
        )
        assert oracle.wavefront_sets(part) == (frozenset(), frozenset({(1, 2)}))
        assert part.num_steps == 2
        assert np.diff(part.level_arrays()[0]).tolist() == [0, 1]
        all_empty = DataflowPartition(np.array([0, 0]), np.zeros((0, 2), dtype=np.int64), rd)
        assert oracle.wavefront_sets(all_empty) == (frozenset(),)
        offsets, rows = all_empty.level_arrays()
        assert offsets.tolist() == [0, 0] and rows.shape == (0, 2)

    def test_from_arrays_validates_offsets(self):
        rd = DependenceAnalysis(figure2_loop(6), {}).space.rd
        rows = np.array([[1], [2], [3]], dtype=np.int64)
        with pytest.raises(ValueError):
            DataflowPartition(np.array([0, 2]), rows, rd)
        with pytest.raises(ValueError):
            DataflowPartition(np.array([1, 3]), rows, rd)


class TestRecurrenceChainArrayPhases:
    def test_large_single_pair_program_gets_array_doall_phases(self):
        prog = large_uniform_loop(80, 80)
        result = recurrence_branch(prog)
        assert result.scheme == "recurrence-chains"
        # P1/P3 are DOALL slices of the partition's rows, P2 one unit per chain.
        units = [p.unit_offsets is None for p in result.schedule.phases]
        assert units == [True, False, True]
        report = validate_schedule(
            prog,
            result.schedule,
            {},
            dependences=result.analysis.space.rd,
        )
        assert report.ok and report.respects_dependences

    def test_small_program_gets_array_doall_phases_and_matches(self):
        prog = figure1_loop(10, 10)
        result = recurrence_branch(prog)
        expected = oracle.three_sets(oracle.space_points(prog), result.partition.rd)
        p1, p2, p3 = result.schedule.phases
        def instances(phase):
            return oracle.phase_instances(result.schedule, phase)

        assert [pt for _, pt in instances(p1)] == sorted(expected.p1)
        assert [pt for _, pt in instances(p3)] == sorted(expected.p3)
        chains = oracle.recurrence_chains(expected, result.recurrence)
        bounds = [0, *np.cumsum(p2.unit_lengths()).tolist()]  # one unit per chain
        p2_points = [pt for _, pt in instances(p2)]
        assert [tuple(p2_points[lo:hi]) for lo, hi in zip(bounds, bounds[1:])] == chains
        report = validate_schedule(
            prog,
            result.schedule,
            {},
            dependences=result.analysis.space.rd,
        )
        assert report.ok


class TestScheduleFromArrays:
    def make(self):
        rows = np.array([[1, 1], [1, 2], [2, 1], [2, 2], [3, 3]], dtype=np.int64)
        offsets = np.array([0, 2, 4, 5], dtype=np.int64)
        return Schedule.from_levels(
            "s", ("stmt",), (2,), offsets, np.zeros(5, dtype=np.int64), rows,
            scheme="dataflow",
        )

    def test_structure_and_metrics(self):
        sched = self.make()
        assert sched.num_phases == 3
        assert [p.name for p in sched.phases] == [
            "wavefront-0",
            "wavefront-1",
            "wavefront-2",
        ]
        assert sched.total_work == 5
        assert sched.span == 3
        assert sched.max_parallelism == 2
        assert sched.meta["scheme"] == "dataflow"

    def test_empty_levels_dropped(self):
        rows = np.array([[1], [2]], dtype=np.int64)
        offsets = np.array([0, 0, 2, 2], dtype=np.int64)
        sched = Schedule.from_levels("s", ("stmt",), (1,), offsets, [0, 0], rows)
        assert sched.num_phases == 1
        assert sched.phases[0].name == "wavefront-1"

    def test_bad_offsets_rejected(self):
        rows = np.array([[1], [2]], dtype=np.int64)
        def build(offsets):
            return Schedule.from_levels("s", ("stmt",), (1,), offsets, [0, 0], rows)

        with pytest.raises(ValueError):
            build(np.array([0, 1]))
        with pytest.raises(ValueError):
            build(np.array([1, 2]))
        with pytest.raises(ValueError):  # non-monotonic: would replay rows
            build(np.array([0, 2, 1, 2]))
        with pytest.raises(ValueError):  # statement ids not parallel to rows
            Schedule.from_levels("s", ("stmt",), (1,), np.array([0, 2]), [0], rows)

    def test_executor_handles_mixed_phase_kinds(self):
        prog = figure2_loop(20)
        analysis = DependenceAnalysis(prog, {})
        rd = analysis.space.rd
        arr_sched = dataflow_schedule(prog.name, analysis.space.unified_array, rd)
        tup_sched = oracle.unit_schedule(prog)
        mixed = Schedule(
            "mixed",
            (arr_sched.phases[0],) + tup_sched.phases[1:],
            arr_sched.labels,
            arr_sched.depths,
        )
        result = execute(prog, mixed, {}).store
        reference = execute_sequential(prog, {})
        for name in reference:
            assert np.array_equal(reference[name], result[name])


class TestArrayBackedIsConstructionFact:
    def test_stored_arrays_are_read_only(self):
        # Schedules, partitions and relations share and cache these arrays; an
        # in-place edit through any alias must raise, never silently desync.
        prog = figure2_loop(20)
        analysis = DependenceAnalysis(prog, {})
        rd = analysis.space.rd
        sched = dataflow_schedule(prog.name, analysis.space.unified_array, rd)
        phase = sched.phases[0]
        with pytest.raises(ValueError):
            phase.iters[0, 0] = 999
        part = three_set_partition(analysis.space.unified_array, rd)
        with pytest.raises(ValueError):
            part.p1_array()[0, 0] = 999
        src, dst = rd.as_arrays()
        with pytest.raises(ValueError):
            src[0, 0] = 999
