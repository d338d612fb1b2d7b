"""End-to-end equivalence of the array-native pipeline with the oracle.

``test_bulk_equivalence`` pins the partitioners; this module pins the whole
pipeline: program → exact Rd (sort/merge join) → three-set / dataflow
partition → :class:`ArrayPhase` schedule → execution.  For every example
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
from repro.core.schedule import ArrayPhase, ParallelPhase, Schedule
from repro.core.strategy import PlanConfig, plan
from repro.dependence.analysis import DependenceAnalysis
from repro.isl.relations import FiniteRelation
from repro.runtime.executor import execute_schedule, execute_sequential, validate_schedule
from repro.runtime.threaded import execute_schedule_threaded
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
    rd = p.analysis.iteration_dependences
    return p, rd, three_set_partition(p.analysis.iteration_space_array, rd)


class TestPipelineEquivalence:
    @pytest.mark.parametrize("prog", PROGRAMS, ids=PROGRAM_IDS)
    def test_pipelines_bit_identical(self, prog):
        p, rd, partition = run_pipeline(prog)
        assert rd == oracle.iteration_dependences(prog)
        expected = oracle.three_sets(oracle.space_points(prog), rd)
        for name in ("space", "p1", "p2", "p3", "w"):
            assert getattr(partition, name) == getattr(expected, name), name
        assert partition.is_complete()
        assert partition.respects_phase_order()
        assert oracle.schedule_phases(p.schedule) == oracle.dataflow_phases(prog)

    @pytest.mark.parametrize("prog", PROGRAMS, ids=PROGRAM_IDS)
    def test_wavefronts_identical(self, prog):
        analysis = DependenceAnalysis(prog, {})
        rd = analysis.iteration_dependences
        waves = dataflow_partition(analysis.iteration_space_array, rd)
        assert waves.wavefronts == oracle.wavefronts(oracle.space_points(prog), rd)

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
    def test_threaded_execution_matches_sequential(self, prog):
        sched_a = run_pipeline(prog)[0].schedule
        assert any(isinstance(p, ArrayPhase) for p in sched_a.phases)
        run = execute_schedule_threaded(prog, sched_a, n_threads=3)
        reference = execute_sequential(prog, {})
        for name in reference:
            assert np.array_equal(reference[name], run.store[name])
        assert run.instances_executed == sum(len(p.points) for p in sched_a.phases)


class TestArrayBackedPartitionViews:
    def test_vector_partition_stays_lazy_for_array_consumers(self):
        prog = large_uniform_loop(20, 15)
        analysis = DependenceAnalysis(prog, {})
        rd = analysis.iteration_dependences
        part = three_set_partition(analysis.iteration_space_array, rd)
        assert part._sets == {}  # nothing materialised yet
        sched = dataflow_partition(analysis.iteration_space_array, rd)
        assert sched._wavefronts is None
        # Touching a set view materialises only that view.
        _ = part.p1
        assert "p1" in part._sets and "p2" not in part._sets

    def test_level_arrays_round_trip(self):
        prog = large_triangular_loop(12)
        analysis = DependenceAnalysis(prog, {})
        rd = analysis.iteration_dependences
        part = dataflow_partition(analysis.iteration_space_array, rd)
        offsets, rows = part.level_arrays()
        expected = oracle.wavefronts(oracle.space_points(prog), rd)
        assert part.level_sizes() == [len(w) for w in expected]
        for k, wave in enumerate(expected):
            level = rows[offsets[k] : offsets[k + 1]].tolist()
            assert [tuple(r) for r in level] == sorted(wave)  # lex inside a level
        rebuilt = DataflowPartition(offsets, rows, rd)
        assert rebuilt.wavefronts == expected
        assert rebuilt == part

    def test_level_arrays_with_empty_leading_wavefront(self):
        # CSR offsets may describe empty levels; the frozenset view keeps them.
        rd = FiniteRelation(frozenset(), 2, 2)
        part = DataflowPartition(
            np.array([0, 0, 1]), np.array([[1, 2]], dtype=np.int64), rd
        )
        assert part.wavefronts == (frozenset(), frozenset({(1, 2)}))
        assert part.level_sizes() == [0, 1]
        all_empty = DataflowPartition(np.array([0, 0]), np.zeros((0, 2), dtype=np.int64), rd)
        assert all_empty.wavefronts == (frozenset(),)
        offsets, rows = all_empty.level_arrays()
        assert offsets.tolist() == [0, 0] and rows.shape == (0, 2)

    def test_from_arrays_validates_offsets(self):
        rd = DependenceAnalysis(figure2_loop(6), {}).iteration_dependences
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
        kinds = [type(p) for p in result.schedule.phases]
        assert ArrayPhase in kinds  # P1/P3 emitted as array views
        report = validate_schedule(
            prog,
            result.schedule,
            {},
            dependences=result.analysis.iteration_dependences,
        )
        assert report.ok and report.respects_dependences

    def test_small_program_gets_array_doall_phases_and_matches(self):
        prog = figure1_loop(10, 10)
        result = recurrence_branch(prog)
        kinds = [type(p) for p in result.schedule.phases]
        assert kinds == [ArrayPhase, ParallelPhase, ArrayPhase]  # P1, chains, P3
        expected = oracle.three_sets(oracle.space_points(prog), result.partition.rd)
        p1, _, p3 = result.schedule.phases
        assert [pt for _, pt in p1.instances()] == sorted(expected.p1)
        assert [pt for _, pt in p3.instances()] == sorted(expected.p3)
        report = validate_schedule(
            prog,
            result.schedule,
            {},
            dependences=result.analysis.iteration_dependences,
        )
        assert report.ok


class TestScheduleFromArrays:
    def make(self):
        rows = np.array([[1, 1], [1, 2], [2, 1], [2, 2], [3, 3]], dtype=np.int64)
        offsets = np.array([0, 2, 4, 5], dtype=np.int64)
        return Schedule.from_arrays("s", "stmt", offsets, rows, scheme="dataflow")

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

    def test_units_are_lazy_and_equivalent(self):
        sched = self.make()
        phase = sched.phases[0]
        assert phase._units is None
        tuple_phase = ParallelPhase("wavefront-0", phase.units)
        assert phase == tuple_phase
        assert hash(phase) == hash(tuple_phase)  # eq/hash contract across kinds
        assert phase.instances() == tuple_phase.instances()

    def test_empty_levels_dropped(self):
        rows = np.array([[1], [2]], dtype=np.int64)
        offsets = np.array([0, 0, 2, 2], dtype=np.int64)
        sched = Schedule.from_arrays("s", "stmt", offsets, rows)
        assert sched.num_phases == 1
        assert sched.phases[0].name == "wavefront-1"

    def test_bad_offsets_rejected(self):
        rows = np.array([[1], [2]], dtype=np.int64)
        with pytest.raises(ValueError):
            Schedule.from_arrays("s", "stmt", np.array([0, 1]), rows)
        with pytest.raises(ValueError):
            Schedule.from_arrays("s", "stmt", np.array([1, 2]), rows)
        with pytest.raises(ValueError):  # non-monotonic: would replay rows
            Schedule.from_arrays("s", "stmt", np.array([0, 2, 1, 2]), rows)

    def test_executor_handles_mixed_phase_kinds(self):
        prog = figure2_loop(20)
        analysis = DependenceAnalysis(prog, {})
        rd = analysis.iteration_dependences
        arr_sched = dataflow_schedule(prog.name, analysis.iteration_space_array, rd)
        tup_sched = oracle.unit_schedule(prog)
        mixed = Schedule(
            "mixed", (arr_sched.phases[0],) + tup_sched.phases[1:], {}
        )
        result = execute_schedule(prog, mixed, {})
        reference = execute_sequential(prog, {})
        for name in reference:
            assert np.array_equal(reference[name], result[name])


class TestArrayBackedIsConstructionFact:
    def test_uniformity_ignores_duplicate_space_rows(self):
        from repro.dependence.distance import is_uniform_relation

        rel = FiniteRelation.from_pairs([((0, 0), (1, 1))])
        points = [(0, 0), (0, 0), (1, 1)]
        expected = oracle.is_uniform(rel, points)
        assert is_uniform_relation(rel, points) == expected
        assert is_uniform_relation(rel, np.array(points, dtype=np.int64)) == expected

    def test_stored_arrays_are_read_only(self):
        # The lazy tuple views cache data derived from the stored arrays; an
        # in-place edit through any alias must raise, never silently desync.
        prog = figure2_loop(20)
        analysis = DependenceAnalysis(prog, {})
        rd = analysis.iteration_dependences
        sched = dataflow_schedule(prog.name, analysis.iteration_space_array, rd)
        phase = sched.phases[0]
        _ = phase.units  # materialise the tuple view
        with pytest.raises(ValueError):
            phase.points[0, 0] = 999
        part = three_set_partition(analysis.iteration_space_array, rd)
        with pytest.raises(ValueError):
            part.p1_array()[0, 0] = 999
        src, dst = rd.as_arrays()
        with pytest.raises(ValueError):
            src[0, 0] = 999
